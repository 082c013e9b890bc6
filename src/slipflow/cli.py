"""Command-line front end.

Four subcommands share one config format:

  solve           run the outer iteration, dump history and fields
  verify          manufactured-solution order study for the linear step
  diagnose        grade a previously dumped solution against the audits
  transport-test  cross-check the two transport solvers against each other

Exit status is 0 only when the command's acceptance condition holds
(converged / order reached / all audits green / suite passed); any module
error is reported on stderr with status 2.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import runio
from .config import ConfigError, RunConfig, config_from_mapping, parse_config
from .diagnostics import run_diagnostics
from .fields import NormKind, ScalarField, VectorField, norm
from .grid import GeometryConfig, Grid, build_grid
from .lame import MODES, build_lame_operator, solve_linear_step
from .mms import build_linear_case
from .picard import build_setup, convergence_metrics, picard_solve
from .transport import apply_S, make_transport_field, upwind_march

VERIFY_SIZES = (8, 16, 32)
TRANSPORT_SIZES = (8, 16, 32, 64)


def _fit_order(errors) -> float:
    """Least-squares convergence order across successive grid doublings."""
    levels = np.arange(len(errors), dtype=float)
    logs = np.log2(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    slope = np.polyfit(levels, logs, 1)[0]
    return float(-slope)


def _study_geometry(base: GeometryConfig, n1: int) -> GeometryConfig:
    return GeometryConfig(base.length, base.width2, base.width3, n1, n1 // 2, n1 // 2)


def cmd_solve(config: RunConfig, out_dir: str) -> int:
    # an out_dir that cannot be a directory fails here, not after the solve
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    setup = build_setup(config)
    bundle = picard_solve(setup)
    paths = runio.write_outputs(out_dir, bundle, config)
    for rec in bundle.history:
        print(f"step {rec.n}: {rec.sweeps} sweeps, {rec.inner_iterations} Krylov iterations, "
              f"linear residual {rec.linear_residual:.2e}")
    print(f"verdict: {bundle.verdict} after {len(bundle.history)} iterations")
    if bundle.history:
        last = bundle.history[-1]
        print(f"final update d_n = {last.d_n:.3e}, iterate size A_n = {last.a_n:.3e}")
    if len(bundle.history) >= 2:
        metrics = convergence_metrics(bundle.history, setup.data.b_measure)
        print(f"iterate bound 2*C_b*B = {metrics['bound']:.3e} "
              f"({'held' if metrics['bound_ok'] else 'violated'})")
    for path in paths:
        print(f"wrote {path}")
    return 0 if bundle.converged else 1


def cmd_verify(config: RunConfig, out_dir: str) -> int:
    errs_u, errs_w = [], []
    print(f"manufactured-solution study, mode = {config.solver.mode}")
    print(f"{'n1':>4} {'err_u_H1':>12} {'err_w_LinfL2':>13}")
    for n1 in VERIFY_SIZES:
        grid = build_grid(_study_geometry(config.geometry, n1))
        case = build_linear_case(grid, config.params)
        res = solve_linear_step(
            build_lame_operator(grid, config.params),
            case.convect, case.forcing, case.continuity, case.slip_data, case.w_in,
            mode=config.solver.mode,
            inner_tol=config.solver.inner_tol,
        )
        eu = norm(VectorField(grid, res.u.values - case.u_exact.values), NormKind.h1())
        ew = norm(ScalarField(grid, res.w.values - case.w_exact.values), NormKind.linf_l2())
        errs_u.append(eu)
        errs_w.append(ew)
        print(f"{n1:>4} {eu:>12.4e} {ew:>13.4e}")
    order_u = _fit_order(errs_u)
    order_w = _fit_order(errs_w)
    print(f"velocity order {order_u:.2f}, density order {order_w:.2f}")
    passed = order_u >= 1.8
    print(f"verify: {'PASS' if passed else 'FAIL'} (velocity order >= 1.8 required)")
    return 0 if passed else 1


def _suite_flow(grid: Grid, eps: float) -> np.ndarray:
    """Smooth advecting velocity with no flux through the lateral walls."""
    x1, x2, x3 = grid.meshgrid()
    ext = grid.config.extents
    vals = np.zeros((3,) + grid.shape)
    vals[0] = 1.0 + eps * np.sin(np.pi * x1 / ext[0]) * np.sin(np.pi * x2 / ext[1])
    vals[1] = eps * np.sin(np.pi * x2 / ext[1]) * np.cos(np.pi * x3 / ext[2])
    vals[2] = eps * np.sin(np.pi * x3 / ext[2]) * np.cos(0.5 * np.pi * x1 / ext[0])
    return vals


def cmd_transport_test(config: RunConfig, out_dir: str) -> int:
    base = config.geometry
    eps = 1e-2  # fixed: the suite checks the solvers, not the run's data size

    # constant cases: uniform axial flow, both solvers must be exact
    exact_ok = True
    grid = build_grid(_study_geometry(base, TRANSPORT_SIZES[0]))
    uniform = np.zeros((3,) + grid.shape)
    uniform[0] = 1.0
    tf = make_transport_field(grid, uniform)
    x1 = grid.meshgrid()[0]
    trace_shape = (grid.shape[1], grid.shape[2])
    for label, source_val, trace_val in (("trace", 0.0, 0.7), ("source", 0.3, 0.7)):
        source = ScalarField(grid, np.full(grid.shape, source_val))
        w_in = np.full(trace_shape, trace_val)
        expected = trace_val + source_val * x1
        for solver_name, fn in (("apply_S", apply_S), ("upwind_march", upwind_march)):
            err = float(np.max(np.abs(fn(tf, source, w_in).values - expected)))
            ok = err <= 1e-10
            exact_ok = exact_ok and ok
            print(f"constant {label:<6} {solver_name:<12} max error {err:.2e} "
                  f"{'PASS' if ok else 'FAIL'}")

    # smooth case: the two solvers must agree at first order or better
    diffs = []
    print(f"{'n1':>4} {'|S - march|_L2':>15}")
    for n1 in TRANSPORT_SIZES:
        grid = build_grid(_study_geometry(base, n1))
        x1, x2, x3 = grid.meshgrid()
        ext = grid.config.extents
        tf = make_transport_field(grid, _suite_flow(grid, eps))
        source = ScalarField(
            grid,
            0.1 + 0.25 * np.sin(np.pi * x1 / ext[0])
            * np.cos(np.pi * x2 / ext[1]) * np.cos(np.pi * x3 / ext[2]),
        )
        mesh2, mesh3 = np.meshgrid(grid.axes[1], grid.axes[2], indexing="ij")
        w_in = 0.1 * np.sin(np.pi * mesh2 / ext[1]) * np.sin(np.pi * mesh3 / ext[2])
        diff = apply_S(tf, source, w_in).values - upwind_march(tf, source, w_in).values
        diffs.append(norm(ScalarField(grid, diff), NormKind.lp(2.0)))
        print(f"{n1:>4} {diffs[-1]:>15.4e}")
    order = _fit_order(diffs)
    order_ok = order >= 0.8
    print(f"mutual convergence order {order:.2f} "
          f"{'PASS' if order_ok else 'FAIL'} (>= 0.8 required)")
    passed = exact_ok and order_ok
    print(f"transport-test: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_diagnose(config: RunConfig, out_dir: str) -> int:
    out = Path(out_dir)
    u_path, w_path = out / "field_u.txt", out / "field_w.txt"
    if not u_path.exists() or not w_path.exists():
        raise ConfigError(
            f"diagnose needs field_u.txt and field_w.txt in {out_dir}; run solve first"
        )
    setup = build_setup(config)
    grid = setup.grid
    _, u_values, u_spacing = runio.load_field_dump(u_path)
    _, w_values, w_spacing = runio.load_field_dump(w_path)
    if u_values.shape != (3,) + grid.shape or w_values.shape != grid.shape:
        raise ConfigError(
            f"dumped fields in {out_dir} do not match the configured grid {grid.shape}"
        )
    for spacing in (u_spacing, w_spacing):
        if spacing != grid.h:
            raise ConfigError(f"dumped fields in {out_dir} have spacing {spacing}, "
                              f"the configured grid has spacing {grid.h}")
    u = VectorField(grid, u_values)
    w = ScalarField(grid, w_values)
    report = run_diagnostics(u, w, setup.data, config.params)
    runio.write_report_json(out / "report.json", report)
    width = max(len(e.name) for e in report.entries)
    for e in report.entries:
        print(f"{e.name:<{width}} {e.value:>12.4e} <= {e.tolerance:<10.3g} "
              f"{'PASS' if e.passed else 'FAIL'}")
    print(f"wrote {out / 'report.json'}")
    print(f"diagnose: {'PASS' if report.all_passed else 'FAIL'}")
    return 0 if report.all_passed else 1


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "diagnose": cmd_diagnose,
    "transport-test": cmd_transport_test,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipflow",
        description="steady duct flow solver with slip walls and inflow density data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file (defaults apply)")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        cmd.add_argument("--mode", default=None, choices=MODES,
                         help="override solver.mode")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            config = config_from_mapping({})
        else:
            config = parse_config(args.config)
        if args.mode is not None and args.mode != config.solver.mode:
            doc = {k: dict(v) for k, v in config.document.items()}
            doc["solver"] = dict(doc["solver"], mode=args.mode)
            config = config_from_mapping(doc)
        out_dir = args.out if args.out is not None else config.output.directory
        return _COMMANDS[args.command](config, out_dir)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
