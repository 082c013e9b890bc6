"""Command-line front end: parses arguments, calls the library, prints.

Four subcommands share one config format:

  solve           run the outer iteration, dump history and fields
  verify          print study.manufactured_study, the linear step's orders
  diagnose        grade a previously dumped solution against the audits
  transport-test  print study.transport_study, the two transport solvers
                  checked against each other

Exit status is 0 only when the command's acceptance condition holds
(converged / velocity and density orders reached / all audits green /
suite passed); any module error is reported on stderr with status 2.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runio
from .config import RunConfig, config_from_mapping, parse_config
from .diagnostics import run_diagnostics
from .fields import strong_size
from .lame import MODES
from .picard import build_setup, convergence_metrics, picard_solve
from .study import (
    DENSITY_ORDER_MIN, MUTUAL_ORDER_MIN, VELOCITY_ORDER_MIN, manufactured_study, transport_study,
)
from .transport import apply_S  # noqa: F401  bench/selftest.py checks the tracer rebinds it here


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
    # the size of the iterate returned and dumped, not the a_n recorded
    # at the start of the last step
    update = f"final update d_n = {bundle.history[-1].d_n:.3e}, " if bundle.history else ""
    print(f"{update}iterate size A_n = {strong_size(bundle.u, bundle.w, config.solver.p):.3e}")
    if len(bundle.history) >= 2:
        metrics = convergence_metrics(bundle.history, setup.data.b_measure)
        print(f"iterate bound 2*C_b*B = {metrics['bound']:.3e} "
              f"({'held' if metrics['bound_ok'] else 'violated'})")
    for path in paths:
        print(f"wrote {path}")
    return 0 if bundle.converged else 1


def cmd_verify(config: RunConfig, out_dir: str) -> int:
    result = manufactured_study(config.geometry, config.params, config.solver.mode,
                                config.solver.inner_tol)
    print(f"manufactured-solution study, mode = {config.solver.mode}")
    print(f"{'n1':>4} {'err_u_H1':>12} {'err_w_LinfL2':>13}")
    for n1, eu, ew in zip(result.sizes, result.errors_u, result.errors_w):
        print(f"{n1:>4} {eu:>12.4e} {ew:>13.4e}")
    print(f"velocity order {result.order_u:.2f}, density order {result.order_w:.2f}")
    print(f"verify: {'PASS' if result.passed else 'FAIL'} (velocity order >= "
          f"{VELOCITY_ORDER_MIN} and density order >= {DENSITY_ORDER_MIN} required)")
    return 0 if result.passed else 1


def cmd_transport_test(config: RunConfig, out_dir: str) -> int:
    result = transport_study(config.geometry)
    for case in result.exact:
        print(f"constant {case.label:<6} {case.solver:<12} max error {case.error:.2e} "
              f"{'PASS' if case.passed else 'FAIL'}")
    print(f"{'n1':>4} {'|S - march|_L2':>15}")
    for n1, diff in zip(result.sizes, result.differences):
        print(f"{n1:>4} {diff:>15.4e}")
    print(f"mutual convergence order {result.order:.2f} "
          f"{'PASS' if result.order_ok else 'FAIL'} (>= {MUTUAL_ORDER_MIN} required)")
    print(f"transport-test: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def cmd_diagnose(config: RunConfig, out_dir: str) -> int:
    out = Path(out_dir)
    setup = build_setup(config)
    u, w = runio.load_solution(out, setup.grid)
    print(f"solve verdict: {runio.load_verdict(out)}")
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
