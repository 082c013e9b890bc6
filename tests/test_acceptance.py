"""Acceptance gate: the eleven desk-scale criteria the package must meet.

Each test prints one verdict line (visible with -s, and in the captured
output on failure) and asserts the criterion at its stated tolerance.
The shared runs are module-scoped fixtures so the expensive solves
happen once.
"""
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from slipflow.cli import main
from slipflow.config import config_from_mapping
from slipflow.diagnostics import run_diagnostics
from slipflow.fields import (
    NormKind,
    ScalarField,
    VectorField,
    curl,
    divergence,
    grad_array,
    norm,
)
from slipflow.grid import GeometryConfig, build_grid
from slipflow.material import FlowParams
from slipflow.picard import (
    build_setup,
    convergence_metrics,
    picard_solve,
)
from slipflow.study import (
    DENSITY_ORDER_MIN, VELOCITY_ORDER_MIN, manufactured_study, transport_study,
)
from slipflow.transport import apply_S
from oracles import (
    jacobian_bound, random_small_start, smooth_scalar, two_start_uniqueness, wall_respecting_flow,
)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def _timed_run(doc: dict) -> SimpleNamespace:
    cfg = config_from_mapping(doc)
    setup = build_setup(cfg)
    t0 = time.perf_counter()
    bundle = picard_solve(setup)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, setup=setup, bundle=bundle, seconds=seconds)


@pytest.fixture(scope="module")
def run16():
    # the default configuration verbatim: split mode, eps = 1e-2, (16, 8, 8)
    return _timed_run({})


@pytest.fixture(scope="module")
def run32():
    return _timed_run({"geometry": {"n1": 32, "n2": 16, "n3": 16}})


@pytest.fixture(scope="module")
def run16_eps3():
    return _timed_run({"data": {"epsilon": 1e-3}})


@pytest.fixture(scope="module")
def run16_mono():
    return _timed_run({"solver": {"mode": "monolithic"}})


def test_criterion_01_zero_data_fixed_point():
    run = _timed_run({"data": {"epsilon": 0.0}})
    size = norm(run.bundle.u, NormKind.h1()) + norm(run.bundle.w, NormKind.linf_l2())
    ok = (run.bundle.converged and len(run.bundle.history) <= 2
          and size <= 1e-12 and run.seconds < 10.0)
    _verdict(1, "zero-data fixed point", ok,
             f"size {size:.2e}, {len(run.bundle.history)} iterations, "
             f"{run.seconds:.1f} s")


def test_criterion_02_contraction(run16):
    hist = run16.bundle.history
    late_ratios = [rec.r_n for rec in hist if rec.n >= 2]
    worst = max(late_ratios) if late_ratios else 0.0
    ok = (run16.bundle.converged and len(hist) <= 25
          and worst <= 0.5 and run16.seconds < 180.0)
    _verdict(2, "contraction of the outer loop", ok,
             f"max r_n {worst:.3f} over {len(hist)} iterations, "
             f"{run16.seconds:.1f} s")


def test_criterion_03_boundedness_recursion(run16):
    metrics = convergence_metrics(run16.bundle.history, run16.setup.data.b_measure)
    ok = metrics["bound_ok"]
    _verdict(3, "iterate boundedness recursion", ok,
             f"max A_n {metrics['max_a']:.3e} vs bound {metrics['bound']:.3e}")


def test_criterion_04_uniqueness_and_mode_agreement(run16, run16_mono):
    setup = run16.setup
    start2 = random_small_start(setup, seed=0)
    dist = two_start_uniqueness(setup, None, start2)
    tol = 10.0 * setup.solver.outer_tol
    first = dist <= tol

    grid = setup.grid
    bs, bm = run16.bundle, run16_mono.bundle
    du = norm(VectorField(grid, bs.u.values - bm.u.values), NormKind.h1())
    dw = norm(ScalarField(grid, bs.w.values - bm.w.values), NormKind.linf_l2())
    ref = norm(bm.u, NormKind.h1()) + norm(bm.w, NormKind.linf_l2())
    rel = (du + dw) / ref
    second = rel <= 1e-6

    ok = first and second
    _verdict(4, "uniqueness and mode agreement", ok,
             f"two-start distance {dist:.2e} vs {tol:.0e}; "
             f"split-vs-monolithic relative gap {rel:.2e} vs 1e-06")


def test_criterion_05_transport_route_equivalence():
    study = transport_study(GeometryConfig())
    worst = max(case.error for case in study.exact)
    _verdict(5, "transport route equivalence", study.passed,
             f"constant-case max error {worst:.1e}, mutual order {study.order:.2f}")


def test_criterion_06_transport_solution_estimate():
    g = build_grid(GeometryConfig(2.0, 1.0, 1.0, 16, 8, 8))
    tf = wall_respecting_flow(g, 1e-2)
    jb = jacobian_bound(tf)
    w2 = g.axis_weights(1)[:, None] * g.axis_weights(2)[None, :]
    factor = np.sqrt(4.0 * g.config.length)
    worst = 0.0
    holds = True
    for seed in range(100):
        v = smooth_scalar(g, 1000 + seed, 0.4)
        w_in = smooth_scalar(g, 5000 + seed, 0.4).values[0]
        lhs = norm(apply_S(tf, v, w_in), NormKind.linf_l2())
        trace_l2 = float(np.sqrt(np.sum(w2 * w_in**2)))
        rhs = (1.0 + jb) * (trace_l2 + factor * norm(v, NormKind.lp(2.0)))
        holds = holds and lhs <= rhs
        worst = max(worst, lhs / rhs)
    _verdict(6, "transport solution estimate", holds,
             f"100 seeded pairs, worst lhs/rhs {worst:.3f}")


def test_criterion_07_manufactured_linear_step_orders():
    t0 = time.perf_counter()
    split, mono = (manufactured_study(GeometryConfig(), FlowParams(), mode)
                   for mode in ("split", "monolithic"))
    seconds = time.perf_counter() - t0
    ok = (min(split.order_u, mono.order_u) >= VELOCITY_ORDER_MIN
          and min(split.order_w, mono.order_w) >= DENSITY_ORDER_MIN and seconds < 300.0)
    _verdict(7, "manufactured linear-step orders", ok,
             f"u orders split {split.order_u:.2f} / monolithic {mono.order_u:.2f}, "
             f"w orders split {split.order_w:.2f} / monolithic {mono.order_w:.2f}, "
             f"{seconds:.0f} s")


def test_criterion_08_estimate_machinery_audits(run16, run32, run16_eps3):
    d16, d32, d3 = (run_diagnostics(r.bundle.u, r.bundle.w, r.setup.data, r.setup.params)
                    for r in (run16, run32, run16_eps3))
    gains = {
        name: d16.entry(name).value / d32.entry(name).value
        for name in ("energy_identity", "vorticity_slip_max", "gradient_structure")
    }
    a16 = d16.entry("apriori_ratio").value
    a32 = d32.entry("apriori_ratio").value
    a3 = d3.entry("apriori_ratio").value
    grid_var = max(a16, a32) / min(a16, a32)
    eps_var = max(a16, a3) / min(a16, a3)
    ok = all(g >= 1.5 for g in gains.values()) and grid_var <= 2.0 and eps_var <= 2.0
    _verdict(8, "estimate machinery audits", ok,
             "doubling gains " + ", ".join(f"{k} {v:.2f}" for k, v in gains.items())
             + f"; apriori variation grid x{grid_var:.2f}, eps x{eps_var:.2f}")


def test_criterion_09_exact_stencil_identities():
    g = build_grid(GeometryConfig(2.0, 1.0, 1.0, 16, 8, 8))
    rng = np.random.default_rng(99)
    s = ScalarField(g, rng.standard_normal(g.shape))
    grad = VectorField(g, grad_array(s.values, g))
    cg = np.max(np.abs(curl(grad).values[:, 1:-1, 1:-1, 1:-1]))
    v = VectorField(g, rng.standard_normal((3, *g.shape)))
    dc = np.max(np.abs(divergence(curl(v)).values[1:-1, 1:-1, 1:-1]))
    ok = cg <= 1e-13 and dc <= 1e-13
    _verdict(9, "exact stencil identities", ok,
             f"curl(grad) {cg:.1e}, div(curl) {dc:.1e} at interior nodes")


def test_criterion_10_bit_identical_reruns(tmp_path):
    doc = {"output": {"directory": str(tmp_path / "a")}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    names = ["history.csv", "field_u.txt", "field_w.txt", "field_v.txt", "field_rho.txt"]
    same = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    }
    ok = all(same.values())
    _verdict(10, "bit-identical reruns", ok,
             "identical: " + ", ".join(f"{k}={v}" for k, v in same.items()))


def test_criterion_11_contraction_scales_with_the_data():
    # the paper's fixed-point argument: for small data the contraction
    # constant and the iterate size are each linear in the data measure B,
    # so max r_n / B (after the first step) and max A_n / B hold across
    # data sizes; the guard a_n > 1 and r_n = 1/2 are then extrapolated
    epsilons = (1e-3, 3e-3, 1e-2, 3e-2)
    rate, size, b_per_eps, ok = [], [], [], True
    for eps in epsilons:
        run = _timed_run({"data": {"epsilon": eps}, "solver": {"mode": "monolithic"}})
        b = run.setup.data.b_measure
        ok = ok and run.bundle.converged
        rate.append(max(rec.r_n for rec in run.bundle.history if rec.n >= 1) / b)
        size.append(max(rec.a_n for rec in run.bundle.history) / b)
        b_per_eps.append(b / eps)
    spread = [float(np.max(np.abs(np.array(c) / np.mean(c) - 1.0))) for c in (rate, size)]
    ok = ok and max(spread) <= 0.02
    eps_guard = 1.0 / (np.mean(size) * np.mean(b_per_eps))
    eps_half = 0.5 / (np.mean(rate) * np.mean(b_per_eps))
    _verdict(11, "contraction scales with the data", ok,
             f"max r_n / B {np.mean(rate):.4f} (spread {spread[0]:.1%}), "
             f"max A_n / B {np.mean(size):.4f} (spread {spread[1]:.1%}) over eps "
             f"{epsilons[0]:g} to {epsilons[-1]:g}; A_n reaches 1 near eps {eps_guard:.3f}, "
             f"r_n reaches 1/2 near eps {eps_half:.2f}")
