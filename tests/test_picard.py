import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import strong_size, weak_distance, zeros_scalar, zeros_vector
from slipflow.material import (
    FlowParams,
    DataConfig,
    assemble_perturbation_data,
)
from slipflow import krylov, lame, material, picard
from slipflow.config import SolverConfig, config_from_mapping
from slipflow.diagnostics import reconstruct_physical
from slipflow.krylov import KrylovError
from slipflow.lame import build_lame_operator
from slipflow.picard import (
    ProblemSetup,
    build_setup,
    IterationRecord,
    picard_solve,
    convergence_metrics,
)
from oracles import full_solve_split_step, random_small_start, two_start_uniqueness


def make_setup(eps, n1=8, mode="split", **kwargs):
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n1 // 2, n1 // 2))
    params = FlowParams()
    boundary = DataConfig(epsilon=eps)
    data = assemble_perturbation_data(grid, boundary, params)
    return ProblemSetup(grid, params, data, SolverConfig(mode=mode, **kwargs))


def test_zero_data_exact_fixed_point():
    setup = make_setup(0.0)
    bundle = picard_solve(setup)
    assert bundle.converged
    assert len(bundle.history) == 2
    assert np.max(np.abs(bundle.u.values)) == 0.0
    assert np.max(np.abs(bundle.w.values)) == 0.0
    for rec in bundle.history:
        assert rec.a_n == 0.0 and rec.d_n == 0.0
    # physical fields are exactly the reference flow
    assert np.max(np.abs(bundle.v.values[0] - 1.0)) == 0.0
    assert np.max(np.abs(bundle.v.values[1:])) == 0.0
    assert np.max(np.abs(bundle.rho.values - 1.0)) == 0.0

    metrics = convergence_metrics(bundle.history, setup.data.b_measure)
    assert metrics["c_b"] == 0.0
    assert metrics["max_a"] == 0.0
    assert metrics["max_slack"] <= 0.0

    residuals = reconstruct_physical(bundle.u, bundle.w, setup.data, setup.params)
    for key, val in residuals.items():
        assert val <= 1e-11, key


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_small_data_contracts(mode):
    setup = make_setup(1e-2, mode=mode)
    bundle = picard_solve(setup)
    assert bundle.converged
    assert len(bundle.history) <= 25
    for rec in bundle.history:
        if rec.n >= 2:
            assert rec.r_n <= 0.5
    metrics = convergence_metrics(bundle.history, setup.data.b_measure)
    assert metrics["bound_ok"]
    assert metrics["max_slack"] <= 1e-12
    assert 0.0 < metrics["fit_rate"] < 1.0
    assert metrics["max_a"] <= 2.0 * metrics["c_b"] * setup.data.b_measure + 1e-15


def test_solution_scales_near_linearly_with_data():
    sizes = {}
    for eps in (1e-2, 5e-3):
        bundle = picard_solve(make_setup(eps, mode="monolithic"))
        assert bundle.converged
        sizes[eps] = strong_size(bundle.u, bundle.w, 4.0)
    factor = sizes[5e-3] / sizes[1e-2]
    assert 0.3 <= factor <= 0.7


@pytest.mark.parametrize("mode", ["split", "monolithic"])
@pytest.mark.parametrize("eps", [1e-8, 1e-12])
def test_tiny_data_converge(eps, mode):
    # the Krylov breakdown guards scale with the right-hand side, so data
    # far below the default amplitude still converge like the default
    setup = build_setup(config_from_mapping({"data": {"epsilon": eps}, "solver": {"mode": mode}}))
    bundle = picard_solve(setup)
    assert bundle.verdict == "converged"
    assert len(bundle.history) == 2


def test_large_data_fails_loudly():
    bundle = picard_solve(make_setup(0.5))
    assert not bundle.converged
    assert bundle.verdict.startswith("diverged") or bundle.verdict == "max_iter"


def test_max_iter_verdict():
    setup = make_setup(1e-2, mode="monolithic", max_outer=1)
    bundle = picard_solve(setup)
    assert bundle.verdict == "max_iter"
    assert len(bundle.history) == 1


def test_split_nonconvergence_verdict(monkeypatch):
    monkeypatch.setattr(lame, "MAX_SWEEPS", 2)
    bundle = picard_solve(make_setup(1e-2))
    assert bundle.verdict.startswith("diverged(linear step alternation did not reach")
    assert "within 2 sweeps" in bundle.verdict
    assert bundle.history == ()


def linear_law_run(gamma, mode="split"):
    """picard_solve on the default config with a linear pressure law of
    slope gamma, and its wall time."""
    cfg = config_from_mapping({"physics": {"pressure": {"kind": "linear", "coefficient": gamma}},
                               "solver": {"mode": mode}})
    setup = build_setup(cfg)
    t0 = time.perf_counter()
    bundle = picard_solve(setup)
    return bundle, time.perf_counter() - t0


def test_split_sweeps_converge_up_to_their_reach():
    # the sweep rate is about 0.065 gamma at mu = nu = 1; at gamma = 13 a
    # step's changes first grow up to about 400-fold, then fall, and the
    # sweeps reach the monolithic solution (criterion 04's relative gap)
    split, _ = linear_law_run(13.0)
    mono, _ = linear_law_run(13.0, "monolithic")
    assert split.converged and mono.converged
    grid = mono.u.grid
    size = weak_distance(mono.u, zeros_vector(grid), mono.w, zeros_scalar(grid))
    assert weak_distance(split.u, mono.u, split.w, mono.w) <= 1e-6 * size


@pytest.mark.parametrize("gamma", [20.0, 200.0])
def test_split_sweeps_beyond_their_reach_fail_fast(gamma):
    # the sweeps diverge here; they stop once a change is DIVERGED_GROWTH
    # times the first, before any overflow, and name monolithic mode
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bundle, seconds = linear_law_run(gamma)
    assert bundle.verdict.startswith("diverged(split sweeps grow: change ")
    assert bundle.verdict.endswith("monolithic mode (--mode monolithic) solves the same step)")
    assert bundle.history == ()
    assert seconds < 1.0


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_krylov_failure_verdict(mode, monkeypatch):
    # KrylovError is a RuntimeError: the outer loop reports it as a verdict.
    # A cap of one iteration (a tiny rate per unknown, rounded up) fails
    # the monolithic solve; a split sweep's solve stops at a tenth of its
    # warm-start residual, which one iteration reaches, so there every
    # solve is made to fail as an exhausted cap does
    if mode == "split":
        def failing(*args, **kwargs):
            raise KrylovError("linear solve did not converge within the iteration cap", 1.0, 1)

        monkeypatch.setattr(lame, "krylov_solve", failing)
    else:
        monkeypatch.setattr(krylov, "_ITERATIONS_PER_UNKNOWN", 1e-9)
    bundle = picard_solve(make_setup(1e-2, mode=mode))
    assert bundle.verdict.startswith("diverged(linear solve did not converge")
    assert bundle.history == ()


def test_split_sweeps_converge_on_one_krylov_iteration(monkeypatch):
    # every split sweep cuts its warm-start residual tenfold in one
    # iteration on the default data, so the cap of one costs nothing
    setup = build_setup(config_from_mapping({"solver": {"mode": "split"}}))
    default = picard_solve(setup)
    monkeypatch.setattr(krylov, "_ITERATIONS_PER_UNKNOWN", 1e-9)  # a cap of one
    capped = picard_solve(setup)
    assert capped.converged
    assert np.max(np.abs(capped.u.values - default.u.values)) <= 1e-11
    assert np.max(np.abs(capped.w.values - default.w.values)) <= 1e-11
    assert [r.sweeps for r in capped.history] == [r.sweeps for r in default.history]


def test_inexact_sweeps_reach_the_full_solve_fixed_point_of_the_default_run(monkeypatch):
    # the oracle solves every sweep's momentum rows to the step's Krylov
    # tolerance
    setup = build_setup(config_from_mapping({"solver": {"mode": "split"}}))
    inexact = picard_solve(setup)
    monkeypatch.setattr(picard, "solve_linear_step", full_solve_split_step)
    full = picard_solve(setup)
    assert inexact.converged and full.converged
    assert np.max(np.abs(inexact.u.values - full.u.values)) <= 1e-11
    assert np.max(np.abs(inexact.w.values - full.w.values)) <= 1e-11
    assert len(inexact.history) == len(full.history)
    for a, b in zip(inexact.history, full.history):
        assert abs(a.sweeps - b.sweeps) <= 2
    assert sum(r.inner_iterations for r in inexact.history) < sum(
        r.inner_iterations for r in full.history
    ) / 2


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_physical_solution_does_not_depend_on_the_lift_ramp(mode, monkeypatch):
    # the lift u0 only moves the perturbation between u and u0: ramping
    # the inflow trace over the whole duct instead of min(extents)/4 must
    # leave u + u0 and w where the default lift puts them (measured gaps,
    # split and monolithic: 2.9e-13 and 4.2e-14 in u + u0, 1.5e-12 and
    # 1.1e-12 in w)
    config = config_from_mapping({"solver": {"mode": mode}})
    narrow_setup = build_setup(config)
    monkeypatch.setattr(material, "ramp_width", lambda grid: grid.config.length)
    wide_setup = build_setup(config)
    assert np.max(np.abs(wide_setup.data.u0.values - narrow_setup.data.u0.values)) > 1e-3
    narrow, wide = picard_solve(narrow_setup), picard_solve(wide_setup)
    assert narrow.converged and wide.converged
    s_narrow = narrow.u.values + narrow_setup.data.u0.values
    s_wide = wide.u.values + wide_setup.data.u0.values
    assert np.max(np.abs(s_wide - s_narrow)) <= 1e-11
    assert np.max(np.abs(wide.w.values - narrow.w.values)) <= 1e-11


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_inner_tol_sets_how_exactly_a_step_is_solved(mode):
    # inner_tol sets every Krylov solve of a linear step, so tightening it
    # from 1e-11 to 1e-13 brings the default solution at least five times
    # closer to a monolithic solve at 1e-15 (measured in w: 1.48e-13 to
    # 1.21e-14 split, 2.40e-13 to 6.28e-15 monolithic)
    def solve_w(mode, inner_tol):
        config = config_from_mapping({"solver": {"mode": mode, "inner_tol": inner_tol}})
        bundle = picard_solve(build_setup(config))
        assert bundle.converged
        return bundle.w.values

    w_ref = solve_w("monolithic", 1e-15)
    loose, tight = (np.max(np.abs(solve_w(mode, tol) - w_ref)) for tol in (1e-11, 1e-13))
    assert tight <= loose / 5, (loose, tight)


def test_two_start_uniqueness_same_start_is_exact():
    setup = make_setup(1e-2, mode="monolithic")
    dist = two_start_uniqueness(setup, None, None)
    assert dist == 0.0


def test_two_start_uniqueness_random_start():
    setup = make_setup(1e-2, mode="monolithic")
    start2 = random_small_start(setup, seed=7)
    a0 = strong_size(start2[0], start2[1], setup.solver.p)
    assert a0 <= setup.data.b_measure * (1.0 + 1e-12)
    dist = two_start_uniqueness(setup, None, start2)
    assert dist <= 10.0 * setup.solver.outer_tol


def test_two_start_uniqueness_requires_convergence():
    setup = make_setup(0.5, mode="monolithic")
    with pytest.raises(RuntimeError, match="converged"):
        two_start_uniqueness(setup, None, None)


def test_random_small_start_hits_requested_size():
    setup = make_setup(1e-2)
    u, w = random_small_start(setup, seed=3, size=0.05)
    a0 = strong_size(u, w, setup.solver.p)
    assert a0 == pytest.approx(0.05, rel=1e-10)


def test_iteration_record_validation():
    with pytest.raises(ValueError, match="d_n"):
        IterationRecord(n=0, a_n=0.0, d_n=np.nan, r_n=0.0, f_lp=0.0, g_w1p=0.0)
    with pytest.raises(ValueError, match="a_n"):
        IterationRecord(n=0, a_n=-1.0, d_n=0.0, r_n=0.0, f_lp=0.0, g_w1p=0.0)
    with pytest.raises(ValueError, match="linear_residual"):
        IterationRecord(0, 0.0, 0.0, 0.0, 0.0, 0.0, sweeps=1, linear_residual=np.inf)


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_history_records_linear_steps(mode, monkeypatch):
    # every linear step of a run shares one momentum operator, and makes
    # the calls the benchmark counts through lame's names: per split sweep
    # one solve_momentum call with one krylov_solve under it and one
    # apply_S call (42 of each on the default config), per monolithic step
    # one krylov_solve and no apply_S
    calls = dict.fromkeys(("build", "steps", "solve_momentum", "krylov_solve", "apply_S"), 0)
    krylov_per_momentum = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    solve_momentum = counting("solve_momentum", lame.solve_momentum)

    def momentum(*args, **kwargs):
        before = calls["krylov_solve"]
        out = solve_momentum(*args, **kwargs)
        krylov_per_momentum.append(calls["krylov_solve"] - before)
        return out

    counting_build = counting("build", build_lame_operator)
    monkeypatch.setattr(picard, "build_lame_operator", counting_build)
    monkeypatch.setattr(lame, "build_lame_operator", counting_build)
    monkeypatch.setattr(picard, "solve_linear_step", counting("steps", lame.solve_linear_step))
    monkeypatch.setattr(lame, "solve_momentum", momentum)
    monkeypatch.setattr(lame, "krylov_solve", counting("krylov_solve", lame.krylov_solve))
    monkeypatch.setattr(lame, "apply_S", counting("apply_S", lame.apply_S))
    setup = build_setup(config_from_mapping({"solver": {"mode": mode}}))
    bundle = picard_solve(setup)
    assert bundle.converged
    assert len(bundle.history) >= 2 and calls["build"] == 1
    assert calls["steps"] == len(bundle.history)
    for rec in bundle.history:
        assert rec.sweeps >= 1 if mode == "split" else rec.sweeps == 1
        assert rec.inner_iterations > 0
        assert rec.linear_residual <= lame.krylov_tol(setup.solver.inner_tol)
    if mode == "split":
        sweeps = sum(r.sweeps for r in bundle.history)
        assert sweeps == 42
        assert krylov_per_momentum == [1] * sweeps
        assert calls["solve_momentum"] == calls["krylov_solve"] == calls["apply_S"] == sweeps
    else:
        assert calls["krylov_solve"] == len(bundle.history)
        assert calls["solve_momentum"] == calls["apply_S"] == 0


def test_setup_validation():
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, 8, 4, 4))
    params = FlowParams()
    boundary = DataConfig(epsilon=0.0)
    data = assemble_perturbation_data(grid, boundary, params)
    # the solver settings check themselves; the setup checks its data
    with pytest.raises(ValueError, match="outer_tol"):
        SolverConfig(outer_tol=0.0)
    with pytest.raises(ValueError, match="max_outer"):
        SolverConfig(max_outer=0)
    with pytest.raises(ValueError, match="mode must be one of .* got 'direct'"):
        SolverConfig(mode="direct")
    with pytest.raises(ValueError, match="measure is not finite"):
        ProblemSetup(grid, params, replace(data, b_measure=np.inf))


def test_setup_rejects_data_measured_in_another_exponent():
    # the outer loop sizes iterates in solver.p and the a-priori audit
    # reads data.p: a hand-built setup may not hold two exponents
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, 8, 4, 4))
    params = FlowParams()
    data = assemble_perturbation_data(grid, DataConfig(), params)
    with pytest.raises(ValueError, match=r"measured in p = 4\.0, .* p = 6\.0"):
        ProblemSetup(grid, params, data, SolverConfig(p=6.0))
    data6 = assemble_perturbation_data(grid, DataConfig(), params, p=6.0)
    assert ProblemSetup(grid, params, data6, SolverConfig(p=6.0)).data.p == 6.0


def test_convergence_metrics_needs_history():
    with pytest.raises(ValueError, match="at least 2"):
        convergence_metrics(
            (IterationRecord(n=0, a_n=0.0, d_n=0.0, r_n=0.0, f_lp=0.0, g_w1p=0.0),),
            1.0,
        )


def test_default_split_solution_matches_the_recorded_reference():
    # the split solution of the default config, recorded under bench/ and
    # checked by the benchmark within 10 (outer_tol + inner_tol): a change
    # that moves it further fails here first
    config = config_from_mapping({"solver": {"mode": "split"}})
    bundle = picard_solve(build_setup(config))
    assert bundle.converged
    tol = 10.0 * (config.solver.outer_tol + config.solver.inner_tol)
    reference = Path(__file__).resolve().parent.parent / "bench" / "reference" / "split_default_seed0.npz"
    with np.load(reference) as ref:
        assert np.max(np.abs(bundle.u.values - ref["u"])) <= tol
        assert np.max(np.abs(bundle.w.values - ref["w"])) <= tol
