import warnings

import numpy as np
import pytest

from slipflow import krylov
from slipflow.krylov import KrylovError, krylov_solve

# the linear step's Krylov tolerance at the default inner_tol
TOL = 1e-10


def dense_action(A):
    return lambda x: A @ x


def test_zero_rhs_returns_immediately():
    x, iters, res = krylov_solve(dense_action(np.eye(5)), np.zeros(5), TOL)
    assert np.array_equal(x, np.zeros(5))
    assert iters == 0
    assert res == 0.0


def test_identity_converges_in_one_iteration():
    rng = np.random.default_rng(3)
    b = rng.normal(size=40)
    x, iters, res = krylov_solve(dense_action(np.eye(40)), b, TOL)
    assert iters == 1
    np.testing.assert_allclose(x, b, rtol=0, atol=1e-14)


def test_exact_warm_start_costs_nothing():
    rng = np.random.default_rng(4)
    A = np.eye(12) + 0.1 * rng.normal(size=(12, 12))
    xs = rng.normal(size=12)
    x, iters, res = krylov_solve(dense_action(A), A @ xs, TOL, x0=xs)
    assert iters == 0
    np.testing.assert_allclose(x, xs, rtol=0, atol=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nonsymmetric_solve_matches_direct(seed):
    rng = np.random.default_rng(seed)
    n = 60
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    x, iters, res = krylov_solve(dense_action(A), b, TOL)
    ref = np.linalg.solve(A, b)
    assert res <= 1e-10
    np.testing.assert_allclose(x, ref, rtol=1e-7, atol=1e-10)


def test_scaled_rhs_takes_the_same_iterations():
    # every breakdown guard is relative to |b|^2: a scaled system takes the
    # same steps, with no spurious breakdown near convergence on tiny data
    rng = np.random.default_rng(0)
    n = 60
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    x1, iters1, _ = krylov_solve(dense_action(A), b, TOL)
    assert iters1 == 10
    for scale in (1e-8, 1e-12, 1e-20, 1e20):
        x, iters, res = krylov_solve(dense_action(A), scale * b, TOL)
        assert iters == iters1, scale
        assert res <= 1e-10
        np.testing.assert_allclose(x / scale, x1, rtol=1e-12, atol=0)


def test_jacobi_scaling_handles_wild_diagonal():
    rng = np.random.default_rng(7)
    n = 50
    d = 10.0 ** rng.uniform(-3, 3, size=n)
    A = np.diag(d) + 0.05 * rng.normal(size=(n, n))
    b = rng.normal(size=n)
    diag = np.diag(A)
    x, iters, res = krylov_solve(dense_action(A), b, TOL, precond=lambda p: p / diag)
    np.testing.assert_allclose(A @ x, b, rtol=0, atol=1e-8 * np.linalg.norm(b))
    # without the scaling this system stagnates; with it the cap is never
    # close (observed ~1.5 n)
    assert iters <= 3 * n


@pytest.mark.parametrize("seed", [0, 1])
def test_preconditioned_residual_is_the_true_residual(seed):
    # right preconditioning: the reported residual is |b - A x| / |b| of
    # the original system, whatever the preconditioner
    rng = np.random.default_rng(seed)
    n = 60
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    approx_inverse = np.linalg.inv(A + 0.05 * rng.normal(size=(n, n)) / np.sqrt(n))
    x, iters, res = krylov_solve(dense_action(A), b, TOL, precond=lambda p: approx_inverse @ p)
    true_res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert res <= 1e-10
    assert abs(res - true_res) <= 1e-5 * res


def test_iteration_cap_raises_with_best_residual(monkeypatch):
    # a twentieth of an iteration per unknown caps 40 unknowns at two
    rng = np.random.default_rng(11)
    n = 40
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    monkeypatch.setattr(krylov, "_ITERATIONS_PER_UNKNOWN", 0.05)
    with pytest.raises(KrylovError, match="iteration cap") as exc:
        krylov_solve(dense_action(A), b, TOL)
    assert 0.0 < exc.value.best_residual < 1.0
    assert exc.value.iterations == 2
    assert "best relative residual" in str(exc.value)


def test_stagnated_solve_raises_long_before_the_cap():
    # on a cyclic shift, orthogonal with its eigenvalues spread over the
    # unit circle, BiCGStab never gets below the starting residual; the
    # solve ends after 500 iterations without a new best, not at the cap
    # of 10 * 60 = 600
    n = 60
    shift = np.roll(np.eye(n), 1, axis=0)
    b = np.random.default_rng(0).normal(size=n)
    with pytest.raises(KrylovError, match="linear solve stagnated") as exc:
        krylov_solve(dense_action(shift), b, TOL)
    assert exc.value.iterations == 500
    assert exc.value.best_residual == 1.0


@pytest.mark.parametrize("A, b, reason", [
    # r_hat . A r = 0 on the first step: the search direction is
    # orthogonal to the shadow residual
    ([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], "orthogonal search direction"),
    # s = r - alpha A r lies in the null space of A, so t = A s = 0
    ([[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0], "zero stabilization step"),
], ids=["orthogonal", "stabilization"])
def test_breakdowns_raise_on_the_first_iteration(A, b, reason):
    A, b = np.array(A), np.array(b)
    with pytest.raises(KrylovError, match=reason) as exc:
        krylov_solve(dense_action(A), b, TOL)
    assert exc.value.iterations == 1
    assert exc.value.best_residual == 1.0


def test_overflowing_stabilization_step_is_a_breakdown():
    # s = (1/3, -1/3) after the first half step, so t = A s is of size
    # 1e160 and t . t overflows: omega = (t . s) / inf is zero, which the
    # next iteration would divide by; it is a breakdown, without a warning
    A = np.diag([1e160, 2e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KrylovError, match="zero stabilization step") as exc:
            krylov_solve(dense_action(A), np.ones(2), TOL)
    assert exc.value.iterations == 1
    assert exc.value.best_residual == 1.0


def test_stagnated_shadow_residual_restarts_and_converges():
    # after the first iteration the new residual is orthogonal to the
    # shadow residual b; restarting the recurrence at r recovers, and
    # the solve converges in three iterations
    A = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, 0.0], [1.0, -1.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0])
    x, iters, res = krylov_solve(dense_action(A), b, TOL)
    assert iters == 3
    assert res <= 1e-15
    np.testing.assert_allclose(x, [-0.5, 0.5, -1.0], rtol=0, atol=1e-15)


def _warm_started_system(seed, offset):
    """A nonsymmetric system, its solution and a start offset from it by
    a random vector of the given size."""
    rng = np.random.default_rng(seed)
    n = 60
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    xs = np.linalg.solve(A, b)
    return A, b, xs, xs + offset * rng.normal(size=n)


def relative_residual(A, b, x):
    return np.linalg.norm(b - A @ x) / np.linalg.norm(b)


def test_reduction_stops_at_a_fraction_of_the_start_residual():
    A, b, xs, x0 = _warm_started_system(5, 1e-3)
    res0 = relative_residual(A, b, x0)
    x, iters, res = krylov_solve(dense_action(A), b, TOL, x0=x0, reduction=0.1)
    assert res <= 0.1 * res0
    assert abs(res - relative_residual(A, b, x)) <= 1e-5 * res
    full = krylov_solve(dense_action(A), b, TOL, x0=x0)
    assert 0 < iters < full[1]


def test_reduction_of_a_start_worse_than_zero_is_capped():
    # a start residual of 10 or more would ask for a tolerance of 1 or
    # more; the cap asks for reduction * |b|, a zero start's target
    A, b, xs, x0 = _warm_started_system(6, 100.0)
    assert relative_residual(A, b, x0) >= 10.0
    x, iters, res = krylov_solve(dense_action(A), b, TOL, x0=x0, reduction=0.1)
    assert iters > 0
    assert res <= 0.1


def test_rel_tol_is_the_floor_of_a_reduction():
    # 0.1 of this start's residual is below rel_tol, so the solve runs to
    # rel_tol exactly as without a reduction
    A, b, xs, x0 = _warm_started_system(7, 1e-10)
    assert 1e-10 < relative_residual(A, b, x0) < 1e-9
    reduced = krylov_solve(dense_action(A), b, TOL, x0=x0, reduction=0.1)
    full = krylov_solve(dense_action(A), b, TOL, x0=x0)
    assert reduced[1] == full[1] > 0
    np.testing.assert_array_equal(reduced[0], full[0])


@pytest.mark.parametrize("reduction", [0.0, 1.0, -0.5, float("nan")])
def test_reduction_outside_the_unit_interval_rejected(reduction):
    with pytest.raises(ValueError, match="reduction must be in"):
        krylov_solve(dense_action(np.eye(3)), np.ones(3), TOL, reduction=reduction)


def test_config_validation():
    # the tolerance must lie in (0, 1)
    action, b = dense_action(np.eye(3)), np.ones(3)
    for rel_tol in (0.0, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="rel_tol must be in"):
            krylov_solve(action, b, rel_tol)


def test_non_finite_rhs_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        krylov_solve(dense_action(np.eye(3)), np.array([1.0, np.nan, 0.0]), TOL)
