"""Matrix-free right-preconditioned stabilized bi-conjugate-gradient solver.

Hand-rolled rather than delegated so the stopping rule, iteration count and
best-residual reporting are exactly the ones the outer solver budgets for:
convergence means relative residual <= rel_tol in the unpreconditioned
norm (or, for an inexact solve, <= a fixed fraction of the starting
residual when that is looser: a fixed forcing term in the sense of
Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996), a zero right-hand
side returns immediately, the iteration cap is ten times the unknown
count, and failure carries the best residual seen so the caller can tell
near-miss from breakdown.  The caller chooses rel_tol; the linear step
derives it from its inner_tol (slipflow.lame).

Every failure is a KrylovError, raised as soon as it is seen: the
iteration cap; stagnation, 500 iterations without a new best residual
(converging momentum solves went at most 55 without one); a search
direction orthogonal to the shadow residual (|r_hat . v| below
1e-30 ||b||^2); and a zero stabilization step, where t . t is below
1e-30 ||b||^2 or omega = (t . s) / (t . t) is zero or not finite, as
when t . t overflows on a diverging iterate.  A shadow residual
orthogonal to the residual is no failure: the recurrence restarts at
r.  Every breakdown guard compares an inner product with ||b||^2, so
the scale of b alone never decides a breakdown.

The preconditioner is any fixed linear map p -> p_hat approximating the
inverse operator; the viscous operator supplies a multigrid V-cycle
(slipflow.lame).  Because it preconditions from the right, the iterate
and the residual stay those of the original system whatever map is used.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_BREAKDOWN_TOL = 1e-30
_STAGNATION = 500
# the iteration cap, per unknown (rounded up)
_ITERATIONS_PER_UNKNOWN = 10


class KrylovError(RuntimeError):
    """Linear solve failed; carries the best relative residual reached."""

    def __init__(self, message: str, best_residual: float, iterations: int):
        super().__init__(f"{message} (best relative residual {best_residual:.3e} "
                         f"after {iterations} iterations)")
        self.best_residual = best_residual
        self.iterations = iterations


def krylov_solve(
    action: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    rel_tol: float,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    reduction: float | None = None,
) -> tuple[np.ndarray, int, float]:
    """Solve action(x) = rhs to the relative residual rel_tol, in (0, 1);
    returns (x, iterations, relative residual).

    precond maps v to an approximate solution of action(x) = v, or is None;
    x0 warm starts the iteration.  reduction, in (0, 1), makes the solve
    inexact: it also stops once the residual is reduction times the
    starting one, or times ||b|| (a zero start's) if the start is further
    off, so the tolerance stays in (0, 1); rel_tol is the floor.  Raises
    KrylovError on every failure the module docstring lists.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    if reduction is not None and not 0.0 < reduction < 1.0:
        raise ValueError(f"reduction must be in (0, 1), got {reduction!r}")
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side contains non-finite values")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs), 0, 0.0

    cap = math.ceil(_ITERATIONS_PER_UNKNOWN * rhs.size)
    if precond is None:
        precond = lambda p: p
    warm = x0 is not None
    x = np.array(x0, dtype=float) if warm else np.zeros_like(rhs)
    x0 = None  # x replaces it for the rest of the solve
    r = rhs - action(x) if warm else rhs.copy()
    res = float(np.linalg.norm(r)) / b_norm
    tol = rel_tol if reduction is None else max(rel_tol, reduction * min(res, 1.0))
    if res <= tol:
        return x, 0, res

    r_hat = r.copy()
    rho_prev = 1.0
    alpha = 1.0
    omega = 1.0
    v = np.zeros_like(rhs)
    p = np.zeros_like(rhs)
    # work array updated in place: it keeps the exact operation order of
    # its textbook form, so results do not depend on it
    s = np.empty_like(rhs)
    best, best_it = res, 0
    tiny = _BREAKDOWN_TOL * b_norm * b_norm  # breakdown floor for inner products

    for it in range(1, cap + 1):
        rho = float(r_hat @ r)
        if abs(rho) < tiny:
            # stagnated shadow residual: restart the recurrence at r
            r_hat = r.copy()
            rho = float(r_hat @ r)
            p.fill(0.0)
            v.fill(0.0)
            rho_prev = 1.0
            alpha = 1.0
            omega = 1.0
        beta = (rho / rho_prev) * (alpha / omega)
        # p = r + beta * (p - omega * v), updated in place
        p -= omega * v
        p *= beta
        p += r
        p_hat = precond(p)
        v = action(p_hat)
        denom = float(r_hat @ v)
        if abs(denom) < tiny:
            raise KrylovError("solver breakdown (orthogonal search direction)", best, it)
        alpha = rho / denom
        np.multiply(alpha, v, out=s)
        np.subtract(r, s, out=s)  # s = r - alpha v
        s_norm = float(np.linalg.norm(s)) / b_norm
        if s_norm <= tol:
            x += alpha * p_hat
            return x, it, s_norm
        s_hat = precond(s)
        t = action(s_hat)
        # t @ t overflows where the iterate blows up: omega is then 0 or
        # NaN, which the check below reports instead of numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            tt = float(t @ t)
            omega = float(t @ s) / tt if tt >= tiny else 0.0
        if omega == 0.0 or not np.isfinite(omega):
            raise KrylovError("solver breakdown (zero stabilization step)", best, it)
        x += alpha * p_hat
        x += omega * s_hat
        np.multiply(omega, t, out=r)
        np.subtract(s, r, out=r)  # r = s - omega t
        res = float(np.linalg.norm(r)) / b_norm
        if res <= tol:
            return x, it, res
        if res < best:
            best, best_it = res, it
        elif it - best_it >= _STAGNATION:
            raise KrylovError("linear solve stagnated", best, it)
        rho_prev = rho

    raise KrylovError("linear solve did not converge within the iteration cap", best, cap)
