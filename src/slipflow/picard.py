"""Successive-approximation driver for the perturbed duct flow.

Each outer step freezes the current iterate (u, w), evaluates the nonlinear
forcings, and solves the coupled linear system with convecting field
u + u0.  The loop records the quantities the smallness argument runs on:
iterate size A_n in the strong norms, Cauchy differences d_n in the weak
contraction metric, their ratios, and the forcing norms.  Divergence is
detected loudly (iterate leaving the perturbative regime, density leaving
the admissible band, transport losing forward progress) instead of letting
the iteration wander.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, SolverConfig
from .grid import Grid, build_grid
from .fields import ScalarField, VectorField, NormKind, norm, zeros_scalar, zeros_vector
from .fields import strong_size, weak_distance
from .material import (
    FlowParams,
    PerturbationData,
    assemble_perturbation_data,
    compute_F,
    compute_G,
    reference_flow,
)
from .lame import build_lame_operator, solve_linear_step


@dataclass(frozen=True)
class ProblemSetup:
    """Everything one outer solve needs: the grid, the physics, the
    assembled boundary data and the solver settings (checked by
    SolverConfig itself).  data.p must be solver.p: the outer loop sizes
    iterates in solver.p, the a-priori audit in data.p."""

    grid: Grid
    params: FlowParams
    data: PerturbationData
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not np.isfinite(self.data.b_measure):
            raise ValueError("boundary data measure is not finite")
        if self.data.p != self.solver.p:
            raise ValueError(f"boundary data measured in p = {self.data.p!r}, "
                             f"but the solver sizes iterates in p = {self.solver.p!r}")


def build_setup(config: RunConfig) -> ProblemSetup:
    """Materialize grid and boundary data from a config."""
    grid = build_grid(config.geometry)
    data = assemble_perturbation_data(grid, config.data, config.params, p=config.solver.p)
    return ProblemSetup(grid, config.params, data, config.solver)


@dataclass(frozen=True)
class IterationRecord:
    """One row of the outer history.

    a_n sizes the iterate entering the step (W2p + W1p), d_n is the update
    the step produced measured in the contraction metric (H1 + LinfL2),
    r_n = d_n / d_{n-1} (zero on the first row), and f_lp / g_w1p are the
    forcing norms the boundedness recursion consumes.  sweeps,
    inner_iterations and linear_residual are the linear step's (split
    sweeps, Krylov iterations, last relative residual), and
    sup_axial_dev and wall_trace_defect its transport certificate.
    """

    n: int
    a_n: float
    d_n: float
    r_n: float
    f_lp: float
    g_w1p: float
    sweeps: int = 0
    inner_iterations: int = 0
    linear_residual: float = 0.0
    sup_axial_dev: float = 0.0
    wall_trace_defect: float = 0.0

    def __post_init__(self):
        for name in ("a_n", "d_n", "r_n", "f_lp", "g_w1p", "linear_residual", "sup_axial_dev",
                     "wall_trace_defect"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0.0:
                raise ValueError(f"iteration record field {name} = {val!r}")


@dataclass(frozen=True, eq=False)
class SolutionBundle:
    u: VectorField
    w: ScalarField
    v: VectorField
    rho: ScalarField
    history: tuple[IterationRecord, ...]
    verdict: str

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def picard_solve(
    setup: ProblemSetup,
    start: tuple[VectorField, ScalarField] | None = None,
) -> SolutionBundle:
    grid, data, params, cfg = setup.grid, setup.data, setup.params, setup.solver
    if start is None:
        u, w = zeros_vector(grid), zeros_scalar(grid)
    else:
        for field in start:
            if field.grid.config != grid.config:
                raise ValueError(f"start field geometry {field.grid.config} "
                                 f"!= setup grid geometry {grid.config}")
        u = VectorField(grid, np.array(start[0].values, dtype=float))
        w = ScalarField(grid, np.array(start[1].values, dtype=float))

    # the viscous operator and its preconditioner depend only on the grid
    # and the physics parameters: one serves every linear step of the run
    op = build_lame_operator(grid, params)
    history: list[IterationRecord] = []
    verdict = "max_iter"
    prev_d = None

    for n in range(cfg.max_outer):
        a_n = strong_size(u, w, cfg.p)
        if a_n > 1.0:
            verdict = f"diverged(iterate size {a_n:.3e} left the perturbative regime)"
            break
        try:
            F = compute_F(u, w, data, params)
            G = compute_G(u, w, data)
            convect = VectorField(grid, u.values + data.u0.values)
            step = solve_linear_step(
                op,
                convect,
                F,
                G,
                data.slip_data,
                data.w_in,
                mode=cfg.mode,
                inner_tol=cfg.inner_tol,
                start=(u, w),
            )
        except (RuntimeError, ValueError) as err:
            verdict = f"diverged({err})"
            break

        d_n = weak_distance(step.u, u, step.w, w)
        r_n = 0.0 if prev_d is None or prev_d == 0.0 else d_n / prev_d
        history.append(
            IterationRecord(
                n=n,
                a_n=a_n,
                d_n=d_n,
                r_n=r_n,
                f_lp=norm(F, NormKind.lp(cfg.p)),
                g_w1p=norm(G, NormKind.w1p(cfg.p)),
                sweeps=step.sweeps,
                inner_iterations=step.inner_iterations,
                linear_residual=step.linear_residual,
                sup_axial_dev=step.sup_axial_dev,
                wall_trace_defect=step.wall_trace_defect,
            )
        )
        u, w = step.u, step.w
        prev_d = d_n
        # require one confirming step so even an exact fixed point leaves
        # two history rows for the recursion metrics
        if d_n <= cfg.outer_tol and n >= 1:
            verdict = "converged"
            break

    v = VectorField(grid, u.values + data.u0.values + reference_flow(grid))
    rho = ScalarField(grid, 1.0 + w.values)
    return SolutionBundle(u, w, v, rho, tuple(history), verdict)


def convergence_metrics(
    history: tuple[IterationRecord, ...], b_measure: float
) -> dict:
    """Contraction and boundedness diagnostics from a recorded history.

    The recursion constant is fitted on the first step and frozen:
    c_b = (A_1 - A_0^2) / b_measure, so the slack
    s_n = A_{n+1} - (A_n^2 + b_measure * c_b) vanishes at n = 0 by
    construction and should stay <= 0 afterwards on contracting runs.
    Returns c_b, max_a, bound = 2 c_b b_measure, bound_ok (every A_n
    within it), max_slack and fit_rate (the fitted geometric rate of d_n).
    """
    if len(history) < 2:
        raise ValueError("need at least 2 iterations to fit convergence metrics")
    a = np.array([rec.a_n for rec in history])
    d = np.array([rec.d_n for rec in history])
    c_b = 0.0 if b_measure == 0.0 else max((a[1] - a[0] ** 2) / b_measure, 0.0)
    slack = a[1:] - (a[:-1] ** 2 + b_measure * c_b)
    positive = d > 0.0
    if positive.sum() >= 2:
        ns = np.flatnonzero(positive)
        slope = np.polyfit(ns.astype(float), np.log(d[positive]), 1)[0]
        fit_rate = float(np.exp(slope))
    else:
        fit_rate = 0.0
    bound = 2.0 * c_b * b_measure
    return {
        "c_b": float(c_b),
        "max_a": float(a.max()),
        "bound": float(bound),
        "bound_ok": bool(np.all(a <= bound + 1e-15)),
        "max_slack": float(slack.max()),
        "fit_rate": fit_rate,
    }
