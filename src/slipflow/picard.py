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
from .fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    div_array,
    advect,
    laplacian_array,
    grad_div_array,
    grad_array,
    sym_gradient,
    interior_l2,
    zeros_scalar,
    zeros_vector,
)
from .material import (
    FlowParams,
    PerturbationData,
    assemble_perturbation_data,
    boundary_data_from_names,
    compute_F,
    compute_G,
    _check_band,
)
from .lame import build_lame_operator, solve_linear_step


@dataclass(frozen=True)
class ProblemSetup:
    """Everything one outer solve needs: the grid, the physics, the
    assembled boundary data and the solver settings (checked by
    SolverConfig itself)."""

    grid: Grid
    params: FlowParams
    data: PerturbationData
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not np.isfinite(self.data.b_measure):
            raise ValueError("boundary data measure is not finite")


def build_setup(config: RunConfig) -> ProblemSetup:
    """Materialize grid and boundary data from a config."""
    grid = build_grid(config.geometry)
    spec = boundary_data_from_names(
        grid,
        epsilon=config.data.epsilon,
        normal_trace=dict(config.data.normal_trace),
        slip=dict(config.data.slip),
        inflow_density=config.data.inflow_density,
    )
    data = assemble_perturbation_data(grid, spec, config.params, p=config.solver.p)
    return ProblemSetup(grid, config.params, data, config.solver)


@dataclass(frozen=True)
class IterationRecord:
    """One row of the outer history.

    a_n sizes the iterate entering the step (W2p + W1p), d_n is the update
    the step produced measured in the contraction metric (H1 + LinfL2),
    r_n = d_n / d_{n-1} (zero on the first row), and f_lp / g_w1p are the
    forcing norms the boundedness recursion consumes.  sweeps,
    inner_iterations and linear_residual are the linear step's (split
    sweeps, Krylov iterations, last relative residual).
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

    def __post_init__(self):
        for name in ("a_n", "d_n", "r_n", "f_lp", "g_w1p", "linear_residual"):
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


def _strong_size(u: VectorField, w: ScalarField, p: float) -> float:
    return norm(u, NormKind.w2p(p)) + norm(w, NormKind.w1p(p))


def _weak_distance(ua, ub, wa, wb, grid: Grid) -> float:
    du = norm(VectorField(grid, ua - ub), NormKind.h1())
    dw = norm(ScalarField(grid, wa - wb), NormKind.linf_l2())
    return du + dw


def picard_solve(
    setup: ProblemSetup,
    start: tuple[VectorField, ScalarField] | None = None,
) -> SolutionBundle:
    grid, data, params, cfg = setup.grid, setup.data, setup.params, setup.solver
    if start is None:
        u, w = zeros_vector(grid), zeros_scalar(grid)
    else:
        u = VectorField(grid, np.array(start[0].values, dtype=float))
        w = ScalarField(grid, np.array(start[1].values, dtype=float))

    # the viscous operator and its preconditioner depend only on the grid
    # and the physics parameters: one serves every linear step of the run
    op = build_lame_operator(grid, params)
    krylov_cfg = cfg.krylov()
    history: list[IterationRecord] = []
    verdict = "max_iter"
    prev_d = None

    for n in range(cfg.max_outer):
        a_n = _strong_size(u, w, cfg.p)
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
                krylov_cfg=krylov_cfg,
                inner_tol=cfg.inner_tol,
                start=(u, w),
            )
        except (RuntimeError, ValueError) as err:
            verdict = f"diverged({err})"
            break

        omega = cfg.omega
        if omega == 1.0:
            u_next, w_next = step.u, step.w
        else:
            u_next = VectorField(grid, (1.0 - omega) * u.values + omega * step.u.values)
            w_next = ScalarField(grid, (1.0 - omega) * w.values + omega * step.w.values)

        d_n = _weak_distance(u_next.values, u.values, w_next.values, w.values, grid)
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
            )
        )
        u, w = u_next, w_next
        prev_d = d_n
        # require one confirming step so even an exact fixed point leaves
        # two history rows for the recursion metrics
        if d_n <= cfg.outer_tol and n >= 1:
            verdict = "converged"
            break

    v = VectorField(grid, u.values + data.u0.values + _reference_flow(grid))
    rho = ScalarField(grid, 1.0 + w.values)
    return SolutionBundle(u, w, v, rho, tuple(history), verdict)


def _reference_flow(grid: Grid) -> np.ndarray:
    vals = np.zeros((3, *grid.shape))
    vals[0] = 1.0
    return vals


def convergence_metrics(
    history: tuple[IterationRecord, ...], b_measure: float
) -> dict:
    """Contraction and boundedness diagnostics from a recorded history.

    The recursion constant is fitted on the first step and frozen:
    c_b = (A_1 - A_0^2) / b_measure, so the slack
    s_n = A_{n+1} - (A_n^2 + b_measure * c_b) vanishes at n = 0 by
    construction and should stay <= 0 afterwards on contracting runs.
    """
    if len(history) < 2:
        raise ValueError("need at least 2 iterations to fit convergence metrics")
    a = np.array([rec.a_n for rec in history])
    d = np.array([rec.d_n for rec in history])
    c_b = 0.0 if b_measure == 0.0 else max((a[1] - a[0] ** 2) / b_measure, 0.0)
    slack = a[1:] - (a[:-1] ** 2 + b_measure * c_b)
    ratios = np.array([rec.r_n for rec in history[1:]])
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
        "slack": slack.tolist(),
        "max_slack": float(slack.max()),
        "ratios": ratios.tolist(),
        "max_ratio": float(ratios.max()) if ratios.size else 0.0,
        "fit_rate": fit_rate,
    }


@dataclass(frozen=True, eq=False)
class PhysicalReconstruction:
    v: VectorField
    rho: ScalarField
    residuals: dict


def reconstruct_physical(
    u: VectorField,
    w: ScalarField,
    data: PerturbationData,
    params: FlowParams,
) -> PhysicalReconstruction:
    """Undo the perturbation change of variables and audit the full system.

    v = u + (1,0,0) + u0 and rho = 1 + w; the report carries the discrete
    residuals of the steady momentum balance and continuity equation at
    interior nodes, the slip rows and impermeability on the boundary, and
    the inflow density trace.  All residual rows are built from the same
    difference operators the solver composes, so a converged solve audits
    at solver tolerance for every row it enforced; rows it never saw
    (the physical nonlinearity is in the forcing) audit at truncation
    level.
    """
    grid = u.grid
    mu, nu, f = params.mu, params.nu, params.friction
    v_vals = u.values + data.u0.values + _reference_flow(grid)
    rho_vals = 1.0 + w.values
    _check_band(rho_vals, "reconstruct_physical")
    v = VectorField(grid, v_vals)
    rho = ScalarField(grid, rho_vals)

    pressure = params.pressure.value(rho_vals)
    grad_p = grad_array(pressure, grid)
    gd = grad_div_array(v_vals, grid)
    mom = np.stack(
        [
            rho_vals * advect(v_vals, v_vals[c], grid)
            - mu * laplacian_array(v_vals[c], grid)
            - (nu + mu) * gd[c]
            + grad_p[c]
            for c in range(3)
        ]
    )
    momentum_res = interior_l2(mom, grid)

    mass_flux = rho_vals * v_vals
    cont = div_array(mass_flux, grid)
    continuity_res = float(interior_l2(cont, grid))

    d_v = sym_gradient(v)
    d_u0 = sym_gradient(VectorField(grid, data.u0.values))
    e1_vals = _reference_flow(grid)
    slip_sq = 0.0
    normal_max = 0.0
    for face in grid.faces:
        sl = face.slicer()
        na, side = face.axis, face.side
        for i, t_ax in enumerate(face.in_axes):
            traction = 2.0 * mu * side * d_v[na, t_ax][sl]
            row = traction + f * v_vals[t_ax][sl]
            b_full = (
                data.slip_data[face.name][i]
                + 2.0 * mu * side * d_u0[na, t_ax][sl]
                + f * (e1_vals[t_ax][sl] + data.u0.values[t_ax][sl])
            )
            slip_sq += float(np.sum(face.weights * (row - b_full) ** 2))
        flux_data = side * (e1_vals[na][sl] + data.u0.values[na][sl])
        normal_max = max(
            normal_max, float(np.max(np.abs(side * v_vals[na][sl] - flux_data)))
        )

    inflow = grid.face("inflow")
    rho_in = 1.0 + data.w_in
    trace_diff = rho.values[inflow.slicer()] - rho_in
    inflow_res = float(np.sqrt(np.sum(inflow.weights * trace_diff**2)))

    report = {
        "momentum_interior_l2": momentum_res,
        "continuity_interior_l2": continuity_res,
        "slip_boundary_l2": float(np.sqrt(slip_sq)),
        "normal_trace_max": normal_max,
        "inflow_density_l2": inflow_res,
    }
    return PhysicalReconstruction(v, rho, report)
