"""Discrete viscous momentum operator with slip walls, and the linear step.

The momentum rows at interior nodes are exact compositions of the shared
difference operators (axial convection, vector Laplacian, gradient of the
divergence), so residuals reconstructed later through field calculus agree
with what was solved.  Boundary rows replace the PDE rows: the normal
velocity component on every face is pinned to zero and eliminated exactly,
tangential components carry the reduced slip row

    mu * d(u_t)/dn + friction * u_t = B_t,

which on a flat face with the normal component pinned is identical to the
full traction form.  On edge nodes each component normal to a containing
face is pinned; a component tangential to several faces averages their
slip rows.

The linear step couples this operator to the density given by the
characteristics solver, w = S(g - div u, w_in), and the two modes solve
that one system two ways: split mode alternates momentum solves with
transport solves until the sweeps stop changing; monolithic mode records
the transport solve for the step's advecting field as sparse matrices
(transport_footprint), substitutes the density into the momentum rows and
makes one Krylov solve for the velocity.  Both converge to the same
discrete solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import Grid, BoundaryFrames
from .fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    diff1,
    laplacian_array,
    grad_array,
    grad_div_array,
    onesided_normal_d1,
    zeros_vector,
    zeros_scalar,
)
from .krylov import KrylovConfig, krylov_solve
from .transport import make_transport_field, apply_S, transport_footprint
from .material import FlowParams


@dataclass(frozen=True, eq=False)
class LameOperator:
    """Assembled stencil action and boundary bookkeeping.

    pinned marks Dirichlet rows (normal components on their faces, all of
    them homogeneous), robin_cnt counts how many faces contribute a slip
    row to a component at a node, diag is the Jacobi diagonal of the full
    row set.
    """

    grid: Grid
    frames: BoundaryFrames
    params: FlowParams
    pinned: np.ndarray
    robin_cnt: np.ndarray
    diag: np.ndarray

    @property
    def robin_mask(self) -> np.ndarray:
        return (self.robin_cnt > 0) & ~self.pinned


def build_lame_operator(grid: Grid, frames: BoundaryFrames, params: FlowParams) -> LameOperator:
    shape = (3, *grid.shape)
    pinned = np.zeros(shape, dtype=bool)
    cnt = np.zeros(shape, dtype=np.int8)
    for face in frames.faces:
        pinned[face.axis][face.slicer()] = True
        for t_ax in face.in_axes:
            cnt[t_ax][face.slicer()] += 1

    h = grid.h
    diag = np.empty(shape)
    lap_diag = 2.0 * sum(1.0 / ha**2 for ha in h)
    for c in range(3):
        # -(nu+mu) d_c d_c u_c enters through the diagonal second difference
        diag[c] = params.mu * lap_diag + (params.nu + params.mu) * 2.0 / h[c] ** 2

    robin_diag = np.zeros(shape)
    for face in frames.faces:
        for t_ax in face.in_axes:
            robin_diag[t_ax][face.slicer()] += (
                params.mu * 1.5 / h[face.axis] + params.friction
            )
    m = (cnt > 0) & ~pinned
    diag[m] = robin_diag[m] / cnt[m]
    diag[pinned] = 1.0
    return LameOperator(grid, frames, params, pinned, cnt, diag)


def _momentum_rows(op: LameOperator, u: np.ndarray) -> np.ndarray:
    """Full row action on a (3, *shape) velocity array."""
    g = op.grid
    mu, nu = op.params.mu, op.params.nu
    out = grad_div_array(u, g)
    for c in range(3):
        out[c] = diff1(u[c], g.h[0], 0) - mu * laplacian_array(u[c], g) - (nu + mu) * out[c]
    robin = np.zeros_like(out)
    for face in op.frames.faces:
        sl = face.slicer()
        for t_ax in face.in_axes:
            robin[t_ax][sl] += (
                mu * onesided_normal_d1(u[t_ax], face, g.h[face.axis])
                + op.params.friction * u[t_ax][sl]
            )
    m = op.robin_mask
    out[m] = robin[m] / op.robin_cnt[m]
    out[op.pinned] = u[op.pinned]
    return out


def apply_lame(op: LameOperator, u: VectorField) -> VectorField:
    """Row-wise operator action (PDE rows inside, boundary rows on the
    boundary) as a field."""
    return VectorField(op.grid, _momentum_rows(op, u.values))


def _momentum_rhs(op: LameOperator, forcing: np.ndarray, slip_data: Mapping[str, np.ndarray]) -> np.ndarray:
    """Right-hand side matching the row layout of _momentum_rows."""
    b = np.array(forcing, dtype=float)
    racc = np.zeros_like(b)
    for face in op.frames.faces:
        sl = face.slicer()
        rows = slip_data[face.name]
        for i, t_ax in enumerate(face.in_axes):
            racc[t_ax][sl] += rows[i]
    m = op.robin_mask
    b[m] = racc[m] / op.robin_cnt[m]
    b[op.pinned] = 0.0
    return b


def _solve_free_rows(op: LameOperator, rows, rhs: np.ndarray, cfg: KrylovConfig, x0: np.ndarray | None):
    """Solve rows(u) = rhs for the (3, *shape) velocity u on the free rows,
    u being zero on the pinned ones: Jacobi-preconditioned by the operator
    diagonal, warm-started from the array x0 if given."""
    g = op.grid
    free = ~op.pinned.reshape(-1)
    full = np.zeros(3 * g.n_nodes)

    def act(y: np.ndarray) -> np.ndarray:
        full[free] = y
        return rows(full.reshape(3, *g.shape)).reshape(-1)[free]

    y, iters, res = krylov_solve(
        act, rhs.reshape(-1)[free], cfg, diag=op.diag.reshape(-1)[free],
        x0=None if x0 is None else x0.reshape(-1)[free],
    )
    full[free] = y
    return VectorField(g, full.reshape(3, *g.shape)), iters, res


def solve_momentum(
    op: LameOperator,
    forcing: np.ndarray,
    slip_data: Mapping[str, np.ndarray],
    cfg: KrylovConfig = KrylovConfig(),
    x0: VectorField | None = None,
) -> tuple[VectorField, int, float]:
    """Solve the slip-wall momentum system for a given volume forcing."""
    return _solve_free_rows(
        op, lambda u: _momentum_rows(op, u), _momentum_rhs(op, forcing, slip_data), cfg,
        None if x0 is None else x0.values,
    )


@dataclass(frozen=True, eq=False)
class LinearStepResult:
    u: VectorField
    w: ScalarField
    inner_iterations: int
    linear_residual: float
    mode: str


def solve_linear_step(
    grid: Grid,
    frames: BoundaryFrames,
    params: FlowParams,
    convect: VectorField,
    forcing: VectorField,
    continuity_forcing: ScalarField,
    slip_data: Mapping[str, np.ndarray],
    w_in: np.ndarray,
    mode: str = "split",
    krylov_cfg: KrylovConfig = KrylovConfig(),
    inner_tol: float = 1e-11,
    max_sweeps: int = 200,
    start: tuple[VectorField, ScalarField] | None = None,
) -> LinearStepResult:
    """Solve the coupled linear system for (u, w) at one outer iteration.

    convect is the perturbation part of the advecting velocity (outer
    iterate plus lifted data); the transport speed is e1 + convect.  start
    warm-starts the inner iteration (the result does not depend on it).
    """
    tf_values = convect.values.copy()
    tf_values[0] += 1.0
    tf = make_transport_field(grid, tf_values)
    op = build_lame_operator(grid, frames, params)
    gamma = params.pressure.gamma

    if mode == "split":
        if start is not None:
            u = VectorField(grid, start[0].values.copy())
            w = ScalarField(grid, start[1].values.copy())
        else:
            u = zeros_vector(grid)
            w = zeros_scalar(grid)
        total_iters = 0
        res = 0.0
        for _ in range(max_sweeps):
            rhs_u = forcing.values - gamma * grad_array(w.values, grid)
            u_new, iters, res = solve_momentum(op, rhs_u, slip_data, krylov_cfg, x0=u)
            total_iters += iters
            src = continuity_forcing.values - sum(
                diff1(u_new.values[a], grid.h[a], a) for a in range(3)
            )
            w_new = apply_S(tf, ScalarField(grid, src), w_in)
            delta = norm(
                VectorField(grid, u_new.values - u.values), NormKind.h1()
            ) + norm(ScalarField(grid, w_new.values - w.values), NormKind.linf_l2())
            u, w = u_new, w_new
            if delta < inner_tol:
                break
        else:
            raise RuntimeError(
                f"linear step alternation did not reach {inner_tol:g} "
                f"within {max_sweeps} sweeps (last change {delta:.3e})"
            )
        return LinearStepResult(u, w, total_iters, res, "split")

    if mode == "monolithic":
        # the density is w = S_in w_in + S_v (g - div u), the value the split
        # alternation converges to; substituting it into the momentum rows
        # leaves one Krylov solve in u alone
        footprint = transport_footprint(tf)
        w_fixed = footprint.apply(continuity_forcing, w_in).values
        source = footprint.source
        del footprint, tf, tf_values  # the Krylov solve needs only the source part
        pde = ~(op.pinned | op.robin_mask)

        def add_pressure(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
            """rows - gamma grad(w) on the PDE rows, in place; the momentum
            rows take gamma grad(w) there and nowhere else."""
            grad = grad_array(w, grid)
            grad *= -gamma
            return np.add(rows, grad, out=rows, where=pde)

        def traced_divergence(u: np.ndarray) -> np.ndarray:
            """S_v div u, the part of the density that depends on u."""
            div = sum(diff1(u[a], grid.h[a], a) for a in range(3))
            return source.apply(div.reshape(-1)).reshape(grid.shape)

        u, iters, res = _solve_free_rows(
            op,
            lambda u: add_pressure(_momentum_rows(op, u), traced_divergence(u)),
            add_pressure(_momentum_rhs(op, forcing.values, slip_data), w_fixed),
            krylov_cfg,
            None if start is None else start[0].values,
        )
        w = ScalarField(grid, w_fixed - traced_divergence(u.values))
        return LinearStepResult(u, w, iters, res, "monolithic")

    raise ValueError(f"unknown linear step mode {mode!r} (use 'split' or 'monolithic')")
