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
transport solves until the sweeps stop changing; monolithic mode
substitutes the density into the momentum rows and makes one Krylov solve
for the velocity.  Both record the transport solve for the step's
advecting field as sparse matrices once (transport_footprint); split mode
also assembles the momentum rows as one sparse matrix (build_lame_operator
with assemble set), so each sweep costs a matrix product per Krylov
iteration and one footprint apply.  A bare operator and a bare transport
field, as build_lame_operator and make_transport_field return them, act
through the stencils and trace afresh: apply_S traces afresh and builds
nothing only on bare fields.  Both modes converge to the same discrete
solution.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy import sparse

from .grid import Grid, BoundaryFrames
from .fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    diff1,
    diff2,
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
    row set.  matrix, if assembled, holds the same rows as a sparse matrix
    on the flattened (3, *shape) velocity.
    """

    grid: Grid
    frames: BoundaryFrames
    params: FlowParams
    pinned: np.ndarray
    robin_cnt: np.ndarray
    diag: np.ndarray
    matrix: sparse.csr_matrix | None = None

    @property
    def robin_mask(self) -> np.ndarray:
        return (self.robin_cnt > 0) & ~self.pinned


def build_lame_operator(
    grid: Grid, frames: BoundaryFrames, params: FlowParams, assemble: bool = False
) -> LameOperator:
    """Boundary bookkeeping and Jacobi diagonal of the momentum rows, with
    the rows assembled as a sparse matrix if assemble is set."""
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
    op = LameOperator(grid, frames, params, pinned, cnt, diag)
    return replace(op, matrix=_momentum_matrix(op)) if assemble else op


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


def _kron3(factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero (rows, cols, values) of kron(m0, m1, m2) for three dense
    square 1-D matrices: the operator acting along each node axis by its
    own factor."""
    rows = cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1)
    for m in factors:
        r, c = np.nonzero(m)
        rows = (rows[:, None] * m.shape[0] + r).reshape(-1)
        cols = (cols[:, None] * m.shape[0] + c).reshape(-1)
        vals = (vals[:, None] * m[r, c]).reshape(-1)
    return rows, cols, vals


def _momentum_matrix(op: LameOperator) -> sparse.csr_matrix:
    """The rows of _momentum_rows as a (3N, 3N) matrix on the flattened
    velocity, component c taking rows and columns c*N to (c+1)*N - 1.

    PDE rows are sums of Kronecker products of the 1-D diff1/diff2
    matrices (those stencils applied to the identity); slip rows and
    pinned rows are written from their stencils by index arithmetic.
    """
    g = op.grid
    mu, nu, friction = op.params.mu, op.params.nu, op.params.friction
    n = g.n_nodes
    eye = [np.eye(m) for m in g.shape]
    d1 = [diff1(eye[a], g.h[a], 0) for a in range(3)]
    d2 = [diff2(eye[a], g.h[a], 0) for a in range(3)]
    pde = ~(op.pinned | op.robin_mask)
    parts = []

    def add(c: int, a: int, factors, coef: float = 1.0) -> None:
        """Entries of one Kronecker term in block (c, a), on PDE rows only."""
        r, col, v = _kron3(factors)
        keep = pde[c].reshape(-1)[r]
        parts.append((r[keep] + c * n, col[keep] + a * n, coef * v[keep]))

    for c in range(3):
        # u_c convected along x1, the vector Laplacian and d_c d_c u_c
        for a in range(3):
            m = -(mu + (nu + mu) * (a == c)) * d2[a] + (d1[0] if a == 0 else 0.0)
            add(c, c, [m if b == a else eye[b] for b in range(3)])
        # the mixed terms of grad div: d_c d_a u_a
        for a in range(3):
            if a != c:
                add(c, a, [d1[b] if b in (a, c) else eye[b] for b in range(3)], -(nu + mu))

    # slip rows: mu du_t/dn + friction u_t, averaged over the faces
    nodes = np.arange(n).reshape(g.shape)
    for face in op.frames.faces:
        inward = [slice(None)] * 3
        for t_ax in face.in_axes:
            row = nodes[face.slicer()].reshape(-1)
            keep = op.robin_mask[t_ax].reshape(-1)[row]
            row = row[keep]
            scale = 1.0 / op.robin_cnt[t_ax].reshape(-1)[row]
            for k, coef in enumerate((3.0, -4.0, 1.0)):
                inward[face.axis] = face.index - face.side * k
                col = nodes[tuple(inward)].reshape(-1)[keep]
                v = mu * coef / (2.0 * g.h[face.axis]) + (friction if k == 0 else 0.0)
                parts.append((row + t_ax * n, col + t_ax * n, v * scale))

    pinned = np.flatnonzero(op.pinned)
    parts.append((pinned, pinned, np.ones(pinned.size)))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return sparse.coo_matrix((vals, (rows, cols)), shape=(3 * n, 3 * n)).tocsr()


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
    """Solve the slip-wall momentum system for a given volume forcing,
    through op.matrix if the operator carries it."""
    if op.matrix is None:
        rows = lambda u: _momentum_rows(op, u)
    else:
        rows = lambda u: (op.matrix @ u.reshape(-1)).reshape(u.shape)
    return _solve_free_rows(
        op, rows, _momentum_rhs(op, forcing, slip_data), cfg, None if x0 is None else x0.values
    )


@dataclass(frozen=True, eq=False)
class LinearStepResult:
    """Solution of one linear step: sweeps is the number of split sweeps
    (1 in monolithic mode), inner_iterations the Krylov iterations over
    all of them and linear_residual the last solve's relative residual."""

    u: VectorField
    w: ScalarField
    inner_iterations: int
    linear_residual: float
    mode: str
    sweeps: int


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
    if mode not in ("split", "monolithic"):
        raise ValueError(f"unknown linear step mode {mode!r} (use 'split' or 'monolithic')")
    tf_values = convect.values.copy()
    tf_values[0] += 1.0
    tf = make_transport_field(grid, tf_values)
    op = build_lame_operator(grid, frames, params, assemble=mode == "split")
    gamma = params.pressure.gamma

    if mode == "split":
        # both operators are fixed for the step: apply_S goes through the
        # field's footprint, solve_momentum through the operator's matrix
        tf = replace(tf, footprint=transport_footprint(tf))
        if start is not None:
            u = VectorField(grid, start[0].values.copy())
            w = ScalarField(grid, start[1].values.copy())
        else:
            u = zeros_vector(grid)
            w = zeros_scalar(grid)
        total_iters = 0
        res = 0.0
        for sweep in range(1, max_sweeps + 1):
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
        return LinearStepResult(u, w, total_iters, res, "split", sweep)

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
    return LinearStepResult(u, w, iters, res, "monolithic", 1)
