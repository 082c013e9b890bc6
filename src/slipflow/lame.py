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

build_lame_operator assembles these rows once, as one CSR matrix on the
free (unpinned) rows and columns, and builds a preconditioner on it; every
momentum solve acts through that matrix.  The stencil form of the rows,
which the matrix is tested against, lives with the tests
(tests/test_lame.py).
The preconditioner is a Galerkin geometric-multigrid V-cycle
(Trottenberg, Oosterlee & Schueller, Multigrid, 2001), on every grid:

  - each level takes every cell count m >= 4 to ceil(m/2), so the coarse
    lattice need not be nested in the fine one; coarsening goes on while
    every count is at least 4, or while the level is too large for the
    dense last solve (which only very elongated grids reach);
  - prolongation P is, per component, the Kronecker product of 1-D
    vertex-centred linear interpolation between the two lattices,
    restricted to the free fine and free coarse nodes; the coarse pinned
    pattern is that of the coarse box;
  - the coarse operators are P^T (D A) P, D dividing each slip row by the
    spacing normal to its face so that it is as large as the 1/h^2 PDE
    rows; Jacobi smoothing is invariant to D, so D enters only there;
  - damped Jacobi (weight 0.7) smooths twice before and twice after the
    coarse correction, and the last level is solved through its dense inverse.

A fresh momentum solve then takes 7 to 9 iterations from (8,4,4) to
(64,32,32), where Jacobi scaling needs 21 to 181, and 10 to 19 on grids
whose counts do not halve, such as (9,5,7) and (14,14,14).  The operator
depends only on the grid (whose faces fix the boundary rows) and the
physics, so picard_solve builds one per run and passes it to every
linear step, which reads its grid and parameters from it.

The linear step couples this operator to the density given by the
characteristics solver, w = S(g - div u, w_in), and the two modes solve
that one system two ways: split mode alternates momentum solves with
transport solves until the sweeps stop changing; monolithic mode
substitutes the density into the momentum rows and makes one Krylov solve
for the velocity, whose operator is the matrix product plus the pressure
of the traced divergence on the PDE rows.  Both record the transport solve
for the step's advecting field as sparse matrices once
(transport_footprint), so a split sweep costs one momentum solve and one
footprint apply, and both precondition their Krylov solve with the
operator's V-cycle.  A bare transport field, as make_transport_field
returns it, traces afresh: apply_S builds nothing on it.

One setting, inner_tol, sets how exactly a step is solved: every Krylov
solve of the step stops at the relative residual krylov_tol(inner_tol),
and the split sweeps stop once a sweep changes the solution by less than
inner_tol.  A split sweep solves its momentum rows inexactly,
warm-started from the last sweep's velocity, to a tenth of that start's
residual with krylov_tol as the floor (inexact Uzawa: Elman & Golub,
SIAM J. Numer. Anal. 31, 1994), since the next sweep replaces them; on
the default data that is about one Krylov iteration per sweep.  Both
modes converge to the same discrete solution.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np
from scipy import sparse

from .grid import Grid
from .fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    div_array,
    grad_array,
    zeros_vector,
    zeros_scalar,
)
from .krylov import krylov_solve
from .transport import make_transport_field, apply_S, transport_footprint
from .material import FlowParams

# a linear step alternates sweeps (split) or makes one Krylov solve;
# the first is the default
MODES = ("split", "monolithic")
# split sweeps a linear step may take before it fails as non-convergent
MAX_SWEEPS = 200
# the sweep-to-sweep change at which the split sweeps stop, by default;
# it also sets the step's Krylov tolerance (krylov_tol)
INNER_TOL = 1e-11
# a split sweep's momentum solve stops once it has cut its warm-start
# residual by this factor (krylov_tol is the floor): the next sweep
# replaces that u, so a full solve per sweep buys nothing
SWEEP_REDUCTION = 0.1


def krylov_tol(inner_tol: float) -> float:
    """The relative residual at which every Krylov solve of a linear step
    with this inner_tol stops: ten times it, in (0, 1) for the inner_tol
    below 0.1 that SolverConfig admits."""
    return 10.0 * inner_tol


@dataclass(frozen=True, eq=False)
class _RowLayout:
    """The boundary bookkeeping of the momentum rows, all that the matrix
    and its preconditioner are built from.

    pinned marks Dirichlet rows (normal components on their faces, all of
    them homogeneous), robin_cnt counts how many faces contribute a slip
    row to a component at a node.
    """

    grid: Grid
    params: FlowParams
    pinned: np.ndarray
    robin_cnt: np.ndarray

    @property
    def robin_mask(self) -> np.ndarray:
        return (self.robin_cnt > 0) & ~self.pinned

    @property
    def free(self) -> np.ndarray:
        """Free rows of the flattened (3, *shape) velocity."""
        return ~self.pinned.reshape(-1)


@dataclass(frozen=True, eq=False)
class LameOperator(_RowLayout):
    """The momentum rows, assembled, with their boundary bookkeeping.

    matrix holds the rows on the free (unpinned) rows and columns of the
    flattened (3, *shape) velocity.  precond maps a free-row vector to an
    approximate solution of the momentum system: one multigrid V-cycle.
    """

    matrix: sparse.csr_matrix
    precond: Callable[[np.ndarray], np.ndarray]


def build_lame_operator(grid: Grid, params: FlowParams) -> LameOperator:
    """Boundary bookkeeping, the momentum rows as a sparse matrix on the
    free rows and columns, and the preconditioner built on that matrix."""
    pinned = _pinned_rows(grid.config.cells)
    cnt = np.zeros(pinned.shape, dtype=np.int8)
    for face in grid.faces:
        for t_ax in face.in_axes:
            cnt[t_ax][face.slicer()] += 1
    layout = _RowLayout(grid, params, pinned, cnt)
    matrix = _momentum_matrix(layout)
    return LameOperator(grid, params, pinned, cnt, matrix, _multigrid(layout, matrix))


def _pinned_rows(cells) -> np.ndarray:
    """Pinned rows of the (3, *nodes) velocity on a box of the given cell
    counts: component a on the two faces normal to axis a."""
    pinned = np.zeros((3, *(m + 1 for m in cells)), dtype=bool)
    for a in range(3):
        np.moveaxis(pinned[a], a, 0)[[0, -1]] = True
    return pinned


def _pde_stencil(op: _RowLayout, c: int) -> list[tuple[int, float]]:
    """(column offset, value) of component c's PDE row at an interior
    node, sorted by offset: the row's column is offset plus the node's
    flat index, component a's columns starting at a * n_nodes.

    The x1 convection and the vector Laplacian are 3-point stencils along
    each axis on u_c, the diagonal term of grad div takes the second
    difference of u_c along x_c, and its mixed terms d_c d_a u_a compose
    central first differences along the two axes.
    """
    g = op.grid
    mu, nu = op.params.mu, op.params.nu
    n = g.n_nodes
    stride = (g.shape[1] * g.shape[2], g.shape[2], 1)
    entries: dict[int, float] = {}

    def add(offset: int, value: float) -> None:
        entries[offset] = entries.get(offset, 0.0) + value

    for b in range(3):
        k = (mu + (nu + mu) * (b == c)) / g.h[b] ** 2
        conv = 1.0 / (2.0 * g.h[0]) if b == 0 else 0.0
        add(c * n - stride[b], -k - conv)
        add(c * n, 2.0 * k)
        add(c * n + stride[b], -k + conv)
    for a in range(3):
        if a != c:
            for sa in (-1, 1):
                for sc in (-1, 1):
                    add(a * n + sa * stride[a] + sc * stride[c],
                        -(nu + mu) * (sa / (2.0 * g.h[a])) * (sc / (2.0 * g.h[c])))
    return sorted(entries.items())


def _momentum_matrix(op: _RowLayout) -> sparse.csr_matrix:
    """The rows described in the module docstring on the free rows and
    columns, as a CSR matrix with int32 indices.

    Every free row has at most 15 entries (an interior PDE row; a slip row
    has 3 per face it averages), so the rows are written into fixed-width
    column and value tables, then packed; pinned columns are dropped,
    their values being zero.
    """
    g = op.grid
    mu, friction = op.params.mu, op.params.friction
    n = g.n_nodes
    free = op.free
    n_free = int(np.count_nonzero(free))
    index = np.full(3 * n, -1, dtype=np.int32)  # free position, -1 if pinned
    index[free] = np.arange(n_free, dtype=np.int32)
    cols = np.full((n_free, 15), -1, dtype=np.int32)
    vals = np.zeros((n_free, 15))

    pde = ~(op.pinned | op.robin_mask)  # interior nodes only
    for c in range(3):
        nodes = np.flatnonzero(pde[c])
        rows = index[c * n + nodes]
        for slot, (offset, value) in enumerate(_pde_stencil(op, c)):
            cols[rows, slot] = index[nodes + offset]
            vals[rows, slot] = value

    # slip rows: mu du_t/dn + friction u_t, averaged over the faces
    used = np.zeros(n_free, dtype=np.intp)
    stride = (g.shape[1] * g.shape[2], g.shape[2], 1)
    node_ids = np.arange(n).reshape(g.shape)
    for face in op.grid.faces:
        for t_ax in face.in_axes:
            nodes = node_ids[face.slicer()].reshape(-1)
            nodes = nodes[op.robin_mask[t_ax].reshape(-1)[nodes]]
            rows = index[t_ax * n + nodes]
            scale = 1.0 / op.robin_cnt[t_ax].reshape(-1)[nodes]
            slot = used[rows]
            for k, coef in enumerate((3.0, -4.0, 1.0)):
                inward = nodes - face.side * k * stride[face.axis]
                cols[rows, slot + k] = index[t_ax * n + inward]
                v = mu * coef / (2.0 * g.h[face.axis]) + (friction if k == 0 else 0.0)
                vals[rows, slot + k] = v * scale
            used[rows] += 3

    keep = cols >= 0
    indptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    matrix = sparse.csr_matrix((vals[keep], cols[keep], indptr), shape=(n_free, n_free))
    matrix.sum_duplicates()  # an edge slip row names its node once per face
    return matrix


# damped Jacobi smoothing of the V-cycle: weight, and sweeps before and
# after the coarse correction
_SMOOTH_WEIGHT = 0.7
_SMOOTH_SWEEPS = 2
# largest last level solved densely, in free unknowns: coarsening goes on
# along the counts it can still halve until the last level fits
_COARSEST_MAX = 1000


def _interpolation_1d(n: int, m: int) -> np.ndarray:
    """Vertex-centred linear interpolation from m cells to n on one extent,
    the lattices not necessarily nested: fine node i, at i*m/n coarse
    cells, takes 1 - r/n from coarse node q and r/n from q + 1, where
    (q, r) = divmod(i*m, n) in integers, so m = n/2 gives 1, 1/2, 1/2."""
    q, r = np.divmod(np.arange(n + 1) * m, n)
    p = np.zeros((n + 1, m + 1))
    p[np.arange(n + 1), q] = 1.0 - r / n
    between = np.flatnonzero(r)  # off the coarse nodes
    p[between, q[between] + 1] = r[between] / n
    return p


def _prolongation(cells, coarse) -> sparse.csr_matrix:
    """Free coarse to free fine velocity: per component the Kronecker
    product of 1-D linear interpolation along each axis."""
    p0, p1, p2 = (sparse.csr_matrix(_interpolation_1d(n, m)) for n, m in zip(cells, coarse))
    nodal = sparse.kron(sparse.kron(p0, p1), p2, format="csr")
    fine_free, coarse_free = ~_pinned_rows(cells), ~_pinned_rows(coarse)
    return sparse.block_diag(
        [nodal[fine_free[c].reshape(-1)][:, coarse_free[c].reshape(-1)] for c in range(3)],
        format="csr",
    )


def _slip_row_scale(op: _RowLayout) -> np.ndarray:
    """Free-row scaling that divides each slip row by the spacing normal
    to its faces (averaged like the row), leaving the PDE rows alone."""
    acc = np.zeros(op.pinned.shape)
    for face in op.grid.faces:
        for t_ax in face.in_axes:
            acc[t_ax][face.slicer()] += 1.0 / op.grid.h[face.axis]
    scale = np.ones(op.pinned.shape)
    m = op.robin_mask
    scale[m] = acc[m] / op.robin_cnt[m]
    return scale.reshape(-1)[op.free]


def _galerkin(restrict: sparse.csr_matrix, matrix: sparse.csr_matrix, prolong: sparse.csr_matrix):
    """restrict @ matrix @ prolong, an eighth of the coarse rows at a time:
    the coarse-by-fine intermediate product is several times the size of
    the result and is never held whole."""
    step = -(-restrict.shape[0] // 8)
    return sparse.vstack(
        [(restrict[i:i + step] @ matrix) @ prolong for i in range(0, restrict.shape[0], step)],
        format="csr",
    )


class _VCycle:
    """One Galerkin multigrid V-cycle for the momentum rows, from a zero
    initial guess: a fixed linear map, as a Krylov preconditioner must be.

    With A the free-row matrix and D the slip-row scaling, the cycle
    approximately solves D A x = D r.  Jacobi smoothing is invariant to a
    row scaling, so the finest level smooths A x = r and scales only the
    residual it restricts; the coarse matrices are P^T (D A) P and so on
    down, and the last level is solved through its dense inverse.
    """

    def __init__(self, matrix: sparse.csr_matrix, row_scale: np.ndarray, prolongs):
        self.row_scale = row_scale
        self.prolongs = prolongs
        self.restricts = [p.T.tocsr() for p in prolongs]  # CSR products are the fastest
        scaled = self.restricts[0].copy()  # P^T D
        scaled.data *= row_scale[scaled.indices]
        self.mats = [matrix, _galerkin(scaled, matrix, prolongs[0])]
        for r, p in zip(self.restricts[1:], prolongs[1:]):
            self.mats.append(_galerkin(r, self.mats[-1], p))
        self.weights = [_SMOOTH_WEIGHT / m.diagonal() for m in self.mats[:-1]]
        self.coarsest = np.linalg.inv(self.mats.pop().toarray())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.prolongs):
            return self.coarsest @ b
        a, weight = self.mats[level], self.weights[level]
        x = weight * b
        for _ in range(_SMOOTH_SWEEPS - 1):
            x += weight * (b - a @ x)
        r = b - a @ x
        if level == 0:
            r *= self.row_scale
        x += self.prolongs[level] @ self._cycle(level + 1, self.restricts[level] @ r)
        for _ in range(_SMOOTH_SWEEPS):
            x += weight * (b - a @ x)
        return x


def _multigrid(op: _RowLayout, matrix: sparse.csr_matrix) -> _VCycle:
    """The V-cycle for op's free-row matrix, on the levels the module
    docstring describes.  A level with more than _COARSEST_MAX free
    unknowns has a count of at least 4 left to halve, so the loop ends."""
    cells = op.grid.config.cells
    prolongs = []
    while all(m >= 4 for m in cells) or np.count_nonzero(~_pinned_rows(cells)) > _COARSEST_MAX:
        coarse = tuple((m + 1) // 2 if m >= 4 else m for m in cells)
        prolongs.append(_prolongation(cells, coarse))
        cells = coarse
    return _VCycle(matrix, _slip_row_scale(op), prolongs)


def _momentum_rhs(op: LameOperator, forcing: np.ndarray, slip_data: Mapping[str, np.ndarray]) -> np.ndarray:
    """Free-row right-hand side matching the row layout: the forcing on
    the PDE rows and the averaged slip data on the slip rows."""
    b = np.array(forcing, dtype=float)
    racc = np.zeros_like(b)
    for face in op.grid.faces:
        sl = face.slicer()
        rows = slip_data[face.name]
        for i, t_ax in enumerate(face.in_axes):
            racc[t_ax][sl] += rows[i]
    m = op.robin_mask
    b[m] = racc[m] / op.robin_cnt[m]
    return b.reshape(-1)[op.free]


def _scatter(op: LameOperator, y: np.ndarray) -> np.ndarray:
    """The (3, *shape) velocity with free rows y and zero pinned rows."""
    full = np.zeros(op.pinned.size)
    full[op.free] = y
    return full.reshape(op.pinned.shape)


def _solve_free_rows(
    op: LameOperator, act, rhs: np.ndarray, rel_tol: float, x0: np.ndarray | None,
    reduction: float | None = None,
):
    """Solve act(y) = rhs to rel_tol for the free rows y of the velocity,
    which is zero on the pinned ones: preconditioned by op.precond,
    warm-started from the (3, *shape) array x0 if given, to krylov_solve's
    reduction of the starting residual if given."""
    y, iters, res = krylov_solve(
        act, rhs, rel_tol, precond=op.precond,
        x0=None if x0 is None else x0.reshape(-1)[op.free], reduction=reduction,
    )
    return VectorField(op.grid, _scatter(op, y)), iters, res


def solve_momentum(
    op: LameOperator,
    rhs: np.ndarray,
    rel_tol: float,
    x0: VectorField | None = None,
    reduction: float | None = None,
) -> tuple[VectorField, int, float]:
    """Solve the slip-wall momentum system for a free-row right-hand side
    (as _momentum_rhs builds it) to rel_tol, warm-started from x0 if
    given; reduction makes the solve inexact, as krylov_solve describes."""
    return _solve_free_rows(
        op, op.matrix.dot, rhs, rel_tol, None if x0 is None else x0.values, reduction
    )


@dataclass(frozen=True, eq=False)
class LinearStepResult:
    """Solution of one linear step in the mode the caller passed: sweeps
    is the number of split sweeps (1 in monolithic mode),
    inner_iterations the Krylov iterations over all of them (about one
    per split sweep on the default data, each sweep's solve stopping at a
    tenth of its warm-start residual) and linear_residual the last
    solve's relative residual, at most krylov_tol(inner_tol)."""

    u: VectorField
    w: ScalarField
    inner_iterations: int
    linear_residual: float
    sweeps: int


def solve_linear_step(
    op: LameOperator,
    convect: VectorField,
    forcing: VectorField,
    continuity_forcing: ScalarField,
    slip_data: Mapping[str, np.ndarray],
    w_in: np.ndarray,
    mode: str = MODES[0],
    inner_tol: float = INNER_TOL,
    start: tuple[VectorField, ScalarField] | None = None,
) -> LinearStepResult:
    """Solve the coupled linear system for (u, w) at one outer iteration.

    convect is the perturbation part of the advecting velocity (outer
    iterate plus lifted data); the transport speed is e1 + convect.
    inner_tol sets how exactly the step is solved, as the module docstring
    describes.  start warm-starts the inner iteration (the result does not
    depend on it).
    op is the momentum operator, the same at every outer iteration of a
    run; the step works on its grid with its physics parameters.
    """
    if mode not in MODES:
        raise ValueError(f"unknown linear step mode {mode!r} (use one of {MODES})")
    grid = op.grid
    tf_values = convect.values.copy()
    tf_values[0] += 1.0
    tf = make_transport_field(grid, tf_values)
    footprint = transport_footprint(tf)
    gamma = op.params.pressure.gamma
    rel_tol = krylov_tol(inner_tol)
    rhs = _momentum_rhs(op, forcing.values, slip_data)
    pde = ~(op.pinned | op.robin_mask)
    pde_free = pde.reshape(-1)[op.free]  # the PDE rows among the free rows

    def add_pressure(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """rows - gamma grad(w) on the PDE rows of a free-row vector, in
        place; the momentum rows take gamma grad(w) there and nowhere
        else."""
        grad = grad_array(w, grid)
        grad *= -gamma
        rows[pde_free] += grad[pde]
        return rows

    if mode == "split":
        # both operators are fixed for the step: apply_S goes through the
        # field's footprint, solve_momentum through the operator's matrix
        tf = replace(tf, footprint=footprint)
        if start is not None:
            u = VectorField(grid, start[0].values.copy())
            w = ScalarField(grid, start[1].values.copy())
        else:
            u = zeros_vector(grid)
            w = zeros_scalar(grid)
        total_iters = 0
        res = 0.0
        for sweep in range(1, MAX_SWEEPS + 1):
            u_new, iters, res = solve_momentum(
                op, add_pressure(rhs.copy(), w.values), rel_tol, x0=u, reduction=SWEEP_REDUCTION
            )
            total_iters += iters
            src = continuity_forcing.values - div_array(u_new.values, grid)
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
                f"within {MAX_SWEEPS} sweeps (last change {delta:.3e})"
            )
        return LinearStepResult(u, w, total_iters, res, sweep)

    # the density is w = S_in w_in + S_v (g - div u), the value the split
    # alternation converges to; substituting it into the momentum rows
    # leaves one Krylov solve in u alone
    w_fixed = footprint.apply(continuity_forcing, w_in).values
    source = footprint.source
    del footprint, tf, tf_values  # the Krylov solve needs only the source part

    def traced_divergence(u: np.ndarray) -> np.ndarray:
        """S_v div u, the part of the density that depends on u."""
        return source.apply(div_array(u, grid).reshape(-1)).reshape(grid.shape)

    u, iters, res = _solve_free_rows(
        op,
        lambda y: add_pressure(op.matrix @ y, traced_divergence(_scatter(op, y))),
        add_pressure(rhs, w_fixed),
        rel_tol,
        None if start is None else start[0].values,
    )
    w = ScalarField(grid, w_fixed - traced_divergence(u.values))
    return LinearStepResult(u, w, iters, res, 1)
