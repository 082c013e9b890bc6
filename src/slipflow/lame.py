"""Discrete viscous momentum operator with slip walls, and the linear step.

The momentum rows at interior nodes are read off fields.lame_array, the
one composition of the shared difference operators (axial convection,
vector Laplacian, gradient of the divergence) that compute_F and the
audits apply too, so residuals reconstructed later through field
calculus agree with what was solved.  Boundary rows replace the PDE
rows: the normal velocity component on every face is pinned to zero and
eliminated exactly, tangential components carry the Navier-slip row
read off fields.slip_traction, which the lift data and the audits apply:

    2 mu n.D(u).tau + friction u.tau = B_tau,

with the normal component pinned, mu du_t/dn + friction u_t.  On edge
nodes each component normal to a containing face is pinned; a component
tangential to several faces averages their slip rows.

build_lame_operator lays these rows out once: it stores their masks on
the operator as read-only arrays (pinned, slip and PDE rows, the free
(unpinned) rows, and the count of faces that share each slip row).  One
function gives every row its value: a volume value on the PDE rows, on
each slip row the average of what each face sharing it gives, zero on
the pinned rows.  The matrix, its right-hand side and the V-cycle's
slip-row scaling all go through it; the matrix is read off the rows it
gives fields.lame_array and fields.slip_traction on a box of four cells,
81 probes for every row of the grid, and assembled as one CSR matrix on
the free rows and columns, on which the preconditioner is built.  Every
momentum solve acts through that matrix, and every linear step reads
those masks.  The tests check the matrix against a stencil form of all
the rows of their own (tests/test_lame.py).
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
for the step's advecting field once (transport_footprint: its inflow
stencil, and its source part as sparse matrices), so a split sweep costs
one momentum solve and one footprint apply, and the monolithic operator
applies the footprint's source part (footprint.source) to div u; both
precondition their Krylov solve with the operator's V-cycle.  Only the footprint outlives the
transport_footprint call: a split sweep hands it to apply_S, which
applies it instead of tracing.

One setting, inner_tol, sets how exactly a step is solved: every Krylov
solve of the step stops at the relative residual krylov_tol(inner_tol),
and the split sweeps stop once a sweep changes the solution by less than
inner_tol in the distance the outer iteration contracts in
(fields.weak_distance: H1 in u plus LinfL2 in w).  A split sweep solves
its momentum rows inexactly, warm-started from the last sweep's
velocity, to a tenth of that start's residual with krylov_tol as the
floor (inexact Uzawa: Elman & Golub, SIAM J. Numer. Anal. 31, 1994),
since the next sweep replaces them; on the default data that is about
one Krylov iteration per sweep.  Both modes converge to the same
discrete solution, but the sweeps only where they contract, for a
pressure slope up to about 13 at mu = nu = 1; a step whose sweeps grow
to DIVERGED_GROWTH times its first change fails, naming monolithic mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy import sparse

from .grid import GeometryConfig, Grid, build_grid
from .fields import (
    ScalarField,
    VectorField,
    weak_distance,
    div_array,
    grad_array,
    lame_array,
    slip_traction,
    zeros_vector,
    zeros_scalar,
)
from .krylov import krylov_solve
from .transport import make_transport_field, apply_S, transport_footprint
from .material import FlowParams, reference_flow

# a linear step alternates sweeps (split) or makes one Krylov solve;
# the first is the default
MODES = ("split", "monolithic")
# split sweeps a linear step may take before it fails as non-convergent
MAX_SWEEPS = 200
# the sweep-to-sweep change at which the split sweeps stop, by default;
# it also sets the step's Krylov tolerance (krylov_tol)
INNER_TOL = 1e-11
# the split sweeps have diverged once a sweep changes the solution by this
# multiple of the step's first change: where they converge the change
# peaks near 400 times the first (pressure slope 13 on the default data)
DIVERGED_GROWTH = 1e6
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
class LameOperator:
    """The momentum rows, assembled, with the row layout they were
    assembled on; build_lame_operator builds each array once, read-only.

    pinned marks Dirichlet rows (normal components on their faces, all of
    them homogeneous), robin_mask the slip rows, with robin_cnt counting
    how many faces contribute a slip row to a component at a node, and pde
    the PDE rows (interior nodes only); each is a (3, *shape) array.  free
    marks the free (unpinned) rows of the flattened velocity, and pde_free
    the PDE rows among them.  matrix holds the rows on the free rows and
    columns.  precond maps a free-row vector to an approximate solution of
    the momentum system: one multigrid V-cycle.
    """

    grid: Grid
    params: FlowParams
    pinned: np.ndarray
    robin_cnt: np.ndarray
    robin_mask: np.ndarray
    pde: np.ndarray
    free: np.ndarray
    pde_free: np.ndarray
    matrix: sparse.csr_matrix
    precond: Callable[[np.ndarray], np.ndarray]


def build_lame_operator(grid: Grid, params: FlowParams) -> LameOperator:
    """The row layout, the momentum rows as a sparse matrix on the free
    rows and columns, and the preconditioner built on that matrix."""
    layout = _layout(grid)
    pinned, _, _, pde = layout
    free = ~pinned.reshape(-1)
    pde_free = pde.reshape(-1)[free]
    for array in (*layout, free, pde_free):
        array.flags.writeable = False
    matrix = _momentum_matrix(grid, params, free)
    # the V-cycle divides each slip row by the spacing normal to its faces
    normal_h = {face.name: (1.0 / grid.h[face.axis],) * 2 for face in grid.faces}
    row_scale = _row_values(grid, layout, 1.0, normal_h).reshape(-1)[free]
    return LameOperator(
        grid, params, *layout, free, pde_free, matrix, _multigrid(grid, matrix, row_scale)
    )


def _pinned_rows(cells) -> np.ndarray:
    """Pinned rows of the (3, *nodes) velocity on a box of the given cell
    counts: component a on the two faces normal to axis a."""
    pinned = np.zeros((3, *(m + 1 for m in cells)), dtype=bool)
    for a in range(3):
        np.moveaxis(pinned[a], a, 0)[[0, -1]] = True
    return pinned


def _layout(g: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The row layout on g as LameOperator stores it: the (3, *shape)
    arrays pinned, robin_cnt, robin_mask and pde."""
    pinned = _pinned_rows(g.config.cells)
    robin_cnt = np.zeros(pinned.shape, dtype=np.int8)
    for face in g.faces:
        for t_ax in face.in_axes:
            robin_cnt[t_ax][face.slicer()] += 1
    robin_mask = (robin_cnt > 0) & ~pinned
    return pinned, robin_cnt, robin_mask, ~(pinned | robin_mask)


def _row_values(g: Grid, layout, volume, by_face: Mapping) -> np.ndarray:
    """Every momentum row's value on g with this layout (as _layout gives
    it), a (3, *shape, ...) array: volume on the PDE rows; on each slip row
    the average, over the faces that share it, of by_face[face.name][i],
    what the face gives its i-th in-face component face.in_axes[i]; zero
    on the pinned rows.  volume is a scalar or a (3, *shape, ...) array,
    and the by_face values are shaped like slip_traction's output, or are
    pairs of scalars; the trailing axes, if any, are the same for both."""
    _, robin_cnt, robin_mask, pde = layout
    slip = np.zeros(robin_cnt.shape + np.shape(volume)[4:])
    for face in g.faces:
        for i, t_ax in enumerate(face.in_axes):
            slip[t_ax][face.slicer()] += by_face[face.name][i]
    tail = (1,) * (slip.ndim - 4)  # the masks broadcast over trailing axes
    cnt, robin, pde = (m.reshape(m.shape + tail) for m in (robin_cnt, robin_mask, pde))
    return np.where(robin, slip / np.maximum(cnt, 1), np.where(pde, volume, 0.0))


def _row_action(values: np.ndarray, g: Grid, params: FlowParams) -> np.ndarray:
    """The momentum rows applied to a (3, *shape, ...) velocity array on
    g, trailing axes allowed: fields.lame_array on the PDE rows and
    fields.slip_traction on the slip rows."""
    return _row_values(
        g, _layout(g), lame_array(values, g, params.mu, params.nu),
        slip_traction(values, g, params.mu, params.friction),
    )


def _momentum_matrix(g: Grid, params: FlowParams, free: np.ndarray) -> sparse.csr_matrix:
    """The rows described in the module docstring on the free rows and
    columns (free as LameOperator stores it), as a CSR matrix with int32
    indices, read off _row_action on a box of four cells with g's spacings
    (4h/4 is h exactly).  An entry that is exactly zero is left out.

    Along each axis a node is on the low face, inside, or on the high
    face, and its row depends only on which of the three, up to a shift:
    the row at every node of g is the box's row at box node 2p (p = 0, 1,
    2 for low face, inside, high face) shifted to that node.  That row
    reaches box nodes p to p + 2 along each axis, so Curtis-Powell-Reid
    probes read every row (Curtis, Powell & Reid, J. Inst. Maths Applics
    13, 1974): along each axis, probe k (k = 0, 1, 2) sets box nodes k and
    k + 3, and the row at 2p reads the one at k + 3 if k + 3 <= p + 2 and
    the one at k otherwise; 3 source components x 27 probes.
    """
    box = build_grid(GeometryConfig(*(4.0 * h for h in g.h), 4, 4, 4))
    sets = (np.arange(5)[:, None] % 3 == np.arange(3)).astype(float)  # [box node, k]
    probes = np.einsum("ab,il,jm,kn->aijkblmn", np.eye(3), sets, sets, sets)
    # action[c, box node, a, k0, k1, k2]: row c there under probe k of component a
    action = _row_action(probes.reshape(3, 5, 5, 5, 81), box, params).reshape(probes.shape)
    # offset[p][k]: the box node probe k sets within reach of the row at 2p, less 2p
    offset = np.array([[(k + 3 if k + 3 <= p + 2 else k) - 2 * p for k in range(3)] for p in range(3)])
    places = (slice(0, 1), slice(1, -1), slice(-1, None))  # nodes of g at each p

    n = g.n_nodes
    n_free = int(np.count_nonzero(free))
    index = np.full(3 * n, -1, dtype=np.int32)  # free position, -1 if pinned
    index[free] = np.arange(n_free, dtype=np.int32)
    stride = (g.shape[1] * g.shape[2], g.shape[2], 1)
    node_ids = np.arange(n, dtype=np.int32).reshape(g.shape)
    rows, cols, vals = [], [], []
    for p in np.ndindex(3, 3, 3):
        nodes = node_ids[tuple(places[q] for q in p)].reshape(-1)
        row = action[(slice(None), *(2 * q for q in p))]
        c, a, *k = np.nonzero(row)
        shift = a * n + sum(offset[q][kq] * s for q, kq, s in zip(p, k, stride))
        col = index[shift[:, None] + nodes]
        keep = col >= 0  # pinned columns are zero
        rows.append(index[c[:, None] * n + nodes][keep])
        cols.append(col[keep])
        vals.append(np.broadcast_to(row[(c, a, *k)][:, None], col.shape)[keep])

    # joined one list at a time: only one is held both in pieces and whole
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_free, n_free))


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
    down, and the last level is solved through its dense inverse.  Each
    level keeps P and, to restrict, its transposed view P.T, made once: a
    CSC matrix on P's own arrays that sums as a CSR P^T would.
    """

    def __init__(self, matrix: sparse.csr_matrix, row_scale: np.ndarray, prolongs):
        self.row_scale = row_scale
        self.prolongs = prolongs
        self.restricts = [p.T for p in prolongs]
        # the products are fastest with P^T as CSR, held only while they form
        scaled = prolongs[0].T.tocsr()  # P^T D
        scaled.data *= row_scale[scaled.indices]
        self.mats = [matrix, _galerkin(scaled, matrix, prolongs[0])]
        for p in prolongs[1:]:
            self.mats.append(_galerkin(p.T.tocsr(), self.mats[-1], p))
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


def _multigrid(g: Grid, matrix: sparse.csr_matrix, row_scale: np.ndarray) -> _VCycle:
    """The V-cycle for the free-row matrix on g with the slip-row scaling
    row_scale, on the levels the module docstring describes.  A level with
    more than _COARSEST_MAX free unknowns has a count of at least 4 left
    to halve, so the loop ends."""
    cells = g.config.cells
    prolongs = []
    while all(m >= 4 for m in cells) or np.count_nonzero(~_pinned_rows(cells)) > _COARSEST_MAX:
        coarse = tuple((m + 1) // 2 if m >= 4 else m for m in cells)
        prolongs.append(_prolongation(cells, coarse))
        cells = coarse
    return _VCycle(matrix, row_scale, prolongs)


def _momentum_rhs(op: LameOperator, forcing: np.ndarray, slip_data: Mapping[str, np.ndarray]) -> np.ndarray:
    """Free-row right-hand side matching the row layout: the forcing on
    the PDE rows and the averaged slip data on the slip rows."""
    layout = (op.pinned, op.robin_cnt, op.robin_mask, op.pde)
    return _row_values(op.grid, layout, forcing, slip_data).reshape(-1)[op.free]


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
    describes.  start, a (u, w) pair the step does not modify, warm-starts
    the inner iteration; the result depends on it only within inner_tol,
    since the number of sweeps (in monolithic mode, the Krylov iterate)
    moves with the start.
    op is the momentum operator, the same at every outer iteration of a
    run; the step works on its grid with its physics parameters.
    """
    if mode not in MODES:
        raise ValueError(f"unknown linear step mode {mode!r} (use one of {MODES})")
    grid = op.grid
    # of the transport speed e1 + convect the step keeps only the footprint
    footprint = transport_footprint(make_transport_field(grid, reference_flow(grid) + convect.values))
    gamma = op.params.pressure.gamma
    rel_tol = krylov_tol(inner_tol)
    rhs = _momentum_rhs(op, forcing.values, slip_data)

    def add_pressure(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """rows - gamma grad(w) on the PDE rows of a free-row vector, in
        place; the momentum rows take gamma grad(w) there and nowhere
        else."""
        grad = grad_array(w, grid)
        grad *= -gamma
        rows[op.pde_free] += grad[op.pde]
        return rows

    if mode == "split":
        # both operators are fixed for the step: apply_S applies the
        # footprint, solve_momentum goes through the operator's matrix;
        # each sweep makes new arrays, so start is read, never written
        u, w = start if start is not None else (zeros_vector(grid), zeros_scalar(grid))
        total_iters = 0
        res = 0.0
        for sweep in range(1, MAX_SWEEPS + 1):
            u_new, iters, res = solve_momentum(
                op, add_pressure(rhs.copy(), w.values), rel_tol, x0=u, reduction=SWEEP_REDUCTION
            )
            total_iters += iters
            src = continuity_forcing.values - div_array(u_new.values, grid)
            w_new = apply_S(footprint, ScalarField(grid, src), w_in)
            delta = weak_distance(u_new, u, w_new, w)
            u, w = u_new, w_new
            if delta < inner_tol:
                break
            if sweep == 1:
                first = delta
            if delta > DIVERGED_GROWTH * first:
                raise RuntimeError(
                    f"split sweeps grow: change {first:.3e} at sweep 1, {delta:.3e} at "
                    f"sweep {sweep}; monolithic mode (--mode monolithic) solves the same step"
                )
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

    def traced_divergence(u: np.ndarray) -> np.ndarray:
        """S_v div u, the part of the density that depends on u."""
        return footprint.source(div_array(u, grid).reshape(-1)).reshape(grid.shape)

    u, iters, res = _solve_free_rows(
        op,
        lambda y: add_pressure(op.matrix @ y, traced_divergence(_scatter(op, y))),
        add_pressure(rhs, w_fixed),
        rel_tol,
        None if start is None else start[0].values,
    )
    w = ScalarField(grid, w_fixed - traced_divergence(u.values))
    return LinearStepResult(u, w, iters, res, 1)
