"""Steady transport along characteristics of the augmented axial flow.

The continuity update is solved in Lagrangian form: every node is traced
backward along d(X)/ds = -u~(X) until it arrives at the inflow plane, carrying
the path integral of the source as an augmented ODE state.  The axial
component of u~ stays >= 1/2 in the admissible regime, so every
characteristic arrives at x1 = 0 in travel parameter at most 2L.

For one advecting field the solve is affine in (source, inflow trace).
transport_footprint traces every node once and records it as sparse
matrices, so that a linear step can apply it many times through one set
of traces.  apply_S on a field that carries its footprint applies it; on a
bare field, as make_transport_field returns it, apply_S traces afresh and
builds nothing.

Both run one kernel, _trace, on fixed blocks of _BLOCK consecutive nodes:
a block takes full RK4 steps until each of its traces is about to cross
x1 = 0, then lands them all in one root solve in which every trace stops
on its own tolerance.  No trace's arithmetic depends on the others in its
block, so each trace's arrival and path integral are bit-identical for any
block size and any thread count.  apply_S on a bare field spreads the
blocks over a thread pool with one thread per CPU in the process's
affinity mask (there is no setting for it); transport_footprint traces
them one after another, because its recorder is Python code that holds
the interpreter lock.

An independent slice-marching discretization (upwind_march) of the same
equation is kept deliberately separate as a cross-check, and
jacobian_bound estimates how far the characteristic flow is from volume
preserving.
"""
from __future__ import annotations

import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .grid import Grid
from .fields import ScalarField


@dataclass(frozen=True, eq=False)
class TransportField:
    """Full advecting velocity u~ = e1 + (ubar + u0) with its smallness
    certificate: sup of |u~1 - 1|, sup of the transverse components, and
    the largest wall-normal trace leak.  footprint, if recorded for these
    values, is what apply_S applies instead of tracing."""

    grid: Grid
    values: np.ndarray  # (3, n1+1, n2+1, n3+1)
    sup_axial_dev: float
    sup_transverse: float
    wall_trace_defect: float
    footprint: TransportFootprint | None = None


def make_transport_field(grid: Grid, velocity: np.ndarray) -> TransportField:
    """Validate and certify a full advecting velocity array."""
    velocity = np.asarray(velocity, dtype=float)
    if velocity.shape != (3, *grid.shape):
        raise ValueError(f"transport velocity shape {velocity.shape} != (3, *{grid.shape})")
    if not np.all(np.isfinite(velocity)):
        raise ValueError("transport velocity contains non-finite values")
    ax_min = float(np.min(velocity[0]))
    if ax_min < 0.5:
        raise ValueError(
            f"axial transport speed fell to {ax_min:.6g} < 1/2; "
            "forward progress of characteristics is lost"
        )
    defect = max(
        float(np.max(np.abs(velocity[1][:, 0, :]))),
        float(np.max(np.abs(velocity[1][:, -1, :]))),
        float(np.max(np.abs(velocity[2][:, :, 0]))),
        float(np.max(np.abs(velocity[2][:, :, -1]))),
    )
    return TransportField(
        grid=grid,
        values=velocity,
        sup_axial_dev=float(np.max(np.abs(velocity[0] - 1.0))),
        sup_transverse=float(np.max(np.abs(velocity[1:]))),
        wall_trace_defect=defect,
    )


# ---------------------------------------------------------------------------
# interpolation

@dataclass(frozen=True)
class _Stencil:
    """Trilinear stencil of N positions clamped to the closed duct: flat
    node index of each cell's low corner and the (8, N) weights of the cell
    corners, d1 slowest and d3 fastest (the order of _lattice's offsets)."""

    base: np.ndarray  # (N,) flat index of corner (i0, j0, k0)
    weights: np.ndarray  # (8, N)

    def subset(self, keep: np.ndarray) -> "_Stencil":
        return _Stencil(self.base[keep], self.weights[:, keep])


def _strides(grid: Grid) -> tuple[int, int]:
    """Flat-index strides of the x1 and x2 axes (x3 has stride 1)."""
    return grid.shape[1] * grid.shape[2], grid.shape[2]


@lru_cache(maxsize=32)
def _lattice(grid: Grid):
    """Columns for locating (3, N) positions: extents, spacings, cell
    counts, last cell index per axis, the 8 corner offsets (d1 slowest,
    d3 fastest) as an (8, 1) column, and the axes whose extent / h rounds
    below the cell count."""
    s1, s2 = _strides(grid)
    cells = np.array(grid.config.cells)[:, None]
    offsets = np.array([d1 * s1 + d2 * s2 + d3 for d1 in (0, 1) for d2 in (0, 1) for d3 in (0, 1)])
    ext = np.array(grid.config.extents)[:, None]
    h = np.array(grid.h)[:, None]
    return (
        ext,
        h,
        cells.astype(float),
        cells - 1,
        offsets[:, None],
        tuple(np.flatnonzero(ext / h < cells)),
    )


def _locate(grid: Grid, pos: np.ndarray) -> _Stencil:
    """Stencil of (3, N) positions.  The far end of an axis sits at cell
    coordinate n exactly, also where extent / h rounds below n."""
    ext, h, n, last, _, short = _lattice(grid)
    p = np.clip(pos, 0.0, ext)
    t = p / h
    for a in short:
        np.copyto(t[a], n[a], where=p[a] == ext[a])
    np.clip(t, 0.0, n, out=t)
    i0 = np.minimum(t.astype(np.intp), last)
    lohi = np.empty((2, *t.shape))  # low and high weight along each axis
    hi = np.subtract(t, i0, out=lohi[1])
    np.subtract(1.0, hi, out=lohi[0])
    s1, s2 = _strides(grid)
    base = i0[0] * s1 + i0[1] * s2 + i0[2]
    wa, wb, wc = lohi.transpose(1, 0, 2)
    weights = ((wa[:, None, :] * wb[None, :, :])[:, :, None, :] * wc[None, None, :, :])
    return _Stencil(base, weights.reshape(8, -1))


def _sample(flat: np.ndarray, grid: Grid, st: _Stencil) -> np.ndarray:
    """Interpolate the rows of a (C, n_nodes) array through a stencil.

    The weighted corners are summed one after another, elementwise, so a
    point's value does not depend on how many points are sampled with it.
    One corner is gathered at a time, which keeps the temporaries small.
    """
    offsets = _lattice(grid)[4][:, 0]
    out = np.take(flat, st.base + offsets[0], axis=1) * st.weights[0]
    for off, w in zip(offsets[1:], st.weights[1:]):
        term = np.take(flat, st.base + off, axis=1)
        term *= w
        out += term
    return out


def _bilinear_inflow(grid: Grid, arrivals: np.ndarray):
    """Inflow-plane flat indices (N, 4) and bilinear weights (N, 4) at the
    (3, N) arrival points of N traces, columns (j,k), (j+1,k), (j,k+1),
    (j+1,k+1).  The arrivals lie on x1 = 0 exactly, where the stencil's
    low x1 weight is 1: the d1 = 0 corners carry the bilinear weights and
    their flat indices are the inflow plane's.  An arrival on a node,
    the last ones included, reads that node's trace with weight 1."""
    st = _locate(grid, arrivals)
    s2 = _strides(grid)[1]
    idx = st.base[:, None] + np.array([0, s2, 1, s2 + 1])
    w = np.stack([st.weights[0], st.weights[2], st.weights[1], st.weights[3]], axis=1)
    return idx, w


# ---------------------------------------------------------------------------
# backward tracing

_RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)
_LANDING_TOL = 1e-13  # |x1| at the landing point, relative to the step ds
_LANDING_MAX_ITER = 50
_BLOCK = 4096  # node seeds traced together to completion


def _clamp(grid: Grid, pos: np.ndarray) -> np.ndarray:
    return np.clip(pos, 0.0, _lattice(grid)[0], out=pos)


def _rk4_step(grid: Grid, stack: np.ndarray, pos: np.ndarray, s, on_stage=None):
    """One backward RK4 step of size s (scalar or per point) from (3, N)
    positions.

    stack holds the advecting velocity as rows 0-2 of a (C, n_nodes) array,
    optionally followed by a payload row; each stage point is located once
    and both are sampled through that stencil.  on_stage(weight, stencil),
    if given, sees every stage with its RK4 weight.  Returns the new
    positions and the payload quadrature over the step (None without a
    payload).
    """
    s = np.asarray(s, dtype=float)
    total = pay_total = slope = None
    # k1 + 2 k2 + 2 k3 + k4 is summed in that order as the stages go, so
    # only one stage's values are held at a time
    for frac, weight in zip((0.0, 0.5, 0.5, 1.0), _RK4_WEIGHTS):
        p = pos if slope is None else pos + frac * s * slope
        st = _locate(grid, p)
        vals = _sample(stack, grid, st)
        slope = -vals[:3]
        pay = vals[3] if stack.shape[0] > 3 else None
        if total is None:
            total, pay_total = slope, pay
        else:
            total = total + weight * slope
            if pay is not None:
                pay_total = pay_total + weight * pay
        if on_stage is not None:
            on_stage(weight, st)
    new = pos + (s / 6.0) * total
    inc = None if pay_total is None else (s / 6.0) * pay_total
    return new, inc


def _landing_step(grid: Grid, stack: np.ndarray, pos: np.ndarray, ds: float, x1_full: np.ndarray):
    """Step sizes in (0, ds] that land each trace on x1 = 0.

    x1_full is the (non-positive) axial position after a full step.  The
    root of x1(s) on the bracket [0, ds] is found by the Illinois variant
    of regula falsi, which keeps the bracket and converges superlinearly.
    Each trace stops at its own first iterate with |x1| <= tol, so its
    result does not depend on which traces are landed with it.
    """
    s = np.full(pos.shape[1], ds)
    live = np.arange(pos.shape[1])
    lo = np.zeros(live.size)
    f_lo = pos[0].copy()
    hi = s.copy()
    f_hi = np.array(x1_full, dtype=float)
    last = np.zeros(live.size, dtype=np.int8)
    tol = _LANDING_TOL * ds
    for _ in range(_LANDING_MAX_ITER):
        trial = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        s[live] = trial
        f = _rk4_step(grid, stack, pos, trial)[0][0]
        keep = np.abs(f) > tol
        if not np.any(keep):
            break
        live, pos, trial, f = live[keep], pos[:, keep], trial[keep], f[keep]
        lo, hi, f_lo, f_hi, last = lo[keep], hi[keep], f_lo[keep], f_hi[keep], last[keep]
        over = f <= 0.0
        # Illinois: halve the stale end's value when one end is kept twice
        f_lo = np.where(over, np.where(last < 0, 0.5 * f_lo, f_lo), f)
        f_hi = np.where(over, f, np.where(last > 0, 0.5 * f_hi, f_hi))
        lo = np.where(over, lo, trial)
        hi = np.where(over, trial, hi)
        last = np.where(over, -1, 1).astype(np.int8)
    return s


def _trace(grid: Grid, stack: np.ndarray, seeds: np.ndarray, first: int = 0, recorder=None):
    """Trace one block of seeds, the columns of a (3, N) array, backward to
    the inflow plane.

    stack is the advecting velocity with an optional payload row, as
    _rk4_step takes it.  Returns (arrivals, integral) arrays; the arrivals
    are seeds itself, overwritten.  Full steps of size ds are
    taken until a step would cross x1 = 0; once every trace of the block
    has reached that step, one shortened last step each (_landing_step)
    lands them on x1 = 0 exactly.  Every trace's arithmetic is its own, so
    the results do not depend on how the seeds are split into blocks.

    first is the global node index of the first seed, for the message of
    a stalled trace.  A recorder, if given, is reset to the block by
    recorder.begin(first, N) and sees every stage of every step a trace
    keeps, in order, through recorder.stage(rows, s, weight, stencil) once
    the step is done (rows local to the block), and recorder.close(rows)
    once those traces have landed.
    """
    ds = min(grid.h) / 2.0
    max_steps = int(np.ceil(8.0 * grid.config.length / ds)) + 1
    pos = seeds
    n = pos.shape[1]
    integral = np.zeros(n)
    if recorder is not None:
        recorder.begin(first, n)
    ai = np.flatnonzero(pos[0] > 0.0)
    crossed = []  # (rows, position before the crossing step, x1 after it)
    for _ in range(max_steps):
        if ai.size == 0:
            break
        stages = []
        on_stage = None if recorder is None else lambda weight, st: stages.append((weight, st))
        new, inc = _rk4_step(grid, stack, pos[:, ai], ds, on_stage)
        crossing = new[0] <= 0.0
        if np.any(crossing):
            done = ai[crossing]
            crossed.append((done, pos[:, done], new[0, crossing]))
            cont = ~crossing
            ai, new = ai[cont], new[:, cont]
            inc = None if inc is None else inc[cont]
            stages = [(weight, st.subset(cont)) for weight, st in stages]
        # a crossing trace records its shortened last step when it lands
        for weight, st in stages:
            recorder.stage(ai, ds, weight, st)
        pos[:, ai] = _clamp(grid, new)
        if inc is not None:
            integral[ai] += inc

    if ai.size:
        bad = int(ai[0])
        raise RuntimeError(
            f"characteristic {first + bad} stalled after {max_steps} steps "
            f"at {tuple(float(c) for c in pos[:, bad])}"
        )
    if crossed:
        done = np.concatenate([d for d, _, _ in crossed])
        start = np.concatenate([p for _, p, _ in crossed], axis=1)
        s_fin = _landing_step(grid, stack, start, ds, np.concatenate([x for _, _, x in crossed]))
        on_stage = None if recorder is None else lambda weight, st: recorder.stage(done, s_fin, weight, st)
        fin, inc = _rk4_step(grid, stack, start, s_fin, on_stage)
        fin[0] = 0.0
        pos[:, done] = _clamp(grid, fin)
        if inc is not None:
            integral[done] += inc
        if recorder is not None:
            recorder.close(done)
    return pos, integral


# ---------------------------------------------------------------------------
# the inflow-traced solution operator

def _stack(tf: TransportField, payload: np.ndarray | None = None) -> np.ndarray:
    """The advecting velocity as a (3, n_nodes) array, followed by the
    payload as a fourth row if one is given."""
    stack = tf.values.reshape(3, -1)
    if payload is None:
        return stack
    return np.concatenate([stack, payload.reshape(1, -1)])


def _blocks(n_nodes: int) -> list[tuple[int, int]]:
    """Flat-index ranges [lo, hi) of the node blocks traced together."""
    return [(lo, min(lo + _BLOCK, n_nodes)) for lo in range(0, n_nodes, _BLOCK)]


def _block_seeds(grid: Grid, lo: int, hi: int) -> np.ndarray:
    """(3, hi - lo) positions of the nodes with flat indices lo..hi-1."""
    s1, s2 = _strides(grid)
    i, rest = np.divmod(np.arange(lo, hi), s1)
    j, k = np.divmod(rest, s2)
    return np.stack([grid.axes[0][i], grid.axes[1][j], grid.axes[2][k]])


def _workers(n_blocks: int) -> int:
    """Threads for n_blocks independent blocks: one per CPU this process
    may run on, and no more than there are blocks."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def _check_trace(grid: Grid, w_in: np.ndarray) -> np.ndarray:
    w_in = np.asarray(w_in, dtype=float)
    if w_in.shape != (grid.shape[1], grid.shape[2]):
        raise ValueError(f"inflow trace shape {w_in.shape} != {(grid.shape[1], grid.shape[2])}")
    return w_in


def apply_S(tf: TransportField, v: ScalarField, w_in: np.ndarray) -> ScalarField:
    """Solve u~.grad(w) = v with trace w_in on the inflow plane.

    Every node is traced back to x1 = 0; the value is the bilinearly
    interpolated trace at the arrival point plus the path integral of v.
    The node blocks are traced on a thread pool, one thread per CPU in the
    process's affinity mask, each writing its own slice of the result;
    the result is the same for any number of threads.  A field that
    carries its footprint is not traced again.
    """
    if tf.footprint is not None:
        return tf.footprint.apply(v, w_in)
    g = tf.grid
    trace = _check_trace(g, w_in).reshape(-1)
    stack = _stack(tf, v.values)
    out = np.empty(g.n_nodes)

    def block(span: tuple[int, int]) -> None:
        lo, hi = span
        arr, integral = _trace(g, stack, _block_seeds(g, lo, hi), lo)
        idx, w = _bilinear_inflow(g, arr)
        out[lo:hi] = np.sum(w * trace[idx], axis=1) + integral

    blocks = _blocks(g.n_nodes)
    workers = _workers(len(blocks))
    if workers == 1:
        for span in blocks:
            block(span)
    else:
        with ThreadPoolExecutor(workers) as ex:
            # results come in block order, so the first failure in node
            # order is the one raised
            for _ in ex.map(block, blocks):
                pass
    return ScalarField(g, out.reshape(g.shape))


def _mapped_chunk(size: int, width: int):
    """Row, base and (width, size) weight arrays in one anonymous mapping.
    Pages cost memory only once written, and the whole chunk goes back to
    the operating system when its arrays are released, instead of staying
    behind in the allocator's heap."""
    buf = mmap.mmap(-1, size * (8 + 8 * width))
    rows = np.frombuffer(buf, np.int32, size, 0)
    bases = np.frombuffer(buf, np.int32, size, 4 * size)
    weights = np.frombuffer(buf, np.float64, width * size, 8 * size).reshape(width, size)
    return rows, bases, weights


class _GroupChunks:
    """Groups of weights at fixed node offsets from a base node, written
    in arrival order into chunks: row, base and one weight per offset."""

    CHUNK = 1 << 18

    def __init__(self, offsets: tuple[int, ...]):
        self.offsets = offsets
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.fill = self.CHUNK

    def append(self, rows: np.ndarray, bases: np.ndarray, weights: np.ndarray) -> None:
        done = 0
        while done < rows.size:
            if self.fill == self.CHUNK:
                self.chunks.append(_mapped_chunk(self.CHUNK, len(self.offsets)))
                self.fill = 0
            take = min(rows.size - done, self.CHUNK - self.fill)
            r, b, w = self.chunks[-1]
            end = self.fill + take
            r[self.fill:end] = rows[done:done + take]
            b[self.fill:end] = bases[done:done + take]
            w[:, self.fill:end] = weights[:, done:done + take]
            self.fill = end
            done += take

    def terms(self, n_nodes: int):
        """(offset, matrix) pairs; each matrix acts on the node array
        shifted by its offset."""
        n_cols = n_nodes - max(self.offsets)
        for i, (r, b, w) in enumerate(self.chunks):
            used = self.fill if i == len(self.chunks) - 1 else self.CHUNK
            for off, wq in zip(self.offsets, w):
                yield off, sparse.coo_matrix((wq[:used], (r[:used], b[:used])), shape=(n_nodes, n_cols))


class _SourceRecorder:
    """Accumulates the source part of the footprint as traces step.

    Each trace keeps the corner weights of the cell it is in: a low and a
    high x1-plane group of four, one per corner of a cell face.  Stage
    points in the same cell add to them.  When a trace moves one cell down
    in x1 the high group is final and is emitted, the low group becoming
    the new high one; any other move emits both.  A step's stages are
    recorded once the step is done and only for the traces it kept, so a
    trace sees the stages of every step it takes in order, and its
    shortened last step when it lands.  Every emitted group with a nonzero
    weight is stored as four weights.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        s2 = _strides(grid)[1]
        self.quads = _GroupChunks((0, 1, s2, s2 + 1))  # (d2, d3) corners of a cell face

    def begin(self, first: int, n: int) -> None:
        """Start a block of n traces, the nodes first..first+n-1; rows are
        local to the block from here on."""
        self.first = first
        self.cell = np.full(n, -1, dtype=np.intp)
        self.slots = np.zeros((8, n))

    def stage(self, rows: np.ndarray, s, weight: float, st: _Stencil) -> None:
        """Add one RK4 stage of a step of size s taken by the given rows."""
        s1 = _strides(self.grid)[0]
        slots = self.slots
        old = self.cell.take(rows)
        moved = st.base != old
        if np.any(moved):
            r, b, o = rows[moved], st.base[moved], old[moved]
            down = b == o - s1
            rd, od, rf, of = r[down], o[down], r[~down], o[~down]
            self._emit(
                np.concatenate([rd, rf, rf]),
                np.concatenate([od + s1, of, of + s1]),
                np.concatenate([slots[4:, rd], slots[:4, rf], slots[4:, rf]], axis=1),
            )
            slots[4:, rd] = slots[:4, rd]
            slots[:4, rd] = 0.0
            slots[:, rf] = 0.0
            self.cell[r] = b
        coef = (s / 6.0) * weight
        for row, w in zip(slots, st.weights):
            row[rows] = row.take(rows) + coef * w

    def close(self, rows: np.ndarray) -> None:
        """Emit what the given (landed) traces still hold."""
        cells = self.cell[rows]
        self._emit(
            np.concatenate([rows, rows]),
            np.concatenate([cells, cells + _strides(self.grid)[0]]),
            np.concatenate([self.slots[:4, rows], self.slots[4:, rows]], axis=1),
        )
        self.cell[rows] = -1

    def _emit(self, rows: np.ndarray, bases: np.ndarray, vals: np.ndarray) -> None:
        """Store groups: row, corner (j0, k0) base and the (4, n) face
        weights.  All-zero groups are dropped; among them are the empty
        groups of a fresh trace's first move, whose base (cell -1) is no
        node."""
        keep = np.any(vals != 0.0, axis=0)
        self.quads.append(rows[keep] + self.first, bases[keep], vals[:, keep])

    def finish(self) -> "FootprintSource":
        n = self.grid.n_nodes
        return FootprintSource(n, tuple(self.quads.terms(n)))


@dataclass(frozen=True, eq=False)
class FootprintSource:
    """The source part of apply_S for one advecting field, as a linear map
    on flattened node arrays: the trilinear weights of every RK4 stage
    point times the step quadrature, four to a cell face.  For each corner
    offset of a face one sparse matrix acts on v shifted by that offset;
    the products sum to the result."""

    n_nodes: int
    terms: tuple[tuple[int, sparse.coo_matrix], ...]  # (offset, matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_nodes)
        for off, mat in self.terms:
            out += mat @ v[off:off + mat.shape[1]]
        return out


@dataclass(frozen=True, eq=False)
class TransportFootprint:
    """apply_S for one advecting field, recorded as sparse matrices.

    With the field fixed, apply_S is affine in (source, inflow trace):
    w = inflow @ w_in + source.apply(v) on flattened arrays, where inflow
    holds the bilinear weights at every node's arrival point.
    """

    grid: Grid
    inflow: sparse.csr_matrix
    source: FootprintSource

    def apply(self, v: ScalarField, w_in: np.ndarray) -> ScalarField:
        """Same result as apply_S(tf, v, w_in) for the recorded field."""
        g = self.grid
        w_in = _check_trace(g, w_in)
        vals = self.inflow @ w_in.reshape(-1) + self.source.apply(v.values.reshape(-1))
        return ScalarField(g, vals.reshape(g.shape))


def transport_footprint(tf: TransportField) -> TransportFootprint:
    """Trace every node once and record apply_S as sparse matrices.

    The node blocks are traced one after another through one recorder,
    with the same kernel as apply_S on a bare field.
    """
    g = tf.grid
    n = g.n_nodes
    stack = _stack(tf)
    recorder = _SourceRecorder(g)
    idx = np.empty((n, 4), dtype=np.int32)
    w = np.empty((n, 4))
    for lo, hi in _blocks(n):
        arr = _trace(g, stack, _block_seeds(g, lo, hi), lo, recorder)[0]
        idx[lo:hi], w[lo:hi] = _bilinear_inflow(g, arr)
    source = recorder.finish()
    inflow = sparse.csr_matrix(
        (w.reshape(-1), idx.reshape(-1), np.arange(0, 4 * n + 1, 4, dtype=np.int32)),
        shape=(n, g.shape[1] * g.shape[2]),
    )
    return TransportFootprint(g, inflow, source)


def upwind_march(tf: TransportField, v: ScalarField, w_in: np.ndarray) -> ScalarField:
    """Independent slice-marching solve of u~.grad(w) = v.

    Treats x1 as the marching direction with explicit first-order steps
    and donor-cell upwinding of the transverse derivatives.  Kept free of
    any characteristic-tracing code on purpose.
    """
    g = tf.grid
    w_in = _check_trace(g, w_in)
    h1, h2, h3 = g.h
    u1, u2, u3 = tf.values
    cfl = float(np.max(np.abs(tf.values[1:]))) * h1 / (float(np.min(u1)) * min(h2, h3))
    if cfl > 1.0 + 1e-12:
        raise ValueError(
            f"transverse CFL number {cfl:.3g} exceeds 1 for the slice march; refine n1"
        )

    def upwind(slab: np.ndarray, speed: np.ndarray, h: float, axis: int) -> np.ndarray:
        back = np.zeros_like(slab)
        fwd = np.zeros_like(slab)
        sl_b = [slice(None)] * 2
        sl_b[axis] = slice(1, None)
        sl_bm = [slice(None)] * 2
        sl_bm[axis] = slice(None, -1)
        back[tuple(sl_b)] = (slab[tuple(sl_b)] - slab[tuple(sl_bm)]) / h
        fwd[tuple(sl_bm)] = back[tuple(sl_b)]
        return np.where(speed > 0.0, back, fwd)

    out = np.empty(g.shape)
    out[0] = w_in
    for i in range(g.shape[0] - 1):
        slab = out[i]
        rhs = (
            v.values[i]
            - u2[i] * upwind(slab, u2[i], h2, 0)
            - u3[i] * upwind(slab, u3[i], h3, 1)
        ) / u1[i]
        out[i + 1] = slab + h1 * rhs
    return ScalarField(g, out)


# ---------------------------------------------------------------------------
# volume distortion of the characteristic flow

def jacobian_bound(tf: TransportField) -> float:
    """Estimate sup |J - 1| of the inflow-seeded characteristic map.

    Seeds the whole inflow plane, marches forward with fixed steps, and at
    every step evaluates J = det[u~(x), dx/dz2, dx/dz3] by central
    differences across neighboring traces.  Samples are discarded once any
    trace in the stencil has left through the outflow plane.
    """
    g = tf.grid
    ds = min(g.h) / 2.0
    length = g.config.length
    max_steps = int(np.ceil(8.0 * length / ds)) + 1
    h2, h3 = g.h[1], g.h[2]
    flat = tf.values.reshape(3, -1)

    n2, n3 = g.shape[1], g.shape[2]
    z2, z3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
    pos = np.stack([np.zeros_like(z2).ravel(), z2.ravel(), z3.ravel()], axis=1)
    exited = np.zeros(n2 * n3, dtype=bool)

    def det_samples(p: np.ndarray, ex: np.ndarray) -> float:
        grid3 = p.reshape(n2, n3, 3)
        ex2 = ex.reshape(n2, n3)
        ok = ~(
            ex2[1:-1, 1:-1]
            | ex2[:-2, 1:-1]
            | ex2[2:, 1:-1]
            | ex2[1:-1, :-2]
            | ex2[1:-1, 2:]
        )
        if not np.any(ok):
            return 0.0
        centers = grid3[1:-1, 1:-1].reshape(-1, 3)
        c1 = _sample(flat, g, _locate(g, centers.T)).T.reshape(n2 - 2, n3 - 2, 3)
        c2 = (grid3[2:, 1:-1] - grid3[:-2, 1:-1]) / (2.0 * h2)
        c3 = (grid3[1:-1, 2:] - grid3[1:-1, :-2]) / (2.0 * h3)
        det = (
            c1[..., 0] * (c2[..., 1] * c3[..., 2] - c2[..., 2] * c3[..., 1])
            - c2[..., 0] * (c1[..., 1] * c3[..., 2] - c1[..., 2] * c3[..., 1])
            + c3[..., 0] * (c1[..., 1] * c2[..., 2] - c1[..., 2] * c2[..., 1])
        )
        return float(np.max(np.abs(det - 1.0)[ok]))

    worst = det_samples(pos, exited)
    for _ in range(max_steps):
        live = np.flatnonzero(~exited)
        if live.size == 0:
            break
        stepped = _rk4_step(g, flat, pos[live].T, -ds)[0].T  # negative s: forward flow
        pos[live] = stepped
        exited[live] = stepped[:, 0] >= length - 1e-12
        pos[:, 1] = np.clip(pos[:, 1], 0.0, g.config.width2)
        pos[:, 2] = np.clip(pos[:, 2], 0.0, g.config.width3)
        worst = max(worst, det_samples(pos, exited))
    return worst
