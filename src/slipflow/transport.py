"""Steady transport along characteristics of the augmented axial flow.

The continuity update is solved in Lagrangian form: every node is traced
backward along d(X)/ds = -u~(X) until it arrives at the inflow plane, carrying
the path integral of the source as an augmented ODE state.  A TransportField
is rejected unless the axial component of u~ is at least 1/2 everywhere, so
every step lowers x1 by at least half its size and every characteristic
arrives at x1 = 0 in travel parameter at most 2L.

For one advecting field the solve is affine in (source, inflow trace).
transport_footprint traces every node once and records it as sparse
matrices, so that a linear step can apply it many times through one set
of traces.  apply_S on a field that carries its footprint applies it; on a
bare field, as make_transport_field returns it, apply_S traces afresh and
builds nothing.

Both run one kernel, _trace, on blocks of consecutive nodes, the fewest
of at most _BLOCK = 16384 nodes, equal in size to within one: a block
takes full RK4 steps until each of its traces is about to cross x1 = 0,
then lands them all in one last RK4 step taken in x1 instead of s
(dX/dx1 = u~/u~1, integrand v/u~1) over each trace's remaining x1, whose
stage points sit at x1, x1/2, x1/2 and 0.  There is no root solve.
No trace's arithmetic depends on the others in its block, so each
trace's arrival and path integral are bit-identical for any block size
and any number of workers.  A block allocates its work arrays once (a
_Kernel) and reuses them through every stage of every step, about 260
bytes per traced node at its peak.  apply_S on a bare field, with more
than one block and more than one CPU in the process's affinity mask
(there is no setting for it), traces the blocks on that many worker
processes started by fork, last block first: a trace costs more the
further from the inflow plane it starts and the blocks run x1 slowest,
so the cheap blocks fill in at the end.  The workers inherit the fields
at the fork, each block sends back only its slice of the result, and
the workers are joined before the call returns or raises; their work
arrays are held by the workers, not by the calling process.  Otherwise
the blocks are traced one after another in the calling process.  A
footprint build always traces its blocks in turn in the calling
process, all into one recorder: groups recorded on workers would come
back copied and be held twice by the caller.  The recording kernel
keeps the four stage stencils of the step just taken, allocated once,
until the step shows which traces cross x1 = 0, and the recorder keeps
each trace's state in that trace's slot, so a stage adds to it in
place; a build holds about 680 bytes per node of the block at its peak.

An independent slice-marching discretization (upwind_march) of the same
equation is kept deliberately separate as a cross-check.
"""
from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .grid import Grid
from .fields import ScalarField


@dataclass(frozen=True, eq=False)
class TransportField:
    """Full advecting velocity u~ = e1 + (ubar + u0) on the nodes, (3, n1+1,
    n2+1, n3+1).  footprint, if recorded for these values, is what apply_S
    applies instead of tracing.

    Construction rejects values of another shape, non-finite values and
    an axial speed below 1/2 anywhere: sampled trilinearly, u~1 then
    stays at least 1/2 along every trace, so no characteristic can fail
    to reach the inflow plane.
    """

    grid: Grid
    values: np.ndarray
    footprint: TransportFootprint | None = None

    def __post_init__(self):
        velocity = self.values
        if np.shape(velocity) != (3, *self.grid.shape):
            raise ValueError(f"transport velocity shape {np.shape(velocity)} != (3, *{self.grid.shape})")
        if not np.all(np.isfinite(velocity)):
            raise ValueError("transport velocity contains non-finite values")
        ax_min = float(np.min(velocity[0]))
        if ax_min < 0.5:
            raise ValueError(
                f"axial transport speed fell to {ax_min:.6g} < 1/2; "
                "forward progress of characteristics is lost"
            )

    # the smallness certificate
    @property
    def sup_axial_dev(self) -> float:
        """sup of |u~1 - 1|."""
        return float(np.max(np.abs(self.values[0] - 1.0)))

    @property
    def wall_trace_defect(self) -> float:
        """The largest wall-normal trace leak."""
        v = self.values
        return max(float(np.max(np.abs(face))) for face in (
            v[1][:, 0, :], v[1][:, -1, :], v[2][:, :, 0], v[2][:, :, -1]))


def make_transport_field(grid: Grid, velocity: np.ndarray) -> TransportField:
    """Validate a full advecting velocity array (see TransportField)."""
    return TransportField(grid, np.asarray(velocity, dtype=float))


# ---------------------------------------------------------------------------
# interpolation

def _strides(grid: Grid) -> tuple[int, int]:
    """Flat-index strides of the x1 and x2 axes (x3 has stride 1)."""
    return grid.shape[1] * grid.shape[2], grid.shape[2]


@lru_cache(maxsize=32)
def _lattice(grid: Grid, axes: tuple[int, ...] = (0, 1, 2)):
    """Columns for locating (len(axes), m) coordinates on the given axes:
    extents, spacings, cell counts and last cell indices as columns, the
    flat-index stride of each axis, and the rows whose extent / h rounds
    below the cell count."""
    s1, s2 = _strides(grid)
    cells = np.array([grid.config.cells[a] for a in axes])
    ext = np.array([grid.config.extents[a] for a in axes])
    h = np.array([grid.h[a] for a in axes])
    return (
        ext[:, None],
        h[:, None],
        cells[:, None].astype(float),
        cells[:, None] - 1,
        np.array([(s1, s2, 1)[a] for a in axes], dtype=np.int64),
        tuple(np.flatnonzero(ext / h < cells)),
    )


def _locate(grid: Grid, p: np.ndarray, base: np.ndarray, lo: np.ndarray,
            axes: tuple[int, ...] = (0, 1, 2)) -> None:
    """Locate (k, m) coordinates on k axes of the lattice, in place.

    p is clamped to the closed duct and becomes the high weight of each
    point along each axis, lo the low weight 1 - high and base the flat
    index of each cell's low corner.  The far end of an axis sits at cell
    coordinate n exactly, also where extent / h rounds below n.
    """
    ext, h, n, last, strides, short = _lattice(grid, axes)
    np.clip(p, 0.0, ext, out=p)
    at_end = [(a, p[a] == ext[a]) for a in short]
    np.divide(p, h, out=p)
    for a, where in at_end:
        np.copyto(p[a], n[a], where=where)
    np.clip(p, 0.0, n, out=p)
    # lo's storage holds the cell indices until the weights are formed
    cell = lo.view(np.int64)
    np.copyto(cell, p, casting="unsafe")  # truncates, as astype does
    np.minimum(cell, last, out=cell)
    np.subtract(p, cell, out=p)
    np.dot(strides, cell, out=base)
    np.subtract(1.0, p, out=lo)


def _corners(lo: np.ndarray, hi: np.ndarray, strides, pair: np.ndarray, outs):
    """(offset, weight) of the 8 corners of each point's cell, d1 slowest
    and d3 fastest, from the (3, m) low and high weights.  Each weight is
    formed as (w_a w_b) w_c into the next of the 8 arrays outs, through the
    work array pair."""
    s1, s2 = int(strides[0]), int(strides[1])
    outs = iter(outs)
    for o1, wa in ((0, lo[0]), (s1, hi[0])):
        for o2, wb in ((0, lo[1]), (s2, hi[1])):
            ab = np.multiply(wa, wb, out=pair)
            for o3, wc in ((0, lo[2]), (1, hi[2])):
                yield o1 + o2 + o3, np.multiply(ab, wc, out=next(outs))


# ---------------------------------------------------------------------------
# backward tracing

_RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)
_BLOCK = 16384  # node seeds traced together to completion


class _Kernel:
    """Trilinear sampling and backward RK4 steps through one advecting field.

    The (3, n_nodes) velocity and an optional (n_nodes,) payload are read
    in place.  The work arrays are allocated once, for up to size points,
    and reused by every stage of every step, so a kernel serves one block
    at a time.  The arrays its methods return are views of that work
    space, valid until the next call.  A kernel made with record keeps
    the stencils of the four stages of its last recorded step, also
    allocated once: stage_base, the flat index of each stage point's cell
    low corner, and stage_weights, its 8 corner weights in _corners order.
    """

    def __init__(self, grid: Grid, velocity: np.ndarray, payload: np.ndarray | None, size: int,
                 record: bool = False):
        self.grid = grid
        self.velocity = velocity.reshape(3, -1)
        self.payload = None if payload is None else payload.reshape(1, -1)
        rows = 3 if payload is None else 4
        self._p = np.empty(3 * size)  # stage points, then their high weights
        self._lo = np.empty(3 * size)
        self._idx = np.empty(size, dtype=np.intp)
        self._pair = np.empty(size)
        self._w = np.empty(size)
        self._vals = np.empty(rows * size)
        self._term = np.empty(rows * size)
        self._total = np.empty(rows * size)
        if record:
            self.stage_base = np.empty((4, size), dtype=np.int32)
            self.stage_weights = np.empty((4, 8, size))

    def _sample_p(self, m: int, rows: int, out: np.ndarray | None = None,
                  stage: int | None = None) -> np.ndarray:
        """Interpolate the first rows fields (velocity, then payload) at the
        m points held in _p, which then holds their high weights.

        The weighted corners are summed one after another, elementwise, so
        a point's value does not depend on how many points are sampled
        with it.  With a stage number the points' stencil is kept as that
        stage's.
        """
        p = self._p[:3 * m].reshape(3, m)
        lo = self._lo[:3 * m].reshape(3, m)
        idx = self._idx[:m]
        _locate(self.grid, p, idx, lo)
        if stage is None:
            outs = (self._w[:m],) * 8
        else:
            np.copyto(self.stage_base[stage, :m], idx, casting="unsafe")
            outs = self.stage_weights[stage, :, :m]
        vals = self._vals[:rows * m].reshape(rows, m) if out is None else out
        term = self._term[:rows * m].reshape(rows, m)
        dst = vals
        last = 0
        for off, w in _corners(lo, p, _lattice(self.grid)[4], self._pair[:m], outs):
            if off != last:  # each corner's index, stepped from the cell base
                np.add(idx, off - last, out=idx)
                last = off
            np.take(self.velocity, idx, axis=1, out=dst[:3], mode="clip")
            if rows == 4:
                np.take(self.payload, idx, axis=1, out=dst[3:], mode="clip")
            dst *= w
            if dst is term:
                vals += term
            dst = term
        return vals

    def rk4(self, pos: np.ndarray, s, payload: bool = False, record: bool = False,
            axial: bool = False):
        """One backward RK4 step of size s (scalar or per point) from the
        (3, m) positions pos, which are only read.

        Returns the new positions and, with payload, the payload's
        quadrature over the step (else None), both work arrays.  Each
        stage point is located once and every field is sampled through
        that stencil; with record, the stencils are kept as the step's
        stages (see stages).  With axial, s is a length in x1 and the step
        is taken in x1, of dX/dx1 = u~/u~1 with integrand payload/u~1:
        every sampled row is divided by the sampled u~1, the recorded
        stage weights too, and the x1 slope is exactly 1.
        """
        m = pos.shape[1]
        rows = 4 if payload else 3
        p = self._p[:3 * m].reshape(3, m)
        total = self._total[:rows * m].reshape(rows, m)
        # per-point fractions of s go to _w, free between stages
        frac_out = self._w[:m] if np.ndim(s) else None
        # k1 + 2 k2 + 2 k3 + k4 is summed in that order as the stages go.
        # The sampled velocity is minus the backward slope, so every
        # position subtracts it.
        np.copyto(p, pos)
        for stage, weight in enumerate(_RK4_WEIGHTS):
            vals = self._sample_p(m, rows, total if stage == 0 else None, stage if record else None)
            if axial:
                if record:
                    self.stage_weights[stage, :, :m] /= vals[0]
                np.divide(vals[1:], vals[0], out=vals[1:])
                vals[0] = 1.0
            if stage < 3:  # the next stage point, half, half and a full step on
                np.multiply(vals[:3], s if stage == 2 else np.multiply(0.5, s, out=frac_out), out=p)
                np.subtract(pos, p, out=p)
            if stage > 0:
                if weight != 1.0:
                    vals *= weight
                total += vals
        sixth = np.divide(s, 6.0, out=frac_out)
        np.multiply(total[:3], sixth, out=p)
        np.subtract(pos, p, out=p)
        inc = np.multiply(total[3], sixth, out=total[3]) if payload else None
        return p, inc

    def stages(self, m: int):
        """The (4, m) bases and (4, 8, m) corner weights of the last
        recorded step's m points, as work arrays."""
        return self.stage_base[:, :m], self.stage_weights[:, :, :m]


def _trace(kern: _Kernel, seeds: np.ndarray, first: int = 0, recorder=None):
    """Trace one block of seeds, the columns of a (3, N) array, backward to
    the inflow plane through kern, integrating its payload if it has one.

    Returns (arrivals, integral) arrays; the arrivals are seeds itself,
    overwritten.  Full steps of size ds are taken until a step would cross
    x1 = 0; as u~1 >= 1/2, each lowers x1 by at least ds/2.  Once every
    trace of the block has reached that step, one RK4 step in x1 each
    (kern.rk4 with axial), over the trace's remaining x1, lands them all
    on x1 = 0 exactly.  Every trace's arithmetic is its own, so the
    results do not depend on how the seeds are split into blocks.

    first is the global node index of the first seed.  A recorder, if
    given, keeps its per-trace state in the traces' slots (below) and
    reads each step's stage stencils from kern, which must record.
    recorder.begin(first, m) starts the m traced seeds in slots 0..m-1, in
    node order.  After each step, recorder.step(rows[:m], ds,
    *kern.stages(m), skip=hit) adds its four stages for every trace but
    those in the slots hit, which cross x1 = 0 on it (rows are local to
    the block), and on a crossing step recorder.move(order) then reorders
    the slots exactly as the step reorders them here.  Once the block has
    landed, recorder.land(n) turns the slots to crossing order, the order
    of done, in which the landing step is taken, and recorder.step(done,
    x1, ...) and recorder.close(done) record that step, whose stage
    weights the kernel has divided by u~1, and emit what each trace still
    holds.
    """
    ds = min(kern.grid.h) / 2.0
    ext = _lattice(kern.grid)[0]
    payload = kern.payload is not None
    record = recorder is not None
    integral = np.zeros(seeds.shape[1])
    # One slot per traced seed: the m traces still stepping in front, in
    # node order, and behind them, last first, those whose next step would
    # cross x1 = 0, waiting for the block's landing step.  A slot holds a
    # row of the block, a position (before the crossing step for a waiting
    # trace) and the path integral so far.  The positions take the front of
    # seeds' own storage, as a (3, m) array and then (x1, x2, x3) triples,
    # and seeds receives the arrivals at the end.
    rows = np.flatnonzero(seeds[0] > 0.0)
    m = n = rows.size
    if record:
        recorder.begin(first, m)
    untraced = np.flatnonzero(seeds[0] <= 0.0)
    arrived = seeds[:, untraced]  # already on the inflow plane
    pos = seeds.reshape(-1)[:3 * m]
    cur = pos.reshape(3, m)
    if untraced.size:
        cur[...] = seeds[:, rows]
    held = np.zeros(m) if payload else None
    while m:
        new, inc = kern.rk4(cur, ds, payload, record)
        crossing = new[0] <= 0.0
        hit = np.flatnonzero(crossing)
        if record:  # a crossing trace records its landing step instead
            recorder.step(rows[:m], ds, *kern.stages(m), skip=hit)
        if hit.size:
            keep = np.flatnonzero(~crossing)
            order = np.concatenate((keep, hit[::-1]))
            rows[:m] = rows[order]
            waiting = cur[:, hit]
            if payload:
                held[:m] = held[order]
                inc = inc[keep]
            cur = pos[:3 * keep.size].reshape(3, -1)
            np.take(new, keep, axis=1, out=cur, mode="clip")
            new = cur
            pos.reshape(-1, 3)[keep.size:m] = waiting.T[::-1]
            m = keep.size
            if record:
                recorder.move(order)
        np.clip(new, 0.0, ext, out=cur)
        if payload:
            held[:m] += inc

    if n:
        done, start = rows[::-1], pos.reshape(-1, 3)[::-1].T  # in crossing order
        x1 = start[0]  # the step in x1 that lands each trace
        fin, inc = kern.rk4(start, x1, payload, record, axial=True)
        if record:
            recorder.land(n)
            recorder.step(done, x1, *kern.stages(n))
            recorder.close(done)
        fin[0] = 0.0
        seeds[:, done] = np.clip(fin, 0.0, ext, out=fin)
        if payload:
            integral[done] = held[::-1] + inc
    seeds[:, untraced] = arrived
    return seeds, integral


def _bilinear_inflow(kern: _Kernel, arrivals: np.ndarray):
    """Inflow-plane corners of the (3, m) arrival points of m traces.

    Returns the flat node index of each arrival's cell corner (j, k) and
    an iterator over the columns (j,k), (j+1,k), (j,k+1), (j+1,k+1) that
    gives each column's flat offset from that corner and its weight at
    every arrival (work arrays of kern, valid until the next column).  The
    arrivals lie on x1 = 0 exactly, where the trilinear low x1 weight is 1,
    so the corner (j + d2, k + d3) takes w_b w_c, bit for bit the trilinear
    (1 w_b) w_c, and its flat index is the inflow plane's.  An arrival on a
    node, the last ones included, reads that node's trace with weight 1.
    """
    m = arrivals.shape[1]
    hi = kern._p[:2 * m].reshape(2, m)
    lo = kern._lo[:2 * m].reshape(2, m)
    base, w = kern._idx[:m], kern._w[:m]
    np.copyto(hi, arrivals[1:])
    _locate(kern.grid, hi, base, lo, axes=(1, 2))
    s2 = _strides(kern.grid)[1]
    corners = ((d2 * s2 + d3, np.multiply((lo, hi)[d2][0], (lo, hi)[d3][1], out=w))
               for d2, d3 in ((0, 0), (1, 0), (0, 1), (1, 1)))
    return base, corners


# ---------------------------------------------------------------------------
# the inflow-traced solution operator

def _blocks(n_nodes: int) -> list[tuple[int, int]]:
    """Flat-index ranges [lo, hi) of the node blocks traced together: the
    fewest blocks of at most _BLOCK nodes, equal in size to within one."""
    count = -(-n_nodes // _BLOCK)
    cuts = [k * n_nodes // count for k in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _block_seeds(grid: Grid, lo: int, hi: int) -> np.ndarray:
    """(3, hi - lo) positions of the nodes with flat indices lo..hi-1."""
    s1, s2 = _strides(grid)
    i, rest = np.divmod(np.arange(lo, hi), s1)
    j, k = np.divmod(rest, s2)
    return np.stack([grid.axes[0][i], grid.axes[1][j], grid.axes[2][k]])


def _workers(n_blocks: int) -> int:
    """Worker processes for n_blocks independent blocks: one per CPU this
    process may run on, and no more than there are blocks.  1, which
    traces in the calling process, where the platform cannot fork and in
    a daemonic process (a multiprocessing.Pool worker, say), which may not
    start children."""
    if n_blocks == 1 or not hasattr(os, "fork"):
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


_worker_task = None  # in a worker, the block task its pool was started for


def _start_worker(task) -> None:
    """Pool initializer: runs in each worker as it starts."""
    global _worker_task
    _worker_task = task


def _run_in_worker(lo: int, hi: int) -> np.ndarray:
    return _worker_task(lo, hi)


def _check_trace(grid: Grid, w_in: np.ndarray) -> np.ndarray:
    w_in = np.asarray(w_in, dtype=float)
    if w_in.shape != (grid.shape[1], grid.shape[2]):
        raise ValueError(f"inflow trace shape {w_in.shape} != {(grid.shape[1], grid.shape[2])}")
    if not np.all(np.isfinite(w_in)):
        raise ValueError("inflow trace contains non-finite values")
    return w_in


def apply_S(tf: TransportField, v: ScalarField, w_in: np.ndarray) -> ScalarField:
    """Solve u~.grad(w) = v with trace w_in on the inflow plane.

    Every node is traced back to x1 = 0; the value is the bilinearly
    interpolated trace at the arrival point plus the path integral of v.
    A field that carries its footprint is not traced again.

    The node blocks are traced on worker processes, one per CPU in the
    process's affinity mask, or in the calling process where _workers
    gives one; the result is the same for any number of workers.  The
    pool's workers are started by fork and inherit the block task and
    everything it reads, so a block is sent as its (lo, hi) alone and
    sends back its slice of the result; spawned workers would import the
    package again and be sent the fields by pickle.  Forking after BLAS
    has started threads is safe here only because the block code never
    calls BLAS.  The costliest block, the last, goes first, and the
    results are read in block order, which raises the first failure in
    block order with its own type and message.  A worker that dies fails
    every block not yet returned with the pool's BrokenProcessPool, a
    RuntimeError.  The pool is shut down and its workers joined before
    apply_S returns or raises.
    """
    if tf.footprint is not None:
        return tf.footprint.apply(v, w_in)
    g = tf.grid
    trace = _check_trace(g, w_in).reshape(-1)

    def block(lo: int, hi: int) -> np.ndarray:
        kern = _Kernel(g, tf.values, v.values, hi - lo)
        arr, integral = _trace(kern, _block_seeds(g, lo, hi), lo)
        terms = kern._vals[:4 * (hi - lo)].reshape(-1, 4)  # free once traced
        base, corners = _bilinear_inflow(kern, arr)
        for c, (off, w) in enumerate(corners):
            np.multiply(w, trace[off:][base], out=terms[:, c])
        return np.add(np.sum(terms, axis=1), integral, out=integral)

    blocks = _blocks(g.n_nodes)
    workers = _workers(len(blocks))
    if workers == 1:
        parts = [block(lo, hi) for lo, hi in blocks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker, initargs=(block,))
        try:
            running = [pool.submit(_run_in_worker, lo, hi) for lo, hi in reversed(blocks)]
            parts = [job.result() for job in reversed(running)]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return ScalarField(g, np.concatenate(parts).reshape(g.shape))


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
    landing step in x1 when it lands.  Every emitted group with a nonzero
    weight is stored as four weights.

    A trace's state, its cell (the flat index of the cell's low corner)
    and the 8 weights of its two groups, sits in the trace's slot in
    _trace, and moves when _trace moves the trace (move, land): a step's
    stages add to the front slots in place, and the groups of the traces
    a stage moves are emitted in slot order, which is the traces' order
    in that stage.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        s2 = _strides(grid)[1]
        self.quads = _GroupChunks((0, 1, s2, s2 + 1))  # (d2, d3) corners of a cell face

    def begin(self, first: int, n: int) -> None:
        """Start a block's n traced seeds in slots 0..n-1; rows are local to
        the block, whose first node is first."""
        self.first = first
        self.cell = np.full(n, -1, dtype=np.int32)
        self.slots = np.zeros((8, n))

    def move(self, order: np.ndarray) -> None:
        """Slot k takes what slot order[k] held, for k < order.size."""
        m = order.size
        self.cell[:m] = self.cell[order]
        self.slots[:, :m] = self.slots[:, order]

    def land(self, n: int) -> None:
        """Turn the first n slots, the landing traces, to crossing order:
        slot k becomes slot n-1-k, as a view."""
        self.cell, self.slots = self.cell[:n][::-1], self.slots[:, :n][:, ::-1]

    def step(self, rows: np.ndarray, s, bases: np.ndarray, weights: np.ndarray,
             skip: np.ndarray | None = None) -> None:
        """Add the four RK4 stages of a step of size s (scalar or per trace)
        taken by the traces rows in the first rows.size slots, from their
        (4, m) bases and (4, 8, m) corner weights, which are scaled in
        place.  The traces in the slots skip are left as they are: their
        stage points are put in their cells with zero weights, and adding
        a zero leaves a slot unchanged, since slots are sums of nonnegative
        products and never -0.0."""
        if skip is not None:
            bases[:, skip] = self.cell[skip]
            weights[:, :, skip] = 0.0
        sixth = s / 6.0
        for weight, base, w in zip(_RK4_WEIGHTS, bases, weights):
            self._stage(rows, sixth * weight, base, w)

    def _stage(self, rows: np.ndarray, coef, base: np.ndarray, w: np.ndarray) -> None:
        """One stage of step, its weights scaled by coef = s/6 times the
        stage's RK4 weight."""
        s1 = _strides(self.grid)[0]
        m = rows.size
        cell, slots = self.cell[:m], self.slots[:, :m]
        moved = np.flatnonzero(base != cell)
        if moved.size:
            o = cell[moved]
            down = base[moved] == o - s1
            # a fresh trace (cell -1) holds nothing yet
            far = ~down & (o >= 0)
            kd, kf = moved[down], moved[far]
            # the high group of each trace moving one cell down, then the
            # low and the high group of each other move
            if kd.size:
                self._emit(rows[kd], o[down] + s1, slots[4:, kd])
            if kf.size:
                of = o[far]
                self._emit(rows[kf], of, slots[:4, kf])
                self._emit(rows[kf], of + s1, slots[4:, kf])
            slots[4:, kd] = slots[:4, kd]
            slots[:4, kd] = 0.0
            slots[:, kf] = 0.0
            cell[moved] = base[moved]
        slots += np.multiply(w, coef, out=w)

    def close(self, rows: np.ndarray) -> None:
        """Emit what the traces rows, in the first rows.size slots, still
        hold."""
        m = rows.size
        cells = self.cell[:m]
        self._emit(rows, cells, self.slots[:4, :m])
        self._emit(rows, cells + _strides(self.grid)[0], self.slots[4:, :m])

    def _emit(self, rows: np.ndarray, bases: np.ndarray, vals: np.ndarray) -> None:
        """Store groups: row, corner (j0, k0) base and the (4, n) face
        weights.  All-zero groups are dropped, such as the high group of a
        trace whose stage points in that cell all lay on its low face."""
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

    The node blocks are traced with the same kernel as apply_S on a bare
    field, one after another in the calling process, and every block
    records into one recorder.
    """
    g = tf.grid
    n = g.n_nodes
    recorder = _SourceRecorder(g)
    idx = np.empty((n, 4), dtype=np.int32)
    w = np.empty((n, 4))
    for lo, hi in _blocks(n):
        kern = _Kernel(g, tf.values, None, hi - lo, record=True)
        arr = _trace(kern, _block_seeds(g, lo, hi), lo, recorder)[0]
        base, corners = _bilinear_inflow(kern, arr)
        for c, (off, wc) in enumerate(corners):
            np.add(base, off, out=idx[lo:hi, c], casting="unsafe")
            w[lo:hi, c] = wc
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
