"""Steady transport along characteristics of the augmented axial flow.

The continuity update is solved in Lagrangian form: every node is traced
backward along d(X)/ds = -u~(X) until it arrives at the inflow plane, carrying
the path integral of the source as an augmented ODE state.  A TransportField
is rejected unless the axial component of u~ is at least 1/2 everywhere, so
every step lowers x1 by at least half its size and every characteristic
arrives at x1 = 0 in travel parameter at most 2L.

For one advecting field the solve is affine in (source, inflow trace).
transport_footprint traces every node once and records its inflow
stencil and its source part, so that a linear step can apply it many
times through one set of traces.  apply_S takes a TransportField, which
it traces afresh, or the TransportFootprint recorded for one, which it
applies; both sum the inflow part in one place (_inflow_part).

Both run one kernel, _trace, on blocks of consecutive nodes, the fewest
of at most _BLOCK = 16384 nodes, equal in size to within one.  The
kernel works in cell units: a node's position is its index (i, j, k) and
it samples u~_a / h_a, so it reads no physical coordinate, and the far
end of an axis of n cells is n exactly.  Scaling by a power of two is
exact, so on a grid whose spacings are powers of two every trace takes
the bits it would take in physical coordinates.  A block takes full RK4
steps in s until each of its traces is about to cross x1 = 0, then
lands them all in one last RK4 step taken in x1 instead of s (dX/dx1 =
u~/u~1, integrand v/u~1) over each trace's remaining x1, whose stage
points sit at x1, x1/2, x1/2 and 0.  There is no root solve, and a
node on the inflow plane is traced like any other: it lands where it
starts.  No trace's arithmetic depends on the others in its block, so each
trace's arrival and path integral are bit-identical for any block size
and in any process.  A block's traces keep their positions in
the seeds array and everything else they carry in one companion array,
which a crossing step reorders with the positions by the same order.

Both routes trace their nodes in shares (_shares), near planes first:
all of them below _SHARE_NODES nodes, else two, split where they cost
about the same.  A share's blocks are traced in turn through one kernel
sized for its largest, whose work arrays are allocated once and reused
through every stage of every step: an apply_S on a field holds about
290 bytes per node of that block at its peak (tracemalloc, one
(32, 16, 16) apply in one process), a build about 710.  With two shares
and two CPUs (_workers), one helper, _fork_shares, traces shares in
children started by fork, each of which sends its results through a
pipe straight into the caller's arrays: both shares of a field apply,
and the far share of a build while the calling process traces the near
one.  The shares depend on the grid alone, so every result is the same
whichever process traced a share.  The recording kernel keeps the four
stage stencils of the step just taken, allocated once, until the step
shows which traces cross x1 = 0.  Each trace's recorder state sits in
its column of the companion array, where a stage adds to it in place.

An independent slice-marching discretization (upwind_march) of the same
equation is kept deliberately separate as a cross-check.
"""
from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grid import Grid
from .fields import ScalarField


@dataclass(frozen=True, eq=False)
class TransportField:
    """Full advecting velocity u~ = e1 + (ubar + u0) on the nodes, (3, n1+1,
    n2+1, n3+1), and its two certificates.

    Construction rejects values of another shape, non-finite values and
    an axial speed below 1/2 anywhere: sampled trilinearly, u~1 then
    stays at least 1/2 along every trace, so no characteristic can fail
    to reach the inflow plane.
    """

    grid: Grid
    values: np.ndarray

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

def _lattice(grid: Grid):
    """Float columns for locating (3, m) points in cell units: the cell
    counts and the last cell indices as columns, and the flat-index
    stride of each axis, all whole numbers."""
    cells = np.array(grid.config.cells, dtype=float)[:, None]
    _, n2, n3 = grid.shape
    return cells, cells - 1.0, np.array((n2 * n3, n3, 1), dtype=float)


def _locate(lattice, p: np.ndarray, base: np.ndarray, lo: np.ndarray, work: np.ndarray) -> None:
    """Locate (3, m) points in cell units on the lattice columns _lattice
    gives, in place.

    p is clamped to the closed duct, [0, n] along an axis of n cells, and
    becomes the high weight of each point along each axis, lo the low
    weight 1 - high and base the flat index of each cell's low corner.
    The cells stay whole floats.  The base is their einsum with the
    strides (no BLAS, see _fork_shares) into the (m,) work array, cast once;
    every product and sum in it is a whole number below 2**53, so exact.
    """
    n, last, strides = lattice
    np.clip(p, 0.0, n, out=p)
    np.trunc(p, out=lo)  # lo holds the cells until the weights are formed
    np.minimum(lo, last, out=lo)
    np.subtract(p, lo, out=p)
    np.copyto(base, np.einsum("a,am->m", strides, lo, out=work), casting="unsafe")
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
# Field applies and footprint builds of at least _SHARE_NODES nodes trace
# in two shares (_shares).  Measured on a shared 2-core VM, medians of 31
# alternating builds, one share against two with the far one in a forked
# child: 20.0 against 23.5 ms at (16, 8, 8), 1377 nodes; 26.0 against
# 26.1 ms at (18, 9, 9), 1900 nodes; 33.9 against 30.8 ms at (20, 10,
# 10), 2541 nodes; 127 against 94 ms at (32, 16, 16), 9537 nodes.
_SHARE_NODES = 2048


class _Kernel:
    """Trilinear sampling and backward RK4 steps through one advecting field.

    The (3, n_nodes) velocity, u~_a / h_a in cells per unit of s, and an
    optional (n_nodes,) payload are read in place; positions are in cell
    units.  The grid's lattice columns (_lattice) are formed once, and
    the work arrays are allocated once, for up to size points, and reused
    by every stage of every step, so a kernel serves one block at a time.
    The arrays its methods return are views of that work space, valid
    until the next call.  A kernel made with record keeps the stencils of
    the four stages of its last step, also allocated once: stage_base,
    the flat index of each stage point's cell low corner, and
    stage_weights, its 8 corner weights in _corners order.
    """

    def __init__(self, grid: Grid, velocity: np.ndarray, payload: np.ndarray | None, size: int,
                 record: bool = False):
        self.grid = grid
        self.lattice = _lattice(grid)
        self.velocity = velocity.reshape(3, -1)
        self.payload = None if payload is None else payload.reshape(1, -1)
        self.rows = 3 if payload is None else 4  # the fields sampled
        self.record = record
        self._p = np.empty(3 * size)  # stage points, then their high weights
        self._lo = np.empty(3 * size)
        self._idx = np.empty(size, dtype=np.intp)
        self._pair = np.empty(size)
        self._w = np.empty(size)
        self._vals = np.empty(self.rows * size)
        self._term = np.empty(self.rows * size)
        self._total = np.empty(self.rows * size)
        if record:
            self.stage_base = np.empty((4, size), dtype=np.int32)
            self.stage_weights = np.empty((4, 8, size))

    def _sample_p(self, m: int, out: np.ndarray | None = None,
                  stage: int | None = None) -> np.ndarray:
        """Interpolate the velocity, and the payload if there is one, at the
        m points held in _p, which then holds their high weights.

        The weighted corners are summed one after another, elementwise, so
        a point's value does not depend on how many points are sampled
        with it.  With a stage number the points' stencil is kept as that
        stage's.
        """
        p = self._p[:3 * m].reshape(3, m)
        lo = self._lo[:3 * m].reshape(3, m)
        idx = self._idx[:m]
        _locate(self.lattice, p, idx, lo, self._pair[:m])
        if stage is None:
            outs = (self._w[:m],) * 8
        else:
            np.copyto(self.stage_base[stage, :m], idx, casting="unsafe")
            outs = self.stage_weights[stage, :, :m]
        vals = self._vals[:self.rows * m].reshape(self.rows, m) if out is None else out
        term = self._term[:self.rows * m].reshape(self.rows, m)
        dst = vals
        last = 0
        for off, w in _corners(lo, p, self.lattice[2], self._pair[:m], outs):
            if off != last:  # each corner's index, stepped from the cell base
                np.add(idx, off - last, out=idx)
                last = off
            np.take(self.velocity, idx, axis=1, out=dst[:3], mode="clip")
            if self.payload is not None:
                np.take(self.payload, idx, axis=1, out=dst[3:], mode="clip")
            dst *= w
            if dst is term:
                vals += term
            dst = term
        return vals

    def rk4(self, pos: np.ndarray, s, axial: bool = False):
        """One backward RK4 step of size s (scalar or per point) from the
        (3, m) positions pos, which are only read.

        Returns the new positions and, if the kernel has a payload, the
        payload's quadrature over the step (else None), both work arrays.
        Each stage point is located once and every field is sampled
        through that stencil; a recording kernel keeps the stencils as the
        step's stages (see stages).  With axial, s is a length in x1 cells
        and the step is taken in x1, of dX/dx1 = u~/u~1 with integrand
        payload/u~1, in cell units: every sampled row is divided by the
        sampled u~1 / h1, the recorded stage weights too, and the x1 slope
        is exactly 1.
        """
        m = pos.shape[1]
        p = self._p[:3 * m].reshape(3, m)
        total = self._total[:self.rows * m].reshape(self.rows, m)
        # per-point fractions of s go to _w, free between stages
        frac_out = self._w[:m] if np.ndim(s) else None
        # k1 + 2 k2 + 2 k3 + k4 is summed in that order as the stages go.
        # The sampled velocity is minus the backward slope, so every
        # position subtracts it.
        np.copyto(p, pos)
        for stage, weight in enumerate(_RK4_WEIGHTS):
            vals = self._sample_p(m, total if stage == 0 else None, stage if self.record else None)
            if axial:
                if self.record:
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
        inc = None if self.payload is None else np.multiply(total[3], sixth, out=total[3])
        return p, inc

    def stages(self, m: int):
        """The (4, m) bases and (4, 8, m) corner weights of the last
        recorded step's m points, as work arrays."""
        return self.stage_base[:, :m], self.stage_weights[:, :, :m]


def _trace(kern: _Kernel, seeds: np.ndarray, recorder=None):
    """Trace one block of seeds, the columns of a (3, N) array in cell
    units, backward to the inflow plane through kern, integrating its
    payload if it has one.

    Returns (arrivals, integral) arrays; the arrivals, in cell units, are
    seeds itself, overwritten.  Full steps of size ds = min(h) / 2 in s
    are taken until a step would cross x1 = 0; as u~1 >= 1/2, each lowers
    x1 by at least ds/2.  Once every trace of the block has reached that
    step, one RK4 step in x1 each (kern.rk4 with axial), over the trace's
    remaining x1 cells, lands them all on x1 = 0 exactly.  A seed on the
    inflow plane crosses on its first step and lands where it starts, in
    a step of length 0, with integral 0 and zero recorded weights.  Every
    trace's arithmetic is its own, so the results do not depend on how
    the seeds are split into blocks or ordered.

    A recorder, if given, has been started on the block (recorder.begin)
    and reads each step's stage stencils from kern, which must record.
    Its state for each trace sits in that trace's column of the companion
    array (below), and it updates that state in place.  After each step,
    recorder.step(rows, state, ds, *kern.stages(m), skip=hit) adds the
    step's four stages for every stepping trace but those in the columns
    hit, which cross x1 = 0 on it.  The landing step, whose stage weights
    the kernel has divided by u~1, is recorded the same way on every
    column in crossing order, and recorder.close then emits what each
    trace still holds.
    """
    ds = min(kern.grid.h) / 2.0
    n_cells = kern.lattice[0]
    payload = kern.payload is not None
    record = recorder is not None
    # Column k of the positions, seeds itself, and of one companion array
    # holds a trace: the m traces still stepping in front, in seed order,
    # and behind them, last first, those whose next step would cross
    # x1 = 0, at their position before that step, waiting for the block's
    # landing step.  The companion holds the trace's row in the block, then
    # its path integral so far or its recorder state: the cell, the flat
    # index of the cell's low corner as a whole float (-1 before the first
    # stage), and the 8 weights.  A crossing step reorders both arrays by
    # one order, and seeds receives the arrivals at the end.
    m = n = seeds.shape[1]
    state = np.zeros((1 + payload + 9 * record, n))
    state[0] = np.arange(n)
    rec = state[1 + payload:]
    rec[:1] = -1.0  # the recorder's cells, if it has any
    cur = seeds
    while m:
        new, inc = kern.rk4(cur, ds)
        crossing = new[0] <= 0.0
        hit = np.flatnonzero(crossing)
        # a crossing trace records and integrates its landing step instead
        if record:
            recorder.step(state[0, :m], rec[:, :m], ds, *kern.stages(m), skip=hit)
        if payload:  # an integral is never -0.0, so adding 0.0 leaves it as it is
            inc[hit] = 0.0
            state[1, :m] += inc
        if hit.size:
            order = np.concatenate((np.flatnonzero(~crossing), hit[::-1]))
            new[:, hit] = cur[:, hit]  # a waiting trace stays where it was
            seeds[:, :m] = new[:, order]
            state[:, :m] = state[:, order]
            m -= hit.size
            cur = new = seeds[:, :m]
        np.clip(new, 0.0, n_cells, out=cur)

    start, back = seeds[:, ::-1], state[:, ::-1]  # in crossing order
    x1 = start[0]  # the step in x1 that lands each trace
    fin, inc = kern.rk4(start, x1, axial=True)
    if record:
        recorder.step(back[0], rec[:, ::-1], x1, *kern.stages(n))
        recorder.close(back[0], rec[:, ::-1])
    fin[0] = 0.0
    done = back[0].astype(np.intp)
    seeds[:, done] = np.clip(fin, 0.0, n_cells, out=fin)
    integral = np.zeros(n)
    if payload:
        integral[done] = back[1] + inc
    return seeds, integral


def _bilinear_inflow(kern: _Kernel, arrivals: np.ndarray, idx: np.ndarray, w: np.ndarray) -> None:
    """The inflow-plane stencil of the (3, m) arrival points of m traces,
    in cell units, written into the (m, 4) idx and w.

    Row r holds the flat inflow-plane node index and the weight of the
    corners (j,k), (j+1,k), (j,k+1), (j+1,k+1) of arrival r's cell, in that
    order.  The arrivals lie on x1 = 0 exactly, where the trilinear low x1
    weight is 1 and the cell's flat index is the inflow plane's, so the
    corner (j + d2, k + d3) takes w_b w_c, bit for bit the trilinear
    (1 w_b) w_c.  An arrival on a node, the last ones included, sits at its
    integer index and reads that node's trace with weight 1.
    """
    m = arrivals.shape[1]
    hi = kern._p[:3 * m].reshape(3, m)
    lo = kern._lo[:3 * m].reshape(3, m)
    base = kern._idx[:m]
    np.copyto(hi, arrivals)
    _locate(kern.lattice, hi, base, lo, kern._pair[:m])
    s2 = int(kern.lattice[2][1])
    for c, (d2, d3) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        np.add(base, d2 * s2 + d3, out=idx[:, c], casting="unsafe")
        np.multiply((lo, hi)[d2][1], (lo, hi)[d3][2], out=w[:, c])


def _inflow_part(idx: np.ndarray, w: np.ndarray, trace: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The inflow part of the values of m nodes with the (m, 4) inflow
    stencil idx, w (_bilinear_inflow), from the flat inflow trace: each
    row adds its products w * trace[idx] to zero in corner order, formed
    in the (m,) work array.  Both routes read the trace here alone."""
    out = np.zeros(len(idx))
    for c in range(4):
        out += np.multiply(np.take(trace, idx[:, c], out=work, mode="clip"), w[:, c], out=work)
    return out


# ---------------------------------------------------------------------------
# the inflow-traced solution operator

def _blocks(lo: int, hi: int) -> list[tuple[int, int]]:
    """Flat-index ranges [a, b) of the blocks of the nodes lo..hi-1 traced
    together: the fewest blocks of at most _BLOCK nodes, equal in size to
    within one."""
    count = -(-(hi - lo) // _BLOCK)
    cuts = [lo + k * (hi - lo) // count for k in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _block_seeds(grid: Grid, lo: int, hi: int) -> np.ndarray:
    """(3, hi - lo) positions in cell units of the nodes with flat indices
    lo..hi-1: their node indices (i, j, k), as floats."""
    return np.array(np.unravel_index(np.arange(lo, hi), grid.shape), dtype=float)


def _shares(grid: Grid) -> list[tuple[int, int]]:
    """Flat-index ranges [lo, hi) of the nodes traced together, near
    planes first: all of them below _SHARE_NODES nodes, else two shares
    split at x1 plane round(n1 / sqrt(2)).  A trace costs about as much as
    its start's distance from the inflow plane, so the two shares cost
    about the same."""
    n = grid.n_nodes
    if n < _SHARE_NODES:
        return [(0, n)]
    cut = round(grid.config.cells[0] / math.sqrt(2.0)) * grid.shape[1] * grid.shape[2]
    return [(0, cut), (cut, n)]


def _workers() -> int:
    """The CPUs this process may trace on, those in its affinity mask; 1,
    which traces in the calling process, where the platform cannot fork
    and in a daemonic process (a multiprocessing.Pool worker, say), which
    may not start children."""
    if not hasattr(os, "fork"):
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_shares(shares, send, receive, here=None) -> None:
    """Trace each share (lo, hi) of shares in its own child started by
    fork, which runs send(conn, lo, hi) and sends the share's results
    through a pipe, while the calling process runs here() if given; then
    read every share's results, in share order, with receive(conn, lo, hi).

    The children inherit everything they read at the fork.  Forking after
    BLAS has started threads is safe here only because the tracing code
    never calls BLAS.  Every child is joined before this returns or
    raises; one that ends before it has sent everything, or with a
    nonzero exit code, raises a RuntimeError that names its share and its
    exit code.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    started = []
    done = 0  # the shares received
    try:
        for lo, hi in shares:
            conn, end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=send, args=(end, lo, hi))
            child.start()
            end.close()
            started.append((child, conn))
        if here is not None:
            here()
        for (child, conn), share in zip(started, shares):
            try:
                receive(conn, *share)
            except (EOFError, OSError):  # the child ended before it sent everything
                break
            done += 1
    finally:
        for k, (child, conn) in enumerate(started):
            if k >= done:
                child.terminate()
            child.join()
            conn.close()
    for k, ((child, _), (lo, hi)) in enumerate(zip(started, shares)):
        if k >= done or child.exitcode != 0:
            raise RuntimeError(f"the share of nodes {lo} to {hi - 1} was not traced: its child "
                               f"process ended with exit code {child.exitcode}")


def _check_data(grid: Grid, v: ScalarField, w_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source values and the inflow trace of a solve on grid, checked."""
    if v.values.shape != grid.shape:
        raise ValueError(f"source field shape {v.values.shape} != transport grid shape {grid.shape}")
    if v.grid.config != grid.config:
        raise ValueError(f"source field geometry {v.grid.config} != transport grid geometry {grid.config}")
    w_in = np.asarray(w_in, dtype=float)
    if w_in.shape != (grid.shape[1], grid.shape[2]):
        raise ValueError(f"inflow trace shape {w_in.shape} != {(grid.shape[1], grid.shape[2])}")
    if not np.all(np.isfinite(w_in)):
        raise ValueError("inflow trace contains non-finite values")
    return v.values, w_in


def _apply_share(grid: Grid, rate: np.ndarray, source: np.ndarray, trace: np.ndarray,
                 out: np.ndarray, lo: int, hi: int) -> None:
    """Trace the nodes lo..hi-1 in blocks (_blocks), through one kernel
    sized for the largest, integrating the source, and write their values
    into out[lo:hi]."""
    blocks = _blocks(lo, hi)
    kern = _Kernel(grid, rate, source, max(b - a for a, b in blocks))
    for a, b in blocks:
        m = b - a
        arr, integral = _trace(kern, _block_seeds(grid, a, b))
        # the stencil and its products take kernel work space that is free
        # once the block is traced
        idx = kern._term[:4 * m].view(np.int64).reshape(m, 4)
        w = kern._vals[:4 * m].reshape(m, 4)
        _bilinear_inflow(kern, arr, idx, w)
        np.add(_inflow_part(idx, w, trace, kern._w[:m]), integral, out=out[a:b])


def apply_S(tf: TransportField | TransportFootprint, v: ScalarField, w_in: np.ndarray) -> ScalarField:
    """Solve u~.grad(w) = v with trace w_in on the inflow plane.

    Every node is traced back to x1 = 0; the value is the bilinearly
    interpolated trace at the arrival point plus the path integral of v.
    A footprint is applied (TransportFootprint.apply), not traced.

    A field's nodes are traced in shares (_shares).  With two shares and
    two CPUs (_workers), each share is traced in its own child
    (_fork_shares), which sends its slice of the result straight into the
    result array.  The calling process traces neither, so it holds no
    kernel work arrays: tracing the near share there raised the peak
    resident size of transport-test by about 5%.  Otherwise the calling
    process traces the shares in turn.  The result is the same either way.
    """
    if isinstance(tf, TransportFootprint):
        return tf.apply(v, w_in)
    g = tf.grid
    source, trace = _check_data(g, v, w_in)
    trace = trace.reshape(-1)
    rate = tf.values / np.reshape(g.h, (3, 1, 1, 1))  # u~_a / h_a, in cells
    out = np.empty(g.n_nodes)

    def send(conn, lo: int, hi: int) -> None:
        _apply_share(g, rate, source, trace, out, lo, hi)
        conn.send_bytes(out[lo:hi])

    shares = _shares(g)
    if len(shares) == 2 and _workers() > 1:
        _fork_shares(shares, send, lambda conn, lo, hi: conn.recv_bytes_into(out[lo:hi]))
    else:
        for lo, hi in shares:
            _apply_share(g, rate, source, trace, out, lo, hi)
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
    weight is stored, in emission order, into chunks of CHUNK groups
    (_mapped_chunk): its row, its base node and one weight per offset of
    a face corner from the base.  send and receive carry the stored
    groups of a recorder in another process over to this one, appended
    in their order, so the chunks come out as if this recorder had
    recorded them.

    The recorder holds no trace's state.  step, _stage and close take the
    traces' rows in the block and their (9, m) state, the columns of
    _trace's companion array: the cell, the flat index of the cell's low
    corner as a whole float, -1 before the trace's first stage, then the
    low group's 4 weights and the high group's.  A stage adds to the state
    in place, and the groups of the traces it moves are emitted in the
    order of those columns, which is the traces' order in that stage.
    """

    CHUNK = 1 << 18
    # Groups per message triple when sent to another process, 1.3 MB.  Sent
    # a chunk (10.5 MB) at a time, a (64, 32, 32) build peaked 13 to 26 MB
    # higher in the receiving process than sent in pieces.
    PIECE = 1 << 15

    def __init__(self, grid: Grid):
        self.s1, s2 = (int(s) for s in _lattice(grid)[2][:2])
        self.offsets = (0, 1, s2, s2 + 1)  # (d2, d3) corners of a cell face
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.fill = self.CHUNK  # groups written to the last chunk

    def begin(self, first: int) -> None:
        """Start a block whose first node is first; rows are local to the
        block."""
        self.first = first

    def step(self, rows: np.ndarray, state: np.ndarray, s, bases: np.ndarray, weights: np.ndarray,
             skip: np.ndarray | None = None) -> None:
        """Add the four RK4 stages of a step of size s (scalar or per trace)
        taken by the traces rows, whose (9, m) state it updates, from their
        (4, m) bases and (4, 8, m) corner weights, which are scaled in
        place.  The traces in the columns skip are left as they are: their
        stage points are put in their cells with zero weights, and adding
        a zero leaves a weight unchanged, since weights are sums of
        nonnegative products and never -0.0."""
        if skip is not None:
            bases[:, skip] = state[0, skip]
            weights[:, :, skip] = 0.0
        sixth = s / 6.0
        for weight, base, w in zip(_RK4_WEIGHTS, bases, weights):
            self._stage(rows, state, sixth * weight, base, w)

    def _stage(self, rows: np.ndarray, state: np.ndarray, coef, base: np.ndarray, w: np.ndarray) -> None:
        """One stage of step, its weights scaled by coef = s/6 times the
        stage's RK4 weight."""
        cell, groups = state[0], state[1:]
        moved = np.flatnonzero(base != cell)
        if moved.size:
            o = cell[moved]
            down = base[moved] == o - self.s1
            # a fresh trace (cell -1) holds nothing yet
            far = ~down & (o >= 0)
            kd, kf = moved[down], moved[far]
            # the high group of each trace moving one cell down, then the
            # low and the high group of each other move
            if kd.size:
                self._emit(rows[kd], o[down] + self.s1, groups[4:, kd])
            if kf.size:
                of = o[far]
                self._emit(rows[kf], of, groups[:4, kf])
                self._emit(rows[kf], of + self.s1, groups[4:, kf])
            groups[4:, kd] = groups[:4, kd]
            groups[:4, kd] = 0.0
            groups[:, kf] = 0.0
            cell[moved] = base[moved]
        groups += np.multiply(w, coef, out=w)

    def close(self, rows: np.ndarray, state: np.ndarray) -> None:
        """Emit what the traces rows, of (9, m) state state, still hold."""
        self._emit(rows, state[0], state[1:5])
        self._emit(rows, state[0] + self.s1, state[5:])

    def _emit(self, rows: np.ndarray, bases: np.ndarray, vals: np.ndarray) -> None:
        """Store groups: row, corner (j0, k0) base and the (4, n) face
        weights.  All-zero groups are dropped, such as the high group of a
        trace whose stage points in that cell all lay on its low face."""
        keep = np.any(vals != 0.0, axis=0)
        self._store(rows[keep] + self.first, bases[keep], vals[:, keep])

    def _store(self, rows: np.ndarray, bases: np.ndarray, vals: np.ndarray) -> None:
        """Append groups to the chunks, in their order."""
        done, n = 0, rows.size
        while done < n:
            if self.fill == self.CHUNK:
                self.chunks.append(_mapped_chunk(self.CHUNK, len(self.offsets)))
                self.fill = 0
            take = min(n - done, self.CHUNK - self.fill)
            for dst, src in zip(self.chunks[-1], (rows, bases, vals)):
                dst[..., self.fill:self.fill + take] = src[..., done:done + take]
            self.fill += take
            done += take

    def _stored(self):
        """The rows, bases and (4, used) weights of each chunk's groups."""
        for i, (r, b, w) in enumerate(self.chunks):
            used = self.fill if i == len(self.chunks) - 1 else self.CHUNK
            yield r[:used], b[:used], w[:, :used]

    def send(self, conn) -> None:
        """Send the stored groups through a multiprocessing connection to
        receive, in their order: up to PIECE groups at a time as three
        messages, their rows, bases and weights, then an empty message."""
        for r, b, w in self._stored():
            for k in range(0, r.size, self.PIECE):
                piece = slice(k, k + self.PIECE)
                for part in (r[piece], b[piece], np.ascontiguousarray(w[:, piece])):
                    conn.send_bytes(part)
        conn.send_bytes(b"")

    def receive(self, conn) -> None:
        """Store the groups another recorder sends (send) after those held,
        in their order, holding one piece of them at a time."""
        while rows := conn.recv_bytes():
            bases, weights = conn.recv_bytes(), conn.recv_bytes()
            self._store(np.frombuffer(rows, np.int32), np.frombuffer(bases, np.int32),
                        np.frombuffer(weights).reshape(len(self.offsets), -1))

    def terms(self, n_nodes: int):
        """(offset, matrix) pairs; each matrix acts on the node array
        shifted by its offset."""
        n_cols = n_nodes - max(self.offsets)
        for r, b, w in self._stored():
            for off, wq in zip(self.offsets, w):
                yield off, sparse.coo_matrix((wq, (r, b)), shape=(n_nodes, n_cols))


@dataclass(frozen=True, eq=False)
class TransportFootprint:
    """apply_S for one advecting field, recorded.

    With the field fixed, apply_S is affine in (source, inflow trace):
    w = inflow part + source(v) on flattened arrays.  inflow_nodes and
    inflow_weights are every node's (n, 4) inflow stencil (_bilinear_inflow);
    terms hold the trilinear weights of every RK4 stage point times the
    step quadrature, four to a cell face, as one sparse matrix per corner
    offset of a face, which acts on v shifted by that offset.
    """

    grid: Grid
    inflow_nodes: np.ndarray  # (n, 4) int32
    inflow_weights: np.ndarray  # (n, 4)
    terms: tuple[tuple[int, sparse.coo_matrix], ...]  # (offset, matrix)

    def source(self, v: np.ndarray) -> np.ndarray:
        """The source part, on a flattened node array v."""
        out = np.zeros(self.grid.n_nodes)
        for off, mat in self.terms:
            out += mat @ v[off:off + mat.shape[1]]
        return out

    def apply(self, v: ScalarField, w_in: np.ndarray) -> ScalarField:
        """Same result as apply_S(tf, v, w_in) for the recorded field."""
        g = self.grid
        source, w_in = _check_data(g, v, w_in)
        vals = _inflow_part(self.inflow_nodes, self.inflow_weights, w_in.reshape(-1), np.empty(g.n_nodes))
        vals += self.source(source.reshape(-1))
        return ScalarField(g, vals.reshape(g.shape))


def _record_share(grid: Grid, rate: np.ndarray, recorder: _SourceRecorder, idx: np.ndarray,
                  w: np.ndarray, lo: int, hi: int) -> None:
    """Trace the nodes lo..hi-1 in blocks (_blocks), through one kernel
    sized for the largest, recording their groups into recorder and their
    inflow stencil into rows lo..hi-1 of the (n, 4) idx and w."""
    blocks = _blocks(lo, hi)
    kern = _Kernel(grid, rate, None, max(b - a for a, b in blocks), record=True)
    for a, b in blocks:
        recorder.begin(a)
        arr = _trace(kern, _block_seeds(grid, a, b), recorder)[0]
        _bilinear_inflow(kern, arr, idx[a:b], w[a:b])


def transport_footprint(tf: TransportField) -> TransportFootprint:
    """Trace every node once and record apply_S (TransportFootprint).

    The nodes are traced with the same kernel code as apply_S on a field,
    share by share (_shares), near share first, and each share in blocks,
    into one recorder.  With two shares and two CPUs (_workers), a child
    (_fork_shares) traces the far share while the calling process traces
    the near one.  The child sends the far share's inflow stencil straight
    into its rows of the caller's, then its groups into the caller's
    recorder after the near share's (_SourceRecorder.send), so the group
    stream, and with it every apply, is the same either way.  On one CPU,
    and in a daemonic or fork-less process, the calling process traces
    both shares itself.
    """
    g = tf.grid
    n = g.n_nodes
    recorder = _SourceRecorder(g)
    rate = tf.values / np.reshape(g.h, (3, 1, 1, 1))
    idx = np.empty((n, 4), dtype=np.int32)
    w = np.empty((n, 4))

    def send(conn, lo: int, hi: int) -> None:
        groups = _SourceRecorder(g)
        _record_share(g, rate, groups, idx, w, lo, hi)
        conn.send_bytes(idx[lo:hi])
        conn.send_bytes(w[lo:hi])
        groups.send(conn)

    def receive(conn, lo: int, hi: int) -> None:
        conn.recv_bytes_into(idx[lo:hi].reshape(-1))
        conn.recv_bytes_into(w[lo:hi].reshape(-1))
        recorder.receive(conn)

    shares = _shares(g)
    if len(shares) == 2 and _workers() > 1:
        near, far = shares
        _fork_shares([far], send, receive, lambda: _record_share(g, rate, recorder, idx, w, *near))
    else:
        for lo, hi in shares:
            _record_share(g, rate, recorder, idx, w, lo, hi)
    return TransportFootprint(g, idx, w, tuple(recorder.terms(n)))


def upwind_march(tf: TransportField, v: ScalarField, w_in: np.ndarray) -> ScalarField:
    """Independent slice-marching solve of u~.grad(w) = v.

    Treats x1 as the marching direction with explicit first-order steps
    and donor-cell upwinding of the transverse derivatives.  Kept free of
    any characteristic-tracing code on purpose.
    """
    g = tf.grid
    source, w_in = _check_data(g, v, w_in)
    h1, h2, h3 = g.h
    u1, u2, u3 = tf.values
    cfl = float(np.max(np.abs(tf.values[1:]))) * h1 / (float(np.min(u1)) * min(h2, h3))
    if cfl > 1.0 + 1e-12:
        raise ValueError(
            f"transverse CFL number {cfl:.3g} exceeds 1 for the slice march; refine n1"
        )

    def upwind(slab: np.ndarray, speed: np.ndarray, h: float, axis: int) -> np.ndarray:
        """Backward differences where speed > 0, else forward; 0 off the slab."""
        back = np.diff(slab, axis=axis, prepend=slab.take([0], axis)) / h
        fwd = np.diff(slab, axis=axis, append=slab.take([-1], axis)) / h
        return np.where(speed > 0.0, back, fwd)

    out = np.empty(g.shape)
    out[0] = w_in
    for i in range(g.shape[0] - 1):
        slab = out[i]
        rhs = (
            source[i]
            - u2[i] * upwind(slab, u2[i], h2, 0)
            - u3[i] * upwind(slab, u3[i], h3, 1)
        ) / u1[i]
        out[i + 1] = slab + h1 * rhs
    return ScalarField(g, out)
