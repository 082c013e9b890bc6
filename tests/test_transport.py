import dataclasses
import hashlib
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from slipflow.config import SolverConfig
from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import ScalarField, NormKind, norm, diff1, interior_l2, zeros_scalar
from slipflow.material import FlowParams, assemble_perturbation_data, boundary_data_from_names
from slipflow.picard import ProblemSetup, picard_solve
from slipflow.transport import (
    TransportField,
    make_transport_field,
    apply_S,
    upwind_march,
    jacobian_bound,
    transport_footprint,
)
from slipflow import transport
from slipflow.transport import _Kernel, _landing_step, _trace


def make_grid(n1=16, n2=8, n3=8):
    return build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n2, n3))


def uniform_flow(grid, u2=0.0, u3=0.0, axial=1.0):
    vals = np.empty((3, *grid.shape))
    vals[0] = axial
    vals[1] = u2
    vals[2] = u3
    return make_transport_field(grid, vals)


def smooth_scalar(grid, seed, amp):
    rng = np.random.default_rng(seed)
    x1, x2, x3 = grid.meshgrid()
    vals = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(0, 3, size=3)
        vals += rng.normal() * np.cos(k[0] * x1) * np.cos(k[1] * x2 + 0.3) * np.cos(k[2] * x3 - 0.2)
    m = np.max(np.abs(vals))
    return ScalarField(grid, amp * vals / max(m, 1e-30))


def wall_respecting_flow(grid, eps):
    """Smooth advecting field with exactly zero wall-normal trace."""
    x1, x2, x3 = grid.meshgrid()
    vals = np.empty((3, *grid.shape))
    vals[0] = 1.0 + eps * np.sin(0.5 * np.pi * x1) * np.sin(np.pi * x2)
    vals[1] = eps * np.sin(np.pi * x2) * np.cos(np.pi * x3)
    vals[2] = eps * np.sin(np.pi * x3) * np.cos(0.5 * np.pi * x1)
    return make_transport_field(grid, vals)


# ---------------------------------------------------------------------------
# construction


def test_transport_field_certificates():
    g = make_grid()
    tf = uniform_flow(g, u2=0.01)
    assert tf.sup_axial_dev == 0.0
    assert tf.sup_transverse == pytest.approx(0.01)
    assert tf.wall_trace_defect == pytest.approx(0.01)
    tf2 = wall_respecting_flow(g, 1e-2)
    assert tf2.wall_trace_defect <= 1e-15


def test_transport_field_rejects_slow_axial_flow():
    g = make_grid()
    vals = np.zeros((3, *g.shape))
    vals[0] = 0.4
    with pytest.raises(ValueError, match="forward progress"):
        make_transport_field(g, vals)


# ---------------------------------------------------------------------------
# single characteristics


def trace_one(tf, x, payload=None):
    """Trace one point to the inflow plane: (arrival, integral)."""
    pay = None if payload is None else payload.values
    arr, integral = _trace(_Kernel(tf.grid, tf.values, pay, 1), np.array(x, dtype=float)[:, None])
    return tuple(arr[:, 0]), float(integral[0])


def test_trace_straight_characteristic():
    # under uniform flow the path integral of a payload of 1 is the travel
    g = make_grid()
    tf = uniform_flow(g)
    arrival, integral = trace_one(tf, (1.3, 0.7, 0.4))
    assert arrival[0] == 0.0
    assert arrival[1] == pytest.approx(0.7, abs=1e-12)
    assert arrival[2] == pytest.approx(0.4, abs=1e-12)
    assert integral == 0.0
    one = ScalarField(g, np.ones(g.shape))
    with_payload, travel = trace_one(tf, (1.3, 0.7, 0.4), one)
    assert with_payload == arrival
    assert travel == pytest.approx(1.3, abs=1e-12)


def test_trace_constant_drift():
    g = make_grid()
    eps = 1e-3
    tf = uniform_flow(g, u2=eps)
    one = ScalarField(g, np.ones(g.shape))
    arrival, travel = trace_one(tf, (1.5, 0.7, 0.4), one)
    assert arrival[0] == 0.0
    assert arrival[1] == pytest.approx(0.7 - eps * 1.5, abs=1e-10)
    assert arrival[2] == pytest.approx(0.4, abs=1e-12)
    assert travel == pytest.approx(1.5, abs=1e-10)


def test_trace_payload_constant_and_linear():
    g = make_grid()
    tf = uniform_flow(g)
    one = ScalarField(g, np.ones(g.shape))
    assert trace_one(tf, (1.25, 0.5, 0.5), one)[1] == pytest.approx(1.25, abs=1e-12)
    lin = ScalarField(g, g.meshgrid()[0])
    # integral of (x1 - s) over s in [0, x1]
    assert trace_one(tf, (1.25, 0.5, 0.5), lin)[1] == pytest.approx(1.25**2 / 2.0, abs=1e-12)


def test_stalled_characteristic_reported(monkeypatch):
    # blocks of at most 16 nodes (15 here) on two workers: the plane x1 = 0
    # holds nodes 0-24, so the first block in node order that stalls is the
    # second one, and its error names the global index of the first node
    # off that plane
    monkeypatch.setattr(transport, "_BLOCK", 16)
    monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    g = make_grid(8, 4, 4)
    vals = np.zeros((3, *g.shape))  # zero velocity never reaches the inflow
    tf = TransportField(g, vals, 1.0, 0.0, 0.0)
    with pytest.raises(RuntimeError, match=r"characteristic 25 stalled") as err:
        apply_S(tf, zeros_scalar(g), np.zeros(g.shape[1:]))
    assert type(err.value) is RuntimeError
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the solution operator


def test_apply_s_pure_advection():
    g = make_grid()
    tf = uniform_flow(g)
    x2, x3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
    w_in = np.sin(x2) * np.cos(x3)
    s = apply_S(tf, zeros_scalar(g), w_in)
    expected = np.broadcast_to(w_in, g.shape)
    assert np.max(np.abs(s.values - expected)) <= 1e-12


def test_apply_s_reads_inflow_trace_exactly_at_the_lattice_end():
    # 22 * (0.1 / 22) rounds past 0.1: with the last node at the extent the
    # inflow-plane nodes take the trace with weight exactly 1
    g = build_grid(GeometryConfig(2.0, 0.1, 1.0, 8, 22, 8))
    assert g.axes[1][-1] == 0.1
    x2, x3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
    w_in = 0.5 + np.sin(30.0 * x2) * np.cos(x3)
    s = apply_S(uniform_flow(g), zeros_scalar(g), w_in)
    assert np.array_equal(s.values[0], w_in)


def test_apply_s_constant_source():
    g = make_grid()
    tf = uniform_flow(g)
    w_in = 0.3 * np.ones((g.shape[1], g.shape[2]))
    s = apply_S(tf, ScalarField(g, np.ones(g.shape)), w_in)
    expected = 0.3 + g.meshgrid()[0]
    assert np.max(np.abs(s.values - expected)) <= 1e-12


def test_apply_s_affine_in_data():
    g = make_grid(8, 4, 4)
    tf = wall_respecting_flow(g, 1e-2)
    v1 = smooth_scalar(g, 1, 0.5)
    v2 = smooth_scalar(g, 2, 0.5)
    t1 = smooth_scalar(g, 3, 0.5).values[0]
    t2 = smooth_scalar(g, 4, 0.5).values[0]
    a, b = 1.7, -0.6
    combo = apply_S(tf, ScalarField(g, a * v1.values + b * v2.values), a * t1 + b * t2)
    parts = a * apply_S(tf, v1, t1).values + b * apply_S(tf, v2, t2).values
    assert np.max(np.abs(combo.values - parts)) <= 1e-12


def test_apply_s_shape_validation():
    g = make_grid()
    tf = uniform_flow(g)
    with pytest.raises(ValueError, match="inflow trace shape"):
        apply_S(tf, zeros_scalar(g), np.zeros((3, 3)))


def test_apply_s_satisfies_transport_equation_under_refinement():
    errs = []
    for n in (8, 16):
        g = make_grid(n, n // 2, n // 2)
        tf = wall_respecting_flow(g, 2e-2)
        v = smooth_scalar(g, 7, 0.3)
        x2, x3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
        w_in = 0.1 * np.sin(np.pi * x2) * np.sin(np.pi * x3)
        s = apply_S(tf, v, w_in)
        resid = sum(tf.values[a] * diff1(s.values, g.h[a], a) for a in range(3)) - v.values
        errs.append(interior_l2(resid, g))
    assert errs[0] / errs[1] >= 1.5  # at least first order


# ---------------------------------------------------------------------------
# the recorded footprint of the solution operator


# footprints over several blocks are checked in test_block_tracing_is_bit_identical
@pytest.mark.parametrize("cells", [(8, 4, 4), (16, 8, 8), (32, 16, 16)])
def test_footprint_reproduces_apply_s(cells):
    g = make_grid(*cells)
    tf = wall_respecting_flow(g, 2e-2)
    fp = transport_footprint(tf)
    carried = dataclasses.replace(tf, footprint=fp)
    for seed in range(3):
        v = smooth_scalar(g, 300 + seed, 0.4)
        w_in = smooth_scalar(g, 400 + seed, 0.4).values[0]
        expected = apply_S(tf, v, w_in).values
        assert np.max(np.abs(fp.apply(v, w_in).values - expected)) <= 1e-13
        assert np.max(np.abs(apply_S(carried, v, w_in).values - expected)) <= 1e-13


def test_footprint_uniform_flow_constant_cases():
    g = make_grid(8, 4, 4)
    fp = transport_footprint(uniform_flow(g))
    x1 = g.meshgrid()[0]
    for source_val, trace_val in ((0.0, 0.7), (0.3, 0.7)):
        w = fp.apply(ScalarField(g, np.full(g.shape, source_val)), np.full(g.shape[1:], trace_val))
        assert np.max(np.abs(w.values - (trace_val + source_val * x1))) <= 1e-10


def test_footprint_reports_stalled_characteristic():
    g = make_grid(8, 4, 4)
    tf = TransportField(g, np.zeros((3, *g.shape)), 1.0, 0.0, 0.0)
    with pytest.raises(RuntimeError, match=r"characteristic 25 stalled"):
        transport_footprint(tf)


@pytest.mark.parametrize("run", ["one worker", "default pool", "blocks of 1000", "eight workers"])
def test_block_tracing_is_bit_identical(run, monkeypatch):
    # (32, 16, 16) has 9,537 nodes: one block at the default size, ten of
    # at most 1,000
    g = make_grid(32, 16, 16)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]
    reference = (apply_S(tf, v, w_in).values, transport_footprint(tf).apply(v, w_in).values)
    if run == "one worker":
        monkeypatch.setattr(transport, "_workers", lambda n_blocks: 1)
    elif run == "blocks of 1000":
        monkeypatch.setattr(transport, "_BLOCK", 1000)
    elif run == "eight workers":
        # more workers than CPUs, each taking several of the 20 blocks: a
        # block slice lost or written twice would show in the result
        monkeypatch.setattr(transport, "_BLOCK", 500)
        monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(8, n_blocks))
    assert np.array_equal(apply_S(tf, v, w_in).values, reference[0])
    assert np.array_equal(transport_footprint(tf).apply(v, w_in).values, reference[1])
    assert multiprocessing.active_children() == []


def test_footprint_recorded_on_workers_is_the_serial_one(monkeypatch):
    # ten blocks of at most 1,000 nodes: two workers send their blocks'
    # groups back to be appended in block order, and the group stream and
    # the inflow CSR arrays are those of the same blocks traced in turn
    monkeypatch.setattr(transport, "_BLOCK", 1000)
    g = make_grid(32, 16, 16)
    tf = wall_respecting_flow(g, 2e-2)
    digests = []
    for workers in (1, 2):
        monkeypatch.setattr(transport, "_workers", lambda n_blocks, k=workers: min(k, n_blocks))
        digests.append(_footprint_digests(transport_footprint(tf)))
        assert multiprocessing.active_children() == []
    assert digests[0] == digests[1]


def test_daemonic_process_traces_its_blocks_itself():
    # a daemonic process, such as a multiprocessing.Pool worker, may not
    # start children: there the two blocks of (40, 20, 20) are traced in
    # that process, with the same result
    g = make_grid(40, 20, 20)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=lambda: send.send(apply_S(tf, v, w_in).values), daemon=True)
    proc.start()
    send.close()
    got = recv.recv() if recv.poll(120) else None
    proc.join(120)
    assert proc.exitcode == 0
    assert np.array_equal(got, apply_S(tf, v, w_in).values)


def test_transport_outputs_match_pinned_digests():
    # sha256 of the float64 bytes of both routes on the case above, recorded
    # before the block kernel was reworked for buffer reuse.  They change
    # only with a change that is meant to move transport results, and such
    # a change says so in CHANGES.md.
    g = make_grid(32, 16, 16)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]

    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()

    assert digest(apply_S(tf, v, w_in).values) == (
        "3447c80888fea6d791709f8b560ea99294ae068025b20200ca38ab5b400b2da0"
    )
    assert digest(transport_footprint(tf).apply(v, w_in).values) == (
        "7997a826a0a3142735ba4f0df0e604d647ee166b7c978859d76dbdfbe854104d"
    )


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _footprint_digests(fp):
    """Chunk count, then sha256 of the group stream (rows, bases and the
    four weight rows of every chunk, in order, which is the same however
    it is chunked) and of the inflow CSR arrays."""
    terms = [mat for _, mat in fp.source.terms]
    chunks = [terms[i:i + 4] for i in range(0, len(terms), 4)]  # one matrix per face corner
    rows = np.concatenate([c[0].row for c in chunks]).astype(np.int64)
    bases = np.concatenate([c[0].col for c in chunks]).astype(np.int64)
    weights = np.concatenate([np.stack([mat.data for mat in c]) for c in chunks], axis=1)
    csr = fp.inflow
    return (
        len(chunks),
        _sha256(rows, bases, weights),
        _sha256(csr.data, csr.indices.astype(np.int64), csr.indptr.astype(np.int64)),
    )


@pytest.mark.parametrize("chunk", [None, 4096])
def test_recorded_footprint_matches_pinned_digests(chunk, monkeypatch):
    # sha256 of the footprint recorded on the case above, recorded before
    # the recorder kept its state in trace-slot order: the group stream,
    # the inflow CSR arrays, and footprint.apply.  Chunks of 4096 groups
    # split the stream as (64, 32, 32) does at the default chunk size, and
    # change the sums of apply.
    if chunk is not None:
        monkeypatch.setattr(transport._GroupChunks, "CHUNK", chunk)
    g = make_grid(32, 16, 16)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]
    fp = transport_footprint(tf)
    assert _footprint_digests(fp) == (
        1 if chunk is None else 43,
        "e0d08d8c89f6c7e9b07e3687dcfaae25a8dc328a6e5a05a14e21ab9112340dce",
        "7af76977d7176068427d0864963b846a35d07509e1067afd9976183a9af333d3",
    )
    applied = fp.apply(v, w_in).values
    assert _sha256(applied) == {
        None: "7997a826a0a3142735ba4f0df0e604d647ee166b7c978859d76dbdfbe854104d",
        4096: "cf72b2c22adbf05f27fe486d933da338f18b97bbdbfe62157b765c6025dfad2c",
    }[chunk]
    if chunk is not None:
        assert np.max(np.abs(applied - apply_S(tf, v, w_in).values)) <= 1e-13


def test_landing_step_matches_bisection():
    g = make_grid()
    tf = wall_respecting_flow(g, 2e-2)
    ds = min(g.h) / 2.0
    rng = np.random.default_rng(5)
    n = 200
    kern = _Kernel(g, tf.values, None, n)
    pos = np.stack([
        rng.uniform(0.05, 0.95, n) * ds,
        rng.uniform(0.0, g.config.width2, n),
        rng.uniform(0.0, g.config.width3, n),
    ])
    x1_full = kern.rk4(pos, ds)[0][0].copy()
    assert np.all(x1_full <= 0.0)
    s = _landing_step(kern, pos, ds, x1_full, np.arange(n))
    # the 52-step bisection on the one-step map that the secant replaced
    lo, hi = np.zeros(n), np.full(n, ds)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        over = kern.rk4(pos, mid)[0][0] <= 0.0
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    assert np.max(np.abs(s - 0.5 * (lo + hi))) <= 1e-13
    assert np.max(np.abs(kern.rk4(pos, s)[0][0])) <= 1e-13


def test_landing_step_is_independent_of_its_batch():
    g = make_grid()
    tf = wall_respecting_flow(g, 2e-2)
    ds = min(g.h) / 2.0
    rng = np.random.default_rng(6)
    n = 200
    kern = _Kernel(g, tf.values, None, n)
    pos = np.stack([
        rng.uniform(0.0, 1.0, n) * ds,
        rng.uniform(0.0, g.config.width2, n),
        rng.uniform(0.0, g.config.width3, n),
    ])
    x1_full = kern.rk4(pos, ds)[0][0].copy()
    rows = np.arange(n)
    together = _landing_step(kern, pos, ds, x1_full, rows)
    alone = [_landing_step(kern, pos[:, i:i + 1], ds, x1_full[i:i + 1], rows[i:i + 1])[0]
             for i in range(n)]
    assert np.array_equal(together, np.array(alone))


def test_landing_steps_only_unconverged_traces(monkeypatch):
    g = make_grid()
    tf = wall_respecting_flow(g, 2e-2)
    ds = min(g.h) / 2.0
    rng = np.random.default_rng(7)
    n = 200
    kern = _Kernel(g, tf.values, None, n)
    pos = np.stack([
        rng.uniform(0.0, 1.0, n) * ds,
        rng.uniform(0.0, g.config.width2, n),  # tells the traces apart
        rng.uniform(0.0, g.config.width3, n),
    ])
    x1_full = kern.rk4(pos, ds)[0][0].copy()
    tol = transport._LANDING_TOL * ds
    rk4, calls = kern.rk4, []

    def counted(p, s, *args):
        new = rk4(p, s, *args)
        calls.append((p[1].copy(), new[0][0].copy()))
        return new

    monkeypatch.setattr(kern, "rk4", counted)
    s = _landing_step(kern, pos, ds, x1_full, np.arange(n))
    landed, unlanded_per_call = set(), []
    for x2, x1 in calls:
        assert not landed & set(x2.tolist())  # no landed trace is stepped again
        unlanded_per_call.append(n - len(landed))
        landed |= set(x2[np.abs(x1) <= tol].tolist())
    assert landed == set(pos[1].tolist())
    evaluations = sum(x2.size for x2, _ in calls)
    assert evaluations == sum(unlanded_per_call) < n * len(calls)
    monkeypatch.undo()
    assert np.max(np.abs(kern.rk4(pos, s)[0][0])) <= tol


@pytest.mark.parametrize(
    "solver", ["apply_S", "footprint", "apply_S on two workers", "footprint on two workers"])
def test_trace_that_does_not_land_is_reported(solver, monkeypatch):
    # axial speed 0.9 and ds = 0.125: the plane x1 = 0.25 (nodes 25-49) is
    # the first to cross, on its third step, to x1 = 0.25 - 3 * 0.1125; with
    # no landing iterations allowed its first node is reported unlanded.
    # On two workers, in blocks of at most 16 nodes (15 here), the first
    # block in node order that fails is [15, 30), and its error reaches
    # the caller as it was raised.
    monkeypatch.setattr(transport, "_LANDING_MAX_ITER", 0)
    if solver.endswith(" on two workers"):
        monkeypatch.setattr(transport, "_BLOCK", 16)
        monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    g = make_grid(8, 4, 4)
    tf = uniform_flow(g, axial=0.9)
    message = r"characteristic 25 did not land on x1 = 0 within 0 iterations: x1 residual -8\.750e-02"
    with pytest.raises(RuntimeError, match=message) as err:
        if solver.startswith("apply_S"):
            apply_S(tf, zeros_scalar(g), np.zeros(g.shape[1:]))
        else:
            transport_footprint(tf)
    assert type(err.value) is RuntimeError
    assert multiprocessing.active_children() == []


def _trace_kills_its_worker(monkeypatch):
    """Blocks of at most 100 nodes on two workers, each of which exits as
    soon as it starts a block; no block may be traced in this process."""
    caller = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != caller, "a block was traced in the calling process"
        os._exit(1)

    monkeypatch.setattr(transport, "_BLOCK", 100)
    monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    monkeypatch.setattr(transport, "_trace", die)


@pytest.mark.parametrize("solver", ["apply_S", "footprint"])
def test_worker_that_dies_fails_loudly(solver, monkeypatch):
    # the pool's BrokenProcessPool is a RuntimeError; no worker is left
    _trace_kills_its_worker(monkeypatch)
    g = make_grid(8, 4, 4)
    tf = uniform_flow(g)
    with pytest.raises(BrokenProcessPool, match="terminated abruptly") as err:
        if solver == "apply_S":
            apply_S(tf, zeros_scalar(g), np.zeros(g.shape[1:]))
        else:
            transport_footprint(tf)
    assert isinstance(err.value, RuntimeError)
    assert multiprocessing.active_children() == []


def test_worker_that_dies_gives_a_diverged_verdict(monkeypatch):
    # every linear step builds a footprint: the broken pool ends the
    # outer loop with a verdict instead of an exception or a hang
    _trace_kills_its_worker(monkeypatch)
    g = make_grid(8, 4, 4)
    params = FlowParams()
    data = assemble_perturbation_data(g, boundary_data_from_names(g, epsilon=1e-2), params)
    bundle = picard_solve(ProblemSetup(g, params, data, SolverConfig()))
    assert bundle.verdict.startswith("diverged(A process in the process pool was terminated abruptly")
    assert bundle.history == ()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# upwind oracle


def test_upwind_replicates_trace_without_source():
    g = make_grid()
    tf = uniform_flow(g)
    x2, x3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
    w_in = np.sin(x2) * np.cos(x3)
    w = upwind_march(tf, zeros_scalar(g), w_in)
    for i in range(g.shape[0]):
        assert np.array_equal(w.values[i], w_in)


def test_upwind_integrates_constant_source_exactly():
    g = make_grid()
    tf = uniform_flow(g)
    w_in = np.zeros((g.shape[1], g.shape[2]))
    w = upwind_march(tf, ScalarField(g, np.ones(g.shape)), w_in)
    expected = g.meshgrid()[0]
    assert np.max(np.abs(w.values - expected)) <= 1e-13


def test_upwind_cfl_guard():
    g = make_grid(8, 8, 8)  # h1 = 0.25, h2 = h3 = 0.125
    tf = uniform_flow(g, u2=0.8)  # cfl = 0.8*0.25/0.125 = 1.6
    with pytest.raises(ValueError, match="CFL"):
        upwind_march(tf, zeros_scalar(g), np.zeros((g.shape[1], g.shape[2])))


@pytest.mark.parametrize(
    "w_in, message",
    [
        (0.7, "inflow trace shape"),
        (np.full(5, 0.7), "inflow trace shape"),
        (np.where(np.eye(5) > 0.0, np.nan, 0.7), "inflow trace contains non-finite values"),
        (np.where(np.eye(5) > 0.0, -np.inf, 0.7), "inflow trace contains non-finite values"),
    ],
    ids=["scalar", "row", "nan", "inf"],
)
def test_both_solvers_reject_malformed_inflow_trace(w_in, message, monkeypatch):
    g = make_grid(8, 4, 4)  # trace shape (5, 5): a (5,) row would broadcast
    tf = uniform_flow(g)
    footprint = transport_footprint(tf)

    def no_tracing(*args, **kwargs):
        raise AssertionError("traced before checking the inflow trace")

    monkeypatch.setattr(transport, "_trace", no_tracing)
    messages = []
    for solver in (apply_S, upwind_march, lambda tf, v, w: footprint.apply(v, w)):
        with pytest.raises(ValueError, match=message) as err:
            solver(tf, zeros_scalar(g), w_in)
        messages.append(str(err.value))
    assert len(set(messages)) == 1


def test_apply_s_and_upwind_converge_together():
    diffs = []
    for n in (8, 16):
        g = make_grid(n, n // 2, n // 2)
        tf = wall_respecting_flow(g, 1e-2)
        v = smooth_scalar(g, 11, 0.3)
        x2, x3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
        w_in = 0.1 * np.sin(np.pi * x2) * np.sin(np.pi * x3)
        a = apply_S(tf, v, w_in)
        b = upwind_march(tf, v, w_in)
        diffs.append(norm(ScalarField(g, a.values - b.values), NormKind.lp(2.0)))
    assert diffs[0] / diffs[1] >= 1.5


# ---------------------------------------------------------------------------
# jacobian of the characteristic map


def test_jacobian_identity_flow():
    g = make_grid(8, 4, 4)
    assert jacobian_bound(uniform_flow(g)) <= 1e-10


def test_jacobian_shear_flow_exact():
    # u~ = (1 + eps sin(pi x2), 0, 0): J = 1 + eps sin(pi z2) for all z1,
    # and the seed lattice contains the maximizing node x2 = 1/2.
    g = make_grid(16, 8, 8)
    eps = 1e-2
    x2 = g.meshgrid()[1]
    vals = np.empty((3, *g.shape))
    vals[0] = 1.0 + eps * np.sin(np.pi * x2)
    vals[1] = 0.0
    vals[2] = 0.0
    tf = make_transport_field(g, vals)
    assert jacobian_bound(tf) == pytest.approx(eps, abs=1e-9)


def test_jacobian_accelerating_flow_matches_closed_form():
    # u~ = (1 + eps x1, 0, 0): along a path e^(eps z1) = 1 + eps x1, so
    # J - 1 = eps x1 with x1 sampled up to one step short of the outlet.
    g = make_grid(16, 8, 8)
    eps = 1e-2
    x1 = g.meshgrid()[0]
    vals = np.empty((3, *g.shape))
    vals[0] = 1.0 + eps * x1
    vals[1] = 0.0
    vals[2] = 0.0
    tf = make_transport_field(g, vals)
    b = jacobian_bound(tf)
    target = eps * g.config.length
    assert 0.95 * target <= b <= 1.0001 * target


def test_jacobian_monotone_in_amplitude():
    g = make_grid(8, 4, 4)
    bounds = []
    for eps in (0.0, 1e-3, 1e-2):
        x2, x3 = g.meshgrid()[1], g.meshgrid()[2]
        vals = np.empty((3, *g.shape))
        vals[0] = 1.0
        vals[1] = eps * np.sin(np.pi * x2)
        vals[2] = 0.0
        bounds.append(jacobian_bound(make_transport_field(g, vals)))
    assert bounds[0] <= 1e-10
    assert bounds[0] <= bounds[1] <= bounds[2]


# ---------------------------------------------------------------------------
# the a priori trace estimate


def test_linf_l2_estimate_for_solution_operator():
    g = make_grid(8, 4, 4)
    tf = wall_respecting_flow(g, 5e-3)
    jb = jacobian_bound(tf)
    w2 = g.axis_weights(1)[:, None] * g.axis_weights(2)[None, :]
    for seed in range(5):
        v = smooth_scalar(g, 100 + seed, 0.4)
        w_in = smooth_scalar(g, 200 + seed, 0.4).values[0]
        s = apply_S(tf, v, w_in)
        lhs = norm(s, NormKind.linf_l2())
        trace_l2 = float(np.sqrt(np.sum(w2 * w_in**2)))
        rhs = (1.0 + jb) * (
            trace_l2 + np.sqrt(4.0 * g.config.length) * norm(v, NormKind.lp(2.0))
        )
        assert lhs <= rhs
