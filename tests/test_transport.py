import dataclasses
import gc
import hashlib
import multiprocessing
import os
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from slipflow.config import SolverConfig
from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import ScalarField, VectorField, NormKind, norm, diff1, interior_l2, zeros_scalar
from slipflow.material import DataConfig, FlowParams, assemble_perturbation_data
from slipflow.picard import ProblemSetup, picard_solve
from slipflow.transport import (
    TransportField,
    make_transport_field,
    apply_S,
    upwind_march,
    transport_footprint,
)
from slipflow import transport
from slipflow.transport import _Kernel, _trace
from oracles import (
    bisection_landing_solve, integer_locate, jacobian_bound, smooth_scalar, wall_respecting_flow,
)


def make_grid(n1=16, n2=8, n3=8):
    return build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n2, n3))


def uniform_flow(grid, u2=0.0, u3=0.0, axial=1.0):
    vals = np.empty((3, *grid.shape))
    vals[0] = axial
    vals[1] = u2
    vals[2] = u3
    return make_transport_field(grid, vals)


# ---------------------------------------------------------------------------
# construction


def test_transport_field_certificates():
    g = make_grid()
    tf = uniform_flow(g, u2=0.01)
    assert tf.sup_axial_dev == 0.0
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
    """Trace one point to the inflow plane: (arrival, integral).  The
    kernel works in cell units: x and u~ go in divided by h, and the
    arrival comes out multiplied by h."""
    pay = None if payload is None else payload.values
    h = np.array(tf.grid.h)
    kern = _Kernel(tf.grid, tf.values / h[:, None, None, None], pay, 1)
    arr, integral = _trace(kern, (np.array(x, dtype=float) / h)[:, None])
    return tuple(arr[:, 0] * h), float(integral[0])


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


def test_inflow_plane_seed_arrives_where_it_starts():
    # a seed on x1 = 0 crosses on its first step and lands in a step of
    # length 0: it arrives at itself with an integral of exactly 0.0
    g = make_grid()
    tf = wall_respecting_flow(g, 2e-2)
    seed = (0.0, 0.7, 0.4)
    for payload in (None, smooth_scalar(g, 500, 0.4)):
        arrival, integral = trace_one(tf, seed, payload)
        assert arrival == seed
        assert integral == 0.0


def test_trace_reorders_seeds_in_any_order_bit_for_bit():
    # _trace reorders its traces as they cross x1 = 0, and each trace's
    # arithmetic is its own: the nodes and off-node points, on the inflow
    # plane and at x1 = n1 among them, traced in a random order arrive at
    # the permuted arrivals with the permuted integrals, bit for bit
    g = make_grid(9, 5, 7)
    tf = wall_respecting_flow(g, 2e-2)
    rate = tf.values / np.reshape(g.h, (3, 1, 1, 1))
    payload = smooth_scalar(g, 500, 0.4).values
    n = np.array(g.config.cells, dtype=float)[:, None]
    rng = np.random.default_rng(40)
    off = rng.uniform(0.0, n, (3, 300))
    off[0, :30] = 0.0
    off[0, 30:60] = n[0, 0]
    seeds = np.concatenate((transport._block_seeds(g, 0, g.n_nodes), off), axis=1)
    perm = rng.permutation(seeds.shape[1])

    def run(points):
        kern = _Kernel(g, rate, payload, points.shape[1])
        return _trace(kern, points.copy())  # _trace overwrites its seeds

    arrivals, integral = run(seeds)
    assert np.all(arrivals[0] == 0.0) and np.count_nonzero(integral) > seeds.shape[1] // 2
    permuted = run(seeds[:, perm])
    assert permuted[0].tobytes() == np.ascontiguousarray(arrivals[:, perm]).tobytes()
    assert permuted[1].tobytes() == integral[perm].tobytes()


def test_transport_field_rejects_a_flow_that_would_stall():
    # zero velocity never reaches the inflow plane: the field cannot be
    # made, so no route traces it
    g = make_grid(8, 4, 4)
    with pytest.raises(ValueError, match=r"axial transport speed fell to 0 < 1/2"):
        TransportField(g, np.zeros((3, *g.shape)))


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
    # 22 * (0.1 / 22) rounds past 0.1, but the tracer works in cell units,
    # where the last node is 22 exactly: the inflow-plane nodes take the
    # trace with weight exactly 1
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


@pytest.mark.parametrize(
    "solver", ["apply_S", "footprint", "apply_S on two workers", "footprint in blocks of 16"])
def test_every_route_lands_a_slow_uniform_flow_exactly(solver, monkeypatch):
    # axial speed 0.9: the steps in s integrate a unit source to the travel
    # and the last step, in x1, divides it by u~1, so w = w_in + x1 / 0.9.
    # Blocks of at most 16 nodes (15 here) land a few traces at a time.
    if solver.endswith((" on two workers", " in blocks of 16")):
        monkeypatch.setattr(transport, "_BLOCK", 16)
        monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    g = make_grid(8, 4, 4)
    tf = uniform_flow(g, axial=0.9)
    one = ScalarField(g, np.ones(g.shape))
    w_in = smooth_scalar(g, 3, 0.5).values[0]
    if solver.startswith("apply_S"):
        w = apply_S(tf, one, w_in)
    else:
        w = transport_footprint(tf).apply(one, w_in)
    assert np.max(np.abs(w.values - (w_in + g.meshgrid()[0] / 0.9))) <= 1e-13
    assert multiprocessing.active_children() == []


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


@pytest.mark.parametrize("amp, ceilings", [
    (0.01, (5.35e-4, 2.63e-4, 1.18e-4)),
    (0.05, (2.12e-3, 8.02e-4, 1.97e-4)),
])
def test_apply_s_converges_to_exact_density(amp, ceilings):
    # w is exact, v = u~ . grad w at the nodes and w_in = w on x1 = 0; the
    # ceilings are the tracer's sup errors on (16,8,8), (32,16,16) and
    # (64,32,32), up to 5%, and its fitted orders are 1.09 and 1.71
    errs = []
    for n1 in (16, 32, 64):
        g = make_grid(n1, n1 // 2, n1 // 2)
        x1, x2, x3 = g.meshgrid()
        c1, s1 = np.cos(0.5 * np.pi * x1), np.sin(0.5 * np.pi * x1)
        vals = np.stack([
            1.0 + amp * np.sin(np.pi * x2) * np.sin(np.pi * x3) * c1,
            amp * np.sin(np.pi * x2) * np.cos(np.pi * x3) * c1,
            amp * np.cos(np.pi * x2) * np.sin(np.pi * x3) * s1,
        ])
        a, b, c = x1 + 0.5, 2.0 * np.pi * x2, np.pi * x3 + 0.3
        w = 0.05 * np.sin(a) * np.cos(b) * np.cos(c)
        grad_w = 0.05 * np.stack([
            np.cos(a) * np.cos(b) * np.cos(c),
            -2.0 * np.pi * np.sin(a) * np.sin(b) * np.cos(c),
            -np.pi * np.sin(a) * np.cos(b) * np.sin(c),
        ])
        v = ScalarField(g, np.sum(vals * grad_w, axis=0))
        s = apply_S(make_transport_field(g, vals), v, w[0])
        errs.append(float(np.max(np.abs(s.values - w))))
    for err, ceiling in zip(errs, ceilings):
        assert err <= 1.05 * ceiling
    assert -np.polyfit(np.arange(3.0), np.log2(errs), 1)[0] >= 1.0


# ---------------------------------------------------------------------------
# the recorded footprint of the solution operator


# footprints over several blocks are checked in test_block_tracing_is_bit_identical;
# the spacings of (20, 10, 12) are not powers of two
@pytest.mark.parametrize("cells", [(8, 4, 4), (16, 8, 8), (32, 16, 16), (20, 10, 12)])
def test_footprint_reproduces_apply_s(cells):
    g = make_grid(*cells)
    tf = wall_respecting_flow(g, 2e-2)
    fp = transport_footprint(tf)
    for seed in range(3):
        v = smooth_scalar(g, 300 + seed, 0.4)
        w_in = smooth_scalar(g, 400 + seed, 0.4).values[0]
        expected = apply_S(tf, v, w_in).values
        assert np.max(np.abs(fp.apply(v, w_in).values - expected)) <= 1e-13
        assert np.max(np.abs(apply_S(fp, v, w_in).values - expected)) <= 1e-13


@pytest.mark.parametrize("cells", [(8, 4, 4), (16, 8, 8), (9, 5, 7), (12, 6, 10)])
def test_footprint_of_the_inflow_plane_is_its_trace(cells):
    # the inflow-plane nodes come first in flat order; each lies on a
    # lattice node, so its inflow row reads its own trace node with weight
    # 1.0 alone, and it takes nothing from the source.  On (9,5,7) and
    # (12,6,10) some node coordinates j h over h round below j
    g = make_grid(*cells)
    tf = wall_respecting_flow(g, 2e-2)
    fp = transport_footprint(tf)
    plane = g.shape[1] * g.shape[2]
    own = fp.inflow_nodes[:plane] == np.arange(plane)[:, None]
    assert np.all(np.sum(own, axis=1) == 1)
    assert np.array_equal(fp.inflow_weights[:plane], own.astype(float))
    assert all(np.all(mat.row >= plane) for _, mat in fp.terms)
    v = smooth_scalar(g, 600, 0.4)
    w_in = 0.5 + smooth_scalar(g, 601, 0.4).values[0]
    for solver in (tf, fp):
        assert np.array_equal(apply_S(solver, v, w_in).values[0], w_in)


@pytest.mark.parametrize("cells", [(8, 4, 4), (9, 5, 7), (20, 10, 12)])
def test_inflow_stencil_is_a_partition_of_unity(cells):
    # both routes read the inflow plane through the (n, 4) index and weight
    # arrays _bilinear_inflow writes: each row's weights lie in [0, 1] and
    # sum to 1, and each index is a node of the inflow plane
    g = make_grid(*cells)
    tf = wall_respecting_flow(g, 0.1)
    n = g.n_nodes
    kern = _Kernel(g, tf.values / np.reshape(g.h, (3, 1, 1, 1)), None, n)
    arrivals = _trace(kern, transport._block_seeds(g, 0, n))[0]
    idx = np.empty((n, 4), dtype=np.int64)
    w = np.empty((n, 4))
    transport._bilinear_inflow(kern, arrivals, idx, w)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert np.max(np.abs(np.sum(w, axis=1) - 1.0)) <= 4 * np.spacing(1.0)
    assert np.all((idx >= 0) & (idx < g.shape[1] * g.shape[2]))


@pytest.mark.parametrize("cells", [(8, 4, 4), (9, 5, 7), (20, 10, 12)])
def test_cell_lookup_in_floats_matches_integer_cells(cells):
    # _locate keeps its cells as whole floats; random points in and around
    # the duct, every node, and points at, just below and past the far
    # lattice end of each axis get the bases and weights, bit for bit, of
    # the lookup in integer cells
    g = make_grid(*cells)
    n = np.array(cells, dtype=float)[:, None]
    rng = np.random.default_rng(sum(cells))
    ends = []
    for a in range(3):
        end = rng.uniform(0.0, n, (3, 3))
        end[a] = (n[a, 0], np.nextafter(n[a, 0], 0.0), n[a, 0] + 0.25)
        ends.append(end)
    points = np.concatenate(
        [rng.uniform(-0.5, n + 0.5, (3, 500)), transport._block_seeds(g, 0, g.n_nodes), *ends], axis=1)
    m = points.shape[1]
    high, base, low = points.copy(), np.empty(m, dtype=np.intp), np.empty((3, m))
    transport._locate(transport._lattice(g), high, base, low, np.empty(m))
    expected = integer_locate(g, points)
    for got, want in zip((base, high, low), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells", [(16, 8, 8), (9, 5, 7), (20, 10, 12)])
def test_both_routes_read_the_inflow_trace_alike(cells):
    # with no source each node's value is its inflow part alone, which both
    # routes sum through _inflow_part; a trace with negative values gives
    # -0.0 products at zero weights, and the sums still agree byte for byte
    g = make_grid(*cells)
    tf = wall_respecting_flow(g, 2e-2)
    w_in = smooth_scalar(g, 700, 0.4).values[0] - 0.5
    assert np.min(w_in) < 0.0
    v = zeros_scalar(g)
    assert apply_S(tf, v, w_in).values.tobytes() == transport_footprint(tf).apply(v, w_in).values.tobytes()


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_solve_returns_the_inflow_density_trace_exactly(mode):
    # a split sweep applies the step's footprint through apply_S, the
    # monolithic step takes footprint.apply less footprint.source; the
    # inflow-plane rows read the trace alone and take nothing from the
    # source, so either solve holds w_in there bit for bit
    g = make_grid()
    params = FlowParams()
    data = assemble_perturbation_data(g, DataConfig(epsilon=1e-2), params)
    bundle = picard_solve(ProblemSetup(g, params, data, SolverConfig(mode=mode)))
    assert bundle.converged
    assert np.array_equal(bundle.w.values[0], data.w_in)


def test_traced_grid_is_collected_once_dropped():
    # the transport module keeps no grid alive after its callers drop it
    g = make_grid(8, 4, 4)
    tf = wall_respecting_flow(g, 2e-2)
    transport_footprint(tf)
    apply_S(tf, smooth_scalar(g, 700, 0.4), np.zeros(g.shape[1:]))
    alive = weakref.ref(g)
    del g, tf
    gc.collect()
    assert alive() is None


def test_footprint_uniform_flow_constant_cases():
    g = make_grid(8, 4, 4)
    fp = transport_footprint(uniform_flow(g))
    x1 = g.meshgrid()[0]
    for source_val, trace_val in ((0.0, 0.7), (0.3, 0.7)):
        w = fp.apply(ScalarField(g, np.full(g.shape, source_val)), np.full(g.shape[1:], trace_val))
        assert np.max(np.abs(w.values - (trace_val + source_val * x1))) <= 1e-10


def test_transport_field_rejects_malformed_velocity():
    # every way of making a field checks its values, replace included
    g = make_grid(8, 4, 4)
    tf = uniform_flow(g)
    with pytest.raises(ValueError, match=r"transport velocity shape \(3, 9, 5\) != \(3, \*\(9, 5, 5\)\)"):
        TransportField(g, tf.values[:, :, :, 0])
    for comp, bad in ((0, np.inf), (2, np.nan)):
        vals = tf.values.copy()
        vals[comp, 4, 2, 3] = bad
        for make in (lambda: TransportField(g, vals), lambda: dataclasses.replace(tf, values=vals)):
            with pytest.raises(ValueError, match="transport velocity contains non-finite values"):
                make()


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


def test_footprint_records_its_far_share_in_one_child(monkeypatch):
    # (16, 8, 8) is one share, and its build starts no process; (32, 16,
    # 16) is two, and starts none where _workers gives one, and exactly one
    # child, joined before the build returns, where it gives two
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    small, large = make_grid(16, 8, 8), make_grid(32, 16, 16)
    assert transport._shares(small) == [(0, small.n_nodes)]
    assert len(transport._shares(large)) == 2
    transport_footprint(wall_respecting_flow(small, 2e-2))
    assert started == []
    tf = wall_respecting_flow(large, 2e-2)
    monkeypatch.setattr(transport, "_workers", lambda n_blocks: 1)
    transport_footprint(tf)
    assert started == []
    monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    transport_footprint(tf)
    assert len(started) == 1
    assert not started[0].is_alive() and started[0].exitcode == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cells, block", [((32, 16, 16), None), ((40, 20, 20), 2000)],
                         ids=["32x16x16", "40x20x20-blocks-of-2000"])
def test_far_share_traced_in_the_child_or_the_caller_is_bit_identical(cells, block, monkeypatch):
    # the same group stream, inflow stencil and apply wherever the far
    # share is traced; with blocks of at most 2000 nodes each share of
    # (40, 20, 20) is several blocks, and its 402k groups fill two chunks
    if block is not None:
        monkeypatch.setattr(transport, "_BLOCK", block)
    g = make_grid(*cells)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]
    footprints = []
    for workers in (1, 2):
        monkeypatch.setattr(transport, "_workers", lambda n_blocks, k=workers: min(k, n_blocks))
        footprints.append(transport_footprint(tf))
    here, child = footprints
    for a, b in zip(_group_stream(here), _group_stream(child)):
        assert np.array_equal(a, b)
    assert np.array_equal(here.inflow_nodes, child.inflow_nodes)
    assert np.array_equal(here.inflow_weights, child.inflow_weights)
    assert np.array_equal(here.apply(v, w_in).values, child.apply(v, w_in).values)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("end", ["dies", "raises"])
def test_footprint_child_that_fails_fails_the_build(end, monkeypatch):
    # the child tracing the far share exits, or raises, as soon as it
    # starts a block: the build raises a RuntimeError naming the exit code,
    # after the child is joined
    caller = os.getpid()
    trace = transport._trace

    def fail_in_child(*args, **kwargs):
        if os.getpid() != caller:
            if end == "dies":
                os._exit(1)
            raise ValueError("a block failed")
        return trace(*args, **kwargs)

    monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    monkeypatch.setattr(transport, "_trace", fail_in_child)
    with pytest.raises(RuntimeError, match="far share was not recorded: .* exit code 1$"):
        transport_footprint(wall_respecting_flow(make_grid(32, 16, 16), 2e-2))
    assert multiprocessing.active_children() == []


def test_daemonic_process_traces_its_blocks_itself():
    # a daemonic process, such as a multiprocessing.Pool worker, may not
    # start children: there the two blocks of (40, 20, 20), and the two
    # shares of its footprint, are traced in that process, with the same
    # results
    g = make_grid(40, 20, 20)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]

    def both_routes():
        return apply_S(tf, v, w_in).values, transport_footprint(tf).apply(v, w_in).values

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=lambda: send.send(both_routes()), daemon=True)
    proc.start()
    send.close()
    got = recv.recv() if recv.poll(120) else None
    proc.join(120)
    assert proc.exitcode == 0
    for a, b in zip(got, both_routes()):
        assert np.array_equal(a, b)


def test_transport_outputs_match_pinned_digests():
    # sha256 of the float64 bytes of both routes on the case above, recorded
    # when the landing step became one RK4 step in x1.  They change only
    # with a change that is meant to move transport results, and such a
    # change says so in CHANGES.md.
    g = make_grid(32, 16, 16)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]

    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()

    assert digest(apply_S(tf, v, w_in).values) == (
        "0e1e6c53584880962bf342be1b7682d1cb0c4ed69f30511f682e88f6b2124783"
    )
    assert digest(transport_footprint(tf).apply(v, w_in).values) == (
        "4353a66e6453c6e852987b0fced6645fb7b68addedd281bb7524ad16bdee9ff8"
    )


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _group_stream(fp):
    """The recorded groups in stream order: int64 rows and bases and the
    (4, groups) face weights, from the footprint's chunk matrices."""
    terms = [mat for _, mat in fp.terms]
    chunks = [terms[i:i + 4] for i in range(0, len(terms), 4)]  # one matrix per face corner
    rows = np.concatenate([c[0].row for c in chunks]).astype(np.int64)
    bases = np.concatenate([c[0].col for c in chunks]).astype(np.int64)
    weights = np.concatenate([np.stack([mat.data for mat in c]) for c in chunks], axis=1)
    return rows, bases, weights


def _footprint_digests(fp):
    """Chunk count, then sha256 of the group stream in row-stable order
    (rows, bases and the four weight rows, stably sorted on rows), which
    is the same however the stream is chunked and whatever order the
    nodes were traced in, and of the inflow stencil in the byte layout of
    the CSR matrix it was once recorded as: weights and int64 indices row
    by row, and the row pointer 0, 4, 8, ..."""
    rows, bases, weights = _group_stream(fp)
    order = np.argsort(rows, kind="stable")
    indptr = np.arange(0, 4 * fp.grid.n_nodes + 1, 4, dtype=np.int64)
    return (
        len(fp.terms) // 4,
        _sha256(rows[order], bases[order], weights[:, order]),
        _sha256(fp.inflow_weights, fp.inflow_nodes.astype(np.int64), indptr),
    )


@pytest.mark.parametrize("chunk", [None, 4096])
def test_recorded_footprint_matches_pinned_digests(chunk, monkeypatch):
    # sha256 of the footprint recorded on the case above: the group stream
    # in row-stable order (pinned when the build was split into shares, on
    # the code before and after it), the inflow stencil and footprint.apply
    # (both recorded when the landing step became one RK4 step in x1).
    # Chunks of 4096 groups split the stream as (64, 32, 32) does at the
    # default chunk size, and change the sums of apply; their apply digest
    # was pinned again when the near share came to be recorded first, which
    # moved the chunk boundaries.
    if chunk is not None:
        monkeypatch.setattr(transport._SourceRecorder, "CHUNK", chunk)
    g = make_grid(32, 16, 16)
    tf = wall_respecting_flow(g, 2e-2)
    v = smooth_scalar(g, 500, 0.4)
    w_in = smooth_scalar(g, 600, 0.4).values[0]
    fp = transport_footprint(tf)
    assert _footprint_digests(fp) == (
        1 if chunk is None else 43,
        "f4ac5e6e4c736e5b11fab69b04e72c99ff60f8066cec25120dbd54de26bbdabd",
        "bfdf520dc465681df8f083ac3690099a1255e2f2d9bd8e8654c17b9b582af2c9",
    )
    applied = fp.apply(v, w_in).values
    assert _sha256(applied) == {
        None: "4353a66e6453c6e852987b0fced6645fb7b68addedd281bb7524ad16bdee9ff8",
        4096: "5f42159220b94d3fb4ac219739108a491e625c6d7d21a02917f2321211da9834",
    }[chunk]
    if chunk is not None:
        assert np.max(np.abs(applied - apply_S(tf, v, w_in).values)) <= 1e-13


def test_apply_s_matches_the_bisection_landing_oracle():
    # the last step of each trace, taken in x1, lands where a root solve on
    # the size of a step in s lands it, to the step's own error.  The
    # oracle traces in physical coordinates, the solver in cell units:
    # on (20, 10, 12), whose spacings are not powers of two, they round
    # differently
    for cells in ((32, 16, 16), (20, 10, 12)):
        g = make_grid(*cells)
        tf = wall_respecting_flow(g, 2e-2)
        v = smooth_scalar(g, 500, 0.4)
        w_in = smooth_scalar(g, 600, 0.4).values[0]
        expected = bisection_landing_solve(tf, v, w_in)
        assert np.max(np.abs(apply_S(tf, v, w_in).values - expected)) <= 1e-11
        assert np.max(np.abs(transport_footprint(tf).apply(v, w_in).values - expected)) <= 1e-11


@pytest.mark.parametrize("solver", ["apply_S"])  # the one route that starts workers
def test_worker_that_dies_fails_loudly(solver, monkeypatch):
    # blocks of at most 100 nodes on two workers, each of which exits as
    # soon as it starts a block: the pool's BrokenProcessPool is a
    # RuntimeError, and no worker is left
    caller = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != caller, "a block was traced in the calling process"
        os._exit(1)

    monkeypatch.setattr(transport, "_BLOCK", 100)
    monkeypatch.setattr(transport, "_workers", lambda n_blocks: min(2, n_blocks))
    monkeypatch.setattr(transport, "_trace", die)
    g = make_grid(8, 4, 4)
    with pytest.raises(BrokenProcessPool, match="terminated abruptly") as err:
        apply_S(uniform_flow(g), zeros_scalar(g), np.zeros(g.shape[1:]))
    assert isinstance(err.value, RuntimeError)
    assert multiprocessing.active_children() == []


def test_transport_rejection_gives_a_diverged_verdict():
    # a start iterate whose axial speed falls below 1/2 cannot make a
    # transport field: the first linear step fails, and the outer loop
    # ends with a verdict instead of an exception
    g = make_grid(8, 4, 4)
    params = FlowParams()
    data = assemble_perturbation_data(g, DataConfig(epsilon=1e-2), params)
    u = np.zeros((3, *g.shape))
    u[0] = -0.6
    start = (VectorField(g, u), zeros_scalar(g))
    bundle = picard_solve(ProblemSetup(g, params, data, SolverConfig()), start)
    assert bundle.verdict == (
        "diverged(axial transport speed fell to 0.39 < 1/2; "
        "forward progress of characteristics is lost)"
    )
    assert bundle.history == ()


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


@pytest.mark.parametrize("source, message", [
    ((2.0, 4), r"source field shape \(5, 5, 5\) != transport grid shape \(9, 5, 5\)"),
    ((2.0, 16), r"source field shape \(17, 5, 5\) != transport grid shape \(9, 5, 5\)"),
    # the same shape on a longer duct
    ((3.0, 8), r"source field geometry GeometryConfig\(length=3.0, .*\) != "
               r"transport grid geometry GeometryConfig\(length=2.0, .*\)"),
], ids=["4", "16", "3.0 long"])
@pytest.mark.parametrize("route", ["bare apply_S", "apply_S with footprint", "footprint.apply",
                                   "upwind_march"])
def test_every_route_rejects_a_source_from_another_grid(route, source, message):
    g = make_grid(8, 4, 4)
    tf = uniform_flow(g)
    fp = transport_footprint(tf)
    solve = {
        "bare apply_S": lambda v, w: apply_S(tf, v, w),
        "apply_S with footprint": lambda v, w: apply_S(fp, v, w),
        "footprint.apply": fp.apply,
        "upwind_march": lambda v, w: upwind_march(tf, v, w),
    }[route]
    length, n1 = source
    v = smooth_scalar(build_grid(GeometryConfig(length, 1.0, 1.0, n1, 4, 4)), 500, 0.4)
    with pytest.raises(ValueError, match=message):
        solve(v, np.zeros(g.shape[1:]))


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


@pytest.mark.parametrize(
    "cells, flow, expected",
    [
        # the values the estimate gave when it stepped the tracer's RK4
        # kernel, on the flows of criterion 06 and of the tests above
        ((16, 8, 8), lambda g: wall_respecting_flow(g, 1e-2), 0.05549348837909274),
        ((8, 4, 4), lambda g: wall_respecting_flow(g, 5e-3), 0.017886132222521),
        ((8, 4, 4), lambda g: uniform_flow(g), 0.0),
        ((16, 8, 8), lambda g: uniform_flow(g, axial=1.0 + 1e-2 * np.sin(np.pi * g.meshgrid()[1])),
         0.010000000000000009),
        ((16, 8, 8), lambda g: uniform_flow(g, axial=1.0 + 1e-2 * g.meshgrid()[0]),
         0.019563913405807654),
    ],
    ids=["criterion 06 flow", "estimate flow", "identity", "shear", "accelerating"],
)
def test_jacobian_oracle_matches_tracer_kernel_values(cells, flow, expected):
    assert abs(jacobian_bound(flow(make_grid(*cells))) - expected) <= 1e-13


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
