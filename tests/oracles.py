"""Reference computations that tests share and no command runs.

Test modules import them as ``from oracles import ...``: pytest puts this
directory on sys.path when it collects a test module from it.
"""
from pathlib import Path

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from slipflow import lame
from slipflow.fields import (
    NormKind, ScalarField, VectorField, diff1, diff2, div_array, grad_array, norm, strong_size,
    zeros_scalar, zeros_vector,
)
from slipflow.grid import GeometryConfig, build_grid
from slipflow.material import FlowParams
from slipflow.picard import ProblemSetup, picard_solve
from slipflow.runio import HISTORY_COLUMNS
from slipflow.transport import TransportField, apply_S, make_transport_field, transport_footprint


# ---------------------------------------------------------------------------
# small cases: grid and physics, zero slip data, seeded smooth fields

def make_setup(n1=8, n2=4, n3=4):
    return build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n2, n3)), FlowParams()


def zero_slip(grid):
    """Zero slip data, a (2, m, n) array per face."""
    return {face.name: np.zeros((2, *(c.size for c in face.coords))) for face in grid.faces}


def smooth_scalar(grid, seed, amp):
    """Sum of four seeded cosine products, scaled to sup norm amp."""
    rng = np.random.default_rng(seed)
    x1, x2, x3 = grid.meshgrid()
    vals = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(0, 3, size=3)
        vals += rng.normal() * np.cos(k[0] * x1) * np.cos(k[1] * x2 + 0.3) * np.cos(k[2] * x3 - 0.2)
    m = np.max(np.abs(vals))
    return ScalarField(grid, amp * vals / max(m, 1e-30))


def smooth_vector(grid, seed, amp=0.1):
    """Three components, each a sum of three seeded cosine products times amp."""
    rng = np.random.default_rng(seed)
    x1, x2, x3 = grid.meshgrid()
    comps = []
    for _ in range(3):
        v = np.zeros(grid.shape)
        for _ in range(3):
            k = rng.integers(0, 3, size=3)
            v += rng.normal() * np.cos(k[0] * x1) * np.cos(k[1] * x2 + 0.4) * np.cos(k[2] * x3)
        comps.append(amp * v)
    return VectorField(grid, np.stack(comps))


def wall_respecting_flow(grid, eps):
    """Smooth advecting field with exactly zero wall-normal trace."""
    x1, x2, x3 = grid.meshgrid()
    vals = np.empty((3, *grid.shape))
    vals[0] = 1.0 + eps * np.sin(0.5 * np.pi * x1) * np.sin(np.pi * x2)
    vals[1] = eps * np.sin(np.pi * x2) * np.cos(np.pi * x3)
    vals[2] = eps * np.sin(np.pi * x3) * np.cos(0.5 * np.pi * x1)
    return make_transport_field(grid, vals)


# ---------------------------------------------------------------------------
# history.csv read back

def load_history(path) -> list[dict]:
    """history.csv as one dict per row: n an int, the verdict a string
    (it may hold commas), the other columns floats."""
    header, *lines = Path(path).read_text().splitlines()
    assert header == ", ".join(HISTORY_COLUMNS)
    return [{"n": int(n), **dict(zip(HISTORY_COLUMNS[1:6], map(float, cells))), "verdict": verdict}
            for n, *cells, verdict in (line.split(", ", 6) for line in lines)]


# ---------------------------------------------------------------------------
# uniqueness of the fixed point

def random_small_start(
    setup: ProblemSetup, seed: int, size: float | None = None
) -> tuple[VectorField, ScalarField]:
    """Smooth seeded start with strong-norm size min(size, b_measure).

    Used by the uniqueness check: the fixed point should not depend on
    where the iteration begins, as long as it begins small.
    """
    rng = np.random.default_rng(seed)
    x1, x2, x3 = setup.grid.meshgrid()
    comps = []
    for _ in range(4):
        v = np.zeros(setup.grid.shape)
        for _ in range(3):
            k = rng.integers(0, 3, size=3)
            v += rng.normal() * np.cos(k[0] * x1) * np.cos(k[1] * x2 + 0.2) * np.cos(
                k[2] * x3 - 0.4
            )
        comps.append(v)
    u = VectorField(setup.grid, np.stack(comps[:3]))
    w = ScalarField(setup.grid, comps[3])
    target = setup.data.b_measure if size is None else min(size, setup.data.b_measure)
    a0 = strong_size(u, w, setup.solver.p)
    if a0 == 0.0 or target == 0.0:
        return zeros_vector(setup.grid), zeros_scalar(setup.grid)
    scale = target / a0
    return (
        VectorField(setup.grid, scale * u.values),
        ScalarField(setup.grid, scale * w.values),
    )


def two_start_uniqueness(
    setup: ProblemSetup,
    start1: tuple[VectorField, ScalarField] | None = None,
    start2: tuple[VectorField, ScalarField] | None = None,
) -> float:
    """Distance between fixed points reached from two starts.

    Measured in H1 for velocity plus plain L2 for density, the metric the
    uniqueness argument contracts in.
    """
    run1 = picard_solve(setup, start1)
    run2 = picard_solve(setup, start2)
    if not (run1.converged and run2.converged):
        raise RuntimeError(
            "uniqueness check needs two converged runs, got "
            f"{run1.verdict!r} and {run2.verdict!r}"
        )
    du = norm(
        VectorField(setup.grid, run1.u.values - run2.u.values), NormKind.h1()
    )
    dw = norm(
        ScalarField(setup.grid, run1.w.values - run2.w.values), NormKind.lp(2.0)
    )
    return du + dw


# ---------------------------------------------------------------------------
# volume distortion of the characteristic flow

def jacobian_bound(tf: TransportField) -> float:
    """Estimate sup |J - 1| of the inflow-seeded characteristic map.

    Seeds every node of the inflow plane and marches forward with RK4
    steps of min(h) / 2, sampling u~ trilinearly at points clamped to the
    closed duct.  At every step J = det[u~(x), dx/dz2, dx/dz3] is formed
    by central differences across neighboring traces.  A trace stops once
    it reaches the outflow plane, and a sample is discarded once any trace
    in its stencil has stopped.
    """
    g = tf.grid
    ext = np.array(g.config.extents)
    sample = RegularGridInterpolator(
        g.axes, np.moveaxis(tf.values, 0, -1), bounds_error=False, fill_value=None
    )

    def velocity(p: np.ndarray) -> np.ndarray:
        return sample(np.clip(p, 0.0, ext))

    ds = min(g.h) / 2.0
    length = g.config.length
    max_steps = int(np.ceil(8.0 * length / ds)) + 1
    n2, n3 = g.shape[1], g.shape[2]
    z2, z3 = np.meshgrid(g.axes[1], g.axes[2], indexing="ij")
    pos = np.stack([np.zeros(n2 * n3), z2.ravel(), z3.ravel()], axis=1)
    exited = np.zeros(n2 * n3, dtype=bool)

    def distortion() -> float:
        p = pos.reshape(n2, n3, 3)
        ex = exited.reshape(n2, n3)
        ok = ~(ex[1:-1, 1:-1] | ex[:-2, 1:-1] | ex[2:, 1:-1] | ex[1:-1, :-2] | ex[1:-1, 2:])
        if not np.any(ok):
            return 0.0
        c1 = velocity(p[1:-1, 1:-1])
        c2 = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * g.h[1])
        c3 = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * g.h[2])
        det = np.linalg.det(np.stack([c1, c2, c3], axis=-1))
        return float(np.max(np.abs(det - 1.0)[ok]))

    worst = distortion()
    for _ in range(max_steps):
        live = np.flatnonzero(~exited)
        if live.size == 0:
            break
        p = pos[live]
        k1 = velocity(p)
        k2 = velocity(p + 0.5 * ds * k1)
        k3 = velocity(p + 0.5 * ds * k2)
        k4 = velocity(p + ds * k3)
        pos[live] = p + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        exited[live] = pos[live, 0] >= length - 1e-12
        np.clip(pos[:, 1:], 0.0, ext[1:], out=pos[:, 1:])
        worst = max(worst, distortion())
    return worst


# ---------------------------------------------------------------------------
# the cell lookup of transport._locate in integer cells

def integer_locate(grid, p: np.ndarray):
    """(base, high, low) of (3, m) points in cell units, located as
    transport._locate was before it kept its cells as floats: the cells
    are int64, clamped to the last cell as integers and subtracted from
    the clamped points, and the flat base is an integer dot."""
    cells = np.array(grid.config.cells)[:, None]
    _, n2, n3 = grid.shape
    p = np.clip(p, 0.0, cells.astype(float))
    cell = np.minimum(p.astype(np.int64), cells - 1)
    high = p - cell
    return np.dot(np.array((n2 * n3, n3, 1), dtype=np.int64), cell), high, 1.0 - high


# ---------------------------------------------------------------------------
# Sobolev p-powers with every derivative taken afresh

def sobolev_pows(comp: np.ndarray, grid, weights: np.ndarray, p: float) -> tuple[float, float]:
    """The W1p and W2p p-powers of one component as fields summed them
    before the W2p norm took each first derivative once: every derivative
    is taken afresh, and the sums run in the same order."""
    def lp(values):
        return float(np.sum(weights * np.abs(values) ** p))

    w1p = lp(comp)
    for a in range(3):
        w1p += lp(diff1(comp, grid.h[a], a))
    w2p = w1p
    for a in range(3):
        w2p += lp(diff2(comp, grid.h[a], a))
    for a in range(3):
        da = diff1(comp, grid.h[a], a)
        for b in range(a + 1, 3):
            w2p += lp(diff1(da, grid.h[b], b))
    return w1p, w2p


# ---------------------------------------------------------------------------
# characteristics landed by bisection

def bisection_landing_solve(tf: TransportField, v: ScalarField, w_in: np.ndarray) -> np.ndarray:
    """Nodal solution of u~.grad(w) = v with trace w_in, traced to the
    inflow plane and landed there by a root solve.

    Every node takes backward RK4 steps of min(h) / 2 in the travel
    parameter s, with u~ and v sampled trilinearly at points clamped to
    the closed duct, until a step would cross x1 = 0.  A 52-step bisection
    on the size of that last step then lands it on x1 = 0.  The value is
    w_in, interpolated bilinearly at the arrival, plus the path integral
    of v.
    """
    g = tf.grid
    ext = np.array(g.config.extents)
    fields = RegularGridInterpolator(
        g.axes, np.moveaxis(np.concatenate([tf.values, v.values[None]]), 0, -1),
        bounds_error=False, fill_value=None,
    )

    def step(p: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
        s = np.reshape(s, (-1, 1))
        k1 = fields(np.clip(p, 0.0, ext))
        k2 = fields(np.clip(p - 0.5 * s * k1[:, :3], 0.0, ext))
        k3 = fields(np.clip(p - 0.5 * s * k2[:, :3], 0.0, ext))
        k4 = fields(np.clip(p - s * k3[:, :3], 0.0, ext))
        k = s / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return p - k[:, :3], k[:, 3]

    ds = min(g.h) / 2.0
    pos = np.stack([c.ravel() for c in g.meshgrid()], axis=1)
    integral = np.zeros(len(pos))
    live = np.flatnonzero(pos[:, 0] > 0.0)
    waiting = []  # each trace waits where its next step would cross x1 = 0
    while live.size:
        new, inc = step(pos[live], ds)
        crossing = new[:, 0] <= 0.0
        waiting.append(live[crossing])
        live = live[~crossing]
        pos[live] = np.clip(new[~crossing], 0.0, ext)
        integral[live] += inc[~crossing]
    land = np.concatenate(waiting)
    lo, hi = np.zeros(land.size), np.full(land.size, ds)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        over = step(pos[land], mid)[0][:, 0] <= 0.0
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    new, inc = step(pos[land], 0.5 * (lo + hi))
    pos[land] = np.clip(new, 0.0, ext)
    pos[land, 0] = 0.0
    integral[land] += inc
    inflow = RegularGridInterpolator(g.axes[1:], w_in, bounds_error=False, fill_value=None)
    return (inflow(pos[:, 1:]) + integral).reshape(g.shape)


# ---------------------------------------------------------------------------
# split sweeps with exact momentum solves

def full_solve_split_step(
    op, convect, forcing, continuity_forcing, slip_data, w_in,
    mode="split", inner_tol=lame.INNER_TOL, start=None,
) -> lame.LinearStepResult:
    """The split linear step with every sweep's momentum rows solved to
    lame.krylov_tol(inner_tol), warm-started from the last sweep's u;
    otherwise the alternation of lame.solve_linear_step (same stopping
    rule, sweep cap and transport footprint), whose signature it takes so
    that it can stand in for it under picard_solve."""
    assert mode == "split"
    grid = op.grid
    tf_values = convect.values.copy()
    tf_values[0] += 1.0
    footprint = transport_footprint(make_transport_field(grid, tf_values))
    if start is None:
        u, w = zeros_vector(grid), zeros_scalar(grid)
    else:
        u, w = start
    total_iters = 0
    for sweep in range(1, lame.MAX_SWEEPS + 1):
        rhs_u = forcing.values - op.params.pressure.gamma * grad_array(w.values, grid)
        u_new, iters, res = lame.solve_momentum(
            op, lame._momentum_rhs(op, rhs_u, slip_data), lame.krylov_tol(inner_tol), x0=u
        )
        total_iters += iters
        src = continuity_forcing.values - div_array(u_new.values, grid)
        w_new = apply_S(footprint, ScalarField(grid, src), w_in)
        delta = norm(VectorField(grid, u_new.values - u.values), NormKind.h1()) + norm(
            ScalarField(grid, w_new.values - w.values), NormKind.linf_l2()
        )
        u, w = u_new, w_new
        if delta < inner_tol:
            return lame.LinearStepResult(u, w, total_iters, res, sweep)
    raise RuntimeError(f"split sweeps did not reach {inner_tol:g} within {lame.MAX_SWEEPS}")
