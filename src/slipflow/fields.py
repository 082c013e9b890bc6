"""Node fields on a tensor grid plus the discrete calculus used everywhere.

Derivatives are second order: central differences at interior nodes and
3-point (first) / 4-point (second derivative) one-sided stencils on the
boundary.  Volume quadrature is the tensor trapezoid rule; boundary
quadrature reuses the edge-free face weights of the grid's faces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, Face, REGIONS


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"scalar field shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite values")


@dataclass(frozen=True, eq=False)
class VectorField:
    grid: Grid
    values: np.ndarray  # shape (3, n1+1, n2+1, n3+1)

    def __post_init__(self):
        if self.values.shape != (3, *self.grid.shape):
            raise ValueError(
                f"vector field shape {self.values.shape} != (3, *{self.grid.shape})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vector field contains non-finite values")


def zeros_scalar(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape))


def zeros_vector(grid: Grid) -> VectorField:
    return VectorField(grid, np.zeros((3, *grid.shape)))


# ---------------------------------------------------------------------------
# stencils on bare arrays

def diff1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along an axis: central inside, 3-point one-sided
    at the two boundary slabs.  Exact on quadratics."""
    out = np.empty_like(values, dtype=float)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def diff2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along an axis: central inside, 4-point one-sided
    at the boundary slabs.  Exact on quadratics."""
    out = np.empty_like(values, dtype=float)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    h2 = h * h
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


def onesided_normal_d1(values: np.ndarray, face: Face, h: float) -> np.ndarray:
    """Outward normal derivative of a node array restricted to a face,
    using the same 3-point one-sided stencil as diff1.  Returns the 2D
    face slab d(values)/dn."""
    v = np.moveaxis(values, face.axis, 0)
    if face.side < 0:
        # outward is -axis: dv/dn = -dv/dx_a one-sided from below
        return (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * h)
    return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)


# ---------------------------------------------------------------------------
# differential operators on fields

def grad_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    return np.stack([diff1(values, grid.h[a], a) for a in range(3)])


def div_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a stacked (3, ...) array."""
    return sum(diff1(values[a], grid.h[a], a) for a in range(3))


def grad_tensor(u: VectorField) -> np.ndarray:
    """Full gradient, G[c, d] = d(u_c)/d(x_d), shape (3, 3, *grid.shape)."""
    return np.stack([grad_array(u.values[c], u.grid) for c in range(3)])


def sym_gradient(u: VectorField) -> np.ndarray:
    """Rate-of-strain tensor D(u) = (grad u + grad u^T)/2."""
    g = grad_tensor(u)
    return 0.5 * (g + np.swapaxes(g, 0, 1))


def divergence(u: VectorField) -> ScalarField:
    return ScalarField(u.grid, div_array(u.values, u.grid))


def curl(u: VectorField) -> VectorField:
    g = u.grid
    d = lambda c, a: diff1(u.values[c], g.h[a], a)
    vals = np.stack(
        [
            d(2, 1) - d(1, 2),
            d(0, 2) - d(2, 0),
            d(1, 0) - d(0, 1),
        ]
    )
    return VectorField(g, vals)


def laplacian_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    return sum(diff2(values, grid.h[a], a) for a in range(3))


def grad_div_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """grad(div u) for a stacked (3, ...) array, second order up to the walls.

    Diagonal terms d_c d_c u_c use the second-difference stencil directly;
    mixed terms d_c d_a u_a (a != c) compose first differences along the two
    distinct axes.  Differencing div u itself would cross the seam between
    one-sided and central inner stencils and drop an order one node in from
    each wall.
    """
    out = np.empty_like(values)
    first = [diff1(values[a], grid.h[a], a) for a in range(3)]
    for c in range(3):
        acc = diff2(values[c], grid.h[c], c)
        for a in range(3):
            if a != c:
                acc += diff1(first[a], grid.h[c], c)
        out[c] = acc
    return out


def advect(conv: np.ndarray, values: np.ndarray, grid: Grid) -> np.ndarray:
    """(conv . grad) values for a stacked (3, ...) convecting array and a
    scalar node array."""
    return sum(conv[a] * diff1(values, grid.h[a], a) for a in range(3))


# ---------------------------------------------------------------------------
# norms

@dataclass(frozen=True)
class NormKind:
    kind: str
    p: float = 4.0  # the Sobolev exponent of the strong norms, by default

    @classmethod
    def lp(cls, p: float) -> "NormKind":
        return cls("lp", p)

    @classmethod
    def w1p(cls, p: float) -> "NormKind":
        return cls("w1p", p)

    @classmethod
    def w2p(cls, p: float) -> "NormKind":
        return cls("w2p", p)

    @classmethod
    def h1(cls) -> "NormKind":
        return cls("h1", 2.0)

    @classmethod
    def linf_l2(cls) -> "NormKind":
        return cls("linf_l2", 2.0)


def _check_p(p: float):
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"norm exponent p must be >= 1, got {p!r}")


def _component_arrays(f: ScalarField | VectorField) -> list[np.ndarray]:
    if isinstance(f, ScalarField):
        return [f.values]
    return [f.values[c] for c in range(3)]


def _lp_pow(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float(np.sum(weights * np.abs(values) ** p))


def _w1p_pow(comp: np.ndarray, grid: Grid, weights: np.ndarray, p: float) -> float:
    total = _lp_pow(comp, weights, p)
    for a in range(3):
        total += _lp_pow(diff1(comp, grid.h[a], a), weights, p)
    return total


def _w2p_pow(comp: np.ndarray, grid: Grid, weights: np.ndarray, p: float) -> float:
    if min(grid.shape) < 5:
        raise ValueError("W2p norm needs at least 5 nodes per axis")
    total = _w1p_pow(comp, grid, weights, p)
    for a in range(3):
        total += _lp_pow(diff2(comp, grid.h[a], a), weights, p)
    for a in range(3):
        da = diff1(comp, grid.h[a], a)
        for b in range(a + 1, 3):
            total += _lp_pow(diff1(da, grid.h[b], b), weights, p)
    return total


def _linf_l2(f: ScalarField | VectorField) -> float:
    g = f.grid
    w = g.axis_weights(1)[:, None] * g.axis_weights(2)[None, :]
    total = np.zeros(g.shape[0])
    for comp in _component_arrays(f):
        total += np.einsum("ijk,jk->i", comp**2, w)
    return float(np.sqrt(np.max(total)))


def norm(f: ScalarField | VectorField, kind: NormKind) -> float:
    """Evaluate a discrete norm of a field."""
    _check_p(kind.p)
    grid = f.grid
    comps = _component_arrays(f)

    if kind.kind == "lp":
        w = grid.volume_weights()
        return float(sum(_lp_pow(c, w, kind.p) for c in comps) ** (1.0 / kind.p))
    if kind.kind == "w1p":
        w = grid.volume_weights()
        return float(sum(_w1p_pow(c, grid, w, kind.p) for c in comps) ** (1.0 / kind.p))
    if kind.kind == "w2p":
        w = grid.volume_weights()
        return float(sum(_w2p_pow(c, grid, w, kind.p) for c in comps) ** (1.0 / kind.p))
    if kind.kind == "h1":
        w = grid.volume_weights()
        return float(sum(_w1p_pow(c, grid, w, 2.0) for c in comps) ** 0.5)
    if kind.kind == "linf_l2":
        return _linf_l2(f)
    raise ValueError(f"unknown norm kind {kind.kind!r}")


# ---------------------------------------------------------------------------
# trace norms over faces; `values_by_face` maps face name -> 2D array or a
# stacked (C, m, n) array of components.

def _face_stack(vals: np.ndarray) -> np.ndarray:
    v = np.asarray(vals, dtype=float)
    return v[None] if v.ndim == 2 else v


def face_lp_pow(face: Face, vals: np.ndarray, p: float) -> float:
    v = _face_stack(vals)
    return float(sum(_lp_pow(v[c], face.weights, p) for c in range(v.shape[0])))


def face_grad_pow(face: Face, vals: np.ndarray, p: float) -> float:
    """Sum of p-powers of the two in-face tangential derivatives."""
    v = _face_stack(vals)
    total = 0.0
    for c in range(v.shape[0]):
        total += _lp_pow(diff1(v[c], face.spacings[0], 0), face.weights, p)
        total += _lp_pow(diff1(v[c], face.spacings[1], 1), face.weights, p)
    return float(total)


# rows of node pairs face_gagliardo_pow sums at a time: its work arrays
# hold _PAIR_ROWS times the face's node count, whatever the face size
_PAIR_ROWS = 64


def face_gagliardo_pow(face: Face, vals: np.ndarray, p: float) -> float:
    """Double-sum fractional seminorm of order 1 - 1/p on one face,
    |x - y| exponent 2 + p(1 - 1/p) = p + 1.  Node pairs never cross
    faces; ring nodes carry zero weight and are skipped.  The summand is
    symmetric, so each unordered pair is summed once, _PAIR_ROWS rows at
    a time, and counted twice."""
    v = _face_stack(vals)
    t1, t2 = np.meshgrid(face.coords[0], face.coords[1], indexing="ij")
    w = face.weights.ravel()
    keep = w > 0.0
    w, x, y = w[keep], t1.ravel()[keep], t2.ravel()[keep]
    g = v.reshape(v.shape[0], -1)[:, keep]
    total = 0.0
    for lo in range(0, w.size, _PAIR_ROWS):
        rows = slice(lo, min(lo + _PAIR_ROWS, w.size))
        # the pairs (i, j) with i in rows and j > i
        d2 = (x[rows, None] - x[None, lo:]) ** 2 + (y[rows, None] - y[None, lo:]) ** 2
        d2[np.tril_indices(rows.stop - lo)] = np.inf  # j <= i: zero kernel
        kernel = (w[rows, None] * w[None, lo:]) / d2 ** (0.5 * (p + 1.0))
        for c in range(g.shape[0]):
            total += float(np.sum(kernel * np.abs(g[c, rows, None] - g[c, None, lo:]) ** p))
    return 2.0 * total


def face_w1p_norm(face: Face, vals: np.ndarray, p: float) -> float:
    """In-face Sobolev norm of boundary data (used for the inflow trace)."""
    _check_p(p)
    return float((face_lp_pow(face, vals, p) + face_grad_pow(face, vals, p)) ** (1.0 / p))


def trace_gagliardo_norm(grid: Grid, values_by_face, p: float) -> float:
    """Fractional trace norm of data on every face: the sum of the three
    region norms, each (sum over its faces of Lp^p + seminorm^p)^(1/p);
    regions are never mixed across edges."""
    _check_p(p)
    total = 0.0
    for reg in REGIONS:
        acc = 0.0
        for fc in grid.region_faces(reg):
            vals = values_by_face[fc.name]
            acc += face_lp_pow(fc, vals, p) + face_gagliardo_pow(fc, vals, p)
        total += acc ** (1.0 / p)
    return float(total)


def interior_weights(grid: Grid) -> np.ndarray:
    """Volume trapezoid weights zeroed on all boundary nodes."""
    w = grid.volume_weights()
    w[0, :, :] = 0.0
    w[-1, :, :] = 0.0
    w[:, 0, :] = 0.0
    w[:, -1, :] = 0.0
    w[:, :, 0] = 0.0
    w[:, :, -1] = 0.0
    return w


def interior_l2(values: np.ndarray, grid: Grid) -> float:
    """L2 over interior nodes of a node array or stacked components."""
    w = interior_weights(grid)
    v = np.asarray(values, dtype=float)
    if v.ndim == 4:
        return float(np.sqrt(sum(np.sum(w * v[c] ** 2) for c in range(v.shape[0]))))
    return float(np.sqrt(np.sum(w * v**2)))
