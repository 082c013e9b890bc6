import tracemalloc

import numpy as np
import pytest

from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    grad_array,
    divergence,
    curl,
    laplacian_array,
    grad_div_array,
    diff1,
    diff2,
    interior_l2,
    face_lp_pow,
    face_gagliardo_pow,
    trace_gagliardo_norm,
)


def slice_l2(f: ScalarField, i: int) -> float:
    """L2 norm of one x1 = const cross-section (full 2D trapezoid)."""
    g = f.grid
    w = g.axis_weights(1)[:, None] * g.axis_weights(2)[None, :]
    return float(np.sqrt(np.sum(w * f.values[i] ** 2)))


def boundary_lp_norm(grid, values_by_face, region: str, p: float) -> float:
    """Lp norm of boundary data over the faces of one region."""
    faces = grid.region_faces(region)
    total = sum(face_lp_pow(fc, values_by_face[fc.name], p) for fc in faces)
    return float(total ** (1.0 / p))


def make_grid(n1=8, n2=8, n3=8, length=2.0, width2=1.0, width3=1.0):
    return build_grid(GeometryConfig(length, width2, width3, n1, n2, n3))


def smooth_random_scalar(grid, seed):
    """Random low-frequency field: a handful of separable cosine modes."""
    rng = np.random.default_rng(seed)
    x1, x2, x3 = grid.meshgrid()
    vals = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(0, 3, size=3)
        amp = rng.normal()
        vals += amp * np.cos(k[0] * x1) * np.cos(k[1] * x2 + 0.3) * np.cos(k[2] * x3 - 0.2)
    return ScalarField(grid, vals)


def face_values(f):
    """A scalar field's trace on every face, by face name."""
    return {face.name: face.take(f.values) for face in f.grid.faces}


def on_region(grid, values_by_face, region: str):
    """Boundary data kept on the faces of one region, zero elsewhere: its
    trace norm over every face is that region's alone."""
    inside = {fc.name for fc in grid.region_faces(region)}
    return {name: vals if name in inside else np.zeros_like(vals)
            for name, vals in values_by_face.items()}


def smooth_random_vector(grid, seed):
    comps = [smooth_random_scalar(grid, seed + 11 * c).values for c in range(3)]
    return VectorField(grid, np.stack(comps))


# ---------------------------------------------------------------------------
# derivative operators


def test_gradient_exact_on_affine():
    g = make_grid()
    x1, x2, x3 = g.meshgrid()
    f = ScalarField(g, 1.5 + 2.0 * x1 - 3.0 * x2 + 0.25 * x3)
    grad = grad_array(f.values, g)
    assert np.allclose(grad[0], 2.0, atol=1e-13)
    assert np.allclose(grad[1], -3.0, atol=1e-13)
    assert np.allclose(grad[2], 0.25, atol=1e-13)


def test_stencils_exact_on_quadratics():
    g = make_grid(6, 5, 7)
    x1, _, _ = g.meshgrid()
    v = 0.7 * x1**2 - 1.2 * x1 + 0.3
    d = diff1(v, g.h[0], 0)
    assert np.max(np.abs(d - (1.4 * x1 - 1.2))) <= 1e-12
    d2 = diff2(v, g.h[0], 0)
    assert np.max(np.abs(d2 - 1.4)) <= 1e-11


def test_gradient_second_order_including_boundary():
    errs = []
    for n in (8, 16):
        g = make_grid(n, 4, 4)
        x1 = g.meshgrid()[0]
        f = ScalarField(g, np.sin(np.pi * x1 / 2.0))
        d = grad_array(f.values, g)[0]
        exact = 0.5 * np.pi * np.cos(np.pi * x1 / 2.0)
        errs.append(np.max(np.abs(d - exact)))
    assert errs[0] / errs[1] >= 3.0  # second order: ratio about 4


def test_curl_of_gradient_vanishes_at_interior_nodes():
    g = make_grid(8, 6, 7)
    for seed in range(5):
        f = smooth_random_scalar(g, seed)
        c = curl(VectorField(g, grad_array(f.values, g))).values
        scale = max(1.0, np.max(np.abs(f.values)))
        assert np.max(np.abs(c[:, 1:-1, 1:-1, 1:-1])) <= 1e-13 * scale


def test_divergence_of_curl_vanishes_at_interior_nodes():
    g = make_grid(8, 6, 7)
    for seed in range(5):
        u = smooth_random_vector(g, 100 + seed)
        d = divergence(curl(u)).values
        scale = max(1.0, np.max(np.abs(u.values)))
        assert np.max(np.abs(d[1:-1, 1:-1, 1:-1])) <= 1e-13 * scale


def test_laplacian_second_order():
    errs = []
    for n in (8, 16):
        g = make_grid(2 * n, n, n)
        x1, x2, _ = g.meshgrid()
        f = ScalarField(g, np.sin(np.pi * x1 / 2.0) * np.cos(np.pi * x2))
        lap = laplacian_array(f.values, g)
        exact = -(np.pi**2 / 4.0 + np.pi**2) * f.values
        errs.append(np.max(np.abs(lap - exact)))
    assert errs[0] / errs[1] >= 3.0


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_of_constant():
    g = make_grid()  # volume 2
    f = ScalarField(g, np.full(g.shape, 3.0))
    assert abs(norm(f, NormKind.lp(4.0)) - 3.0 * 2.0 ** 0.25) <= 1e-12
    assert abs(norm(f, NormKind.lp(2.0)) - 3.0 * np.sqrt(2.0)) <= 1e-12


def test_l2_norm_of_axial_coordinate():
    # f = x1 on [0,2]x[0,1]^2: ||f||_L2 = sqrt(8/3)
    g = make_grid(32, 8, 8)
    f = ScalarField(g, g.meshgrid()[0])
    assert abs(norm(f, NormKind.lp(2.0)) - np.sqrt(8.0 / 3.0)) <= 1e-3


def test_w14_norm_of_axial_coordinate():
    # ||x1||_W14^4 = int x1^4 + int |d1 x1|^4 = 32/5 + 2 over the default duct
    g = make_grid(32, 8, 8)
    f = ScalarField(g, g.meshgrid()[0])
    exact = (32.0 / 5.0 + 2.0) ** 0.25
    assert abs(norm(f, NormKind.w1p(4.0)) - exact) <= 2e-3 * exact


def test_norm_homogeneity():
    g = make_grid()
    f = smooth_random_scalar(g, 7)
    scaled = ScalarField(g, -2.5 * f.values)
    for kind in (NormKind.lp(4.0), NormKind.w1p(3.0), NormKind.w2p(4.0),
                 NormKind.h1(), NormKind.linf_l2()):
        n1 = norm(f, kind)
        n2 = norm(scaled, kind)
        assert abs(n2 - 2.5 * n1) <= 1e-11 * max(1.0, n1)
    n1 = boundary_lp_norm(g, face_values(f), "lateral", 4.0)
    n2 = boundary_lp_norm(g, face_values(scaled), "lateral", 4.0)
    assert abs(n2 - 2.5 * n1) <= 1e-11 * max(1.0, n1)
    n1 = trace_gagliardo_norm(g, on_region(g, face_values(f), "inflow"), 4.0)
    n2 = trace_gagliardo_norm(g, on_region(g, face_values(scaled), "inflow"), 4.0)
    assert abs(n2 - 2.5 * n1) <= 1e-11 * max(1.0, n1)


def test_sobolev_ladder_monotone():
    g = make_grid()
    for seed in range(4):
        f = smooth_random_scalar(g, 20 + seed)
        lp = norm(f, NormKind.lp(4.0))
        w1 = norm(f, NormKind.w1p(4.0))
        w2 = norm(f, NormKind.w2p(4.0))
        assert lp <= w1 <= w2


def test_linf_l2_is_max_of_slices():
    g = make_grid()
    f = smooth_random_scalar(g, 3)
    slices = [slice_l2(f, i) for i in range(g.shape[0])]
    assert abs(norm(f, NormKind.linf_l2()) - max(slices)) <= 1e-13


def test_slice_l2_of_unit_field():
    g = make_grid()
    f = ScalarField(g, np.ones(g.shape))
    for i in (0, 3, g.shape[0] - 1):
        assert abs(slice_l2(f, i) - 1.0) <= 1e-13


def test_boundary_lp_of_constant():
    g = make_grid()
    vals = face_values(ScalarField(g, np.full(g.shape, 2.0)))
    # lateral area = 2*(2*1) + 2*(2*1) = 8
    assert abs(boundary_lp_norm(g, vals, "lateral", 4.0) - 2.0 * 8.0 ** 0.25) <= 1e-12
    assert abs(boundary_lp_norm(g, vals, "inflow", 2.0) - 2.0) <= 1e-12


def test_trace_gagliardo_constant_reduces_to_boundary_lp():
    g = make_grid()
    vals = face_values(ScalarField(g, np.full(g.shape, 1.5)))
    for region in ("inflow", "outflow", "lateral"):
        tg = trace_gagliardo_norm(g, on_region(g, vals, region), 4.0)
        bl = boundary_lp_norm(g, vals, region, 4.0)
        assert abs(tg - bl) <= 1e-12


def test_trace_gagliardo_positive_for_varying_trace():
    g = make_grid()
    x1 = g.meshgrid()[0]
    vals = face_values(ScalarField(g, x1))
    tg = trace_gagliardo_norm(g, on_region(g, vals, "lateral"), 4.0)
    bl = boundary_lp_norm(g, vals, "lateral", 4.0)
    assert tg > bl


def dense_gagliardo_pow(face, vals, p):
    """The seminorm's double sum over all ordered node pairs at once, in
    full F x F arrays."""
    v = np.asarray(vals, dtype=float)
    v = v[None] if v.ndim == 2 else v
    t1, t2 = np.meshgrid(face.coords[0], face.coords[1], indexing="ij")
    w = face.weights.ravel()
    keep = w > 0.0
    w, x, y = w[keep], t1.ravel()[keep], t2.ravel()[keep]
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    np.fill_diagonal(d2, 1.0)
    kernel = (w[:, None] * w[None, :]) / d2 ** (0.5 * (p + 1.0))
    total = 0.0
    for c in range(v.shape[0]):
        g = v[c].ravel()[keep]
        dv = np.abs(g[:, None] - g[None, :]) ** p
        np.fill_diagonal(dv, 0.0)
        total += float(np.sum(kernel * dv))
    return total


@pytest.mark.parametrize("p", [4.0, 2.5])
def test_face_gagliardo_pow_matches_the_dense_double_sum(p):
    # faces of 112 to 238 weighted nodes: two to four blocks of pair rows,
    # the last one partial
    g = build_grid(GeometryConfig(2.0, 1.0, 0.7, 18, 9, 15))
    rng = np.random.default_rng(41)
    for face in g.faces:
        vals = rng.standard_normal((2, *face.weights.shape)) * np.exp(
            rng.uniform(-3.0, 3.0, face.weights.shape))
        for data in (vals, vals[0]):
            want = dense_gagliardo_pow(face, data, p)
            assert abs(face_gagliardo_pow(face, data, p) - want) <= 1e-13 * want, face.name


def test_face_gagliardo_pow_memory_is_bounded():
    # a (64,32,32) wall face has 1,953 weighted nodes: one dense F x F
    # array of pairs would take 30.5 MB
    g = build_grid(GeometryConfig(2.0, 1.0, 1.0, 64, 32, 32))
    face = g.face("y0")
    vals = np.random.default_rng(43).standard_normal((2, *face.weights.shape))
    tracemalloc.start()
    try:
        face_gagliardo_pow(face, vals, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(np.count_nonzero(face.weights)) == 1953
    assert peak < 8e6


def test_invalid_p_rejected():
    g = make_grid()
    f = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="p must be >= 1"):
        norm(f, NormKind.lp(0.5))


def test_vector_norms_combine_components():
    g = make_grid()
    vals = np.zeros((3, *g.shape))
    vals[1] = 2.0
    u = VectorField(g, vals)
    # only one nonzero component: same as scalar norm of it
    assert abs(norm(u, NormKind.lp(4.0)) - 2.0 * 2.0 ** 0.25) <= 1e-12


def test_field_shape_and_finite_validation():
    g = make_grid()
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g, np.zeros((2, 2, 2)))
    bad = np.zeros(g.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ScalarField(g, bad)


def test_interior_l2_ignores_boundary():
    g = make_grid()
    vals = np.zeros(g.shape)
    vals[0, :, :] = 100.0
    assert interior_l2(vals, g) == 0.0


def test_grad_div_exact_on_quadratics():
    g = make_grid(8, 6, 5)
    x1, x2, x3 = g.meshgrid()
    u = VectorField(g, np.stack([x1**2, x2**2, x3**2]))
    out = grad_div_array(u.values, g)
    for c in range(3):
        assert np.max(np.abs(out[c] - 2.0)) <= 1e-11
    # mixed-axis coupling: div (x1 x2, 0, 0) = x2
    u = VectorField(g, np.stack([x1 * x2, np.zeros(g.shape), np.zeros(g.shape)]))
    out = grad_div_array(u.values, g)
    assert np.max(np.abs(out[0])) <= 1e-11
    assert np.max(np.abs(out[1] - 1.0)) <= 1e-11
    assert np.max(np.abs(out[2])) <= 1e-11


def test_grad_div_second_order_everywhere():
    # uniform order includes rows one node in from each wall, where naive
    # differencing of the divergence field loses an order
    errs = []
    for n in (8, 16):
        g = make_grid(n, n, n)
        x1, x2, x3 = g.meshgrid()
        u = VectorField(
            g,
            np.stack(
                [
                    np.sin(x1) * np.cos(x2),
                    np.cos(x1) * np.sin(x2) * np.cos(x3),
                    np.sin(x3) * np.cos(x1),
                ]
            ),
        )
        div = np.cos(x1) * np.cos(x2) + np.cos(x1) * np.cos(x2) * np.cos(x3) + np.cos(x3) * np.cos(x1)
        exact = np.stack(
            [
                -np.sin(x1) * np.cos(x2) * (1.0 + np.cos(x3)) - np.cos(x3) * np.sin(x1),
                -np.cos(x1) * np.sin(x2) * (1.0 + np.cos(x3)),
                -np.cos(x1) * np.cos(x2) * np.sin(x3) - np.sin(x3) * np.cos(x1),
            ]
        )
        errs.append(np.max(np.abs(grad_div_array(u.values, g) - exact)))
    assert errs[0] / errs[1] >= 3.3
