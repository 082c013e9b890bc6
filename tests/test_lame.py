import hashlib
from dataclasses import replace

import numpy as np
import pytest

from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    diff1,
    grad_array,
    grad_div_array,
    laplacian_array,
    zeros_scalar,
    zeros_vector,
)
from slipflow.material import FlowParams
from slipflow import lame
from slipflow.lame import (
    build_lame_operator,
    solve_momentum,
    solve_linear_step,
)
from slipflow.transport import apply_S, make_transport_field
from slipflow.mms import build_linear_case

from oracles import full_solve_split_step, make_setup, smooth_vector, zero_slip


def onesided_normal_d1(values: np.ndarray, face, h: float) -> np.ndarray:
    """Outward normal derivative of a node array on a face, by the 3-point
    one-sided stencil written out by hand: the slip rows' derivative, kept
    here apart from fields.slip_traction, which the matrix reads."""
    v = np.moveaxis(values, face.axis, 0)
    if face.side < 0:
        return (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * h)
    return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)


def _momentum_rows(op, u: np.ndarray) -> np.ndarray:
    """Full row action on a (3, *shape) velocity array, composed of the
    shared difference operators: the stencil form of the rows, which the
    operator's matrix is tested against."""
    g = op.grid
    mu, nu = op.params.mu, op.params.nu
    out = grad_div_array(u, g)
    for c in range(3):
        out[c] = diff1(u[c], g.h[0], 0) - mu * laplacian_array(u[c], g) - (nu + mu) * out[c]
    robin = np.zeros_like(out)
    for face in op.grid.faces:
        sl = face.slicer()
        for t_ax in face.in_axes:
            robin[t_ax][sl] += (
                mu * onesided_normal_d1(u[t_ax], face, g.h[face.axis])
                + op.params.friction * u[t_ax][sl]
            )
    m = op.robin_mask
    out[m] = robin[m] / op.robin_cnt[m]
    out[op.pinned] = u[op.pinned]
    return out


def apply_lame(op, u: VectorField) -> VectorField:
    """Row-wise operator action (PDE rows inside, boundary rows on the
    boundary) as a field."""
    return VectorField(op.grid, _momentum_rows(op, u.values))


def interior_slice(values):
    return values[..., 1:-1, 1:-1, 1:-1]


def test_apply_constant_field():
    grid, params = make_setup()
    op = build_lame_operator(grid, params)
    u = VectorField(grid, np.stack([np.full(grid.shape, c + 1.0) for c in range(3)]))
    out = apply_lame(op, u).values
    assert np.max(np.abs(interior_slice(out))) == 0.0
    # slip rows carry only the friction term, pinned rows echo the value
    y1 = grid.face("y1")
    assert out[0][y1.slicer()][2, 2] == pytest.approx(params.friction * 1.0, abs=1e-12)
    assert out[1][y1.slicer()][2, 2] == 2.0  # normal component pinned
    inflow = grid.face("inflow")
    assert out[0][inflow.slicer()][2, 2] == 1.0


def test_apply_affine_axial_field():
    grid, params = make_setup()
    op = build_lame_operator(grid, params)
    x1, _, _ = grid.meshgrid()
    u = VectorField(grid, np.stack([x1, np.zeros(grid.shape), np.zeros(grid.shape)]))
    out = apply_lame(op, u).values
    assert np.max(np.abs(interior_slice(out[0]) - 1.0)) <= 1e-12
    assert np.max(np.abs(interior_slice(out[1:]))) <= 1e-13


# with the defaults mu = nu = 1, so a viscous coefficient swapped with nu
# would not show
@pytest.mark.parametrize(
    "params",
    [FlowParams(), FlowParams(mu=0.7, nu=0.3, friction=2.5)],
    ids=["defaults", "mu0.7-nu0.3-f2.5"],
)
def test_apply_slip_rows_on_shear_field(params):
    grid = make_setup()[0]
    op = build_lame_operator(grid, params)
    _, x2, _ = grid.meshgrid()
    u = VectorField(grid, np.stack([x2, np.zeros(grid.shape), np.zeros(grid.shape)]))
    out = apply_lame(op, u).values
    mu, f = params.mu, params.friction
    y1 = grid.face("y1")
    y0 = grid.face("y0")
    z1 = grid.face("z1")
    # mu du1/dn + f u1 with the outward normal derivative
    assert out[0][y1.slicer()][2, 2] == pytest.approx(mu + f, abs=1e-12)
    assert out[0][y0.slicer()][2, 2] == pytest.approx(-mu, abs=1e-12)
    x2_mid = grid.axes[1][2]
    assert out[0][z1.slicer()][2, 2] == pytest.approx(f * x2_mid, abs=1e-12)
    # edge shared by y1 and z1 averages the two tangential rows
    assert out[0][2, -1, -1] == pytest.approx(((mu + f) + f * 1.0) / 2.0, abs=1e-12)


def test_apply_matches_analytic_rows_under_refinement():
    # cyclic sine field: divergence-free, so the analytic rows reduce to
    # axial transport plus the vector Laplacian
    errs = []
    for n1 in (8, 16):
        grid, params = make_setup(n1, n1 // 2, n1 // 2)
        op = build_lame_operator(grid, params)
        x1, x2, x3 = grid.meshgrid()
        pi = np.pi
        u = VectorField(grid, np.stack([np.sin(pi * x2), np.sin(pi * x3), np.sin(pi * x1)]))
        exact = np.stack(
            [
                params.mu * pi**2 * np.sin(pi * x2),
                params.mu * pi**2 * np.sin(pi * x3),
                pi * np.cos(pi * x1) + params.mu * pi**2 * np.sin(pi * x1),
            ]
        )
        out = apply_lame(op, u).values
        errs.append(np.max(np.abs(interior_slice(out - exact))))
    assert errs[0] / errs[1] >= 3.4


# (9, 5, 7) on an anisotropic duct: odd counts, unequal spacings, and edges
# whose tangential components average two slip rows with different h; at
# mu = h1/2 two interior entries cancel and stay out of the matrix
MATRIX_CASES = [
    ((2.0, 1.0, 1.0), (8, 4, 4), FlowParams()),
    ((2.0, 1.0, 1.0), (16, 8, 8), FlowParams()),
    ((2.5, 1.0, 0.7), (9, 5, 7), FlowParams(mu=0.7, nu=0.3, friction=2.5)),
    ((2.0, 1.0, 1.0), (16, 8, 8), FlowParams(mu=0.0625)),
]
# sha256 of the matrix's data, indices and indptr as stored, per case in
# MATRIX_CASES order: the assembly calls no BLAS, so a reordered sum or a
# moved entry shows here, where the 1e-14 comparison of the rows cannot
# see it
MATRIX_SHA256 = dict(zip(MATRIX_CASES, [
    (
        "348bcc0a112762119023fd21c41c9c89ec9b4fbeb6f6e2d6224e2bbc03931849",
        "58667dcc3165165ef51176bdd03e5736aafe7ac18588337c00d24c7610795183",
        "c3c973afec76963eb00c0b5105f5afdb6426dad24694f4252ddcaba99531095f",
    ),
    (
        "a452bd0fdecc67fb5baab8163607239363b01a70f4243f98d2213e76195c685f",
        "a68ceb0a557c890fc3c0b9cf9d23af65837fc25f1581849dcdb17fcb7f57065a",
        "b6c0ade23787474d58aeb0ea7036f4414b43d3c556350fd90f5ee0047bff5111",
    ),
    (
        "f68dcc95d16dc9e9e029ff4f15f8b9973e57ce6e8100d837e786a5f077531daf",
        "766ef525996dae7d72ce4142c9eab45a2ee25e68cab2aaeddcfe0046353fdfb3",
        "8c8a25a65286b522635198befc2f7626d6b34d43d7a9fcc348bf237bdf142068",
    ),
    (
        "df6bb1c02d2d0b9395b16b0264ccece6229c769d275247dd3ff1028161a5c93a",
        "43bd5c84fa9db8c7be8923e2aba5d766e52bdacc789fcc8af6dba3967c424f8f",
        "bc128e472e4a5485803ca80807adbbfc61f72c3043dce01c2b5e2d8c2c21c4c3",
    ),
]))


@pytest.mark.parametrize("extents, cells, params", MATRIX_CASES)
def test_momentum_matrix_reproduces_rows(extents, cells, params):
    # the matrix holds the free rows and columns; pinned entries are zero
    grid = build_grid(GeometryConfig(*extents, *cells))
    op = build_lame_operator(grid, params)
    assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int32
    rng = np.random.default_rng(11)
    for _ in range(3):
        u = rng.standard_normal((3, *grid.shape))
        u[op.pinned] = 0.0
        expected = _momentum_rows(op, u).reshape(-1)[op.free]
        got = op.matrix @ u.reshape(-1)[op.free]
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    stored = (op.matrix.data, op.matrix.indices, op.matrix.indptr)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in stored) == MATRIX_SHA256[
        extents, cells, params]


@pytest.mark.parametrize("extents, cells, params", MATRIX_CASES)
def test_restriction_by_transposed_view_is_bitwise_a_csr_copy(extents, cells, params):
    # the V-cycle restricts by P.T, a view of P's arrays; its product adds
    # each coarse entry in the order a CSR copy of P^T does
    op = build_lame_operator(build_grid(GeometryConfig(*extents, *cells)), params)
    rng = np.random.default_rng(2)
    for p in op.precond.prolongs:
        r = rng.standard_normal(p.shape[0])
        np.testing.assert_array_equal(p.T @ r, p.T.tocsr() @ r)


def _closed_form_stencil(g, params, c) -> dict[int, float]:
    """Column offset -> value of component c's PDE row at an interior
    node, derived by hand: the x1 convection and the vector Laplacian are
    3-point stencils along each axis on u_c, the diagonal term of grad div
    takes the second difference of u_c along x_c, and its mixed terms
    d_c d_a u_a compose central first differences along the two axes."""
    mu, nu = params.mu, params.nu
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
    return entries


def _matrix_row(op, c: int, node: tuple[int, int, int]) -> dict[int, float]:
    """Column offset -> value of the assembled matrix's row for component c
    at a node, the offset taken from the node's flat index on the full
    velocity, as _closed_form_stencil keys it."""
    full = np.flatnonzero(op.free)  # full index of each free position
    at = int(np.ravel_multi_index(node, op.grid.shape))
    row = op.matrix.getrow(int(np.searchsorted(full, c * op.grid.n_nodes + at)))
    return {int(full[j]) - at: float(v) for j, v in zip(row.indices, row.data)}


# at mu = h1/2 the x1 convection cancels the x1 viscous coupling of u2 and
# u3 on one side, which the assembly leaves out
@pytest.mark.parametrize(
    "extents, cells, params, cancelled",
    [
        ((2.0, 1.0, 1.0), (16, 8, 8), FlowParams(), 0),
        ((2.5, 1.0, 0.7), (9, 5, 7), FlowParams(mu=0.7, nu=0.3), 0),
        ((2.0, 1.0, 1.0), (16, 8, 8), FlowParams(mu=0.0625), 2),
    ],
    ids=["default", "anisotropic", "cancelling"],
)
def test_probed_stencil_matches_closed_form(extents, cells, params, cancelled):
    # the matrix rows at an interior node, read off fields.lame_array,
    # agree with the hand-derived coefficients to 4 ulps per entry, an
    # absent entry reading as 0
    grid = build_grid(GeometryConfig(*extents, *cells))
    op = build_lame_operator(grid, params)
    centre = tuple(m // 2 for m in grid.shape)
    zeros = entries = 0
    for c in range(3):
        probed = _matrix_row(op, c, centre)
        expected = _closed_form_stencil(grid, params, c)
        assert probed.keys() <= expected.keys()
        zeros += sum(value == 0.0 for value in expected.values())
        entries += len(probed)
        for offset, value in expected.items():
            got = probed.get(offset, 0.0)
            assert abs(got - value) <= 4 * np.spacing(max(abs(got), abs(value))), (c, offset)
    assert zeros == cancelled
    assert entries == 45 - cancelled


@pytest.mark.parametrize(
    "extents, cells, params",
    [
        ((2.0, 1.0, 1.0), (16, 8, 8), FlowParams()),
        ((2.5, 1.0, 0.7), (9, 5, 7), FlowParams(mu=0.7, nu=0.3, friction=2.5)),
    ],
    ids=["default", "anisotropic"],
)
def test_probed_slip_stencil_matches_closed_form(extents, cells, params):
    # the matrix's slip rows at every face centre, read off
    # fields.slip_traction, are, on both in-face components, mu (3, -4, 1)
    # / (2h) along the inward normal plus the friction on the face node, to
    # 4 ulps per entry; the normal component's columns are pinned
    grid = build_grid(GeometryConfig(*extents, *cells))
    op = build_lame_operator(grid, params)
    stride = (grid.shape[1] * grid.shape[2], grid.shape[2], 1)
    for face in grid.faces:
        h = grid.h[face.axis]
        centre = [m // 2 for m in grid.shape]
        centre[face.axis] = face.index
        for t_ax in face.in_axes:
            probed = _matrix_row(op, t_ax, tuple(centre))
            inward = -face.side * stride[face.axis]
            assert probed.keys() == {t_ax * grid.n_nodes + k * inward for k in range(3)}
            for k, coef in enumerate((3.0, -4.0, 1.0)):
                value = params.mu * coef / (2.0 * h) + (params.friction if k == 0 else 0.0)
                got = probed[t_ax * grid.n_nodes + k * inward]
                assert abs(got - value) <= 4 * np.spacing(max(abs(got), abs(value))), (face.name, k)


def test_operator_stores_its_row_layout_read_only():
    # every row of the velocity is exactly one of pinned, slip or PDE, and
    # the operator holds each mask, and the slip-row counts, read-only
    grid = build_grid(GeometryConfig(2.5, 1.0, 0.7, 9, 5, 7))
    op = build_lame_operator(grid, FlowParams())
    layout = (op.pinned, op.robin_cnt, op.robin_mask, op.pde, op.free, op.pde_free)
    assert all(not array.flags.writeable for array in layout)
    np.testing.assert_array_equal(
        op.pinned.astype(int) + op.robin_mask + op.pde, np.ones((3, *grid.shape), dtype=int)
    )
    np.testing.assert_array_equal(op.free, ~op.pinned.reshape(-1))
    np.testing.assert_array_equal(op.pde_free, op.pde.reshape(-1)[op.free])
    assert op.matrix.shape[0] == np.count_nonzero(op.free)


def momentum_solve(op, forcing, slip):
    """solve_momentum for a volume forcing and slip data, to the linear
    step's Krylov tolerance at the default inner_tol."""
    rhs = lame._momentum_rhs(op, forcing, slip)
    return solve_momentum(op, rhs, lame.krylov_tol(lame.INNER_TOL))


def test_solve_momentum_roundtrip():
    grid, params = make_setup()
    op = build_lame_operator(grid, params)
    u_known = smooth_vector(grid, seed=5)
    u_known.values[op.pinned] = 0.0

    forcing = apply_lame(op, u_known).values
    slip = {}
    for face in grid.faces:
        rows = []
        for t_ax in face.in_axes:
            rows.append(
                params.mu * onesided_normal_d1(u_known.values[t_ax], face, grid.h[face.axis])
                + params.friction * u_known.values[t_ax][face.slicer()]
            )
        slip[face.name] = np.stack(rows)

    sol, iters, res = momentum_solve(op, forcing, slip)
    scale = np.max(np.abs(u_known.values))
    assert res <= 1e-10
    assert np.max(np.abs(sol.values - u_known.values)) <= 1e-6 * scale


def shear_slip(grid):
    slip = {}
    for face in grid.faces:
        a, b = np.meshgrid(*face.coords, indexing="ij")
        slip[face.name] = np.stack([0.1 * np.sin(a + b), 0.05 * np.cos(2.0 * a - b)])
    return slip


@pytest.mark.parametrize("cells", [(8, 4, 4), (16, 8, 8), (32, 16, 16)])
def test_multigrid_solve_is_grid_independent(cells):
    # Jacobi scaling doubles the iteration count with each refinement; the
    # V-cycle holds it, and both reach the same solution
    grid, params = make_setup(*cells)
    op = build_lame_operator(grid, params)
    forcing = smooth_vector(grid, seed=3).values
    slip = shear_slip(grid)
    u, iters, res = momentum_solve(op, forcing, slip)
    assert iters <= 12 and res <= 1e-10
    diag = op.matrix.diagonal()
    by_jacobi = replace(op, precond=lambda p: p / diag)
    u_jac, iters_jac, _ = momentum_solve(by_jacobi, forcing, slip)
    assert iters_jac > 2 * iters
    scale = np.max(np.abs(u_jac.values))
    assert np.max(np.abs(u.values - u_jac.values)) <= 1e-9 * scale


@pytest.mark.parametrize(
    "cells, v_cycle_iters", [((9, 5, 7), 10), ((14, 14, 14), 19), ((18, 9, 9), 10)]
)
def test_every_grid_gets_a_v_cycle(cells, v_cycle_iters):
    # (9, 5, 7) does not halve; (14, 14, 14) halves once to odd counts and
    # (18, 9, 9) not at all along x2, x3: their coarse lattices are not
    # nested in the fine ones
    grid = build_grid(GeometryConfig(2.5, 1.0, 0.7, *cells))
    params = FlowParams(mu=0.7, nu=0.3, friction=2.5)
    op = build_lame_operator(grid, params)
    assert isinstance(op.precond, lame._VCycle)
    forcing, slip = smooth_vector(grid, seed=4).values, shear_slip(grid)
    u, iters, res = momentum_solve(op, forcing, slip)
    assert iters == v_cycle_iters and res <= 1e-10
    assert np.all(u.values[op.pinned] == 0.0)
    diag = op.matrix.diagonal()
    u_jac, _, _ = momentum_solve(replace(op, precond=lambda p: p / diag), forcing, slip)
    scale = np.max(np.abs(u_jac.values))
    assert np.max(np.abs(u.values - u_jac.values)) <= 1e-9 * scale


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_interpolation_between_nested_lattices_is_exact(n):
    # the nested matrix the V-cycle used before lattices could be
    # non-nested: weights 1 on shared nodes, 1/2 and 1/2 between them
    nested = np.zeros((n + 1, n // 2 + 1))
    coarse = np.arange(n // 2 + 1)
    nested[2 * coarse, coarse] = 1.0
    nested[2 * coarse[:-1] + 1, coarse[:-1]] = 0.5
    nested[2 * coarse[:-1] + 1, coarse[1:]] = 0.5
    np.testing.assert_array_equal(lame._interpolation_1d(n, n // 2), nested)


def test_interpolation_between_non_nested_lattices_is_linear():
    # 7 cells to 4: reproduces affine functions of the position
    p = lame._interpolation_1d(7, 4)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(p @ (np.arange(5) / 4), np.arange(8) / 7, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cells, levels", [
    ((16, 8, 8), [(16, 8, 8), (8, 4, 4), (4, 2, 2)]),
    ((32, 16, 16), [(32, 16, 16), (16, 8, 8), (8, 4, 4), (4, 2, 2)]),
    ((256, 4, 4), [(256, 4, 4), (128, 2, 2), (64, 2, 2)]),
])
def test_multigrid_levels(cells, levels):
    # halving grids keep their nested hierarchy down to a count of 2; an
    # elongated grid goes on along x1 alone until the last level is small
    # enough for the dense solve
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, *cells))
    op = build_lame_operator(grid, FlowParams())
    free = [int(np.count_nonzero(~lame._pinned_rows(c))) for c in levels]
    assert [p.shape for p in op.precond.prolongs] == list(zip(free[:-1], free[1:]))
    assert free[-1] <= lame._COARSEST_MAX


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_linear_step_zero_data(mode):
    grid, params = make_setup()
    res = solve_linear_step(
        build_lame_operator(grid, params),
        zeros_vector(grid),
        zeros_vector(grid),
        zeros_scalar(grid),
        zero_slip(grid),
        np.zeros((grid.shape[1], grid.shape[2])),
        mode=mode,
    )
    assert np.max(np.abs(res.u.values)) == 0.0
    assert np.max(np.abs(res.w.values)) == 0.0
    assert res.inner_iterations == 0
    assert res.sweeps == 1


def test_linear_step_unknown_mode():
    grid, params = make_setup()
    with pytest.raises(ValueError, match="unknown linear step mode"):
        solve_linear_step(
            build_lame_operator(grid, params),
            zeros_vector(grid),
            zeros_vector(grid),
            zeros_scalar(grid),
            zero_slip(grid),
            np.zeros((grid.shape[1], grid.shape[2])),
            mode="direct",
        )


def test_linear_step_rejects_unknown_mode_first():
    # a transport field this slow would be rejected if it were built
    grid, params = make_setup()
    convect = zeros_vector(grid)
    convect.values[0] = -0.9
    with pytest.raises(ValueError, match="unknown linear step mode"):
        solve_linear_step(
            build_lame_operator(grid, params), convect, zeros_vector(grid), zeros_scalar(grid),
            zero_slip(grid), np.zeros((grid.shape[1], grid.shape[2])), mode="direct",
        )


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_linear_step_density_trace_matches_inflow_data(mode):
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    res = solve_linear_step(
        build_lame_operator(grid, params),
        case.convect,
        case.forcing,
        case.continuity,
        case.slip_data,
        case.w_in,
        mode=mode,
    )
    np.testing.assert_allclose(res.w.values[0], case.w_in, rtol=0, atol=1e-13)


def test_linear_step_is_linear_in_data():
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    op = build_lame_operator(grid, params)
    kwargs = dict(mode="monolithic")
    res1 = solve_linear_step(
        op, case.convect, case.forcing, case.continuity, case.slip_data, case.w_in, **kwargs,
    )
    res2 = solve_linear_step(
        op, case.convect,
        VectorField(grid, 2.0 * case.forcing.values),
        ScalarField(grid, 2.0 * case.continuity.values),
        {k: 2.0 * v for k, v in case.slip_data.items()},
        2.0 * case.w_in,
        **kwargs,
    )
    scale = np.max(np.abs(res1.u.values))
    assert np.max(np.abs(res2.u.values - 2.0 * res1.u.values)) <= 1e-7 * scale
    wscale = np.max(np.abs(res1.w.values))
    assert np.max(np.abs(res2.w.values - 2.0 * res1.w.values)) <= 1e-7 * wscale


def test_linear_step_monolithic_orders():
    errs_u, errs_w = [], []
    for n1 in (8, 16):
        grid, params = make_setup(n1, n1 // 2, n1 // 2)
        case = build_linear_case(grid, params)
        res = solve_linear_step(
            build_lame_operator(grid, params), case.convect, case.forcing, case.continuity,
            case.slip_data, case.w_in, mode="monolithic",
        )
        errs_u.append(
            norm(VectorField(grid, res.u.values - case.u_exact.values), NormKind.h1())
        )
        errs_w.append(
            norm(ScalarField(grid, res.w.values - case.w_exact.values), NormKind.linf_l2())
        )
    assert errs_u[0] / errs_u[1] >= 3.2
    assert errs_w[0] / errs_w[1] >= 3.0


def test_linear_step_split_accuracy_coarse():
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    res = solve_linear_step(
        build_lame_operator(grid, params), case.convect, case.forcing, case.continuity,
        case.slip_data, case.w_in, mode="split",
    )
    assert res.linear_residual <= 1e-9
    eu = norm(VectorField(grid, res.u.values - case.u_exact.values), NormKind.h1())
    ew = norm(ScalarField(grid, res.w.values - case.w_exact.values), NormKind.linf_l2())
    assert eu <= 2.5e-2
    assert ew <= 2.0e-2


def test_split_step_nonconvergence_is_loud(monkeypatch):
    monkeypatch.setattr(lame, "MAX_SWEEPS", 2)
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    with pytest.raises(RuntimeError, match="did not reach 1e-11 within 2 sweeps"):
        solve_linear_step(
            build_lame_operator(grid, params), case.convect, case.forcing, case.continuity,
            case.slip_data, case.w_in, mode="split",
        )


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_linear_step_leaves_its_inputs_untouched(mode):
    # the step writes into none of its arrays, start included, so a call
    # on copies returns the same bits
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    op = build_lame_operator(grid, params)

    def inputs():
        return (
            VectorField(grid, case.convect.values.copy()),
            VectorField(grid, case.forcing.values.copy()),
            ScalarField(grid, case.continuity.values.copy()),
            {name: rows.copy() for name, rows in case.slip_data.items()},
            case.w_in.copy(),
        )

    def start():
        return (VectorField(grid, 0.9 * case.u_exact.values),
                ScalarField(grid, 0.9 * case.w_exact.values))

    given, given_start = inputs(), start()
    res = solve_linear_step(op, *given, mode=mode, start=given_start)
    for before, after in zip(inputs() + start(), given + given_start):
        if isinstance(before, dict):
            assert before.keys() == after.keys()
            for name in before:
                np.testing.assert_array_equal(after[name], before[name], strict=True)
        else:
            before, after = (getattr(a, "values", a) for a in (before, after))
            np.testing.assert_array_equal(after, before, strict=True)
    assert not np.shares_memory(res.u.values, given_start[0].values)
    assert not np.shares_memory(res.w.values, given_start[1].values)
    again = solve_linear_step(op, *inputs(), mode=mode, start=start())
    assert np.array_equal(again.u.values, res.u.values)
    assert np.array_equal(again.w.values, res.w.values)
    assert (again.sweeps, again.inner_iterations, again.linear_residual) == (
        res.sweeps, res.inner_iterations, res.linear_residual)


def test_linear_step_modes_solve_one_discrete_system():
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    op = build_lame_operator(grid, params)
    res = {
        mode: solve_linear_step(
            op, case.convect, case.forcing, case.continuity, case.slip_data, case.w_in, mode=mode,
        )
        for mode in ("split", "monolithic")
    }
    du = np.max(np.abs(res["split"].u.values - res["monolithic"].u.values))
    dw = np.max(np.abs(res["split"].w.values - res["monolithic"].w.values))
    assert du <= 1e-8 * np.max(np.abs(res["monolithic"].u.values))
    assert dw <= 1e-8 * np.max(np.abs(res["monolithic"].w.values))


def stencil_momentum_solve(op, forcing, slip_data, x0):
    """A split sweep's solve_momentum acting through the stencil rows
    instead of op.matrix, with the same warm start, preconditioner, Krylov
    settings and per-sweep residual reduction."""
    free = op.free
    act = lambda y: _momentum_rows(op, lame._scatter(op, y)).reshape(-1)[free]
    rhs = lame._momentum_rhs(op, forcing, slip_data)
    return lame._solve_free_rows(
        op, act, rhs, lame.krylov_tol(lame.INNER_TOL), x0.values, reduction=lame.SWEEP_REDUCTION
    )[0]


def test_split_step_matches_trace_every_sweep():
    # the oracle is the split alternation through the stencil rows and
    # apply_S on the transport field (every node traced on every sweep), each
    # sweep cutting its momentum residual by the same factor
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    op = build_lame_operator(grid, params)
    res = solve_linear_step(
        op, case.convect, case.forcing, case.continuity, case.slip_data, case.w_in, mode="split",
    )
    tf_values = case.convect.values.copy()
    tf_values[0] += 1.0
    tf = make_transport_field(grid, tf_values)
    u, w = zeros_vector(grid), zeros_scalar(grid)
    for sweep in range(1, 201):
        rhs = case.forcing.values - params.pressure.gamma * grad_array(w.values, grid)
        u_new = stencil_momentum_solve(op, rhs, case.slip_data, u)
        src = case.continuity.values - sum(diff1(u_new.values[a], grid.h[a], a) for a in range(3))
        w_new = apply_S(tf, ScalarField(grid, src), case.w_in)
        delta = norm(VectorField(grid, u_new.values - u.values), NormKind.h1()) + norm(
            ScalarField(grid, w_new.values - w.values), NormKind.linf_l2()
        )
        u, w = u_new, w_new
        if delta < 1e-11:
            break
    assert res.sweeps == sweep
    assert np.max(np.abs(res.u.values - u.values)) <= 1e-14 * np.max(np.abs(u.values))
    assert np.max(np.abs(res.w.values - w.values)) <= 1e-14 * np.max(np.abs(w.values))


def test_inexact_sweeps_reach_the_full_solve_fixed_point():
    # a split sweep solves its momentum rows only to a tenth of the
    # warm-start residual; the oracle solves them to the step's Krylov
    # tolerance every sweep.  Each ends within about that tolerance times
    # |u| of the discrete solution (1.6e-11 apart in w at the default
    # inner_tol), so both run at inner_tol 1e-12 here
    grid, params = make_setup()
    case = build_linear_case(grid, params)
    op = build_lame_operator(grid, params)
    args = (op, case.convect, case.forcing, case.continuity, case.slip_data, case.w_in)
    res = solve_linear_step(*args, inner_tol=1e-12)
    full = full_solve_split_step(*args, inner_tol=1e-12)
    assert np.max(np.abs(res.u.values - full.u.values)) <= 1e-11
    assert np.max(np.abs(res.w.values - full.w.values)) <= 1e-11
    assert abs(res.sweeps - full.sweeps) <= 2
    assert res.inner_iterations < full.inner_iterations / 2
