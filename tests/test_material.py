import numpy as np
import pytest

from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import (
    ScalarField,
    VectorField,
    NormKind,
    norm,
    diff1,
    grad_div_array,
    laplacian_array,
    advect,
    trace_gagliardo_norm,
    face_w1p_norm,
    zeros_scalar,
    zeros_vector,
)
from slipflow.material import (
    PressureLaw,
    FlowParams,
    DataConfig,
    face_profile,
    delta_pi_prime,
    extend_normal_trace,
    assemble_perturbation_data,
    compute_F,
    compute_G,
    ramp_width,
)
from oracles import smooth_scalar

# Frozen from a scan of the forcing bound over seeded random fields of
# amplitude <= 0.1 on two grids (max observed ratio 2.76, x1.5 margin).
QUADRATIC_BOUND_C = 4.2


def make_grid(n1=8, n2=4, n3=4):
    return build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n2, n3))


def smooth_vector(grid, seed, amp):
    comps = [smooth_scalar(grid, seed + 11 * c, amp).values for c in range(3)]
    return VectorField(grid, np.stack(comps))


# ---------------------------------------------------------------------------
# pressure law


def test_pressure_eval_known_values():
    assert PressureLaw("power", 2.0).d1(1.0) == pytest.approx(2.0)
    assert PressureLaw("power", 1.4).value(1.0) == pytest.approx(1.0)


def test_pressure_gamma():
    assert PressureLaw("power", 2.0).gamma == pytest.approx(2.0)
    assert PressureLaw("linear", 3.0).gamma == pytest.approx(3.0)
    assert PressureLaw("power", 1.4).gamma == pytest.approx(1.4)


def test_pressure_law_validation():
    with pytest.raises(ValueError, match="kind"):
        PressureLaw("cubic", 2.0)
    with pytest.raises(ValueError, match="exponent"):
        PressureLaw("power", 0.5)
    with pytest.raises(ValueError, match="slope"):
        PressureLaw("linear", -1.0)


def test_delta_pi_prime_values():
    g = make_grid()
    law = PressureLaw("power", 2.0)
    zero = delta_pi_prime(law, zeros_scalar(g))
    assert np.all(zero.values == 0.0)
    w = ScalarField(g, np.full(g.shape, 0.1))
    # pi'(1.1) - pi'(1) = 2.2 - 2
    assert np.allclose(delta_pi_prime(law, w).values, 0.2, atol=1e-14)


def test_delta_pi_prime_mean_value_bound():
    g = make_grid()
    law = PressureLaw("power", 3.0)
    for seed in range(5):
        w1 = smooth_scalar(g, seed, 0.3)
        w2 = smooth_scalar(g, seed + 50, 0.3)
        d1v = delta_pi_prime(law, w1).values
        d2v = delta_pi_prime(law, w2).values
        # |pi''| <= 6 * max density on the band covered by the fields
        c = 6.0 * 1.3
        lhs = norm(ScalarField(g, d1v - d2v), NormKind.lp(2.0))
        rhs = c * norm(ScalarField(g, w1.values - w2.values), NormKind.lp(2.0))
        assert lhs <= rhs + 1e-14


def test_delta_pi_prime_band_error_names_node():
    g = make_grid()
    vals = np.zeros(g.shape)
    vals[2, 1, 3] = 1.2  # density 2.2
    with pytest.raises(ValueError, match=r"node \(2, 1, 3\)"):
        delta_pi_prime(PressureLaw("power", 2.0), ScalarField(g, vals))


# ---------------------------------------------------------------------------
# flow parameters


def test_flow_params_defaults():
    params = FlowParams()
    assert params.mu == 1.0 and params.nu == 1.0 and params.friction == 10.0


def test_flow_params_validation():
    with pytest.raises(ValueError, match="mu"):
        FlowParams(mu=-1.0)
    with pytest.raises(ValueError, match="mu \\+ 2\\*nu"):
        FlowParams(mu=1.0, nu=-0.5)
    with pytest.raises(ValueError, match="friction"):
        FlowParams(friction=0.0)


# ---------------------------------------------------------------------------
# boundary data and lifting


def test_face_profile_registry():
    face = make_grid().face("inflow")  # 5 x 5 nodes on the unit square
    vals = face_profile("sine_bump", face)
    assert vals[2, 2] == pytest.approx(1.0)
    assert np.allclose(vals[0, :], 0.0, atol=1e-14)
    with pytest.raises(ValueError, match="unknown profile"):
        face_profile("gaussian", face)


def test_boundary_spec_rejects_lateral_normal_trace():
    with pytest.raises(ValueError, match=r"^normal_trace\.y0 is not allowed"):
        DataConfig(epsilon=0.1, normal_trace=(("y0", "sine_bump"),))
    with pytest.raises(ValueError, match="amplitude"):
        DataConfig(epsilon=-0.1)


def traces(g, boundary):
    """The normal traces boundary prescribes, by face, as the data carry them."""
    return assemble_perturbation_data(g, boundary, FlowParams()).normal_trace


def test_data_carry_the_configured_normal_trace():
    # epsilon times the profile on the faces the config names, zero on every
    # other face, and the lift's normal trace is exactly that at every face node
    g = make_grid(16, 8, 8)
    boundary = DataConfig(epsilon=1e-2, normal_trace=(("outflow", "sine_bump"),))
    data = assemble_perturbation_data(g, boundary, FlowParams())
    assert set(data.normal_trace) == {face.name for face in g.faces}
    for face in g.faces:
        profile = "sine_bump" if face.name == "outflow" else "zero"
        assert np.array_equal(data.normal_trace[face.name], 1e-2 * face_profile(profile, face))
        lifted = face.side * data.u0.values[face.axis][face.slicer()]
        assert np.array_equal(lifted, data.normal_trace[face.name]), face.name
    assert np.array_equal(extend_normal_trace(g, data.normal_trace).values, data.u0.values)


def test_extend_normal_trace_zero_amplitude():
    g = make_grid()
    boundary = DataConfig(epsilon=0.0)
    u0 = extend_normal_trace(g, traces(g, boundary))
    assert np.all(u0.values == 0.0)


def test_extend_normal_trace_inflow_sine():
    g = make_grid(16, 8, 8)
    eps = 1e-2
    boundary = DataConfig(epsilon=eps, normal_trace=(("inflow", "sine_bump"),))
    u0 = extend_normal_trace(g, traces(g, boundary))
    x2 = g.axes[1][:, None]
    x3 = g.axes[2][None, :]
    prof = np.sin(np.pi * x2 / 1.0) * np.sin(np.pi * x3 / 1.0)
    # n = -e1 on the inflow face, so u0_1(0,.) = -trace
    assert np.max(np.abs(u0.values[0][0] + eps * prof)) <= 1e-15
    # tangential components identically zero
    assert np.all(u0.values[1] == 0.0)
    assert np.all(u0.values[2] == 0.0)
    # support confined to the ramp width
    width = ramp_width(g)
    beyond = g.axes[0] >= width - 1e-12
    assert np.max(np.abs(u0.values[0][beyond])) <= 1e-15


def test_extend_normal_trace_opposite_faces_sum():
    g = make_grid()
    eps = 0.05
    boundary = DataConfig(
        epsilon=eps, normal_trace=(("inflow", "sine_bump"), ("outflow", "sine_bump"))
    )
    u0 = extend_normal_trace(g, traces(g, boundary))
    x2 = g.axes[1][:, None]
    x3 = g.axes[2][None, :]
    prof = np.sin(np.pi * x2) * np.sin(np.pi * x3)
    assert np.allclose(u0.values[0][0], -eps * prof, atol=1e-15)
    assert np.allclose(u0.values[0][-1], eps * prof, atol=1e-15)


def test_normal_trace_matches_at_nonedge_boundary_nodes():
    g = make_grid()
    boundary = DataConfig(epsilon=1e-2)
    u0 = extend_normal_trace(g, traces(g, boundary))
    for face in g.faces:
        nonedge = face.weights > 0
        trace = face.side * u0.values[face.axis][face.slicer()]
        if face.name == "inflow":
            a, b = np.meshgrid(*face.coords, indexing="ij")
            expected = 1e-2 * np.sin(np.pi * a) * np.sin(np.pi * b)
        else:
            expected = np.zeros_like(trace)
        assert np.max(np.abs((trace - expected)[nonedge])) <= 1e-15


@pytest.mark.parametrize("cells", [(16, 8, 8), (9, 5, 7)])
def test_lift_has_exactly_zero_tangential_trace(cells):
    # so the friction term of the lift's slip rows is exactly zero
    g = make_grid(*cells)
    data = DataConfig(normal_trace=(("inflow", "sine_bump"), ("outflow", "sine_bump")))
    u0 = extend_normal_trace(g, traces(g, data)).values
    for face in g.faces:
        for axis in face.in_axes:
            assert np.all(u0[axis][face.slicer()] == 0.0), (face.name, axis)


def test_u0_norm_linear_in_amplitude():
    g = make_grid()
    norms = []
    for eps in (1e-3, 1e-2, 1e-1):
        boundary = DataConfig(epsilon=eps)
        u0 = extend_normal_trace(g, traces(g, boundary))
        norms.append(norm(u0, NormKind.w2p(4.0)))
    assert norms[1] / norms[0] == pytest.approx(10.0, rel=1e-12)
    assert norms[2] / norms[1] == pytest.approx(10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# assembled data


def test_assemble_zero_amplitude():
    g = make_grid()
    boundary = DataConfig(epsilon=0.0)
    data = assemble_perturbation_data(g, boundary, FlowParams())
    assert np.all(data.u0.values == 0.0)
    assert all(np.all(v == 0.0) for v in data.slip_data.values())
    assert np.all(data.w_in == 0.0)
    assert data.b_measure == 0.0


def test_assemble_pure_slip_data_passthrough():
    # u0 = 0, so B_i must equal the given data exactly
    g = make_grid()
    eps = 0.02
    boundary = DataConfig(
        epsilon=eps, normal_trace=(), slip=(("y1", "sine_bump"),), inflow_density="zero"
    )
    data = assemble_perturbation_data(g, boundary, FlowParams())
    face = g.face("y1")
    a, b = np.meshgrid(*face.coords, indexing="ij")
    expected = eps * np.sin(np.pi * a / 2.0) * np.sin(np.pi * b / 1.0)
    assert np.max(np.abs(data.slip_data["y1"][0] - expected)) <= 1e-15
    assert np.max(np.abs(data.slip_data["y1"][1] - expected)) <= 1e-15
    assert np.all(data.slip_data["z0"] == 0.0)


def test_assemble_lifting_contribution_on_inflow():
    # With zero given slip data, B_i on the inflow face reduces to
    # -2 mu n.D(u0).tau_i = +mu d(u0_1)/dx_t (n = -e1), computable from
    # the exact face trace alone because u0_2 = u0_3 = 0.
    g = make_grid(16, 8, 8)
    eps = 1e-2
    mu = 1.7
    boundary = DataConfig(
        epsilon=eps, normal_trace=(("inflow", "sine_bump"),), slip=(), inflow_density="zero"
    )
    data = assemble_perturbation_data(g, boundary, FlowParams(mu=mu))
    face = g.face("inflow")
    trace = data.u0.values[0][0]  # = -eps * sine bump, exact at face nodes
    expected_1 = mu * diff1(trace, face.spacings[0], 0)
    expected_2 = mu * diff1(trace, face.spacings[1], 1)
    assert np.max(np.abs(data.slip_data["inflow"][0] - expected_1)) <= 1e-13
    assert np.max(np.abs(data.slip_data["inflow"][1] - expected_2)) <= 1e-13


def test_assemble_w_in_and_b_measure_cross_check():
    g = make_grid()
    eps = 1e-2
    boundary = DataConfig(epsilon=eps)
    data = assemble_perturbation_data(g, boundary, FlowParams(), p=4.0)
    a, b = np.meshgrid(*g.face("inflow").coords, indexing="ij")
    assert np.allclose(data.w_in, eps * np.sin(np.pi * a) * np.sin(np.pi * b), atol=1e-16)
    recomputed = (
        norm(data.u0, NormKind.w2p(4.0))
        + trace_gagliardo_norm(g, data.slip_data, 4.0)
        + face_w1p_norm(g.face("inflow"), data.w_in, 4.0)
    )
    assert data.b_measure == pytest.approx(recomputed, abs=1e-12)


def test_b_measure_linear_in_amplitude():
    g = make_grid()
    b = []
    for eps in (1e-3, 1e-2):
        boundary = DataConfig(epsilon=eps)
        b.append(assemble_perturbation_data(g, boundary, FlowParams()).b_measure)
    assert b[1] / b[0] == pytest.approx(10.0, rel=1e-10)


# ---------------------------------------------------------------------------
# forcings


def zero_data(grid):
    boundary = DataConfig(epsilon=0.0)
    return assemble_perturbation_data(grid, boundary, FlowParams())


def test_forcings_vanish_at_origin():
    g = make_grid()
    data = zero_data(g)
    F = compute_F(zeros_vector(g), zeros_scalar(g), data, FlowParams())
    G = compute_G(zeros_vector(g), zeros_scalar(g), data)
    assert np.all(F.values == 0.0)
    assert np.all(G.values == 0.0)


def test_compute_f_reduction_to_lifting_terms():
    # u = 0, w = 0: only terms built from u0 survive, including the axial
    # transport of the lifted field.
    g = make_grid()
    params = FlowParams(mu=1.3, nu=0.4)
    boundary = DataConfig(epsilon=5e-2)
    data = assemble_perturbation_data(g, boundary, params)
    F = compute_F(zeros_vector(g), zeros_scalar(g), data, params)

    u0 = data.u0.values
    conv = np.stack([advect(u0, u0[c], g) for c in range(3)])
    dx1 = np.stack([diff1(u0[c], g.h[0], 0) for c in range(3)])
    lap = np.stack([laplacian_array(u0[c], g) for c in range(3)])
    expected = -conv - dx1 + params.mu * lap + (params.nu + params.mu) * grad_div_array(u0, g)
    assert np.max(np.abs(F.values - expected)) <= 1e-13


def test_compute_g_reductions():
    g = make_grid()
    params = FlowParams()
    boundary = DataConfig(epsilon=5e-2)
    data = assemble_perturbation_data(g, boundary, params)

    div_u0 = sum(diff1(data.u0.values[a], g.h[a], a) for a in range(3))
    G0 = compute_G(zeros_vector(g), zeros_scalar(g), data)
    assert np.max(np.abs(G0.values + div_u0)) <= 1e-15

    u = smooth_vector(g, 5, 0.1)
    w = smooth_scalar(g, 9, 0.1)
    Gz = compute_G(u, w, zero_data(g))
    div_u = sum(diff1(u.values[a], g.h[a], a) for a in range(3))
    assert np.max(np.abs(Gz.values + w.values * div_u)) <= 1e-14


def test_compute_f_band_violation():
    g = make_grid()
    data = zero_data(g)
    w = ScalarField(g, np.full(g.shape, 1.5))
    with pytest.raises(ValueError, match="admissible band"):
        compute_F(zeros_vector(g), w, data, FlowParams())
    with pytest.raises(ValueError, match="admissible band"):
        compute_G(zeros_vector(g), w, data)


def test_quadratic_forcing_bound_frozen_constant():
    params = FlowParams()
    for n1, n2, n3, seeds in ((8, 4, 4, range(100, 115)), (16, 8, 8, range(100, 104))):
        g = build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n2, n3))
        for eps in (1e-3, 1e-2, 1e-1):
            boundary = DataConfig(epsilon=eps)
            data = assemble_perturbation_data(g, boundary, params)
            u0n = norm(data.u0, NormKind.w2p(4.0))
            for seed in seeds:
                u = smooth_vector(g, 4000 + seed, 0.1)
                w = smooth_scalar(g, 8000 + seed, 0.1)
                lhs = norm(compute_F(u, w, data, params), NormKind.lp(4.0)) + norm(
                    compute_G(u, w, data), NormKind.w1p(4.0)
                )
                A = norm(u, NormKind.w2p(4.0)) + norm(w, NormKind.w1p(4.0))
                assert lhs <= QUADRATIC_BOUND_C * (A**2 + u0n)
