import dataclasses
import itertools

import numpy as np
import pytest

from slipflow.grid import GeometryConfig, build_grid
from slipflow.fields import (
    ScalarField,
    VectorField,
    curl,
    diff1,
    grad_array,
    divergence,
    interior_l2,
    zeros_scalar,
    zeros_vector,
)
from slipflow import diagnostics, lame, material
from slipflow.material import (
    FlowParams,
    PerturbationData,
    DataConfig,
    assemble_perturbation_data,
)
from slipflow.config import SolverConfig, config_from_mapping
from slipflow.picard import ProblemSetup, build_setup, picard_solve
from slipflow.lame import build_lame_operator, solve_linear_step
from slipflow.mms import build_linear_case
from slipflow.krylov import krylov_solve
from slipflow.diagnostics import (
    energy_identity_residual,
    vorticity_boundary_residual,
    helmholtz_decompose,
    gradient_structure_residual,
    apriori_ratio,
    reflection_residual,
    reconstruct_physical,
    run_diagnostics,
    _eps,
    _margin_weights,
    DiagnosticReport,
    DEFAULT_TOLERANCES,
)
from oracles import make_setup, smooth_vector, zero_slip


def measured(grid, slip, w_in):
    """The boundary data of a case without a lift, measured as a run's are."""
    traces = {face.name: np.zeros(face.weights.shape) for face in grid.faces}
    return PerturbationData.measured(zeros_vector(grid), traces, slip, w_in, 4.0)


def default_data_setup(eps, n1=8, mode="split"):
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n1 // 2, n1 // 2))
    params = FlowParams()
    data = assemble_perturbation_data(grid, DataConfig(epsilon=eps), params)
    return ProblemSetup(grid, params, data, SolverConfig(mode=mode))


def solved_mms(n1, mode="monolithic"):
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n1 // 2, n1 // 2))
    params = FlowParams()
    case = build_linear_case(grid, params)
    step = solve_linear_step(
        build_lame_operator(grid, params), case.convect, case.forcing,
        case.continuity, case.slip_data, case.w_in, mode=mode,
    )
    return grid, params, case, step


# --- energy identity ---


def test_energy_zero_fields():
    grid, params = make_setup()
    res = energy_identity_residual(
        zeros_vector(grid), zeros_scalar(grid), zeros_vector(grid),
        zero_slip(grid), params,
    )
    assert res == 0.0


def test_energy_decreases_on_solved_fields():
    vals = {}
    for n1 in (8, 16):
        grid, params, case, step = solved_mms(n1)
        vals[n1] = energy_identity_residual(
            step.u, step.w, case.forcing, case.slip_data, params
        )
    assert vals[8] > 2.0 * vals[16]
    assert vals[16] < 5e-3


# --- vorticity relations on slip walls ---


def test_vorticity_zero_fields():
    grid, params = make_setup()
    out = vorticity_boundary_residual(
        zeros_vector(grid), zero_slip(grid), params
    )
    assert set(out) == {
        f"{name}_tau{i}"
        for name in ("y0", "y1", "z0", "z1")
        for i in (1, 2)
    }
    assert all(v == 0.0 for v in out.values())


def test_tangent_signs_match_determinants():
    # the wall relations' signs det[e_a, n, e_b], n = side * e_axis, in
    # closed form; the determinants are the reference, bit for bit
    eye = np.eye(3)
    for c, a, b in itertools.permutations(range(3)):
        assert _eps(c, a, b) == float(np.linalg.det(eye[[c, a, b]]))
    for face in build_grid(GeometryConfig()).faces:
        for a, b in (face.in_axes, face.in_axes[::-1]):
            det = np.linalg.det(np.stack([eye[a], face.side * eye[face.axis], eye[b]], axis=1))
            assert face.side * _eps(a, face.axis, b) == float(det)


def test_vorticity_exact_for_quadratic_shear():
    # u = (x2^2, 0, 0): every stencil involved is exact for quadratics,
    # so slip data built from the analytic traction zeroes the relations
    grid, params = make_setup(8, 8, 8)
    x1, x2, x3 = grid.meshgrid()
    u = VectorField(grid, np.stack([x2**2, np.zeros(grid.shape), np.zeros(grid.shape)]))
    slip = zero_slip(grid)
    for name, wall in (("y0", 0.0), ("y1", 1.0)):
        face = grid.face(name)
        side = face.side
        # tangent rows ordered by in_axes; u1 lives on in-axis 0 of y-faces
        slip[name][0] = params.mu * side * 2.0 * wall + params.friction * wall**2
    for name in ("z0", "z1"):
        # normal derivative of u1 vanishes on z walls; traction is pure friction
        face = grid.face(name)
        slip[name][0] = params.friction * (x2**2)[face.slicer()]
    out = vorticity_boundary_residual(u, slip, params)
    assert max(out.values()) < 1e-12


def test_vorticity_sign_error_detected():
    # flipping the slip datum's sign must leave a large residual
    grid, params = make_setup(8, 8, 8)
    x1, x2, x3 = grid.meshgrid()
    u = VectorField(grid, np.stack([x2**2, np.zeros(grid.shape), np.zeros(grid.shape)]))
    slip = zero_slip(grid)
    for name, wall in (("y0", 0.0), ("y1", 1.0)):
        face = grid.face(name)
        side = face.side
        slip[name][0] = -(params.mu * side * 2.0 * wall + params.friction * wall**2)
    out = vorticity_boundary_residual(u, slip, params)
    assert out["y1_tau2"] > 1.0


def test_margin_weights_fall_back_to_every_node_on_a_narrow_duct():
    # no node of a 0.4-wide axis is EDGE_MARGIN = 0.25 from both of its
    # ends, so the audited region falls back to the whole face and volume
    narrow = build_grid(GeometryConfig(0.4, 0.4, 0.4, 8, 8, 8))
    vol = narrow.volume_weights()
    assert np.array_equal(_margin_weights(vol, narrow, range(3)), vol)
    for face in narrow.faces:
        assert np.array_equal(_margin_weights(face.weights, narrow, face.in_axes), face.weights)
    # on the default duct the margin zeroes weights of the volume and of
    # every face
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, 16, 8, 8))
    for weights, axes in ((grid.volume_weights(), range(3)),
                          *((face.weights, face.in_axes) for face in grid.faces)):
        masked = _margin_weights(weights, grid, axes)
        assert np.count_nonzero(masked) < np.count_nonzero(weights)


# --- Helmholtz split ---


def test_helmholtz_zero_field():
    grid, params = make_setup()
    pot, a_field, rep = helmholtz_decompose(zeros_vector(grid))
    assert np.all(pot.values == 0.0)
    assert np.all(a_field.values == 0.0)
    assert rep["div_rotational_interior_l2"] == 0.0
    assert rep["normal_trace_l2"] == 0.0
    assert np.all(curl(a_field).values == 0.0)


def test_helmholtz_curl_preserved_and_recomposition():
    # first differences along distinct axes commute node by node, boundary
    # rows included, so the remainder keeps the curl of u to rounding on
    # any input, a smooth field or a random one
    grid, params = make_setup(8, 6, 6)
    random = VectorField(grid, np.random.default_rng(37).standard_normal((3, *grid.shape)))
    for u in (smooth_vector(grid, 7), random):
        pot, a_field, rep = helmholtz_decompose(u)
        curl_u = curl(u).values
        assert np.max(np.abs(curl(a_field).values - curl_u)) <= 1e-14 * np.max(np.abs(curl_u))
        gap = (u.values - grad_array(pot.values, u.grid)) - a_field.values
        assert np.max(np.abs(gap)) == 0.0


def test_helmholtz_divergence_free_input_short_circuits():
    # a field whose discrete divergence cancels exactly gets pot = 0
    grid, params = make_setup(8, 6, 6)
    x1, x2, x3 = grid.meshgrid()
    psi = np.sin(np.pi * x2) * np.sin(np.pi * x3) * np.sin(np.pi * x1 / 2.0)
    av = np.stack([diff1(psi, grid.h[1], 1), -diff1(psi, grid.h[0], 0), np.zeros(grid.shape)])
    pot, a_field, rep = helmholtz_decompose(VectorField(grid, av))
    assert np.all(pot.values == 0.0)
    assert rep["div_rotational_interior_l2"] < 1e-13


def test_helmholtz_removes_most_divergence():
    grid, params = make_setup(12, 8, 8)
    u = smooth_vector(grid, 13, amp=1.0)
    pot, a_field, rep = helmholtz_decompose(u)
    div_u = interior_l2(divergence(u).values, grid)
    assert rep["div_rotational_interior_l2"] < 0.5 * div_u


def test_helmholtz_pot_weighted_mean_zero():
    grid, params = make_setup(8, 6, 6)
    u = smooth_vector(grid, 19)
    pot, _, _ = helmholtz_decompose(u)
    vol = grid.volume_weights()
    assert abs(np.sum(vol * pot.values)) / np.sum(vol) < 1e-10


def neumann_lap(pot, grid):
    """The ghost-eliminated Neumann stencil: boundary rows 2(v_1 - v_0)/h^2."""
    out = np.zeros_like(pot)
    for a in range(3):
        v = np.moveaxis(pot, a, 0)
        o = np.moveaxis(out, a, 0)
        h2 = grid.h[a] ** 2
        o[1:-1] += (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
        o[0] += 2.0 * (v[1] - v[0]) / h2
        o[-1] += 2.0 * (v[-2] - v[-1]) / h2
    return out


def mean_free_divergence(u):
    vol = u.grid.volume_weights()
    rhs = divergence(u).values.copy()
    rhs -= float(np.sum(vol * rhs)) / float(np.sum(vol))
    return rhs


def krylov_neumann_potential(u):
    """The potential as the audit solved it with BiCGStab: the constant mode
    lifted by a rank-one shift, which also zeroes the weighted mean."""
    grid = u.grid
    vol = grid.volume_weights().reshape(-1)
    wsum = float(np.sum(vol))
    shift = 2.0 * sum(1.0 / ha**2 for ha in grid.h)

    def action(x):
        y = neumann_lap(x.reshape(grid.shape), grid).reshape(-1)
        return y - shift * (float(vol @ x) / wsum)

    sol, _, _ = krylov_solve(
        action, mean_free_divergence(u).reshape(-1), 1e-10, precond=lambda p: p / -shift
    )
    return sol.reshape(grid.shape)


@pytest.mark.parametrize("cells", [(8, 6, 6), (9, 5, 7), (16, 8, 8)])
def test_helmholtz_direct_solve_matches_krylov(cells):
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, *cells))
    u = smooth_vector(grid, 7)
    pot, _, _ = helmholtz_decompose(u)
    ref = krylov_neumann_potential(u)
    assert np.max(np.abs(pot.values - ref)) <= 1e-9 * np.max(np.abs(ref))
    rhs = mean_free_divergence(u)
    gap = neumann_lap(pot.values, grid) - rhs
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(rhs))


# --- gradient structure of the momentum combination ---


def test_gradient_structure_zero_everything():
    grid, params = make_setup()
    res = gradient_structure_residual(
        zeros_vector(grid), zeros_scalar(grid), zeros_vector(grid), params,
    )
    assert res == 0.0


def test_gradient_structure_exact_discrete_gradient():
    # with u = w = 0 the combination reduces to F; a discrete gradient F
    # must be certified at rounding level
    grid, params = make_setup(10, 8, 8)
    rng = np.random.default_rng(3)
    x1, x2, x3 = grid.meshgrid()
    s = np.cos(x1) * np.cos(2.0 * x2) + np.sin(x3) + rng.normal() * x1 * x2
    forcing = VectorField(grid, grad_array(s, grid))
    res = gradient_structure_residual(
        forcing, zeros_scalar(grid), zeros_vector(grid), params,
    )
    assert res < 1e-13


def test_gradient_structure_flags_rotational_forcing():
    # F with order-one curl is not a gradient; the certificate must say so
    grid, params = make_setup(10, 8, 8)
    x1, x2, x3 = grid.meshgrid()
    forcing = VectorField(
        grid, np.stack([x2, np.zeros(grid.shape), np.zeros(grid.shape)])
    )
    res = gradient_structure_residual(
        forcing, zeros_scalar(grid), zeros_vector(grid), params,
    )
    assert res > 0.1


# --- a priori ratio ---


def test_apriori_zero_data_reports_zero():
    grid, params = make_setup()
    res = apriori_ratio(
        zeros_vector(grid), zeros_scalar(grid), zeros_vector(grid), zeros_scalar(grid),
        measured(grid, zero_slip(grid), np.zeros(grid.shape)[grid.face("inflow").slicer()]),
    )
    assert res == 0.0


def test_apriori_scale_invariant():
    grid, params = make_setup()
    rng = np.random.default_rng(23)
    u = smooth_vector(grid, 5)
    w = ScalarField(grid, 0.05 * rng.standard_normal(grid.shape))
    forcing = smooth_vector(grid, 6)
    g_forcing = ScalarField(grid, 0.05 * rng.standard_normal(grid.shape))
    slip = {
        face.name: 0.1 * rng.standard_normal((2, *face.weights.shape))
        for face in grid.faces
    }
    w_in = 0.1 * rng.standard_normal(grid.face("inflow").weights.shape)
    r1 = apriori_ratio(u, w, forcing, g_forcing, measured(grid, slip, w_in))
    r2 = apriori_ratio(
        VectorField(grid, 3.0 * u.values),
        ScalarField(grid, 3.0 * w.values),
        VectorField(grid, 3.0 * forcing.values),
        ScalarField(grid, 3.0 * g_forcing.values),
        measured(grid, {k: 3.0 * v for k, v in slip.items()}, 3.0 * w_in),
    )
    assert r1 > 0.0
    assert abs(r1 - r2) < 1e-12 * r1 + 1e-14


# --- reflection of the inflow functionals ---


def test_reflection_exact_on_random_fields():
    grid, params = make_setup(8, 6, 6)
    rng = np.random.default_rng(31)
    u = VectorField(grid, rng.standard_normal((3, *grid.shape)))
    assert reflection_residual(u, params) < 1e-13


def test_reflection_zero_field():
    grid, params = make_setup()
    assert reflection_residual(zeros_vector(grid), params) == 0.0


# --- the physical system ---


def test_reconstruction_residuals_sharpen_under_refinement():
    res = {}
    for n1 in (8, 16):
        setup = default_data_setup(1e-2, n1=n1, mode="monolithic")
        bundle = picard_solve(setup)
        assert bundle.converged
        residuals = reconstruct_physical(bundle.u, bundle.w, setup.data, setup.params)
        res[n1] = residuals
        # rows the solver enforced audit at solver tolerance
        assert residuals["slip_boundary_l2"] <= 1e-9
        assert residuals["normal_trace_max"] == 0.0
        # the momentum audit is what the linearized pressure rows leave out:
        # the discrete chain-rule defect grad p(rho) - p'(rho) grad rho
        rho = 1.0 + bundle.w.values
        law = setup.params.pressure
        defect = interior_l2(
            grad_array(law.value(rho), setup.grid) - law.d1(rho) * grad_array(rho, setup.grid),
            setup.grid,
        )
        assert residuals["momentum_interior_l2"] == pytest.approx(defect, rel=1e-4)
        # the identity row is what is left: the residual minus the defect
        assert residuals["momentum_identity_l2"] <= 1e-9
    # the continuity audit compares central products against the
    # characteristics density the solver enforced; its leading term is
    # first order but the boundary-layer ramp is still resolving at these
    # sizes (ratio observed 1.53 here)
    assert res[8]["continuity_interior_l2"] / res[16]["continuity_interior_l2"] >= 1.3
    # the chain-rule defect follows the smoothness of the traced density,
    # which sharpens slowly (ratio observed 1.94 here, 2.29 one doubling later)
    assert res[16]["momentum_interior_l2"] < res[8]["momentum_interior_l2"]


def test_momentum_identity_catches_a_convection_error(monkeypatch):
    # a 5% error in the convection term of compute_F leaves the truncation-
    # level momentum row passing (it even falls) but fails the identity row
    advect = material.advect
    monkeypatch.setattr(material, "advect", lambda *args: 1.05 * advect(*args))
    setup = build_setup(config_from_mapping({}))
    bundle = picard_solve(setup)
    assert bundle.converged
    report = run_diagnostics(bundle.u, bundle.w, setup.data, setup.params)
    assert report.entry("momentum_interior_l2").passed
    identity = report.entry("momentum_identity_l2")
    assert not identity.passed and identity.value > 1e-7


# --- what each row catches ---


def mutant(*patches):
    """Replace each (module, name) by wrap(module.name)."""
    def mutate(monkeypatch, setup):
        for module, name, wrap in patches:
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return mutate


def scaled(fn):
    return lambda *args: 1.05 * fn(*args)


def reading(name):
    """Wrap lame's row action, which the matrix is read off, to read
    FlowParams.name scaled."""
    def wrap(action):
        return lambda values, g, params: action(
            values, g, dataclasses.replace(params, **{name: 1.05 * getattr(params, name)}))
    return wrap


def scaled_source_weights(build):
    def footprint(tf):
        fp = build(tf)
        return dataclasses.replace(fp, terms=tuple((off, 1.05 * m) for off, m in fp.terms))
    return footprint


def scaled_divergence_of(u0_term):
    """compute_G with the divergence of u0 scaled, or that of the iterate."""
    def mutate(monkeypatch, setup):
        u0 = setup.data.u0.values
        div = material.div_array
        monkeypatch.setattr(material, "div_array", lambda v, g: (
            1.05 if (v is u0) == u0_term else 1.0) * div(v, g))
    return mutate


def wrong_friction(slip_traction):
    return lambda values, grid, mu, friction: slip_traction(values, grid, mu, 1.05 * friction)


# the data amplitude of every mutant run
EPSILON = 1e-2


def leaking(lift):
    """A lift that carries 5% of epsilon through the x2 walls."""
    def leaky(grid, normal_trace):
        vals = lift(grid, normal_trace).values.copy()
        vals[1] += 0.05 * EPSILON
        return VectorField(grid, vals)
    return leaky


def reassembled(*patches):
    """mutant(*patches), with the run's boundary data assembled again
    under them."""
    def mutate(monkeypatch, setup):
        mutant(*patches)(monkeypatch, setup)
        return dataclasses.replace(setup, data=assemble_perturbation_data(
            setup.grid, DataConfig(epsilon=EPSILON), setup.params))
    return mutate


IDENTITY = {"momentum_identity_l2"}
MOMENTUM = {"momentum_identity_l2", "momentum_interior_l2"}
CONTINUITY_GAP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 7: no diagnose row audits continuity at solver tolerance")
VORTICITY_GAP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="5% of the friction moves vorticity_slip_max from 4.4e-4 to 3.6e-4, far inside "
    "its bound 5e-3, and the physical rows share slip_traction with the solve")


@pytest.mark.parametrize("mutate, failing", [
    (mutant((material, "advect", scaled)), IDENTITY),
    (mutant((material, "diff1", scaled)), IDENTITY),
    (mutant((material, "grad_array", scaled)), IDENTITY),
    (mutant((material, "lame_array", scaled)), MOMENTUM),
    (mutant((lame, "_row_action", reading("nu"))), MOMENTUM),
    (mutant((lame, "_row_action", reading("mu"))), MOMENTUM | {"slip_boundary_l2"}),
    (mutant((lame, "_row_action", reading("friction"))), {"slip_boundary_l2"}),
    (mutant((lame, "grad_array", scaled)), MOMENTUM),
    pytest.param(scaled_divergence_of(True), {"continuity_identity_l2"}, marks=CONTINUITY_GAP),
    pytest.param(scaled_divergence_of(False), {"continuity_identity_l2"}, marks=CONTINUITY_GAP),
    pytest.param(mutant((lame, "transport_footprint", scaled_source_weights)),
                 {"continuity_identity_l2"}, marks=CONTINUITY_GAP),
    pytest.param(reassembled(*((module, "slip_traction", wrong_friction)
                               for module in (lame, material, diagnostics))),
                 {"vorticity_slip_max"}, marks=VORTICITY_GAP),
    (reassembled((material, "extend_normal_trace", leaking)), {"normal_trace_max"}),
], ids=[
    "compute_F convection", "compute_F w d1 s", "compute_F dpi' grad w", "compute_F L(u0)",
    "matrix nu", "matrix mu", "matrix friction", "step gamma",
    "compute_G (w + 1) div u0", "compute_G w div u", "footprint source weights",
    "slip_traction friction", "lift through the walls",
])
def test_diagnose_rows_catch_five_percent_mutants(mutate, failing, monkeypatch):
    # each mutant scales one term of the solver by 1.05; the compute_F and
    # compute_G mutants act in both the solve and diagnose, the operator,
    # step and footprint mutants in the solve only; the slip_traction and
    # lift mutants act from the boundary data on, so they return the setup
    # rebuilt.  The rows that must fail are the README's "what each row
    # catches" table
    setup = default_data_setup(EPSILON, n1=16, mode="monolithic")
    setup = mutate(monkeypatch, setup) or setup
    bundle = picard_solve(setup)
    assert bundle.converged
    report = run_diagnostics(bundle.u, bundle.w, setup.data, setup.params)
    assert {e.name for e in report.entries if not e.passed} == failing


def test_reconstruct_rejects_out_of_band_density():
    setup = default_data_setup(0.0)
    u = VectorField(setup.grid, np.zeros((3, *setup.grid.shape)))
    w = ScalarField(setup.grid, np.full(setup.grid.shape, 1.5))
    with pytest.raises(ValueError, match="admissible band"):
        reconstruct_physical(u, w, setup.data, setup.params)


# --- report assembly ---


def diag_inputs(grid):
    data = measured(grid, zero_slip(grid), np.zeros(grid.shape)[grid.face("inflow").slicer()])
    return zeros_vector(grid), zeros_scalar(grid), data


def test_run_diagnostics_zero_fields_all_pass():
    grid, params = make_setup()
    report = run_diagnostics(*diag_inputs(grid), params)
    assert isinstance(report, DiagnosticReport)
    assert report.all_passed
    assert {e.name for e in report.entries} == set(DEFAULT_TOLERANCES)
    assert all(e.value == 0.0 for e in report.entries)


def test_run_diagnostics_converged_run_passes_defaults():
    # default tolerances are calibrated against exactly these runs: the
    # monolithic (16,8,8) run, the default split run and the monolithic
    # (32,16,16) run of the benchmark, at both ends of its epsilon band
    runs = [default_data_setup(1e-2, n1=16, mode="monolithic")]
    for eps in (7e-3, 1e-2):
        runs.append(build_setup(config_from_mapping({"data": {"epsilon": eps}})))
        runs.append(build_setup(config_from_mapping({
            "geometry": {"n1": 32, "n2": 16, "n3": 16},
            "data": {"epsilon": eps},
            "solver": {"mode": "monolithic"},
        })))
    for setup in runs:
        bundle = picard_solve(setup)
        assert bundle.converged
        report = run_diagnostics(bundle.u, bundle.w, setup.data, setup.params)
        assert len(report.entries) == len(DEFAULT_TOLERANCES) == 12
        failing = [e.name for e in report.entries if not e.passed]
        assert failing == []


def test_run_diagnostics_tolerance_override_flips_pass(monkeypatch):
    grid, params, case, step = solved_mms(8)
    monkeypatch.setitem(DEFAULT_TOLERANCES, "apriori_ratio", 0.0)
    report = run_diagnostics(step.u, step.w, measured(grid, case.slip_data, case.w_in), params)
    assert not report.entry("apriori_ratio").passed
    assert not report.all_passed


def test_report_flat_dict_and_lookup():
    grid, params = make_setup()
    report = run_diagnostics(*diag_inputs(grid), params)
    flat = report.as_flat_dict()
    assert set(flat) == set(DEFAULT_TOLERANCES)
    assert flat["energy_identity"] == {
        "value": 0.0,
        "tolerance": DEFAULT_TOLERANCES["energy_identity"],
        "pass": True,
    }
    with pytest.raises(KeyError):
        report.entry("no_such_audit")
