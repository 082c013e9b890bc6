"""Numerical audits of the estimate machinery on computed fields.

Each audit evaluates, with the package's own quadrature and difference
operators, an identity or bound that the continuum argument relies on:
the kinetic energy balance of the linear step, the algebraic form of the
vorticity trace under slip conditions, the Helmholtz splitting behind the
density estimate, the a priori solvability ratio, the mirror symmetry
of the inflow-plane slip functionals, and the physical system (v, rho)
that the perturbation form stands for.  The residuals are honest discrete
quantities: identities that hold exactly for the stencils report at
rounding level, the rest at quadrature/truncation level and shrink under
refinement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import Grid
from .fields import (
    ScalarField, VectorField, NormKind, norm, diff1, div_array, advect, laplacian_array,
    grad_array, grad_div_array, sym_gradient, divergence, curl, onesided_normal_d1, interior_l2,
)
from .material import (
    FlowParams, PerturbationData, _check_band, compute_F, compute_G, reference_flow,
)

# Fixed physical stand-off from walls and face edges for the audit
# measurement regions.  A fixed distance (not a fixed slab count) keeps the
# audited region the same under refinement, so the reported residuals can
# only improve through the fields, not through the mask.
EDGE_MARGIN = 0.25


def _diff1_hi(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order first derivative: 5-point central rows with one-sided
    and offset rows of the same order at the two boundary slabs.  Audits
    use this instead of the solver's second-order stencils so the audit's
    own truncation stays below the field error it is measuring."""
    out = np.empty_like(values, dtype=float)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    o[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    o[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    o[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    o[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    return out


def _vol_simpson(arr: np.ndarray, g: Grid) -> float:
    """Composite Simpson volume quadrature (one order above trapezoid)."""
    return float(g.simpson_weights(0) @ (arr @ g.simpson_weights(2) @ g.simpson_weights(1)))


def _face_simpson(arr2d: np.ndarray, face, g: Grid) -> float:
    t1, t2 = face.in_axes
    return float(g.simpson_weights(t1) @ arr2d @ g.simpson_weights(t2))


def _axis_margin_keep(g: Grid, axis: int) -> np.ndarray:
    x = g.axes[axis]
    extent = g.config.extents[axis]
    keep = (x >= EDGE_MARGIN - 1e-12) & (x <= extent - EDGE_MARGIN + 1e-12)
    if not np.any(keep):
        # grid too coarse for a margin; fall back to all nodes
        return np.ones_like(keep)
    return keep


def _face_margin_weights(face, g: Grid) -> np.ndarray:
    """Face quadrature weights with a strip of width EDGE_MARGIN next to
    each face edge zeroed out."""
    w = face.weights.copy()
    for k, ax in enumerate(face.in_axes):
        wm = np.moveaxis(w, k, 0)
        wm[~_axis_margin_keep(g, ax)] = 0.0
    return w


def _margin_volume_weights(g: Grid) -> np.ndarray:
    """Volume quadrature weights zeroed within EDGE_MARGIN of every wall."""
    wgt = g.volume_weights().copy()
    for ax in range(3):
        wg = np.moveaxis(wgt, ax, 0)
        wg[~_axis_margin_keep(g, ax)] = 0.0
    return wgt


def _smooth121(values: np.ndarray, passes: int) -> np.ndarray:
    """Repeated 1-2-1 averaging along each axis, interior rows only."""
    out = values.copy()
    for _ in range(passes):
        for ax in range(3):
            vm = np.moveaxis(out, ax, 0)
            vm[1:-1] = 0.25 * vm[:-2] + 0.5 * vm[1:-1] + 0.25 * vm[2:]
    return out


def energy_identity_residual(
    u: VectorField,
    w: ScalarField,
    forcing: VectorField,
    slip_data: Mapping[str, np.ndarray],
    params: FlowParams,
) -> float:
    """Scaled defect of the kinetic energy balance of the linear step.

    Testing the momentum rows against u and integrating by parts turns the
    viscous terms into 2 mu |D(u)|^2 + nu (div u)^2 plus friction on the
    boundary, the axial transport into an outflow/inflow flux of |u|^2 / 2,
    and the pressure coupling into -gamma (w, div u); the data enter
    through (F, u) and the slip rows.  The audit assembles both sides with
    fourth-order differences and Simpson quadrature: instrumented at the
    solver's own order the audit truncation is the same size as the field
    error and the two can cancel non-monotonically, whereas the
    higher-order instrument makes the field error dominate, so the
    residual shrinks under refinement.
    """
    g = u.grid
    mu, nu, f = params.mu, params.nu, params.friction
    gamma = params.pressure.gamma

    gt = np.stack(
        [np.stack([_diff1_hi(u.values[c], g.h[a], a) for a in range(3)]) for c in range(3)]
    )
    d_u = 0.5 * (gt + np.swapaxes(gt, 0, 1))
    dsq = np.sum(d_u**2, axis=(0, 1))
    div = gt[0, 0] + gt[1, 1] + gt[2, 2]
    lhs = _vol_simpson(2.0 * mu * dsq + nu * div**2, g)
    lhs -= gamma * _vol_simpson(w.values * div, g)

    usq = np.sum(u.values**2, axis=0)
    for face in g.faces:
        n1 = face.side if face.axis == 0 else 0
        lhs += (f + 0.5 * n1) * _face_simpson(usq[face.slicer()], face, g)

    rhs = _vol_simpson(np.sum(forcing.values * u.values, axis=0), g)
    for face in g.faces:
        sl = face.slicer()
        rows = slip_data[face.name]
        for i, t_ax in enumerate(face.in_axes):
            rhs += _face_simpson(rows[i] * u.values[t_ax][sl], face, g)

    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _eps(c: int, a: int, b: int) -> float:
    """Levi-Civita symbol for distinct axis indices."""
    return (a - c) * (b - c) * (b - a) / 2


def _deep_normal_d1(values: np.ndarray, face, h: float) -> np.ndarray:
    """Coordinate derivative along the face's normal axis at the wall slab,
    4-point one-sided (third order).  Deliberately deeper than the 3-point
    stencil the slip rows enforce: evaluating the wall vorticity with the
    enforced stencil would cancel against the Robin rows and report the
    linear solver's residual instead of the boundary calculus."""
    v = np.moveaxis(values, face.axis, 0)
    if face.side < 0:
        return (-11.0 * v[0] + 18.0 * v[1] - 9.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
    return (11.0 * v[-1] - 18.0 * v[-2] + 9.0 * v[-3] - 2.0 * v[-4]) / (6.0 * h)


def vorticity_boundary_residual(
    u: VectorField,
    slip_data: Mapping[str, np.ndarray],
    params: FlowParams,
) -> dict:
    """Face-wise defect of the algebraic vorticity traces on slip walls.

    On a flat wall the tangential vorticity components are determined by
    the slip data: the in-face derivatives act on the vanishing normal
    component and curl(u) . tau reduces to a signed normal derivative,
    which the slip row expresses through (B - f u_t).  The relations
    divide by the shear viscosity.

    The face L2 excludes a strip of width EDGE_MARGIN next to the face
    edges: second and higher normal derivatives of the computed fields
    degrade toward the duct edges (adjacent-wall compatibility), so the
    wall relation is audited where interior-style regularity holds.  The
    excluded strip has fixed physical width, making the measurement
    region refinement-independent.
    """
    g = u.grid
    f = params.friction
    out = {}
    for face in g.region_faces("lateral"):
        sl = face.slicer()
        na = face.axis
        t1, t2 = face.in_axes
        weights = _face_margin_weights(face, g)
        alpha1 = _eps(t1, t2, na) * diff1(u.values[na], g.h[t2], t2)[sl]
        alpha1 += _eps(t1, na, t2) * _deep_normal_d1(u.values[t2], face, g.h[na])
        alpha2 = _eps(t2, t1, na) * diff1(u.values[na], g.h[t1], t1)[sl]
        alpha2 += _eps(t2, na, t1) * _deep_normal_d1(u.values[t1], face, g.h[na])
        # det[tau_1, n, tau_2] and det[tau_2, n, tau_1] with n = side * e_na
        sigma1 = face.side * _eps(t1, na, t2)
        sigma2 = face.side * _eps(t2, na, t1)
        b1 = slip_data[face.name][0]
        b2 = slip_data[face.name][1]
        rel1 = alpha1 - sigma1 * (b2 - f * u.values[t2][sl]) / params.mu
        rel2 = alpha2 - sigma2 * (b1 - f * u.values[t1][sl]) / params.mu
        out[f"{face.name}_tau1"] = float(np.sqrt(np.sum(weights * rel1**2)))
        out[f"{face.name}_tau2"] = float(np.sqrt(np.sum(weights * rel2**2)))
    return out


def _neumann_poisson(rhs: np.ndarray, g: Grid) -> np.ndarray:
    """pot of zero weighted mean with lap(pot) = rhs, for rhs of zero
    weighted mean and the Neumann stencil of helmholtz_decompose, solved
    directly (Swarztrauber, SIAM Review 19, 1977).  The stencil is the
    periodic second difference of the even extension along each axis, so
    DCT-I diagonalizes it, with eigenvalues -(4/h_a^2) sin^2(pi k_a/(2 n_a))
    summed over the axes; the k = 0 coefficient is the trapezoid-weighted
    sum, and leaving it zero fixes the constant mode."""
    coef = rhs
    eig = np.zeros(g.shape)
    for a, n in enumerate(g.config.cells):
        # the DCT-I of v_0 .. v_n is the real FFT of the even extension
        # v_0 .. v_n, v_(n-1) .. v_1, whose period is 2n
        tail = np.take(coef, np.arange(n - 1, 0, -1), axis=a)
        coef = np.fft.rfft(np.concatenate([coef, tail], axis=a), axis=a).real
        lam = -(4.0 / g.h[a] ** 2) * np.sin(np.pi * np.arange(n + 1) / (2 * n)) ** 2
        eig += lam.reshape([-1 if b == a else 1 for b in range(3)])
    # the constant mode, the one zero eigenvalue, is left at zero
    coef = np.divide(coef, eig, out=np.zeros_like(coef), where=eig != 0.0)
    for a, n in enumerate(g.config.cells):
        coef = np.take(np.fft.irfft(coef, n=2 * n, axis=a), np.arange(n + 1), axis=a)
    return coef


def helmholtz_decompose(u: VectorField) -> tuple[ScalarField, VectorField, dict]:
    """Split u into a gradient part and a rotational remainder.

    Solves lap(pot) = div u with zero Neumann data using the ghost
    eliminated Neumann stencil (boundary rows 2(v_1 - v_0)/h^2 per axis),
    whose left null vector is exactly the trapezoid volume weight array;
    removing the weighted mean of div u therefore puts the data exactly
    in range.  A direct cosine-transform solve (_neumann_poisson) then
    picks the pot of zero weighted mean.  A = u - grad pot keeps the
    full curl to rounding: first differences along distinct axes commute
    node-by-node, boundary rows included.
    """
    g = u.grid
    vol = g.volume_weights()

    rhs = divergence(u).values.copy()
    rhs -= float(np.sum(vol * rhs)) / float(np.sum(vol))

    # a numerically divergence-free field has a rounding-level potential:
    # report it as exactly zero, not as the solve's image of that roundoff
    u_scale = float(np.max(np.abs(u.values)))
    if float(np.max(np.abs(rhs))) <= 1e-14 * max(1.0, u_scale / min(g.h)):
        pot = ScalarField(g, np.zeros(g.shape))
    else:
        pot = ScalarField(g, _neumann_poisson(rhs, g))
    grad_pot = grad_array(pot.values, g)
    a_vals = u.values - grad_pot
    a_field = VectorField(g, a_vals)

    curl_gap = float(np.max(np.abs(curl(a_field).values - curl(u).values)))
    an_sq = 0.0
    for face in g.faces:
        an = a_vals[face.axis][face.slicer()] * face.side
        an_sq += float(np.sum(face.weights * an**2))
    report = {
        "div_rotational_interior_l2": interior_l2(divergence(a_field).values, g),
        "curl_mismatch_max": curl_gap,
        "normal_trace_l2": float(np.sqrt(an_sq)),
    }
    return pot, a_field, report


def gradient_structure_residual(
    u: VectorField,
    forcing: VectorField,
    pot: ScalarField,
    a_field: VectorField,
    params: FlowParams,
) -> float:
    """Normalized curl of the combination that must be a pure gradient.

    Substituting the Helmholtz split into the momentum rows isolates
    R = F - d(A)/dx1 + mu lap A + (nu + mu) grad div A - d(grad pot)/dx1;
    in the continuum R collects only gradients (the pressure coupling and
    the potential's own transport), so curl R vanishes and the density
    is not read.  pot and a_field are helmholtz_decompose(u).  Returns
    |curl R|_L2(interior) / |R|_L2, zero when R itself vanishes.

    R is assembled with the solver's own stencils, so at interior nodes
    the momentum rows cancel exactly and only the gradient pair remains.
    The curl field is then read through a local average whose physical
    width shrinks like sqrt(h): R carries grid-frequency components of
    the discretization error, which a node-level curl amplifies by 1/h
    into a non-decaying floor, while the averaged reading retains the
    resolvable curl content.  An exact discrete gradient has curl R = 0
    node by node, so it still reports at rounding level; for smooth
    content the measurement converges to the continuum curl, and the
    residual decreases at about first order.
    """
    g = u.grid
    mu, nu = params.mu, params.nu
    a = a_field.values
    da1 = np.stack([diff1(a[c], g.h[0], 0) for c in range(3)])
    lap_a = np.stack([laplacian_array(a[c], g) for c in range(3)])
    gd_a = grad_div_array(a, g)
    gp = grad_array(pot.values, g)
    dgp1 = np.stack([diff1(gp[c], g.h[0], 0) for c in range(3)])
    r = forcing.values - da1 + mu * lap_a + (nu + mu) * gd_a - dgp1
    r_norm = norm(VectorField(g, r), NormKind.lp(2.0))
    if r_norm == 0.0:
        return 0.0
    passes = max(2, int(round(EDGE_MARGIN / min(g.h))))
    cr_raw = curl(VectorField(g, r)).values
    cr = np.stack([_smooth121(cr_raw[c], passes) for c in range(3)])
    wgt = _margin_volume_weights(g)
    num = float(np.sqrt(np.sum(wgt * np.sum(cr * cr, axis=0))))
    return num / r_norm


def apriori_ratio(
    u: VectorField,
    w: ScalarField,
    forcing: VectorField,
    continuity_forcing: ScalarField,
    data: PerturbationData,
) -> float:
    """Solution size over data size in the norms of the solvability bound,
    taken in the exponent data.p the data were measured in.

    The continuum estimate bounds |u|_W2p + |w|_W1p by a grid-independent
    multiple of the data norms; the ratio should therefore stay bounded
    under refinement and under data scaling.  The boundary data enter
    through their recorded trace norms.  Zero data reports 0.
    """
    p = data.p
    num = norm(u, NormKind.w2p(p)) + norm(w, NormKind.w1p(p))
    den = (
        norm(forcing, NormKind.lp(p))
        + norm(continuity_forcing, NormKind.w1p(p))
        + data.slip_trace
        + data.inflow_w1p
    )
    if den == 0.0:
        return 0.0
    return num / den


def reconstruct_physical(
    u: VectorField,
    w: ScalarField,
    data: PerturbationData,
    params: FlowParams,
) -> dict:
    """Undo the perturbation change of variables and audit the full system.

    v = u + (1,0,0) + u0 and rho = 1 + w; the report carries the discrete
    residuals of the steady momentum balance and continuity equation at
    interior nodes, the slip rows and impermeability on the boundary, and
    the inflow density trace.  All residual rows are built from the same
    difference operators the solver composes, so a converged solve audits
    at solver tolerance for every row it enforced; rows it never saw
    (the physical nonlinearity is in the forcing) audit at truncation
    level.  The momentum identity row is the momentum residual with its
    pressure term written pi'(rho) grad rho, as compute_F writes it: that
    is the momentum residual minus the discrete chain-rule defect, and it
    holds at solver tolerance, so it sees an error in any forcing term.
    """
    grid = u.grid
    mu, nu, f = params.mu, params.nu, params.friction
    e1_vals = reference_flow(grid)
    v_vals = u.values + data.u0.values + e1_vals
    rho_vals = 1.0 + w.values
    _check_band(rho_vals, "reconstruct_physical")

    law = params.pressure
    grad_p = grad_array(law.value(rho_vals), grid)
    gd = grad_div_array(v_vals, grid)
    mom_rest = np.stack([
        rho_vals * advect(v_vals, v_vals[c], grid) - mu * laplacian_array(v_vals[c], grid)
        - (nu + mu) * gd[c]
        for c in range(3)
    ])
    mom = mom_rest + grad_p
    # the pressure term the linear step and compute_F discretize
    mom_identity = mom_rest + law.d1(rho_vals) * grad_array(w.values, grid)
    continuity = div_array(rho_vals * v_vals, grid)

    d_v = sym_gradient(VectorField(grid, v_vals))
    d_u0 = sym_gradient(data.u0)
    slip_sq = 0.0
    normal_max = 0.0
    for face in grid.faces:
        sl = face.slicer()
        na, side = face.axis, face.side
        for i, t_ax in enumerate(face.in_axes):
            traction = 2.0 * mu * side * d_v[na, t_ax][sl]
            row = traction + f * v_vals[t_ax][sl]
            b_full = (
                data.slip_data[face.name][i]
                + 2.0 * mu * side * d_u0[na, t_ax][sl]
                + f * (e1_vals[t_ax][sl] + data.u0.values[t_ax][sl])
            )
            slip_sq += float(np.sum(face.weights * (row - b_full) ** 2))
        flux_data = side * (e1_vals[na][sl] + data.u0.values[na][sl])
        normal_max = max(normal_max, float(np.max(np.abs(side * v_vals[na][sl] - flux_data))))

    inflow = grid.face("inflow")
    trace_diff = rho_vals[inflow.slicer()] - (1.0 + data.w_in)
    return {
        "momentum_interior_l2": interior_l2(mom, grid),
        "momentum_identity_l2": interior_l2(mom_identity, grid),
        "continuity_interior_l2": interior_l2(continuity, grid),
        "slip_boundary_l2": float(np.sqrt(slip_sq)),
        "normal_trace_max": normal_max,
        "inflow_density_l2": float(np.sqrt(np.sum(inflow.weights * trace_diff**2))),
    }


def _inflow_slip_functionals(
    vals: np.ndarray, grid: Grid, face, params: FlowParams
) -> np.ndarray:
    """Normal trace and tangential traction rows of a field on one
    axial face, stacked (3, m, n)."""
    mu, f = params.mu, params.friction
    sl = face.slicer()
    side = face.side
    rows = [side * vals[face.axis][sl]]
    for t_ax in face.in_axes:
        dn_ut = onesided_normal_d1(vals[t_ax], face, grid.h[face.axis])
        dt_un = side * diff1(vals[face.axis], grid.h[t_ax], t_ax)[sl]
        rows.append(mu * (dn_ut + dt_un) + f * vals[t_ax][sl])
    return np.stack(rows)


def reflection_residual(u: VectorField, params: FlowParams) -> float:
    """Mirror-extension compatibility of the inflow-plane slip functionals.

    Reflecting through the inflow plane flips the axial coordinate and the
    axial velocity component; the reflected duct's outflow face then lands
    on the original inflow plane.  The slip functionals (normal trace and
    tangential traction rows) evaluated there from the reflected field
    must reproduce the original inflow values; discretely the two
    evaluations use mirrored stencils and agree to rounding, which is what
    licenses extending fields evenly across the inflow plane.
    """
    g = u.grid
    reflected = u.values[:, ::-1, :, :].copy()
    reflected[0] = -reflected[0]
    phi_in = _inflow_slip_functionals(u.values, g, g.face("inflow"), params)
    phi_out = _inflow_slip_functionals(reflected, g, g.face("outflow"), params)
    return float(np.max(np.abs(phi_in - phi_out)))


# ---------------------------------------------------------------------------
# report assembly

# Calibrated on converged default-data runs at the desk-scale grids
# (16,8,8) and (32,16,16) with roughly an order of magnitude of headroom;
# identities that are exact for the stencils keep rounding-level gates.
DEFAULT_TOLERANCES = {
    "energy_identity": 2e-3,
    "vorticity_slip_max": 5e-3,
    "helmholtz_div_rotational": 2e-2,
    "helmholtz_curl_mismatch": 1e-12,
    "helmholtz_normal_trace": 1e-2,
    "gradient_structure": 0.3,
    "apriori_ratio": 50.0,
    "reflection": 1e-12,
    # the physical system (reconstruct_physical): two rows the linear step
    # leaves at truncation level, calibrated like the rows above at
    # epsilon 1e-2 and 7e-3, then four that hold at solver tolerance
    "momentum_interior_l2": 4e-5,
    "momentum_identity_l2": 1e-9,
    "continuity_interior_l2": 3e-3,
    "slip_boundary_l2": 1e-9,
    "normal_trace_max": 1e-12,
    "inflow_density_l2": 1e-12,
}


@dataclass(frozen=True)
class DiagnosticEntry:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class DiagnosticReport:
    entries: tuple[DiagnosticEntry, ...]

    def entry(self, name: str) -> DiagnosticEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_flat_dict(self) -> dict:
        return {
            e.name: {"value": e.value, "tolerance": e.tolerance, "pass": e.passed}
            for e in self.entries
        }

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def run_diagnostics(
    u: VectorField,
    w: ScalarField,
    data: PerturbationData,
    params: FlowParams,
) -> DiagnosticReport:
    """Run every audit on one solution and grade against DEFAULT_TOLERANCES.

    data are the run's boundary data.  The audits read the linear step's
    forcings at (u, w) itself, compute_F and compute_G; the a-priori
    ratio is measured in the exponent data.p (the run's solver.p).
    """
    forcing = compute_F(u, w, data, params)
    continuity_forcing = compute_G(u, w, data)
    entries = []

    def add(name, value):
        if not np.isfinite(value):
            raise ValueError(f"diagnostic {name} produced non-finite value {value!r}")
        tol = DEFAULT_TOLERANCES[name]
        entries.append(DiagnosticEntry(name, float(value), tol, float(value) <= tol))

    slip_data = data.slip_data
    add("energy_identity", energy_identity_residual(u, w, forcing, slip_data, params))
    vort = vorticity_boundary_residual(u, slip_data, params)
    add("vorticity_slip_max", max(vort.values()))
    pot, a_field, helm = helmholtz_decompose(u)
    add("helmholtz_div_rotational", helm["div_rotational_interior_l2"])
    add("helmholtz_curl_mismatch", helm["curl_mismatch_max"])
    add("helmholtz_normal_trace", helm["normal_trace_l2"])
    add("gradient_structure", gradient_structure_residual(u, forcing, pot, a_field, params))
    add("apriori_ratio", apriori_ratio(u, w, forcing, continuity_forcing, data))
    add("reflection", reflection_residual(u, params))
    for name, value in reconstruct_physical(u, w, data, params).items():
        add(name, value)
    return DiagnosticReport(tuple(entries))
