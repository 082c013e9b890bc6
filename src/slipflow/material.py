"""Pressure closure, flow parameters, boundary data and forcing assembly.

This module owns everything the nonlinear iteration feeds on: the barotropic
pressure law and its derivatives, the prescribed boundary perturbations, the
divergence-style lifting u0 of the inhomogeneous normal trace, and the
pointwise forcing fields (momentum forcing F, continuity forcing G, slip
data B) that the linear step consumes.

Density is only ever admitted in the open band (0, 2): the solver treats a
field leaving the band as divergence of the outer iteration, never clamps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grid import FACE_NAMES, WALL_NAMES, Grid, Face
from .fields import (
    ScalarField, VectorField, NormKind, norm, diff1, div_array, grad_array, grad_div_array,
    laplacian_array, sym_gradient, advect, trace_gagliardo_norm, face_w1p_norm,
)

DENSITY_BAND = (0.0, 2.0)

# Faces that may carry a nonzero prescribed normal trace; on the lateral
# walls the normal trace of the full velocity is pinned to zero.
NORMAL_TRACE_FACES = tuple(name for name in FACE_NAMES if name not in WALL_NAMES)

PROFILE_NAMES = ("zero", "sine_bump")


# ---------------------------------------------------------------------------
# pressure closure

@dataclass(frozen=True)
class PressureLaw:
    """Barotropic closure pi(rho), C3 on the admissible band.

    kind "power":  pi(rho) = rho**coefficient, coefficient >= 1
    kind "linear": pi(rho) = coefficient * rho, coefficient > 0
    """

    kind: str = "power"
    coefficient: float = 2.0

    def __post_init__(self):
        if self.kind not in ("power", "linear"):
            raise ValueError(f"kind must be 'power' or 'linear', got {self.kind!r}")
        if not np.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient!r}")
        if self.kind == "power" and self.coefficient < 1.0:
            raise ValueError(
                f"coefficient (the power-law exponent) must be >= 1, got {self.coefficient!r}"
            )
        if self.kind == "linear" and self.coefficient <= 0.0:
            raise ValueError(
                f"coefficient (the linear slope) must be positive, got {self.coefficient!r}"
            )

    def value(self, rho):
        if self.kind == "power":
            return rho ** self.coefficient
        return self.coefficient * rho

    def d1(self, rho):
        if self.kind == "power":
            k = self.coefficient
            return k * rho ** (k - 1.0)
        return self.coefficient * np.ones_like(np.asarray(rho, dtype=float))

    @property
    def gamma(self) -> float:
        """Pressure slope at the reference density, d(pi)/d(rho)|_1."""
        return float(self.d1(1.0))


def _check_band(rho: np.ndarray, context: str):
    lo, hi = DENSITY_BAND
    bad = ~((rho > lo) & (rho < hi))
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{context}: density {np.asarray(rho)[idx]:.6g} at node {idx} "
            f"outside admissible band {DENSITY_BAND}"
        )


def delta_pi_prime(law: PressureLaw, w: ScalarField) -> ScalarField:
    """Pointwise pressure-slope deviation pi'(1 + w) - pi'(1)."""
    rho = 1.0 + w.values
    _check_band(rho, "delta_pi_prime")
    return ScalarField(w.grid, law.d1(rho) - law.gamma)


# ---------------------------------------------------------------------------
# flow parameters

@dataclass(frozen=True)
class FlowParams:
    """Viscosities, wall friction and the pressure closure.

    mu is the shear viscosity, nu the second viscosity coefficient,
    friction the Navier-slip coefficient on the tangential rows.  The
    pressure law's own checks keep its slope at the reference density
    positive.
    """

    mu: float = 1.0
    nu: float = 1.0
    friction: float = 10.0
    pressure: PressureLaw = field(default_factory=PressureLaw)

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if not np.isfinite(self.nu) or self.mu + 2.0 * self.nu <= 0.0:
            raise ValueError(
                f"nu must keep mu + 2*nu > 0 for a well-posed viscous operator, got {self.nu!r}"
            )
        if not (np.isfinite(self.friction) and self.friction > 0.0):
            raise ValueError(f"friction must be positive, got {self.friction!r}")


# ---------------------------------------------------------------------------
# boundary data

@dataclass(frozen=True)
class DataConfig:
    """Prescribed boundary perturbations by registry profile name, all
    scaled by the amplitude epsilon; the defaults are the documented data,
    a sine bump everywhere.

    normal_trace holds (face, profile) pairs for the normal trace of the
    full velocity, on inflow/outflow only (the walls keep a homogeneous
    normal trace); slip holds (face, profile) pairs for the tangential
    data, one profile for both rows of a face, and a face without a pair
    has zero data; inflow_density is the density profile on the inflow
    face.  An error about one face starts with <field>.<face>, as slip.z1.
    """

    epsilon: float = 1e-2
    inflow_density: str = "sine_bump"
    normal_trace: tuple[tuple[str, str], ...] = (("inflow", "sine_bump"),)
    slip: tuple[tuple[str, str], ...] = tuple((name, "sine_bump") for name in WALL_NAMES)

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon (the data amplitude) must be >= 0, got {self.epsilon!r}")
        if self.inflow_density not in PROFILE_NAMES:
            raise ValueError(f"inflow_density must be one of {sorted(PROFILE_NAMES)}, "
                             f"got {self.inflow_density!r}")
        for key in ("normal_trace", "slip"):
            pairs = getattr(self, key)
            if not (isinstance(pairs, tuple)
                    and all(isinstance(pair, tuple) and len(pair) == 2 for pair in pairs)):
                raise ValueError(f"{key} must be a tuple of (face, profile) tuples, got {pairs!r}")
            for face, profile in pairs:
                if face not in FACE_NAMES:
                    raise ValueError(f"{key}.{face} is not a face "
                                     f"(faces: {', '.join(FACE_NAMES)})")
                if key == "normal_trace" and face not in NORMAL_TRACE_FACES:
                    raise ValueError(f"normal_trace.{face} is not allowed: "
                                     "the wall normal trace is homogeneous")
                if profile not in PROFILE_NAMES:
                    raise ValueError(f"{key}.{face} profile {profile!r} is unknown "
                                     f"(available: {', '.join(PROFILE_NAMES)})")
            if len({face for face, _ in pairs}) < len(pairs):
                raise ValueError(f"{key} names a face more than once: {pairs!r}")


def face_profile(name: str, face: Face) -> np.ndarray:
    """Closed-form profile by registry name at the face's nodes, unscaled:
    the data amplitude epsilon multiplies it."""
    a, b = np.meshgrid(face.coords[0], face.coords[1], indexing="ij")
    if name == "zero":
        return np.zeros(a.shape)
    if name == "sine_bump":
        e1, e2 = face.coords[0][-1], face.coords[1][-1]
        return np.sin(np.pi * a / e1) * np.sin(np.pi * b / e2)
    raise ValueError(f"unknown profile {name!r} (available: {', '.join(PROFILE_NAMES)})")


# ---------------------------------------------------------------------------
# lifting of the inhomogeneous normal trace

def _hermite_ramp(xi: np.ndarray) -> np.ndarray:
    """C2 cutoff: 1 at 0, 0 at 1, vanishing first and second derivatives
    at both ends (quintic Hermite)."""
    x = np.clip(xi, 0.0, 1.0)
    return 1.0 - (10.0 * x**3 - 15.0 * x**4 + 6.0 * x**5)


def ramp_width(grid: Grid) -> float:
    return min(grid.config.extents) / 4.0


def extend_normal_trace(grid: Grid, data: DataConfig) -> VectorField:
    """Lift the prescribed normal-trace perturbation into the duct.

    Each face contribution is the face profile times a quintic Hermite
    ramp in the inward normal direction of width min(extent)/4, carried
    entirely by the normal velocity component; opposite-face
    contributions are summed, tangential components stay zero.  The
    normal trace matches the prescribed data exactly at face nodes.
    """
    vals = np.zeros((3, *grid.shape))
    width = ramp_width(grid)
    for name, profile in data.normal_trace:
        face = grid.face(name)
        trace = data.epsilon * face_profile(profile, face)
        axis_coords = grid.axes[face.axis]
        if face.side < 0:
            dist = axis_coords
        else:
            dist = axis_coords[-1] - axis_coords
        ramp = _hermite_ramp(dist / width)
        shape = [1, 1, 1]
        shape[face.axis] = axis_coords.size
        # n . u0 = trace on the face; the normal component carries it all
        comp = face.side * np.expand_dims(trace, face.axis)
        vals[face.axis] += comp * ramp.reshape(shape)
    return VectorField(grid, vals)


# ---------------------------------------------------------------------------
# assembled perturbation data

@dataclass(frozen=True)
class PerturbationData:
    """Everything the linear step needs about the boundary data, and the
    data's size in the norms of the smallness regime.

    slip_data maps face name -> (2, m, n) array: the right-hand sides of
    the two tangential Robin rows in the face frame, given data minus the
    lifted-field contribution 2 mu n.D(u0).tau_i.  w_in is the density
    perturbation trace on the inflow face.  The measures are taken in the
    Sobolev exponent p: u0_w2p = |u0|_W2p, slip_trace the fractional trace
    norm of the slip data, inflow_w1p = |w_in|_W1p of the inflow face, and
    b_measure, their sum, the single scalar data size driving the
    smallness regime.  measured() computes them.
    """

    u0: VectorField
    slip_data: Mapping[str, np.ndarray]
    w_in: np.ndarray
    p: float
    u0_w2p: float
    slip_trace: float
    inflow_w1p: float
    b_measure: float

    @classmethod
    def measured(
        cls, u0: VectorField, slip_data: Mapping[str, np.ndarray], w_in: np.ndarray, p: float
    ) -> "PerturbationData":
        """The data with their measures taken in p, each trace norm once."""
        grid = u0.grid
        u0_w2p = norm(u0, NormKind.w2p(p))
        slip_trace = trace_gagliardo_norm(grid, slip_data, p)
        inflow_w1p = face_w1p_norm(grid.face("inflow"), w_in, p)
        return cls(u0, slip_data, w_in, p, u0_w2p, slip_trace, inflow_w1p,
                   b_measure=u0_w2p + slip_trace + inflow_w1p)


def reference_flow(grid: Grid) -> np.ndarray:
    """The uniform axial flow e1 the perturbation is taken about."""
    vals = np.zeros((3, *grid.shape))
    vals[0] = 1.0
    return vals


def assemble_perturbation_data(
    grid: Grid,
    data: DataConfig,
    params: FlowParams,
    p: float = NormKind.p,
) -> PerturbationData:
    """Evaluate u0, the Robin right-hand sides and the data measures."""
    u0 = extend_normal_trace(grid, data)
    d_u0 = sym_gradient(u0)

    slip = dict(data.slip)
    slip_data: dict[str, np.ndarray] = {}
    for face in grid.faces:
        g = data.epsilon * face_profile(slip.get(face.name, "zero"), face)
        rows = []
        for t_ax in face.in_axes:
            # n . D(u0) . tau_i on the face, tau_i the unit vector along t_ax
            nd = face.side * face.take(d_u0[face.axis, t_ax])
            rows.append(g - 2.0 * params.mu * nd)
        slip_data[face.name] = np.stack(rows)

    w_in = data.epsilon * face_profile(data.inflow_density, grid.face("inflow"))
    _check_band(1.0 + w_in, "inflow density trace")
    return PerturbationData.measured(u0, slip_data, w_in, p)


# ---------------------------------------------------------------------------
# nonlinear forcings

def compute_F(
    u: VectorField, w: ScalarField, data: PerturbationData, params: FlowParams
) -> VectorField:
    """Momentum forcing of the linear step, evaluated at the outer iterate.

    With s = u + u0 the full perturbation velocity and v = e1 + s the
    reconstructed velocity, the momentum row of the linear step keeps
    d(u)/dx1, the viscous terms in u and the reference pressure gradient
    on the left; everything else lands here:

        F = -(1 + w) (s . grad) s - w d(s)/dx1 - d(u0)/dx1
            + mu lap(u0) + (nu + mu) grad(div u0) - dpi'(w) grad(w)

    which is the full momentum residual of the reconstructed physical
    fields minus the linear-step left-hand side, except for the pressure
    term: on the grid, grad(pi(1 + w)) differs from pi'(1 + w) grad(w) by
    the discrete chain-rule defect, which the momentum audit of
    diagnostics.reconstruct_physical therefore measures.
    """
    g = u.grid
    dpi = delta_pi_prime(params.pressure, w).values
    u0 = data.u0.values
    s = u.values + u0

    conv = np.stack([advect(s, s[c], g) for c in range(3)])
    dx1_s = np.stack([diff1(s[c], g.h[0], 0) for c in range(3)])
    dx1_u0 = np.stack([diff1(u0[c], g.h[0], 0) for c in range(3)])
    lap_u0 = np.stack([laplacian_array(u0[c], g) for c in range(3)])
    grad_div_u0 = grad_div_array(u0, g)
    grad_w = grad_array(w.values, g)

    vals = (
        -(1.0 + w.values) * conv
        - w.values * dx1_s
        - dx1_u0
        + params.mu * lap_u0
        + (params.nu + params.mu) * grad_div_u0
        - dpi * grad_w
    )
    return VectorField(g, vals)


def compute_G(u: VectorField, w: ScalarField, data: PerturbationData) -> ScalarField:
    """Continuity forcing of the linear step: -(w + 1) div u0 - w div u."""
    g = u.grid
    _check_band(1.0 + w.values, "compute_G")
    div_u0 = div_array(data.u0.values, g)
    div_u = div_array(u.values, g)
    return ScalarField(g, -(w.values + 1.0) * div_u0 - w.values * div_u)
