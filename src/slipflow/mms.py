"""Manufactured solutions with symbolically derived forcing data.

Exact velocity/density pairs are chosen with zero normal trace on every
face, the matching volume forcings and slip data are derived with sympy
once per case, and everything is handed out as plain node arrays so the
solver can be run against a known answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import sympy as sp

from .grid import Grid, Face
from .fields import ScalarField, VectorField
from .material import FlowParams

_X = sp.symbols("x1 x2 x3")
_AMPLITUDE = 0.05  # of the manufactured velocity, density and advecting field


def _lambdify(expr):
    fn = sp.lambdify(_X, expr, modules="numpy")

    def call(x1, x2, x3):
        out = fn(x1, x2, x3)
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast(x1, x2, x3).shape).copy()

    return call


def _eval_volume(expr, grid: Grid) -> np.ndarray:
    x1, x2, x3 = grid.meshgrid()
    return _lambdify(expr)(x1, x2, x3)


def _eval_face(expr, face: Face, grid: Grid) -> np.ndarray:
    a, b = np.meshgrid(face.coords[0], face.coords[1], indexing="ij")
    fixed = grid.axes[face.axis][face.index]
    coords = [None, None, None]
    coords[face.axis] = np.full_like(a, fixed)
    coords[face.in_axes[0]] = a
    coords[face.in_axes[1]] = b
    return _lambdify(expr)(*coords)


def _vector_ops(u, params: FlowParams):
    """Symbolic Lame action and divergence of a 3-tuple of expressions."""
    div = sum(sp.diff(u[a], _X[a]) for a in range(3))
    lame = []
    for c in range(3):
        lap = sum(sp.diff(u[c], _X[a], 2) for a in range(3))
        lame.append(
            sp.diff(u[c], _X[0])
            - params.mu * lap
            - (params.nu + params.mu) * sp.diff(div, _X[c])
        )
    return lame, div


def _slip_rows(u, face: Face, params: FlowParams):
    """Full traction slip data 2 mu n.D(u).tau_i + f u.tau_i on a face,
    n = side * e_axis and tau_i the unit vector along in_axes[i]."""
    n = face.axis
    rows = []
    for t in face.in_axes:
        d_nt = sp.Rational(1, 2) * (sp.diff(u[n], _X[t]) + sp.diff(u[t], _X[n]))
        rows.append(2 * params.mu * face.side * d_nt + params.friction * u[t])
    return rows


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """Exact solution pair plus every data array the linear step takes."""

    grid: Grid
    u_exact: VectorField
    w_exact: ScalarField
    convect: VectorField
    forcing: VectorField
    continuity: ScalarField
    slip_data: Mapping[str, np.ndarray]
    w_in: np.ndarray


def build_linear_case(grid: Grid, params: FlowParams) -> ManufacturedCase:
    """Smooth (u, w) with n.u = 0 on every face, plus derived data so that
    the coupled linear step has exactly this pair as its continuum
    solution."""
    x1, x2, x3 = _X
    L, W2, W3 = grid.config.extents
    a = _AMPLITUDE

    u = (
        a * sp.sin(sp.pi * x1 / L) * sp.cos(sp.pi * x2 / W2) * sp.cos(sp.pi * x3 / W3),
        a * sp.sin(sp.pi * x2 / W2) * sp.cos(sp.pi * x1 / L) * sp.cos(sp.pi * x3 / W3),
        a * sp.sin(sp.pi * x3 / W3) * sp.cos(sp.pi * x1 / L) * sp.cos(sp.pi * x2 / W2),
    )
    w = a * sp.cos(sp.pi * x1 / (2 * L)) * sp.cos(sp.pi * x2 / W2) * sp.cos(sp.pi * x3 / W3)
    convect = (
        a * sp.sin(sp.pi * x1 / L) * sp.cos(sp.pi * x2 / W2),
        a * sp.sin(sp.pi * x2 / W2) * sp.cos(sp.pi * x3 / W3),
        a * sp.sin(sp.pi * x3 / W3) * sp.cos(sp.pi * x1 / L),
    )

    lame, div_u = _vector_ops(u, params)
    gamma = params.pressure.gamma
    forcing = [lame[c] + gamma * sp.diff(w, _X[c]) for c in range(3)]
    transport = (1 + convect[0]) * sp.diff(w, x1) + convect[1] * sp.diff(w, x2) + convect[2] * sp.diff(w, x3)
    continuity = div_u + transport

    u_vals = np.stack([_eval_volume(u[c], grid) for c in range(3)])
    convect_vals = np.stack([_eval_volume(convect[c], grid) for c in range(3)])
    forcing_vals = np.stack([_eval_volume(forcing[c], grid) for c in range(3)])

    slip_data = {}
    for face in grid.faces:
        rows = _slip_rows(u, face, params)
        slip_data[face.name] = np.stack([_eval_face(r, face, grid) for r in rows])

    return ManufacturedCase(
        grid=grid,
        u_exact=VectorField(grid, u_vals),
        w_exact=ScalarField(grid, _eval_volume(w, grid)),
        convect=VectorField(grid, convect_vals),
        forcing=VectorField(grid, forcing_vals),
        continuity=ScalarField(grid, _eval_volume(continuity, grid)),
        slip_data=slip_data,
        w_in=_eval_face(w, grid.face("inflow"), grid),
    )

