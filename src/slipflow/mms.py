"""Manufactured solutions with closed-form forcing data.

Exact velocity/density pairs are chosen with zero normal trace on every
face.  Every field is a sum of products of one sine or cosine per axis,
and so is each of its derivatives, so the matching volume forcings and
slip data are sums and products of such terms.  A product is evaluated
from the grid's axes: each factor on its own axis, multiplied out once
into the node array by broadcasting.  Face data take the face's two
in-face axes and its one node on the normal axis.  The results are
handed out as plain arrays, so the solver can be run against a known
answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import Grid
from .fields import ScalarField, VectorField
from .material import FlowParams

_AMPLITUDE = 0.05  # of the manufactured velocity, density and advecting field


@dataclass(frozen=True)
class _Product:
    """coef * prod_a trig_a(k[a] * x_a), trig_a = sin where sine[a], else
    cos.  An axis the product does not depend on has cos and k = 0."""

    coef: float
    sine: tuple[bool, bool, bool]
    k: tuple[float, float, float]

    def d(self, axis: int) -> _Product:
        """Derivative along one axis: sin' = k cos, cos' = -k sin."""
        sign = 1.0 if self.sine[axis] else -1.0
        sine = tuple(s != (a == axis) for a, s in enumerate(self.sine))
        return _Product(sign * self.k[axis] * self.coef, sine, self.k)

    def at(self, x1, x2, x3) -> np.ndarray:
        out = self.coef
        for s, k, x in zip(self.sine, self.k, (x1, x2, x3)):
            out = out * (np.sin(k * x) if s else np.cos(k * x))
        return out


@dataclass(frozen=True)
class _Sum:
    """A sum of _Product terms, differentiated and evaluated termwise."""

    terms: tuple[_Product, ...]

    def d(self, axis: int) -> _Sum:
        return _Sum(tuple(t.d(axis) for t in self.terms))

    def at(self, x1, x2, x3) -> np.ndarray:
        return sum(t.at(x1, x2, x3) for t in self.terms)


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


def _exact_pair(grid: Grid) -> tuple[list[_Sum], _Product]:
    """The manufactured velocity components and density in closed form."""
    k1, k2, k3 = (np.pi / ext for ext in grid.config.extents)
    a = _AMPLITUDE
    # u_c = a sin(pi x_c / ext_c) prod_{b != c} cos(pi x_b / ext_b) plus a
    # shear term a prod_b sin(pi x_b / ext_b): it vanishes on every face
    # but its wall-normal derivative does not, so every slip row carries mu
    shear = _Product(a, (True, True, True), (k1, k2, k3))
    u = [_Sum((_Product(a, tuple(b == c for b in range(3)), (k1, k2, k3)), shear))
         for c in range(3)]
    return u, _Product(a, (False, False, False), (k1 / 2, k2, k3))


def build_linear_case(grid: Grid, params: FlowParams) -> ManufacturedCase:
    """Smooth (u, w) with n.u = 0 on every face, plus derived data so that
    the coupled linear step has exactly this pair as its continuum
    solution.  Every array is evaluated on the grid's axes (np.ix_), a
    face's with its normal axis cut to the face's one node."""
    k1, k2, k3 = (np.pi / ext for ext in grid.config.extents)
    a = _AMPLITUDE
    u, w = _exact_pair(grid)
    convect = (
        _Product(a, (True, False, False), (k1, k2, 0.0)),
        _Product(a, (False, True, False), (0.0, k2, k3)),
        _Product(a, (False, False, True), (k1, 0.0, k3)),
    )

    x = np.ix_(*grid.axes)
    convect_vals = np.stack([f.at(*x) for f in convect])
    grad_w = [w.d(c).at(*x) for c in range(3)]
    forcing = []
    for c in range(3):
        # Lame action u_c,1 - mu lap u_c - (nu + mu) (div u),c, plus gamma w,c
        lap = sum(u[c].d(b).d(b).at(*x) for b in range(3))
        grad_div = sum(u[b].d(b).d(c).at(*x) for b in range(3))
        forcing.append(u[c].d(0).at(*x) - params.mu * lap
                       - (params.nu + params.mu) * grad_div
                       + params.pressure.gamma * grad_w[c])
    div_u = sum(u[b].d(b).at(*x) for b in range(3))
    continuity = (div_u + (1 + convect_vals[0]) * grad_w[0]
                  + convect_vals[1] * grad_w[1] + convect_vals[2] * grad_w[2])

    # full traction slip data 2 mu n.D(u).tau + f u.tau, n = side * e_axis
    slip_data = {}
    for face in grid.faces:
        n = face.axis
        p = list(np.ix_(*face.coords))
        p.insert(n, grid.axes[n][face.index:face.index + 1, None])
        slip_data[face.name] = np.stack([
            params.mu * face.side * (u[n].d(t).at(*p) + u[t].d(n).at(*p))
            + params.friction * u[t].at(*p)
            for t in face.in_axes
        ])

    return ManufacturedCase(
        grid=grid,
        u_exact=VectorField(grid, np.stack([f.at(*x) for f in u])),
        w_exact=ScalarField(grid, w.at(*x)),
        convect=VectorField(grid, convect_vals),
        forcing=VectorField(grid, np.stack(forcing)),
        continuity=ScalarField(grid, continuity),
        slip_data=slip_data,
        w_in=w.at(grid.axes[0][:1, None], *np.ix_(*grid.axes[1:])),
    )
