"""The closed-form manufactured case against a symbolic derivation.

The oracle below derives the same case with sympy: the fields are written
as expression trees, differentiated symbolically and evaluated through
lambdify.  Every array of ManufacturedCase must agree with it to
rounding.
"""
import re
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from scipy import sparse

from slipflow import cli, study
from slipflow.grid import GeometryConfig, build_grid
from slipflow.lame import build_lame_operator
from slipflow.material import FlowParams, PressureLaw
from slipflow.mms import _AMPLITUDE, build_linear_case

_X = sp.symbols("x1 x2 x3")


def _lambdify(expr):
    fn = sp.lambdify(_X, expr, modules="numpy")

    def call(x1, x2, x3):
        out = fn(x1, x2, x3)
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast(x1, x2, x3).shape).copy()

    return call


def _eval_volume(expr, grid):
    return _lambdify(expr)(*grid.meshgrid())


def _eval_face(expr, face, grid):
    a, b = np.meshgrid(face.coords[0], face.coords[1], indexing="ij")
    coords = [None, None, None]
    coords[face.axis] = np.full_like(a, grid.axes[face.axis][face.index])
    coords[face.in_axes[0]] = a
    coords[face.in_axes[1]] = b
    return _lambdify(expr)(*coords)


def _vector_ops(u, params):
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


def _slip_rows(u, face, params):
    """Full traction slip data 2 mu n.D(u).tau_i + f u.tau_i on a face,
    n = side * e_axis and tau_i the unit vector along in_axes[i]."""
    n = face.axis
    rows = []
    for t in face.in_axes:
        d_nt = sp.Rational(1, 2) * (sp.diff(u[n], _X[t]) + sp.diff(u[t], _X[n]))
        rows.append(2 * params.mu * face.side * d_nt + params.friction * u[t])
    return rows


def symbolic_case(grid, params):
    """Every array of the manufactured case, derived symbolically."""
    x1, x2, x3 = _X
    L, W2, W3 = grid.config.extents
    a = _AMPLITUDE

    shear = a * sp.sin(sp.pi * x1 / L) * sp.sin(sp.pi * x2 / W2) * sp.sin(sp.pi * x3 / W3)
    u = (
        a * sp.sin(sp.pi * x1 / L) * sp.cos(sp.pi * x2 / W2) * sp.cos(sp.pi * x3 / W3) + shear,
        a * sp.sin(sp.pi * x2 / W2) * sp.cos(sp.pi * x1 / L) * sp.cos(sp.pi * x3 / W3) + shear,
        a * sp.sin(sp.pi * x3 / W3) * sp.cos(sp.pi * x1 / L) * sp.cos(sp.pi * x2 / W2) + shear,
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

    arrays = {
        "u_exact": np.stack([_eval_volume(u[c], grid) for c in range(3)]),
        "w_exact": _eval_volume(w, grid),
        "convect": np.stack([_eval_volume(convect[c], grid) for c in range(3)]),
        "forcing": np.stack([_eval_volume(forcing[c], grid) for c in range(3)]),
        "continuity": _eval_volume(div_u + transport, grid),
        "w_in": _eval_face(w, grid.face("inflow"), grid),
    }
    for face in grid.faces:
        rows = _slip_rows(u, face, params)
        arrays[f"slip_data.{face.name}"] = np.stack([_eval_face(r, face, grid) for r in rows])
    return arrays


def closed_form_arrays(case):
    arrays = {
        "u_exact": case.u_exact.values,
        "w_exact": case.w_exact.values,
        "convect": case.convect.values,
        "forcing": case.forcing.values,
        "continuity": case.continuity.values,
        "w_in": case.w_in,
    }
    for name, rows in case.slip_data.items():
        arrays[f"slip_data.{name}"] = rows
    return arrays


CUSTOM = FlowParams(mu=0.7, nu=-0.2, friction=3.0, pressure=PressureLaw("linear", 1.5))


@pytest.mark.parametrize("cells", [(8, 4, 4), (9, 5, 7)])
@pytest.mark.parametrize("params, extents", [
    (FlowParams(), (2.0, 1.0, 1.0)),
    (CUSTOM, (1.3, 0.7, 0.4)),
], ids=["default", "custom"])
def test_closed_form_matches_symbolic_derivation(cells, params, extents):
    grid = build_grid(GeometryConfig(*extents, *cells))
    got = closed_form_arrays(build_linear_case(grid, params))
    want = symbolic_case(grid, params)
    assert set(got) == set(want)
    assert sum(key.startswith("slip_data.") for key in got) == 6
    for key, ref in want.items():
        assert got[key].shape == ref.shape, key
        assert got[key].dtype == np.float64, key
        scale = float(np.max(np.abs(ref)))
        assert scale > 0.0, key
        gap = float(np.max(np.abs(got[key] - ref)))
        assert gap <= 1e-13 * scale, (key, gap, scale)


def test_slip_data_carry_the_viscous_term():
    grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, 8, 4, 4))
    one, three = (build_linear_case(grid, FlowParams(mu=mu)) for mu in (1.0, 3.0))
    for name, rows in one.slip_data.items():
        assert float(np.max(np.abs(rows - three.slip_data[name]))) > 0.1, name


def _slip_rows_with_scaled_mu(scale):
    """build_lame_operator whose matrix takes its slip rows from an
    operator built with mu * scale, and its PDE rows from the true one."""

    def build(grid, params):
        op = build_lame_operator(grid, params)
        mutant = build_lame_operator(grid, replace(params, mu=scale * params.mu))
        slip = sparse.diags(op.robin_mask.reshape(-1)[op.free].astype(float))
        pde = sparse.identity(slip.shape[0]) - slip
        return replace(op, matrix=(pde @ op.matrix + slip @ mutant.matrix).tocsr())

    return build


@pytest.mark.parametrize("mode", ["split", "monolithic"])
def test_verify_fails_a_five_percent_error_in_the_slip_rows_viscosity(mode, monkeypatch, capsys):
    monkeypatch.setattr(study, "build_lame_operator", _slip_rows_with_scaled_mu(1.05))
    assert cli.main(["verify", "--mode", mode]) == 1
    order = float(re.search(r"velocity order (\S+),", capsys.readouterr().out).group(1))
    assert order < 1.8
