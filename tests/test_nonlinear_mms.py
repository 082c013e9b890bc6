"""A manufactured solution of the whole nonlinear problem, solved by
picard_solve.

The exact pair (u, w) is mms's, and the lift is
u0 = (A cos(pi x1 / 2L) cos(pi x2 / W2) cos(pi x3 / W3), 0, 0): it has a
normal trace on the inflow plane and none on the walls.  The physical
problem has no body force, so the case adds a volume forcing to
compute_F and a mass source to compute_G, both in closed form
(Roache, J. Fluids Eng. 124, 2002).  With s = u + u0 and
L(s) = d(s)/dx1 - mu lap(s) - (nu + mu) grad(div s):

    f_vol = L(u) + gamma grad(w) - F(u, w)
          = L(s) + (1 + w) (s . grad) s + w d(s)/dx1 + pi'(1 + w) grad(w),
    q     = (e1 + s) . grad(w) + (1 + w) div(s).

The slip data are u's tractions and w_in is w on the inflow plane.  The
outer loop then verifies compute_F, compute_G, the lift and the
convecting field e1 + u + u0 together, at the velocity and density
orders verify asks of the linear step.  A 5% error in a lift term fails
those gates; the quadratic terms stay below the finest grid's truncation
error, because the perturbative guard caps the amplitude.
"""
import numpy as np
import pytest

from slipflow import material, picard
from slipflow.config import SolverConfig
from slipflow.fields import NormKind, ScalarField, VectorField, norm
from slipflow.grid import GeometryConfig, build_grid
from slipflow.material import FlowParams, PerturbationData
from slipflow.mms import _AMPLITUDE, _Product, _Sum, _exact_pair, build_linear_case
from slipflow.picard import ProblemSetup, picard_solve
from slipflow.study import DENSITY_ORDER_MIN, VELOCITY_ORDER_MIN, VERIFY_SIZES, fit_order


def nonlinear_case(grid, params):
    """(setup, u_exact, w_exact, f_vol, q) of the manufactured nonlinear
    problem, every volume term evaluated on the grid's axes."""
    u, w = _exact_pair(grid)
    k1, k2, k3 = (np.pi / ext for ext in grid.config.extents)
    lift = _Product(_AMPLITUDE, (False, False, False), (k1 / 2, k2, k3))
    s = [_Sum(u[0].terms + (lift,)), u[1], u[2]]

    x = np.ix_(*grid.axes)
    s_vals = [f.at(*x) for f in s]
    w_vals = w.at(*x)
    grad_w = [w.d(b).at(*x) for b in range(3)]
    div_s = sum(s[b].d(b).at(*x) for b in range(3))
    dpi = params.pressure.d1(1.0 + w_vals)
    f_vol = np.stack([
        s[c].d(0).at(*x)
        - params.mu * sum(s[c].d(b).d(b).at(*x) for b in range(3))
        - (params.nu + params.mu) * sum(s[b].d(b).d(c).at(*x) for b in range(3))
        + (1.0 + w_vals) * sum(s_vals[b] * s[c].d(b).at(*x) for b in range(3))
        + w_vals * s[c].d(0).at(*x)
        + dpi * grad_w[c]
        for c in range(3)
    ])
    q = (grad_w[0] + sum(s_vals[b] * grad_w[b] for b in range(3))
         + (1.0 + w_vals) * div_s)

    u0 = np.zeros((3,) + grid.shape)
    u0[0] = lift.at(*x)
    normal_trace = {face.name: face.side * u0[face.axis][face.slicer()] for face in grid.faces}
    linear = build_linear_case(grid, params)
    solver = SolverConfig(mode="monolithic")
    data = PerturbationData.measured(VectorField(grid, u0), normal_trace, linear.slip_data,
                                     linear.w_in, solver.p)
    setup = ProblemSetup(grid, params, data, solver)
    return setup, linear.u_exact, linear.w_exact, f_vol, q


# the library functions the forcings and the mutants wrap
compute_F, compute_G = material.compute_F, material.compute_G
div_array, lame_array = material.div_array, material.lame_array


def solve_ladder(monkeypatch, mutate=None):
    """Velocity (H1) and density (Linf(L2)) errors of picard_solve on the
    verify sizes, and their orders, with the closed-form terms added to
    picard's compute_F and compute_G; mutate(monkeypatch, setup) patches
    each grid's run."""
    params = FlowParams()
    errors_u, errors_w = [], []
    for n1 in VERIFY_SIZES:
        grid = build_grid(GeometryConfig(2.0, 1.0, 1.0, n1, n1 // 2, n1 // 2))
        setup, u_exact, w_exact, f_vol, q = nonlinear_case(grid, params)
        if mutate is not None:
            mutate(monkeypatch, setup)
        monkeypatch.setattr(picard, "compute_F", lambda u, w, data, params, f_vol=f_vol:
                            VectorField(u.grid, compute_F(u, w, data, params).values + f_vol))
        monkeypatch.setattr(picard, "compute_G", lambda u, w, data, q=q:
                            ScalarField(u.grid, compute_G(u, w, data).values + q))
        bundle = picard_solve(setup)
        assert bundle.converged, bundle.verdict
        errors_u.append(norm(VectorField(grid, bundle.u.values - u_exact.values), NormKind.h1()))
        errors_w.append(norm(ScalarField(grid, bundle.w.values - w_exact.values),
                             NormKind.linf_l2()))
    return errors_u, errors_w, fit_order(errors_u), fit_order(errors_w)


def scaled_lift_divergence(monkeypatch, setup):
    """compute_G's (w + 1) div u0 term scaled by 1.05."""
    u0 = setup.data.u0.values
    monkeypatch.setattr(material, "div_array",
                        lambda v, g: (1.05 if v is u0 else 1.0) * div_array(v, g))


def scaled_lift_operator(monkeypatch, setup):
    """compute_F's L(u0) term scaled by 1.05."""
    monkeypatch.setattr(material, "lame_array", lambda *args: 1.05 * lame_array(*args))


@pytest.mark.parametrize("mutate, velocity_ok, density_ok", [
    (None, True, True),
    (scaled_lift_divergence, True, False),
    (scaled_lift_operator, False, True),
], ids=["exact", "compute_G (w + 1) div u0", "compute_F L(u0)"])
def test_picard_converges_to_the_nonlinear_manufactured_solution(
        mutate, velocity_ok, density_ok, monkeypatch):
    # measured: exact 1.93 and 2.40; the div u0 mutant's density order
    # 1.93, the L(u0) mutant's velocity order 1.55
    errors_u, errors_w, order_u, order_w = solve_ladder(monkeypatch, mutate)
    print(f"u H1 errors {errors_u}, order {order_u:.2f}; "
          f"w LinfL2 errors {errors_w}, order {order_w:.2f}")
    assert (order_u >= VELOCITY_ORDER_MIN) == velocity_ok
    assert (order_w >= DENSITY_ORDER_MIN) == density_ok
