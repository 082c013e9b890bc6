import numpy as np
import pytest

from slipflow import study
from slipflow.grid import GeometryConfig, build_grid
from slipflow.material import FlowParams
from slipflow.mms import _AMPLITUDE, _Product, _exact_pair, build_linear_case
from slipflow.study import fit_order


@pytest.mark.parametrize("rate", [1.0, 2.4])
def test_fit_order_recovers_the_rate_of_a_geometric_ladder(rate):
    errors = 3.0 * 2.0 ** (-rate * np.arange(4))
    assert fit_order(errors) == pytest.approx(rate, rel=1e-12)
    # noise that alternates about the line moves the slope by less than it
    assert fit_order(errors * (1.0, 1.1, 1.0, 1.1)) == pytest.approx(rate, abs=0.1)


# ---------------------------------------------------------------------------
# closed-form fields on the grid's axes against the node coordinates

GRIDS = [(8, 4, 4), (16, 8, 8), (20, 10, 12)]


def node_grid(cells):
    return build_grid(GeometryConfig(2.0, 1.0, 1.0, *cells))


@pytest.mark.parametrize("cells", GRIDS)
def test_suite_fields_on_the_axes_equal_their_node_evaluation(cells):
    # the oracle evaluates each field on grid.meshgrid(), as the study did
    # before it broadcast one-axis factors: the same products in the same
    # order, so the same bits
    grid = node_grid(cells)
    x1, x2, x3 = grid.meshgrid()
    ext = grid.config.extents
    eps = study.TRANSPORT_EPSILON
    flow = np.zeros((3,) + grid.shape)
    flow[0] = 1.0 + eps * np.sin(np.pi * x1 / ext[0]) * np.sin(np.pi * x2 / ext[1])
    flow[1] = eps * np.sin(np.pi * x2 / ext[1]) * np.cos(np.pi * x3 / ext[2])
    flow[2] = eps * np.sin(np.pi * x3 / ext[2]) * np.cos(0.5 * np.pi * x1 / ext[0])
    assert np.array_equal(study.suite_flow(grid, eps), flow)

    source, w_in = study._route_data(grid)
    assert source.values.shape == grid.shape
    assert np.array_equal(source.values, 0.1 + 0.25 * np.sin(np.pi * x1 / ext[0])
                          * np.cos(np.pi * x2 / ext[1]) * np.cos(np.pi * x3 / ext[2]))
    assert np.array_equal(w_in, 0.1 * np.sin(np.pi * x2[0] / ext[1])
                          * np.sin(np.pi * x3[0] / ext[2]))

    for trace_val, source_val in ((0.7, 0.0), (0.7, 0.3)):
        expected = study._exact_density(grid, trace_val, source_val)
        assert np.array_equal(np.broadcast_to(expected, grid.shape),
                              trace_val + source_val * x1)


@pytest.mark.parametrize("cells", GRIDS)
def test_manufactured_case_on_the_axes_equals_its_node_evaluation(cells):
    grid = node_grid(cells)
    params = FlowParams(mu=0.7, nu=0.3, friction=2.5)
    case = build_linear_case(grid, params)
    x = grid.meshgrid()
    u, w = _exact_pair(grid)
    k1, k2, k3 = (np.pi / ext for ext in grid.config.extents)
    a = _AMPLITUDE
    convect = np.stack([
        _Product(a, (True, False, False), (k1, k2, 0.0)).at(*x),
        _Product(a, (False, True, False), (0.0, k2, k3)).at(*x),
        _Product(a, (False, False, True), (k1, 0.0, k3)).at(*x),
    ])
    grad_w = [w.d(c).at(*x) for c in range(3)]
    forcing = np.stack([
        u[c].d(0).at(*x) - params.mu * sum(u[c].d(b).d(b).at(*x) for b in range(3))
        - (params.nu + params.mu) * sum(u[b].d(b).d(c).at(*x) for b in range(3))
        + params.pressure.gamma * grad_w[c]
        for c in range(3)
    ])
    continuity = (sum(u[b].d(b).at(*x) for b in range(3)) + (1 + convect[0]) * grad_w[0]
                  + convect[1] * grad_w[1] + convect[2] * grad_w[2])
    assert np.array_equal(case.u_exact.values, np.stack([f.at(*x) for f in u]))
    assert np.array_equal(case.w_exact.values, w.at(*x))
    assert np.array_equal(case.convect.values, convect)
    assert np.array_equal(case.forcing.values, forcing)
    assert np.array_equal(case.continuity.values, continuity)
    # face data against the node coordinates of each face
    for face in grid.faces:
        p, n = [c[face.slicer()] for c in x], face.axis
        rows = np.stack([
            params.mu * face.side * (u[n].d(t).at(*p) + u[t].d(n).at(*p))
            + params.friction * u[t].at(*p)
            for t in face.in_axes
        ])
        assert np.array_equal(case.slip_data[face.name], rows)
    assert np.array_equal(case.w_in, w.at(*x)[0])
