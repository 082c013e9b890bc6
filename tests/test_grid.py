import numpy as np
import pytest

from slipflow.grid import GeometryConfig, build_grid


def default_grid(n1=8, n2=4, n3=4, length=2.0, width2=1.0, width3=1.0):
    return build_grid(GeometryConfig(length, width2, width3, n1, n2, n3))


def test_build_grid_example():
    g = default_grid(8, 4, 4)
    assert g.h == (0.25, 0.25, 0.25)
    assert g.shape == (9, 5, 5)
    # node (1,1,1) sits exactly at (h1, h2, h3)
    assert g.axes[0][1] == 0.25
    assert g.axes[1][1] == 0.25
    assert g.axes[2][1] == 0.25


def test_node_coordinates_exact_products():
    # 5 * (0.9 / 5) rounds past 0.9: the last node is the extent, not n*h
    g = default_grid(7 + 1, 5, 6, length=1.7, width2=0.9, width3=1.3)
    for a in range(3):
        n = g.config.cells[a]
        expect = np.arange(n + 1) * g.h[a]
        assert np.array_equal(g.axes[a][:-1], expect[:-1])
        assert g.axes[a][-1] == g.config.extents[a]


def test_cell_count_below_minimum_rejected():
    with pytest.raises(ValueError, match="minimum cell count"):
        GeometryConfig(n2=3)


def test_nonpositive_extent_rejected():
    with pytest.raises(ValueError, match="positive"):
        GeometryConfig(length=0.0)
    with pytest.raises(ValueError, match="positive"):
        GeometryConfig(width3=-1.0)


def test_face_layout():
    # outward normal side * e_axis; in-face axes ascending, so lateral
    # faces put the axial direction first
    g = default_grid(8, 4, 6)
    layout = [(f.name, f.region, f.axis, f.side, f.index, f.in_axes) for f in g.faces]
    assert layout == [
        ("inflow", "inflow", 0, -1, 0, (1, 2)),
        ("outflow", "outflow", 0, 1, 8, (1, 2)),
        ("y0", "lateral", 1, -1, 0, (0, 2)),
        ("y1", "lateral", 1, 1, 4, (0, 2)),
        ("z0", "lateral", 2, -1, 0, (0, 1)),
        ("z1", "lateral", 2, 1, 6, (0, 1)),
    ]


def test_face_weight_sums_match_face_areas():
    g = default_grid(9, 5, 7, length=1.9, width2=0.7, width3=1.1)
    areas = {
        "inflow": 0.7 * 1.1,
        "outflow": 0.7 * 1.1,
        "y0": 1.9 * 1.1,
        "y1": 1.9 * 1.1,
        "z0": 1.9 * 0.7,
        "z1": 1.9 * 0.7,
    }
    for f in g.faces:
        assert abs(f.weights.sum() - areas[f.name]) <= 1e-14 * areas[f.name]


def test_edge_nodes_carry_zero_weight():
    for f in default_grid().faces:
        assert np.all(f.weights[0, :] == 0.0)
        assert np.all(f.weights[-1, :] == 0.0)
        assert np.all(f.weights[:, 0] == 0.0)
        assert np.all(f.weights[:, -1] == 0.0)
        assert np.all(f.weights[1:-1, 1:-1] > 0.0)


def test_face_quadrature_second_order_on_smooth_integrand():
    # integral of x2^2 over the inflow face: exact 1/3 per unit x3 extent
    errs = []
    for n in (8, 16):
        g = default_grid(4, n, n)
        f = g.face("inflow")
        x2 = g.axes[1][:, None]
        val = np.sum(f.weights * x2**2 * np.ones((n + 1, n + 1)))
        errs.append(abs(val - 1.0 / 3.0))
    assert errs[1] <= errs[0] / 2.5  # about h^2


def test_volume_weights_sum_to_volume():
    g = default_grid(5, 6, 7, length=1.3, width2=0.8, width3=0.5)
    vol = 1.3 * 0.8 * 0.5
    assert abs(g.volume_weights().sum() - vol) <= 1e-13 * vol


@pytest.mark.parametrize("points", [5, 6, 7, 10])
def test_simpson_weights_match_scipy(points):
    # odd point counts are plain composite Simpson; even ones take
    # scipy's correction on the last cell
    from scipy.integrate import simpson

    g = default_grid(points - 1, 4, points - 1, length=1.3, width3=0.7)
    for axis in (0, 2):
        ref = simpson(np.eye(points), dx=g.h[axis], axis=1)
        np.testing.assert_allclose(g.simpson_weights(axis), ref, rtol=0, atol=1e-15)
    if points == 6:
        expected = g.h[0] * np.array([1 / 3, 4 / 3, 2 / 3, 5 / 4, 1, 5 / 12])
        np.testing.assert_allclose(g.simpson_weights(0), expected, rtol=0, atol=1e-15)


def test_face_lookup_by_name_and_region():
    g = default_grid()
    assert g.face("z1") is g.faces[5]
    assert [f.name for f in g.region_faces("lateral")] == ["y0", "y1", "z0", "z1"]
    with pytest.raises(KeyError, match="unknown face 'nope'"):
        g.face("nope")
    with pytest.raises(ValueError, match="unknown boundary region 'nope'"):
        g.region_faces("nope")
