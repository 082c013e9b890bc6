"""Tensor-product grid over the duct [0,L] x [0,W2] x [0,W3].

The grid is vertex-centered: axis a carries n_a cells and n_a + 1 nodes,
node (i, j, k) sits exactly at (i*h1, j*h2, k*h3), except that the last
node of each axis sits at the extent itself (n*(L/n) can round past L,
and transport clamps to the extent).  build_grid also lays
out the six boundary faces once (names, normal axes and sides, face
quadrature weights); every other module reads them from the grid, so all
share one set of conventions.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

MIN_CELLS = 4


@dataclass(frozen=True)
class GeometryConfig:
    """Duct extents and cell counts.

    length is the axial (x1) extent, width2/width3 the cross-section
    extents.  Cell counts below MIN_CELLS are rejected: the one-sided
    boundary stencils and the edge-free face quadrature need at least
    five nodes per axis.  The defaults are the documented geometry block.
    """

    length: float = 2.0
    width2: float = 1.0
    width3: float = 1.0
    n1: int = 16
    n2: int = 8
    n3: int = 8

    def __post_init__(self):
        for name in ("length", "width2", "width3"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {val!r}")
        for name in ("n1", "n2", "n3"):
            cnt = getattr(self, name)
            if not isinstance(cnt, (int, np.integer)) or isinstance(cnt, bool):
                raise ValueError(f"{name} must be an integer, got {cnt!r}")
            if cnt < MIN_CELLS:
                raise ValueError(f"{name} must be at least the minimum cell count "
                                 f"{MIN_CELLS}, got {cnt!r}")

    @property
    def extents(self) -> tuple[float, float, float]:
        return (self.length, self.width2, self.width3)

    @property
    def cells(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)


def _face_axis_weights(n: int, h: float) -> np.ndarray:
    """1D face-quadrature weights: zero at the endpoints (edge nodes carry
    no boundary quadrature), with the trapezoid end mass folded into the
    first interior nodes so the weights still sum exactly to n*h."""
    w = np.full(n + 1, h)
    w[0] = 0.0
    w[-1] = 0.0
    w[1] = 1.5 * h
    w[-2] = 1.5 * h
    return w


@dataclass(frozen=True, eq=False)
class Face:
    """One of the six boundary faces: the plane x_axis = const.

    The outward normal is side * e_axis.  in_axes are the two in-face
    coordinate axes (global axis ids) in ascending order; they fix the
    order of the two tangential rows of any per-face data.  weights is the
    2D face quadrature (zero on the ring of edge nodes), coords the
    in-face node coordinate vectors.
    """

    name: str
    region: str
    axis: int
    side: int            # -1 at coordinate 0, +1 at the far end
    index: int           # node index along `axis`
    in_axes: tuple[int, int]
    coords: tuple[np.ndarray, np.ndarray]
    spacings: tuple[float, float]
    weights: np.ndarray

    def slicer(self) -> tuple:
        """Index expression extracting this face's 2D slab from a node array."""
        sl = [slice(None)] * 3
        sl[self.axis] = self.index
        return tuple(sl)

    def take(self, values: np.ndarray) -> np.ndarray:
        """Restrict a (n1+1, n2+1, n3+1) node array to the face (2D view)."""
        return values[self.slicer()]


# (name, normal axis, side, region) of each face, in Grid.faces order
_FACE_LAYOUT = (
    ("inflow", 0, -1, "inflow"),
    ("outflow", 0, +1, "outflow"),
    ("y0", 1, -1, "lateral"),
    ("y1", 1, +1, "lateral"),
    ("z0", 2, -1, "lateral"),
    ("z1", 2, +1, "lateral"),
)

REGIONS = ("inflow", "outflow", "lateral")
FACE_NAMES = tuple(name for name, _, _, _ in _FACE_LAYOUT)
WALL_NAMES = tuple(name for name, _, _, region in _FACE_LAYOUT if region == "lateral")


@dataclass(frozen=True, eq=False)
class Grid:
    """Realized node lattice with its six boundary faces, in _FACE_LAYOUT
    order.  Hash/eq by identity so helpers can memoize."""

    config: GeometryConfig
    h: tuple[float, float, float]
    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    faces: tuple[Face, ...]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(n + 1 for n in self.config.cells)

    @property
    def n_nodes(self) -> int:
        s = self.shape
        return s[0] * s[1] * s[2]

    def face(self, name: str) -> Face:
        for f in self.faces:
            if f.name == name:
                return f
        raise KeyError(f"unknown face {name!r}")

    def region_faces(self, region: str) -> tuple[Face, ...]:
        if region not in REGIONS:
            raise ValueError(f"unknown boundary region {region!r}")
        return tuple(f for f in self.faces if f.region == region)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node coordinates as three broadcast (n1+1, n2+1, n3+1) arrays."""
        return np.meshgrid(*self.axes, indexing="ij")

    def axis_weights(self, axis: int) -> np.ndarray:
        """1D trapezoid weights along an axis; sums exactly to the extent."""
        n = self.config.cells[axis]
        w = np.full(n + 1, self.h[axis])
        w[0] = 0.5 * self.h[axis]
        w[-1] = 0.5 * self.h[axis]
        return w

    def simpson_weights(self, axis: int) -> np.ndarray:
        """1D composite Simpson weights along an axis.

        With an odd cell count the last cell takes the three-point
        correction scipy.integrate.simpson uses (Cartwright's), so that on
        six nodes the weights are h * (1/3, 4/3, 2/3, 5/4, 1, 5/12).
        """
        h = self.h[axis]
        n = self.config.cells[axis]
        m = n - n % 2  # cells covered by whole Simpson panels
        w = np.zeros(n + 1)
        w[0:m + 1:2] = 2.0 * h / 3.0
        w[1:m:2] = 4.0 * h / 3.0
        w[0] = w[m] = h / 3.0
        if n % 2:
            w[n] += 5.0 * h / 12.0
            w[n - 1] += 2.0 * h / 3.0
            w[n - 2] -= h / 12.0
        return w

    def volume_weights(self) -> np.ndarray:
        """Tensor trapezoid weights; sums to L*W2*W3 up to rounding."""
        w1, w2, w3 = (self.axis_weights(a) for a in range(3))
        return w1[:, None, None] * w2[None, :, None] * w3[None, None, :]


def build_grid(config: GeometryConfig) -> Grid:
    """Construct the node lattice and its faces for a validated geometry."""
    cells = config.cells
    h = tuple(ext / n for ext, n in zip(config.extents, cells))
    axes = tuple(np.arange(n + 1, dtype=float) * h[a] for a, n in enumerate(cells))
    for ax, ext in zip(axes, config.extents):
        ax[-1] = ext
    faces = []
    for name, axis, side, region in _FACE_LAYOUT:
        t1_ax, t2_ax = (a for a in range(3) if a != axis)
        wa = _face_axis_weights(cells[t1_ax], h[t1_ax])
        wb = _face_axis_weights(cells[t2_ax], h[t2_ax])
        faces.append(
            Face(
                name=name,
                region=region,
                axis=axis,
                side=side,
                index=0 if side < 0 else cells[axis],
                in_axes=(t1_ax, t2_ax),
                coords=(axes[t1_ax], axes[t2_ax]),
                spacings=(h[t1_ax], h[t2_ax]),
                weights=np.outer(wa, wb),
            )
        )
    return Grid(config=config, h=h, axes=axes, faces=tuple(faces))
