"""Structured triangulations of the unit square.

Every grid has n x n square cells, each split along the diagonal running
from its southwest corner to its northeast corner:

    NW .______. NE
       |     /|
       | up / |
       |   /  |
       |  /   |
       | / lo |
    SW .______. SE

which yields 2 n^2 counterclockwise triangles on (n+1)^2 vertices.
Vertices are numbered row by row (y-major, then x), cells likewise, and
within a cell the lower triangle precedes the upper one, so connectivity
is a pure function of n.  The mesh size is the cell side h = 1/n; all
triangle diameters equal sqrt(2) h.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of [0,1]^2.

    Attributes
    ----------
    n : int
        Cells per side.
    vertices : (nv, 2) float array
        Vertex coordinates, nv = (n+1)^2.
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise, nt = 2 n^2.
    boundary_vertex : (nv,) bool array
        True for vertices with a coordinate in {0, 1}.

    The arrays are read-only, so a space may share them.  Edges are
    numbered by the P2 space (``femspace.build_space``), which alone
    reads them.
    """

    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertex: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]


def build_grid(n):
    """Build the structured n x n triangulation of the unit square.

    Raises ValueError unless n is a positive integer.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"grid resolution must be a positive integer, got {n!r}")
    n = int(n)

    coords = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(coords, coords)  # row index = y, column index = x
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    ii, jj = np.meshgrid(np.arange(n), np.arange(n))  # cell (i, j), y-major
    base = (jj * (n + 1) + ii).ravel()
    sw, se = base, base + 1
    nw, ne = base + n + 1, base + n + 2
    lower = np.column_stack([sw, se, ne])
    upper = np.column_stack([sw, ne, nw])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    ivx, jvx = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    on_boundary = (ivx == 0) | (ivx == n) | (jvx == 0) | (jvx == n)
    boundary_vertex = on_boundary.ravel()

    for array in (vertices, triangles, boundary_vertex):
        array.flags.writeable = False
    return Mesh(n=n, vertices=vertices, triangles=triangles, boundary_vertex=boundary_vertex)


def mesh_size(mesh):
    """Cell side h = 1/n (the convention used by all parameter laws)."""
    return 1.0 / mesh.n
