"""Lagrange finite elements on triangles: the reference P1/P2 basis
written in barycentric coordinates, symmetric Gauss rules with their
points in reference coordinates (xi, eta), and global DOF spaces.

A space is scalar: its degrees of freedom are numbered vertices first
(mesh order) and, for P2, edge midpoints after them, the edges in
lexicographic order of their sorted vertex pairs; the P2 space alone
numbers edges.  A P1 space shares the mesh's read-only arrays.
Pressure is one coefficient block on it and a velocity two:
``u[0:n]`` are the x-component coefficients and ``u[n:2*n]`` the
y-component ones, where n is the DOF count.

Vector-valued analytic fields are callables ``f(x, y) -> array`` whose
leading axis of length 2 is the component, broadcasting over point
arrays; ``field_blocks`` evaluates scalar and vector fields alike.
"""

from dataclasses import dataclass, field

import numpy as np

from . import mesh as _mesh


def basis(degree, points):
    """Values and reference gradients of the degree-1 or degree-2 basis
    at the reference points ``points`` (npts, 2) of (xi, eta) on the
    triangle {xi >= 0, eta >= 0, xi + eta <= 1}.

    Both follow from the barycentric coordinates
    lam = (1 - xi - eta, xi, eta) and their constant gradients: P1 is
    lam, with its nodes at the vertices; P2 has the vertex functions
    lam (2 lam - 1) and, as local nodes 3, 4, 5, the edge functions
    4 lam_i lam_j of the midpoints of the edges (0,1), (1,2), (2,0).

    Returns (values (npts, nb), gradients (npts, nb, 2)).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        return lam, np.broadcast_to(dlam, (lam.shape[0], 3, 2)).copy()
    i, j = [0, 1, 2], [1, 2, 0]
    vals = np.hstack([lam * (2.0 * lam - 1.0), 4.0 * lam[:, i] * lam[:, j]])
    grads = np.concatenate(
        [
            (4.0 * lam - 1.0)[:, :, None] * dlam,
            4.0 * (lam[:, j, None] * dlam[i] + lam[:, i, None] * dlam[j]),
        ],
        axis=1,
    )
    return vals, grads


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric Gauss rule on the reference triangle.

    ``points`` are (xi, eta) pairs, ``weights`` sum to the reference area 1/2.
    """

    points: np.ndarray
    weights: np.ndarray


def _orbit3(a):
    c = 1.0 - 2.0 * a
    return [(c, a, a), (a, c, a), (a, a, c)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def quadrature(degree):
    """Triangle Gauss rule exact for polynomials up to ``degree`` (2, 4 or 6)."""
    if degree == 2:
        pts = [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
        wts = [1.0 / 6.0] * 3
    elif degree == 4:
        pts = _orbit3(0.445948490915965) + _orbit3(0.091576213509771)
        wts = [0.223381589678011 / 2.0] * 3 + [0.109951743655322 / 2.0] * 3
    elif degree == 6:
        pts = (
            _orbit3(0.249286745170910)
            + _orbit3(0.063089014491502)
            + _orbit6(0.310352451033785, 0.053145049844816)
        )
        wts = (
            [0.116786275726379 / 2.0] * 3
            + [0.050844906370207 / 2.0] * 3
            + [0.082851075618374 / 2.0] * 6
        )
    else:
        raise ValueError(f"unsupported quadrature degree {degree}; choose 2, 4 or 6")
    # the orbits are barycentric (lam0, xi, eta)
    return QuadratureRule(np.array(pts)[:, 1:].copy(), np.array(wts))


@dataclass(frozen=True)
class FeSpace:
    """Global scalar Lagrange space on a mesh.

    Every field is a whole number of coefficient blocks on it: one for a
    pressure, two for a velocity.  ``free_scalar`` lists the DOFs whose
    node lies inside the domain; ``restrict``/``extend`` apply the
    homogeneous Dirichlet condition of a velocity to each of its blocks.
    Pressures have no constrained DOFs, the nullspace being handled
    algebraically by the solvers.
    """

    mesh: _mesh.Mesh
    degree: int
    element_dofs: np.ndarray
    node_coords: np.ndarray
    free_scalar: np.ndarray = field(repr=False)

    @property
    def num_dofs(self):
        return self.node_coords.shape[0]

    def restrict(self, coeffs):
        """Drop Dirichlet entries: keep the free DOFs of every block."""
        blocks = np.asarray(coeffs).reshape(-1, self.num_dofs)
        return blocks[:, self.free_scalar].ravel()

    def extend(self, blocks):
        """Inverse of restrict for a (blocks, free) array: insert zeros at
        the Dirichlet DOFs of every block.  The leading axis gives the
        block count even where no DOF is free, which a flat vector cannot."""
        out = np.zeros((blocks.shape[0], self.num_dofs))
        out[:, self.free_scalar] = blocks
        return out.ravel()


def build_space(mesh, degree):
    """Construct a degree-1 or degree-2 Lagrange space over ``mesh``."""
    if degree not in (1, 2):
        raise ValueError(f"unsupported element degree {degree}; only 1 and 2")
    if degree == 1:
        # the mesh's own read-only arrays, not copies
        element_dofs, node_coords = mesh.triangles, mesh.vertices
        boundary = mesh.boundary_vertex
    else:
        tri, nv = mesh.triangles, mesh.num_vertices
        local = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
        # one int64 key per sorted vertex pair; keys sort as the pairs do
        keys, inverse = np.unique(local[:, 0] * nv + local[:, 1], return_inverse=True)
        element_dofs = np.hstack([tri, nv + inverse.reshape(3, -1).T])
        midpoints = 0.5 * (mesh.vertices[keys // nv] + mesh.vertices[keys % nv])
        node_coords = np.vstack([mesh.vertices, midpoints])
        # midpoint nodes of boundary edges (edges owned by a single triangle)
        boundary = np.concatenate([mesh.boundary_vertex, np.bincount(inverse) == 1])
    return FeSpace(
        mesh=mesh,
        degree=degree,
        element_dofs=element_dofs,
        node_coords=node_coords,
        free_scalar=np.flatnonzero(~boundary),
    )


def field_blocks(f, x, y):
    """Values of the analytic field ``f`` at the points (x, y), one block
    per component: shape (1,) + x.shape for a scalar field (constants
    broadcast) and (2,) + x.shape for a vector field."""
    vals = np.asarray(f(x, y), dtype=float)
    want = (2,) + x.shape if vals.ndim > x.ndim else (1,) + x.shape
    if vals.shape != want:
        vals = np.broadcast_to(vals, want).astype(float)
    return vals


def interpolate(space, f):
    """Nodal Lagrange interpolant: coefficient i of each block equals that
    component of f at node i; one block for a scalar ``f``, two for a
    vector one."""
    x, y = space.node_coords[:, 0], space.node_coords[:, 1]
    return field_blocks(f, x, y).reshape(-1).copy()
