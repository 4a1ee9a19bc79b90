"""Independent dense assembly used to cross-check the sparse production path.

Basis functions are built by inverting a monomial Vandermonde system at
the Lagrange nodes, integration uses a tensor Gauss-Legendre rule mapped
onto the triangle by collapsing a square, and assembly is a plain Python
loop over elements and quadrature points.  Nothing here shares code with
the package implementation except mesh connectivity and, for load
vectors, the quadrature rule data (same points, so load comparisons are
exact rather than quadrature-limited).

It also holds the small helpers that only tests need: the Dirichlet DOFs
of a velocity space, the Dirichlet restriction of a full-space matrix and
the closed-form momentum forcing of the manufactured case.
"""

import numpy as np

_NODES = {
    1: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    2: np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]
    ),
}
_EXPONENTS = {
    1: [(0, 0), (1, 0), (0, 1)],
    2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
}


def duffy_rule(order=8):
    """Tensor Gauss-Legendre rule collapsed onto the reference triangle:
    x = u, y = v (1 - u), weight gains the factor (1 - u)."""
    pts1, wts1 = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (pts1 + 1.0)
    w = 0.5 * wts1
    points, weights = [], []
    for iu in range(order):
        for iv in range(order):
            points.append((u[iu], u[iv] * (1.0 - u[iu])))
            weights.append(w[iu] * w[iv] * (1.0 - u[iu]))
    return np.array(points), np.array(weights)


def vandermonde_coeffs(degree):
    nodes = _NODES[degree]
    exps = _EXPONENTS[degree]
    v = np.array([[x**p * y**q for (p, q) in exps] for x, y in nodes])
    return np.linalg.inv(v)  # column j holds monomial coefficients of basis j


def eval_basis(degree, points):
    """Values (npts, nb) and reference gradients (npts, nb, 2)."""
    coeffs = vandermonde_coeffs(degree)
    exps = _EXPONENTS[degree]
    points = np.atleast_2d(points)
    npts, nb = points.shape[0], len(exps)
    vals = np.zeros((npts, nb))
    grads = np.zeros((npts, nb, 2))
    for k, (p, q) in enumerate(exps):
        x, y = points[:, 0], points[:, 1]
        mono = x**p * y**q
        dmx = p * x ** max(p - 1, 0) * y**q if p else np.zeros(npts)
        dmy = q * x**p * y ** max(q - 1, 0) if q else np.zeros(npts)
        for j in range(nb):
            vals[:, j] += coeffs[k, j] * mono
            grads[:, j, 0] += coeffs[k, j] * dmx
            grads[:, j, 1] += coeffs[k, j] * dmy
    return vals, grads


def _element_geometry(mesh, e):
    p = mesh.vertices[mesh.triangles[e]]
    b = np.column_stack([p[1] - p[0], p[2] - p[0]])
    det = np.linalg.det(b)
    inv_t = np.linalg.inv(b).T
    return p[0], b, det, inv_t


def dense_matrices(v_space, p_space, order=8):
    """Dense M, A (velocity), S (pressure), G and D (couplings), full
    spaces; Dirichlet restriction is up to the caller."""
    mesh = v_space.mesh
    dv, dp = v_space.degree, p_space.degree
    pts, wts = duffy_rule(order)
    vals_v, grads_v = eval_basis(dv, pts)
    vals_p, grads_p = eval_basis(dp, pts)
    nsv, nsp = v_space.num_scalar_dofs, p_space.num_scalar_dofs
    m = np.zeros((2 * nsv, 2 * nsv))
    a = np.zeros((2 * nsv, 2 * nsv))
    s = np.zeros((nsp, nsp))
    g = np.zeros((2 * nsv, nsp))
    d = np.zeros((nsp, 2 * nsv))
    for e in range(mesh.num_triangles):
        _, _, det, inv_t = _element_geometry(mesh, e)
        vdofs = v_space.element_dofs[e]
        pdofs = p_space.element_dofs[e]
        for qi in range(len(wts)):
            w = wts[qi] * det
            phi = vals_v[qi]
            gphi = grads_v[qi] @ inv_t.T  # physical gradients (nb, 2)
            psi = vals_p[qi]
            gpsi = grads_p[qi] @ inv_t.T
            for i, gi in enumerate(vdofs):
                for j, gj in enumerate(vdofs):
                    mij = w * phi[i] * phi[j]
                    aij = w * (gphi[i] @ gphi[j])
                    for c in range(2):
                        m[c * nsv + gi, c * nsv + gj] += mij
                        a[c * nsv + gi, c * nsv + gj] += aij
            for i, gi in enumerate(pdofs):
                for j, gj in enumerate(pdofs):
                    s[gi, gj] += w * (gpsi[i] @ gpsi[j])
            for i, gi in enumerate(vdofs):
                for mu, gmu in enumerate(pdofs):
                    for c in range(2):
                        g[c * nsv + gi, gmu] += w * gpsi[mu][c] * phi[i]
                        d[gmu, c * nsv + gi] += w * psi[mu] * gphi[i][c]
    return {"M": m, "A": a, "S": s, "G": g, "D": d}


def dense_load(space, f, rule, t=None):
    """Dense load vector using the package's quadrature rule data but an
    independent basis/geometry/evaluation path."""
    mesh = space.mesh
    ref = rule.points[:, 1:3]
    vals, _ = eval_basis(space.degree, ref)
    ns = space.num_scalar_dofs
    out = np.zeros(space.components * ns)
    for e in range(mesh.num_triangles):
        p0, b, det, _ = _element_geometry(mesh, e)
        dofs = space.element_dofs[e]
        for qi in range(len(rule.weights)):
            xq = p0 + b @ ref[qi]
            fv = f(xq[0], xq[1]) if t is None else f(xq[0], xq[1], t)
            fv = np.atleast_1d(np.asarray(fv, dtype=float))
            w = rule.weights[qi] * det
            for i, gi in enumerate(dofs):
                if space.components == 1:
                    out[gi] += w * fv[0] * vals[qi, i]
                else:
                    for c in range(2):
                        out[c * ns + gi] += w * fv[c] * vals[qi, i]
    return out


def dirichlet_dofs(v_space):
    """Indices of the constrained (boundary) DOFs of a velocity space."""
    ns = v_space.num_scalar_dofs
    b = np.flatnonzero(v_space.boundary_scalar)
    return np.concatenate([b, b + ns])


def velocity_free_indices(v_space):
    ns = v_space.num_scalar_dofs
    return np.concatenate([v_space.free_scalar, ns + v_space.free_scalar])


def restrict_matrix(v_space, matrix):
    """Drop the Dirichlet rows and columns of a full-space velocity matrix."""
    keep = velocity_free_indices(v_space)
    return matrix.tocsr()[keep][:, keep].tocsr()


def forcing(case, x, y, t):
    """Momentum forcing g = v_t - nu lap(v) + grad(q) of ``case`` at time t."""
    return np.cos(t) * case.steady_forcing(x, y) - np.sin(t) * case.steady_velocity(x, y)
