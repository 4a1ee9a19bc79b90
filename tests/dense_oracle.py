"""Independent dense assembly used to cross-check the sparse production path.

Basis functions are built by inverting a monomial Vandermonde system at
the Lagrange nodes, integration uses a tensor Gauss-Legendre rule mapped
onto the triangle by collapsing a square, and assembly is a plain Python
loop over elements and quadrature points.  Nothing here shares code with
the package implementation except mesh connectivity and, for load
vectors, the quadrature rule data (same points, so load comparisons are
exact rather than quadrature-limited).

It also holds the small helpers that only tests need: the Dirichlet DOFs
of a velocity, the block-diagonal vector matrix of a scalar one and its
Dirichlet restriction, the closed-form momentum forcing of the
manufactured case, and the reference construction and solve of the
pinned steady saddle system from its assembled block matrix.
"""

import numpy as np
import scipy.sparse as sparse

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


def dense_matrices(space, order=8):
    """Dense M, A (velocity), S (pressure), G and D (couplings) of the
    equal-order pair on ``space``, full spaces; Dirichlet restriction is
    up to the caller."""
    mesh = space.mesh
    pts, wts = duffy_rule(order)
    vals, grads = eval_basis(space.degree, pts)
    n = space.num_dofs
    m = np.zeros((2 * n, 2 * n))
    a = np.zeros((2 * n, 2 * n))
    s = np.zeros((n, n))
    g = np.zeros((2 * n, n))
    d = np.zeros((n, 2 * n))
    for e in range(len(mesh.triangles)):
        _, _, det, inv_t = _element_geometry(mesh, e)
        vdofs = pdofs = space.element_dofs[e]
        for qi in range(len(wts)):
            w = wts[qi] * det
            phi = psi = vals[qi]
            gphi = gpsi = grads[qi] @ inv_t.T  # physical gradients (nb, 2)
            for i, gi in enumerate(vdofs):
                for j, gj in enumerate(vdofs):
                    mij = w * phi[i] * phi[j]
                    aij = w * (gphi[i] @ gphi[j])
                    for c in range(2):
                        m[c * n + gi, c * n + gj] += mij
                        a[c * n + gi, c * n + gj] += aij
            for i, gi in enumerate(pdofs):
                for j, gj in enumerate(pdofs):
                    s[gi, gj] += w * (gpsi[i] @ gpsi[j])
            for i, gi in enumerate(vdofs):
                for mu, gmu in enumerate(pdofs):
                    for c in range(2):
                        g[c * n + gi, gmu] += w * gpsi[mu][c] * phi[i]
                        d[gmu, c * n + gi] += w * psi[mu] * gphi[i][c]
    return {"M": m, "A": a, "S": s, "G": g, "D": d}


def dense_load(space, f, rule, t=None):
    """Dense load vector using the package's quadrature rule data but an
    independent basis/geometry/evaluation path: one block per component
    of ``f``."""
    mesh = space.mesh
    ref = rule.points
    vals, _ = eval_basis(space.degree, ref)
    out = np.zeros((2, space.num_dofs))
    blocks = 1
    for e in range(len(mesh.triangles)):
        p0, b, det, _ = _element_geometry(mesh, e)
        dofs = space.element_dofs[e]
        for qi in range(len(rule.weights)):
            xq = p0 + b @ ref[qi]
            fv = f(xq[0], xq[1]) if t is None else f(xq[0], xq[1], t)
            fv = np.atleast_1d(np.asarray(fv, dtype=float))
            blocks = fv.size
            w = rule.weights[qi] * det
            for i, gi in enumerate(dofs):
                for c in range(blocks):
                    out[c, gi] += w * fv[c] * vals[qi, i]
    return out[:blocks].ravel()


def dirichlet_dofs(space):
    """Indices of the constrained (boundary) DOFs of a velocity on ``space``."""
    ns = space.num_dofs
    b = np.setdiff1d(np.arange(ns), space.free_scalar)
    return np.concatenate([b, b + ns])


def velocity_free_indices(space):
    ns = space.num_dofs
    return np.concatenate([space.free_scalar, ns + space.free_scalar])


def vector_matrix(matrix):
    """The velocity matrix of a scalar one: one copy per component block."""
    return sparse.block_diag([matrix, matrix], format="csr")


def restrict_matrix(space, matrix):
    """The velocity matrix of the scalar full-space ``matrix`` without its
    Dirichlet rows and columns."""
    keep = velocity_free_indices(space)
    return vector_matrix(matrix)[keep][:, keep].tocsr()


def forcing(case, x, y, t):
    """Momentum forcing g = v_t - nu lap(v) + grad(q) of ``case`` at time t."""
    return np.cos(t) * case.steady_forcing(x, y) - np.sin(t) * case.steady_velocity(x, y)


def pinned_saddle_matrix(a, g, s, delta, order):
    """The reference construction of the ordered, pinned steady saddle
    matrix: ``csc(bmat([[A (+) A, G], [G^T, -delta S]])[perm][:, perm])``
    for the scalar velocity block ``a``, with ``perm`` the unknowns in the
    order ``order`` less the pinned pressure DOF 0.  Returns the CSC, the
    unpinned block matrix in CSR form and ``perm``."""
    nv = 2 * a.shape[0]
    k = sparse.bmat([[vector_matrix(a), g], [g.T, -delta * s]], format="csr")
    perm = order[order != nv]
    return sparse.csc_matrix(k[perm][:, perm]), k, perm



def saddle_reference(a, g, s, delta, rhs_v, order, solve_of, tol):
    """The pinned saddle system of the reference matrix solved by the
    factorization ``solve_of(csc)``: the relative block residual is
    formed block by block, and up to two refinement steps correct with
    the residual ``rhs - k @ sol`` of the assembled block matrix.
    Returns the unpinned solution (pressure DOF 0 zero), its relative
    block residual and the number of refinement steps."""
    k_pinned, k, perm = pinned_saddle_matrix(a, g, s, delta, order)
    nv = 2 * a.shape[0]
    a_vector = vector_matrix(a)
    rhs = np.concatenate([rhs_v, np.zeros(s.shape[0])])
    solve = solve_of(k_pinned)

    def relative_residual(sol):
        x, z = sol[:nv], sol[nv:]
        r1 = a_vector @ x + g @ z - rhs_v
        r2 = g.T @ x - delta * (s @ z)
        return max(np.linalg.norm(r1), np.linalg.norm(r2)) / np.linalg.norm(rhs_v)

    sol = np.zeros(rhs.size)
    sol[perm] = solve(rhs[perm])
    rel, refinements = relative_residual(sol), 0
    while rel > tol and refinements < 2:
        sol[perm] += solve((rhs - k @ sol)[perm])
        rel, refinements = relative_residual(sol), refinements + 1
    return sol, rel, refinements
