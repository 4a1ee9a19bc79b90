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
symmetry blocks of the steady saddle system from its assembled block
matrix and the symmetry-adapted basis.
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


def saddle_matrix(a, g, s, pressure_block):
    """The unpinned steady saddle matrix [[A (+) A, G], [G^T, pressure_block]]
    of the scalar velocity block ``a``, in canonical CSR form."""
    k = sparse.bmat([[vector_matrix(a), g], [g.T, pressure_block]], format="csr")
    k.sort_indices()
    return k


def symmetry_basis(orbits, chi, order):
    """The symmetry-adapted basis V_chi of block ``chi`` on the orbits
    ``order`` of the ``sparsela.SaddleOrbits`` ``orbits``, as a sparse
    (unknowns, len(order)) matrix: V[i, a] = (2 / n_a) weight[chi, i]
    for every unknown i of orbit ``order[a]``."""
    pos = np.full(orbits.rep.size, -1)
    pos[order] = np.arange(order.size)
    col = pos[orbits.orbit]
    vals = 2.0 / orbits.size[orbits.orbit] * orbits.weight[chi]
    keep = (col >= 0) & (vals != 0.0)
    return sparse.csr_matrix((vals[keep], (np.flatnonzero(keep), col[keep])),
                             shape=(orbits.orbit.size, order.size))


def pinned_blocks(orbits, nv):
    """The orbits of each symmetry block in factorization order, the
    trivial block less the orbit of pressure DOF 0 (unknown ``nv``)."""
    trivial, *rest = orbits.blocks
    return [trivial[trivial != orbits.orbit[nv]], *rest]


def symmetry_blocks(a, g, s, orbits, delta):
    """The reference construction of the pinned symmetry blocks of the
    saddle system of the scalar velocity block ``a``, coupling ``g`` and
    pressure stiffness ``s``: twice the rows of the orbit representatives
    of the saddle matrix with pressure block S, times the basis V_chi (a
    sparse product), with the entries whose row and column are both
    pressures then scaled by -delta.  Returns (CSC, V_chi) for each
    block."""
    k = saddle_matrix(a, g, s, s)
    nv, out = g.shape[0], []
    for chi, order in enumerate(pinned_blocks(orbits, nv)):
        v = symmetry_basis(orbits, chi, order)
        block = sparse.csc_matrix(2.0 * (k[orbits.rep[order]] @ v))
        pressure = orbits.rep[order] >= nv
        columns = np.repeat(np.arange(order.size), np.diff(block.indptr))
        block.data[pressure[block.indices] & pressure[columns]] *= -delta
        out.append((block, v))
    return out


def saddle_reference(a, g, s, orbits, delta, rhs_v, solve_of, tol):
    """The steady saddle system solved block by block on the reference
    blocks (``symmetry_blocks``): each block's right-hand side is
    V_chi^T rhs, its factorization ``solve_of(csc)``, its solution is
    refined against the block once, and once more if the relative norm
    of the velocity or the pressure part of its residual exceeds tol/2,
    and V_chi y_chi is added to the solution.  Returns the unpinned
    solution (pressure not yet of zero mean), the relative block
    residual of that solution and the number of refinement steps."""
    nv = g.shape[0]
    rhs = np.concatenate([rhs_v, np.zeros(s.shape[0])])
    scale = np.linalg.norm(rhs_v)
    sol, refinements = np.zeros(rhs.size), 0
    for (block, v), order in zip(symmetry_blocks(a, g, s, orbits, delta),
                                 pinned_blocks(orbits, nv)):
        if order.size == 0:
            continue
        pressure = orbits.rep[order] >= nv
        f = v.T @ rhs
        solve = solve_of(block)
        y = solve(f)
        for step in (1, 2):
            y = y + solve(f - block @ y)
            r = f - block @ y
            if max(np.linalg.norm(r[~pressure]), np.linalg.norm(r[pressure])) / scale <= tol / 2:
                break
        refinements += step
        sol = sol + v @ y
    x, z = sol[:nv], sol[nv:]
    r1 = vector_matrix(a) @ x + g @ z - rhs_v
    r2 = g.T @ x - delta * (s @ z)
    rel = max(np.linalg.norm(r1), np.linalg.norm(r2)) / scale
    return sol, rel, refinements
