"""Sparse linear algebra for the schemes.

Matrices are scipy CSR arrays in canonical form (sorted, duplicate-free
column indices).  Three direct solver entry points cover everything the
schemes need:

- ``saddle_solve``: a direct solve of the symmetric indefinite steady
  Stokes block system on the zero-mean pressure subspace, for every
  delta of a mesh in one call, one symmetry block at a time: the grid's
  reflection x <-> y and half-turn split the system into four blocks,
  one per character of their Klein four-group (``SaddleOrbits``, whose
  tables the solve builds from the scalar space and drops on return),
  each ordered by a geometric nested dissection of the fundamental
  triangle (``_dissect``).  Block chi is 2 K_r V_chi,
  K_r the rows of its own orbits' representatives, sliced from the
  scalar stiffness ``S`` (its free rows and columns, scaled by nu as
  they are sliced, for the velocity stiffness A), ``G``, ``G^T`` and
  ``S``, times its sparse basis V_chi, with its ``-delta S`` entries
  set.  K_r is dropped as soon as the block is built; each block is
  built once, factorized and solved for V_chi^T rhs for each delta,
  and dropped before the next, so one quarter-size block and one
  factor are alive at a time;
- ``FactorizedSpd`` / ``PinnedSingularSolver``: cached LU factorizations
  of SPD scalar matrices, in SuperLU's symmetric mode and minimum-degree
  ordering, reused across the many identical solves of a time loop;
- ``GridNeumannSolver``: the factor-free solve of the P1 pressure
  stiffness of the structured grid by fast diagonalization (DCT-I).

Every factorization is made by ``_splu``, and every failure to solve is
a ``LinearSolverError``.  All solvers are deterministic: identical
inputs give bit-identical outputs.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla


class LinearSolverError(RuntimeError):
    """A direct solve that failed: a singular factorization, a factor
    that misses its verification probe, or a saddle solve that misses
    its tolerance contract.  ``saddle_solve`` reports it per delta, and
    ``steady.solve`` returns it."""


@dataclass
class SolveReport:
    """What ``saddle_solve`` did: its refinement steps over every block
    and delta, and per delta the LinearSolverError that ended it, or
    None."""

    iterations: int
    failures: tuple


def _splu(a_csc, permc_spec=None):
    """The solve function of SuperLU's factorization of ``a_csc``; the
    one place that factors.  Given a column ordering ``permc_spec``
    (``"MMD_AT_PLUS_A"``, minimum degree on A + A^T, or ``"NATURAL"``
    for a matrix already permuted by the caller) it factors in symmetric
    mode, with diagonal pivots only: stable for SPD and for symmetric
    quasi-definite matrices (Vanderbei 1995), and with much sparser
    factors than partial pivoting, SuperLU's default, which it uses
    without one.  A singular matrix is a LinearSolverError, raised apart
    from SuperLU's error, so that without its traceback it holds no
    frame."""
    if permc_spec is None:
        mode, kwargs = "pivoting", {}
    else:
        mode, kwargs = "symmetric", dict(permc_spec=permc_spec, diag_pivot_thresh=0.0,
                                         options=dict(SymmetricMode=True))
    try:
        return spla.splu(a_csc, **kwargs).solve
    except RuntimeError as exc:
        message = f"{mode} factorization failed: {exc}"
    raise LinearSolverError(message)


class FactorizedSpd:
    """Cached sparse LU of a fixed SPD matrix, given as a CSC and
    factored as it is, with no copy, in SuperLU's symmetric mode and
    minimum-degree ordering; ``solve`` accepts one or several right-hand
    sides (columns).  A verification solve of the ones vector checks the
    factor: a singular matrix or a missed probe is a LinearSolverError."""

    def __init__(self, a):
        self._solve = _splu(a, "MMD_AT_PLUS_A")
        probe = np.ones(a.shape[0])
        miss = np.linalg.norm(a @ self._solve(probe) - probe)
        if not miss <= 1e-8 * np.linalg.norm(probe):
            raise LinearSolverError(f"factorization misses its probe by {miss:.3e}")

    def solve(self, b):
        return self._solve(np.asarray(b, dtype=float))


class PinnedSingularSolver:
    """Direct solver for S x = b where S is symmetric PSD with the
    constant vector spanning its nullspace.

    DOF 0 is pinned to zero (its row and column dropped, which loses no
    information because the equations sum to zero), the reduced SPD
    system is factorized once, and solutions are returned with the
    pinned entry reinserted.  Callers fix the additive constant
    afterwards (discrete zero mean).
    """

    def __init__(self, s):
        self.n = s.shape[0]
        self._reduced = FactorizedSpd(s.tocsr()[1:, 1:].tocsc())

    def solve(self, b):
        x = np.zeros(self.n)
        x[1:] = self._reduced.solve(np.asarray(b, dtype=float)[1:])
        return x


def _dct1(x, axis):
    """Unnormalized DCT-I of a 2D array along ``axis`` (applied twice it
    is 2n times the identity, n + 1 the length): the real part of the FFT
    of the even extension [x_0..x_n, x_{n-1}..x_1]."""
    inner = x[-2:0:-1] if axis == 0 else x[:, -2:0:-1]
    return np.fft.rfft(np.concatenate([x, inner], axis=axis), axis=axis).real


class GridNeumannSolver:
    """Factor-free solver for S x = b with S the P1 stiffness of the
    structured n x n grid of the unit square (``mesh.build_grid``).

    With 1D Neumann stiffness L and trapezoid weights W, S = W(x)L + L(x)W
    on the y-major vertex numbering, and the DCT-I diagonalizes
    K = W^-1 L with eigenvalues mu_k = (2 - 2 cos(k pi / n)) n^2 (fast
    diagonalization, Lynch, Rice & Thomas 1964), so

        x = DCT1_2(DCT1_2((W^-1 (x) W^-1) b) / (mu_k + mu_l)) / (2n)^2.

    The constant (0, 0) mode, the nullspace of S, is set to zero; callers
    fix the additive constant afterwards (discrete zero mean), as with
    ``PinnedSingularSolver``.
    """

    def __init__(self, n):
        mu = (2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)) * n * n
        eig = mu[:, None] + mu[None, :]
        eig[0, 0] = np.inf
        self._scale = 1.0 / (eig * (2 * n) ** 2)
        w_inv = np.full(n + 1, float(n))
        w_inv[[0, -1]] = 2.0 * n
        self._w_inv = np.outer(w_inv, w_inv)

    def solve(self, b):
        r = np.asarray(b, dtype=float).reshape(self._w_inv.shape) * self._w_inv
        modes = _dct1(_dct1(r, 0), 1) * self._scale
        return _dct1(_dct1(modes, 0), 1).ravel()


def project_mean(x, weights):
    """Remove the weighted mean: x - (w.x)/(w.1)."""
    return x - (weights @ x) / weights.sum()


@dataclass(frozen=True)
class SaddleOrbits:
    """Orbit tables of the steady saddle unknowns (free x-velocities,
    free y-velocities, pressures) under the symmetry group of the grid:
    the reflection x <-> y, which maps (u_x, u_y)(x, y) to
    (u_y, u_x)(y, x), the half-turn about (1/2, 1/2), which maps
    (u_x, u_y)(x, y) to -(u_x, u_y)(1 - x, 1 - y), and their product.
    Pressures map as scalars.  Built by ``_saddle_orbits`` inside each
    ``saddle_solve``, which holds them only while it solves.

    Each character chi of this Klein four-group has a block.  Character
    k takes the value -1 on the reflection if bit 0 of k is set and on
    the half-turn if bit 1 is set, so block 0 is the trivial one.  An
    orbit a of n_a unknowns (1, 2 or 4) with representative r_a spans
    in block k the vector with entries ``weight[k, i]`` (+1 or -1) on
    its unknowns i, and none if its stabilizer rules the character out
    (``weight`` is 0 there).  Scaled by 2 / n_a, these vectors are the
    columns of the block's basis V_chi (``_symmetry_basis``), which is
    where the int8 weights become floats.

    orbit : (n,) orbit of every unknown; orbits are numbered in
        factorization order, so every block lists its orbits in
        increasing order
    rep : (n_orbits,) the representative unknown of each orbit, the one
        whose node lies in the fundamental triangle y <= x, x + y <= 1
        (the x-velocity where both components of a node are members)
    size : (n_orbits,) n_a
    weight : (4, n) int8, the entries of the symmetry-adapted vectors
    blocks : per character, the orbits of its block in factorization
        order
    """

    orbit: np.ndarray
    rep: np.ndarray
    size: np.ndarray
    weight: np.ndarray
    blocks: tuple


def _dissect(lattice, step, nodes=None):
    """Geometric nested dissection (George 1973) of grid nodes with integer
    lattice indices ``lattice`` (n, 2).

    A node set is split, in the longer direction of its bounding box,
    at the line nearest the median of its nodes (for a triangle of
    nodes, the middle of the box would leave one part three times the
    other); the two parts are ordered first, then the separator line.
    Only lines at multiples of ``step`` strictly inside the box (the
    mesh lines) separate: no element straddles them.  A set of at most 8
    nodes, or one with no such line inside its box, is a leaf.  Returns
    the (nodes, line) blocks in elimination order, with line =
    (axis, index) of a separator and None for a leaf.  ``nodes`` is the
    set to split, every node by default, in lexicographic (y, x) order.
    It recurses through this module-level function and not a closure,
    so no reference cycle holds the node arrays once it returns.
    """
    if nodes is None:
        nodes = np.lexsort((lattice[:, 0], lattice[:, 1]))
    if nodes.size > 8:
        pts = lattice[nodes]
        lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        axis = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1
        coord = pts[:, axis]
        # the mesh lines strictly inside the box are step * k, first <= k <= last
        first, last = lo[axis] // step + 1, -(-hi[axis] // step) - 1
        if first <= last:
            nearest = math.ceil(float(np.median(coord)) / step - 0.5)  # ties to the lower
            mid = step * min(max(nearest, first), last)
            return (_dissect(lattice, step, nodes[coord < mid])
                    + _dissect(lattice, step, nodes[coord > mid])
                    + [(nodes[coord == mid], (axis, mid))])
    return [(nodes, None)]


def _node_symmetries(space):
    """The node permutations (reflection x <-> y, half-turn about
    (1/2, 1/2)) of ``space`` and the integer lattice index of every
    node: its coordinates times degree * n, so the mesh lines lie at
    multiples of the degree.  Raises ValueError unless every lattice
    point is one node and both maps take triangles to triangles and free
    DOFs to free DOFs."""
    m = space.degree * space.mesh.n
    lattice = np.rint(space.node_coords * m).astype(np.int64)
    i, j = lattice.T
    at = np.full((m + 1) ** 2, -1, dtype=np.int64)
    at[j * (m + 1) + i] = np.arange(i.size)
    if i.size != at.size or np.any(at < 0):
        raise ValueError("the nodes are not the points of a square lattice")
    reflect, turn = at[i * (m + 1) + j], at[(m - j) * (m + 1) + (m - i)]
    free = np.zeros(space.num_dofs, dtype=bool)
    free[space.free_scalar] = True
    nv = space.mesh.num_vertices  # vertices are the first nodes

    def triangle_keys(perm):
        a, b, c = np.sort(perm[space.mesh.triangles], axis=1).T
        return np.sort((a * nv + b) * nv + c)

    for perm in (reflect, turn):
        if not (np.array_equal(triangle_keys(perm), triangle_keys(np.arange(nv)))
                and np.array_equal(free[perm], free)):
            raise ValueError("the mesh is not symmetric under the reflection x <-> y "
                             "and the half-turn about (1/2, 1/2)")
    return reflect, turn, lattice


def _saddle_orbits(space):
    """The ``SaddleOrbits`` of the steady saddle unknowns of
    ``space`` (free x-velocities, free y-velocities, pressures).

    Each group element g (identity, reflection, half-turn, their
    product) maps unknown i to ``image[g, i]`` with sign ``sign[g, i]``.
    An orbit's representative is its member of least index whose node
    lies in the fundamental triangle; an unknown's weight in block k is
    chi_k(g) sign[g, i] for the g that maps it to the representative,
    averaged over all such g: +1 or -1, or 0 where the stabilizer rules
    the character out, stored as int8.  Orbits are numbered, and so
    every block ordered, by the rank of their representatives' nodes in
    the nested dissection (``_dissect``) of the nodes of the fundamental
    triangle, and by field within a node.
    """
    reflect, turn, lattice = _node_symmetries(space)
    m = space.degree * space.mesh.n
    fs, nn = space.free_scalar, space.num_dofs
    nf = fs.size
    free_pos = np.full(nn, -1, dtype=np.int64)
    free_pos[fs] = np.arange(nf)
    node = np.concatenate([fs, fs, np.arange(nn)])
    field = np.repeat([0, 1, 2], [nf, nf, nn])
    velocity = field < 2
    image, sign = [], []
    for swap, flip, perm in ((False, False, np.arange(nn)), (True, False, reflect),
                             (False, True, turn), (True, True, reflect[turn])):
        to = perm[node]
        comp = np.where(velocity & swap, 1 - field, field)
        image.append(np.where(velocity, comp * nf + free_pos[to], 2 * nf + to))
        sign.append(np.where(velocity & flip, -1.0, 1.0))
    image, sign = np.array(image), np.array(sign)
    i, j = lattice[node].T
    outside = (j > i) | (i + j > m)
    key = image + outside[image] * image.shape[1]
    rep_of = np.take_along_axis(image, key.argmin(axis=0)[None], axis=0)[0]
    hit = image == rep_of
    chi = np.array([[(-1.0) ** bin(k & g).count("1") for g in range(4)] for k in range(4)])
    weight = (chi @ (hit * sign) / hit.sum(axis=0)).astype(np.int8)

    inside = np.flatnonzero(~outside[2 * nf:])  # the nodes of the fundamental triangle
    dissection = np.concatenate([nodes for nodes, _ in _dissect(lattice[inside], space.degree)])
    rank = np.empty(nn, dtype=np.int64)  # set for the nodes inside, the only ones read
    rank[inside[dissection]] = np.arange(inside.size)
    rep, orbit = np.unique(rep_of, return_inverse=True)
    order = np.lexsort((field[rep], rank[node[rep]]))
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    rep, orbit = rep[order], number[orbit]
    blocks = tuple(np.flatnonzero(weight[k, rep] != 0) for k in range(4))
    return SaddleOrbits(orbit, rep, np.bincount(orbit), weight, blocks)


def _symmetry_basis(orbits, k, order):
    """The symmetry-adapted basis V_chi of block ``k`` on its orbits
    ``order`` (a ``SaddleOrbits`` block, possibly pinned): the sparse
    (unknowns, len(order)) CSR with V_chi[i, a] = (2 / n_a) weight[k, i]
    for every unknown i of orbit ``order[a]``, so one entry per row at
    most."""
    pos = np.full(orbits.rep.size, -1, dtype=np.int32)
    pos[order] = np.arange(order.size, dtype=np.int32)
    col = pos[orbits.orbit]
    kept = col >= 0
    indptr = np.zeros(col.size + 1, dtype=np.int32)
    np.cumsum(kept, out=indptr[1:])
    values = 2.0 / orbits.size[orbits.orbit[kept]] * orbits.weight[k, kept]
    return sparse.csr_matrix((values, col[kept], indptr), shape=(col.size, order.size))


def _representative_rows(s, free, g, orbits, order, nu):
    """Twice the rows of the representatives of the orbits ``order``, in
    that order, of the unpinned saddle matrix K = [[nu A (+) nu A, g],
    [g^T, s]], with ``s`` in place of ``-delta s`` and A the block of s on
    the ``free`` DOFs: row-sliced from s, g and g^T, the rows of A scaled
    by ``nu`` as they are sliced (bit for bit the rows of nu A), so that
    neither K nor A nor a scaled copy of A is formed.  The pieces are
    stacked as CSR, with explicit zero blocks, so none passes through
    COO and no row is sorted again."""
    nf, nv = free.size, g.shape[0]
    rep = orbits.rep[order]
    field = np.searchsorted([nf, nv], rep, side="right")  # x, y, pressure
    rx, ry, rp = (rep[field == f] - f * nf for f in range(3))
    ax, ay = (s[free[r]][:, free] for r in (rx, ry))
    ax.data *= nu
    ay.data *= nu
    rows = sparse.vstack([sparse.hstack([ax, sparse.csr_matrix((rx.size, nf)), g[rx]]),
                          sparse.hstack([sparse.csr_matrix((ry.size, nf)), ay, g[nf + ry]]),
                          sparse.hstack([g[:, rp].T.tocsr(), s[rp]])], format="csr")
    return 2.0 * rows[np.argsort(np.argsort(field, kind="stable"))]


def _symmetry_block(s, free, g, orbits, k, order, nu):
    """Block ``k`` on its orbits ``order``: (matrix, basis, pressure,
    slots), where ``basis`` is its V_chi (``_symmetry_basis``),
    ``matrix`` the sorted CSC of K_chi = 2 K_r V_chi, with K_r its own
    orbits' rows (``_representative_rows``, dropped on return) and S in
    its pressure-pressure entries, ``pressure`` marks its pressure
    unknowns and ``slots`` the entries of ``matrix.data`` whose row and
    column are both pressures, which a solve sets to -delta S.  This is
    V_chi^T K V_chi: K commutes with the group, so K V_chi = V_chi C for
    some C, and both are diag(4 / n_a) C."""
    basis = _symmetry_basis(orbits, k, order)
    matrix = sparse.csc_matrix(_representative_rows(s, free, g, orbits, order, nu) @ basis)
    pressure = orbits.rep[order] >= g.shape[0]
    slots = pressure[matrix.indices] & np.repeat(pressure, np.diff(matrix.indptr))
    return matrix, basis, pressure, slots


def _block_solve(matrix, pressure, f, scale, tol):
    """Solve the symmetry block ``matrix`` for ``f`` = V_chi^T rhs:
    factorized in symmetric mode in the block's order, then refined
    against the block at least once and at most twice, until the
    relative norm of the velocity and of the pressure part (``pressure``)
    of its residual is at most ``tol``, both relative to ``scale``.  If
    the factorization fails or the refined solve misses, the block alone
    is factorized with partial pivoting and solved again: at nu = 0.01
    that happens from rho = 1e7 at P1 N=40 and from rho = 1e8 at P1 N=8
    and P2 N=4, where the pivoting solve meets the contract and a second
    symmetric one would not.  A
    singular pivoting factorization is a LinearSolverError.  The factor
    is dropped on return.  Returns (y, refinements)."""

    def refined(solve):
        y, steps = solve(f), 0
        while True:
            r = f - matrix @ y
            rel = max(np.linalg.norm(r[~pressure]), np.linalg.norm(r[pressure])) / scale
            if steps == 2 or (steps and rel <= tol):
                return y, rel, steps
            y = y + solve(r)
            steps += 1

    try:
        y, rel, steps = refined(_splu(matrix, "NATURAL"))
    except LinearSolverError:  # a zero pivot in symmetric mode
        rel = np.inf
    if not rel <= tol:
        y, _, steps = refined(_splu(matrix))
    return y, steps


def saddle_solve(space, s, g, deltas, rhs_v, *, nu, mean_weights, tol):
    """Solve, for every delta of ``deltas``, the symmetric indefinite
    block system

        [ diag(nu A, nu A)    g     ] [x]   [rhs_v]
        [       g^T       -delta*s  ] [z] = [  0  ]

    on the zero-mean pressure subspace, where A, the block of the scalar
    stiffness ``s`` on the free DOFs of the scalar ``space``, scaled by
    the viscosity ``nu``, acts on both velocity components, one symmetry
    block at a time.  The matrix commutes with the signed permutations
    of the grid's symmetry group, so in the symmetry-adapted basis V it
    is block diagonal.  The orbit tables of that group
    (``SaddleOrbits``, ``_saddle_orbits``) are built from ``space`` once
    a nonzero ``rhs_v`` needs them and are dropped with the solve's
    blocks when it returns.  Each block is built once from the rows K_r
    of its own orbits' representatives (``_symmetry_block``), which are
    dropped before it is factorized; for each delta its ``-delta S``
    entries are set, it is factorized and solved for V_chi^T rhs
    (``_block_solve``), and V_chi y_chi is added to that delta's
    solution.  SuperLU copies its input, so one block serves every
    delta, and it is dropped with its basis before the next is built.
    The pin drops the pressure orbit of DOF 0 from the trivial block: the
    constants, the nullspace of the saddle matrix, lie in that block and
    have a nonzero entry on that orbit, so every pinned block is
    symmetric quasi-definite, and its symmetric ordering is stable
    without pivoting.  Each pressure is afterwards projected to zero
    weighted mean (``mean_weights``).

    Each block is refined against itself to half of ``tol``: the basis
    vectors are orthogonal with squared norms 1, 2 or 4, so in exact
    arithmetic the four block residuals bound the residual of the
    assembled solution.  The contract is checked on each assembled
    solution: its momentum and continuity residuals, recomputed from the
    scalar blocks (the momentum one per component as nu (s x~) on the
    free DOFs, x~ the component extended by zeros, which is nu (A x_c)
    bit for bit), must each have a norm of at most tol * ||rhs_v||.
    That recomputation sums in another order than the blocks and carries
    its own round-off, which scales with the equations' terms and not
    with ||rhs_v||; where the continuity terms are large beside rhs_v
    (nu = 1e-4 and rho <= 0.1 at P1 N=40 and P2 N=20), that round-off
    alone exceeds tol and the delta fails although its solve is as
    accurate as double precision allows.

    Returns (x, z, report): one row of x and of z per delta, and a
    ``SolveReport``; a delta that failed (a singular pivoting
    factorization or a missed contract) has its LinearSolverError there,
    without a traceback, and its rows are not a solution.
    """
    if not all(delta > 0.0 for delta in deltas):
        raise ValueError("saddle solve requires delta > 0 for equal-order pairs")
    free = space.free_scalar
    nv = 2 * free.size
    npres = s.shape[0]
    rhs_v = np.asarray(rhs_v, dtype=float)
    if rhs_v.shape != (nv,):
        raise ValueError(f"rhs has shape {rhs_v.shape}, expected ({nv},)")
    scale = np.linalg.norm(rhs_v)
    sol = np.zeros((len(deltas), nv + npres))
    if scale == 0.0:
        return sol[:, :nv], sol[:, nv:], SolveReport(0, (None,) * len(deltas))

    orbits = _saddle_orbits(space)
    trivial, *rest = orbits.blocks
    failures = [None] * len(deltas)
    refinements = 0
    for k, order in enumerate((trivial[trivial != orbits.orbit[nv]], *rest)):
        if order.size == 0:
            continue
        matrix, basis, pressure, slots = _symmetry_block(s, free, g, orbits, k, order, nu)
        s_values, f = matrix.data[slots], basis[:nv].T @ rhs_v
        for i, delta in enumerate(deltas):
            if failures[i] is not None:
                continue
            matrix.data[slots] = s_values * -delta
            try:
                y, steps = _block_solve(matrix, pressure, f, scale, tol / 2)
            except LinearSolverError as exc:
                failures[i] = exc.with_traceback(None)  # which would keep this frame alive
                continue
            refinements += steps
            sol[i] += basis @ y
        del matrix, basis  # before the next block is built

    extended = np.zeros((2, npres))  # the velocity, zero at the Dirichlet DOFs
    for i, delta in enumerate(deltas):
        x, z = sol[i, :nv], sol[i, nv:]
        extended[:, free] = x.reshape(2, -1)
        r1 = rhs_v - (np.concatenate([nu * (s @ xc)[free] for xc in extended]) + g @ z)
        r2 = delta * (s @ z) - g.T @ x
        rel = max(np.linalg.norm(r1), np.linalg.norm(r2)) / scale
        if failures[i] is None and not rel <= tol:
            failures[i] = LinearSolverError(f"saddle solve residual {rel:.3e} exceeds tol={tol}")
    z = np.array([project_mean(row, mean_weights) for row in sol[:, nv:]])
    return sol[:, :nv], z, SolveReport(refinements, tuple(failures))
