"""Sparse linear algebra for the schemes.

Matrices are scipy CSR arrays in canonical form (sorted, duplicate-free
column indices).  Three direct solver entry points cover everything the
schemes need:

- ``saddle_solve``: a direct solve of the symmetric indefinite steady
  Stokes block system on the zero-mean pressure subspace, for every
  delta of a mesh in one call, one symmetry block at a time: the grid's
  reflection x <-> y and half-turn split the system into four blocks,
  one per character of their Klein four-group (``SaddleOrbits``, from
  ``Discretization.saddle_orbits``), each ordered by a geometric nested
  dissection of the fundamental triangle.  Block chi is 2 K_r V_chi,
  the rows of the orbit representatives, sliced from the scalar velocity
  block, ``G``, ``G^T`` and ``S``, times its sparse basis V_chi, with
  its ``-delta S`` entries set.  K_r lives only inside the call; each
  block is built once, factorized and solved for V_chi^T rhs for each
  delta, and dropped before the next, so one quarter-size block and one
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
    Pressures map as scalars.  Built by ``Discretization.saddle_orbits``.

    Each character chi of this Klein four-group has a block.  Character
    k takes the value -1 on the reflection if bit 0 of k is set and on
    the half-turn if bit 1 is set, so block 0 is the trivial one.  An
    orbit a of n_a unknowns (1, 2 or 4) with representative r_a spans
    in block k the vector with entries ``weight[k, i]`` (+1 or -1) on
    its unknowns i, and none if its stabilizer rules the character out
    (``weight`` is 0 there).  Scaled by 2 / n_a, these vectors are the
    columns of the block's basis V_chi (``_symmetry_basis``).

    orbit : (n,) orbit of every unknown; orbits are numbered in
        factorization order, so every block lists its orbits in
        increasing order
    rep : (n_orbits,) the representative unknown of each orbit, the one
        whose node lies in the fundamental triangle y <= x, x + y <= 1
        (the x-velocity where both components of a node are members)
    size : (n_orbits,) n_a
    weight : (4, n) the entries of the symmetry-adapted vectors
    blocks : per character, the orbits of its block in factorization
        order
    """

    orbit: np.ndarray
    rep: np.ndarray
    size: np.ndarray
    weight: np.ndarray
    blocks: tuple


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


def _representative_rows(a_block, g, s, orbits):
    """K_r, twice the rows of the orbit representatives of the unpinned
    saddle matrix K = [[A (+) A, g], [g^T, s]], with the pressure block
    ``s`` in place of ``-delta s``, in orbit order: gathered by
    row-slicing A, g, g^T and s, so K itself is never formed."""
    nf, nv = a_block.shape[0], g.shape[0]
    field = np.searchsorted([nf, nv], orbits.rep, side="right")  # x, y, pressure
    rx, ry, rp = (orbits.rep[field == f] - f * nf for f in range(3))
    gt = g[:, rp].T
    k_r = sparse.bmat([[a_block[rx], None, g[rx]],
                       [None, a_block[ry], g[nf + ry]],
                       [gt[:, :nf], gt[:, nf:], s[rp]]], format="csr")
    return 2.0 * k_r[np.argsort(np.argsort(field, kind="stable"))]


def _symmetry_block(k_r, orbits, k, order, nv):
    """Block ``k`` on its orbits ``order``, built from the representatives'
    rows ``k_r``: (matrix, basis, pressure, slots), where ``basis`` is its
    V_chi (``_symmetry_basis``), ``matrix`` the sorted CSC of

        K_chi = 2 K_r[order] V_chi

    with S in its pressure-pressure entries, ``pressure`` marks its
    pressure unknowns (those from ``nv`` on) and ``slots`` the entries of
    ``matrix.data`` whose row and column are both pressures, which a
    solve sets to -delta S.  This is V_chi^T K V_chi: K commutes with the
    group, so K V_chi = V_chi C for some C, and both are diag(4 / n_a) C."""
    basis = _symmetry_basis(orbits, k, order)
    matrix = sparse.csc_matrix(k_r[order] @ basis)
    pressure = orbits.rep[order] >= nv
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


def saddle_solve(a_block, g, s, orbits, deltas, rhs_v, *, mean_weights, tol):
    """Solve, for every delta of ``deltas``, the symmetric indefinite
    block system

        [ diag(A, A)      g     ] [x]   [rhs_v]
        [    g^T      -delta*s  ] [z] = [  0  ]

    on the zero-mean pressure subspace, where the scalar velocity block
    A = ``a_block`` (already viscosity-scaled, on free DOFs) acts on both
    velocity components, one symmetry block at a time.  The matrix
    commutes with the signed permutations of the grid's symmetry group
    (``SaddleOrbits`` ``orbits``), so in the symmetry-adapted basis V it
    is block diagonal.  Each block is built once from the rows K_r of the
    orbit representatives (``_symmetry_block``); for each delta its
    ``-delta S`` entries are set, it is factorized and solved for
    V_chi^T rhs (``_block_solve``), and V_chi y_chi is added to that
    delta's solution.  SuperLU copies its input, so one block serves
    every delta, and it is dropped with its basis before the next is
    built.  The pin drops the pressure orbit of DOF 0 from the trivial
    block: the constants, the nullspace of the saddle matrix, lie in
    that block and have a nonzero entry on that orbit, so every pinned
    block is symmetric quasi-definite, and its symmetric ordering is
    stable without pivoting.  Each pressure is afterwards projected to
    zero weighted mean (``mean_weights``).

    Each block is refined against itself to half of ``tol``: the basis
    vectors are orthogonal with squared norms 1, 2 or 4, so in exact
    arithmetic the four block residuals bound the residual of the
    assembled solution.  The contract is checked on each assembled
    solution: its momentum and continuity residuals, recomputed from the
    scalar blocks, must each have a norm of at most tol * ||rhs_v||.
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
    nv = 2 * a_block.shape[0]
    npres = s.shape[0]
    rhs_v = np.asarray(rhs_v, dtype=float)
    if rhs_v.shape != (nv,):
        raise ValueError(f"rhs has shape {rhs_v.shape}, expected ({nv},)")
    scale = np.linalg.norm(rhs_v)
    if scale == 0.0:
        sol = np.zeros((len(deltas), nv + npres))
        return sol[:, :nv], sol[:, nv:], SolveReport(0, (None,) * len(deltas))

    k_r = _representative_rows(a_block, g, s, orbits)
    rhs = np.concatenate([rhs_v, np.zeros(npres)])
    sol = np.zeros((len(deltas), nv + npres))
    trivial, *rest = orbits.blocks
    failures = [None] * len(deltas)
    refinements = 0
    for k, order in enumerate((trivial[trivial != orbits.orbit[nv]], *rest)):
        if order.size == 0:
            continue
        matrix, basis, pressure, slots = _symmetry_block(k_r, orbits, k, order, nv)
        s_values, f = matrix.data[slots], basis.T @ rhs
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

    for i, delta in enumerate(deltas):
        x, z = sol[i, :nv], sol[i, nv:]
        ax = np.concatenate([a_block @ xc for xc in x.reshape(2, -1)])
        r1 = rhs_v - (ax + g @ z)
        r2 = delta * (s @ z) - g.T @ x
        rel = max(np.linalg.norm(r1), np.linalg.norm(r2)) / scale
        if failures[i] is None and not rel <= tol:
            failures[i] = LinearSolverError(f"saddle solve residual {rel:.3e} exceeds tol={tol}")
    z = np.array([project_mean(row, mean_weights) for row in sol[:, nv:]])
    return sol[:, :nv], z, SolveReport(refinements, tuple(failures))
