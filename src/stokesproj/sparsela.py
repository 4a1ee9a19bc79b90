"""Sparse linear algebra for the schemes.

Matrices are scipy CSR arrays in canonical form (sorted, duplicate-free
column indices).  Three direct solver entry points cover everything the
schemes need:

- ``saddle_solve``: a direct solve of the symmetric indefinite steady
  Stokes block system of a ``SaddleSystem`` on the zero-mean pressure
  subspace, one symmetry block at a time: the grid's reflection x <-> y
  and half-turn split the system into four blocks, one per character of
  their Klein four-group (``SaddleOrbits``, from
  ``Discretization.saddle_orbits``), each ordered by a geometric nested
  dissection of the fundamental triangle; the four pinned blocks are
  built once per system, straight from the scalar velocity block, ``G``,
  ``G^T`` and ``S``, each delta only rewrites their ``-delta S``
  entries, and each block is factorized, solved, refined and its factor
  dropped before the next, so one quarter-size factor is alive at a
  time;
- ``FactorizedSpd`` / ``PinnedSingularSolver``: cached LU factorizations
  of scalar matrices, in SuperLU's minimum-degree ordering, reused
  across the many identical solves of a time loop;
- ``GridNeumannSolver``: the factor-free solve of the P1 pressure
  stiffness of the structured grid by fast diagonalization (DCT-I).

All solvers are deterministic: identical inputs give bit-identical
outputs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla


class LinearSolverError(RuntimeError):
    """Raised when a solver cannot meet its tolerance contract."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def _symmetric_splu(a_csc, permc_spec):
    """SuperLU in symmetric mode (diagonal pivots only); returns the solve
    function of the factorization.  Stable for SPD and for symmetric
    quasi-definite matrices (Vanderbei 1995), and with much sparser
    factors than the default partial pivoting.  ``permc_spec`` is
    SuperLU's column ordering: ``"MMD_AT_PLUS_A"`` (minimum degree on
    A + A^T) or ``"NATURAL"`` for a matrix already permuted by the
    caller."""
    lu = spla.splu(
        a_csc,
        permc_spec=permc_spec,
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return lu.solve


def _pivoting_splu(a_csc):
    """The solve function of SuperLU with default partial pivoting, the
    fallback of the symmetric mode; a singular matrix is a LinearSolverError."""
    try:
        return spla.splu(a_csc).solve
    except RuntimeError as exc:
        raise LinearSolverError(f"pivoting factorization failed: {exc}") from exc


class FactorizedSpd:
    """Cached sparse LU of a fixed SPD matrix; ``solve`` accepts one or
    several right-hand sides (columns).  The symmetric SuperLU mode is
    preferred; default pivoting is the fallback if a verification solve
    is off, and a singular matrix is a LinearSolverError."""

    def __init__(self, a):
        a = sparse.csc_matrix(a)
        try:
            self._solve = _symmetric_splu(a, "MMD_AT_PLUS_A")
            probe = np.ones(a.shape[0])
            if np.linalg.norm(a @ self._solve(probe) - probe) <= 1e-8 * np.linalg.norm(probe):
                return
        except RuntimeError:
            pass
        self._solve = _pivoting_splu(a)

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
        self._reduced = FactorizedSpd(s.tocsr()[1:, 1:])

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


def _csr_rows(m):
    """Row index of every stored entry of the CSR matrix ``m``."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int32), np.diff(m.indptr))


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
    (``weight`` is 0 there).

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


def _symmetry_blocks(a_block, g, s, orbits, blocks):
    """The symmetry blocks of the steady saddle matrix: for each list
    of orbits in ``blocks`` (in order), the CSC of

        K_chi[a, b] = (4 / n_b) sum_{j in b} weight[chi, j] K[r_a, j]

    where K = [[A (+) A, g], [g^T, s]] is the unpinned saddle matrix with
    the pressure block ``s`` in place of ``-delta s``.  This is
    V_chi^T K V_chi for the basis V_chi[i, a] = (2 / n_a) weight[chi, i],
    read off the rows of the representatives: K commutes with the
    group, so K V_chi = V_chi C and row r_a of K V_chi gives C[a, :].
    Returns (matrix, s_slots, s_values) per block: its pressure block
    holds the entries ``s_values`` of s at the positions ``s_slots``
    until ``matrix.data[s_slots] = -delta * s_values`` sets it.

    Only the stored entries in the rows of representatives, about a
    quarter of K, are gathered; each is scaled exactly (by a sign and a
    power of two) and mapped to its block position.  The terms of a
    block entry are summed sequentially in the column order of K, as a
    sparse product ``K[r] @ V_chi`` sums them, and entries that sum to
    zero are not stored.
    """
    nf, nv = a_block.shape[0], g.shape[0]
    is_rep = np.zeros(orbits.orbit.size, dtype=bool)
    is_rep[orbits.rep] = True

    def entries():
        """(rows, columns, values) of each block of K in the rows of
        representatives, in unknown indices."""
        a_rows = _csr_rows(a_block)
        for offset in (0, nf):
            keep = is_rep[offset + a_rows]
            yield offset + a_rows[keep], offset + a_block.indices[keep], a_block.data[keep]
        g_rows, g_cols = _csr_rows(g), nv + g.indices
        keep = is_rep[g_rows]
        yield g_rows[keep], g_cols[keep], g.data[keep]
        keep = is_rep[g_cols]
        yield g_cols[keep], g_rows[keep], g.data[keep]
        s_rows = nv + _csr_rows(s)
        keep = is_rep[s_rows]
        yield s_rows[keep], nv + s.indices[keep], s.data[keep]

    rows, cols, values = (np.concatenate(part) for part in zip(*entries()))
    row_orbit, col_orbit = orbits.orbit[rows], orbits.orbit[cols]
    # orbits are numbered in factorization order, so one sort by block
    # column, block row and column of K orders the entries of every block
    sort = np.lexsort((cols, col_orbit * orbits.rep.size + row_orbit))
    cols, row_orbit, col_orbit = cols[sort], row_orbit[sort], col_orbit[sort]
    values = values[sort] * (4.0 / orbits.size[col_orbit])
    out = []
    for k, order in enumerate(blocks):
        pos = np.full(orbits.rep.size, -1, dtype=np.int32)
        pos[order] = np.arange(order.size, dtype=np.int32)
        r, c = pos[row_orbit], pos[col_orbit]
        kept = np.flatnonzero((r >= 0) & (c >= 0))
        r, c = r[kept], c[kept]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        # each entry sums its terms sequentially, in the column order of K
        terms = values[kept] * orbits.weight[k, cols[kept]]
        data = np.bincount(np.cumsum(first) - 1, weights=terms)
        nonzero = data != 0.0
        r, c = r[first][nonzero], c[first][nonzero]
        indptr = np.zeros(order.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(c, minlength=order.size), out=indptr[1:])
        matrix = sparse.csc_matrix((data[nonzero], r, indptr), shape=(order.size,) * 2)
        pressure = orbits.rep[order] >= nv
        s_slots = np.flatnonzero(pressure[r] & pressure[c])
        out.append((matrix, s_slots, matrix.data[s_slots]))
    return out


class SaddleSystem:
    """The steady saddle system of ``saddle_solve`` for one scalar
    velocity block ``a_block`` (already viscosity-scaled, on free DOFs),
    coupling ``g`` and pressure stiffness ``s``, split by the orbit
    tables ``orbits`` (``Discretization.saddle_orbits``) into four
    symmetry blocks, each in the factorization order of its orbits.

    The pin lives here: the trivial block drops the pressure orbit of
    DOF 0.  The constants, the nullspace of the saddle matrix, lie in
    the trivial block and have a nonzero entry on that orbit, so every
    pinned block is nonsingular.

    Only the ``-delta*s`` entries depend on delta.  The four blocks are
    built at the first solve (``_symmetry_blocks``) and kept, and every
    solve rewrites their ``-delta*s`` entries in place, so solves for
    several delta share one build (``Discretization.saddle_system``)."""

    def __init__(self, a_block, g, s, orbits):
        self.a_block, self.g, self.s, self.orbits = a_block, g, s, orbits
        pinned = orbits.orbit[2 * a_block.shape[0]]
        trivial, *rest = orbits.blocks
        self.blocks = (trivial[trivial != pinned], *rest)
        self._built = None

    def matrices(self, delta):
        """The four pinned, ordered block CSCs with the ``-delta*s``
        entries of ``delta``."""
        if self._built is None:
            self._built = _symmetry_blocks(self.a_block, self.g, self.s, self.orbits,
                                           self.blocks)
        for matrix, s_slots, s_values in self._built:
            matrix.data[s_slots] = -delta * s_values
        return [matrix for matrix, _, _ in self._built]


def _block_solve(matrix, f, pressure, scale, tol):
    """Solve one symmetry block ``matrix`` y = f: factorized in symmetric
    mode in the block's order, then refined against the block at least
    once and at most twice, until the relative norm of the velocity and
    of the pressure part (``pressure`` marks it) of its residual is at
    most ``tol``, both relative to ``scale``.  If the factorization
    fails or the refined solve misses, the block alone is factorized
    with partial pivoting and solved again.  The factor is dropped on
    return.  Returns (y, refinements)."""

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
        y, rel, steps = refined(_symmetric_splu(matrix, "NATURAL"))
    except RuntimeError:  # a zero pivot in symmetric mode
        rel = np.inf
    if not rel <= tol:
        y, _, steps = refined(_pivoting_splu(matrix))
    return y, steps


def saddle_solve(system, delta, rhs_v, *, mean_weights, tol):
    """Solve the symmetric indefinite block system of the SaddleSystem
    ``system``

        [ diag(A, A)      g     ] [x]   [rhs_v]
        [    g^T      -delta*s  ] [z] = [  0  ]

    on the zero-mean pressure subspace, where A = ``system.a_block`` acts
    on both velocity components, one symmetry block at a time.  The
    matrix commutes with the signed permutations of the grid's symmetry
    group (``SaddleOrbits``), so in the symmetry-adapted basis V it is
    block diagonal: each block's right-hand side is V_chi^T rhs, its
    solution y_chi adds V_chi y_chi to the solution, and the blocks are
    solved in turn (``_block_solve``), each factor dropped before the
    next block is factorized, so one quarter-size factor is alive at a
    time.  With the pin of ``SaddleSystem`` every block is symmetric
    quasi-definite, so its symmetric ordering is stable without
    pivoting.  The pressure is afterwards projected to zero weighted
    mean (``mean_weights``).

    Each block is refined against itself to half of ``tol``: the basis
    vectors are orthogonal with squared norms 1, 2 or 4, so the four
    block residuals bound the residual of the assembled solution.  The
    contract is checked on that assembled solution, formed from the
    blocks of the system: both block residual norms must not exceed
    tol * ||rhs_v||, else LinearSolverError is raised.  The report's
    ``iterations`` is the number of refinement steps over the four
    blocks.
    """
    if delta <= 0.0:
        raise ValueError("saddle solve requires delta > 0 for equal-order pairs")
    a_block, g, s, orbits = system.a_block, system.g, system.s, system.orbits
    nv = 2 * a_block.shape[0]
    npres = s.shape[0]
    rhs_v = np.asarray(rhs_v, dtype=float)
    if rhs_v.shape != (nv,):
        raise ValueError(f"rhs has shape {rhs_v.shape}, expected ({nv},)")
    scale = np.linalg.norm(rhs_v)
    if scale == 0.0:
        return np.zeros(nv), np.zeros(npres), SolveReport(0, 0.0, True)

    rhs = np.concatenate([rhs_v, np.zeros(npres)])
    share = 2.0 / orbits.size[orbits.orbit]  # V_chi[i, a] = share[i] * weight[chi, i]
    sol = np.zeros(nv + npres)
    refinements = 0
    for k, (order, matrix) in enumerate(zip(system.blocks, system.matrices(delta))):
        if order.size == 0:
            continue
        basis = share * orbits.weight[k]
        f = np.bincount(orbits.orbit, weights=basis * rhs, minlength=orbits.rep.size)[order]
        y, steps = _block_solve(matrix, f, orbits.rep[order] >= nv, scale, tol / 2)
        refinements += steps
        coef = np.zeros(orbits.rep.size)
        coef[order] = y
        sol += basis * coef[orbits.orbit]

    x, z = sol[:nv], sol[nv:]
    ax = np.concatenate([a_block @ xc for xc in x.reshape(2, -1)])
    r1 = rhs_v - (ax + g @ z)
    r2 = delta * (s @ z) - g.T @ x
    rel = max(np.linalg.norm(r1), np.linalg.norm(r2)) / scale
    report = SolveReport(refinements, float(rel), rel <= tol)
    if not report.converged:
        raise LinearSolverError(
            f"saddle solve residual {rel:.3e} exceeds tol={tol}", report
        )
    return x, project_mean(z, mean_weights), report
