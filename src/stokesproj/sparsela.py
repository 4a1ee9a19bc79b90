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
  dissection of the fundamental triangle.  Block chi is 2 K_r V_chi,
  the rows of the orbit representatives, sliced from the scalar velocity
  block, ``G``, ``G^T`` and ``S``, times its sparse basis V_chi, with
  its ``-delta S`` entries set.  The system keeps only K_r; each block
  is built just before it is factorized, solved for V_chi^T rhs and
  dropped with its factor before the next, so one quarter-size block
  and factor are alive at a time;
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
    """Cached sparse LU of a fixed SPD matrix, given as a CSC and
    factored as it is, with no copy; ``solve`` accepts one or several
    right-hand sides (columns).  The symmetric SuperLU mode is
    preferred; default pivoting is the fallback if a verification solve
    is off, and a singular matrix is a LinearSolverError."""

    def __init__(self, a):
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

    The system keeps only the representatives' rows ``k_r``
    (``_representative_rows``), about a quarter of the saddle matrix,
    gathered when it is made; ``block`` builds one block from them for
    one delta, so the solves for several delta share one gather
    (``steady.system``) and no block outlives its factorization."""

    def __init__(self, a_block, g, s, orbits):
        self.a_block, self.g, self.s, self.orbits = a_block, g, s, orbits
        pinned = orbits.orbit[2 * a_block.shape[0]]
        trivial, *rest = orbits.blocks
        self.blocks = (trivial[trivial != pinned], *rest)
        self.k_r = _representative_rows(a_block, g, s, orbits)

    def block(self, k, delta):
        """Block ``k`` for ``delta``: (matrix, basis, pressure), where
        ``basis`` is its V_chi (``_symmetry_basis``), ``matrix`` the
        sorted CSC of

            K_chi = 2 K_r[order] V_chi

        with the entries whose row and column are both pressures scaled
        by -delta, and ``pressure`` marks its pressure unknowns.  This is
        V_chi^T K V_chi: K commutes with the group, so K V_chi = V_chi C
        for some C, and both are diag(4 / n_a) C."""
        order = self.blocks[k]
        basis = _symmetry_basis(self.orbits, k, order)
        matrix = sparse.csc_matrix(self.k_r[order] @ basis)
        pressure = self.orbits.rep[order] >= self.g.shape[0]
        in_pressure_column = np.repeat(pressure, np.diff(matrix.indptr))
        matrix.data[pressure[matrix.indices] & in_pressure_column] *= -delta
        return matrix, basis, pressure


def _block_solve(system, k, delta, rhs, scale, tol):
    """Solve block ``k`` of ``system`` for ``delta`` (``SaddleSystem.block``)
    for V_chi^T ``rhs``: factorized in symmetric mode in the block's
    order, then refined against the block at least once and at most
    twice, until the relative norm of the velocity and of the pressure
    part of its residual is at most ``tol``, both relative to ``scale``.
    If the factorization fails or the refined solve misses, the block
    alone is factorized with partial pivoting and solved again.  The
    block, its basis and its factor are dropped on return.  Returns
    (V_chi y, refinements)."""
    matrix, basis, pressure = system.block(k, delta)
    f = basis.T @ rhs

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
    return basis @ y, steps


def saddle_solve(system, delta, rhs_v, *, mean_weights, tol):
    """Solve the symmetric indefinite block system of the SaddleSystem
    ``system``

        [ diag(A, A)      g     ] [x]   [rhs_v]
        [    g^T      -delta*s  ] [z] = [  0  ]

    on the zero-mean pressure subspace, where A = ``system.a_block`` acts
    on both velocity components, one symmetry block at a time.  The
    matrix commutes with the signed permutations of the grid's symmetry
    group (``SaddleOrbits``), so in the symmetry-adapted basis V it is
    block diagonal: the blocks are solved in turn (``_block_solve``),
    each built for its solve with its basis V_chi from the system's rows
    K_r (``SaddleSystem.block``) and solved for V_chi^T rhs, and
    V_chi y_chi adds its solution.  Each block, basis and factor is
    dropped before the next block is built, so one quarter-size block
    and its factor are alive at a time.  With the pin of
    ``SaddleSystem`` every block is symmetric quasi-definite, so its
    symmetric ordering is stable without pivoting.  The pressure is
    afterwards projected to zero weighted mean (``mean_weights``).

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
    a_block, g, s = system.a_block, system.g, system.s
    nv = 2 * a_block.shape[0]
    npres = s.shape[0]
    rhs_v = np.asarray(rhs_v, dtype=float)
    if rhs_v.shape != (nv,):
        raise ValueError(f"rhs has shape {rhs_v.shape}, expected ({nv},)")
    scale = np.linalg.norm(rhs_v)
    if scale == 0.0:
        return np.zeros(nv), np.zeros(npres), SolveReport(0, 0.0, True)

    rhs = np.concatenate([rhs_v, np.zeros(npres)])
    sol = np.zeros(nv + npres)
    refinements = 0
    for k, order in enumerate(system.blocks):
        if order.size == 0:
            continue
        part, steps = _block_solve(system, k, delta, rhs, scale, tol / 2)
        refinements += steps
        sol += part

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
