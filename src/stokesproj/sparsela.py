"""Sparse linear algebra for the schemes.

Matrices are scipy CSR arrays in canonical form (sorted, duplicate-free
column indices).  Three direct solver entry points cover everything the
schemes need:

- ``saddle_solve``: a direct solve of the symmetric indefinite steady
  Stokes block system of a ``SaddleSystem`` on the zero-mean pressure
  subspace, factorized in a caller-given fill-reducing ordering
  (``Discretization.saddle_order``, a geometric nested dissection of the
  grid); the pinned, ordered matrix is built once per system, straight
  from the scalar velocity block, ``G``, ``G^T`` and ``-delta S``, each
  delta only rewrites its ``-delta S`` entries, and it is the only copy
  of the system alive while it is factorized;
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


def _pinned_saddle_csc(a_block, g, s, perm):
    """The pinned saddle matrix of ``saddle_solve`` in the order ``perm``,
    as one CSC built straight from its blocks.  Returns (matrix, s_slots,
    s_values): the pressure block holds the entries ``s_values`` of ``s``
    at the positions ``s_slots`` until ``matrix.data[s_slots] = -delta *
    s_values`` sets it for a delta.

    ``perm`` lists the pinned unknowns in factorization order as indices
    into the unpinned ones (x-velocities, y-velocities, pressures).  The
    stored entries of ``a_block`` (twice), ``g``, ``g^T`` and ``s``, less
    those of the pinned pressure, are mapped through the inverse of
    ``perm`` into int32 row and column arrays of the final size, and one
    COO -> CSC conversion sorts them.  No two blocks share a position, so
    the pressure block is exactly the entries whose row and column are
    both pressures, and with them set to ``-delta*s`` this is, entry for
    entry, ``csc(bmat([[A (+) A, g], [g^T, -delta*s]])[perm][:, perm])``,
    explicit zeros included, without ever holding that block matrix.
    """
    na, nv = a_block.shape[0], g.shape[0]
    pos = np.full(nv + s.shape[0], -1, dtype=np.int32)
    pos[perm] = np.arange(perm.size, dtype=np.int32)
    g_keep = g.indices != 0
    s_rows = _csr_rows(s)
    s_keep = (s_rows != 0) & (s.indices != 0)
    nnz = 2 * a_block.nnz + 2 * np.count_nonzero(g_keep) + np.count_nonzero(s_keep)

    def blocks():
        """(rows, columns, values) of each block, in unpinned indices;
        one block's temporaries are alive at a time."""
        a_rows = _csr_rows(a_block)
        yield a_rows, a_block.indices, a_block.data
        yield a_rows + na, a_block.indices + na, a_block.data
        g_rows, g_cols = _csr_rows(g)[g_keep], nv + g.indices[g_keep]
        yield g_rows, g_cols, g.data[g_keep]
        yield g_cols, g_rows, g.data[g_keep]
        yield nv + s_rows[s_keep], nv + s.indices[s_keep], s.data[s_keep]

    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    start = 0
    for r, c, v in blocks():
        end = start + v.size
        rows[start:end], cols[start:end], data[start:end] = pos[r], pos[c], v
        start = end
    matrix = sparse.coo_matrix((data, (rows, cols)), shape=(perm.size,) * 2).tocsc()
    pressure = perm >= nv
    s_slots = np.flatnonzero(pressure[matrix.indices]
                             & np.repeat(pressure, np.diff(matrix.indptr)))
    return matrix, s_slots, matrix.data[s_slots]


class SaddleSystem:
    """The steady saddle system of ``saddle_solve`` for one scalar
    velocity block ``a_block`` (already viscosity-scaled, on free DOFs),
    coupling ``g`` and pressure stiffness ``s``, factorized in the order
    ``order``: a permutation of the unknowns (x-velocities, y-velocities,
    then pressures) such as the nested dissection
    ``Discretization.saddle_order``.  The system drops the pinned
    pressure DOF 0 from it; ``perm`` keeps the rest in their order.

    Only the ``-delta*s`` block depends on delta.  The pinned, ordered
    matrix is built at the first solve and kept, and every solve
    rewrites its ``-delta*s`` entries in place, so solves for several
    delta share one build (``Discretization.saddle_system``)."""

    def __init__(self, a_block, g, s, order):
        self.a_block, self.g, self.s = a_block, g, s
        # the pinned unknowns in factorization order, as unpinned indices
        self.perm = order[order != 2 * a_block.shape[0]]
        self._built = None

    def matrix(self, delta):
        """The pinned, ordered CSC with the ``-delta*s`` entries of ``delta``."""
        if self._built is None:
            self._built = _pinned_saddle_csc(self.a_block, self.g, self.s, self.perm)
        matrix, s_slots, s_values = self._built
        matrix.data[s_slots] = -delta * s_values
        return matrix


def saddle_solve(system, delta, rhs_v, *, mean_weights, tol):
    """Solve the symmetric indefinite block system of the SaddleSystem
    ``system``

        [ diag(A, A)      g     ] [x]   [rhs_v]
        [    g^T      -delta*s  ] [z] = [  0  ]

    on the zero-mean pressure subspace, where A = ``system.a_block`` acts
    on both velocity components.  The pressure is pinned at DOF 0 for
    the factorization and afterwards projected to zero weighted mean
    (``mean_weights``).  With the pin the matrix is symmetric
    quasi-definite, so any symmetric ordering is stable: it is factorized
    in the symmetric SuperLU mode without pivoting, in the system's
    ordering.  The ordered pinned matrix is built from the blocks
    (``_pinned_saddle_csc``) at the system's first solve and rewritten in
    place for later ones; while it is factorized nothing else of its
    size is alive, and residuals are formed from the blocks.

    The contract is the block residual: both residual norms must not
    exceed tol * ||rhs_v||.  Up to two steps of iterative refinement are
    applied if needed; if the contract is still missed, the system is
    refactorized with default partial pivoting and solved again, and if
    that misses too or is singular, LinearSolverError is raised.
    """
    if delta <= 0.0:
        raise ValueError("saddle solve requires delta > 0 for equal-order pairs")
    a_block, g, s, perm = system.a_block, system.g, system.s, system.perm
    nv = 2 * a_block.shape[0]
    npres = s.shape[0]
    rhs_v = np.asarray(rhs_v, dtype=float)
    if rhs_v.shape != (nv,):
        raise ValueError(f"rhs has shape {rhs_v.shape}, expected ({nv},)")
    if np.linalg.norm(rhs_v) == 0.0:
        return np.zeros(nv), np.zeros(npres), SolveReport(0, 0.0, True)

    k_pinned = system.matrix(delta)
    scale = np.linalg.norm(rhs_v)

    def residual(sol):
        """rhs - k @ sol, block by block, and its relative block norm."""
        x, z = sol[:nv], sol[nv:]
        ax = np.concatenate([a_block @ xc for xc in x.reshape(2, -1)])
        r1 = rhs_v - (ax + g @ z)
        r2 = delta * (s @ z) - g.T @ x
        return np.concatenate([r1, r2]), max(np.linalg.norm(r1), np.linalg.norm(r2)) / scale

    def refined_solve(solve):
        sol = np.zeros(nv + npres)
        sol[perm] = solve(np.concatenate([rhs_v, np.zeros(npres)])[perm])
        r, rel = residual(sol)
        refinements = 0
        while rel > tol and refinements < 2:
            sol[perm] += solve(r[perm])
            r, rel = residual(sol)
            refinements += 1
        return sol, rel, refinements

    try:
        sol, rel, refinements = refined_solve(_symmetric_splu(k_pinned, "NATURAL"))
    except RuntimeError:  # a zero pivot in symmetric mode
        rel = np.inf
    if rel > tol:
        sol, rel, refinements = refined_solve(_pivoting_splu(k_pinned))

    x = sol[:nv]
    z = project_mean(sol[nv:], mean_weights)
    report = SolveReport(refinements, float(rel), rel <= tol)
    if not report.converged:
        raise LinearSolverError(
            f"saddle solve residual {rel:.3e} exceeds tol={tol}", report
        )
    return x, z, report
