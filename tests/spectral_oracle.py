"""Route C: an independent solve of the stabilized steady P1 system on the
structured unit-square grid, sharing none of the direct path (no orbit
tables, symmetry blocks or SuperLU).

On the grid of ``mesh.build_grid`` the P1 stiffness on the free DOFs is
the five-point Laplacian I (x) L_D + L_D (x) I, with L_D = tridiag(-1, 2,
-1) of order n - 1, so the DST-I diagonalizes nu A.  Eliminating the
velocity leaves the pressure Schur complement

    (G^T (nu A)^-1 G + delta S) z = G^T (nu A)^-1 rhs_v,

singular only on the constants, which lie outside the range of G^T.  It
is solved by preconditioned CG with P = delta S + (W (x) W) / nu, W the
1D trapezoid weights: S = W (x) L_N + L_N (x) W with the 1D Neumann
stiffness L_N, so the DCT-I diagonalizes P.  G^T (nu A)^-1 G is
spectrally close to the pressure mass over nu, whence the second term.
The velocity is then (nu A)^-1 (rhs_v - G z).
"""

import numpy as np
import scipy.fft


def _dirichlet_solve(b, n):
    """(I (x) L_D + L_D (x) I)^-1 b for one or more components of interior
    values ``b`` (..., (n - 1)^2) on the y-major numbering."""
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)
    grid = b.reshape(b.shape[:-1] + (n - 1, n - 1))
    modes = scipy.fft.dstn(grid, type=1, norm="ortho", axes=(-2, -1))
    modes /= lam[:, None] + lam[None, :]
    return scipy.fft.dstn(modes, type=1, norm="ortho", axes=(-2, -1)).reshape(b.shape)


def _preconditioner(n, nu, delta):
    """The solve of P = delta S + (W (x) W) / nu on the (n + 1)^2 vertices:
    W^-1 L_N has the eigenvalues mu_k = (2 - 2 cos(k pi / n)) n^2 in the
    DCT-I basis, and the unnormalized DCT-I applied twice is 2n times the
    identity."""
    mu = (2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)) * n * n
    scale = 1.0 / ((delta * (mu[:, None] + mu[None, :]) + 1.0 / nu) * (2 * n) ** 2)
    w_inv = np.full(n + 1, float(n))
    w_inv[[0, -1]] = 2.0 * n
    w_inv = np.outer(w_inv, w_inv)

    def solve(r):
        modes = scipy.fft.dctn(r.reshape(w_inv.shape) * w_inv, type=1) * scale
        return scipy.fft.dctn(modes, type=1).ravel()

    return solve


def steady_solve(disc, nu, delta, rhs_v, rtol, maxiter=1000):
    """The stabilized steady P1 solve of ``disc`` (a structured grid) for
    the load ``rhs_v`` on the free velocity DOFs, with PCG on the Schur
    complement run until its preconditioned residual norm is at most
    ``rtol`` times its initial one; more than ``maxiter`` iterations are
    a RuntimeError.  Returns (free velocity, pressure of zero weighted
    mean, PCG iterations)."""
    n = disc.mesh.n
    g, s = disc.G, disc.stiffness

    def a_inv(v):  # (nu A)^-1 on both components
        return _dirichlet_solve(v.reshape(2, -1), n).ravel() / nu

    def schur(z):
        return g.T @ a_inv(g @ z) + delta * (s @ z)

    precondition = _preconditioner(n, nu, delta)
    z = np.zeros(s.shape[0])
    r = g.T @ a_inv(rhs_v)
    y = precondition(r)
    p, ry = y.copy(), r @ y
    stop = rtol * np.sqrt(ry)
    iterations = 0
    while np.sqrt(ry) > stop:
        if iterations == maxiter:
            raise RuntimeError(f"Schur PCG did not reach rtol={rtol} in {maxiter} iterations")
        q = schur(p)
        alpha = ry / (p @ q)
        z += alpha * p
        r -= alpha * q
        y = precondition(r)
        ry, ry_old = r @ y, ry
        p = y + (ry / ry_old) * p
        iterations += 1
    w = disc.mean_weights
    z -= (w @ z) / w.sum()
    return a_inv(rhs_v - g @ z), z, iterations
