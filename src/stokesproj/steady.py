"""Stabilized steady Stokes solver.

Find (s_h, z_h) in V_h x Q_h with

    nu (grad s_h, grad chi) + (grad z_h, chi) = (ghat, chi)   for all chi,
    (div s_h, psi) = -delta (grad z_h, grad psi)              for all psi,

which is well posed for equal-order pairs whenever delta > 0.  The
discrete system is the symmetric indefinite block form solved by
``sparsela.saddle_solve``; the returned pressure has zero discrete mean.
``solve`` takes every delta of a mesh at once: the velocity stiffness
A, the free rows and columns of the scalar stiffness S, acts with nu on
both components, so no vector, free or scaled copy of A is built, and
the orbit tables and each pinned symmetry block are built once for all
delta inside that one call, the only place the saddle data lives;
``solve`` assembles no operator.

Besides being an experiment target in its own right, this solve is the
recommended initializer of the transient schemes (with data g - v_t).
"""

from . import sparsela


def choose_delta(h, nu, rho):
    """Stabilization parameter from the dimensionless ratio rho = h/sqrt(nu delta):
    delta = h^2 / (nu rho^2)."""
    if h <= 0.0 or nu <= 0.0 or rho <= 0.0:
        raise ValueError("h, nu and rho must all be positive")
    delta = h * h / (nu * rho * rho) if nu * rho * rho > 0.0 else float("inf")
    if not 0.0 < delta < float("inf"):
        raise ValueError(f"delta = h^2/(nu rho^2) = {delta!r} is not positive and finite")
    return delta


def solve(disc, nu, deltas, rhs_v, tol):
    """The stabilized steady solves of the viscosity ``nu`` for each of
    ``deltas`` on the space and operators of ``disc``, for the
    load ``rhs_v`` on the free velocity DOFs (``disc.free_load``).

    Returns, per delta, either (velocity, pressure), both full velocity
    blocks on the space (zeros at Dirichlet DOFs) and a pressure with
    zero discrete mean, or the ``sparsela.LinearSolverError`` that ended
    that delta, as ``saddle_solve`` reports it.
    """
    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    x, z, report = sparsela.saddle_solve(disc.space, disc.stiffness, disc.G, deltas, rhs_v,
                                         nu=nu, mean_weights=disc.mean_weights, tol=tol)
    return [failure or (disc.space.extend(velocity.reshape(2, -1)), pressure)
            for velocity, pressure, failure in zip(x, z, report.failures)]
