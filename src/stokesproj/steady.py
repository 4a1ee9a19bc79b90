"""Stabilized steady Stokes solver.

Find (s_h, z_h) in V_h x Q_h with

    nu (grad s_h, grad chi) + (grad z_h, chi) = (ghat, chi)   for all chi,
    (div s_h, psi) = -delta (grad z_h, grad psi)              for all psi,

which is well posed for equal-order pairs whenever delta > 0.  The
discrete system is the symmetric indefinite block form solved by
``sparsela.saddle_solve``; the returned pressure has zero discrete mean.
``system`` makes the saddle system of nu: its scalar velocity block nu A
on the free DOFs acts on both components, so no vector copy of A is
built, and the rows of its orbit representatives are gathered once for
all delta; each solve builds the four pinned symmetry blocks from them,
one at a time.  The caller holds it for as long as it solves, and
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


def system(disc, nu):
    """The steady saddle system (``sparsela.SaddleSystem``) of the
    viscosity ``nu`` on the operators and orbit tables of ``disc``."""
    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    return sparsela.SaddleSystem(nu * disc.stiffness_free, disc.G, disc.stiffness,
                                 disc.saddle_orbits)


def solve(disc, system, delta, rhs_v, tol):
    """The stabilized steady solve of the saddle system ``system`` (from
    ``system(disc, nu)``) for the load ``rhs_v`` on the free velocity
    DOFs (``disc.free_load``).

    Returns (velocity, pressure): both full velocity blocks on the space
    (zeros at Dirichlet DOFs) and a pressure with zero discrete mean.
    Parameter sweeps share the assembly and the gathered saddle rows by
    passing one ``disc`` and one ``system``.
    """
    s_free, z, _ = sparsela.saddle_solve(system, delta, rhs_v,
                                         mean_weights=disc.mean_weights, tol=tol)
    return disc.space.extend(s_free.reshape(2, -1)), z
