"""Stabilized steady Stokes solver.

Find (s_h, z_h) in V_h x Q_h with

    nu (grad s_h, grad chi) + (grad z_h, chi) = (ghat, chi)   for all chi,
    (div s_h, psi) = -delta (grad z_h, grad psi)              for all psi,

which is well posed for equal-order pairs whenever delta > 0.  The
discrete system is the symmetric indefinite block form solved by
``sparsela.saddle_solve``; the returned pressure has zero discrete mean.

Besides being an experiment target in its own right, this solve is the
recommended initializer of the transient schemes (with data g - v_t).
"""

from dataclasses import dataclass

import numpy as np

from . import assembly, sparsela


def choose_delta(h, nu, rho):
    """Stabilization parameter from the dimensionless ratio rho = h/sqrt(nu delta):
    delta = h^2 / (nu rho^2)."""
    if h <= 0.0 or nu <= 0.0 or rho <= 0.0:
        raise ValueError("h, nu and rho must all be positive")
    return h * h / (nu * rho * rho)


@dataclass
class StokesSolution:
    """Velocity/pressure coefficients of one stabilized steady solve.

    ``velocity`` holds both full blocks on the space (zeros at Dirichlet
    DOFs); ``pressure`` has zero discrete mean.
    """

    velocity: np.ndarray
    pressure: np.ndarray


class SteadyOperators:
    """The steady system's operators on one Discretization; lets parameter
    sweeps share the assembly across delta values."""

    def __init__(self, disc):
        self.space = disc.space
        self.a_free = disc.stiffness_free_vector
        self.g_mat = disc.G
        self.s_mat = disc.stiffness
        self.mean_weights = disc.mean_weights
        self.order = disc.saddle_order

    def load(self, ghat):
        return self.space.restrict(assembly.assemble_load(self.space, ghat))

    def solve(self, nu, delta, rhs_v, tol):
        if nu <= 0.0:
            raise ValueError("viscosity must be positive")
        if delta <= 0.0:
            raise ValueError("stabilization parameter delta must be positive")
        s_free, z, _ = sparsela.saddle_solve(
            (nu * self.a_free).tocsr(),
            self.g_mat,
            self.s_mat,
            delta,
            rhs_v,
            order=self.order,
            mean_weights=self.mean_weights,
            tol=tol,
        )
        return StokesSolution(velocity=self.space.extend(s_free), pressure=z)

