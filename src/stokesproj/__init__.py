"""Finite element solvers for the transient Stokes equations with
pressure-stabilized projection (fractional-step) time integrators on
equal-order triangular elements.

Subpackages/modules:

- ``mesh``: structured triangulations of the unit square
- ``femspace``: P1/P2 Lagrange elements, quadrature, DOF spaces
- ``assembly``: sparse matrices and load vectors for all bilinear forms
- ``sparsela``: sparse linear algebra (saddle-point direct solve,
  cached factorizations, the factor-free DCT-I P1 pressure solve)
- ``steady``: the stabilized steady Stokes solver
- ``mms``: manufactured solutions and consistent forcing terms
- ``schemes``: non-incremental and incremental projection time steppers
- ``metrics``: error norms and convergence-rate diagnostics
- ``cli``: experiment driver emitting CSV
"""

# ``cli`` is left to be imported on use, so that ``python -m stokesproj.cli``
# runs it once, as ``__main__``.
from . import assembly, femspace, mesh, metrics, mms, schemes, sparsela, steady

__all__ = [
    "assembly",
    "cli",
    "femspace",
    "mesh",
    "metrics",
    "mms",
    "schemes",
    "sparsela",
    "steady",
]

__version__ = "0.1.0"
