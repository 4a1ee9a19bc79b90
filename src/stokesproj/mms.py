"""Manufactured analytic solutions and consistent forcing terms.

The standard test case pairs a polynomial-trigonometric solenoidal
velocity with a zero-mean trigonometric pressure on the unit square:

    s1(x, y) = x^2 (1-x)^2 sin(2 pi y)
    s2(x, y) = -(2/pi) x (1-x) (1-2x) sin^2(pi y)
    z(x, y)  = sin(x) cos(y) + (cos(1) - 1) sin(1)

s2 is the unique companion of s1 with s2(x, 0) = 0 satisfying
d_y s2 = -d_x s1, so div s = 0 identically and s vanishes on the whole
boundary.

The transient case modulates both fields by cos(t):

    v(x, y, t) = s(x, y) cos(t),   q(x, y, t) = z(x, y) cos(t)

so the momentum forcing g = v_t - nu lap(v) + grad(q) splits into two
separable terms, cos(t) * (-nu lap(s) + grad z) - sin(t) * s, which the
time steppers exploit to precompute load vectors.

All evaluators broadcast over numpy point arrays; vector fields return
arrays with a leading component axis.
"""

from dataclasses import dataclass

import numpy as np

_PI = np.pi
_Z_CONST = (np.cos(1.0) - 1.0) * np.sin(1.0)


def _poly(x):
    # p(x) = x (1-x)(1-2x) = x - 3x^2 + 2x^3 and derivatives
    return x * (1.0 - x) * (1.0 - 2.0 * x)


def _poly_d(x):
    return 1.0 - 6.0 * x + 6.0 * x * x


def _poly_dd(x):
    return 12.0 * x - 6.0


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic Stokes solution with every derivative the schemes need.

    ``nu`` is bound into the forcing terms.
    """

    nu: float

    # spatial velocity s ---------------------------------------------------
    def steady_velocity(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s1 = x * x * (1.0 - x) ** 2 * np.sin(2.0 * _PI * y)
        s2 = -(2.0 / _PI) * _poly(x) * np.sin(_PI * y) ** 2
        return np.stack([s1, s2])

    def steady_velocity_laplacian(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s2py = np.sin(2.0 * _PI * y)
        px2 = x * x * (1.0 - x) ** 2
        lap1 = (2.0 * _poly_d(x) - 4.0 * _PI * _PI * px2) * s2py
        spy2 = np.sin(_PI * y) ** 2
        c2py = np.cos(2.0 * _PI * y)
        lap2 = -(2.0 / _PI) * _poly_dd(x) * spy2 - 4.0 * _PI * _poly(x) * c2py
        return np.stack([lap1, lap2])

    # spatial pressure z ---------------------------------------------------
    def steady_pressure(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.sin(x) * np.cos(y) + _Z_CONST

    def steady_pressure_gradient(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)])

    def steady_forcing(self, x, y):
        """Data of the steady problem: -nu lap(s) + grad(z)."""
        return (
            -self.nu * self.steady_velocity_laplacian(x, y)
            + self.steady_pressure_gradient(x, y)
        )

    # transient fields v = s cos(t), q = z cos(t) --------------------------
    def velocity(self, x, y, t):
        return np.cos(t) * self.steady_velocity(x, y)

    def pressure(self, x, y, t):
        return np.cos(t) * self.steady_pressure(x, y)

    def forcing_terms(self):
        """The momentum forcing g = v_t - nu lap(v) + grad(q) as separable
        (time coefficient, spatial field) pairs."""
        return [
            (np.cos, self.steady_forcing),
            (lambda t: -np.sin(t), self.steady_velocity),
        ]


def berrone_case(nu):
    """The manufactured case used by all experiments."""
    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    return ManufacturedCase(nu=float(nu))
