"""Error norms and convergence diagnostics.

Two complementary evaluation routes exist.  ``fe_norm_diff`` measures
coefficient differences through a given assembled (pre-elimination) mass
or stiffness matrix, which is the natural norm for discrete-vs-interpolant
errors.  ``error_vs_exact`` integrates |u_h - u|^2 elementwise with the
degree-6 rule of a ``Discretization`` against the values of an analytic
field at its points, which a caller evaluates once per mesh and field
(``Discretization.at_quadrature_points``, the values that the loads are
assembled from).

``TransientErrorTracker`` is a per-step observer for ``schemes.run``
that returns the four L2 errors the transient studies report as an
ErrorRecord, which the run keeps in its ``records``; its
``pres_l2_exact`` observes the one error that a convergence study reads
at every step.  Because the manufactured solution separates as
(spatial field) * cos(t), each error reduces to a quadratic form in the
coefficients plus precomputed moments, so one ErrorRecord costs two
sparse products per step.
"""

from dataclasses import dataclass

import numpy as np

from . import femspace
from .assembly import componentwise


@dataclass
class ErrorRecord:
    """Diagnostics of one time step (all entries finite and >= 0)."""

    step: int
    t: float
    vel_l2_interp: float
    vel_l2_exact: float
    pres_l2_interp: float
    pres_l2_exact: float


def fe_norm_diff(a, b, matrix):
    """Norm of the difference of two coefficient vectors on one space:
    sqrt((a-b)^T M (a-b)) with M = ``matrix`` (the mass matrix for L2,
    the stiffness matrix for the H1 seminorm), applied to every
    coefficient block of a and b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size % matrix.shape[1]:
        raise ValueError("coefficient vectors do not match the matrix")
    d = a - b
    return float(np.sqrt(max(d @ componentwise(matrix, d), 0.0)))


def error_vs_exact(disc, coeffs, exact):
    """Quadrature L2 norm of u_h - u on ``disc``: ``exact`` holds the
    values of u at the points of ``disc.quadrature``, one block per
    component (``disc.at_quadrature_points``), and ``coeffs`` one
    coefficient block per component.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    space = disc.space
    w, vals, det = disc.quadrature
    acc = 0.0
    for c, uc in enumerate(exact):
        ce = coeffs[c * space.num_dofs + space.element_dofs]  # (nt, nb)
        diff2 = (np.einsum("qi,ti->tq", vals, ce) - uc) ** 2
        acc += np.einsum("q,tq,t->", w, diff2, det)
    return float(np.sqrt(max(acc, 0.0)))


def discrete_time_norm(values, dt):
    """Discrete time-integrated norm sqrt(sum_j dt * value_j^2) of a
    numeric sequence."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("discrete time norm needs at least one value")
    return float(np.sqrt(dt * np.sum(arr**2)))


def observed_rate(errors, hs):
    """Least-squares slope of log(error) against log(h)."""
    errors = np.asarray(list(errors), dtype=float)
    hs = np.asarray(list(hs), dtype=float)
    if errors.size < 2 or errors.size != hs.size:
        raise ValueError("need at least two matching (error, h) pairs")
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("errors and mesh sizes must be positive")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


class TransientErrorTracker:
    """Per-step ErrorRecord observer for runs on a separable manufactured
    case (spatial fields modulated by cos(t)).

    Every norm is evaluated from precomputed moments: for any coefficient
    vector u,

        |u_h - c w|_M^2 = u^T M u - 2 c u^T (M-load of w) + c^2 |w|_M^2

    with c = cos(t), so one mass product per field suffices per step.
    The moment route is validated against the direct quadrature route in
    the test suite.
    """

    def __init__(self, disc, case):
        space = self.space = disc.space
        self.M = disc.mass

        interp_v = femspace.interpolate(space, case.steady_velocity)
        interp_p = femspace.interpolate(space, case.steady_pressure)
        self.m_interp_v = componentwise(self.M, interp_v)
        self.interp_v_sq = float(interp_v @ self.m_interp_v)
        self.m_interp_p = self.M @ interp_p
        self.interp_p_sq = float(interp_p @ self.m_interp_p)

        # load_v is the load of the forcing term s, which the time run shares
        self.load_v = disc.load(case.steady_velocity)
        self.norm_v_sq = self._norm_sq(disc, case.steady_velocity)
        self.load_p = disc.load(case.steady_pressure)
        self.norm_p_sq = self._norm_sq(disc, case.steady_pressure)

    @staticmethod
    def _norm_sq(disc, field):
        """|field|^2 in the degree-6 quadrature: the error of zero coefficients."""
        exact = disc.at_quadrature_points(field)
        return error_vs_exact(disc, np.zeros(exact.shape[0] * disc.space.num_dofs), exact) ** 2

    @staticmethod
    def _moment_norm(quad, cross, const, c):
        return float(np.sqrt(max(quad - 2.0 * c * cross + c * c * const, 0.0)))

    def _pres_l2_exact(self, q, qmq, c):
        return self._moment_norm(qmq, float(q @ self.load_p), self.norm_p_sq, c)

    def pres_l2_exact(self, state):
        """The ``pres_l2_exact`` entry alone of the ErrorRecord of
        ``state``, bit-identical to it: one mass product."""
        q = state.pressure
        return self._pres_l2_exact(q, float(q @ (self.M @ q)), float(np.cos(state.t)))

    def __call__(self, state):
        """The ErrorRecord of ``state`` (velocity on the free DOFs)."""
        v, q = self.space.extend(state.velocity.reshape(2, -1)), state.pressure
        c = float(np.cos(state.t))
        vmv = float(v @ componentwise(self.M, v))
        qmq = float(q @ (self.M @ q))
        return ErrorRecord(
            step=state.step,
            t=state.t,
            vel_l2_interp=self._moment_norm(vmv, float(v @ self.m_interp_v), self.interp_v_sq, c),
            vel_l2_exact=self._moment_norm(vmv, float(v @ self.load_v), self.norm_v_sq, c),
            pres_l2_interp=self._moment_norm(qmq, float(q @ self.m_interp_p), self.interp_p_sq, c),
            pres_l2_exact=self._pres_l2_exact(q, qmq, c),
        )
