"""Quantities that only the tests evaluate: the velocity gradient,
divergence and time derivative of the manufactured case of
``stokesproj.mms``, the velocity energy of a state, and the residuals
of the two non-incremental relations for a completed time step."""

import numpy as np

from stokesproj.assembly import componentwise


def _poly(x):
    # p(x) = x (1-x)(1-2x), so s2 = -(2/pi) p(x) sin^2(pi y)
    return x * (1.0 - x) * (1.0 - 2.0 * x)


def steady_velocity_gradient(x, y):
    """d s_c / d x_a of the manufactured velocity s, shape (2, 2, ...)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s2py, c2py = np.sin(2.0 * np.pi * y), np.cos(2.0 * np.pi * y)
    s1x = 2.0 * _poly(x) * s2py
    s1y = 2.0 * np.pi * x * x * (1.0 - x) ** 2 * c2py
    spy2 = np.sin(np.pi * y) ** 2
    s2x = -(2.0 / np.pi) * (1.0 - 6.0 * x + 6.0 * x * x) * spy2
    s2y = -2.0 * _poly(x) * s2py
    return np.stack([np.stack([s1x, s1y]), np.stack([s2x, s2y])])


def steady_divergence(x, y):
    """div s of the manufactured velocity, zero up to round-off."""
    g = steady_velocity_gradient(x, y)
    return g[0, 0] + g[1, 1]


def velocity_t(case, x, y, t):
    """d/dt of the transient velocity v = s cos(t) of ``case``."""
    return -np.sin(t) * case.steady_velocity(x, y)


def velocity_energy(disc, v):
    """|v|_M^2 of the free velocity ``v`` on ``disc``, as the time loop's
    divergence test forms it."""
    return float(np.sum(v * componentwise(disc.mass_free, v)))


def noninc_residuals(params, disc, v_old, v_new, q_momentum, q_new, load_block):
    """Residual norms of the two non-incremental relations for a completed
    step on ``disc``, relative to their right-hand-side scales."""
    mom_rhs = componentwise(disc.mass_free, v_old) / params.dt + load_block
    lhs = (
        componentwise(disc.mass_free, v_new) / params.dt
        + params.nu * componentwise(disc.stiffness_free, v_new)
        + disc.G @ q_momentum
    )
    mom_scale = max(np.linalg.norm(mom_rhs), 1e-300)
    mom_res = np.linalg.norm(lhs - mom_rhs) / mom_scale
    div_rhs = disc.GT @ v_new
    div_scale = max(np.linalg.norm(div_rhs), 1e-300)
    div_res = np.linalg.norm(params.delta * (disc.stiffness @ q_new) - div_rhs) / div_scale
    return mom_res, div_res
