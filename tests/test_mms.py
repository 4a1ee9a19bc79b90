import numpy as np
import pytest

import checks
import dense_oracle
from stokesproj import mms


def fd_gradient(f, x, y, h=1e-6):
    return (
        (np.asarray(f(x + h, y)) - np.asarray(f(x - h, y))) / (2 * h),
        (np.asarray(f(x, y + h)) - np.asarray(f(x, y - h))) / (2 * h),
    )


def test_rejects_nonpositive_viscosity():
    with pytest.raises(ValueError):
        mms.berrone_case(0.0)


def test_velocity_value():
    case = mms.berrone_case(0.01)
    s = case.steady_velocity(np.array(0.5), np.array(0.25))
    assert s[0] == pytest.approx(0.0625, abs=1e-15)


def test_divergence_free_everywhere(case):
    rng = np.random.default_rng(0)
    x, y = rng.random(10_000), rng.random(10_000)
    assert np.abs(checks.steady_divergence(x, y)).max() <= 1e-12


def test_velocity_vanishes_on_boundary(case):
    rng = np.random.default_rng(1)
    line = rng.random(100)
    zero, one = np.zeros(100), np.ones(100)
    for t in (0.0, 0.7, 4.0):
        for x, y in ((zero, line), (one, line), (line, zero), (line, one)):
            assert np.abs(case.velocity(x, y, t)).max() <= 1e-13


def test_pressure_zero_mean(case):
    # degree-20 tensor Gauss rule over the square
    pts, wts = np.polynomial.legendre.leggauss(20)
    x = 0.5 * (pts + 1.0)
    w = 0.5 * wts
    xg, yg = np.meshgrid(x, x)
    vals = case.steady_pressure(xg, yg)
    mean = np.einsum("i,j,ij->", w, w, vals)
    assert abs(mean) <= 1e-10
    assert abs(np.cos(3.0)) * abs(mean) <= 1e-10  # cos scaling preserves it


def test_pressure_gradient_vs_finite_differences(case):
    rng = np.random.default_rng(2)
    x, y = 0.1 + 0.8 * rng.random(50), 0.1 + 0.8 * rng.random(50)
    gx, gy = fd_gradient(case.steady_pressure, x, y)
    grad = case.steady_pressure_gradient(x, y)
    assert np.abs(grad[0] - gx).max() <= 1e-8
    assert np.abs(grad[1] - gy).max() <= 1e-8


def test_velocity_derivatives_vs_finite_differences(case):
    rng = np.random.default_rng(3)
    x, y = 0.1 + 0.8 * rng.random(40), 0.1 + 0.8 * rng.random(40)
    h = 1e-5
    grad = checks.steady_velocity_gradient(x, y)
    for c in range(2):
        comp = lambda xx, yy, c=c: case.steady_velocity(xx, yy)[c]
        gx, gy = fd_gradient(comp, x, y)
        assert np.abs(grad[c, 0] - gx).max() <= 1e-6 * max(1.0, np.abs(gx).max())
        assert np.abs(grad[c, 1] - gy).max() <= 1e-6 * max(1.0, np.abs(gy).max())
        lap_fd = (
            comp(x + h, y) + comp(x - h, y) + comp(x, y + h) + comp(x, y - h)
            - 4 * comp(x, y)
        ) / (h * h)
        lap = case.steady_velocity_laplacian(x, y)[c]
        assert np.abs(lap - lap_fd).max() <= 1e-4 * max(1.0, np.abs(lap).max())


def test_velocity_t(case):
    x, y = np.array([0.3]), np.array([0.6])
    assert np.abs(checks.velocity_t(case, x, y, 0.0)).max() <= 1e-15
    vt = checks.velocity_t(case, x, y, np.pi / 2)
    assert np.allclose(vt, -case.steady_velocity(x, y), atol=1e-15)
    # temporal finite difference
    t, ht = 1.3, 1e-6
    fd = (case.velocity(x, y, t + ht) - case.velocity(x, y, t - ht)) / (2 * ht)
    assert np.abs(checks.velocity_t(case, x, y, t) - fd).max() <= 1e-8


def test_forcing_reduces_to_velocity_when_cos_vanishes(case):
    # at t = 3 pi / 2: cos(t) = 0, sin(t) = -1, so g = v_t = s
    x, y = np.array([0.4]), np.array([0.7])
    g = dense_oracle.forcing(case, x, y, 1.5 * np.pi)
    assert np.allclose(g, case.steady_velocity(x, y), atol=1e-12)


def test_forcing_vs_finite_difference_oracle(case):
    rng = np.random.default_rng(4)
    x = 0.1 + 0.8 * rng.random(100)
    y = 0.1 + 0.8 * rng.random(100)
    t = 10.0 * rng.random(100)
    hs, ht = 1e-5, 1e-6
    v = case.velocity
    vt = (v(x, y, t + ht) - v(x, y, t - ht)) / (2 * ht)
    lap = (
        v(x + hs, y, t) + v(x - hs, y, t) + v(x, y + hs, t) + v(x, y - hs, t)
        - 4 * v(x, y, t)
    ) / (hs * hs)
    qx = (case.pressure(x + hs, y, t) - case.pressure(x - hs, y, t)) / (2 * hs)
    qy = (case.pressure(x, y + hs, t) - case.pressure(x, y - hs, t)) / (2 * hs)
    g_fd = vt - case.nu * lap + np.stack([qx, qy])
    g = dense_oracle.forcing(case, x, y, t)
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() <= 1e-6 * scale


def test_steady_data_matches_forcing_minus_vt(case):
    # the data g(0) - v_t(0) of the stabilized-Stokes initial state is
    # exactly the steady forcing, whose load that initialization assembles
    rng = np.random.default_rng(5)
    x, y = rng.random(30), rng.random(30)
    expected = dense_oracle.forcing(case, x, y, 0.0) - checks.velocity_t(case, x, y, 0.0)
    assert np.array_equal(case.steady_forcing(x, y), expected)


def test_forcing_terms_reconstruct_forcing(case):
    rng = np.random.default_rng(6)
    x, y = rng.random(20), rng.random(20)
    terms = case.forcing_terms()
    for t in (0.0, 1.1, 3.7):
        total = sum(tf(t) * np.asarray(sf(x, y)) for tf, sf in terms)
        assert np.abs(total - dense_oracle.forcing(case, x, y, t)).max() <= 1e-14
