import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from stokesproj import femspace, metrics
from stokesproj.assembly import Discretization


def test_identical_vectors_have_zero_norm(grid4):
    disc = Discretization(grid4, 1)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(disc.space.num_dofs)
    assert metrics.fe_norm_diff(a, a, disc.mass) == 0.0


def test_constant_difference_l2(grid4):
    disc = Discretization(grid4, 1)
    a = np.full(disc.space.num_dofs, 2.5)
    b = np.full(disc.space.num_dofs, -0.75)
    # total mass is |domain| = 1, so the L2 norm of a constant equals |c|
    m = disc.mass
    assert metrics.fe_norm_diff(a, b, m) == pytest.approx(3.25, abs=1e-13)


def exact_error(disc, coeffs, f):
    """``metrics.error_vs_exact`` against the analytic field ``f``."""
    return metrics.error_vs_exact(disc, coeffs, disc.at_quadrature_points(f))


def test_fe_norm_matches_quadrature(grid4, case):
    disc = Discretization(grid4, 1)
    space = disc.space
    coeffs = femspace.interpolate(space, case.steady_pressure)
    direct = exact_error(disc, coeffs, lambda x, y: np.zeros_like(x))
    m = disc.mass
    via_matrix = metrics.fe_norm_diff(coeffs, np.zeros_like(coeffs), m)
    assert direct == pytest.approx(via_matrix, abs=1e-12)


def test_h1_seminorm_matches_quadrature(grid4):
    disc = Discretization(grid4, 1)
    coeffs = femspace.interpolate(disc.space, lambda x, y: 2 * x - y)
    a = disc.stiffness
    via_matrix = metrics.fe_norm_diff(coeffs, np.zeros_like(coeffs), a)
    assert via_matrix == pytest.approx(np.sqrt(5.0), rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_properties(seed):
    space = femspace.build_space(metrics_grid, 1)
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, space.num_dofs))
    m = metrics_mass
    ab = metrics.fe_norm_diff(a, b, matrix=m)
    assert ab >= 0.0
    assert metrics.fe_norm_diff(2 * a, 2 * b, matrix=m) == pytest.approx(
        2 * ab, rel=1e-12
    )
    ac = metrics.fe_norm_diff(a, c, matrix=m)
    cb = metrics.fe_norm_diff(c, b, matrix=m)
    assert ab <= ac + cb + 1e-12


def test_error_vs_exact_zero_for_interpolated_member(grid4):
    disc = Discretization(grid4, 2)
    f = lambda x, y: 1.0 + x - 2 * y + 0.5 * x * y
    coeffs = femspace.interpolate(disc.space, f)
    assert exact_error(disc, coeffs, f) <= 1e-12


def test_error_vs_exact_zero_coeffs_gives_norm(grid4, case):
    disc = Discretization(grid4, 1)
    zero = np.zeros(disc.space.num_dofs)
    got = exact_error(disc, zero, case.steady_pressure)
    # |z|_L2 with fine tensor Gauss quadrature
    pts, wts = np.polynomial.legendre.leggauss(24)
    x = 0.5 * (pts + 1.0)
    w = 0.5 * wts
    xg, yg = np.meshgrid(x, x)
    ref = np.sqrt(np.einsum("i,j,ij->", w, w, case.steady_pressure(xg, yg) ** 2))
    assert got == pytest.approx(ref, rel=1e-10)


def test_error_triangle_inequality_sanity(grid4, case):
    disc = Discretization(grid4, 1)
    space = disc.space
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(2 * space.num_dofs)
    interp = femspace.interpolate(space, case.steady_velocity)
    vs_exact = exact_error(disc, coeffs, case.steady_velocity)
    mass = dense_oracle.vector_matrix(disc.mass)
    vs_interp = metrics.fe_norm_diff(coeffs, interp, mass)
    interp_err = exact_error(disc, interp, case.steady_velocity)
    assert vs_exact <= vs_interp + interp_err + 1e-12
    assert vs_interp <= vs_exact + interp_err + 1e-12


def test_discrete_time_norm_values():
    assert metrics.discrete_time_norm([3.0], 0.25) == pytest.approx(np.sqrt(0.25) * 3.0)
    assert metrics.discrete_time_norm([0.0, 0.0], 0.1) == 0.0
    # constant value c over N steps gives c sqrt(N dt) = c sqrt(T)
    assert metrics.discrete_time_norm([2.0] * 16, 0.5) == pytest.approx(
        2.0 * np.sqrt(8.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        metrics.discrete_time_norm([], 0.1)


def test_observed_rate_pure_powers():
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert metrics.observed_rate([7 * h**2 for h in hs], hs) == pytest.approx(2.0)
    assert metrics.observed_rate([0.3 * h for h in hs], hs) == pytest.approx(1.0)
    assert metrics.observed_rate([0.9, 0.9, 0.9, 0.9], hs) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError):
        metrics.observed_rate([1.0, -1.0], [0.1, 0.05])
    with pytest.raises(ValueError):
        metrics.observed_rate([1.0], [0.1])


def test_interpolation_rate_of_manufactured_velocity(case):
    # pure interpolation sanity check, independent of any solver
    from stokesproj import mesh

    errs, hs = [], []
    for n in (20, 40, 80, 160):
        disc = Discretization(mesh.build_grid(n), 1)
        coeffs = femspace.interpolate(disc.space, case.steady_velocity)
        errs.append(exact_error(disc, coeffs, case.steady_velocity))
        hs.append(1.0 / n)
    rate = metrics.observed_rate(errs, hs)
    assert 1.9 <= rate <= 2.1


def test_tracker_matches_direct_quadrature(grid4, case):
    from stokesproj import schemes

    disc = Discretization(grid4, 1)
    space = disc.space
    tracker = metrics.TransientErrorTracker(disc, case)
    rng = np.random.default_rng(2)
    v = np.zeros(2 * space.num_dofs)
    free = dense_oracle.velocity_free_indices(space)
    v[free] = 0.05 * rng.standard_normal(free.size)
    q = rng.standard_normal(space.num_dofs)
    t = 0.8
    state = schemes.TimeState(step=4, t=t, velocity=space.restrict(v), pressure=q)
    rec = tracker(state)
    # the pressure-only observer of convergence studies gives the same float
    assert tracker.pres_l2_exact(state) == rec.pres_l2_exact

    vel_exact = exact_error(disc, v, lambda x, y: case.velocity(x, y, t))
    assert rec.vel_l2_exact == pytest.approx(vel_exact, rel=1e-9)
    pres_exact = exact_error(disc, q, lambda x, y: case.pressure(x, y, t))
    assert rec.pres_l2_exact == pytest.approx(pres_exact, rel=1e-9)
    mass = disc.mass
    interp_p = femspace.interpolate(space, lambda x, y: case.pressure(x, y, t))
    assert rec.pres_l2_interp == pytest.approx(
        metrics.fe_norm_diff(q, interp_p, mass), rel=1e-9
    )
    interp_v = femspace.interpolate(space, lambda x, y: case.velocity(x, y, t))
    assert rec.vel_l2_interp == pytest.approx(
        metrics.fe_norm_diff(v, interp_v, dense_oracle.vector_matrix(mass)), rel=1e-9
    )


# module-level cached pieces for the hypothesis property (built once)
from stokesproj import mesh as _mesh_mod

metrics_grid = _mesh_mod.build_grid(3)
metrics_mass = Discretization(metrics_grid, 1).mass
