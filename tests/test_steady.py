import numpy as np
import pytest

import dense_oracle
import spectral_oracle
from stokesproj import femspace, mesh, metrics, steady
from stokesproj.assembly import Discretization


def steady_solve(grid, degree, nu, delta, ghat):
    """The stabilized steady solve for analytic data ``ghat`` on a fresh
    Discretization; returns the Discretization, velocity and pressure."""
    disc = Discretization(grid, degree)
    ((velocity, pressure),) = steady.solve(disc, nu, [delta], disc.free_load(ghat), tol=1e-10)
    return disc, velocity, pressure


def test_choose_delta_values():
    assert steady.choose_delta(0.1, 0.01, 10.0) == pytest.approx(0.01, rel=1e-14)
    # rho = 100 at nu = 0.01 gives delta = 0.01 h^2
    h = 1.0 / 40
    assert steady.choose_delta(h, 0.01, 100.0) == pytest.approx(0.01 * h * h, rel=1e-14)
    assert steady.choose_delta(1.0, 1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        steady.choose_delta(0.1, 0.01, 0.0)


def test_zero_data_gives_zero_solution(grid4):
    _, velocity, pressure = steady_solve(grid4, 1, 0.01, 1e-3, lambda x, y: np.zeros((2,) + x.shape))
    assert np.array_equal(velocity, np.zeros_like(velocity))
    assert np.array_equal(pressure, np.zeros_like(pressure))


def test_p1_one_cell_grid_gives_the_zero_solution(case):
    # P1 on the one-cell grid has no free velocity DOF, so the discrete
    # solution is a zero velocity and a constant, hence zero-mean, pressure
    _, velocity, pressure = steady_solve(mesh.build_grid(1), 1, 0.01, 1e-3,
                                         case.steady_forcing)
    assert np.array_equal(velocity, np.zeros(2 * 4))
    assert np.array_equal(pressure, np.zeros(4))


def test_rejects_bad_parameters(grid4, case):
    with pytest.raises(ValueError):
        steady_solve(grid4, 1, -1.0, 1e-3, case.steady_forcing)
    with pytest.raises(ValueError):
        steady_solve(grid4, 1, 0.01, 0.0, case.steady_forcing)


def test_velocity_vanishes_on_dirichlet(grid4, case):
    disc, velocity, pressure = steady_solve(grid4, 1, 0.01, 1e-3, case.steady_forcing)
    assert np.all(velocity[dense_oracle.dirichlet_dofs(disc.space)] == 0.0)


def test_block_residuals(grid4, case):
    nu, delta = 0.01, 1e-3
    disc, velocity, pressure = steady_solve(grid4, 1, nu, delta, case.steady_forcing)
    space = disc.space
    a = dense_oracle.restrict_matrix(space, disc.stiffness)
    g, s = disc.G, disc.stiffness
    rhs = disc.free_load(case.steady_forcing)
    vf = space.restrict(velocity)
    scale = np.linalg.norm(rhs)
    r1 = nu * (a @ vf) + g @ pressure - rhs
    r2 = g.T @ vf - delta * (s @ pressure)
    assert np.linalg.norm(r1) <= 1e-9 * scale
    assert np.linalg.norm(r2) <= 1e-9 * scale


def test_solution_matches_independent_dense_solve(case):
    # end-to-end cross-check: oracle matrices + plain dense linear algebra
    grid = mesh.build_grid(4)
    nu, delta = 0.01, 2e-3
    disc, velocity, pressure = steady_solve(grid, 1, nu, delta, case.steady_forcing)
    space = disc.space

    dense = dense_oracle.dense_matrices(space)
    free = dense_oracle.velocity_free_indices(space)
    a = dense["A"][np.ix_(free, free)]
    g = dense["G"][free]
    s = dense["S"]
    rule = femspace.quadrature(6)
    rhs = dense_oracle.dense_load(
        space, lambda x, y: case.steady_forcing(np.asarray(x), np.asarray(y)), rule
    )[free]
    nv, npres = a.shape[0], s.shape[0]
    k = np.zeros((nv + npres, nv + npres))
    k[:nv, :nv] = nu * a
    k[:nv, nv:] = g
    k[nv:, :nv] = g.T
    k[nv:, nv:] = -delta * s
    keep = np.concatenate([np.arange(nv), nv + np.arange(1, npres)])
    x = np.zeros(nv + npres)
    x[keep] = np.linalg.solve(k[np.ix_(keep, keep)], np.concatenate([rhs, np.zeros(npres)])[keep])
    w = disc.mean_weights
    z = x[nv:] - (w @ x[nv:]) / w.sum()

    assert np.abs(space.restrict(velocity) - x[:nv]).max() <= 1e-10
    assert np.abs(pressure - z).max() <= 1e-10


def test_p1_n80_solve_matches_spectral_schur_pcg(case):
    # route C (``spectral_oracle``) shares none of the direct path: no
    # orbit tables, symmetry blocks or SuperLU.  At rho = 10 its Schur PCG
    # takes 72 iterations to rtol 1e-14 and agrees with the direct solve
    # to 7.3e-14 (velocity) and 4.6e-14 (pressure)
    n, nu = 80, case.nu
    disc = Discretization(mesh.build_grid(n), 1)
    delta = steady.choose_delta(1.0 / n, nu, 10.0)
    rhs = disc.free_load(case.steady_forcing)
    ((velocity, pressure),) = steady.solve(disc, nu, [delta], rhs, tol=1e-10)
    x, z, iterations = spectral_oracle.steady_solve(disc, nu, delta, rhs, rtol=1e-14,
                                                    maxiter=100)
    v = disc.space.restrict(velocity)
    assert np.linalg.norm(x - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(z - pressure) <= 1e-12 * np.linalg.norm(pressure)


@pytest.mark.slow
def test_velocity_rate_near_two(case):
    # the coarse half of the main convergence experiment
    errs, hs = [], []
    for n in (20, 40, 80):
        grid = mesh.build_grid(n)
        h = mesh.mesh_size(grid)
        delta = steady.choose_delta(h, case.nu, 100.0)
        disc, velocity, pressure = steady_solve(grid, 1, case.nu, delta, case.steady_forcing)
        interp = femspace.interpolate(disc.space, case.steady_velocity)
        mass = dense_oracle.vector_matrix(disc.mass)
        errs.append(metrics.fe_norm_diff(velocity, interp, mass))
        hs.append(h)
    rate = metrics.observed_rate(errs, hs)
    assert 1.8 <= rate <= 2.4


@pytest.mark.slow
def test_rho_1000_pressure_stagnates(case):
    errs = []
    for n in (20, 40):
        grid = mesh.build_grid(n)
        h = mesh.mesh_size(grid)
        delta = steady.choose_delta(h, case.nu, 1000.0)
        disc, velocity, pressure = steady_solve(grid, 1, case.nu, delta, case.steady_forcing)
        interp = femspace.interpolate(disc.space, case.steady_pressure)
        mass = disc.mass
        errs.append(metrics.fe_norm_diff(pressure, interp, mass))
    assert errs[1] > 0.5 * errs[0]  # barely any decrease under mesh halving


@pytest.mark.slow
def test_rho_optimum_structure(case):
    # at N = 80: pressure best near rho = 10, velocity best near rho = 100
    grid = mesh.build_grid(80)
    h = mesh.mesh_size(grid)
    disc = Discretization(grid, 1)
    rhs = disc.free_load(case.steady_forcing)
    iv = femspace.interpolate(disc.space, case.steady_velocity)
    ip = femspace.interpolate(disc.space, case.steady_pressure)
    rhos = (1.0, 10.0, 100.0, 1000.0)
    solutions = steady.solve(disc, case.nu, [steady.choose_delta(h, case.nu, rho) for rho in rhos],
                             rhs, tol=1e-10)
    verr, perr = {}, {}
    for rho, (velocity, pressure) in zip(rhos, solutions):
        verr[rho] = metrics.fe_norm_diff(velocity, iv, matrix=disc.mass)
        perr[rho] = metrics.fe_norm_diff(pressure, ip, matrix=disc.mass)
    assert perr[10.0] <= perr[1.0] and perr[10.0] <= perr[1000.0]
    assert verr[100.0] <= verr[1.0] and verr[100.0] <= verr[1000.0]


@pytest.mark.slow
def test_small_rho_degrees_agree(case):
    # rho = 1: linear and quadratic elements produce comparable velocity errors
    errors = {}
    for degree, n in ((1, 40), (2, 40)):
        grid = mesh.build_grid(n)
        h = mesh.mesh_size(grid)
        delta = steady.choose_delta(h, case.nu, 1.0)
        disc, velocity, pressure = steady_solve(grid, degree, case.nu, delta, case.steady_forcing)
        errors[degree] = metrics.error_vs_exact(
            disc, velocity, disc.at_quadrature_points(case.steady_velocity)
        )
    ratio = errors[1] / errors[2]
    assert 1.0 / 1.5 <= ratio <= 1.5
