"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the measured quantities (visible with ``pytest tests/test_acceptance.py -v -s``).

Shared expensive computations (steady sweeps, transient studies) live in
session fixtures so the whole gate stays within its runtime budgets.
"""

import time

import numpy as np
import pytest

import checks
import dense_oracle
from stokesproj import femspace, mesh, metrics, mms, schemes, sparsela, steady
from stokesproj.assembly import Discretization

NU = 0.01

pytestmark = pytest.mark.acceptance


def _line(num, title, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {title} | {detail}")
    return ok


@pytest.fixture(scope="session")
def mms_case():
    return mms.berrone_case(NU)


# ---------------------------------------------------------------------------
# shared steady sweeps


def _steady_table(case, degree, n_values, rho_values):
    table = {}
    timings = {rho: 0.0 for rho in rho_values}
    for n in n_values:
        t0 = time.time()
        grid = mesh.build_grid(n)
        h = mesh.mesh_size(grid)
        disc = Discretization(grid, degree)
        rhs = disc.free_load(case.steady_forcing)
        interp_v = femspace.interpolate(disc.space, case.steady_velocity)
        interp_p = femspace.interpolate(disc.space, case.steady_pressure)
        deltas = [steady.choose_delta(h, NU, rho) for rho in rho_values]
        solutions = steady.solve(disc, NU, deltas, rhs, tol=1e-10)
        for rho, (velocity, pressure) in zip(rho_values, solutions):
            table[(n, rho)] = {
                "h": h,
                "vel": metrics.fe_norm_diff(velocity, interp_v, matrix=disc.mass),
                "pres": metrics.fe_norm_diff(pressure, interp_p, matrix=disc.mass),
            }
        elapsed = time.time() - t0  # the mesh's setup, solve and errors, charged to every rho
        for rho in rho_values:
            timings[rho] += elapsed
    return table, timings


@pytest.fixture(scope="session")
def steady_p1(mms_case):
    return _steady_table(mms_case, 1, (20, 40, 80, 160), (1.0, 10.0, 100.0, 1000.0))


@pytest.fixture(scope="session")
def steady_p2(mms_case):
    # the P2 pairwise rates fall from about 2.8 and enter the window only at
    # 80->160, so the finest level is needed to see the asymptotic rate
    return _steady_table(mms_case, 2, (10, 20, 40, 80, 160), (100.0,))


def _series(table, rho, n_values, field):
    errs = [table[(n, rho)][field] for n in n_values]
    hs = [table[(n, rho)]["h"] for n in n_values]
    return errs, hs


def _slope(table, rho, n_values, field):
    return metrics.observed_rate(*_series(table, rho, n_values, field))


def _pairwise_rates(errors, hs):
    """Convergence rates between consecutive mesh levels."""
    errors, hs = np.asarray(errors), np.asarray(hs)
    return np.log(errors[1:] / errors[:-1]) / np.log(hs[1:] / hs[:-1])


def _velocity_rates(table, n_values):
    """Pairwise rates, the finest of them, whether they strictly decrease,
    and the least-squares slope of the rho=100 velocity error."""
    series = _series(table, 100.0, n_values, "vel")
    pairwise = _pairwise_rates(*series)
    decreasing = bool(np.all(np.diff(pairwise) < 0.0))
    return pairwise, pairwise[-1], decreasing, metrics.observed_rate(*series)


# ---------------------------------------------------------------------------
# criteria 1-4: steady rates and the rho landscape
#
# Criteria 1 and 2 check the asymptotic velocity rate: the pairwise rate on
# the finest pair of meshes must lie in the window, and the pairwise rates
# must strictly decrease, so that the finest one is the closest to the
# limit.  A least-squares slope over the whole range would weight the
# pre-asymptotic coarse meshes as much as the fine ones; it is printed for
# information only.


def test_criterion_01_steady_velocity_rate(steady_p1):
    table, timings = steady_p1
    ns = (20, 40, 80, 160)
    pairwise, finest, decreasing, slope = _velocity_rates(table, ns)
    elapsed = timings[100.0]
    ok = 1.8 <= finest <= 2.2 and decreasing and elapsed <= 120.0
    _line(
        1,
        "steady velocity L2-vs-interpolant rate, P1, rho=100",
        ok,
        f"finest pairwise rate (80->160) {finest:.4f} target [1.8, 2.2], pairwise "
        f"{np.round(pairwise, 3)} strictly decreasing: {decreasing}, lsq slope "
        f"{slope:.4f} (information), runtime {elapsed:.1f}s <= 120s",
    )
    assert elapsed <= 120.0
    assert decreasing, (
        f"pairwise rates {np.round(pairwise, 3)} over N={ns} do not strictly "
        "decrease, so the finest one is not the closest to the asymptotic rate"
    )
    assert 1.8 <= finest <= 2.2, (
        f"finest pairwise rate (80->160) {finest:.4f} outside [1.8, 2.2]; "
        f"pairwise rates {np.round(pairwise, 3)}, lsq slope {slope:.4f}"
    )


def test_criterion_02_p2_velocity_rate(steady_p2):
    table, timings = steady_p2
    ns = (10, 20, 40, 80, 160)
    pairwise, finest, decreasing, slope = _velocity_rates(table, ns)
    ok = 1.7 <= finest <= 2.3 and decreasing
    _line(
        2,
        "no P2 superconvergence, velocity L2 rate, rho=100",
        ok,
        f"finest pairwise rate (80->160) {finest:.4f} target [1.7, 2.3] (must not "
        f"reach 2.5), pairwise {np.round(pairwise, 3)} strictly decreasing: "
        f"{decreasing}, lsq slope {slope:.4f} (information)",
    )
    assert decreasing, (
        f"pairwise rates {np.round(pairwise, 3)} over N={ns} do not strictly "
        "decrease, so the finest one is not the closest to the asymptotic rate"
    )
    assert 1.7 <= finest <= 2.3, (
        f"finest pairwise rate (80->160) {finest:.4f} outside [1.7, 2.3]; the "
        "delta = O(h^2) pressure-Laplacian term should cap the P2 rate at 2; "
        f"pairwise rates {np.round(pairwise, 3)}, lsq slope {slope:.4f}"
    )


def test_criterion_03_pressure_rate_and_optimum(steady_p1):
    table, _ = steady_p1
    slope = _slope(table, 10.0, (20, 40, 80, 160), "pres")
    e10, e1, e1000 = (table[(80, rho)]["pres"] for rho in (10.0, 1.0, 1000.0))
    ok = slope >= 0.9 and e10 <= e1 and e10 <= e1000
    _line(
        3,
        "pressure L2 rate at rho=10 and optimum at N=80",
        ok,
        f"slope {slope:.3f} >= 0.9; N=80 errors rho10 {e10:.3e} <= rho1 {e1:.3e} "
        f"and <= rho1000 {e1000:.3e}",
    )
    assert slope >= 0.9
    assert e10 <= e1 and e10 <= e1000


def test_criterion_04_pressure_stagnation_rho1000(steady_p1):
    table, _ = steady_p1
    slope = _slope(table, 1000.0, (20, 40, 80), "pres")
    ok = slope <= 0.5
    _line(4, "pressure stagnation at rho=1000", ok, f"slope {slope:.3f} <= 0.5")
    assert slope <= 0.5


# ---------------------------------------------------------------------------
# criterion 5: initialization effect


@pytest.fixture(scope="session")
def init_study(mms_case):
    # dt = delta = h^2/(100 nu); T is not fixed by the criterion, 2.0 keeps
    # the study inside its runtime budget while leaving thousands of steps
    # for the O(1) initialization transient to decay
    results = {}
    t0 = time.time()
    for n in (20, 40, 80):
        delta = steady.choose_delta(1.0 / n, NU, 10.0)
        params = schemes.SchemeParams(nu=NU, dt=delta, T=2.0, delta=delta, scheme="noninc")
        disc = Discretization(mesh.build_grid(n), 1)
        tracker = metrics.TransientErrorTracker(disc, mms_case)
        last = params.num_steps()

        def observe(state):  # the test reads the records of steps 1 and `last` only
            return tracker(state) if state.step <= 1 or state.step == last else None

        for init in ("stabilized_stokes", "interpolant"):
            result = checks.run_from_initial(params, init, mms_case, disc, observe=observe)
            results[(n, init)] = result.records
    return results, time.time() - t0


def test_criterion_05_initialization_effect(init_study):
    results, elapsed = init_study
    first_stab = {n: results[(n, "stabilized_stokes")][1].pres_l2_interp for n in (20, 40, 80)}
    first_interp = {n: results[(n, "interpolant")][1].pres_l2_interp for n in (20, 40, 80)}
    drops = (first_stab[20] / first_stab[40], first_stab[40] / first_stab[80])
    spread = max(first_interp.values()) / min(first_interp.values())
    finals = {
        init: results[(80, init)][-1].pres_l2_interp
        for init in ("stabilized_stokes", "interpolant")
    }
    rel_gap = abs(finals["stabilized_stokes"] - finals["interpolant"]) / min(finals.values())
    final_ok = True
    for n in (20, 40, 80):
        a = results[(n, "stabilized_stokes")][-1].pres_l2_interp
        b = results[(n, "interpolant")][-1].pres_l2_interp
        final_ok = final_ok and abs(a - b) <= 0.1 * min(a, b)
    ok = (
        min(drops) >= 1.5
        and spread <= 2.0
        and final_ok
        and elapsed <= 300.0
    )
    _line(
        5,
        "initialization effect (first step and long-time behavior)",
        ok,
        f"stabilized first-step drop per halving {drops[0]:.2f}, {drops[1]:.2f} >= 1.5; "
        f"interpolant first-step spread {spread:.3f}x <= 2; final-time gap "
        f"{100 * rel_gap:.3f}% <= 10%; runtime {elapsed:.1f}s <= 300s",
    )
    assert elapsed <= 300.0
    assert min(drops) >= 1.5
    assert spread <= 2.0
    assert final_ok


# ---------------------------------------------------------------------------
# criterion 6: stability threshold


def test_criterion_06_stability_threshold(mms_case):
    grid = mesh.build_grid(40)
    delta = steady.choose_delta(1.0 / 40, NU, 10.0)
    outcomes = {}
    ratios = (0.5, 1.0, 4.0)
    runs = [
        schemes.SchemeParams(
            nu=NU, dt=ratio * delta, T=500 * (ratio * delta), delta=delta, scheme="noninc",
            max_dt_ratio=np.inf,
        )
        for ratio in ratios
    ]
    disc = Discretization(grid, 1)
    # every ratio starts from one state
    state = schemes.initialize("stabilized_stokes", mms_case, disc, NU, delta, checks.TOL)
    for ratio, params in zip(ratios, runs):
        result = schemes.run(params, state, mms_case, disc, energy_ceiling=1e12)
        finite = result.energies[np.isfinite(result.energies)]
        outcomes[ratio] = (result.diverged, len(result.energies) - 1,
                           finite.max() / result.energies[0])
    ok = (
        not outcomes[0.5][0]
        and not outcomes[1.0][0]
        and outcomes[0.5][2] <= 10.0
        and outcomes[1.0][2] <= 10.0
        and outcomes[4.0][0]
        and outcomes[4.0][1] <= 500
    )
    _line(
        6,
        "time-step stability threshold at N=40",
        ok,
        f"dt/delta 0.5: bounded (peak/initial {outcomes[0.5][2]:.2f}); "
        f"1.0: bounded ({outcomes[1.0][2]:.2f}); "
        f"4.0: diverged at step {outcomes[4.0][1]} (ceiling 1e12)",
    )
    assert not outcomes[0.5][0] and not outcomes[1.0][0]
    assert outcomes[4.0][0] and outcomes[4.0][1] <= 500


# ---------------------------------------------------------------------------
# criterion 7: free-decay energy monotonicity


def test_criterion_07_free_decay_monotonicity():
    grid = mesh.build_grid(20)
    delta = steady.choose_delta(1.0 / 20, NU, 10.0)
    rng = np.random.default_rng(2024)
    disc = Discretization(grid, 1)
    v0 = rng.standard_normal(2 * disc.space.free_scalar.size)  # free DOFs only
    worst = {}
    for scheme in ("noninc", "inc"):
        params = schemes.SchemeParams(
            nu=NU, dt=delta, T=100 * delta, delta=delta, scheme=scheme,
        )
        momentum = sparsela.FactorizedSpd(disc.momentum(params.dt, params.nu))
        zero_q = np.zeros(disc.space.num_dofs)
        state = schemes.TimeState(0, 0.0, v0.copy(), zero_q.copy(), zero_q.copy())
        step = schemes.step_noninc if scheme == "noninc" else schemes.step_inc
        zero_load = np.zeros(v0.size)
        energy = checks.velocity_energy(disc, state.velocity)
        ratios = []
        for _ in range(100):
            state = step(state, params, disc, momentum, zero_load)
            new_energy = checks.velocity_energy(disc, state.velocity)
            ratios.append(new_energy / energy)
            energy = new_energy
        worst[scheme] = max(ratios)
    ok = all(r <= 1.0 + 1e-12 for r in worst.values())
    _line(
        7,
        "free-decay M-norm monotonicity over 100 steps, both schemes",
        ok,
        f"worst per-step energy ratio noninc {worst['noninc']:.15f}, "
        f"inc {worst['inc']:.15f} (tolerance 1+1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: incremental/non-incremental equivalence


def test_criterion_08_scheme_equivalence(mms_case, load_at):
    grid = mesh.build_grid(20)
    delta = steady.choose_delta(1.0 / 20, NU, 10.0)
    params = schemes.SchemeParams(
        nu=NU, dt=delta, T=50 * delta, delta=delta, scheme="inc",
    )
    disc = Discretization(grid, 1)
    momentum = sparsela.FactorizedSpd(disc.momentum(params.dt, params.nu))
    load = load_at(mms_case, disc)
    state = checks.initial_state("stabilized_stokes", params, mms_case, disc)
    worst_mom = worst_div = 0.0
    for _ in range(50):
        prev = state
        state = schemes.step_inc(state, params, disc, momentum, load(state.t + params.dt))
        q_hat_old = 2 * prev.pressure - prev.pressure_prev
        q_hat_new = 2 * state.pressure - state.pressure_prev
        mom, div = checks.noninc_residuals(
            params, disc, prev.velocity, state.velocity, q_hat_old, q_hat_new, load(state.t)
        )
        worst_mom, worst_div = max(worst_mom, mom), max(worst_div, div)
    ok = worst_mom <= 1e-9
    _line(
        8,
        "extrapolated pressure satisfies the non-incremental relations",
        ok,
        f"worst momentum residual {worst_mom:.2e} <= 1e-9 over 50 steps "
        f"(divergence relation {worst_div:.2e})",
    )
    assert worst_mom <= 1e-9


# ---------------------------------------------------------------------------
# criterion 9: assembly against the dense oracle


def test_criterion_09_assembly_oracle(grid2):
    worst = {}
    for degree in (1, 2):
        disc = Discretization(grid2, degree)
        space = disc.space
        dense = dense_oracle.dense_matrices(space)
        free = dense_oracle.velocity_free_indices(space)
        m = dense_oracle.restrict_matrix(space, disc.mass)
        a = dense_oracle.restrict_matrix(space, disc.stiffness)
        g, s = disc.G, disc.stiffness
        worst[degree] = max(
            abs(m.toarray() - dense["M"][np.ix_(free, free)]).max(),
            abs(a.toarray() - dense["A"][np.ix_(free, free)]).max(),
            abs(g.toarray() - dense["G"][free]).max(),
            abs(s.toarray() - dense["S"]).max(),
            abs(g.toarray() + dense["D"][:, free].T).max(),
        )
    ok = all(w <= 1e-13 for w in worst.values())
    _line(
        9,
        "M, A, G, S match the dense brute-force oracle; G = -D^T",
        ok,
        f"worst entrywise deviation P1 {worst[1]:.2e}, P2 {worst[2]:.2e} <= 1e-13",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: manufactured-solution integrity


def test_criterion_10_mms_integrity(mms_case):
    rng = np.random.default_rng(7)
    x, y = rng.random(10_000), rng.random(10_000)
    max_div = np.abs(checks.steady_divergence(x, y)).max()

    xs = 0.05 + 0.9 * rng.random(100)
    ys = 0.05 + 0.9 * rng.random(100)
    ts = 10.0 * rng.random(100)
    hs, ht = 1e-5, 1e-6
    v = mms_case.velocity
    vt = (v(xs, ys, ts + ht) - v(xs, ys, ts - ht)) / (2 * ht)
    lap = (
        v(xs + hs, ys, ts) + v(xs - hs, ys, ts) + v(xs, ys + hs, ts)
        + v(xs, ys - hs, ts) - 4 * v(xs, ys, ts)
    ) / (hs * hs)
    gq = np.stack(
        [
            (mms_case.pressure(xs + hs, ys, ts) - mms_case.pressure(xs - hs, ys, ts)),
            (mms_case.pressure(xs, ys + hs, ts) - mms_case.pressure(xs, ys - hs, ts)),
        ]
    ) / (2 * hs)
    g_fd = vt - NU * lap + gq
    g = dense_oracle.forcing(mms_case, xs, ys, ts)
    forcing_dev = np.abs(g - g_fd).max() / max(1.0, np.abs(g_fd).max())

    pts, wts = np.polynomial.legendre.leggauss(30)
    gx = 0.5 * (pts + 1.0)
    gw = 0.5 * wts
    xg, yg = np.meshgrid(gx, gx)
    mean = np.einsum("i,j,ij->", gw, gw, mms_case.steady_pressure(xg, yg))

    ok = max_div <= 1e-12 and forcing_dev <= 1e-6 and abs(mean) <= 1e-10
    _line(
        10,
        "manufactured solution integrity",
        ok,
        f"max |div v| {max_div:.2e} <= 1e-12 at 1e4 points; forcing vs finite "
        f"differences {forcing_dev:.2e} <= 1e-6 at 100 points; pressure mean "
        f"{abs(mean):.2e} <= 1e-10",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: incremental-scheme transient convergence


@pytest.fixture(scope="session")
def inc_convergence(mms_case):
    errs, hs = [], []
    t0 = time.time()
    for n in (20, 40, 80):
        grid = mesh.build_grid(n)
        h = 1.0 / n
        delta = 0.01 * h * h  # dt = delta = delta2 = 0.01 h^2
        params = schemes.SchemeParams(
            nu=NU, dt=delta, T=0.02, delta=delta, scheme="inc",
        )
        disc = Discretization(grid, 1)
        tracker = metrics.TransientErrorTracker(disc, mms_case)
        result = checks.run_from_initial(params, "stabilized_stokes", mms_case, disc,
                                         observe=tracker.pres_l2_exact)
        errs.append(metrics.discrete_time_norm(result.records[1:], params.dt))
        hs.append(h)
    return errs, hs, time.time() - t0


def test_criterion_11_incremental_transient_convergence(inc_convergence):
    errs, hs, elapsed = inc_convergence
    slope = metrics.observed_rate(errs, hs)
    ok = slope >= 0.9
    _line(
        11,
        "incremental scheme: discrete time-integrated pressure L2 rate",
        ok,
        f"slope {slope:.3f} >= 0.9 over N in (20, 40, 80) at dt = delta = 0.01 h^2 "
        f"(errors {[f'{e:.3e}' for e in errs]}, runtime {elapsed:.0f}s)",
    )
    assert slope >= 0.9
