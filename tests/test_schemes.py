import copy
import dataclasses
import pathlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import checks
import monolithic
from stokesproj import cli, femspace, mesh, metrics, schemes, sparsela, steady
from stokesproj.assembly import Discretization, componentwise


def make_params(**kw):
    base = dict(nu=0.01, dt=1e-3, T=1e-2, delta=1e-3, scheme="noninc",
                init="zero_pressure")
    base.update(kw)
    return schemes.SchemeParams(**base)


def momentum_factor(disc, params):
    """The factor of M/dt + nu A that a run with ``params`` steps with."""
    return sparsela.FactorizedSpd(disc.momentum(params.dt, params.nu))


def random_velocity(space, rng, scale=1.0):
    """Random velocity on the free DOFs."""
    return scale * rng.standard_normal(2 * space.free_scalar.size)


# --- parameter guards --------------------------------------------------------


def test_guard_accepts_dt_equal_delta():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_params(dt=1e-3, delta=1e-3)


@pytest.mark.parametrize("slack, accepted", [(1e-12, True), (1e-9, False)])
def test_guard_edge_at_two_delta(slack, accepted):
    # doubling is exact, so dt = 2 delta (1 + 1e-12) lies exactly on the
    # guard's slackened edge
    dt = 2.0 * (1.0 + slack) * 1e-3
    if accepted:
        make_params(dt=dt, delta=1e-3, T=10 * dt, max_dt_ratio=2.0)
    else:
        with pytest.raises(schemes.SchemeGuardError):
            make_params(dt=dt, delta=1e-3, T=10 * dt, max_dt_ratio=2.0)


def test_guard_refuses_dt_above_delta_without_flag():
    with pytest.raises(schemes.SchemeGuardError):
        make_params(dt=1.5e-3, delta=1e-3)


def test_guard_band_accepted_with_override():
    make_params(dt=1.5e-3, delta=1e-3, T=1.5e-2, max_dt_ratio=2.0)


def test_guard_refuses_beyond_two_delta():
    with pytest.raises(schemes.SchemeGuardError):
        make_params(dt=4e-3, delta=1e-3, T=4e-2, max_dt_ratio=2.0)
    # probe mode lets it through
    make_params(dt=4e-3, delta=1e-3, T=4e-2, max_dt_ratio=np.inf)


def test_t_must_be_step_multiple():
    with pytest.raises(ValueError, match="not an integer multiple"):
        make_params(T=1.05e-3)


def test_incremental_delta2_defaults_to_delta():
    p = make_params(scheme="inc")
    assert p.delta2 == p.delta
    assert make_params(scheme="inc", delta2=0.0).delta2 == 0.0
    assert make_params().delta2 is None


def test_rejects_unknown_enum_values():
    with pytest.raises(ValueError):
        make_params(scheme="bdf2")
    with pytest.raises(ValueError):
        make_params(init="restart")


# --- initialization ----------------------------------------------------------


def test_zero_pressure_init(grid4, case):
    params = make_params(init="zero_pressure")
    state = schemes.initialize(params, case, Discretization(grid4, 1))
    assert np.array_equal(state.pressure, np.zeros_like(state.pressure))
    assert state.step == 0 and state.t == 0.0


def test_interpolant_init_reproduces_linear_field(grid4):
    class LinearCase:
        def velocity(self, x, y, t):
            return np.stack([x, np.zeros_like(x)])

        def pressure(self, x, y, t):
            return np.zeros_like(x)

    params = make_params(init="interpolant")
    state = schemes.initialize(params, LinearCase(), Discretization(grid4, 1))
    space = femspace.build_space(grid4, 1)
    nf = space.free_scalar.size
    expected = space.node_coords[space.free_scalar, 0]  # Dirichlet rows dropped
    assert np.allclose(state.velocity[:nf], expected, atol=1e-14)
    assert np.array_equal(state.velocity[nf:], np.zeros(nf))


def test_interpolant_init_pressure_mean_subtracted(grid4, case):
    params = make_params(init="interpolant")
    state = schemes.initialize(params, case, Discretization(grid4, 1))
    w = Discretization(grid4, 1).mean_weights
    assert abs(w @ state.pressure) <= 1e-13


def test_stabilized_stokes_init_zero_case(grid4):
    class NullCase:
        def velocity(self, x, y, t):
            return np.zeros((2,) + x.shape)

        def pressure(self, x, y, t):
            return np.zeros_like(x)

        def steady_forcing(self, x, y):
            return np.zeros((2,) + x.shape)

    params = make_params(init="stabilized_stokes")
    state = schemes.initialize(params, NullCase(), Discretization(grid4, 1))
    assert np.array_equal(state.velocity, np.zeros_like(state.velocity))
    assert np.array_equal(state.pressure, np.zeros_like(state.pressure))


def test_stabilized_stokes_init_leaves_no_saddle_system_alive(grid4, case, monkeypatch):
    # no time step solves the steady system, so the representatives' rows
    # K_r of each block, and the blocks, are freed when the initial state
    # is made, not held through the run
    made = []
    real = sparsela._representative_rows

    def spy(*args):
        k_r = real(*args)
        made.append(weakref.ref(k_r))
        return k_r

    monkeypatch.setattr(sparsela, "_representative_rows", spy)
    disc = Discretization(grid4, 1)  # held, as a time run holds it
    schemes.initialize(make_params(init="stabilized_stokes"), case, disc)
    assert len(made) == 4 and all(ref() is None for ref in made)


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_each_run_factors_its_own_momentum_matrix(case, monkeypatch, degree):
    # every run factors the entries, indices and pointers of
    # csc_matrix(M/dt + nu A), and the previous run's factor is freed
    # before the next run's matrix is formed
    disc = Discretization(mesh.build_grid(8), degree)
    # rho = 3: 1/dt is inexact, so M/dt and M * (1/dt) differ in some bits
    delta = steady.choose_delta(1.0 / 8, case.nu, 3.0)
    runs = [make_params(nu=case.nu, dt=ratio * delta, T=2 * ratio * delta, delta=delta,
                        max_dt_ratio=np.inf) for ratio in (0.5, 2.0)]
    factored, factors, alive = [], [], []
    real_splu, real_momentum = sparsela._splu, Discretization.momentum

    def splu(a, *args):
        solve = real_splu(a, *args)
        if a.shape == disc.mass_free.shape:  # not the P2 pressure factor
            factored.append((a.data.copy(), a.indices.copy(), a.indptr.copy()))
            factors.append(weakref.ref(solve))  # the solve holds the SuperLU object
        return solve

    def momentum(self, dt, nu):
        alive.append([factor() is not None for factor in factors])
        return real_momentum(self, dt, nu)

    monkeypatch.setattr(sparsela, "_splu", splu)
    monkeypatch.setattr(Discretization, "momentum", momentum)
    for params in runs:
        checks.run_from_initial(params, case, disc)
    assert alive == [[], [False]]
    assert len(factored) == 2
    for params, (data, indices, indptr) in zip(runs, factored):
        reference = sparse.csc_matrix(disc.mass_free / params.dt
                                      + params.nu * checks.free_stiffness(disc))
        assert np.array_equal(data, reference.data)
        assert np.array_equal(indices, reference.indices)
        assert np.array_equal(indptr, reference.indptr)


@pytest.mark.parametrize("degree, n", [(1, 32), (2, 16)], ids=["P1", "P2"])
def test_momentum_matrix_allocates_little_beside_its_entries(degree, n):
    # a momentum matrix shares the cached pattern of its mesh and adds
    # M/dt through a scratch of 4,096 entries, so forming one allocates
    # its entries, that scratch and a few small objects (86,168 B for
    # 6,481 entries at P1 N=32, 116,760 B for 10,293 at P2 N=16); the
    # sparse sum M/dt + nu A allocated four matrices of the entries' size
    disc = Discretization(mesh.build_grid(n), degree)
    disc.momentum(1e-3, 0.01)  # caches the pattern and the free operators
    tracemalloc.start()
    try:
        matrix = disc.momentum(1e-3, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * matrix.nnz + 8 * 4096 + 4096


def test_incremental_init_starts_with_equal_pressures(grid4, case):
    params = make_params(scheme="inc", init="interpolant")
    state = schemes.initialize(params, case, Discretization(grid4, 1))
    assert np.array_equal(state.pressure_prev, state.pressure)


# --- stepping ----------------------------------------------------------------


def test_zero_trajectory(grid4, case):
    params = make_params()
    disc = Discretization(grid4, 1)
    space = disc.space
    momentum = momentum_factor(disc, params)
    zero = np.zeros(2 * space.free_scalar.size)
    state = schemes.TimeState(0, 0.0, zero, np.zeros(space.num_dofs))
    for _ in range(3):
        state = schemes.step_noninc(state, params, disc, momentum, zero)
    assert np.array_equal(state.velocity, np.zeros_like(state.velocity))
    assert np.array_equal(state.pressure, np.zeros_like(state.pressure))
    # incremental scheme too
    pi = make_params(scheme="inc")
    momentum_i = momentum_factor(disc, pi)
    st = schemes.TimeState(0, 0.0, zero, np.zeros(space.num_dofs), np.zeros(space.num_dofs))
    for _ in range(3):
        st = schemes.step_inc(st, pi, disc, momentum_i, zero)
    assert np.array_equal(st.velocity, np.zeros_like(st.velocity))


@pytest.mark.parametrize("scheme", ["noninc", "inc"])
def test_free_decay_energy_monotone(grid4, scheme):
    params = make_params(scheme=scheme, dt=5e-4, delta=5e-4, T=5e-2)
    disc = Discretization(grid4, 1)
    space = disc.space
    momentum = momentum_factor(disc, params)
    rng = np.random.default_rng(12)
    v0 = random_velocity(space, rng)
    zero_q = np.zeros(space.num_dofs)
    state = schemes.TimeState(0, 0.0, v0, zero_q, zero_q.copy())
    zero = np.zeros(2 * space.free_scalar.size)
    step = schemes.step_noninc if scheme == "noninc" else schemes.step_inc
    energy = checks.velocity_energy(disc, state.velocity)
    for _ in range(100):
        state = step(state, params, disc, momentum, zero)
        new_energy = checks.velocity_energy(disc, state.velocity)
        assert new_energy <= energy * (1.0 + 1e-12)
        energy = new_energy


def test_noninc_energy_identity_and_inherent_stabilization():
    # with zero load, testing the momentum step with 2 dt v+ and the
    # pressure step delta S q+ = G^T v+ with q gives, exactly,
    #   |v+|_M^2 - |v|_M^2 + |dv|_M^2 + 2 dt nu |v+|_A^2
    #     + dt delta (|q+|_S^2 + |q|_S^2 - |dq|_S^2) = 0.
    # Once delta S q = G^T v holds at both ends of a step (from step 2 on),
    # delta |dq|_S <= |dv|_M, so E = |v|_M^2 + dt delta |q|_S^2 does not
    # grow for dt <= delta: the inherent stabilization of the scheme
    nu, n = 0.01, 20
    disc = Discretization(mesh.build_grid(n), 1)
    delta = steady.choose_delta(1.0 / n, nu, 10.0)
    v0 = random_velocity(disc.space, np.random.default_rng(22))
    zero = np.zeros_like(v0)
    stiffness_free = checks.free_stiffness(disc)

    def norm2(matrix, x):
        return float(x @ componentwise(matrix, x))

    for ratio in (0.5, 1.0, 2.0, 4.0):
        dt = ratio * delta
        params = schemes.SchemeParams(nu=nu, dt=dt, T=40 * dt, delta=delta,
                                      max_dt_ratio=np.inf)
        momentum = momentum_factor(disc, params)
        state = schemes.TimeState(0, 0.0, v0, np.zeros(disc.space.num_dofs))
        energies = [norm2(disc.mass_free, v0)]  # E_0, ..., E_40
        for _ in range(params.num_steps()):
            new = schemes.step_noninc(state, params, disc, momentum, zero)
            v, w, q, p = state.velocity, new.velocity, state.pressure, new.pressure
            terms = [norm2(disc.mass_free, w), -norm2(disc.mass_free, v),
                     norm2(disc.mass_free, w - v), 2 * dt * nu * norm2(stiffness_free, w),
                     dt * delta * norm2(disc.stiffness, p), dt * delta * norm2(disc.stiffness, q),
                     -dt * delta * norm2(disc.stiffness, p - q)]
            assert abs(sum(terms)) <= 1e-13 * sum(map(abs, terms)), ratio
            energies.append(norm2(disc.mass_free, w) + dt * delta * norm2(disc.stiffness, p))
            state = new
        if ratio <= 1.0:
            assert all(b <= a for a, b in zip(energies[1:], energies[2:])), ratio


def step_map(disc, params):
    """The zero-load non-incremental step on ``disc`` as a dense matrix
    acting on (v, q), built one column at a time."""
    nv = 2 * disc.space.free_scalar.size
    momentum, zero = momentum_factor(disc, params), np.zeros(nv)
    columns = []
    for unit in np.eye(nv + disc.space.num_dofs):
        new = schemes.step_noninc(schemes.TimeState(0, 0.0, unit[:nv], unit[nv:]), params,
                                  disc, momentum, zero)
        columns.append(np.concatenate([new.velocity, new.pressure]))
    return np.array(columns).T


@pytest.mark.parametrize("degree, n", [(1, 6), (2, 4)], ids=["P1", "P2"])
def test_noninc_stability_threshold_is_two_over_lambda_max(degree, n):
    # with zero load the non-incremental step is a linear map T of (v, q).
    # Let lambda_max be the largest generalized eigenvalue of
    # (G^T M^-1 G, S) on zero-mean pressures; |Gq|_{M^-1} <= |q|_S, so it
    # is at most 1.  T is stable for every dt/delta <= 2 and, once nu A is
    # small beside M/dt (large rho), loses stability just past
    # 2/lambda_max.  Measured: lambda_max 0.923740 (P1 N=6) and 0.995703
    # (P2 N=4); at nu = 1, rho = 100 the spectral radius is 0.999625 and
    # 0.999303 at dt/delta = 2, and 1.019761 and 1.019008 at
    # 1.01 * 2/lambda_max
    disc = Discretization(mesh.build_grid(n), degree)
    mass = np.kron(np.eye(2), disc.mass_free.toarray())
    g, s = disc.G.toarray(), disc.stiffness.toarray()
    schur = g.T @ np.linalg.solve(mass, g)
    # both matrices vanish on the constants, so any complement of them,
    # here the pressures with q_0 = 0, carries the zero-mean eigenvalues
    lam_max = scipy.linalg.eigh(schur[1:, 1:], s[1:, 1:], eigvals_only=True)[-1]
    assert lam_max <= 1.0

    def radius(nu, rho, ratio):
        delta = steady.choose_delta(1.0 / n, nu, rho)
        params = schemes.SchemeParams(nu=nu, dt=ratio * delta, T=ratio * delta, delta=delta,
                                      max_dt_ratio=np.inf)
        return np.abs(np.linalg.eigvals(step_map(disc, params))).max()

    for nu, rho in ((1.0, 100.0), (0.01, 10.0)):
        for ratio in (0.5, 1.0, 2.0):
            assert radius(nu, rho, ratio) < 1.0, (nu, rho, ratio)
    assert radius(1.0, 100.0, 1.01 * 2.0 / lam_max) > 1.0


def test_noninc_pressure_tends_to_the_pspg_step_at_first_order(case, load_at):
    # at fixed delta the non-incremental scheme splits the monolithic
    # backward-Euler step of the PSPG-type system [[M/dt + nu A, G],
    # [G^T, -delta S]], so its final pressure differs from that step's by
    # O(dt).  Measured at P1 N=20, nu = 0.01, rho = 10, T = 0.05 from the
    # interpolant: 9.37e-5, 2.30e-5 and 5.72e-6 relative at dt = delta,
    # delta/4 and delta/16 (ratios 4.07 and 4.03), with velocity
    # differences 4.7e-5, 1.1e-5 and 2.6e-6
    n, nu = 20, case.nu
    disc = Discretization(mesh.build_grid(n), 1)
    delta = steady.choose_delta(1.0 / n, nu, 10.0)
    differences = []
    for k in (1, 4):
        params = schemes.SchemeParams(nu=nu, dt=delta / k, T=0.05, delta=delta,
                                      init="interpolant")
        start = schemes.initialize(params, case, disc)
        result = schemes.run(params, start, case, disc)
        _, pressure = monolithic.run(disc, load_at(case, disc), start.velocity, nu, delta,
                                     params.dt, params.num_steps())
        difference = result.final_state.pressure - pressure
        differences.append(np.linalg.norm(difference) / np.linalg.norm(pressure))
    assert 3.5 <= differences[0] / differences[1] <= 4.5


def states(params, case, disc):
    """The initial state and the state after every step of one run."""
    return checks.run_from_initial(params, case, disc, observe=lambda state: state).records


def test_stabilized_initial_data_bounds_the_pressure_jump_from_the_first_step(case):
    # the pressure step makes delta S q+ = G^T v+, and once that relation
    # holds at both ends of a step, delta |dq|_S <= |dv|_M (see the energy
    # identity above).  The stabilized steady initial state satisfies it
    # (2.4e-14 measured), so the bound holds from step 1 (largest ratio
    # 2.2e-3 over ten steps at dt = delta); the interpolant misses it, so
    # its first step breaks the bound (ratio 4.1e6 measured) and the bound
    # holds from step 2 (largest ratio 0.96)
    n = 20
    disc = Discretization(mesh.build_grid(n), 1)
    delta = steady.choose_delta(1.0 / n, case.nu, 10.0)

    def norm2(matrix, x):
        return float(x @ componentwise(matrix, x))

    def run(init):
        params = schemes.SchemeParams(nu=case.nu, dt=delta, T=10 * delta, delta=delta,
                                      init=init)
        trajectory = states(params, case, disc)
        ratios = [delta**2 * norm2(disc.stiffness, new.pressure - old.pressure)
                  / norm2(disc.mass_free, new.velocity - old.velocity)
                  for old, new in zip(trajectory, trajectory[1:])]
        return trajectory[0], ratios

    start, ratios = run("stabilized_stokes")
    divergence = disc.G.T @ start.velocity
    mismatch = divergence - delta * (disc.stiffness @ start.pressure)
    assert np.linalg.norm(mismatch) <= 1e-12 * np.linalg.norm(divergence)
    assert len(ratios) == 10 and max(ratios) <= 1.0
    _, ratios = run("interpolant")
    assert ratios[0] > 1.0
    assert max(ratios[1:]) <= 1.0


def test_pressure_zero_mean_every_step(grid4, case):
    params = make_params(init="stabilized_stokes", dt=1e-3, delta=1e-3, T=1e-2)
    disc = Discretization(grid4, 1)
    w = disc.mean_weights
    trajectory = states(params, case, disc)
    assert len(trajectory) == 11
    for state in trajectory[1:]:
        assert abs(w @ state.pressure) <= 1e-11
        assert state.velocity.shape == (2 * disc.space.free_scalar.size,)


def test_pressure_equation_residual_each_step(grid4, case):
    params = make_params(init="stabilized_stokes")
    disc = Discretization(grid4, 1)
    for state in states(params, case, disc)[1:]:
        rhs = disc.G.T @ state.velocity
        res = params.delta * (disc.stiffness @ state.pressure) - rhs
        assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(rhs)


def test_incremental_pressure_update_residual(grid4, case):
    params = make_params(scheme="inc", init="stabilized_stokes")
    disc = Discretization(grid4, 1)
    trajectory = states(params, case, disc)
    for prev, state in zip(trajectory, trajectory[1:]):
        rhs = params.delta * (disc.stiffness @ prev.pressure) + disc.G.T @ state.velocity
        lhs = (params.delta + params.delta2) * (disc.stiffness @ state.pressure)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1e-300)


def one_step_from_steady(case, disc, scheme, dt_ratio, steady_factor, delta2_factor=None):
    """The steady state at ``steady_factor * delta`` for the constant
    steady load, and one step of ``scheme`` from it with that load; delta
    is the rho = 10 value of the mesh, delta2 = ``delta2_factor * delta``
    and dt = ``dt_ratio * delta``."""
    delta = steady.choose_delta(1.0 / disc.mesh.n, case.nu, 10.0)
    delta2 = None if delta2_factor is None else delta2_factor * delta
    params = schemes.SchemeParams(nu=case.nu, dt=dt_ratio * delta, T=dt_ratio * delta,
                                  delta=delta, delta2=delta2, scheme=scheme)
    load = disc.free_load(case.steady_forcing)
    ((velocity, pressure),) = steady.solve(disc, case.nu, [steady_factor * delta], load,
                                           params.tol)
    state = schemes.TimeState(0, 0.0, disc.space.restrict(velocity), pressure, pressure.copy())
    step = schemes.step_noninc if scheme == "noninc" else schemes.step_inc
    return state, step(state, params, disc, momentum_factor(disc, params), load)


def relative_change(new, old):
    return np.linalg.norm(new - old) / np.linalg.norm(old)


@pytest.mark.parametrize("dt_ratio", [1.0, 0.01])
@pytest.mark.parametrize("degree, n", [(1, 8), (1, 20), (2, 8)])
@pytest.mark.parametrize("scheme, delta2_factor", [("noninc", None), ("inc", 1.0), ("inc", 0.5)])
def test_steady_state_is_a_fixed_point_of_one_step(case, degree, n, dt_ratio, scheme,
                                                   delta2_factor):
    # with a constant load, a fixed point of the non-incremental step
    # solves the stabilized steady system at delta, and one of the
    # incremental step the same system at delta2, whatever dt
    disc = Discretization(mesh.build_grid(n), degree)
    start, end = one_step_from_steady(case, disc, scheme, dt_ratio,
                                      steady_factor=delta2_factor or 1.0,
                                      delta2_factor=delta2_factor)
    assert relative_change(end.velocity, start.velocity) <= 1e-12
    assert relative_change(end.pressure, start.pressure) <= 1e-11


def test_incremental_step_leaves_the_steady_state_at_another_delta2(case):
    # control: the steady state at delta is no fixed point of the
    # incremental step with delta2 = delta / 2 (measured: the pressure
    # moves by 0.33 relative)
    disc = Discretization(mesh.build_grid(20), 1)
    start, end = one_step_from_steady(case, disc, "inc", 1.0, steady_factor=1.0,
                                      delta2_factor=0.5)
    assert relative_change(end.pressure, start.pressure) > 0.1


def test_incremental_extrapolation_satisfies_noninc_relations(case, load_at):
    # delta2 = delta: (v, 2q^n - q^{n-1}) solves the non-incremental relations
    grid = mesh.build_grid(8)
    params = make_params(scheme="inc", init="stabilized_stokes",
                         dt=1e-3, delta=1e-3, T=2e-2)
    disc = Discretization(grid, 1)
    load = load_at(case, disc)
    trajectory = states(params, case, disc)
    assert len(trajectory) == 21
    for prev, state in zip(trajectory, trajectory[1:]):
        q_hat_old = 2 * prev.pressure - prev.pressure_prev
        q_hat_new = 2 * state.pressure - state.pressure_prev
        mom, div = checks.noninc_residuals(
            params, disc, prev.velocity, state.velocity, q_hat_old, q_hat_new, load(state.t)
        )
        assert mom <= 1e-9
        assert div <= 1e-9


def test_classical_form_identity(grid4, case, load_at):
    # delta = dt: stepping the pre-elimination form that carries the
    # projected end-of-step velocity reproduces the eliminated update
    dt = 1e-3
    params = make_params(dt=dt, delta=dt, init="stabilized_stokes")
    disc = Discretization(grid4, 1)
    momentum = momentum_factor(disc, params)
    load_of = load_at(case, disc)
    s0 = schemes.initialize(params, case, disc)

    state_a = s0
    vb, qb = s0.velocity.copy(), s0.pressure.copy()
    for k in range(10):
        load = load_of((k + 1) * dt)
        state_a = schemes.step_noninc(state_a, params, disc, momentum, load)
        # (momentum against the projected velocity) M (v~ - v^n)/dt with
        # v^n = v~^n - delta grad q^n, i.e. M v^n = M v~^n - delta G q^n
        rhs = (disc.mass_free @ vb.reshape(2, -1).T).T.ravel() / dt \
            - (params.delta / dt) * (disc.G @ qb) + load
        vb = momentum.solve(rhs.reshape(2, -1).T).T.ravel()
        qb = schemes._pressure_solve(disc, disc.G.T @ vb, params.delta)
        assert np.linalg.norm(state_a.velocity - vb) <= 1e-12 * max(
            np.linalg.norm(vb), 1e-300
        )
        assert np.linalg.norm(state_a.pressure - qb) <= 1e-12 * max(
            np.linalg.norm(qb), 1e-300
        )


# --- run orchestration -------------------------------------------------------


def test_run_single_step(grid4, case):
    params = make_params(T=1e-3, init="stabilized_stokes")
    result = checks.run_from_initial(params, case, Discretization(grid4, 1))
    assert result.final_state.step == 1
    assert result.final_state.t == pytest.approx(1e-3)
    assert not result.diverged


def test_run_invokes_observers(grid4, case):
    params = make_params(T=5e-3, init="stabilized_stokes")
    result = checks.run_from_initial(params, case, Discretization(grid4, 1),
                                     observe=lambda st: st.step)
    assert result.records == [0, 1, 2, 3, 4, 5]
    assert result.final_state.step == 5


def test_run_deterministic(grid4, case):
    params = make_params(T=5e-3, init="stabilized_stokes")
    r1 = checks.run_from_initial(params, case, Discretization(grid4, 1))
    r2 = checks.run_from_initial(params, case, Discretization(grid4, 1))
    assert np.array_equal(r1.final_state.velocity, r2.final_state.velocity)
    assert np.array_equal(r1.final_state.pressure, r2.final_state.pressure)


@pytest.mark.parametrize("scheme", ["noninc", "inc"])
def test_runs_may_share_one_initial_state(grid4, case, scheme):
    # nothing writes into a state's arrays, so two runs from one shared
    # initial state step as runs from fresh states do and leave it as it was
    disc = Discretization(grid4, 1)
    runs = [make_params(scheme=scheme, init="interpolant", dt=dt) for dt in (1e-3, 5e-4)]
    shared = schemes.initialize(runs[0], case, disc)
    before = copy.deepcopy(shared)

    def same(a, b):
        return all(np.array_equal(x, y)
                   for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)))

    for params in runs:
        result = schemes.run(params, shared, case, disc, observe=lambda state: state)
        fresh = checks.run_from_initial(params, case, disc, observe=lambda state: state)
        assert same(result.final_state, fresh.final_state)
        assert len(result.records) == len(fresh.records) == params.num_steps() + 1
        assert all(same(a, b) for a, b in zip(result.records, fresh.records))
    assert same(shared, before)


def test_unstable_run_marked_diverged(case):
    grid = mesh.build_grid(20)
    delta = steady.choose_delta(1.0 / 20, case.nu, 10.0)
    dt = 4 * delta
    params = schemes.SchemeParams(
        nu=case.nu, dt=dt, T=500 * dt, delta=delta, scheme="noninc",
        init="stabilized_stokes", max_dt_ratio=np.inf,
    )
    result = checks.run_from_initial(params, case, Discretization(grid, 1), energy_ceiling=1e12)
    assert result.diverged
    # the energies run to the diverged step, and the final state is the
    # last one that passed the divergence test
    assert len(result.energies) - 1 < 500
    assert result.final_state.step == len(result.energies) - 2
    assert np.all(np.isfinite(result.final_state.velocity))


def test_stable_run_keeps_energy_bounded(case):
    grid = mesh.build_grid(20)
    delta = steady.choose_delta(1.0 / 20, case.nu, 10.0)
    params = schemes.SchemeParams(
        nu=case.nu, dt=0.5 * delta, T=100 * 0.5 * delta, delta=delta,
        scheme="noninc", init="stabilized_stokes",
    )
    result = checks.run_from_initial(params, case, Discretization(grid, 1), energy_ceiling=1e12)
    assert not result.diverged
    assert result.energies.max() <= 10.0 * result.energies[0]


@pytest.mark.slow
def test_incremental_pressure_converges_only_with_delta2():
    # P1, rho = 10, T = 0.5, N = 10, 20, 40: with delta2 = delta the final
    # pressure error falls about 3x per halving of h; with delta2 = 0 it
    # stalls near 3e-3 (1.25x, then 1.06x)
    root = pathlib.Path(__file__).parent.parent
    zero = cli.parse_config(root / "scripts" / "transient_convergence_delta2_zero.cfg")
    assert (zero.degrees, zero.n_values, zero.rho_values, zero.T, zero.scheme) == (
        (1,), (10, 20, 40), (10.0,), 0.5, "inc")
    ratios = {}
    for law in ("equal_delta", "zero"):
        columns, rows = cli.run_transient_convergence(dataclasses.replace(zero, delta2_law=law))
        errors = np.array([row[columns.index("pres_l2_final")] for row in rows
                           if row[0] == "data"])
        ratios[law] = errors[:-1] / errors[1:]
    assert np.all(ratios["equal_delta"] >= 2.5), ratios
    assert np.all(ratios["zero"] < 1.5), ratios


def test_modified_scheme_keeps_its_pressure_as_dt_falls(case):
    # the paper's central claim.  The modified scheme fixes delta by the mesh
    # (rho = 10: delta = h^2/(100 nu)) and steps with any dt <= delta; the
    # classical scheme has delta = dt, so its stabilization fades as dt falls.
    # P1, N = 20, T = 0.05: the final pressure error is 1.0166e-3 for both at
    # dt = delta, and at dt = delta/64 it is 1.0076e-3 (modified) against
    # 2.4721e-3 (classical)
    disc = Discretization(mesh.build_grid(20), 1)
    delta = steady.choose_delta(1.0 / 20, case.nu, 10.0)

    def params(dt, delta):
        return schemes.SchemeParams(nu=case.nu, dt=dt, T=0.05, delta=delta, scheme="noninc",
                                    init="interpolant")

    runs = [params(delta, delta), params(delta / 64, delta), params(delta / 64, delta / 64)]
    tracker = metrics.TransientErrorTracker(disc, case)
    both, modified, classical = (
        tracker(checks.run_from_initial(params, case, disc).final_state).pres_l2_exact
        for params in runs
    )
    assert abs(modified / both - 1.0) < 0.01, (both, modified)
    assert classical >= 2.0 * both, (both, classical)
