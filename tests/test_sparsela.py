import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import dense_oracle
from stokesproj import assembly, mesh, sparsela, steady
from stokesproj.assembly import componentwise


# --- direct solvers ----------------------------------------------------------


def test_factorized_spd_multi_rhs(grid4):
    m = assembly.Discretization(grid4, 1).mass
    lu = sparsela.FactorizedSpd(m.tocsc())
    rng = np.random.default_rng(8)
    b = rng.standard_normal((m.shape[0], 2))
    x = lu.solve(b)
    assert np.linalg.norm(m @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("failure", ["zero_pivot", "misses_verification"])
def test_factorized_spd_raises_on_a_failed_factor(grid4, monkeypatch, failure):
    # the symmetric factorization either fails or gives a solve that misses
    # the verification probe: either is a solver error, with no pivoting
    # factorization tried
    m = assembly.Discretization(grid4, 2).mass
    first = zero_pivot if failure == "zero_pivot" else diagonal_factor(spla.splu)
    calls, _ = spy_on_splu(monkeypatch, symmetric=first)
    message = ("symmetric factorization failed: Factor is exactly singular"
               if failure == "zero_pivot" else "factorization misses its probe by ")
    with pytest.raises(sparsela.LinearSolverError, match=f"^{message}"):
        sparsela.FactorizedSpd(m.tocsc())
    assert [c.get("permc_spec") for c in calls] == ["MMD_AT_PLUS_A"]


@pytest.mark.parametrize("degree, n", [(1, 8), (2, 4)])
def test_factorized_spd_meets_its_probe_without_pivoting(monkeypatch, degree, n):
    # every momentum matrix M/dt + nu A over sixteen decades of dt and
    # twelve of nu, and the pinned pressure stiffness, is SPD: each is
    # factored once, in symmetric mode, passes the verification probe and
    # solves a random load to round-off (9.0e-15 at worst measured here,
    # 9.1e-14 over P1 N <= 80 and P2 N <= 40)
    disc = assembly.Discretization(mesh.build_grid(n), degree)
    calls, _ = spy_on_splu(monkeypatch)
    matrices = [disc.momentum(dt, nu)
                for dt in (1e-12, 1e-8, 1e-4, 1.0, 1e4) for nu in (1e-8, 1e-4, 1.0, 1e4)]
    matrices.append(disc.stiffness.tocsr()[1:, 1:].tocsc())  # as PinnedSingularSolver pins it
    rng = np.random.default_rng(n)
    for matrix in matrices:
        b = rng.standard_normal(matrix.shape[0])
        x = sparsela.FactorizedSpd(matrix).solve(b)
        assert np.linalg.norm(matrix @ x - b) <= 1e-13 * np.linalg.norm(b)
    assert len(calls) == len(matrices) == 21
    assert all(c["options"] == {"SymmetricMode": True} for c in calls)


def test_pinned_singular_solver(grid4):
    disc = assembly.Discretization(grid4, 1)
    s, g = disc.stiffness, disc.G
    rng = np.random.default_rng(9)
    b = g.T @ rng.standard_normal(g.shape[0])
    solver = sparsela.PinnedSingularSolver(s)
    x = solver.solve(b)
    r = s @ x - b
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)
    assert x[0] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
def test_grid_neumann_solver_matches_pinned_factorization(n):
    disc = assembly.Discretization(mesh.build_grid(n), 1)
    s, w = disc.stiffness, disc.mean_weights
    b = s @ np.random.default_rng(n).standard_normal(s.shape[0])
    x = sparsela.project_mean(sparsela.GridNeumannSolver(n).solve(b), w)
    ref = sparsela.project_mean(sparsela.PinnedSingularSolver(s).solve(b), w)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(s @ x - b) <= 1e-12 * np.linalg.norm(b)


# --- saddle solver -----------------------------------------------------------


def saddle_data(disc, nu=0.01):
    """The steady saddle data of ``nu`` on ``disc`` as ``steady.solve``
    hands it to ``sparsela.saddle_solve``: (a_block, g, s, orbits)."""
    return nu * disc.stiffness_free, disc.G, disc.stiffness, disc.saddle_orbits


def fresh_system(grid, degree=1, nu=0.01):
    """A fresh Discretization and its steady saddle data of ``nu``."""
    disc = assembly.Discretization(grid, degree)
    return disc, saddle_data(disc, nu)


def solve_one(data, delta, rhs, w, tol=1e-10):
    """``saddle_solve`` of ``data`` for the one ``delta``: (x, z, report)."""
    x, z, report = sparsela.saddle_solve(*data, [delta], rhs, mean_weights=w, tol=tol)
    return x[0], z[0], report


def residual(data, delta, rhs, x, z):
    """The relative residual of the solution rows (x, z) of ``delta``,
    formed from the scalar blocks as ``saddle_solve`` checks it."""
    a, g, s, _ = data
    r1 = componentwise(a, x) + g @ z - rhs
    r2 = g.T @ x - delta * (s @ z)
    return max(np.linalg.norm(r1), np.linalg.norm(r2)) / np.linalg.norm(rhs)


def test_saddle_zero_rhs(grid4):
    disc, data = fresh_system(grid4)
    nv, npres = data[1].shape
    x, z, report = sparsela.saddle_solve(
        *data, [1e-3, 1e-2], np.zeros(nv), mean_weights=disc.mean_weights, tol=1e-10,
    )
    assert np.array_equal(x, np.zeros((2, nv)))
    assert np.array_equal(z, np.zeros((2, npres)))
    assert report == sparsela.SolveReport(0, (None, None))


def test_saddle_block_residuals(grid4, case):
    disc, data = fresh_system(grid4)
    (a, g, s, _), w = data, disc.mean_weights
    rhs = disc.free_load(case.steady_forcing)
    delta = 1e-3
    x, z, report = solve_one(data, delta, rhs, w)
    scale = np.linalg.norm(rhs)
    r1 = componentwise(a, x) + g @ z - rhs
    r2 = g.T @ x - delta * (s @ z)
    assert np.linalg.norm(r1) <= 1e-10 * scale
    assert np.linalg.norm(r2) <= 1e-10 * scale
    assert abs(w @ z) <= 1e-12
    assert report.failures == (None,)


def test_saddle_rejects_nonpositive_delta(grid4):
    disc, data = fresh_system(grid4, nu=1.0)
    with pytest.raises(ValueError):
        sparsela.saddle_solve(*data, [1e-3, 0.0], np.ones(data[1].shape[0]),
                              mean_weights=disc.mean_weights, tol=1e-10)


def test_saddle_zero_mean_pressure_on_experiment_grid(case):
    from stokesproj import mesh as mesh_mod

    grid = mesh_mod.build_grid(20)
    delta = steady.choose_delta(1.0 / 20, 0.01, 100.0)
    disc = assembly.Discretization(grid, 1)
    ((_, pressure),) = steady.solve(disc, 0.01, [delta], disc.free_load(case.steady_forcing),
                                    tol=1e-10)
    w = disc.mean_weights
    assert abs(w @ pressure) <= 1e-12


def test_saddle_deterministic(grid4, case):
    out = []
    for _ in range(2):
        disc, data = fresh_system(grid4)
        out.append(solve_one(data, 1e-3, disc.free_load(case.steady_forcing),
                             disc.mean_weights))
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])


def steady_system(case, n, degree, nu=0.01, rho=100.0):
    """The steady saddle data of the acceptance sweeps on a small grid:
    (data, delta, load on the free DOFs, mean weights)."""
    disc, data = fresh_system(mesh.build_grid(n), degree, nu)
    delta = steady.choose_delta(1.0 / n, nu, rho)
    return data, delta, disc.free_load(case.steady_forcing), disc.mean_weights


def pinned_matrix(data, delta):
    """The whole saddle matrix with pressure DOF 0 dropped, in the
    unknowns' own order."""
    a, g, s, _ = data
    k = dense_oracle.saddle_matrix(a, g, s, -delta * s)
    keep = np.flatnonzero(np.arange(k.shape[0]) != g.shape[0])
    return sparse.csc_matrix(k[keep][:, keep])


def pivoting_reference(data, delta, rhs, w):
    """The pinned whole system solved by SuperLU with default partial pivoting."""
    nv, npres = data[1].shape
    sol = spla.splu(pinned_matrix(data, delta)).solve(
        np.concatenate([rhs, np.zeros(npres - 1)])
    )
    return sol[:nv], sparsela.project_mean(np.concatenate([[0.0], sol[nv:]]), w)


def spy_on_splu(monkeypatch, symmetric=None):
    """Record the keyword arguments and results of every SuperLU
    factorization; ``symmetric`` replaces the symmetric-mode ones."""
    calls, factors = [], []
    real_splu = spla.splu

    def spy(m, **kwargs):
        calls.append(kwargs)
        use = symmetric if symmetric and kwargs.get("options") else real_splu
        factors.append(use(m, **kwargs))
        return factors[-1]

    monkeypatch.setattr(sparsela.spla, "splu", spy)
    return calls, factors


@pytest.mark.parametrize("degree, n", [(1, 12), (2, 6)])
def test_saddle_symmetric_mode_matches_pivoting_splu(case, monkeypatch, degree, n):
    data, delta, rhs, w = steady_system(case, n, degree)
    x_ref, z_ref = pivoting_reference(data, delta, rhs, w)
    calls, _ = spy_on_splu(monkeypatch)
    x, z, report = solve_one(data, delta, rhs, w)
    # one factorization per block, in symmetric mode and the block's order,
    # with no fallback
    assert len(calls) == 4
    assert all(c["options"] == {"SymmetricMode": True} for c in calls)
    assert all(c["permc_spec"] == "NATURAL" for c in calls)
    assert report.failures == (None,)
    # both solutions meet the 1e-10 block residual; on these small systems
    # they agree to 1e-9 relative
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
    assert np.linalg.norm(z - z_ref) <= 1e-9 * np.linalg.norm(z_ref)


def fill(matrix, permc_spec):
    """L + U entries of the symmetric-mode factor of ``matrix``."""
    lu = spla.splu(matrix, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("degree, n", [(1, 40), (2, 20)])
def test_nested_dissection_fills_less_than_minimum_degree(case, degree, n):
    # the four nested-dissection block factors together against the
    # minimum-degree factor of the whole pinned matrix: about 0.55 and
    # 0.59 at these sizes, and the largest block about 0.14 and 0.15
    data, delta, _, _ = steady_system(case, n, degree)
    whole = fill(pinned_matrix(data, delta), "MMD_AT_PLUS_A")
    blocks = [fill(block, "NATURAL") for block, _ in dense_oracle.symmetry_blocks(*data, delta)]
    assert sum(blocks) < 0.85 * whole
    assert max(blocks) < 0.25 * whole


def spy_on_factor_input(monkeypatch, on_entry=lambda m: m):
    """Record ``on_entry(matrix)`` for every matrix handed to a
    factorization."""
    seen = []
    real = sparsela._splu

    def spy(m, *args):
        seen.append(on_entry(m))
        return real(m, *args)

    monkeypatch.setattr(sparsela, "_splu", spy)
    return seen


def spy_on(monkeypatch, name):
    """Record the result of every call of ``sparsela.<name>``."""
    results = []
    real = getattr(sparsela, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(sparsela, name, spy)
    return results


# the symmetric factorization of an ordered matrix, taken before any spy
symmetric_solve = functools.partial(sparsela._splu, permc_spec="NATURAL")


def assert_same_csc(matrix, reference):
    assert matrix.format == "csc" and matrix.shape == reference.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, attr), getattr(reference, attr)), attr


def spy_on_bases(monkeypatch):
    """Record (block index, its orbits, basis) of every symmetry basis built."""
    built = []
    real = sparsela._symmetry_basis

    def spy(orbits, k, order):
        built.append((k, order, real(orbits, k, order)))
        return built[-1][2]

    monkeypatch.setattr(sparsela, "_symmetry_basis", spy)
    return built


@pytest.mark.parametrize("rho", [1.0, 1000.0])
@pytest.mark.parametrize("degree, n", [(1, 3), (1, 6), (1, 8), (2, 1), (2, 3), (2, 6), (2, 8)])
def test_pinned_saddle_matrix_equals_block_matrix_reference(case, monkeypatch, degree, n, rho):
    # every factor input is, entry for entry, the reference construction
    # of its block from the assembled block matrix and the symmetry basis,
    # every basis is the reference basis, and the solve is the reference's
    # block by block solve bit for bit
    seen = spy_on_factor_input(monkeypatch)
    bases = spy_on_bases(monkeypatch)
    data, delta, rhs, w = steady_system(case, n, degree, rho=rho)
    x, z, report = solve_one(data, delta, rhs, w)
    references = dense_oracle.symmetry_blocks(*data, delta)
    assert len(seen) == len(references) == 4
    for matrix, (reference, _) in zip(seen, references):
        assert_same_csc(matrix, reference)
    # each block's basis once, built with its block for the solve
    _, g, _, orbits = data
    assert [k for k, _, _ in bases] == [0, 1, 2, 3]
    for (k, order, basis), pinned in zip(bases, dense_oracle.pinned_blocks(orbits, g.shape[0])):
        assert np.array_equal(order, pinned)
        reference = dense_oracle.symmetry_basis(orbits, k, order)
        assert basis.format == "csr" and basis.shape == reference.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(basis, attr), getattr(reference, attr)), attr
    sol, rel, refinements = dense_oracle.saddle_reference(*data, delta, rhs, symmetric_solve,
                                                          1e-10)
    # every block is refined at least once
    assert refinements >= 4
    assert report == sparsela.SolveReport(refinements, (None,))
    assert residual(data, delta, rhs, x, z) <= 1e-10 and rel <= 1e-10
    assert np.array_equal(x, sol[: x.size])
    assert np.array_equal(z, sparsela.project_mean(sol[x.size:], w))


@pytest.mark.parametrize("degree, n", [(1, 8), (2, 4)])
def test_one_solve_builds_each_block_once_for_every_delta(case, monkeypatch, degree, n):
    # one solve for several delta gathers the representatives' rows K_r
    # once and builds each block once; for each delta in turn it hands
    # SuperLU, bit for bit, the reference block of that delta, and it
    # gives the single-delta solves and reports bit for bit.  Refilling
    # the -delta S entries leaves K_r as it was gathered
    data, _, rhs, w = steady_system(case, n, degree)
    deltas = [steady.choose_delta(1.0 / n, 0.01, rho) for rho in (1.0, 1000.0, 10.0)]
    singles = [solve_one(data, delta, rhs, w) for delta in deltas]
    fresh = sparsela._representative_rows(*data).tocsc()
    gathered = spy_on(monkeypatch, "_representative_rows")
    built = spy_on(monkeypatch, "_symmetry_block")
    seen = spy_on_factor_input(monkeypatch, lambda m: m.copy())
    x, z, report = sparsela.saddle_solve(*data, deltas, rhs, mean_weights=w, tol=1e-10)
    (k_r,) = gathered
    assert len(built) == 4 and len(seen) == 12
    # the blocks outside, the delta inside
    references = [dense_oracle.symmetry_blocks(*data, delta) for delta in deltas]
    for k in range(4):
        for i in range(3):
            assert_same_csc(seen[3 * k + i], references[i][k][0])
    assert_same_csc(k_r.tocsc(), fresh)
    for i, (x_one, z_one, _) in enumerate(singles):
        assert np.array_equal(x[i], x_one) and np.array_equal(z[i], z_one)
        assert residual(data, deltas[i], rhs, x[i], z[i]) <= 1e-10
    assert report == sparsela.SolveReport(sum(one.iterations for *_, one in singles),
                                          (None,) * 3)


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_refined_saddle_solve_matches_block_matrix_reference(case, degree):
    # at rho = 1000 the first solve of a block misses 1e-14 and a refinement
    # step meets it; the contract is checked on the assembled solution, and
    # the solve is the reference's block by block solve
    data, delta, rhs, w = steady_system(case, 8, degree, rho=1000.0)
    tol = 1e-14
    x, z, report = solve_one(data, delta, rhs, w, tol=tol)
    sol, rel, refinements = dense_oracle.saddle_reference(*data, delta, rhs, symmetric_solve,
                                                          tol)
    assert report.failures == (None,) and report.iterations >= 4 and refinements >= 4
    assert rel <= tol
    z_ref = sparsela.project_mean(sol[x.size:], w)
    assert np.linalg.norm(x - sol[: x.size]) <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z)


def test_velocity_at_rho_1000_matches_refined_pivoting_reference(case):
    # at nu = 0.01 and rho = 1000 the first solve already meets 1e-10; the
    # refinement that every block takes brings the velocity to round-off
    # of a minimum-degree pivoting factorization of the whole pinned
    # matrix refined three times (without it, 1.5e-11 relative)
    n, nu = 40, 0.01
    disc = assembly.Discretization(mesh.build_grid(n), 1)
    delta = steady.choose_delta(1.0 / n, nu, 1000.0)
    rhs = disc.free_load(case.steady_forcing)
    ((velocity, _),) = steady.solve(disc, nu, [delta], rhs, tol=1e-10)
    data = saddle_data(disc, nu)
    a, g, s, _ = data
    nv = g.shape[0]
    k = dense_oracle.saddle_matrix(a, g, s, -delta * s)
    keep = np.flatnonzero(np.arange(k.shape[0]) != nv)
    full_rhs = np.concatenate([rhs, np.zeros(s.shape[0])])
    solve = spla.splu(pinned_matrix(data, delta), permc_spec="MMD_AT_PLUS_A").solve
    sol = np.zeros(full_rhs.size)
    sol[keep] = solve(full_rhs[keep])
    for _ in range(3):
        sol[keep] += solve((full_rhs - k @ sol)[keep])
    reference = disc.space.extend(sol[:nv])
    assert np.linalg.norm(velocity - reference) <= 1e-13 * np.linalg.norm(reference)


def matrix_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


@pytest.mark.parametrize("degree, n", [(1, 20), (2, 10)])
def test_only_the_factor_input_is_alive_when_factoring(case, monkeypatch, degree, n):
    # the steady solve holds no copy of the saddle matrix, whole or in
    # blocks, and no other block, while SuperLU factors a block.  Traced
    # over one steady solve, what is alive beyond the representatives'
    # rows K_r, the scaled block nu*A and the block being factored is at
    # most nine float vectors of the saddle unknowns' length for one
    # delta (6.4-7.7 measured), and one more, the second solution, for two
    # delta (7.4-8.8 measured); keeping the bases of all four blocks
    # through the block loop adds about six.  A solve on a small grid
    # warms the code paths first
    small = assembly.Discretization(mesh.build_grid(4), degree)
    steady.solve(small, 0.01, [1e-3], small.free_load(case.steady_forcing), tol=1e-10)
    disc = assembly.Discretization(mesh.build_grid(n), degree)
    rhs = disc.free_load(case.steady_forcing)
    for name in ("stiffness_free", "G", "stiffness", "mean_weights", "saddle_orbits"):
        getattr(disc, name)  # warms the operators and orbit tables
    deltas = [steady.choose_delta(1.0 / n, 0.01, rho) for rho in (100.0, 10.0)]
    gathered = spy_on(monkeypatch, "_representative_rows")
    seen = spy_on_factor_input(
        monkeypatch, lambda m: tracemalloc.get_traced_memory()[0] - matrix_bytes(m)
    )
    vector = 8 * disc.saddle_orbits.orbit.size
    for count, bound in ((1, 9), (2, 10)):
        seen.clear()
        tracemalloc.start()
        try:
            steady.solve(disc, 0.01, deltas[:count], rhs, tol=1e-10)
        finally:
            tracemalloc.stop()
        kept = matrix_bytes(gathered[-1]) + matrix_bytes(disc.stiffness_free)
        assert len(seen) == 4 * count
        assert max(seen) <= kept + bound * vector


class TrackedFactor:
    """A SuperLU factor whose liveness a weak reference can follow."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        return self._lu.solve(b)


def test_one_block_factor_is_alive_at_a_time(case, monkeypatch):
    # each factor is dropped before the next one is made, for every delta
    # of every block, and each block's matrix and basis before the next
    # block is built
    data, delta, rhs, w = steady_system(case, 8, 2)
    factors, blocks = [], []
    real_splu, real_block = spla.splu, sparsela._symmetry_block

    def spy(m, **kwargs):
        assert all(ref() is None for ref in factors)
        factor = TrackedFactor(real_splu(m, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    def block(*args):
        assert all(ref() is None for ref in blocks)
        built = real_block(*args)
        blocks.extend(weakref.ref(part) for part in built[:2])  # matrix and basis
        return built

    monkeypatch.setattr(sparsela.spla, "splu", spy)
    monkeypatch.setattr(sparsela, "_symmetry_block", block)
    sparsela.saddle_solve(*data, [delta, 10 * delta], rhs, mean_weights=w, tol=1e-10)
    assert len(factors) == 8 and len(blocks) == 8
    assert all(ref() is None for ref in factors + blocks)


def test_saddle_solve_leaves_no_reference_cycles(case, monkeypatch):
    # the saddle data and the factors are freed as soon as they are done
    # with, not at the next cyclic garbage collection, and so are they
    # when every delta fails: a returned error holds no frame
    disc = assembly.Discretization(mesh.build_grid(8), 2)
    rhs = disc.free_load(case.steady_forcing)
    steady.solve(disc, 0.01, [1e-3, 1e-2], rhs, tol=1e-10)
    gc.collect()
    gc.disable()
    try:
        steady.solve(disc, 0.01, [1e-3, 1e-2], rhs, tol=1e-10)
        assert gc.collect() == 0
        monkeypatch.setattr(sparsela.spla, "splu", zero_pivot)
        errors = steady.solve(disc, 0.01, [1e-3, 1e-2], rhs, tol=1e-10)
        assert all(error.__traceback__ is None for error in errors)
        del errors
        assert gc.collect() == 0
    finally:
        gc.enable()


def diagonal_factor(real_splu):
    """A stand-in for the symmetric factorization that factors only the
    diagonal: two refinement steps from it cannot reach the contract."""
    return lambda m, **kwargs: real_splu(sparse.diags(m.diagonal()).tocsc())


def zero_pivot(m, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("failure", ["misses_contract", "zero_pivot"])
def test_saddle_falls_back_to_pivoting_splu(case, monkeypatch, failure):
    data, delta, rhs, w = steady_system(case, 8, 1)
    x_ref, z_ref = pivoting_reference(data, delta, rhs, w)
    first = diagonal_factor(spla.splu) if failure == "misses_contract" else zero_pivot
    calls, _ = spy_on_splu(monkeypatch, symmetric=first)
    tol = 1e-10
    x, z, report = solve_one(data, delta, rhs, w, tol=tol)
    # for each block, the ordered symmetric factorization, then one with
    # default partial pivoting
    assert [c.get("permc_spec") for c in calls] == ["NATURAL", None] * 4
    assert calls[1::2] == [{}] * 4
    assert report.failures == (None,)
    assert residual(data, delta, rhs, x, z) <= tol
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_block_fallback_meets_the_contract_at_rho_1e8(case, monkeypatch):
    # on real input the per-block pivoting fallback runs: at P1 N=8,
    # nu = 0.01 and rho = 1e8 two blocks miss the contract in symmetric
    # mode even after refinement, and their pivoting solves meet it (a
    # second symmetric factorization in its place leaves 1.2e-7)
    data, delta, rhs, w = steady_system(case, 8, 1, rho=1e8)
    calls, _ = spy_on_splu(monkeypatch)
    x, z, report = solve_one(data, delta, rhs, w)
    assert report.failures == (None,)
    assert residual(data, delta, rhs, x, z) <= 1e-10
    assert calls.count({}) == 2 and len(calls) == 6


def test_singular_pivoting_fallback_is_solver_error(case, monkeypatch):
    # the symmetric factorization and its pivoting fallback both fail:
    # the steady solve returns the error for each delta
    disc = assembly.Discretization(mesh.build_grid(8), 1)
    rhs = disc.free_load(case.steady_forcing)
    monkeypatch.setattr(sparsela.spla, "splu", zero_pivot)
    solutions = steady.solve(disc, 0.01, [1e-3, 1e-2], rhs, tol=1e-10)
    assert len(solutions) == 2
    for solution in solutions:
        assert isinstance(solution, sparsela.LinearSolverError)
        assert str(solution) == "pivoting factorization failed: Factor is exactly singular"
    with pytest.raises(sparsela.LinearSolverError, match="exactly singular"):
        sparsela.FactorizedSpd(disc.stiffness_free.tocsc())


def test_saddle_reports_when_fallback_misses_contract(case, monkeypatch):
    data, delta, rhs, w = steady_system(case, 8, 1)
    monkeypatch.setattr(sparsela.spla, "splu", diagonal_factor(spla.splu))
    x, z, report = solve_one(data, delta, rhs, w)
    rel = residual(data, delta, rhs, x, z)
    assert rel > 1e-10
    (failure,) = report.failures
    assert isinstance(failure, sparsela.LinearSolverError)
    assert str(failure) == f"saddle solve residual {rel:.3e} exceeds tol=1e-10"


def test_a_failed_delta_ends_alone(case, monkeypatch):
    # a block solve that fails ends its delta: no later block is solved
    # for it, and the other delta are solved, bit for bit, as if alone
    data, delta, rhs, w = steady_system(case, 8, 1)
    deltas = [delta, 10 * delta, 100 * delta]
    singles = [solve_one(data, one, rhs, w) for one in deltas]
    calls = []
    real = sparsela._block_solve
    planted = sparsela.LinearSolverError("planted failure")

    def block_solve(*args):
        calls.append(args)
        if len(calls) == 2:
            raise planted
        return real(*args)

    monkeypatch.setattr(sparsela, "_block_solve", block_solve)
    x, z, report = sparsela.saddle_solve(*data, deltas, rhs, mean_weights=w, tol=1e-10)
    assert len(calls) == 3 + 3 * 2
    # the error itself, without the traceback that holds the solve's frame
    assert report.failures == (None, planted, None) and planted.__traceback__ is None
    for i in (0, 2):
        assert np.array_equal(x[i], singles[i][0]) and np.array_equal(z[i], singles[i][1])
