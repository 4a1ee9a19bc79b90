import functools
import gc
import tracemalloc

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
    lu = sparsela.FactorizedSpd(m)
    rng = np.random.default_rng(8)
    b = rng.standard_normal((m.shape[0], 2))
    x = lu.solve(b)
    assert np.linalg.norm(m @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("failure", ["zero_pivot", "misses_verification"])
def test_factorized_spd_falls_back_to_pivoting_splu(grid4, monkeypatch, failure):
    # the symmetric factorization either fails or gives a solve that misses
    # the verification probe; the fallback is SuperLU with default pivoting
    m = assembly.Discretization(grid4, 2).mass
    b = np.random.default_rng(10).standard_normal(m.shape[0])
    direct = spla.splu(sparse.csc_matrix(m)).solve(b)
    real_splu = spla.splu

    def symmetric(a, permc_spec):
        if failure == "zero_pivot":
            return zero_pivot(a)
        return real_splu(sparse.diags(a.diagonal()).tocsc()).solve  # the diagonal alone

    monkeypatch.setattr(sparsela, "_symmetric_splu", symmetric)
    calls, _ = spy_on_splu(monkeypatch)
    x = sparsela.FactorizedSpd(m).solve(b)
    assert calls == [{}]
    assert np.array_equal(x, direct)
    assert np.linalg.norm(m @ x - b) <= 1e-12 * np.linalg.norm(b)


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


def saddle_blocks(grid, degree=1):
    """The space, the scalar free stiffness, G, S, the mean weights and
    the saddle ordering of a fresh Discretization."""
    disc = assembly.Discretization(grid, degree)
    return (disc.space, disc.stiffness_free, disc.G, disc.stiffness, disc.mean_weights,
            disc.saddle_order)


def free_forcing(space, case):
    """The steady forcing load on the free DOFs, with the degree-6 rule."""
    return assembly.Discretization(space.mesh, space.degree).free_load(case.steady_forcing)


def test_saddle_zero_rhs(grid4):
    _, a, g, s, w, order = saddle_blocks(grid4)
    x, z, report = sparsela.saddle_solve(
        sparsela.SaddleSystem(0.01 * a, g, s, order), 1e-3, np.zeros(2 * a.shape[0]),
        mean_weights=w, tol=1e-10,
    )
    assert np.array_equal(x, np.zeros(2 * a.shape[0]))
    assert np.array_equal(z, np.zeros(s.shape[0]))


def test_saddle_block_residuals(grid4, case):
    space, a, g, s, w, order = saddle_blocks(grid4)
    rhs = free_forcing(space, case)
    nu, delta = 0.01, 1e-3
    x, z, report = sparsela.saddle_solve(
        sparsela.SaddleSystem((nu * a).tocsr(), g, s, order), delta, rhs, tol=1e-10,
        mean_weights=w,
    )
    scale = np.linalg.norm(rhs)
    r1 = nu * componentwise(a, x) + g @ z - rhs
    r2 = g.T @ x - delta * (s @ z)
    assert np.linalg.norm(r1) <= 1e-10 * scale
    assert np.linalg.norm(r2) <= 1e-10 * scale
    assert abs(w @ z) <= 1e-12


def test_saddle_rejects_nonpositive_delta(grid4):
    _, a, g, s, w, order = saddle_blocks(grid4)
    with pytest.raises(ValueError):
        sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), 0.0,
                              np.ones(2 * a.shape[0]), mean_weights=w, tol=1e-10)


def test_saddle_zero_mean_pressure_on_experiment_grid(case):
    from stokesproj import mesh as mesh_mod

    grid = mesh_mod.build_grid(20)
    delta = steady.choose_delta(1.0 / 20, 0.01, 100.0)
    disc = assembly.Discretization(grid, 1)
    _, pressure = steady.solve(disc, 0.01, delta, disc.free_load(case.steady_forcing),
                               tol=1e-10)
    w = disc.mean_weights
    assert abs(w @ pressure) <= 1e-12


def test_saddle_deterministic(grid4, case):
    space, a, g, s, w, order = saddle_blocks(grid4)
    rhs = free_forcing(space, case)
    a = (0.01 * a).tocsr()
    out1 = sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), 1e-3, rhs,
                                 mean_weights=w, tol=1e-10)
    out2 = sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), 1e-3, rhs,
                                 mean_weights=w, tol=1e-10)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


def steady_system(case, n, degree, nu=0.01, rho=100.0):
    """The steady saddle system of the acceptance sweeps on a small grid."""
    space, a, g, s, w, order = saddle_blocks(mesh.build_grid(n), degree)
    rhs = free_forcing(space, case)
    delta = steady.choose_delta(1.0 / n, nu, rho)
    return nu * a, g, s, delta, rhs, w, order


def pinned_matrix(a, g, s, delta):
    """The block matrix with pressure DOF 0 dropped, in the unknowns'
    own order."""
    natural = np.arange(2 * a.shape[0] + s.shape[0])
    return dense_oracle.pinned_saddle_matrix(a, g, s, delta, natural)[0]


def pivoting_reference(a, g, s, delta, rhs, w):
    """The pinned block system solved by SuperLU with default partial pivoting."""
    nv, npres = 2 * a.shape[0], s.shape[0]
    sol = spla.splu(pinned_matrix(a, g, s, delta)).solve(
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
    a, g, s, delta, rhs, w, order = steady_system(case, n, degree)
    x_ref, z_ref = pivoting_reference(a, g, s, delta, rhs, w)
    calls, _ = spy_on_splu(monkeypatch)
    x, z, report = sparsela.saddle_solve(
        sparsela.SaddleSystem(a, g, s, order), delta, rhs, mean_weights=w, tol=1e-10
    )
    # one factorization, in symmetric mode and the given order, with no fallback
    assert len(calls) == 1 and calls[0]["options"] == {"SymmetricMode": True}
    assert calls[0]["permc_spec"] == "NATURAL"
    assert report.converged
    # both solutions meet the 1e-10 block residual; on these small systems
    # they agree to 1e-9 relative
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
    assert np.linalg.norm(z - z_ref) <= 1e-9 * np.linalg.norm(z_ref)


@pytest.mark.parametrize("degree, n", [(1, 40), (2, 20)])
def test_nested_dissection_fills_less_than_minimum_degree(case, monkeypatch, degree, n):
    a, g, s, delta, rhs, w, order = steady_system(case, n, degree)
    _, factors = spy_on_splu(monkeypatch)
    sparsela._symmetric_splu(pinned_matrix(a, g, s, delta), "MMD_AT_PLUS_A")
    sparsela._symmetric_splu(dense_oracle.pinned_saddle_matrix(a, g, s, delta, order)[0],
                             "NATURAL")
    mmd, nested = (lu.L.nnz + lu.U.nnz for lu in factors)
    # about 0.78 at these sizes; separators off the mesh lines double the fill
    assert nested < 0.85 * mmd


def spy_on_factor_input(monkeypatch, on_entry=lambda m: m):
    """Record ``on_entry(matrix)`` for every matrix handed to the
    symmetric factorization."""
    seen = []
    real = sparsela._symmetric_splu

    def spy(m, permc_spec):
        seen.append(on_entry(m))
        return real(m, permc_spec)

    monkeypatch.setattr(sparsela, "_symmetric_splu", spy)
    return seen


# the symmetric factorization of an ordered matrix, taken before any spy
symmetric_solve = functools.partial(sparsela._symmetric_splu, permc_spec="NATURAL")


@pytest.mark.parametrize("rho", [1.0, 1000.0])
@pytest.mark.parametrize("degree, n", [(1, 3), (1, 8), (2, 3), (2, 8)])
def test_pinned_saddle_matrix_equals_block_matrix_reference(case, monkeypatch, degree, n, rho):
    a, g, s, delta, rhs, w, order = steady_system(case, n, degree, rho=rho)
    seen = spy_on_factor_input(monkeypatch)
    x, z, report = sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), delta, rhs,
                                         mean_weights=w, tol=1e-10)
    reference, _, _ = dense_oracle.pinned_saddle_matrix(a, g, s, delta, order)
    (matrix,) = seen
    assert matrix.format == "csc" and matrix.shape == reference.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, attr), getattr(reference, attr)), attr
    # no refinement step runs here, so the solve is the reference's bit for bit
    sol, rel, refinements = dense_oracle.saddle_reference(a, g, s, delta, rhs, order,
                                                          symmetric_solve, 1e-10)
    assert refinements == 0
    assert report == sparsela.SolveReport(0, rel, True)
    assert np.array_equal(x, sol[: x.size])
    assert np.array_equal(z, sparsela.project_mean(sol[x.size:], w))


@pytest.mark.parametrize("degree, n", [(1, 8), (2, 4)])
def test_saddle_system_rewrites_delta_in_place(case, monkeypatch, degree, n):
    # one system solved for several delta factors, bit for bit, the matrix
    # of the reference construction for each delta and gives the solution
    # of a fresh system
    a, g, s, _, rhs, w, order = steady_system(case, n, degree)
    system = sparsela.SaddleSystem(a, g, s, order)
    seen = spy_on_factor_input(monkeypatch, lambda m: (m, m.copy()))
    for rho in (1.0, 1000.0, 10.0):
        delta = steady.choose_delta(1.0 / n, 0.01, rho)
        x, z, _ = sparsela.saddle_solve(system, delta, rhs, mean_weights=w, tol=1e-10)
        fresh = sparsela.SaddleSystem(a, g, s, order)
        x_ref, z_ref, _ = sparsela.saddle_solve(fresh, delta, rhs, mean_weights=w, tol=1e-10)
        assert np.array_equal(x, x_ref) and np.array_equal(z, z_ref)
        reference, _, _ = dense_oracle.pinned_saddle_matrix(a, g, s, delta, order)
        (_, shared), (_, built) = seen[-2:]
        for matrix in (shared, built):
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(matrix, attr), getattr(reference, attr)), attr
    # the shared system handed SuperLU one matrix object throughout
    assert len({id(m) for m, _ in seen[::2]}) == 1


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_refined_saddle_solve_matches_block_matrix_reference(case, degree):
    # at rho = 1000 the first solve misses 1e-14 and one refinement step
    # meets it; its residual sums block by block, in another order than
    # rhs - k @ sol, so the two agree to rounding only
    a, g, s, delta, rhs, w, order = steady_system(case, 8, degree, rho=1000.0)
    tol = 1e-14
    x, z, report = sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), delta, rhs,
                                         mean_weights=w, tol=tol)
    sol, rel, refinements = dense_oracle.saddle_reference(a, g, s, delta, rhs, order,
                                                          symmetric_solve, tol)
    assert report.converged and report.iterations >= 1 and refinements >= 1
    assert rel <= tol
    z_ref = sparsela.project_mean(sol[x.size:], w)
    assert np.linalg.norm(x - sol[: x.size]) <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z)


def matrix_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


@pytest.mark.parametrize("degree, n", [(1, 20), (2, 10)])
def test_only_the_factor_input_is_alive_when_factoring(case, monkeypatch, degree, n):
    # the steady solve holds no copy of the saddle matrix, ordered or
    # not, while SuperLU factors it: apart from the matrix, only the
    # viscosity-scaled scalar block and vectors are live
    disc = assembly.Discretization(mesh.build_grid(n), degree)
    rhs = disc.free_load(case.steady_forcing)
    delta = steady.choose_delta(1.0 / n, 0.01, 100.0)
    steady.solve(disc, 0.01, delta, rhs, tol=1e-10)  # warms every cached operator
    seen = spy_on_factor_input(
        monkeypatch, lambda m: (tracemalloc.get_traced_memory()[0], matrix_bytes(m))
    )
    tracemalloc.start()
    try:
        steady.solve(disc, 0.01, delta, rhs, tol=1e-10)
    finally:
        tracemalloc.stop()
    ((live, held),) = seen
    assert live <= 1.5 * held


def test_saddle_solve_leaves_no_reference_cycles(case):
    # the factors are freed as soon as a solve returns, not at the next
    # cyclic garbage collection
    disc = assembly.Discretization(mesh.build_grid(8), 2)
    rhs = disc.free_load(case.steady_forcing)
    steady.solve(disc, 0.01, 1e-3, rhs, tol=1e-10)
    gc.collect()
    gc.disable()
    try:
        steady.solve(disc, 0.01, 1e-3, rhs, tol=1e-10)
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
    a, g, s, delta, rhs, w, order = steady_system(case, 8, 1)
    x_ref, z_ref = pivoting_reference(a, g, s, delta, rhs, w)
    first = diagonal_factor(spla.splu) if failure == "misses_contract" else zero_pivot
    calls, _ = spy_on_splu(monkeypatch, symmetric=first)
    tol = 1e-10
    x, z, report = sparsela.saddle_solve(
        sparsela.SaddleSystem(a, g, s, order), delta, rhs, tol=tol, mean_weights=w
    )
    # the ordered symmetric factorization, then one with default partial pivoting
    assert [c.get("permc_spec") for c in calls] == ["NATURAL", None]
    assert calls[1] == {}
    assert report.converged and report.relative_residual <= tol
    scale = np.linalg.norm(rhs)
    assert np.linalg.norm(componentwise(a, x) + g @ z - rhs) <= tol * scale
    assert np.linalg.norm(g.T @ x - delta * (s @ z)) <= tol * scale
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_singular_pivoting_fallback_is_solver_error(case, monkeypatch):
    # the symmetric factorization and its pivoting fallback both fail
    a, g, s, delta, rhs, w, order = steady_system(case, 8, 1)
    monkeypatch.setattr(sparsela.spla, "splu", zero_pivot)
    with pytest.raises(sparsela.LinearSolverError, match="exactly singular"):
        sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), delta, rhs,
                              mean_weights=w, tol=1e-10)
    with pytest.raises(sparsela.LinearSolverError, match="exactly singular"):
        sparsela.FactorizedSpd(a)


def test_saddle_raises_when_fallback_misses_contract(case, monkeypatch):
    a, g, s, delta, rhs, w, order = steady_system(case, 8, 1)
    monkeypatch.setattr(sparsela.spla, "splu", diagonal_factor(spla.splu))
    with pytest.raises(sparsela.LinearSolverError) as info:
        sparsela.saddle_solve(sparsela.SaddleSystem(a, g, s, order), delta, rhs,
                              mean_weights=w, tol=1e-10)
    assert info.value.report.relative_residual > 1e-10
    assert not info.value.report.converged
