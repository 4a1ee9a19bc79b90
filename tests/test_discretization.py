import numpy as np
import pytest
import scipy.sparse as sparse

from stokesproj import assembly, cli, femspace, sparsela
from stokesproj.assembly import Discretization, componentwise

OPERATORS = (
    "assemble_mass",
    "assemble_stiffness",
    "assemble_pressure_stiffness",
    "assemble_pressure_gradient",
    "assemble_divergence",
)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_operators_bit_identical_to_direct_assembly(grid4, degree):
    disc = Discretization(grid4, degree)
    v_space = femspace.build_space(grid4, degree, 2)
    p_space = femspace.build_space(grid4, degree, 1)
    assert_same_csr(
        disc.stiffness_free_vector,
        assembly.restrict_matrix(v_space, assembly.assemble_stiffness(v_space)),
    )
    assert_same_csr(disc.G, assembly.assemble_pressure_gradient(v_space, p_space))
    assert_same_csr(disc.stiffness, assembly.assemble_pressure_stiffness(p_space))


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_componentwise_bit_identical_to_block_product(grid4, degree):
    disc = Discretization(grid4, degree)
    x = np.random.default_rng(3).standard_normal(disc.v_space.num_dofs)
    for scalar in (disc.mass, disc.stiffness):
        block = sparse.block_diag([scalar, scalar], format="csr")
        assert np.array_equal(componentwise(scalar, x), block @ x)
        xs = x[: disc.p_space.num_dofs]
        assert np.array_equal(componentwise(scalar, xs), scalar @ xs)
        assert np.array_equal(componentwise(block, x), block @ x)


@pytest.fixture
def counts(monkeypatch):
    """Calls of every operator assembly, saddle solve and pinned factorization."""
    seen = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[name] = seen.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in OPERATORS:
        counting(assembly, name)
    counting(sparsela, "saddle_solve")
    counting(sparsela, "PinnedSingularSolver")
    return seen


def probe_config(ratios):
    return cli.parse_config_text(
        f"allow_unstable = true\n[stability_probe]\nn_values = 6\ndt_ratios = {ratios}\n"
        "step_budget = 20\n",
        kind="stability_probe",
    )


def test_probe_builds_initial_state_and_operators_once(counts):
    cli.run_stability_probe(probe_config("0.5 1 4"))
    assert counts["saddle_solve"] == 1
    assert counts["PinnedSingularSolver"] == 1
    assert all(counts.get(name, 0) <= 1 for name in OPERATORS), counts


def test_steady_sweep_assembles_each_operator_once_per_mesh(counts):
    config = cli.parse_config_text(
        "[steady_sweep]\nn_values = 4 6\nrho_values = 1 10 100\n", kind="steady_sweep"
    )
    cli.run_steady_sweep(config)
    assert counts["saddle_solve"] == 6
    assert all(counts.get(name, 0) <= 2 for name in OPERATORS), counts


def test_probe_ratio_rows_independent_of_other_ratios():
    # the ratios share one initial state; a run must not change it
    def rows(ratios, ratio):
        _, out = cli.run_stability_probe(probe_config(ratios))
        return [r for r in out if r[2] == ratio]

    alone = rows("0.5", 0.5)
    assert alone
    assert rows("4 1 0.5", 0.5) == alone
