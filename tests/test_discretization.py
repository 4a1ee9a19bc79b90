import numpy as np
import pytest
import scipy.sparse as sparse

import dense_oracle
from stokesproj import assembly, cli, femspace, mesh, metrics, mms, sparsela
from stokesproj.assembly import Discretization, componentwise

OPERATORS = (
    "assemble_mass",
    "assemble_stiffness",
    "assemble_pressure_gradient",
)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_operators_bit_identical_to_direct_assembly(grid4, degree):
    disc = Discretization(grid4, degree)
    space = femspace.build_space(grid4, degree)
    grads = assembly._physical_gradients(space)
    assert_same_csr(
        dense_oracle.vector_matrix(disc.stiffness_free),
        dense_oracle.restrict_matrix(space, assembly.assemble_stiffness(space, grads)),
    )
    assert_same_csr(disc.G, assembly.assemble_pressure_gradient(space, grads))
    assert_same_csr(disc.stiffness, assembly.assemble_stiffness(space, grads))


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_cached_operators_have_int32_indices(grid4, degree):
    # 4-byte indices, like the saddle matrix built from these blocks; the
    # viscosity-scaled copy that the steady solve makes keeps them
    disc = Discretization(grid4, degree)
    for name in ("mass", "stiffness", "mass_free", "stiffness_free", "G", "GT"):
        m = getattr(disc, name)
        assert (m.indices.dtype, m.indptr.dtype) == (np.int32, np.int32), name
    scaled = 0.01 * disc.stiffness_free
    assert (scaled.indices.dtype, scaled.indptr.dtype) == (np.int32, np.int32)


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_cached_gradient_transpose_bit_identical(grid4, degree):
    disc = Discretization(grid4, degree)
    assert_same_csr(disc.GT, sparse.csr_array(disc.G.T))
    v = np.random.default_rng(5).standard_normal(disc.G.shape[0])
    assert np.array_equal(disc.GT @ v, disc.G.T @ v)


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_componentwise_bit_identical_to_block_product(grid4, degree):
    disc = Discretization(grid4, degree)
    x = np.random.default_rng(3).standard_normal(2 * disc.space.num_dofs)
    for scalar in (disc.mass, disc.stiffness):
        block = dense_oracle.vector_matrix(scalar)
        assert np.array_equal(componentwise(scalar, x), block @ x)
        xs = x[: disc.space.num_dofs]
        assert np.array_equal(componentwise(scalar, xs), scalar @ xs)
        assert np.array_equal(componentwise(block, x), block @ x)


def test_saddle_system_is_kept_for_the_latest_viscosity(grid4):
    disc = Discretization(grid4, 1)
    first = disc.saddle_system(0.01)
    assert disc.saddle_system(0.01) is first
    other = disc.saddle_system(0.02)
    assert other is not first
    assert_same_csr(other.a_block, 0.02 * disc.stiffness_free)
    assert disc.saddle_system(0.01) is not first  # only the latest is kept


def saddle_unknown_nodes(disc):
    """Node and field (0, 1: velocity components, 2: pressure) of every
    saddle unknown, in the layout of ``sparsela.saddle_solve``."""
    fs = disc.space.free_scalar
    np_ = disc.space.num_dofs
    nodes = np.concatenate([fs, fs, np.arange(np_)])
    field = np.repeat([0, 1, 2], [fs.size, fs.size, np_])
    return nodes, field


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_saddle_order_groups_each_node_fields(degree, n):
    disc = Discretization(mesh.build_grid(n), degree)
    nodes, field = saddle_unknown_nodes(disc)
    order = disc.saddle_order
    assert np.array_equal(np.sort(order), np.arange(nodes.size))
    seq, fields = nodes[order], field[order]
    starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
    # one run per node (every node has a pressure), its fields in order
    assert starts.size == disc.space.num_dofs
    assert np.unique(seq[starts]).size == starts.size
    same_node = seq[1:] == seq[:-1]
    assert np.all(fields[1:][same_node] > fields[:-1][same_node])


@pytest.mark.parametrize("n", [2, 3, 8])
def test_p2_separators_lie_on_mesh_lines(n):
    disc = Discretization(mesh.build_grid(n), 2)
    lattice = np.rint(disc.space.node_coords * 2 * n).astype(np.int64)
    blocks = assembly._dissect(lattice, 2)
    all_nodes = np.concatenate([nodes for nodes, _ in blocks])
    assert np.array_equal(np.sort(all_nodes), np.arange(len(lattice)))
    separators = [(nodes, line) for nodes, line in blocks if line is not None]
    assert separators
    elements = lattice[disc.space.element_dofs]  # (nt, 6, 2)
    for nodes, (axis, index) in separators:
        assert index % 2 == 0
        assert np.all(lattice[nodes, axis] == index)
        # no element has nodes on both sides of the line
        coord = elements[..., axis]
        assert not np.any((coord.min(axis=1) < index) & (coord.max(axis=1) > index))


@pytest.fixture
def counts(monkeypatch):
    """Calls of every space construction, operator assembly, load
    assembly, saddle solve, pressure solver and error tracker
    construction."""
    seen = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[name] = seen.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in OPERATORS + ("assemble_load",):
        counting(assembly, name)
    counting(femspace, "build_space")
    counting(sparsela, "saddle_solve")
    counting(sparsela, "_pinned_saddle_csc")
    counting(sparsela, "PinnedSingularSolver")
    counting(sparsela, "GridNeumannSolver")
    counting(metrics, "TransientErrorTracker")
    return seen


def probe_config(ratios, degree=1):
    return cli.parse_config_text(
        f"allow_unstable = true\n[stability_probe]\nn_values = 6\ndt_ratios = {ratios}\n"
        f"step_budget = 20\ndegrees = {degree}\n",
        kind="stability_probe",
    )


def test_probe_builds_initial_state_and_operators_once(counts):
    cli.run_stability_probe(probe_config("0.5 1 4"))
    assert counts["build_space"] == 1
    assert counts["saddle_solve"] == 1
    # two forcing terms and the mean weights; the steady initial data is
    # the steady forcing, whose load is the first forcing load
    assert counts["assemble_load"] == 3
    # P1 solves the pressure factor-free
    assert counts["GridNeumannSolver"] == 1
    assert counts.get("PinnedSingularSolver", 0) == 0
    assert all(counts.get(name, 0) <= 1 for name in OPERATORS), counts


def test_p2_probe_factorizes_pressure_stiffness_once(counts):
    cli.run_stability_probe(probe_config("0.5 1 4", degree=2))
    assert counts["PinnedSingularSolver"] == 1
    assert counts.get("GridNeumannSolver", 0) == 0


def test_steady_sweep_assembles_each_operator_once_per_mesh(counts, monkeypatch):
    # evaluations of the exact fields at the quadrature points (2D point
    # arrays); the interpolants evaluate them at the nodes (1D)
    evaluations = []
    for name in ("steady_velocity", "steady_pressure"):
        original = getattr(mms.ManufacturedCase, name)

        def spy(self, x, y, name=name, original=original):
            if np.ndim(x) == 2:
                evaluations.append((name, np.shape(x)))
            return original(self, x, y)

        monkeypatch.setattr(mms.ManufacturedCase, name, spy)
    config = cli.parse_config_text(
        "[steady_sweep]\nn_values = 4 6\nrho_values = 1 10 100\n", kind="steady_sweep"
    )
    cli.run_steady_sweep(config)
    # one space per mesh
    assert counts["build_space"] == 2
    assert counts["saddle_solve"] == 6
    # one saddle matrix per mesh, rewritten in place for each rho
    assert counts["_pinned_saddle_csc"] == 2
    assert all(counts.get(name, 0) <= 2 for name in OPERATORS), counts
    # per mesh: the forcing load and the mean weights
    assert counts["assemble_load"] == 4
    # each exact field once per mesh (32 and 72 triangles of 12 points)
    assert sorted(evaluations) == [
        (name, (nt, 12)) for name in ("steady_pressure", "steady_velocity") for nt in (32, 72)
    ]


def test_transient_init_builds_one_tracker_per_mesh(counts):
    # dt = delta = h^2 at rho = 10: 1 step at N = 2, 4 at N = 4
    inits = ("stabilized_stokes", "interpolant", "zero_pressure")
    config = cli.parse_config_text(
        f"[transient_init]\nn_values = 2 4\nT = 0.25\ninits = {' '.join(inits)}\n",
        kind="transient_init",
    )
    _, rows = cli.run_transient_init(config)
    assert counts["TransientErrorTracker"] == 2
    # per mesh: two forcing terms, the tracker's pressure moment and the
    # mean weights; the tracker's velocity moment is the load of the second
    # forcing term and the steady initial data that of the first one
    assert counts["assemble_load"] == 8
    # one steady solve for stabilized_stokes
    assert counts["saddle_solve"] == 2
    # each run reports its own steps from 0: N = 2 gives 2 rows, N = 4 gives 5
    steps = [(init, n, step) for init, n, step, *_ in rows]
    assert steps == [
        (init, n, step)
        for n, count in ((2, 2), (4, 5))
        for init in inits
        for step in range(count)
    ]


def test_probe_ratio_rows_independent_of_other_ratios():
    # the ratios share one initial state; a run must not change it
    def rows(ratios, ratio):
        _, out = cli.run_stability_probe(probe_config(ratios))
        return [r for r in out if r[2] == ratio]

    alone = rows("0.5", 0.5)
    assert alone
    assert rows("4 1 0.5", 0.5) == alone
