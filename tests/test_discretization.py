import dataclasses
import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sparse

import checks
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


def entrywise_reference(dofs, elem, keep_rows):
    """The CSR matrix of the element matrices ``elem`` (nt, nb, nb) on the
    element DOFs ``dofs``, gathered entry by entry in a Python loop and
    summed in the documented order: the first term plus the left-to-right
    sum of the rest.  Only the rows ``keep_rows`` are kept, renumbered."""
    terms = {}
    for t, row_dofs in enumerate(dofs):
        for i, row in enumerate(row_dofs):
            for j, col in enumerate(row_dofs):
                terms.setdefault((row, col), []).append(elem[t, i, j])
    new_row = {row: k for k, row in enumerate(keep_rows)}
    entries = [(new_row[row], col, first + functools.reduce(operator.add, rest, -0.0))
               for (row, col), (first, *rest) in terms.items() if row in new_row]
    rows, cols, vals = zip(*entries)
    shape = (len(keep_rows), int(dofs.max()) + 1)
    return sparse.csr_array((vals, (rows, cols)), shape=shape)


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_operators_bit_identical_to_direct_assembly(degree):
    # the element matrices of the operator rule from the public basis and
    # quadrature, on Jacobians formed here, then summed entry by entry; at
    # N = 6 a sequential sum would change 5 to 20 entries of the mass and the
    # stiffness
    grid = mesh.build_grid(6)
    disc = Discretization(grid, degree)
    space = disc.space
    rule = femspace.quadrature(2 if degree == 1 else 4)
    w = rule.weights
    vals, gref = femspace.basis(degree, rule.points)
    p = grid.vertices[grid.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    adj_t = np.stack([jac[:, 1, 1], -jac[:, 1, 0], -jac[:, 0, 1], jac[:, 0, 0]], axis=1)
    inv_t = adj_t.reshape(-1, 2, 2) / det[:, None, None]
    grads = np.einsum("tab,qib->tqia", inv_t, gref)
    every, fs = np.arange(space.num_dofs), space.free_scalar
    dofs = space.element_dofs
    mass = np.einsum("q,qi,qj,t->tij", w, vals, vals, det)
    stiffness = np.einsum("q,tqia,tqja,t->tij", w, grads, grads, det)
    assert_same_csr(disc.mass, entrywise_reference(dofs, mass, every))
    assert_same_csr(disc.stiffness, entrywise_reference(dofs, stiffness, every))
    assert_same_csr(checks.free_stiffness(disc), entrywise_reference(dofs, stiffness, fs)[:, fs])
    g_blocks = [entrywise_reference(dofs, np.einsum("q,tqm,qi,t->tim", w, grads[..., axis],
                                                    vals, det), fs) for axis in range(2)]
    assert_same_csr(disc.G, sparse.vstack(g_blocks, format="csr"))
    mean = np.zeros(space.num_dofs)
    np.add.at(mean, dofs, np.einsum("q,tq,qi,t->ti", w, np.ones((len(det), len(w))), vals, det))
    assert np.array_equal(disc.mean_weights, mean)


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_cached_operators_have_int32_indices(grid4, degree):
    # 4-byte indices, like the saddle matrix built from these blocks, and
    # like the momentum matrix and the viscosity-scaled rows of the free
    # stiffness that the steady solve gathers
    disc = Discretization(grid4, degree)
    for name in ("mass", "stiffness", "mass_free", "G", "GT"):
        m = getattr(disc, name)
        assert (m.indices.dtype, m.indptr.dtype) == (np.int32, np.int32), name
    orbits = sparsela._saddle_orbits(disc.space)
    rows = sparsela._representative_rows(disc.stiffness, disc.space.free_scalar, disc.G,
                                         orbits, orbits.blocks[0], 0.01)
    for m in (disc.momentum(0.1, 0.01), rows):
        assert (m.indices.dtype, m.indptr.dtype) == (np.int32, np.int32)


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
    # every block lists its orbits by the node of their representative,
    # the fields of a node together and in order
    disc = Discretization(mesh.build_grid(n), degree)
    orbits = sparsela._saddle_orbits(disc.space)
    nodes, field = saddle_unknown_nodes(disc)
    assert np.array_equal(orbits.orbit[orbits.rep], np.arange(orbits.rep.size))
    assert np.array_equal(orbits.size, np.bincount(orbits.orbit))
    # one symmetry-adapted vector per unknown over the four blocks
    assert sum(block.size for block in orbits.blocks) == nodes.size
    lattice = np.rint(disc.space.node_coords * degree * n)
    fundamental = (lattice[:, 1] <= lattice[:, 0]) & (lattice.sum(axis=1) <= degree * n)
    for k, block in enumerate(orbits.blocks):
        if block.size == 0:  # at N = 1, a character that no orbit admits
            continue
        assert np.all(np.diff(block) > 0)
        seq, fields = nodes[orbits.rep[block]], field[orbits.rep[block]]
        assert np.all(fundamental[seq])
        starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
        assert np.unique(seq[starts]).size == starts.size
        same_node = seq[1:] == seq[:-1]
        assert np.all(fields[1:][same_node] > fields[:-1][same_node])
        if k == 0:
            # one run per node of the fundamental triangle (each has a pressure)
            assert starts.size == np.count_nonzero(fundamental)


def grid_symmetries(disc):
    """The signed permutations of the saddle unknowns under the reflection
    x <-> y, which maps (u_x, u_y)(x, y) to (u_y, u_x)(y, x), and the
    half-turn about (1/2, 1/2), which maps (u_x, u_y)(x, y) to
    -(u_x, u_y)(1 - x, 1 - y), found from the node coordinates: a
    (velocity, pressure) pair of sparse matrices for each."""
    m = disc.degree * disc.mesh.n
    coords = disc.space.node_coords
    index = {p: i for i, p in enumerate(map(tuple, np.rint(coords * m).astype(int).tolist()))}

    def node_map(f):
        return np.array([index[tuple(np.rint(np.array(f(x, y)) * m).astype(int).tolist())]
                         for x, y in coords])

    fs = disc.space.free_scalar
    nf, nn = fs.size, coords.shape[0]
    free_pos = np.full(nn, -1)
    free_pos[fs] = np.arange(nf)
    comp = np.repeat([0, 1], nf)
    out = []
    for f, swap, sign in ((lambda x, y: (y, x), True, 1.0),
                          (lambda x, y: (1 - x, 1 - y), False, -1.0)):
        perm = node_map(f)
        rows = (1 - comp if swap else comp) * nf + free_pos[perm[np.tile(fs, 2)]]
        velocity = sparse.csr_matrix((np.full(2 * nf, sign), (rows, np.arange(2 * nf))),
                                     shape=(2 * nf,) * 2)
        pressure = sparse.csr_matrix((np.ones(nn), (perm, np.arange(nn))), shape=(nn,) * 2)
        out.append((velocity, pressure))
    return out


EPS = np.finfo(float).eps
SYMMETRY_SIZES = [1, 2, 3, 5, 6, 8]


@pytest.mark.parametrize("n", SYMMETRY_SIZES)
@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_operators_commute_with_grid_symmetries(degree, n):
    # the elements of an entry are summed in another order after a
    # symmetry, so the operators commute to a few ulps (exactly on the
    # power-of-two grids); at odd N no node sits at the centre, and at N = 1
    # the velocity blocks are empty
    disc = Discretization(mesh.build_grid(n), degree)
    a = dense_oracle.vector_matrix(0.01 * checks.free_stiffness(disc))
    for pv, pp in grid_symmetries(disc):
        for matrix, left, right in ((a, pv, pv), (disc.G, pv, pp), (disc.stiffness, pp, pp)):
            dense = matrix.toarray()
            moved = (left @ matrix @ right.T).toarray()
            tol = 8 * EPS * np.abs(dense).max(initial=0.0)
            assert np.abs(moved - dense).max(initial=0.0) <= tol


@pytest.mark.parametrize("n", SYMMETRY_SIZES)
@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_symmetry_blocks_reassemble_the_saddle_matrix(degree, n):
    # in the symmetry-adapted basis V the saddle matrix K is block diagonal
    # to round-off, the pinned blocks of the system are its diagonal blocks
    # (the trivial one less the pinned orbit), and with that orbit's row
    # and column restored they give back K = V D^-1 B D^-1 V^T, D = V^T V
    disc = Discretization(mesh.build_grid(n), degree)
    a, g, s = 0.01 * checks.free_stiffness(disc), disc.G, disc.stiffness
    orbits = sparsela._saddle_orbits(disc.space)
    delta = 1.0 / (n * n)
    k = dense_oracle.saddle_matrix(a, g, s, -delta * s).toarray()
    v = np.hstack([dense_oracle.symmetry_basis(orbits, chi, order).toarray()
                   for chi, order in enumerate(orbits.blocks)])
    assert v.shape == k.shape
    galerkin = v.T @ k @ v
    label = np.repeat(np.arange(4), [order.size for order in orbits.blocks])
    tol = 8 * EPS * np.abs(k).max()
    assert np.abs(galerkin[label[:, None] != label[None, :]]).max(initial=0.0) <= tol
    unpinned = orbits.blocks[0] != orbits.orbit[g.shape[0]]
    assert np.count_nonzero(~unpinned) == 1
    # the blocks a steady solve of delta factors, built as it builds them
    free = disc.space.free_scalar
    trivial, *rest = orbits.blocks
    restored = np.zeros_like(galerkin)
    for chi, order in enumerate((trivial[unpinned], *rest)):
        matrix, _, _, slots = sparsela._symmetry_block(s, free, g, orbits, chi, order, 0.01)
        matrix.data[slots] *= -delta
        inside = label == chi
        block = galerkin[np.ix_(inside, inside)]
        if chi == 0:
            assert np.abs(matrix.toarray() - block[np.ix_(unpinned, unpinned)]).max() <= tol
            pinned = np.flatnonzero(~unpinned)
            block[np.ix_(unpinned, unpinned)] = matrix.toarray()
        elif block.size:
            assert np.abs(matrix.toarray() - block).max() <= tol
            block = matrix.toarray()
        restored[np.ix_(inside, inside)] = block
    assert pinned.size == 1
    d_inv = 1.0 / (v * v).sum(axis=0)
    assert np.abs(v @ (d_inv[:, None] * restored * d_inv) @ v.T - k).max() <= tol


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_orbit_tables_need_a_symmetric_mesh(degree):
    # one cell's diagonal flipped from SW-NE to SE-NW
    grid = mesh.build_grid(4)
    triangles = grid.triangles.copy()
    sw, se, ne = triangles[0]
    nw = triangles[1, 2]
    triangles[0], triangles[1] = (sw, se, nw), (se, ne, nw)
    flipped = dataclasses.replace(grid, triangles=triangles)
    with pytest.raises(ValueError, match="not symmetric"):
        sparsela._saddle_orbits(Discretization(flipped, degree).space)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_p2_separators_lie_on_mesh_lines(n):
    disc = Discretization(mesh.build_grid(n), 2)
    lattice = np.rint(disc.space.node_coords * 2 * n).astype(np.int64)
    blocks = sparsela._dissect(lattice, 2)
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
    """Calls of every space construction, operator-rule evaluation, element
    pattern sort, operator assembly, load assembly, saddle solve, orbit
    table construction, gather of the saddle representatives' rows,
    symmetry block build, pressure solver and error tracker
    construction, and of the geometry and basis evaluations behind the
    rules."""
    seen = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[name] = seen.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in OPERATORS + ("assemble_load", "_operator_rule", "_element_pattern",
                             "_geometry"):
        counting(assembly, name)
    counting(femspace, "build_space")
    counting(femspace, "basis")
    counting(sparsela, "saddle_solve")
    counting(sparsela, "_representative_rows")
    counting(sparsela, "_symmetry_block")
    counting(sparsela, "_saddle_orbits")
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
    # each symmetry block built once, from its own gathered rows
    assert counts["_representative_rows"] == counts["_symmetry_block"] == 4
    # two forcing terms and the mean weights; the steady initial data is
    # the steady forcing, whose load is the first forcing load
    assert counts["assemble_load"] == 3
    # P1 solves the pressure factor-free
    assert counts["GridNeumannSolver"] == 1
    assert counts.get("PinnedSingularSolver", 0) == 0
    # one rule evaluation and one pattern sort for all the operators; the
    # degree-6 rule is the other geometry and basis evaluation
    assert all(counts[name] == 1 for name in OPERATORS), counts
    assert counts["_operator_rule"] == counts["_element_pattern"] == 1
    assert counts["_geometry"] == counts["basis"] == 2


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
    # one steady solve per mesh for all its rho
    assert counts["saddle_solve"] == 2
    # one set of orbit tables per mesh, and the four symmetry blocks
    # built once per mesh, each from its own gathered rows
    assert counts["_saddle_orbits"] == 2
    assert counts["_representative_rows"] == counts["_symmetry_block"] == 4 * 2
    assert all(counts[name] == 2 for name in OPERATORS), counts
    assert counts["_operator_rule"] == counts["_element_pattern"] == 2
    assert counts["_geometry"] == counts["basis"] == 4
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
