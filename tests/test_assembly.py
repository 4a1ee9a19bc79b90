from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse

import dense_oracle
from stokesproj import assembly, femspace, mesh
from stokesproj.assembly import Discretization


@pytest.fixture(scope="module", params=[1, 2], ids=["P1", "P2"])
def space_grid2(request, grid2):
    return femspace.build_space(grid2, request.param)


def load6(space, f):
    """The load of ``f`` with the degree-6 rule, as every runner assembles it."""
    disc = Discretization(space.mesh, space.degree)
    return assembly.assemble_load(space, disc.at_quadrature_points(f), disc.quadrature)


def test_mass_total_is_domain_measure(grid4):
    for degree in (1, 2):
        assert Discretization(grid4, degree).mass.sum() == pytest.approx(1.0, abs=1e-14)


def test_mass_constant_vector(grid4):
    m = Discretization(grid4, 1).mass
    assert (m @ np.ones(m.shape[0])).sum() == pytest.approx(1.0, abs=1e-14)


def test_p1_element_mass_matrix():
    # the two triangles of the unit square, each with element mass
    # (area/12) [[2,1,1],[1,2,1],[1,1,2]] at area 1/2
    grid = mesh.build_grid(1)
    elem = (0.5 / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    expected = np.zeros((4, 4))
    for tri in grid.triangles:
        expected[np.ix_(tri, tri)] += elem
    assert np.abs(Discretization(grid, 1).mass.toarray() - expected).max() <= 1e-15


def test_stiffness_kills_constants(grid4):
    for degree in (1, 2):
        a = Discretization(grid4, degree).stiffness
        assert np.max(np.abs(a @ np.ones(a.shape[0]))) <= 1e-13


def test_p1_unit_right_triangle_stiffness():
    # the unit square cut along its SW-NE diagonal into two right triangles:
    # by the cotangent formula every side couples its ends with -1/2, the
    # diagonal (facing two right angles) with 0, and each row sums to 0
    grid = mesh.build_grid(1)
    index = {tuple(v): i for i, v in enumerate(grid.vertices.tolist())}
    sw, se, nw, ne = (index[corner] for corner in ((0, 0), (1, 0), (0, 1), (1, 1)))
    expected = np.eye(4)
    for i, j in ((sw, se), (se, ne), (ne, nw), (nw, sw)):
        expected[i, j] = expected[j, i] = -0.5
    assert np.allclose(Discretization(grid, 1).stiffness.toarray(), expected, atol=1e-14)


def test_free_stiffness_positive_definite(grid4):
    disc = Discretization(grid4, 1)
    a = dense_oracle.restrict_matrix(disc.space, disc.stiffness)
    eigs = np.linalg.eigvalsh(a.toarray())
    assert eigs.min() > 0


def test_gradient_of_constant_pressure_is_zero(space_p1_grid4):
    g = Discretization(space_p1_grid4.mesh, 1).G
    assert np.max(np.abs(g @ np.ones(space_p1_grid4.num_dofs))) <= 1e-14


def test_divergence_theorem_compatibility(space_p1_grid4):
    # sum over pressure DOFs of G^T v vanishes for any v with zero trace
    g = Discretization(space_p1_grid4.mesh, 1).G
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(g.shape[0])
        assert abs((g.T @ v).sum()) <= 1e-12 * np.linalg.norm(v)


def test_pressure_stiffness_singular_with_constants(grid2):
    s = Discretization(grid2, 1).stiffness
    assert np.max(np.abs(s @ np.ones(s.shape[0]))) <= 1e-13
    assert abs(s - s.T).max() <= 1e-14
    assert np.linalg.matrix_rank(s.toarray()) == s.shape[0] - 1


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_quadrature_integrates_monomials(grid4, degree):
    # the degree-6 rule mapped to every triangle integrates x^p y^q with
    # p + q <= 6 over the unit square exactly: 1 / ((p+1)(q+1))
    disc = Discretization(grid4, degree)
    w, vals, det = disc.quadrature
    nt = len(grid4.triangles)
    assert vals.shape == (len(w), disc.space.element_dofs.shape[1])
    assert det.shape == (nt,)
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 3), (6, 0), (3, 3)]:
        (values,) = disc.at_quadrature_points(lambda x, y: x**p * y**q)
        assert values.shape == (nt, len(w))
        got = np.einsum("q,tq,t->", w, values, det)
        assert got == pytest.approx(1.0 / ((p + 1) * (q + 1)), rel=1e-13)


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_quadrature_points_are_the_affine_map(degree, n):
    # the points where a field is evaluated are the reference points
    # (xi, eta) mapped as p0 + xi (p1 - p0) + eta (p2 - p0), bit for bit
    grid = mesh.build_grid(n)
    disc = Discretization(grid, degree)
    ref = femspace.quadrature(6).points
    p = grid.vertices[grid.triangles]
    expected = np.empty((2, len(p), len(ref)))
    for t, (p0, p1, p2) in enumerate(p):
        for k, (xi, eta) in enumerate(ref):
            expected[:, t, k] = p0 + xi * (p1 - p0) + eta * (p2 - p0)
    got = disc.at_quadrature_points(lambda x, y: np.stack([x, y]))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [33, 46])
@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_chunked_field_evaluation_matches_one_evaluation(case, degree, n):
    # a field is evaluated on chunks of triangles; on grids whose triangle
    # count (2178, 4232) is not a multiple of the chunk, a scalar and a
    # vector field take, bit for bit, the values of one evaluation on all
    # the mapped points
    grid = mesh.build_grid(n)
    nt = len(grid.triangles)
    assert nt > assembly._FIELD_CHUNK and nt % assembly._FIELD_CHUNK
    disc = Discretization(grid, degree)
    xi, eta = femspace.quadrature(6).points.T
    p0, p1, p2 = (grid.vertices[grid.triangles[:, i]].T[..., None] for i in range(3))
    x, y = p0 + xi * (p1 - p0) + eta * (p2 - p0)
    for f in (case.steady_pressure, case.steady_forcing):
        got, expected = disc.at_quadrature_points(f), femspace.field_blocks(f, x, y)
        assert got.shape == expected.shape == (expected.shape[0], nt, xi.size)
        assert got.tobytes() == expected.tobytes()


def test_zero_load(space_p1_grid4, case):
    space = space_p1_grid4
    load = space.restrict(load6(space, lambda x, y: np.zeros((2,) + x.shape)))
    assert np.all(load == 0.0)


def test_unit_load_partition_of_unity(grid4):
    space = femspace.build_space(grid4, 1)
    load = load6(
        space, lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)])
    )
    ns = space.num_dofs
    assert load[:ns].sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(load[ns:], 0.0)


# --- dense oracle cross-checks ----------------------------------------------


def test_matrices_match_dense_oracle(space_grid2):
    space = space_grid2
    dense = dense_oracle.dense_matrices(space)
    free = dense_oracle.velocity_free_indices(space)

    disc = Discretization(space.mesh, space.degree)
    m = dense_oracle.restrict_matrix(space, disc.mass)
    a = dense_oracle.restrict_matrix(space, disc.stiffness)
    g, s = disc.G, disc.stiffness

    assert abs(m.toarray() - dense["M"][np.ix_(free, free)]).max() <= 1e-13
    assert abs(a.toarray() - dense["A"][np.ix_(free, free)]).max() <= 1e-13
    assert abs(g.toarray() - dense["G"][free]).max() <= 1e-13
    assert abs(s.toarray() - dense["S"]).max() <= 1e-13
    assert abs(g.toarray() + dense["D"][:, free].T).max() <= 1e-13


def test_load_matches_dense_oracle(grid2, case):
    space = femspace.build_space(grid2, 1)
    rule = femspace.quadrature(6)
    ours = load6(space, case.steady_forcing)

    def pointwise(x, y):
        return case.steady_forcing(np.asarray(x), np.asarray(y))

    theirs = dense_oracle.dense_load(space, pointwise, rule)
    assert abs(ours - theirs).max() <= 1e-13


def test_symmetry(space_p1_grid4):
    disc = Discretization(space_p1_grid4.mesh, 1)
    for mat in (
        dense_oracle.vector_matrix(disc.mass),
        dense_oracle.vector_matrix(disc.stiffness),
        disc.stiffness,
    ):
        assert abs(mat - mat.T).max() <= 1e-14


def is_canonical_csr(a):
    """True when column indices are sorted and unique within each row."""
    a = a.tocsr()
    for r in range(a.shape[0]):
        cols = a.indices[a.indptr[r] : a.indptr[r + 1]]
        if cols.size > 1 and np.any(np.diff(cols) <= 0):
            return False
    return True


def test_is_canonical_csr():
    good = sparse.csr_array(np.eye(3))
    assert is_canonical_csr(good)
    bad = sparse.csr_array(
        (np.array([1.0, 2.0]), np.array([1, 0]), np.array([0, 2, 2, 2])), shape=(3, 3)
    )
    assert not is_canonical_csr(bad)


def test_matrices_are_canonical_csr(space_p1_grid4):
    disc = Discretization(space_p1_grid4.mesh, 1)
    for mat in (dense_oracle.vector_matrix(disc.mass), disc.G):
        assert is_canonical_csr(mat)


def test_accumulation_is_first_term_plus_the_rest():
    # four elements on the same two DOFs: each entry sums one term per
    # element, in element order, as a0 + ((a1 + a2) + a3); on the three
    # entries below, the sequential sum ((a0 + a1) + a2) + a3, which
    # np.bincount gives, differs
    space = SimpleNamespace(element_dofs=np.array([[0, 1]] * 4), num_dofs=2)
    terms = np.array([
        [[1.0, 1e16], [1.0, 0.0]],
        [[1e16, 1.0], [1e16, 0.0]],
        [[-1e16, 1.0], [-1e16, 0.0]],
        [[1.0, -1e16], [0.0, 0.0]],
    ])
    out = assembly._scatter(assembly._element_pattern(space), terms).toarray()
    # [1, 1e16, -1e16, 1], [1e16, 1, 1, -1e16] and [1, 1e16, -1e16, 0]
    assert out.tolist() == [[2.0, 2.0], [1.0, 0.0]]
    sequential = np.zeros((2, 2))
    for elem in terms:
        sequential += elem
    assert sequential.tolist() == [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_load_accumulation_matches_unbuffered_add(grid4, case, degree):
    # reference: the same element loads summed by np.add.at, a sequential
    # element-major sum; on the 4 x 4 grid and on a 6 x 6 one, where the
    # order of a sum shows in more entries than on power-of-two grids
    for grid in (grid4, mesh.build_grid(6)):
        space = femspace.build_space(grid, degree)
        disc = Discretization(grid, degree)
        w, vals, det = disc.quadrature
        for f in (case.steady_forcing, case.steady_pressure):
            fv = disc.at_quadrature_points(f)
            ref = np.zeros(fv.shape[0] * space.num_dofs)
            for c, block in enumerate(fv):
                elem = np.einsum("q,tq,qi,t->ti", w, block, vals, det)
                np.add.at(ref, c * space.num_dofs + space.element_dofs, elem)
            assert np.array_equal(load6(space, f), ref)


def test_assembly_bit_reproducible(grid4):
    a1 = Discretization(grid4, 2).stiffness
    a2 = Discretization(grid4, 2).stiffness
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(a1.indices, a2.indices)


def test_basis_integrals_sum_to_measure(grid4):
    for degree in (1, 2):
        w = Discretization(grid4, degree).mean_weights
        assert w.sum() == pytest.approx(1.0, abs=1e-13)



@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_vector_load_is_its_component_loads(grid4, case, degree):
    # a vector field gives two blocks, each bit-identical to the scalar
    # load of that component
    space = femspace.build_space(grid4, degree)
    vector = load6(space, case.steady_forcing)
    parts = [
        load6(space, lambda x, y, c=c: case.steady_forcing(x, y)[c])
        for c in range(2)
    ]
    assert np.array_equal(vector, np.concatenate(parts))


@pytest.mark.parametrize("degree", [1, 2], ids=["P1", "P2"])
def test_vector_interpolant_is_its_component_interpolants(grid4, case, degree):
    space = femspace.build_space(grid4, degree)
    vector = femspace.interpolate(space, case.steady_velocity)
    parts = [
        femspace.interpolate(space, lambda x, y, c=c: case.steady_velocity(x, y)[c])
        for c in range(2)
    ]
    assert np.array_equal(vector, np.concatenate(parts))
