import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from stokesproj import femspace, mesh, metrics
from stokesproj.assembly import Discretization


def exact_monomial_integral(p, q):
    """Integral of x^p y^q over the reference triangle: p! q! / (p+q+2)!."""
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


# --- reference basis ---------------------------------------------------------


def test_p1_barycenter_values():
    vals, _ = femspace.basis(1, [(1 / 3, 1 / 3)])
    assert np.allclose(vals[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_p1_gradient_sum_zero():
    _, grads = femspace.basis(1, [(0.5, 0.3)])
    assert np.allclose(grads[0].sum(axis=0), 0.0, atol=1e-15)


def test_p2_vertex_function_vanishes_where_factor_does():
    # basis 1 is lam1 (2 lam1 - 1) = xi (2 xi - 1); any point with xi = 0
    vals, _ = femspace.basis(2, [(0.0, 0.3)])
    assert vals[0, 1] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity_and_kronecker(degree):
    rng = np.random.default_rng(7)
    b = rng.dirichlet(np.ones(3), size=100)
    vals, grads = femspace.basis(degree, b[:, 1:3])
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-13
    assert np.max(np.abs(grads.sum(axis=1))) <= 1e-13
    nodes = dense_oracle._NODES[degree]
    nodal, _ = femspace.basis(degree, nodes)
    assert np.max(np.abs(nodal - np.eye(len(nodes)))) <= 1e-13


@pytest.mark.parametrize("degree", [1, 2])
def test_eval_matches_vandermonde_basis(degree):
    # the barycentric formulas against the oracle's basis from inverting
    # the monomial Vandermonde system at the nodes
    points = np.random.default_rng(11).dirichlet(np.ones(3), size=50)[:, 1:3]
    vals, grads = femspace.basis(degree, points)
    ref_vals, ref_grads = dense_oracle.eval_basis(degree, points)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-13
    assert np.max(np.abs(grads - ref_grads)) <= 1e-13


# --- quadrature --------------------------------------------------------------


def test_three_point_rule():
    rule = femspace.quadrature(2)
    assert len(rule.weights) == 3
    assert np.allclose(rule.weights, 1 / 6)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_constant_integrates_to_half(degree):
    rule = femspace.quadrature(degree)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)


def test_degree6_exactness_x2y2():
    rule = femspace.quadrature(6)
    ref = rule.points
    val = np.sum(rule.weights * ref[:, 0] ** 2 * ref[:, 1] ** 2)
    assert val == pytest.approx(1.0 / 180.0, rel=1e-13)


def test_unsupported_quadrature_degree():
    with pytest.raises(ValueError):
        femspace.quadrature(3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_quadrature_monomial_exactness(p, q):
    for degree in (2, 4, 6):
        if p + q > degree:
            continue
        rule = femspace.quadrature(degree)
        ref = rule.points
        val = np.sum(rule.weights * ref[:, 0] ** p * ref[:, 1] ** q)
        assert val == pytest.approx(exact_monomial_integral(p, q), rel=1e-13)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_quadrature_random_polynomials(degree):
    rng = np.random.default_rng(degree)
    rule = femspace.quadrature(degree)
    ref = rule.points
    exps = [(p, q) for p in range(degree + 1) for q in range(degree + 1 - p)]
    for _ in range(10):
        coeffs = rng.standard_normal(len(exps))
        got = sum(
            c * np.sum(rule.weights * ref[:, 0] ** p * ref[:, 1] ** q)
            for c, (p, q) in zip(coeffs, exps)
        )
        exact = sum(c * exact_monomial_integral(p, q) for c, (p, q) in zip(coeffs, exps))
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-15)


# --- global spaces -----------------------------------------------------------


def test_space_dof_counts(grid2):
    space = femspace.build_space(grid2, 1)
    assert space.num_dofs == 9
    assert femspace.interpolate(space, lambda x, y: np.stack([x, y])).size == 18
    assert dense_oracle.dirichlet_dofs(space).size == 16
    assert femspace.build_space(grid2, 2).num_dofs == 25  # 9 vertices + 16 edges


def test_pressure_space_has_no_dirichlet(grid2):
    # every pressure DOF, boundary nodes included, is an unknown: the
    # gradient keeps a column for each and a row for each free velocity DOF
    disc = Discretization(grid2, 1)
    assert disc.G.shape == (2 * disc.space.free_scalar.size, disc.space.num_dofs)


@pytest.mark.parametrize("degree", [1, 2])
def test_every_dof_referenced(grid4, degree):
    space = femspace.build_space(grid4, degree)
    assert np.array_equal(
        np.unique(space.element_dofs), np.arange(space.num_dofs)
    )


def test_p2_boundary_midpoints(grid2):
    space = femspace.build_space(grid2, 2)
    x, y = space.node_coords[:, 0], space.node_coords[:, 1]
    geometric = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    boundary = np.ones(space.num_dofs, dtype=bool)
    boundary[space.free_scalar] = False
    assert np.array_equal(boundary, geometric)


@pytest.mark.parametrize("n", range(1, 9))
def test_p2_numbering_matches_row_unique_of_the_vertex_pairs(n):
    # the P2 nodes are the vertices in mesh order, then the midpoints of
    # the 3n^2 + 2n edges in lexicographic order of their sorted vertex
    # pairs (reference: the row-unique of the triangles' local edges
    # (0,1), (1,2), (2,0)); every edge bounds one or two triangles, and
    # the 4n midpoints of the edges of one triangle are the boundary ones
    m = mesh.build_grid(n)
    space = femspace.build_space(m, 2)
    local = np.concatenate(
        [m.triangles[:, [0, 1]], m.triangles[:, [1, 2]], m.triangles[:, [2, 0]]], axis=0
    )
    edges, inverse = np.unique(np.sort(local, axis=1), axis=0, return_inverse=True)
    inverse, nv = inverse.ravel(), m.num_vertices
    assert len(edges) == 3 * n * n + 2 * n and space.num_dofs == nv + len(edges)
    assert np.array_equal(space.node_coords[:nv], m.vertices)
    midpoints = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
    assert np.array_equal(space.node_coords[nv:], midpoints)
    element_dofs = np.hstack([m.triangles, nv + inverse.reshape(3, -1).T])
    assert np.array_equal(space.element_dofs, element_dofs)
    assert space.element_dofs.dtype == element_dofs.dtype
    triangles_of_edge = np.bincount(inverse, minlength=len(edges))
    assert set(np.unique(triangles_of_edge)) <= {1, 2}
    boundary = np.ones(space.num_dofs, dtype=bool)
    boundary[space.free_scalar] = False
    assert np.array_equal(boundary[nv:], triangles_of_edge == 1)
    assert np.count_nonzero(boundary[nv:]) == 4 * n
    again = femspace.build_space(mesh.build_grid(n), 2)
    assert np.array_equal(again.element_dofs, space.element_dofs)


def test_p1_space_shares_the_read_only_mesh_arrays():
    # a P1 space holds the mesh's arrays, not copies; the mesh is
    # immutable, so writing to one of its arrays raises
    m = mesh.build_grid(3)
    space = femspace.build_space(m, 1)
    assert np.shares_memory(space.element_dofs, m.triangles)
    assert np.shares_memory(space.node_coords, m.vertices)
    for array in (m.vertices, m.triangles, m.boundary_vertex):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def test_restrict_extend_roundtrip(grid4):
    space = femspace.build_space(grid4, 1)
    rng = np.random.default_rng(3)
    full = rng.standard_normal(2 * space.num_dofs)
    full[dense_oracle.dirichlet_dofs(space)] = 0.0
    assert np.array_equal(space.extend(space.restrict(full).reshape(2, -1)), full)


# --- interpolation -----------------------------------------------------------


def test_interpolate_constant(grid4):
    space = femspace.build_space(grid4, 1)
    coeffs = femspace.interpolate(space, lambda x, y: 3.25)
    assert np.allclose(coeffs, 3.25)


def test_interpolate_linear_exact(grid4):
    disc = Discretization(grid4, 1)
    space = disc.space
    coeffs = femspace.interpolate(space, lambda x, y: x)
    assert np.allclose(coeffs, space.node_coords[:, 0], atol=1e-15)
    err = metrics.error_vs_exact(disc, coeffs, disc.at_quadrature_points(lambda x, y: x))
    assert err <= 1e-13


def test_interpolate_manufactured_pressure_value(grid2, case):
    space = femspace.build_space(grid2, 1)
    coeffs = femspace.interpolate(space, case.steady_pressure)
    center = np.flatnonzero(
        (space.node_coords[:, 0] == 0.5) & (space.node_coords[:, 1] == 0.5)
    )[0]
    expected = math.sin(0.5) * math.cos(0.5) + (math.cos(1.0) - 1.0) * math.sin(1.0)
    assert coeffs[center] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2])
def test_interpolation_reproduces_polynomials(grid4, degree):
    rng = np.random.default_rng(11)
    disc = Discretization(grid4, degree)
    space = disc.space
    for _ in range(5):
        c = rng.standard_normal(6)

        def poly(x, y, c=c):
            out = c[0] + c[1] * x + c[2] * y
            if degree == 2:
                out = out + c[3] * x * x + c[4] * x * y + c[5] * y * y
            return out

        coeffs = femspace.interpolate(space, poly)
        assert metrics.error_vs_exact(disc, coeffs, disc.at_quadrature_points(poly)) <= 1e-13


def test_vector_interpolation_block_layout(grid2, case):
    space = femspace.build_space(grid2, 1)
    coeffs = femspace.interpolate(space, case.steady_velocity)
    ns = space.num_dofs
    vals = case.steady_velocity(space.node_coords[:, 0], space.node_coords[:, 1])
    assert np.allclose(coeffs[:ns], vals[0], atol=1e-15)
    assert np.allclose(coeffs[ns:], vals[1], atol=1e-15)
