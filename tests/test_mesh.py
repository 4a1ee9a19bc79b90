import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesproj import mesh


def triangle_areas(m):
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = m.vertices[m.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def test_smallest_grid():
    m = mesh.build_grid(1)
    assert m.num_vertices == 4
    assert len(m.triangles) == 2
    assert m.boundary_vertex.all()


def test_grid2_counts():
    m = mesh.build_grid(2)
    assert m.num_vertices == 9
    assert len(m.triangles) == 8
    assert m.boundary_vertex.sum() == 8
    interior = m.vertices[~m.boundary_vertex]
    assert interior.shape == (1, 2)
    assert np.allclose(interior[0], [0.5, 0.5])


def test_grid20_matches_coarsest_experiment_resolution():
    m = mesh.build_grid(20)
    assert mesh.mesh_size(m) == pytest.approx(1.0 / 20)
    assert m.num_vertices == 21 * 21
    assert len(m.triangles) == 2 * 400


@pytest.mark.parametrize("n,expected", [(10, 0.1), (160, 0.00625), (1, 1.0)])
def test_mesh_size(n, expected):
    assert mesh.mesh_size(mesh.build_grid(n)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_rejects_bad_resolution(bad):
    with pytest.raises(ValueError):
        mesh.build_grid(bad)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_grid_invariants(n):
    m = mesh.build_grid(n)
    assert m.num_vertices == (n + 1) ** 2
    assert len(m.triangles) == 2 * n * n
    areas = triangle_areas(m)
    assert np.all(areas > 0)
    assert np.allclose(areas, 1.0 / (2 * n * n), rtol=1e-13)
    assert abs(areas.sum() - 1.0) <= 1e-14
    # boundary flags exactly for vertices with a coordinate in {0, 1}
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    on = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    assert np.array_equal(on, m.boundary_vertex)


def test_counterclockwise_orientation():
    m = mesh.build_grid(3)
    assert np.all(triangle_areas(m) > 0)


def test_swne_diagonal_direction():
    # in each cell the shared diagonal runs SW -> NE
    m = mesh.build_grid(1)
    lower, upper = m.triangles
    sw = 0  # vertex (0, 0)
    ne = 3  # vertex (1, 1)
    assert {sw, ne} <= set(lower) and {sw, ne} <= set(upper)


def test_connectivity_deterministic():
    a, b = mesh.build_grid(7), mesh.build_grid(7)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.vertices, b.vertices)


def test_vertex_ordering_row_major():
    m = mesh.build_grid(2)
    # y-major, x-minor: index j*(n+1)+i holds (i/n, j/n)
    assert np.allclose(m.vertices[1], [0.5, 0.0])
    assert np.allclose(m.vertices[3], [0.0, 0.5])

