import numpy as np
import pytest

from ddmcert.mesh import (MeshError, build_coarse_mesh, build_lshape_mesh,
                          build_rect_grid_decomposition, compatibility_check)


def test_lshape_quarter_counts():
    mesh, decomp = build_lshape_mesh(0.25)
    assert mesh.n_vertices == 65
    assert mesh.n_triangles == 96
    assert mesh.n_edges == 160
    # both interfaces carry 4 fine edges at h=1/4
    assert [len(g.edges) for g in decomp.interfaces] == [4, 4]


def test_lshape_unit_counts():
    mesh, decomp = build_lshape_mesh(1.0)
    assert mesh.n_vertices == 8
    assert mesh.n_triangles == 6
    assert all(len(g.edges) == 1 for g in decomp.interfaces)


def test_lshape_rejects_bad_h():
    with pytest.raises(MeshError):
        build_lshape_mesh(0.3)


@pytest.mark.parametrize("h", [1.0, 1 / 3, 1 / 8])
def test_uniform_areas_and_euler(h):
    mesh, _ = build_lshape_mesh(h)
    assert np.allclose(mesh.areas, h * h / 2)
    V, E, T = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    assert V - E + T == 1
    # positive orientation everywhere
    p = mesh.vertices[mesh.triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert (cross > 0).all()


def test_edge_adjacency_counts():
    mesh, _ = build_lshape_mesh(0.25)
    interior = ~mesh.boundary_edge_flags
    assert (mesh.edge_tris[interior] >= 0).all()
    assert (mesh.edge_tris[mesh.boundary_edge_flags, 1] == -1).all()
    assert (mesh.edge_tris[:, 0] >= 0).all()


def test_edges_numbered_by_first_occurrence():
    # reference: scan triangle by triangle, local edge by local edge
    mesh, _ = build_lshape_mesh(0.25)
    index, edges, adjacent = {}, [], []
    tri_edges = np.empty_like(mesh.triangles)
    for t, tri in enumerate(mesh.triangles):
        for loc in range(3):
            a, b = tri[(loc + 1) % 3], tri[(loc + 2) % 3]
            key = (min(a, b), max(a, b))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
                adjacent.append([])
            adjacent[index[key]].append(t)
            tri_edges[t, loc] = index[key]
    edge_tris = np.array([tris + [-1] * (2 - len(tris)) for tris in adjacent])
    assert np.array_equal(mesh.edges, np.array(edges))
    assert np.array_equal(mesh.tri_edges, tri_edges)
    assert np.array_equal(mesh.edge_tris, edge_tris)


def test_decomposition_partition():
    mesh, decomp = build_lshape_mesh(0.25)
    assert decomp.n_basic == 3
    assert decomp.n_overlap == 2
    # basic subdomains partition the triangle set
    assert sorted(np.concatenate([s.tris for s in decomp.basic]).tolist()) \
        == list(range(mesh.n_triangles))
    # overlap subdomains per the L-shape preset
    assert [tuple(o) for o in decomp.overlaps] == [(0, 1), (1, 2)]


def test_interface_orientation():
    _, decomp = build_lshape_mesh(0.25)
    g12, g23 = decomp.interfaces
    assert (g12.k, g12.j) == (0, 1)
    assert np.allclose(g12.normal, [0.0, -1.0])   # from omega_1 toward omega_2
    assert (g23.k, g23.j) == (1, 2)
    assert np.allclose(g23.normal, [1.0, 0.0])
    assert np.isclose(g12.length, 1.0) and np.isclose(g23.length, 1.0)
    for g in (g12, g23):
        assert np.isclose(np.hypot(*g.normal), 1.0)


def test_rect_triangle_counts():
    mesh, decomp, coarse = build_rect_grid_decomposition(4, 3, 1.0)
    assert coarse.N_cells == 24
    assert coarse.N_v == 20
    assert coarse.N_f == 43            # N_f = N_v + N - 1
    assert mesh.n_triangles == 24
    assert decomp.n_basic == 1


def test_rect_quad_counts():
    _, _, c1 = build_rect_grid_decomposition(1, 1, 1.0, cell_type="quad")
    assert (c1.N_cells, c1.N_v, c1.N_f) == (1, 4, 4)
    _, _, c2 = build_rect_grid_decomposition(2, 2, 1.0, cell_type="quad")
    assert (c2.N_cells, c2.N_v, c2.N_f) == (4, 9, 12)


def test_compatibility_fig3_hexagon():
    # triangulated hexagon: 6 cells, 8 vertices, 13 edges
    ok, slack = compatibility_check(6, 13, 0, 3)
    assert not ok and slack == -1
    ok, slack = compatibility_check(6, 13, 1, 3)
    assert ok and slack == 0


def test_compatibility_regular_grids():
    _, _, c11 = build_rect_grid_decomposition(1, 1, 1.0)
    ok, _ = compatibility_check(c11.N_cells, c11.N_f, c11.N_fD, c11.ell)
    assert not ok
    _, _, c22 = build_rect_grid_decomposition(2, 2, 1.0)
    ok, slack = compatibility_check(c22.N_cells, c22.N_f, c22.N_fD, c22.ell)
    assert ok and slack == 0


@pytest.mark.parametrize("mn,cell_type", [((2, 3), "triangle"),
                                          ((3, 3), "quad"),
                                          ((1, 4), "triangle"),
                                          ((5, 2), "quad")])
def test_compatibility_closed_form(mn, cell_type):
    # uniform ell-gon meshes: satisfied <=> N(ell-2) + N_fD >= N_v - 1
    m, n = mn
    for n_fd in (0, 1, 2, 5):
        _, _, c = build_rect_grid_decomposition(m, n, 1.0,
                                                cell_type=cell_type)
        ok, _ = compatibility_check(c.N_cells, c.N_f, n_fd, c.ell)
        closed = c.N_cells * (c.ell - 2) + n_fd >= c.N_v - 1
        assert ok == closed


def test_coarse_quad_mesh_tiles_domain():
    mesh, decomp = build_lshape_mesh(1 / 8)
    coarse = build_coarse_mesh(mesh, decomp, 0.25)
    cell_area = np.bincount(coarse.tri_cell, mesh.areas)
    assert np.isclose(cell_area.sum(), 3.0)      # |Omega| = 3
    assert np.allclose(cell_area, 0.0625)
    side = coarse.cell_verts[:, 2] - coarse.cell_verts[:, 0]
    assert np.allclose(side, 0.25)
    # each cell lives in exactly one basic subdomain
    assert (decomp.tri_subdomain == coarse.cell_sub[coarse.tri_cell]).all()
    assert (coarse.tri_cell >= 0).all()


def test_coarse_fine_identity_mesh():
    mesh, decomp = build_lshape_mesh(0.5)
    coarse = build_coarse_mesh(mesh, decomp, 0.5)
    assert coarse.ell == 3
    assert coarse.N_cells == mesh.n_triangles
    with pytest.raises(MeshError):
        build_coarse_mesh(mesh, decomp, 0.25)   # H finer than h


def test_coarse_h_must_divide():
    mesh, decomp = build_lshape_mesh(1 / 8)
    with pytest.raises(MeshError):
        build_coarse_mesh(mesh, decomp, 0.3)
