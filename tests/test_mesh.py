from dataclasses import replace

import numpy as np
import pytest

from ddmcert.flux import build_corrector_space
from ddmcert.mesh import (MeshError, build_coarse_mesh, build_lshape_mesh,
                          build_rect_mesh)


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
    # one basic subdomain per triangle, 32 triangles each
    assert decomp.tri_subdomain.shape == (mesh.n_triangles,)
    assert np.bincount(decomp.tri_subdomain).tolist() == [32, 32, 32]
    # overlap subdomains per the L-shape preset
    assert [tuple(o) for o in decomp.overlaps] == [(0, 1), (1, 2)]


def test_subdomain_arrays():
    mesh, decomp = build_lshape_mesh(0.25)
    # each area is its triangles' areas summed in triangle order
    for k in range(3):
        want = mesh.areas[np.flatnonzero(decomp.tri_subdomain == k)].sum()
        assert decomp.sub_area[k] == want
    assert np.allclose(decomp.sub_area, 1.0)
    assert np.array_equal(decomp.sub_bbox,
                          [[[0, 1], [1, 2]], [[0, 0], [1, 1]],
                           [[1, 0], [2, 1]]])
    for table in (decomp.sub_area, decomp.sub_bbox):
        assert not table.flags.writeable
    _, rect = build_rect_mesh(4, 3, 0.5)
    assert np.array_equal(rect.sub_bbox, [[[0, 0], [2, 1.5]]])
    assert np.isclose(rect.sub_area[0], 3.0)


def test_validate_rejects_a_subdomain_without_triangles():
    # a missing index would divide the c1 means by a zero area
    _, decomp = build_lshape_mesh(0.25)
    ts = decomp.tri_subdomain
    bad = replace(decomp, tri_subdomain=np.where(ts == 1, 2, ts))
    with pytest.raises(MeshError, match="no triangle"):
        bad.validate()


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
    mesh, decomp = build_rect_mesh(4, 3, 1.0)
    assert mesh.n_triangles == 24
    assert mesh.n_vertices == 20
    assert mesh.n_edges == 43          # N_f = N_v + N - 1
    assert decomp.n_basic == 1


@pytest.mark.parametrize("H", [1 / 4, 1 / 2, 1.0])
def test_coarse_triangulation_above_fine_size(H):
    mesh, decomp = build_lshape_mesh(1 / 8)
    coarse = build_coarse_mesh(mesh, decomp, H)
    tri = coarse.tri
    n = round(1 / H)
    assert tri.n_triangles == 2 * 3 * n * n
    # every fine centroid lies in its coarse triangle
    ct_verts = tri.vertices[tri.triangles]
    v = ct_verts[coarse.fine_tri_ct]
    cent = mesh.centroids()
    for i in range(3):
        a, b = v[:, (i + 1) % 3], v[:, (i + 2) % 3]
        cross = ((b[:, 0] - a[:, 0]) * (cent[:, 1] - a[:, 1])
                 - (b[:, 1] - a[:, 1]) * (cent[:, 0] - a[:, 0]))
        assert (cross > 0).all()
    # each coarse triangle is tiled by its fine triangles
    e1 = ct_verts[:, 1] - ct_verts[:, 0]
    e2 = ct_verts[:, 2] - ct_verts[:, 0]
    ct_area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.allclose(ct_area, 0.5 * H * H)
    assert np.allclose(np.bincount(coarse.fine_tri_ct, mesh.areas,
                                   tri.n_triangles), ct_area)
    assert (decomp.tri_subdomain
            == coarse.cell_sub[coarse.fine_tri_ct]).all()
    # the edges between cells of two subdomains are the coarse edges on
    # gamma_12 (y = 1, x <= 1) and gamma_23 (x = 1, y <= 1)
    x, y = 0.5 * (tri.vertices[tri.edges[:, 0]]
                  + tri.vertices[tri.edges[:, 1]]).T
    on = np.isclose(y, 1.0) & (x < 1.0) | np.isclose(x, 1.0) & (y < 1.0)
    t0, t1 = tri.edge_tris.T
    crossing = (t1 >= 0) & (coarse.cell_sub[t0] != coarse.cell_sub[t1])
    assert (crossing == on).all()
    # one dof per lattice side and per square (its diagonal), plus one per
    # interface side: H x H squares with a free diagonal count the same
    space = build_corrector_space(coarse, decomp, np.eye(2))
    sides = 3 * 2 * n * (n + 1) - 2 * n
    assert space.n_dofs == sides + 3 * n * n + 2 * n
    # each interface holds n coarse edges of length H
    for _, _, length in space.ifaces:
        assert np.allclose(length, np.full(n, H))
    if H == 1.0:
        assert space.n_dofs == 15


def test_coarse_fine_identity_mesh():
    mesh, decomp = build_lshape_mesh(0.5)
    coarse = build_coarse_mesh(mesh, decomp, 0.5)
    # the fine mesh is the coarse triangulation: its arrays are shared
    assert coarse.tri is mesh
    assert coarse.cell_sub is decomp.tri_subdomain
    with pytest.raises(MeshError):
        build_coarse_mesh(mesh, decomp, 0.25)   # H finer than h


def test_coarse_h_must_divide():
    mesh, decomp = build_lshape_mesh(1 / 8)
    with pytest.raises(MeshError):
        build_coarse_mesh(mesh, decomp, 0.3)
    mesh, decomp = build_lshape_mesh(1 / 6)
    with pytest.raises(MeshError, match="multiple"):
        build_coarse_mesh(mesh, decomp, 0.25)
    mesh, decomp = build_rect_mesh(3, 2, 0.25)
    with pytest.raises(MeshError, match="lattice"):
        build_coarse_mesh(mesh, decomp, 0.5)    # corner x = 0.75
