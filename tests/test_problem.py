import math

import numpy as np
import pytest

from ddmcert.mesh import TriMesh, build_lshape_mesh
from ddmcert.problem import (EllipticProblem, ScalarFieldP1, assemble_load,
                             assemble_stiffness, energy_error,
                             manufactured_lshape_problem, solve_dirichlet)

PI = math.pi


def unit_right_triangle() -> TriMesh:
    """Single triangle (0,0),(1,0),(0,1) built by hand."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    edge_tris = np.array([[0, -1], [0, -1], [0, -1]])
    flags = np.array([True, True, True])
    tri_edges = np.array([[2, 1, 0]])    # edge opposite each local vertex
    return TriMesh(vertices, triangles, edges, edge_tris, flags, tri_edges,
                   mesh_size_h=1.0)


def test_manufactured_values():
    p = manufactured_lshape_problem()
    pts = np.array([[0.5, 0.5]])
    assert np.isclose(p.exact_u(pts)[0], 1.5 / PI**2)
    # homogeneous trace on the axes
    axis = np.array([[0.0, 0.7], [0.0, 1.9], [0.3, 0.0], [2.0, 0.0]])
    assert np.allclose(p.exact_u(axis), 0.0, atol=1e-15)
    # reentrant segment x=1, y in [1,2]
    ys = np.linspace(1.0, 2.0, 7)
    seg = np.column_stack([np.ones_like(ys), ys])
    assert np.allclose(p.exact_u(seg), (1 - np.cos(PI * ys)) / PI**2)
    assert np.allclose(p.u_g(seg), p.exact_u(seg))


def test_manufactured_source():
    p = manufactured_lshape_problem()
    assert np.isclose(p.f(np.array([[0.5, 0.5]]))[0], 2.0)
    # f = -Laplace(u) via central differences
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    d = 1e-5
    for x, y in pts:
        stencil = np.array([[x, y], [x + d, y], [x - d, y],
                            [x, y + d], [x, y - d]])
        u = p.exact_u(stencil)
        lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / d**2
        assert abs(p.f(np.array([[x, y]]))[0] + lap) < 1e-5


def test_manufactured_gradient_consistent():
    p = manufactured_lshape_problem()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(1, 10, 2))
    g = p.exact_grad(pts)
    d = 1e-6
    gx = (p.exact_u(pts + [d, 0]) - p.exact_u(pts - [d, 0])) / (2 * d)
    gy = (p.exact_u(pts + [0, d]) - p.exact_u(pts - [0, d])) / (2 * d)
    assert np.allclose(g[..., 0], gx, atol=1e-8)
    assert np.allclose(g[..., 1], gy, atol=1e-8)


def test_problem_rejects_bad_A():
    with pytest.raises(ValueError):
        EllipticProblem(A=np.array([[1.0, 2.0], [0.0, 1.0]]),
                        f=lambda p: 0 * p[..., 0],
                        u_g=lambda p: 0 * p[..., 0])
    with pytest.raises(ValueError):
        EllipticProblem(A=np.array([[1.0, 0.0], [0.0, -1.0]]),
                        f=lambda p: 0 * p[..., 0],
                        u_g=lambda p: 0 * p[..., 0])


def test_local_stiffness_reference_element():
    mesh = unit_right_triangle()
    K = assemble_stiffness(mesh, np.eye(2)).toarray()
    ref = np.array([[1.0, -0.5, -0.5],
                    [-0.5, 0.5, 0.0],
                    [-0.5, 0.0, 0.5]])
    assert np.allclose(K, ref)
    K2 = assemble_stiffness(mesh, 2 * np.eye(2)).toarray()
    assert np.allclose(K2, 2 * ref)


def test_stiffness_rowsums_and_symmetry():
    mesh, _ = build_lshape_mesh(0.25)
    K = assemble_stiffness(mesh, np.eye(2))
    assert np.allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0, atol=1e-13)
    assert (K != K.T).nnz == 0


def test_load_vector():
    mesh = unit_right_triangle()
    one = assemble_load(mesh, lambda p: np.ones(p.shape[:-1]))
    assert np.allclose(one, [1 / 6, 1 / 6, 1 / 6])
    zero = assemble_load(mesh, lambda p: np.zeros(p.shape[:-1]))
    assert np.allclose(zero, 0.0)
    fx = assemble_load(mesh, lambda p: p[..., 0])
    assert np.allclose(fx, [1 / 24, 1 / 12, 1 / 24])


def test_load_sum_measures_domain():
    mesh, _ = build_lshape_mesh(1 / 8)
    load = assemble_load(mesh, lambda p: np.full(p.shape[:-1], 2.5))
    assert np.isclose(load.sum(), 2.5 * 3.0)


def test_solve_dirichlet_reproduces_affine():
    mesh, _ = build_lshape_mesh(0.25)
    K = assemble_stiffness(mesh, np.eye(2))
    F = np.zeros(mesh.n_vertices)
    bdry = mesh.boundary_vertices

    v = solve_dirichlet(mesh, K, F, bdry, np.full(len(bdry), 4.0))
    assert np.allclose(v.values, 4.0, atol=1e-10)

    v = solve_dirichlet(mesh, K, F, bdry, mesh.vertices[bdry, 0])
    assert np.allclose(v.values, mesh.vertices[:, 0], atol=1e-10)


def test_solve_dirichlet_convergence_rate():
    p = manufactured_lshape_problem()
    errs = []
    for h in (1 / 8, 1 / 16):
        mesh, _ = build_lshape_mesh(h)
        K = assemble_stiffness(mesh, p.A)
        F = assemble_load(mesh, p.f)
        bdry = mesh.boundary_vertices
        v = solve_dirichlet(mesh, K, F, bdry, p.u_g(mesh.vertices[bdry]))
        errs.append(energy_error(v, p))
    # first-order energy convergence for the smooth solution
    assert 1.8 < errs[0] / errs[1] < 2.2


def test_energy_error_basics():
    p = manufactured_lshape_problem()
    mesh, _ = build_lshape_mesh(1 / 8)
    vI = ScalarFieldP1.interpolate(mesh, p.exact_u)
    base = energy_error(vI, p)
    assert base > 0

    bumped = vI.copy()
    interior = np.nonzero(~mesh.boundary_vertex_mask)[0][0]
    bumped.values[interior] += 0.05
    assert energy_error(bumped, p) > base

    mesh2, _ = build_lshape_mesh(1 / 16)
    vI2 = ScalarFieldP1.interpolate(mesh2, p.exact_u)
    assert 1.8 < base / energy_error(vI2, p) < 2.2


def test_energy_error_affine_exact():
    mesh, _ = build_lshape_mesh(0.5)
    affine = EllipticProblem(
        A=np.eye(2), f=lambda pts: np.zeros(pts.shape[:-1]),
        u_g=lambda pts: 2 * pts[..., 0] - pts[..., 1],
        exact_u=lambda pts: 2 * pts[..., 0] - pts[..., 1],
        exact_grad=lambda pts: np.broadcast_to(
            np.array([2.0, -1.0]), pts.shape[:-1] + (2,)))
    v = ScalarFieldP1.interpolate(mesh, affine.exact_u)
    assert energy_error(v, affine) < 1e-13


def test_galerkin_optimality():
    p = manufactured_lshape_problem()
    mesh, _ = build_lshape_mesh(0.25)
    K = assemble_stiffness(mesh, p.A)
    F = assemble_load(mesh, p.f)
    bdry = mesh.boundary_vertices
    vh = solve_dirichlet(mesh, K, F, bdry, p.u_g(mesh.vertices[bdry]))
    best = energy_error(vh, p)
    rng = np.random.default_rng(11)
    free = ~mesh.boundary_vertex_mask
    for _ in range(5):
        w = vh.copy()
        w.values[free] += 0.1 * rng.standard_normal(free.sum())
        assert energy_error(w, p) >= best
