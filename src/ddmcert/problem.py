"""Elliptic model problem, P1 elements, quadrature, and error evaluation.

The model problem is  div p + f = 0,  p = A grad u  in Omega,  u = u_g on the
boundary, with a constant symmetric positive-definite coefficient A.  Scalar
callables (f, u_g, exact solution) receive point arrays of shape (..., 2) and
return values of shape (...); gradient callables return shape (..., 2).

The functions here compute; they keep nothing.  2x2 coefficient products
are written out (``mat_vec``, ``quad_form``): ``einsum`` over a length-2
axis costs more than its arithmetic.  ``solve_dirichlet`` makes on the whole mesh the
``linalg.dirichlet_correction`` that every Schwarz subdomain solve makes,
with a ``linalg.SymmetricFactorization`` of its own.
Tables that stay the same for a whole run are kept by their owners: the P1
gradients of ``p1_gradients`` on the ``TriMesh`` (``mesh.p1_grads``), and
the cell integrals of f, the oscillation of f (``f_oscillation``) and the
degree-5 moments of the exact gradient (``exact_grad_moments``: its mean
and its centered spread per triangle, formed a block of triangles at a
time) on the ``flux.CorrectorSolver`` of a run.  The energy error from
those moments is ``majorant.energy_error``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh, MeshError
from . import linalg

# Order-2 rule: edge midpoints, equal weights.  Exact for quadratics.
_MID_BARY = np.array([[0.0, 0.5, 0.5],
                      [0.5, 0.0, 0.5],
                      [0.5, 0.5, 0.0]])
_MID_W = np.full(3, 1.0 / 3.0)

# Degree-5 rule: centroid plus two symmetric point groups.
_S15 = np.sqrt(15.0)
_B1 = (6.0 - _S15) / 21.0
_B2 = (6.0 + _S15) / 21.0
_W1 = (155.0 - _S15) / 1200.0
_W2 = (155.0 + _S15) / 1200.0
_D5_BARY = np.array(
    [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
     [1.0 - 2.0 * _B1, _B1, _B1],
     [_B1, 1.0 - 2.0 * _B1, _B1],
     [_B1, _B1, 1.0 - 2.0 * _B1],
     [1.0 - 2.0 * _B2, _B2, _B2],
     [_B2, 1.0 - 2.0 * _B2, _B2],
     [_B2, _B2, 1.0 - 2.0 * _B2]])
_D5_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def quad_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and unit-area weights of the requested rule."""
    if degree <= 2:
        return _MID_BARY, _MID_W
    return _D5_BARY, _D5_W


def mat_vec(M, x0, x1):
    """M x by components, for a 2x2 M and x given as arrays x0, x1."""
    return M[0, 0] * x0 + M[0, 1] * x1, M[1, 0] * x0 + M[1, 1] * x1


def quad_form(M, x0, x1):
    """x . M x by components, rounded as from ``mat_vec``, with two arrays
    of the size of x0 made; x0 is overwritten."""
    dens = M[0, 0] * x0
    scratch = M[0, 1] * x1
    dens += scratch
    dens *= x0                                  # x0 (M x)_0
    np.multiply(M[1, 0], x0, out=scratch)
    np.multiply(M[1, 1], x1, out=x0)            # x0 is scratch from here
    scratch += x0
    scratch *= x1
    dens += scratch
    return dens


def tri_quad_points(mesh: TriMesh, degree: int = 2):
    """Physical quadrature points (T, Q, 2) and weights (T, Q) per triangle."""
    bary, w = quad_rule(degree)
    pts = bary @ mesh.vertices[mesh.triangles]        # (T, Q, 2)
    weights = mesh.areas[:, None] * w[None, :]
    return pts, weights


def p1_gradients(mesh: TriMesh) -> np.ndarray:
    """Gradients (T, 3, 2) of the three nodal basis functions per triangle."""
    p = mesh.vertices[mesh.triangles]
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3, :] - p[:, (i + 1) % 3, :]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    return grads / (2.0 * mesh.areas[:, None, None])


@dataclass
class ScalarFieldP1:
    """Continuous piecewise-linear scalar field given by nodal values."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError("nodal value count does not match vertex count")

    def gradient(self) -> np.ndarray:
        """Piecewise-constant gradient, one row per triangle."""
        g = self.mesh.p1_grads
        vals = self.values[self.mesh.triangles]        # (T, 3)
        return np.einsum("ti,tid->td", vals, g)


@dataclass
class EllipticProblem:
    """Coefficient matrix A (its inverse ``A_inv`` formed once, read-only,
    and its smallest eigenvalue ``C_min``), source, boundary datum,
    optional exact solution."""

    A: np.ndarray
    f: Callable
    u_g: Callable
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    C_min: float = field(init=False)
    A_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.A.shape != (2, 2) or not np.allclose(self.A, self.A.T):
            raise ValueError("A must be a symmetric 2x2 matrix")
        eigs = np.linalg.eigvalsh(self.A)
        if eigs[0] <= 0:
            raise ValueError("A must be positive definite")
        self.C_min = float(eigs[0])
        self.A_inv = np.linalg.inv(self.A)
        self.A_inv.flags.writeable = False


def manufactured_lshape_problem() -> EllipticProblem:
    """Model problem on the L-shape with a known smooth solution.

    A is the identity and u_g is the trace of

        u(x, y) = (1/pi^2) (sin(pi x) sin(pi y)
                            + 1/2 (1 - cos(pi x)) (1 - cos(pi y))),

    so f = -Laplace(u) = 2 sin(pi x) sin(pi y)
           - 1/2 (cos(pi x)(1 - cos(pi y)) + (1 - cos(pi x)) cos(pi y)).
    """
    pi = np.pi

    def u(p):
        x, y = p[..., 0], p[..., 1]
        return (np.sin(pi * x) * np.sin(pi * y)
                + 0.5 * (1 - np.cos(pi * x)) * (1 - np.cos(pi * y))) / pi**2

    def grad_u(p):
        x, y = p[..., 0], p[..., 1]
        gx = (np.cos(pi * x) * np.sin(pi * y)
              + 0.5 * np.sin(pi * x) * (1 - np.cos(pi * y))) / pi
        gy = (np.sin(pi * x) * np.cos(pi * y)
              + 0.5 * (1 - np.cos(pi * x)) * np.sin(pi * y)) / pi
        return np.stack([gx, gy], axis=-1)

    def f(p):
        x, y = p[..., 0], p[..., 1]
        return (2.0 * np.sin(pi * x) * np.sin(pi * y)
                - 0.5 * (np.cos(pi * x) * (1 - np.cos(pi * y))
                         + (1 - np.cos(pi * x)) * np.cos(pi * y)))

    return EllipticProblem(A=np.eye(2), f=f, u_g=u, exact_u=u, exact_grad=grad_u)


def assemble_stiffness(mesh: TriMesh, A) -> sp.csr_matrix:
    """Stiffness matrix of the bilinear form  integral A grad u . grad w.

    Parameters
    ----------
    mesh : TriMesh
    A : (2, 2) array
        Constant coefficient matrix.

    Returns
    -------
    scipy.sparse.csr_matrix
        The (n_vertices, n_vertices) matrix, exactly symmetric.
    """
    A = np.asarray(A, dtype=float)
    if np.any(mesh.signed_areas() <= 0):
        raise MeshError("mesh contains a degenerate triangle")
    # its own gradients: reading ``mesh.p1_grads`` would fill the mesh's
    # table before the sweeps and raise h = 1/128's peak RSS by about 6 MB
    g = p1_gradients(mesh)                              # (T, 3, 2)
    ag = np.einsum("de,tje->tjd", A, g)
    k_loc = np.einsum("tid,tjd->tij", g, ag) * mesh.areas[:, None, None]
    k_loc = 0.5 * (k_loc + k_loc.transpose(0, 2, 1))    # exact symmetry
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_load(mesh: TriMesh, f) -> np.ndarray:
    """Load vector  integral f phi_i  via the three-midpoint rule."""
    pts, _ = tri_quad_points(mesh, degree=2)
    fvals = np.asarray(f(pts), dtype=float)             # (T, 3)
    contrib = (mesh.areas[:, None] / 3.0) * (fvals @ _MID_BARY)
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(),
                       mesh.n_vertices)


def solve_dirichlet(mesh: TriMesh, K, F, boundary_nodes,
                    boundary_values) -> ScalarFieldP1:
    """The solution of K x = F with prescribed nodal boundary values.

    x starts from the boundary values, zero elsewhere, and takes the
    Dirichlet correction on the other nodes.
    """
    x = np.zeros(K.shape[0])
    x[boundary_nodes] = boundary_values
    free = np.setdiff1d(np.arange(len(x)), boundary_nodes)
    if len(free):
        fact = linalg.SymmetricFactorization(K[free][:, free])
        x[free] += linalg.dirichlet_correction(fact, K, F, x, free)
    return ScalarFieldP1(mesh, x)


# Triangles per block of ``exact_grad_moments``: its temporaries stay near
# 1 MB whatever the mesh.
_MOMENT_BLOCK = 4096


def exact_grad_moments(mesh: TriMesh, problem: EllipticProblem):
    """The degree-5 moments of the exact gradient g on every triangle: its
    mean gbar = sum_q w_q g(x_q) (T, 2) and its centered spread
    |T| sum_q w_q (g(x_q) - gbar) . A (g(x_q) - gbar) (T,).

    The unit-area weights sum to 1 and the deviations g(x_q) - gbar have
    weighted mean zero, so for any constant c the degree-5 rule gives
    int_T (g - c) . A (g - c) = spread + |T| (gbar - c) . A (gbar - c)
    exactly, with no cancellation.  Formed ``_MOMENT_BLOCK`` triangles at
    a time, so that the (T, 7, 2) values are never held at once.
    """
    bary, w = quad_rule(5)
    T = mesh.n_triangles
    mean = np.empty((T, 2))
    spread = np.empty(T)
    for start in range(0, T, _MOMENT_BLOCK):
        t = slice(start, start + _MOMENT_BLOCK)
        g = problem.exact_grad(bary @ mesh.vertices[mesh.triangles[t]])
        m = np.einsum("q,tqd->td", w, g)                # (n, 7, 2) -> (n, 2)
        g = g - m[:, None, :]                           # g may be read-only
        dens = quad_form(problem.A, g[..., 0], g[..., 1])
        spread[t] = mesh.areas[t] * np.einsum("tq,q->t", dens, w)
        mean[t] = m
    return mean, spread


def f_cell_integrals(mesh: TriMesh, f):
    """Per-triangle integrals of f and f^2 with the degree-5 rule."""
    pts, w = tri_quad_points(mesh, degree=5)
    fv = np.asarray(f(pts), dtype=float)
    return (w * fv).sum(axis=1), (w * fv * fv).sum(axis=1)


def f_oscillation(mesh: TriMesh, f_tri: np.ndarray,
                  f_sq: np.ndarray) -> np.ndarray:
    """Per triangle, the oscillation int_T f^2 - (int_T f)^2 / |T| of f,
    from the cell integrals ``f_tri``/``f_sq`` of f and f^2."""
    return f_sq - f_tri * f_tri / mesh.areas
