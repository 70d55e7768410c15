"""Structured triangulations, subdomain partitions, and coarse cell meshes.

The geometry handled here is deliberately narrow: axis-aligned rectilinear
domains meshed by a one-diagonal pattern (every grid square split by its
lower-left/upper-right diagonal only), partitioned into rectangular basic
subdomains that are grouped into overlapping subdomains.  Everything
downstream — subdomain solves, flux correctors, the error majorant — leans on
the bookkeeping assembled here: edge adjacency, interface orientation, and
Dirichlet-boundary grouping.

Geometry is stored as arrays, never as one object per element.  A
``TriMesh`` numbers its edges by first occurrence in the triangle list.  A
``CoarseMesh`` is a ``TriMesh`` plus two maps, built one way for every H:
the fine mesh itself at H = h, else the one-diagonal triangulation of the
H x H lattice squares of each basic subdomain.  ``fine_tri_ct`` gives the
coarse triangle of every fine one and ``cell_sub`` the basic subdomain of
every coarse one; ``flux.build_corrector_space`` derives the corrector's
edge classification and orientation from them.

All objects are treated as immutable once built; nothing in the package
mutates a mesh after construction, so concurrent reads are safe.  That lets
a ``TriMesh`` own its derived geometry: the P1 basis gradients, the edge
lengths and the side midpoints (the points of the degree-2 rule) are each
computed on first use, kept on the mesh and handed out read-only.  A
``DomainDecomposition`` records its partition once, as the basic subdomain
of every fine triangle (``tri_subdomain``), and derives the rest from it
the same way: two arrays per basic subdomain, its area ``sub_area`` (N,)
and its bounding box ``sub_bbox`` (N, 2, 2), and the tables of gradient
averaging, a key per triangle corner for its (subdomain, vertex) pair and
the area sum per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Raised for invalid mesh parameters or inconsistent mesh data."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with writes disabled, for tables shared by every reader."""
    a.flags.writeable = False
    return a


def _as_int_reciprocal(h: float, name: str = "h") -> int:
    """Return 1/h as an integer, rejecting spacings that do not divide 1."""
    if h <= 0:
        raise MeshError(f"{name} must be positive, got {h}")
    n = 1.0 / h
    n_int = int(round(n))
    if n_int < 1 or abs(n - n_int) > 1e-9 * n:
        raise MeshError(f"1/{name} must be a positive integer, got {name}={h}")
    return n_int


@dataclass
class TriMesh:
    """Conforming triangulation with full edge/triangle adjacency.

    Attributes
    ----------
    vertices : (V, 2) float array
        Vertex coordinates.
    triangles : (T, 3) int array
        Vertex index triples, counter-clockwise.
    edges : (E, 2) int array
        Vertex index pairs, each row sorted ascending.
    edge_tris : (E, 2) int array
        Adjacent triangle indices per edge; second entry is -1 on the
        boundary.
    boundary_edge_flags : (E,) bool array
        True for edges adjacent to exactly one triangle.
    tri_edges : (T, 3) int array
        Global edge index opposite each local vertex.
    mesh_size_h : float
        Nominal grid spacing of the structured mesh.

    The derived tables ``p1_grads``, ``edge_lengths`` and ``side_midpoints``
    are filled on first use and are read-only.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    boundary_edge_flags: np.ndarray
    tri_edges: np.ndarray
    mesh_size_h: float
    areas: np.ndarray = field(init=False, repr=False)
    boundary_vertex_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.areas = np.abs(self.signed_areas())
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[self.edges[self.boundary_edge_flags].ravel()] = True
        self.boundary_vertex_mask = mask

    # -- basic counts -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.nonzero(self.boundary_vertex_mask)[0]

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Length of every edge, (E,)."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return _read_only(np.hypot(d[:, 0], d[:, 1]))

    @cached_property
    def p1_grads(self) -> np.ndarray:
        """Gradients (T, 3, 2) of the three nodal basis functions per
        triangle, as ``problem.p1_gradients`` computes them."""
        from .problem import p1_gradients   # problem builds on this module
        return _read_only(p1_gradients(self))

    @cached_property
    def side_midpoints(self) -> np.ndarray:
        """Midpoint of the side opposite each local vertex, (T, 3, 2): the
        points of the degree-2 rule, as ``problem.tri_quad_points`` places
        them."""
        from .problem import tri_quad_points
        return _read_only(tri_quad_points(self, degree=2)[0])

    @classmethod
    def from_arrays(cls, vertices, triangles, mesh_size_h: float) -> "TriMesh":
        """Build a mesh (edges, adjacency) from vertex and triangle arrays.

        Edges are numbered by first occurrence, scanning triangle by
        triangle and local vertex by local vertex (edge ``loc`` is opposite
        vertex ``loc``); ``edge_tris`` lists the adjacent triangles in the
        same scan order.
        """
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        a = triangles[:, [1, 2, 0]].ravel()
        b = triangles[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, slot_key, counts = np.unique(
            lo * len(vertices) + hi, return_index=True, return_inverse=True,
            return_counts=True)
        if np.any(counts > 2):
            e = int(np.argmax(counts))
            raise MeshError(f"edge ({lo[first[e]]}, {hi[first[e]]}) adjacent "
                            f"to {counts[e]} triangles")
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        slot_edge = rank[slot_key.ravel()]
        tri_edges = slot_edge.reshape(-1, 3)
        edges = np.stack([lo, hi], axis=1)[first[by_first]]
        edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
        slot_tri = np.arange(len(slot_edge)) // 3
        is_first = np.zeros(len(slot_edge), dtype=bool)
        is_first[first] = True
        edge_tris[slot_edge[is_first], 0] = slot_tri[is_first]
        edge_tris[slot_edge[~is_first], 1] = slot_tri[~is_first]
        boundary = edge_tris[:, 1] < 0
        return cls(vertices, triangles, edges, edge_tris, boundary, tri_edges,
                   float(mesh_size_h))

    def validate(self) -> None:
        """Check structural invariants; raise MeshError on failure."""
        if np.any(self.signed_areas() <= 0):
            raise MeshError("triangle with non-positive signed area")
        counts = (self.edge_tris >= 0).sum(axis=1)
        if np.any(counts[self.boundary_edge_flags] != 1):
            raise MeshError("boundary edge not adjacent to exactly 1 triangle")
        if np.any(counts[~self.boundary_edge_flags] != 2):
            raise MeshError("interior edge not adjacent to exactly 2 triangles")
        euler = self.n_vertices - self.n_edges + self.n_triangles
        if euler != 1:
            raise MeshError(f"Euler relation violated: V-E+T = {euler}")


@dataclass
class Interface:
    """Oriented interface gamma_kj between basic subdomains (k < j).

    The unit normal points from omega_k toward omega_j.  ``edges`` lists the
    fine edges along the segment in traversal order; ``side_tris[:, 0]`` is
    the adjacent triangle on the omega_k side, ``side_tris[:, 1]`` on the
    omega_j side.  ``endpoints`` stores each edge's two vertices ordered
    along the traversal direction; ``corners[e, side, pos]`` is the corner
    3 t + i of ``endpoints[e, pos]`` in triangle t = ``side_tris[e, side]``.
    """

    k: int
    j: int
    edges: np.ndarray
    normal: np.ndarray
    length: float
    side_tris: np.ndarray
    endpoints: np.ndarray
    corners: np.ndarray


@dataclass
class DomainDecomposition:
    """Partition into basic subdomains plus overlapping solve subdomains."""

    mesh: TriMesh
    overlaps: list[np.ndarray]          # per Omega_j: basic subdomain indices
    interfaces: list[Interface]
    tri_subdomain: np.ndarray           # (T,) basic index per fine triangle

    @property
    def n_basic(self) -> int:
        return len(self.sub_area)

    @cached_property
    def sub_area(self) -> np.ndarray:
        """|omega_k| per basic subdomain (N,), read-only; filled on first
        use.  Each is the sum of its triangles' areas in triangle order."""
        ts = self.tri_subdomain
        return _read_only(np.array([self.mesh.areas[ts == k].sum()
                                    for k in range(int(ts.max()) + 1)]))

    @cached_property
    def sub_bbox(self) -> np.ndarray:
        """Bounding box [[xmin, ymin], [xmax, ymax]] per basic subdomain
        (N, 2, 2), read-only; filled on first use."""
        mesh = self.mesh
        bbox = np.empty((self.n_basic, 2, 2))
        for k in range(self.n_basic):
            p = mesh.vertices[mesh.triangles[self.tri_subdomain == k]]
            bbox[k] = p.min(axis=(0, 1)), p.max(axis=(0, 1))
        return _read_only(bbox)

    @cached_property
    def corner_key(self) -> np.ndarray:
        """The key of every triangle corner's (subdomain, vertex) pair
        (T, 3), read-only; filled on first use.  The keys number the pairs
        that some corner has, 0, 1, ..., in the order of subdomain * V +
        vertex."""
        mesh = self.mesh
        pair = (self.tri_subdomain * mesh.n_vertices)[:, None] + mesh.triangles
        _, key = np.unique(pair, return_inverse=True)
        return _read_only(key.reshape(pair.shape))

    @cached_property
    def corner_area_sums(self) -> np.ndarray:
        """Per ``corner_key``, the area of the subdomain's triangles at the
        vertex, read-only and positive; filled on first use."""
        return _read_only(np.bincount(self.corner_key.ravel(),
                                      np.repeat(self.mesh.areas, 3)))

    @property
    def n_overlap(self) -> int:
        return len(self.overlaps)

    def validate(self) -> None:
        if np.any(np.bincount(self.tri_subdomain) == 0):
            raise MeshError("a basic subdomain has no triangle")
        for j, members in enumerate(self.overlaps):
            if len(members) == 0:
                raise MeshError(f"overlapping subdomain {j} is empty")
        for g in self.interfaces:
            if abs(np.hypot(*g.normal) - 1.0) > 1e-12:
                raise MeshError("interface normal is not unit length")
            sides = self.tri_subdomain[g.side_tris]
            if not (np.all(sides[:, 0] == g.k) and np.all(sides[:, 1] == g.j)):
                raise MeshError("interface side triangles mislabelled")
            # Overlap condition: some Omega_m must contain both sides, so the
            # alternating method can propagate data across the interface.
            if not any(g.k in o and g.j in o for o in map(set, self.overlaps)):
                raise MeshError(
                    f"interface ({g.k},{g.j}) not covered by any overlap")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _one_diagonal_grid(cells: np.ndarray, h: float):
    """Triangulate a set of lattice squares; return vertex and triangle arrays.

    ``cells`` is an (N, 2) integer array of (i, j) lattice squares
    [i, i+1] x [j, j+1], scaled by h.  Vertices are numbered row by row
    (by j, then i).  Each square is split by the diagonal from its
    lower-left to its upper-right corner: triangle 2*c is (ll, lr, ur),
    triangle 2*c + 1 is (ll, ur, ul).
    """
    i, j = cells[:, 0], cells[:, 1]
    width = int(i.max()) + 2
    corners = np.stack([i, i + 1, i + 1, i], axis=1) \
        + width * np.stack([j, j, j + 1, j + 1], axis=1)   # ll, lr, ur, ul
    keys, corner_id = np.unique(corners.ravel(), return_inverse=True)
    vertices = np.stack([(keys % width) * h, (keys // width) * h], axis=1)
    ll, lr, ur, ul = corner_id.reshape(-1, 4).T
    triangles = np.stack([np.stack([ll, lr, ur], axis=1),
                          np.stack([ll, ur, ul], axis=1)], axis=1)
    return vertices, triangles.reshape(-1, 3)


def _lattice_cells(m: int, n: int) -> np.ndarray:
    """(i, j) of every square of an m x n lattice, row by row; MeshError
    before anything is allocated if no index array can hold them."""
    limit = np.iinfo(np.intp).max // (2 * np.dtype(np.intp).itemsize)
    if m * n > limit:
        raise MeshError(f"the lattice has more than {limit} squares, more "
                        "than an index array can hold")
    j, i = np.divmod(np.arange(m * n), m)
    return np.stack([i, j], axis=1)


def _build_interfaces(mesh: TriMesh, tri_subdomain: np.ndarray) -> list[Interface]:
    """Detect interfaces as maximal groups of fine edges separating two
    basic subdomains; orient each from the lower to the higher index."""
    interior = ~mesh.boundary_edge_flags
    t0 = mesh.edge_tris[:, 0]
    t1 = np.where(interior, mesh.edge_tris[:, 1], mesh.edge_tris[:, 0])
    s0 = tri_subdomain[t0]
    s1 = tri_subdomain[t1]
    split = np.flatnonzero(interior & (s0 != s1))
    lo = np.minimum(s0, s1)[split]
    hi = np.maximum(s0, s1)[split]

    interfaces = []
    centroids = mesh.centroids()
    lengths = mesh.edge_lengths
    for k, j in np.unique(np.stack([lo, hi], axis=1), axis=0):
        edge_ids = split[(lo == k) & (hi == j)]
        mids = 0.5 * (mesh.vertices[mesh.edges[edge_ids, 0]]
                      + mesh.vertices[mesh.edges[edge_ids, 1]])
        order = np.lexsort((mids[:, 1], mids[:, 0]))
        edge_ids = edge_ids[order]

        a, b = mesh.edge_tris[edge_ids].T
        a_on_k = tri_subdomain[a] == k
        side_tris = np.stack([np.where(a_on_k, a, b),
                              np.where(a_on_k, b, a)], axis=1)

        # The normal (shared by all edges on a straight rectilinear
        # interface) points from the omega_k-side triangle toward omega_j.
        va, vb = mesh.edges[edge_ids[0]]
        tangent = mesh.vertices[vb] - mesh.vertices[va]
        tangent = tangent / np.hypot(*tangent)
        normal = np.array([tangent[1], -tangent[0]])
        toward_j = centroids[side_tris[0, 1]] - centroids[side_tris[0, 0]]
        if np.dot(normal, toward_j) < 0:
            normal = -normal

        va, vb = mesh.edges[edge_ids].T
        forward = (mesh.vertices[vb] - mesh.vertices[va]) @ tangent >= 0
        endpoints = np.stack([np.where(forward, va, vb),
                              np.where(forward, vb, va)], axis=1)
        tv = mesh.triangles[side_tris][:, :, None, :]            # (n_e, 2, 1, 3)
        loc = np.argmax(tv == endpoints[:, None, :, None], axis=3)
        corners = 3 * side_tris[:, :, None] + loc

        interfaces.append(Interface(int(k), int(j), edge_ids, normal,
                                    float(lengths[edge_ids].sum()), side_tris,
                                    endpoints, corners))
    return interfaces


def _decomposition(mesh: TriMesh, tri_subdomain: np.ndarray,
                   overlaps: list[list[int]]) -> DomainDecomposition:
    decomp = DomainDecomposition(
        mesh, [np.asarray(o, dtype=np.int64) for o in overlaps],
        _build_interfaces(mesh, tri_subdomain), tri_subdomain)
    decomp.validate()
    return decomp


def build_lshape_mesh(h: float) -> tuple[TriMesh, DomainDecomposition]:
    """Triangulation of the L-shape ((0,1)x(0,2)) u ((0,2)x(0,1)).

    Every grid square of side h is split by its lower-left/upper-right
    diagonal only.

    Basic subdomains are the three unit squares omega_1 = (0,1)x(1,2),
    omega_2 = (0,1)x(0,1), omega_3 = (1,2)x(0,1); overlapping subdomains are
    Omega_1 = omega_1 u omega_2 and Omega_2 = omega_2 u omega_3.  The two
    interfaces are gamma_12 (the segment y=1, 0<=x<=1, normal (0,-1)) and
    gamma_23 (x=1, 0<=y<=1, normal (1,0)).

    Parameters
    ----------
    h : float
        Grid spacing; 1/h must be a positive integer.
    """
    n = _as_int_reciprocal(h)
    cells = _lattice_cells(2 * n, 2 * n)
    i, j = cells[:, 0], cells[:, 1]
    keep = (i < n) | (j < n)
    vertices, triangles = _one_diagonal_grid(cells[keep], h)
    mesh = TriMesh.from_arrays(vertices, triangles, h)
    mesh.validate()
    # omega_1 upper-left, omega_2 lower-left, omega_3 lower-right
    cell_subdomain = np.where(j >= n, 0, np.where(i < n, 1, 2))[keep]
    tri_subdomain = np.repeat(cell_subdomain, 2)
    return mesh, _decomposition(mesh, tri_subdomain, [[0, 1], [1, 2]])


def build_rect_mesh(m: int, n: int,
                    h: float) -> tuple[TriMesh, DomainDecomposition]:
    """One-diagonal mesh of the m x n lattice of squares of side h over
    (0, m*h) x (0, n*h), with the trivial decomposition (one basic
    subdomain, one overlapping subdomain)."""
    if m < 1 or n < 1:
        raise MeshError(f"grid must be at least 1x1, got {m}x{n}")
    vertices, triangles = _one_diagonal_grid(_lattice_cells(m, n), h)
    mesh = TriMesh.from_arrays(vertices, triangles, h)
    mesh.validate()
    tri_subdomain = np.zeros(mesh.n_triangles, dtype=np.int64)
    return mesh, _decomposition(mesh, tri_subdomain, [[0]])


# ---------------------------------------------------------------------------
# Coarse meshes
# ---------------------------------------------------------------------------


@dataclass
class CoarseMesh:
    """Triangulation ``tri`` of nominal size H carrying the flux corrector.

    At H = h ``tri`` is the fine mesh itself.  At H > h every H x H lattice
    square of a basic subdomain is split by its lower-left/upper-right
    diagonal into a lower (ll, lr, ur) and an upper (ll, ur, ul) triangle,
    square by square.  Its triangles are called cell-triangles;
    ``fine_tri_ct`` gives the cell-triangle of every fine triangle and
    ``cell_sub`` the basic subdomain of every cell-triangle (at H = h,
    ``decomp.tri_subdomain`` itself).
    """

    tri: TriMesh
    fine_tri_ct: np.ndarray
    cell_sub: np.ndarray


def _lattice_triangulation(mesh: TriMesh, decomp: DomainDecomposition,
                           H: float, ratio: int):
    """One-diagonal triangulation of the H x H lattice squares tiling the
    basic subdomains (subdomain by subdomain, row by row), ``ratio`` = H/h;
    returns it with the coarse triangle of every fine triangle and the
    subdomain of every coarse one."""
    def lat(x):
        i = int(round(x / H))
        if abs(x - i * H) > 1e-9 * max(1.0, H):
            raise MeshError(f"subdomain corner {x} not on the H={H} lattice")
        return i

    blocks = []
    for box in decomp.sub_bbox:
        (i0, j0), (i1, j1) = [[lat(x) for x in corner] for corner in box]
        blocks.append(_lattice_cells(i1 - i0, j1 - j0) + [i0, j0])
    squares = np.concatenate(blocks)
    square_sub = np.repeat(np.arange(decomp.n_basic), [len(b) for b in blocks])
    tri = TriMesh.from_arrays(*_one_diagonal_grid(squares, H), H)

    # a fine triangle lies in the square of its centroid, and in that
    # square's lower or upper triangle by the side of the diagonal
    n_i, n_j = squares.max(axis=0) + 3
    square_at = np.full((n_i, n_j), -1, dtype=np.int64)
    square_at[squares[:, 0] + 1, squares[:, 1] + 1] = np.arange(len(squares))
    cent = mesh.centroids()
    b = np.floor(cent / H + 1e-12).astype(np.int64) + 1
    square = square_at[np.clip(b[:, 0], 0, n_i - 1),
                       np.clip(b[:, 1], 0, n_j - 1)]
    if np.any(square < 0):
        raise MeshError("fine triangle outside every coarse cell")
    if np.any(np.bincount(square, minlength=len(squares)) != 2 * ratio ** 2):
        raise MeshError("coarse cell does not tile into fine triangles")
    offset = cent - squares[square] * H
    upper = offset[:, 0] <= offset[:, 1]
    return tri, 2 * square + upper, np.repeat(square_sub, 2)


def build_coarse_mesh(mesh: TriMesh, decomp: DomainDecomposition,
                      H: float) -> CoarseMesh:
    """Coarse corrector triangulation of size H on top of a fine one.

    At H = h it is the fine mesh itself, so every fine edge carries a flux
    degree of freedom; at H > h it is the one-diagonal triangulation of the
    H x H squares tiling each basic subdomain.
    """
    h = mesh.mesh_size_h
    if H < h - 1e-12:
        raise MeshError(f"coarse size H={H} smaller than fine size h={h}")
    _as_int_reciprocal(H, "H")
    ratio = int(round(H / h))
    if abs(H / h - ratio) > 1e-9:
        raise MeshError(f"H={H} is not an integer multiple of h={h}")
    if ratio == 1:
        return CoarseMesh(mesh, np.arange(mesh.n_triangles),
                          decomp.tri_subdomain)
    return CoarseMesh(*_lattice_triangulation(mesh, decomp, H, ratio))
