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
``CoarseMesh`` keeps per-edge arrays (kind, normal, length, midpoint,
interface), per-cell arrays (vertices, subdomain) and one cell-triangle
incidence: every cell is split into ``ell - 2`` cell-triangles, numbered
cell by cell, and slot ``i`` of a cell-triangle is its side opposite local
vertex ``i``, with the coarse edge it lies on (``ct_edge``) and the sign of
its outward normal against that edge's normal (``ct_sign``).

All objects are treated as immutable once built; nothing in the package
mutates a mesh after construction, so concurrent reads are safe.  That lets
a ``TriMesh`` own its derived geometry: the P1 basis gradients, the edge
lengths and the side midpoints (the points of the degree-2 rule) are each
computed on first use, kept on the mesh and handed out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Coarse-edge classification codes (values of ``CoarseMesh.edge_kind``).
# INACTIVE marks boundary edges outside the Dirichlet part; they carry no
# flux degree of freedom.
INTERIOR, INTERFACE, DIRICHLET, INACTIVE = 0, 1, 2, 3


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
    areas: np.ndarray = field(default=None, repr=False)
    boundary_vertex_mask: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.areas is None:
            p = self.vertices[self.triangles]
            self.areas = 0.5 * np.abs(
                (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
            )
        if self.boundary_vertex_mask is None:
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
class BasicSubdomain:
    """One non-overlapping cell omega_k of the partition."""

    index: int
    tris: np.ndarray          # fine triangle indices
    area: float
    bbox: np.ndarray          # (2, 2): [[xmin, ymin], [xmax, ymax]]

    @property
    def diameter(self) -> float:
        d = self.bbox[1] - self.bbox[0]
        return float(np.hypot(d[0], d[1]))


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
    basic: list[BasicSubdomain]
    overlaps: list[np.ndarray]          # per Omega_j: basic subdomain indices
    interfaces: list[Interface]
    tri_subdomain: np.ndarray           # (T,) basic index per fine triangle

    @property
    def n_basic(self) -> int:
        return len(self.basic)

    @property
    def n_overlap(self) -> int:
        return len(self.overlaps)

    def overlap_tris(self, j: int) -> np.ndarray:
        """All fine triangles of overlapping subdomain Omega_j."""
        return np.concatenate([self.basic[k].tris for k in self.overlaps[j]])

    def validate(self) -> None:
        mesh = self.mesh
        seen = np.zeros(mesh.n_triangles, dtype=np.int64)
        for sub in self.basic:
            seen[sub.tris] += 1
        if np.any(seen != 1):
            raise MeshError("basic subdomains do not partition the mesh")
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
    """(i, j) of every square of an m x n lattice, row by row."""
    j, i = np.divmod(np.arange(m * n), m)
    return np.stack([i, j], axis=1)


def _basic_subdomain(mesh: TriMesh, index: int, tris: np.ndarray) -> BasicSubdomain:
    coords = mesh.vertices[np.unique(mesh.triangles[tris])]
    bbox = np.vstack([coords.min(axis=0), coords.max(axis=0)])
    return BasicSubdomain(index, np.asarray(tris),
                          float(mesh.areas[tris].sum()), bbox)


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
    n_basic = int(tri_subdomain.max()) + 1
    basic = [_basic_subdomain(mesh, k, np.nonzero(tri_subdomain == k)[0])
             for k in range(n_basic)]
    interfaces = _build_interfaces(mesh, tri_subdomain)
    decomp = DomainDecomposition(
        mesh, basic, [np.asarray(o, dtype=np.int64) for o in overlaps],
        interfaces, tri_subdomain)
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


def _rect_grid(m: int, n: int, h: float) -> tuple[TriMesh, DomainDecomposition]:
    """One-diagonal mesh of (0, m*h) x (0, n*h) with the trivial
    decomposition (one basic subdomain, one overlapping subdomain)."""
    if m < 1 or n < 1:
        raise MeshError(f"grid must be at least 1x1, got {m}x{n}")
    vertices, triangles = _one_diagonal_grid(_lattice_cells(m, n), h)
    mesh = TriMesh.from_arrays(vertices, triangles, h)
    mesh.validate()
    tri_subdomain = np.zeros(mesh.n_triangles, dtype=np.int64)
    return mesh, _decomposition(mesh, tri_subdomain, [[0]])


def build_rect_grid_decomposition(m: int, n: int, h: float = 1.0,
                                  cell_type: str = "triangle",
                                  dirichlet_boundary: bool = False):
    """Regular m x n grid of coarse cells over (0, m*h) x (0, n*h).

    The fine mesh splits every grid square by its lower-left/upper-right
    diagonal only (one diagonal per square, not a criss-cross).  The
    decomposition is trivial (one basic subdomain covering everything, one
    overlapping subdomain equal to it); the interesting output is the coarse
    mesh: 2*m*n triangular cells for ``cell_type='triangle'`` or m*n
    quadrilateral cells for ``'quad'``.  ``dirichlet_boundary`` marks all
    boundary coarse edges as Dirichlet (otherwise N_fD = 0).

    Returns (TriMesh, DomainDecomposition, CoarseMesh).
    """
    if cell_type not in ("triangle", "quad"):
        raise MeshError(f"unknown cell_type {cell_type!r}")
    mesh, decomp = _rect_grid(m, n, h)
    kind = "tri" if cell_type == "triangle" else "quad"
    coarse = build_coarse_mesh(mesh, decomp, h, cells=kind,
                               dirichlet_boundary=dirichlet_boundary)
    return mesh, decomp, coarse


# ---------------------------------------------------------------------------
# Coarse meshes
# ---------------------------------------------------------------------------


@dataclass
class CoarseMesh:
    """Cell mesh of nominal size H carrying the flux-corrector space.

    ``N_cells``, ``N_v``, ``N_f`` and ``N_fD`` count its cells, vertices,
    sides and Dirichlet sides; each cell has ``ell`` sides.

    Array layout:

    - edges ``e``: ``edge_kind`` (INTERIOR / INTERFACE / DIRICHLET /
      INACTIVE), ``edge_normal`` (fixed unit normal), ``edge_length``,
      ``edge_mid`` and ``edge_iface`` (index into ``decomp.interfaces``, -1
      off interfaces).  The first ``N_f`` edges are the cell sides; a quad
      mesh appends the splitting diagonal of cell ``c`` as edge
      ``N_f + c``, an interior edge with normal (-1, 1)/sqrt(2);
    - cells ``c``: ``cell_verts`` ((N_cells, ell, 2); quads in the order
      ll, lr, ur, ul), ``cell_sub`` (basic subdomain); ``tri_cell`` gives
      the containing cell of every fine triangle;
    - cell-triangles (``ell - 2`` per cell, numbered cell by cell; a quad
      gives its lower (ll, lr, ur) then its upper (ll, ur, ul) triangle):
      ``ct_verts`` (CT, 3, 2), and per slot ``i`` (the side opposite
      vertex ``i``) the edge ``ct_edge`` and the sign ``ct_sign`` of the
      outward normal against ``edge_normal``; ``fine_tri_ct`` gives the
      containing cell-triangle of every fine triangle.
    """

    H: float
    N_cells: int
    N_v: int
    N_f: int
    N_fD: int
    ell: int
    edge_kind: np.ndarray
    edge_normal: np.ndarray
    edge_length: np.ndarray
    edge_mid: np.ndarray
    edge_iface: np.ndarray
    cell_verts: np.ndarray
    cell_sub: np.ndarray
    tri_cell: np.ndarray
    ct_verts: np.ndarray
    ct_edge: np.ndarray
    ct_sign: np.ndarray
    fine_tri_ct: np.ndarray


def compatibility_check(N_cells: int, N_f: int, N_fD: int,
                        ell: int) -> tuple[bool, int]:
    """Solvability of the corrector constraints on a coarse mesh of
    ``N_cells`` cells with ``ell`` sides each, ``N_f`` sides in all and
    ``N_fD`` of them on the Dirichlet boundary.

    The constrained minimization is solvable whenever the cell-wise flux
    degrees of freedom (ell N_cells, each cell counting its own sides; the
    assembled space is smaller because shared sides are identified) plus
    the Dirichlet-boundary edges cover the divergence unknowns, one per
    cell, plus one unknown per edge: dim Q_N + N_fD >= N + N_f.  Returns
    (satisfied, slack); slack is the number of remaining free parameters
    when satisfied.
    """
    slack = ell * N_cells + N_fD - N_cells - N_f
    return slack >= 0, int(slack)


def _coarse_mesh(H: float, ell: int, n_v: int, n_f: int,
                 **arrays) -> CoarseMesh:
    """Assemble a coarse mesh from its arrays; the slot signs follow from
    the cell-triangle geometry and the edge normals."""
    ct_verts = arrays["ct_verts"]
    side = ct_verts[:, [2, 0, 1]] - ct_verts[:, [1, 2, 0]]
    outward = np.stack([side[..., 1], -side[..., 0]], axis=-1)
    normal = arrays["edge_normal"][arrays["ct_edge"]]
    arrays["ct_sign"] = np.where(
        np.einsum("csd,csd->cs", outward, normal) > 0, 1.0, -1.0)
    n_cells = len(arrays["cell_verts"])
    n_fd = int(np.count_nonzero(arrays["edge_kind"] == DIRICHLET))
    return CoarseMesh(H=H, N_cells=n_cells, N_v=n_v, N_f=n_f, N_fD=n_fd,
                      ell=ell, **arrays)


def _coarse_from_fine_triangulation(mesh: TriMesh, decomp: DomainDecomposition,
                                    dirichlet_boundary: bool) -> CoarseMesh:
    """Coarse mesh whose cells are the fine triangles themselves (H = h)."""
    edge_iface = np.full(mesh.n_edges, -1, dtype=np.int64)
    for m, g in enumerate(decomp.interfaces):
        edge_iface[g.edges] = m
    kind = np.where(mesh.boundary_edge_flags,
                    DIRICHLET if dirichlet_boundary else INACTIVE,
                    np.where(edge_iface >= 0, INTERFACE, INTERIOR))
    pa = mesh.vertices[mesh.edges[:, 0]]
    pb = mesh.vertices[mesh.edges[:, 1]]
    lengths = mesh.edge_lengths
    tangent = (pb - pa) / lengths[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    cell_verts = mesh.vertices[mesh.triangles]
    every_tri = np.arange(mesh.n_triangles)
    return _coarse_mesh(
        mesh.mesh_size_h, 3, mesh.n_vertices, mesh.n_edges,
        edge_kind=kind, edge_normal=normal, edge_length=lengths,
        edge_mid=0.5 * (pa + pb), edge_iface=edge_iface,
        cell_verts=cell_verts, cell_sub=decomp.tri_subdomain,
        tri_cell=every_tri, ct_verts=cell_verts, ct_edge=mesh.tri_edges,
        fine_tri_ct=every_tri)


def _coarse_quads(mesh: TriMesh, decomp: DomainDecomposition, H: float,
                  dirichlet_boundary: bool) -> CoarseMesh:
    """Coarse mesh of H x H square cells tiling the basic subdomains."""
    h = mesh.mesh_size_h
    ratio = H / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise MeshError(f"H={H} is not an integer multiple of h={h}")

    def lat(x):
        i = int(round(x / H))
        if abs(x - i * H) > 1e-9 * max(1.0, H):
            raise MeshError(f"subdomain corner {x} not on the H={H} lattice")
        return i

    # cells (I, J) = [I H, (I+1) H] x [J H, (J+1) H], subdomain by
    # subdomain and row by row
    blocks = []
    for sub in decomp.basic:
        (x0, y0), (x1, y1) = sub.bbox
        J, I = np.mgrid[lat(y0):lat(y1), lat(x0):lat(x1)]
        blocks.append((I.ravel(), J.ravel(), np.full(I.size, sub.index)))
    I, J, cell_sub = (np.concatenate(col) for col in zip(*blocks))
    n_cells = len(I)
    cell_verts = np.stack([np.stack([I * H, J * H], axis=1),
                           np.stack([(I + 1) * H, J * H], axis=1),
                           np.stack([(I + 1) * H, (J + 1) * H], axis=1),
                           np.stack([I * H, (J + 1) * H], axis=1)], axis=1)

    n_i, n_j = int(I.max()) + 1, int(J.max()) + 1
    cell_at = np.full((n_i + 2, n_j + 2), -1, dtype=np.int64)
    cell_at[I + 1, J + 1] = np.arange(n_cells)
    cent = mesh.centroids()
    bin_i = np.floor(cent[:, 0] / H + 1e-12).astype(np.int64)
    bin_j = np.floor(cent[:, 1] / H + 1e-12).astype(np.int64)
    tri_cell = cell_at[np.clip(bin_i + 1, 0, n_i + 1),
                       np.clip(bin_j + 1, 0, n_j + 1)]
    if np.any(tri_cell < 0):
        raise MeshError("fine triangle outside every coarse cell")
    fine_per_cell = 2 * int(round(ratio)) ** 2
    if np.any(np.bincount(tri_cell, minlength=n_cells) != fine_per_cell):
        raise MeshError("coarse cell does not tile into fine triangles")

    # Cell sides keyed on the lattice: horizontal edges (normal +y) first,
    # then vertical ones (normal +x), each sorted by (J, I).
    width = n_i + 1
    n_keys = width * (n_j + 1)
    corner = J * width + I
    side_key = np.stack([corner, corner + width,               # bottom, top
                         n_keys + corner, n_keys + corner + 1],  # left, right
                        axis=1)
    keys, side_edge, adjacent = np.unique(side_key.ravel(), return_inverse=True,
                                          return_counts=True)
    side_edge = side_edge.reshape(-1, 4)
    n_f = len(keys)
    vertical = keys >= n_keys
    e_j, e_i = np.divmod(keys % n_keys, width)
    p0 = np.stack([e_i * H, e_j * H], axis=1)
    p1 = np.stack([np.where(vertical, e_i, e_i + 1) * H,
                   np.where(vertical, e_j + 1, e_j) * H], axis=1)

    n_basic = decomp.n_basic
    sub_lo = np.full(n_f, n_basic, dtype=np.int64)
    sub_hi = np.full(n_f, -1, dtype=np.int64)
    np.minimum.at(sub_lo, side_edge.ravel(), np.repeat(cell_sub, 4))
    np.maximum.at(sub_hi, side_edge.ravel(), np.repeat(cell_sub, 4))
    iface_of_pair = np.full((n_basic, n_basic), -1, dtype=np.int64)
    for m, g in enumerate(decomp.interfaces):
        iface_of_pair[g.k, g.j] = m
    crossing = (adjacent == 2) & (sub_lo != sub_hi)
    edge_iface = np.where(crossing, iface_of_pair[sub_lo, np.maximum(sub_hi, 0)],
                          -1)
    if np.any(crossing & (edge_iface < 0)):
        raise MeshError("coarse edge between subdomains without an interface")
    kind = np.where(adjacent == 1,
                    DIRICHLET if dirichlet_boundary else INACTIVE,
                    np.where(crossing, INTERFACE, INTERIOR))
    normal = np.where(vertical[:, None], [1.0, 0.0], [0.0, 1.0])
    n_v = len(np.unique(np.concatenate([corner, corner + 1, corner + width,
                                        corner + width + 1])))

    # the splitting diagonals follow as edges n_f + c
    diag = n_f + np.arange(n_cells)
    ll, ur = cell_verts[:, 0], cell_verts[:, 2]
    bottom, top, left, right = side_edge.T
    x0 = ll[tri_cell]
    upper = (cent[:, 0] - x0[:, 0]) <= (cent[:, 1] - x0[:, 1])
    return _coarse_mesh(
        H, 4, n_v, n_f,
        edge_kind=np.concatenate([kind, np.full(n_cells, INTERIOR)]),
        edge_normal=np.concatenate(
            [normal, np.tile([-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                             (n_cells, 1))]),
        edge_length=np.concatenate([np.full(n_f, H),
                                    np.full(n_cells, np.hypot(H, H))]),
        edge_mid=np.concatenate([0.5 * (p0 + p1), 0.5 * (ll + ur)]),
        edge_iface=np.concatenate([edge_iface, np.full(n_cells, -1)]),
        cell_verts=cell_verts, cell_sub=cell_sub, tri_cell=tri_cell,
        ct_verts=cell_verts[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 2),
        ct_edge=np.stack([np.stack([right, diag, bottom], axis=1),
                          np.stack([top, left, diag], axis=1)],
                         axis=1).reshape(-1, 3),
        fine_tri_ct=2 * tri_cell + upper)


def build_coarse_mesh(mesh: TriMesh, decomp: DomainDecomposition, H: float,
                      cells: str = "auto",
                      dirichlet_boundary: bool = True) -> CoarseMesh:
    """Coarse corrector mesh of size H on top of a fine triangulation.

    ``cells='quad'`` tiles each basic subdomain with H x H squares;
    ``cells='tri'`` (requires H equal to the fine spacing) uses the fine
    triangles themselves, so every fine edge carries a flux degree of
    freedom.  ``'auto'`` picks 'tri' when H == h and 'quad' otherwise.
    """
    h = mesh.mesh_size_h
    if H < h - 1e-12:
        raise MeshError(f"coarse size H={H} smaller than fine size h={h}")
    _as_int_reciprocal(H, "H")
    if cells == "auto":
        cells = "tri" if abs(H - h) <= 1e-12 * h else "quad"
    if cells == "tri":
        if abs(H - h) > 1e-12 * h:
            raise MeshError("cells='tri' requires H == h")
        return _coarse_from_fine_triangulation(mesh, decomp, dirichlet_boundary)
    if cells == "quad":
        return _coarse_quads(mesh, decomp, H, dirichlet_boundary)
    raise MeshError(f"unknown coarse cell style {cells!r}")
