"""Structured triangulations, subdomain partitions, and coarse cell meshes.

The geometry handled here is deliberately narrow: axis-aligned rectilinear
domains meshed by a criss-cross pattern (every grid square split by its
lower-left/upper-right diagonal), partitioned into rectangular basic
subdomains that are grouped into overlapping subdomains.  Everything
downstream — subdomain solves, flux correctors, the error majorant — leans on
the bookkeeping assembled here: edge adjacency, interface orientation, and
Dirichlet-boundary grouping.

All objects are treated as immutable once built; nothing in the package
mutates a mesh after construction, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Coarse-edge (and fine-edge) classification labels.  INACTIVE marks boundary
# edges outside the Dirichlet part; they carry no flux degree of freedom.
INTERIOR = "interior"
INTERFACE = "interface"
DIRICHLET = "dirichlet"
INACTIVE = "inactive"

_GEOM_TOL = 1e-12


class MeshError(ValueError):
    """Raised for invalid mesh parameters or inconsistent mesh data."""


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

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @classmethod
    def from_arrays(cls, vertices, triangles, mesh_size_h: float) -> "TriMesh":
        """Build a mesh (edges, adjacency) from vertex and triangle arrays."""
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        edge_index: dict[tuple[int, int], int] = {}
        edge_list: list[tuple[int, int]] = []
        adjacency: list[list[int]] = []
        tri_edges = np.empty_like(triangles)
        for t, tri in enumerate(triangles):
            for loc in range(3):
                a, b = tri[(loc + 1) % 3], tri[(loc + 2) % 3]
                key = (min(a, b), max(a, b))
                e = edge_index.get(key)
                if e is None:
                    e = len(edge_list)
                    edge_index[key] = e
                    edge_list.append(key)
                    adjacency.append([])
                adjacency[e].append(t)
                tri_edges[t, loc] = e
        edges = np.asarray(edge_list, dtype=np.int64)
        edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
        for e, tris in enumerate(adjacency):
            if len(tris) > 2:
                raise MeshError(f"edge {e} adjacent to {len(tris)} triangles")
            edge_tris[e, : len(tris)] = tris
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
    vertices: np.ndarray      # fine vertex indices occurring in omega_k
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
    along the traversal direction.
    """

    k: int
    j: int
    edges: np.ndarray
    normal: np.ndarray
    length: float
    side_tris: np.ndarray
    endpoints: np.ndarray


@dataclass
class DomainDecomposition:
    """Partition into basic subdomains plus overlapping solve subdomains."""

    mesh: TriMesh
    basic: list[BasicSubdomain]
    overlaps: list[np.ndarray]          # per Omega_j: basic subdomain indices
    interfaces: list[Interface]
    dirichlet_edges: dict[int, np.ndarray]   # basic index -> boundary edges
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


def _criss_cross(cells: list[tuple[int, int]], h: float):
    """Triangulate a set of lattice squares; return mesh arrays + cell map.

    Cells are (i, j) lattice squares [i, i+1] x [j, j+1] scaled by h.  Each
    square is split by the diagonal from its lower-left to its upper-right
    corner: triangle 2*c is (ll, lr, ur), triangle 2*c + 1 is (ll, ur, ul).
    """
    vert_ids: dict[tuple[int, int], int] = {}
    corners = set()
    for (i, j) in cells:
        corners.update({(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)})
    for key in sorted(corners, key=lambda c: (c[1], c[0])):
        vert_ids[key] = len(vert_ids)
    vertices = np.array(
        [[i * h, j * h] for (i, j) in sorted(corners, key=lambda c: (c[1], c[0]))],
        dtype=float,
    )
    triangles = []
    for (i, j) in cells:
        ll = vert_ids[(i, j)]
        lr = vert_ids[(i + 1, j)]
        ur = vert_ids[(i + 1, j + 1)]
        ul = vert_ids[(i, j + 1)]
        triangles.append((ll, lr, ur))
        triangles.append((ll, ur, ul))
    return vertices, np.asarray(triangles, dtype=np.int64)


def _basic_subdomain(mesh: TriMesh, index: int, tris: np.ndarray) -> BasicSubdomain:
    verts = np.unique(mesh.triangles[tris])
    coords = mesh.vertices[verts]
    bbox = np.vstack([coords.min(axis=0), coords.max(axis=0)])
    return BasicSubdomain(index, np.asarray(tris), verts,
                          float(mesh.areas[tris].sum()), bbox)


def _build_interfaces(mesh: TriMesh, tri_subdomain: np.ndarray) -> list[Interface]:
    """Detect interfaces as maximal groups of fine edges separating two
    basic subdomains; orient each from the lower to the higher index."""
    interior = ~mesh.boundary_edge_flags
    t0 = mesh.edge_tris[:, 0]
    t1 = np.where(interior, mesh.edge_tris[:, 1], mesh.edge_tris[:, 0])
    s0 = tri_subdomain[t0]
    s1 = tri_subdomain[t1]
    split = interior & (s0 != s1)
    groups: dict[tuple[int, int], list[int]] = {}
    for e in np.nonzero(split)[0]:
        key = (min(s0[e], s1[e]), max(s0[e], s1[e]))
        groups.setdefault(key, []).append(e)

    interfaces = []
    centroids = mesh.centroids()
    for (k, j), edge_ids in sorted(groups.items()):
        edge_ids = np.asarray(edge_ids)
        mids = 0.5 * (mesh.vertices[mesh.edges[edge_ids, 0]]
                      + mesh.vertices[mesh.edges[edge_ids, 1]])
        order = np.lexsort((mids[:, 1], mids[:, 0]))
        edge_ids = edge_ids[order]

        side_tris = np.empty((len(edge_ids), 2), dtype=np.int64)
        for row, e in enumerate(edge_ids):
            a, b = mesh.edge_tris[e]
            if tri_subdomain[a] == k:
                side_tris[row] = (a, b)
            else:
                side_tris[row] = (b, a)

        # The normal (shared by all edges on a straight rectilinear
        # interface) points from the omega_k-side triangle toward omega_j.
        va, vb = mesh.edges[edge_ids[0]]
        tangent = mesh.vertices[vb] - mesh.vertices[va]
        tangent = tangent / np.hypot(*tangent)
        normal = np.array([tangent[1], -tangent[0]])
        toward_j = centroids[side_tris[0, 1]] - centroids[side_tris[0, 0]]
        if np.dot(normal, toward_j) < 0:
            normal = -normal

        endpoints = np.empty((len(edge_ids), 2), dtype=np.int64)
        for row, e in enumerate(edge_ids):
            a, b = mesh.edges[e]
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            if (pb - pa) @ tangent < 0:
                a, b = b, a
            endpoints[row] = (a, b)

        lengths = mesh.edge_lengths()[edge_ids]
        interfaces.append(Interface(int(k), int(j), edge_ids, normal,
                                    float(lengths.sum()), side_tris, endpoints))
    return interfaces


def _decomposition(mesh: TriMesh, tri_subdomain: np.ndarray,
                   overlaps: list[list[int]]) -> DomainDecomposition:
    n_basic = int(tri_subdomain.max()) + 1
    basic = [_basic_subdomain(mesh, k, np.nonzero(tri_subdomain == k)[0])
             for k in range(n_basic)]
    interfaces = _build_interfaces(mesh, tri_subdomain)
    dirichlet: dict[int, np.ndarray] = {}
    bdry = np.nonzero(mesh.boundary_edge_flags)[0]
    owner = tri_subdomain[mesh.edge_tris[bdry, 0]]
    for k in range(n_basic):
        dirichlet[k] = bdry[owner == k]
    decomp = DomainDecomposition(
        mesh, basic, [np.asarray(o, dtype=np.int64) for o in overlaps],
        interfaces, dirichlet, tri_subdomain)
    decomp.validate()
    return decomp


def build_lshape_mesh(h: float) -> tuple[TriMesh, DomainDecomposition]:
    """Criss-cross triangulation of the L-shape ((0,1)x(0,2)) u ((0,2)x(0,1)).

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
    cells = [(i, j) for j in range(2 * n) for i in range(2 * n)
             if i < n or j < n]
    vertices, triangles = _criss_cross(cells, h)
    mesh = TriMesh.from_arrays(vertices, triangles, h)
    mesh.validate()

    tri_subdomain = np.empty(mesh.n_triangles, dtype=np.int64)
    for c, (i, j) in enumerate(cells):
        if j >= n:
            k = 0          # omega_1: upper-left square
        elif i < n:
            k = 1          # omega_2: lower-left square
        else:
            k = 2          # omega_3: lower-right square
        tri_subdomain[2 * c] = k
        tri_subdomain[2 * c + 1] = k
    return mesh, _decomposition(mesh, tri_subdomain, [[0, 1], [1, 2]])


def build_rect_grid_decomposition(m: int, n: int, h: float = 1.0,
                                  cell_type: str = "triangle",
                                  dirichlet_boundary: bool = False):
    """Regular m x n grid of coarse cells over (0, m*h) x (0, n*h).

    The fine mesh is the criss-cross triangulation of the grid squares.  The
    decomposition is trivial (one basic subdomain covering everything, one
    overlapping subdomain equal to it); the interesting output is the coarse
    mesh: 2*m*n triangular cells for ``cell_type='triangle'`` or m*n
    quadrilateral cells for ``'quad'``.  ``dirichlet_boundary`` marks all
    boundary coarse edges as Dirichlet (otherwise N_fD = 0).

    Returns (TriMesh, DomainDecomposition, CoarseMesh).
    """
    if m < 1 or n < 1:
        raise MeshError(f"grid must be at least 1x1, got {m}x{n}")
    if cell_type not in ("triangle", "quad"):
        raise MeshError(f"unknown cell_type {cell_type!r}")
    cells = [(i, j) for j in range(n) for i in range(m)]
    vertices, triangles = _criss_cross(cells, h)
    mesh = TriMesh.from_arrays(vertices, triangles, h)
    mesh.validate()
    tri_subdomain = np.zeros(mesh.n_triangles, dtype=np.int64)
    decomp = _decomposition(mesh, tri_subdomain, [[0]])
    kind = "tri" if cell_type == "triangle" else "quad"
    coarse = build_coarse_mesh(mesh, decomp, h, cells=kind,
                               dirichlet_boundary=dirichlet_boundary)
    return mesh, decomp, coarse


# ---------------------------------------------------------------------------
# Coarse meshes
# ---------------------------------------------------------------------------


@dataclass
class CoarseCell:
    kind: str                 # 'tri' or 'quad'
    verts: np.ndarray         # (3, 2) or (4, 2): quad order ll, lr, ur, ul
    subdomain: int
    fine_tris: np.ndarray
    area: float


@dataclass
class CoarseEdge:
    kind: str                 # INTERIOR / INTERFACE / DIRICHLET
    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray        # fixed global normal of the edge
    length: float
    cells: list[tuple[int, float]]   # (cell index, outward sign wrt normal)
    fine_edges: np.ndarray    # fine edges along this edge (interfaces only)
    interface: int = -1       # index into decomp.interfaces, if any


@dataclass
class CoarseMesh:
    """Cell mesh of nominal size H carrying the flux-corrector space.

    ``dim_per_cell`` is the per-cell degree-of-freedom count (sum of edge
    counts over cells, each cell counting its own edges), the quantity the
    solvability condition is phrased in.  The assembled space is smaller
    because shared edges are identified; that count lives with the corrector
    space, not here.
    """

    H: float
    cells: list[CoarseCell]
    edges: list[CoarseEdge]
    tri_cell: np.ndarray | None       # (T,) containing cell per fine triangle
    N_cells: int
    N_v: int
    N_f: int
    N_fD: int
    ell: int | None
    dim_per_cell: int

    @classmethod
    def from_counts(cls, n_cells: int, n_v: int, n_f: int, n_fd: int,
                    ell: int) -> "CoarseMesh":
        """Counts-only coarse mesh for solvability bookkeeping."""
        return cls(H=float("nan"), cells=[], edges=[], tri_cell=None,
                   N_cells=n_cells, N_v=n_v, N_f=n_f, N_fD=n_fd, ell=ell,
                   dim_per_cell=n_cells * ell)

    def validate(self) -> None:
        if self.cells:
            if self.tri_cell is not None and np.any(self.tri_cell < 0):
                raise MeshError("fine triangle not assigned to a coarse cell")
            n_fd = sum(1 for e in self.edges if e.kind == DIRICHLET)
            if n_fd != self.N_fD:
                raise MeshError("inconsistent Dirichlet edge count")


def compatibility_check(coarse: CoarseMesh) -> tuple[bool, int]:
    """Solvability of the corrector constraints on this coarse mesh.

    The constrained minimization is solvable whenever the cell-wise flux
    degrees of freedom (``dim_per_cell``) plus the Dirichlet-boundary edges
    cover the divergence unknowns, one per cell, plus one unknown per edge:
    dim Q_N + N_fD >= N + N_f.  Returns (satisfied, slack); slack is the
    number of remaining free parameters when satisfied.
    """
    slack = coarse.dim_per_cell + coarse.N_fD - coarse.N_cells - coarse.N_f
    return slack >= 0, int(slack)


def _interface_edge_map(decomp: DomainDecomposition) -> dict[int, int]:
    """fine edge id -> interface index."""
    out: dict[int, int] = {}
    for m, g in enumerate(decomp.interfaces):
        for e in g.edges:
            out[int(e)] = m
    return out


def _coarse_from_fine_triangulation(mesh: TriMesh, decomp: DomainDecomposition,
                                    dirichlet_boundary: bool) -> CoarseMesh:
    """Coarse mesh whose cells are the fine triangles themselves (H = h)."""
    iface_of = _interface_edge_map(decomp)
    cells = [CoarseCell("tri", mesh.vertices[mesh.triangles[t]],
                        int(decomp.tri_subdomain[t]), np.array([t]),
                        float(mesh.areas[t]))
             for t in range(mesh.n_triangles)]
    centroids = mesh.centroids()
    edges = []
    lengths = mesh.edge_lengths()
    for e in range(mesh.n_edges):
        a, b = mesh.edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        tangent = (pb - pa) / lengths[e]
        normal = np.array([tangent[1], -tangent[0]])
        adj = []
        for t in mesh.edge_tris[e]:
            if t < 0:
                continue
            mid = 0.5 * (pa + pb)
            sign = 1.0 if np.dot(mid - centroids[t], normal) > 0 else -1.0
            adj.append((int(t), sign))
        if mesh.boundary_edge_flags[e]:
            kind = DIRICHLET if dirichlet_boundary else INACTIVE
        elif e in iface_of:
            kind = INTERFACE
        else:
            kind = INTERIOR
        edges.append(CoarseEdge(kind, pa, pb, normal, float(lengths[e]), adj,
                                np.array([e]), iface_of.get(e, -1)))
    n_fd = sum(1 for e in edges if e.kind == DIRICHLET)
    coarse = CoarseMesh(mesh.mesh_size_h, cells, edges,
                        np.arange(mesh.n_triangles), len(cells),
                        mesh.n_vertices, mesh.n_edges, n_fd, 3, 3 * len(cells))
    coarse.validate()
    return coarse


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

    cell_ids: dict[tuple[int, int], int] = {}
    cells: list[CoarseCell] = []
    cell_sub: list[int] = []
    for sub in decomp.basic:
        (x0, y0), (x1, y1) = sub.bbox
        for J in range(lat(y0), lat(y1)):
            for I in range(lat(x0), lat(x1)):
                cell_ids[(I, J)] = len(cells)
                verts = np.array([[I * H, J * H], [(I + 1) * H, J * H],
                                  [(I + 1) * H, (J + 1) * H], [I * H, (J + 1) * H]])
                cells.append(CoarseCell("quad", verts, sub.index, None, H * H))
                cell_sub.append(sub.index)

    cent = mesh.centroids()
    bin_i = np.floor(cent[:, 0] / H + 1e-12).astype(int)
    bin_j = np.floor(cent[:, 1] / H + 1e-12).astype(int)
    tri_cell = np.full(mesh.n_triangles, -1, dtype=np.int64)
    per_cell: list[list[int]] = [[] for _ in cells]
    for t in range(mesh.n_triangles):
        c = cell_ids.get((bin_i[t], bin_j[t]))
        if c is None:
            raise MeshError("fine triangle outside every coarse cell")
        tri_cell[t] = c
        per_cell[c].append(t)
    for c, cell in enumerate(cells):
        cell.fine_tris = np.asarray(per_cell[c], dtype=np.int64)
        if len(cell.fine_tris) != 2 * int(round(ratio)) ** 2:
            raise MeshError("coarse cell does not tile into fine triangles")

    # Coarse edges keyed on the lattice; horizontal normals point +y,
    # vertical normals +x.  The outward sign of an adjacent cell is the dot
    # product of its outward normal on that side with the edge normal.
    edge_entries: dict[tuple, list[tuple[int, float]]] = {}
    for (I, J), c in cell_ids.items():
        edge_entries.setdefault(("h", I, J), []).append((c, -1.0))      # bottom
        edge_entries.setdefault(("h", I, J + 1), []).append((c, 1.0))   # top
        edge_entries.setdefault(("v", I, J), []).append((c, -1.0))      # left
        edge_entries.setdefault(("v", I + 1, J), []).append((c, 1.0))   # right

    iface_lookup = {(g.k, g.j): m for m, g in enumerate(decomp.interfaces)}
    edge_mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])

    edges: list[CoarseEdge] = []
    for key in sorted(edge_entries, key=lambda k: (k[0], k[2], k[1])):
        orient, I, J = key
        adj = edge_entries[key]
        if orient == "h":
            p0 = np.array([I * H, J * H])
            p1 = np.array([(I + 1) * H, J * H])
            normal = np.array([0.0, 1.0])
        else:
            p0 = np.array([I * H, J * H])
            p1 = np.array([I * H, (J + 1) * H])
            normal = np.array([1.0, 0.0])
        fine_edges = np.array([], dtype=np.int64)
        iface = -1
        if len(adj) == 2:
            ka, kb = cell_sub[adj[0][0]], cell_sub[adj[1][0]]
            if ka == kb:
                kind = INTERIOR
            else:
                kind = INTERFACE
                iface = iface_lookup[(min(ka, kb), max(ka, kb))]
        else:
            # single adjacent cell: the edge lies on the outer boundary
            kind = DIRICHLET if dirichlet_boundary else INACTIVE
        if kind == INTERFACE:
            g = decomp.interfaces[iface]
            mids = edge_mids[g.edges]
            axis = 0 if orient == "h" else 1
            lo, hi = p0[axis], p1[axis]
            on_this = (mids[:, axis] > lo - 1e-12) & (mids[:, axis] < hi + 1e-12)
            perp = 1 - axis
            on_this &= np.abs(mids[:, perp] - p0[perp]) < 1e-9
            fine_edges = g.edges[on_this]
        edges.append(CoarseEdge(kind, p0, p1, normal, H, adj, fine_edges, iface))

    corners = set()
    for cell in cells:
        for v in cell.verts:
            corners.add((round(v[0] / H), round(v[1] / H)))
    n_fd = sum(1 for e in edges if e.kind == DIRICHLET)
    coarse = CoarseMesh(H, cells, edges, tri_cell, len(cells), len(corners),
                        len(edges), n_fd, 4, 4 * len(cells))
    coarse.validate()
    return coarse


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
