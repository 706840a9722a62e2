"""Discrete oriented surfaces with a normalized area form.

Two mesh families are built here: periodic N x N torus grids (genus 1) and
subdivided-octahedron spheres (genus 0).  Only torus meshes carry a grid
(TorusGrid), which mesh_from_json re-detects; nothing about a sphere mesh
needs one.  Face-to-edge integration is one primitive, integrate_faces: an
exact solve of D theta = target along a spanning tree of the dual graph.
Enclosed area is the loop integral of one cached edge potential of the face
areas; on the torus one walk over the loop's lift to the universal cover
gives both the period windings and, by a discrete Green's theorem, the
uniform part of the area.  No floating-point geometry is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .policy import DEFAULT_POLICY, NumericPolicy


class MalformedLoopError(ValueError):
    """Loop steps are not head-to-tail composable, or the base is wrong."""


class NotNullHomotopicError(ValueError):
    """A genus-1 loop with nonzero period winding where a contractible one is required."""

    def __init__(self, message: str, windings: tuple[int, int]):
        super().__init__(message)
        self.windings = windings


class UnsupportedMeshError(ValueError):
    """Operation needs a recognized torus-grid or sphere mesh structure."""


def wrap_mod1(t: float) -> float:
    """Canonical representative of t mod 1 in the half-open interval (-1/2, 1/2]."""
    r = math.remainder(t, 1.0)
    if r <= -0.5:
        r += 1.0
    return r


@dataclass(frozen=True)
class TorusGrid:
    """Grid structure of a builder torus mesh: edge index -> (kind, x, y)."""

    N: int

    def edge_info(self, edge: int) -> tuple[str, int, int]:
        n = self.N
        if edge < n * n:
            return ("h", edge % n, edge // n)
        e = edge - n * n
        return ("v", e % n, e // n)

    def h_edge(self, x: int, y: int) -> int:
        n = self.N
        return (x % n) + n * (y % n)

    def v_edge(self, x: int, y: int) -> int:
        n = self.N
        return n * n + (x % n) + n * (y % n)

    def vertex(self, x: int, y: int) -> int:
        n = self.N
        return (x % n) + n * (y % n)

    def vertex_xy(self, v: int) -> tuple[int, int]:
        return (v % self.N, v // self.N)

    def face(self, x: int, y: int) -> int:
        n = self.N
        return (x % n) + n * (y % n)


@dataclass(frozen=True)
class MeshLoop:
    """A closed combinatorial path: (edge index, +-1) steps from a base vertex."""

    base: int
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((int(e), int(s)) for e, s in self.steps))
        if any(s not in (-1, 1) for _, s in self.steps):
            raise MalformedLoopError("step signs must be +1 or -1")


class SurfaceMesh:
    """Oriented closed 2-complex with face areas summing to 1.

    Faces are stored as cyclic step lists (edge index, traversal sign),
    rotated so each boundary starts at its lowest-index vertex.  Every
    undirected edge occurs in exactly two face boundaries with opposite
    signs; this is validated at construction together with the Euler
    characteristic and the area normalization, and the two faces are kept
    as the incidence arrays plus_face and minus_face (one entry per edge).
    """

    def __init__(
        self,
        genus: int,
        vertex_count: int,
        edges: list[tuple[int, int]],
        faces: list[tuple[tuple[int, int], ...]],
        face_areas,
        basepoint: int,
        *,
        grid: Optional[TorusGrid] = None,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        if genus not in (0, 1):
            raise ValueError("only genus 0 and 1 meshes are supported")
        self.genus = genus
        self.vertex_count = int(vertex_count)
        self.edges = tuple((int(t), int(h)) for t, h in edges)
        self.faces = tuple(tuple((int(e), int(s)) for e, s in f) for f in faces)
        self.face_areas = np.array(face_areas, dtype=np.float64)
        self.face_areas.setflags(write=False)
        self.basepoint = int(basepoint)
        self.grid = grid
        self._adjacency: Optional[list[list[tuple[int, int, int]]]] = None
        self._dual_tree: Optional[list[tuple[int, int, int, int]]] = None
        self._area_potential: Optional[tuple[np.ndarray, float]] = None
        self._validate(policy)

    # -- derived queries ---------------------------------------------------

    def step_endpoints(self, edge: int, sign: int) -> tuple[int, int]:
        tail, head = self.edges[edge]
        return (tail, head) if sign > 0 else (head, tail)

    def face_start_vertex(self, face: int) -> int:
        e, s = self.faces[face][0]
        return self.step_endpoints(e, s)[0]

    def vertex_steps(self) -> list[list[tuple[int, int, int]]]:
        """Adjacency: per vertex, outgoing (edge, sign, neighbor) steps."""
        if self._adjacency is None:
            adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.vertex_count)]
            for e, (t, h) in enumerate(self.edges):
                adj[t].append((e, 1, h))
                adj[h].append((e, -1, t))
            self._adjacency = adj
        return self._adjacency

    def dual_tree(self) -> list[tuple[int, int, int, int]]:
        """BFS spanning tree of the dual graph, rooted at face 0.

        One (face, parent face, edge shared with the parent, sign of that
        edge in the face's boundary) row per non-root face, in BFS order.
        """
        if self._dual_tree is None:
            plus, minus = self.plus_face.tolist(), self.minus_face.tolist()
            tree: list[tuple[int, int, int, int]] = []
            seen = [False] * len(self.faces)
            seen[0] = True
            queue = [0]
            for f_idx in queue:
                for e, s in self.faces[f_idx]:
                    g = minus[e] if s > 0 else plus[e]
                    if not seen[g]:
                        seen[g] = True
                        tree.append((g, f_idx, e, -s))
                        queue.append(g)
            self._dual_tree = tree
        return self._dual_tree

    # -- validation ---------------------------------------------------------

    def _validate(self, policy: NumericPolicy) -> None:
        v, e, f = self.vertex_count, len(self.edges), len(self.faces)
        if v - e + f != 2 - 2 * self.genus:
            raise ValueError(
                f"Euler characteristic {v - e + f} does not match genus {self.genus}"
            )
        # fail closed: every comparison with NaN is False
        if len(self.face_areas) != f or not np.all(self.face_areas > 0):
            raise ValueError("face_areas must be positive, one per face")
        if not abs(float(np.sum(self.face_areas)) - 1.0) <= policy.area_sum_tol:
            raise ValueError("face areas must sum to 1")
        if not (0 <= self.basepoint < v):
            raise ValueError("basepoint out of range")
        seen: dict[int, list[tuple[int, int]]] = {}  # edge -> [(sign, face)]
        for f_idx, face in enumerate(self.faces):
            here = self.step_endpoints(*face[0])[0]
            for e_idx, s in face:
                tail, head = self.step_endpoints(e_idx, s)
                if tail != here:
                    raise ValueError("face boundary steps are not composable")
                here = head
                seen.setdefault(e_idx, []).append((s, f_idx))
            if here != self.step_endpoints(*face[0])[0]:
                raise ValueError("face boundary does not close")
        self.plus_face = np.empty(e, dtype=np.intp)
        self.minus_face = np.empty(e, dtype=np.intp)
        for e_idx in range(e):
            sides = sorted(seen.get(e_idx, []))
            if [s for s, _ in sides] != [-1, 1]:
                raise ValueError(
                    f"edge {e_idx} must appear in exactly two faces with opposite signs"
                )
            (_, self.minus_face[e_idx]), (_, self.plus_face[e_idx]) = sides
        self.plus_face.setflags(write=False)
        self.minus_face.setflags(write=False)


# ---------------------------------------------------------------------------
# builders

def _rotate_to_lowest_vertex(mesh_edges, steps: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    def start(e, s):
        tail, head = mesh_edges[e]
        return tail if s > 0 else head

    starts = [start(e, s) for e, s in steps]
    k = starts.index(min(starts))
    return tuple(steps[k:] + steps[:k])


def build_torus_mesh(
    N: int,
    face_areas=None,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> SurfaceMesh:
    """Periodic N x N square grid: N^2 vertices, 2N^2 edges, N^2 faces.

    Horizontal edge h(x,y) points in +x, vertical edge v(x,y) in +y; the
    face at (x,y) is the counterclockwise square with corner (x,y).  The
    two period cycles through the basepoint (0,0) are available via
    alpha_loop (horizontal) and beta_loop (vertical).
    """
    if N < 2:
        raise ValueError("torus grid needs N >= 2")
    grid = TorusGrid(N)
    edges, faces = _torus_complex(grid)
    if face_areas is None:
        face_areas = np.full(N * N, 1.0 / (N * N))
    return SurfaceMesh(1, N * N, edges, faces, face_areas, 0, grid=grid, policy=policy)


def _torus_complex(grid: TorusGrid) -> tuple[tuple, tuple]:
    """Edges and faces of the builder torus, in SurfaceMesh's stored form."""
    N = grid.N
    edges = tuple((grid.vertex(x, y), grid.vertex(x + 1, y)) for y in range(N) for x in range(N))
    edges += tuple((grid.vertex(x, y), grid.vertex(x, y + 1)) for y in range(N) for x in range(N))
    faces = []
    for y in range(N):
        for x in range(N):
            steps = [
                (grid.h_edge(x, y), 1),
                (grid.v_edge(x + 1, y), 1),
                (grid.h_edge(x, y + 1), -1),
                (grid.v_edge(x, y), -1),
            ]
            faces.append(_rotate_to_lowest_vertex(edges, steps))
    return edges, tuple(faces)


def alpha_loop(mesh: SurfaceMesh) -> MeshLoop:
    """Horizontal period cycle through the basepoint of a torus grid."""
    grid = _require_torus(mesh)
    return MeshLoop(mesh.basepoint, tuple((grid.h_edge(x, 0), 1) for x in range(grid.N)))


def beta_loop(mesh: SurfaceMesh) -> MeshLoop:
    """Vertical period cycle through the basepoint of a torus grid."""
    grid = _require_torus(mesh)
    return MeshLoop(mesh.basepoint, tuple((grid.v_edge(0, y), 1) for y in range(grid.N)))


_OCTAHEDRON_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def build_sphere_mesh(
    subdiv: int,
    face_areas=None,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> SurfaceMesh:
    """Octahedron with each triangular face subdivided subdiv^2 times.

    Vertices are identified across parent faces through their integer
    coordinates i*A + j*B + k*C (i+j+k = subdiv) on the unit octahedron, so
    the result is a closed oriented sphere: V = 4s^2 + 2, E = 12s^2,
    F = 8s^2, all faces of area 1/(8 s^2) unless overridden.
    """
    if subdiv < 1:
        raise ValueError("sphere mesh needs subdiv >= 1")
    s = subdiv
    vertex_ids: dict[tuple[int, int, int], int] = {}
    triangles: list[tuple[int, int, int]] = []

    def vid(key: tuple[int, int, int]) -> int:
        if key not in vertex_ids:
            vertex_ids[key] = len(vertex_ids)
        return vertex_ids[key]

    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                corners = [
                    tuple(s1 * c for c in _OCTAHEDRON_AXES[0]),
                    tuple(s2 * c for c in _OCTAHEDRON_AXES[1]),
                    tuple(s3 * c for c in _OCTAHEDRON_AXES[2]),
                ]
                if s1 * s2 * s3 < 0:
                    corners = [corners[0], corners[2], corners[1]]
                a, b, c = corners

                def point(i: int, j: int) -> int:
                    w0 = s - i - j
                    key = tuple(w0 * a[m] + i * b[m] + j * c[m] for m in range(3))
                    return vid(key)  # type: ignore[arg-type]

                for i in range(s):
                    for j in range(s - i):
                        triangles.append((point(i, j), point(i + 1, j), point(i, j + 1)))
                        if i + j <= s - 2:
                            triangles.append(
                                (point(i + 1, j), point(i + 1, j + 1), point(i, j + 1))
                            )

    edge_ids: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []

    def eid(u: int, v: int) -> int:
        key = (min(u, v), max(u, v))
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append(key)
        return edge_ids[key]

    faces = []
    for u, v, w in triangles:
        steps = []
        for a_, b_ in ((u, v), (v, w), (w, u)):
            steps.append((eid(a_, b_), 1 if a_ < b_ else -1))
        faces.append(_rotate_to_lowest_vertex(edges, steps))

    f = len(faces)
    if face_areas is None:
        face_areas = np.full(f, 1.0 / f)
    return SurfaceMesh(0, len(vertex_ids), edges, faces, face_areas, 0, policy=policy)


def _require_torus(mesh: SurfaceMesh) -> TorusGrid:
    if mesh.genus != 1 or not isinstance(mesh.grid, TorusGrid):
        raise UnsupportedMeshError("operation needs a torus grid mesh")
    return mesh.grid


# ---------------------------------------------------------------------------
# loop utilities

def validate_loop(mesh: SurfaceMesh, loop: MeshLoop) -> list[int]:
    """Check composability and closure; return the visited vertex path."""
    if not (0 <= loop.base < mesh.vertex_count):
        raise MalformedLoopError("loop base vertex out of range")
    here = loop.base
    path = [here]
    for e, s in loop.steps:
        if not (0 <= e < len(mesh.edges)):
            raise MalformedLoopError(f"edge index {e} out of range")
        tail, head = mesh.step_endpoints(e, s)
        if tail != here:
            raise MalformedLoopError("loop steps are not head-to-tail composable")
        here = head
        path.append(here)
    if here != loop.base:
        raise MalformedLoopError("loop does not return to its base vertex")
    return path


def clip_steps(steps) -> tuple[tuple[int, int], ...]:
    """Delete adjacent (edge, s)(edge, -s) pairs until none remain.

    The result is independent of deletion order (free reduction is
    confluent), so a single stack pass suffices.
    """
    out: list[tuple[int, int]] = []
    for e, s in steps:
        if out and out[-1][0] == e and out[-1][1] == -s:
            out.pop()
        else:
            out.append((e, s))
    return tuple(out)


def loop_concat(l1: MeshLoop, l2: MeshLoop) -> MeshLoop:
    """Traverse l1, then l2 (both based at the same vertex)."""
    if l1.base != l2.base:
        raise MalformedLoopError("cannot concatenate loops at different base vertices")
    return MeshLoop(l1.base, l1.steps + l2.steps)


def loop_reverse(loop: MeshLoop) -> MeshLoop:
    return MeshLoop(loop.base, tuple((e, -s) for e, s in reversed(loop.steps)))


def face_boundary_loop(mesh: SurfaceMesh, face: int) -> MeshLoop:
    return MeshLoop(mesh.face_start_vertex(face), tuple(mesh.faces[face]))


def torus_windings(mesh: SurfaceMesh, loop: MeshLoop) -> tuple[int, int]:
    """Period winding numbers (p, q): signed crossings of the two cut cycles."""
    grid = _require_torus(mesh)
    validate_loop(mesh, loop)
    dx, dy, _ = _lifted_walk(grid, loop)
    return (dx // grid.N, dy // grid.N)


def _lifted_walk(grid: TorusGrid, loop: MeshLoop) -> tuple[int, int, int]:
    """Walk a loop's lift to the universal cover: net displacement (dx, dy)
    and the discrete Green's cell sum, the sum over vertical steps of s * x
    with x the lift's column counted from the base.  For a closed lift
    that sum is the total winding number of all cells around it."""
    x = dy = cells = 0
    for e, s in loop.steps:
        if grid.edge_info(e)[0] == "h":
            x += s
        else:
            dy += s
            cells += s * x
    return x, dy, cells


# ---------------------------------------------------------------------------
# face integration and enclosed area

def integrate_faces(mesh: SurfaceMesh, target) -> np.ndarray:
    """Edge values theta with sum over (e, s) in the boundary of f of s * theta_e = target_f.

    Targets must sum to zero, which is the whole image of the face
    coboundary on a closed surface.  Edges off the dual spanning tree carry
    0; each face hands the sum of its subtree to the edge it shares with
    its parent, which leaves the root with exactly the total, zero.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (len(mesh.faces),):
        raise ValueError("integrate_faces needs one target per face")
    # roundoff on the scale of the unit total area at least: a target made
    # zero-sum by subtracting its mean keeps the rounding error of values
    # larger than what is left of them
    roundoff = len(target) * np.finfo(np.float64).eps * max(float(np.sum(np.abs(target))), 1.0)
    if not abs(float(np.sum(target))) <= roundoff:
        raise ValueError(f"face targets sum to {np.sum(target):.3e}, not to zero")
    subtree = target.tolist()
    theta = np.zeros(len(mesh.edges))
    for face, parent, edge, sign in reversed(mesh.dual_tree()):
        theta[edge] = sign * subtree[face]
        subtree[parent] += subtree[face]
    return theta


def area_potential(mesh: SurfaceMesh) -> tuple[np.ndarray, float]:
    """Cached edge potential theta of the face areas and the density it leaves out.

    Torus: D theta = areas - density on every face, with density the mean
    face area, and theta is exactly 0 for uniform areas.  Sphere: D theta =
    areas - (total area) on face 0, and density is 0.
    """
    if mesh._area_potential is None:
        areas = mesh.face_areas
        if mesh.genus == 1:
            deviation = areas - 1.0 / len(areas)
            # face areas sum to 1 only within area_sum_tol
            offset = float(np.mean(deviation))
            target, density = deviation - offset, 1.0 / len(areas) + offset
        else:
            target, density = areas.copy(), 0.0
            target[0] -= np.sum(areas)
        mesh._area_potential = (integrate_faces(mesh, target), density)
    return mesh._area_potential


def enclosed_area(mesh: SurfaceMesh, loop: MeshLoop) -> float:
    """Area-weighted winding number sum of a closed loop.

    The loop integral of area_potential gives every face's area except the
    reference part.  Genus 0: that part is face 0's winding times the total
    area, a multiple of 1, so the result is a class mod 1, returned as its
    canonical representative in (-1/2, 1/2].  Genus 1: the loop must be
    null-homotopic (else NotNullHomotopicError with its windings), and the
    uniform part is the density times the signed cell count of the loop's
    lift, from the same walk (_lifted_walk) that torus_windings uses.
    """
    validate_loop(mesh, loop)
    theta, density = area_potential(mesh)
    flux = float(sum(s * theta[e] for e, s in loop.steps))
    if mesh.genus == 0:
        return wrap_mod1(flux)
    grid = _require_torus(mesh)
    dx, dy, cells = _lifted_walk(grid, loop)
    if dx or dy:
        p, q = dx // grid.N, dy // grid.N
        raise NotNullHomotopicError(
            f"loop has period windings ({p}, {q}); enclosed area needs a null-homotopic loop",
            (p, q),
        )
    return density * cells + flux


# ---------------------------------------------------------------------------
# random loops (tests and the CLI's --random pair source)

def random_loop(
    mesh: SurfaceMesh,
    rng: np.random.Generator,
    n_steps: int = 12,
    windings: Optional[tuple[int, int]] = None,
) -> MeshLoop:
    """Random closed walk from the basepoint.

    On a torus grid the loop is closed in the universal cover so its period
    windings equal exactly the requested pair (default (0, 0)).  On a
    sphere the walk is closed through spanning-tree ancestors of the 1-skeleton.
    """
    if mesh.genus == 1:
        return _random_torus_loop(mesh, rng, n_steps, windings or (0, 0))
    if windings not in (None, (0, 0)):
        raise UnsupportedMeshError("period windings only make sense on the torus")
    return _random_sphere_loop(mesh, rng, n_steps)


def _random_torus_loop(mesh, rng, n_steps, windings) -> MeshLoop:
    grid = _require_torus(mesh)
    n = grid.N
    p, q = windings
    bx, by = grid.vertex_xy(mesh.basepoint)
    x, y = bx, by
    steps: list[tuple[int, int]] = []
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for _ in range(n_steps):
        dx, dy = moves[rng.integers(4)]
        steps.append(_torus_step(grid, x, y, dx, dy))
        x += dx
        y += dy
    tx, ty = bx + p * n, by + q * n
    while x != tx:
        dx = 1 if tx > x else -1
        steps.append(_torus_step(grid, x, y, dx, 0))
        x += dx
    while y != ty:
        dy = 1 if ty > y else -1
        steps.append(_torus_step(grid, x, y, 0, dy))
        y += dy
    return MeshLoop(mesh.basepoint, clip_steps(steps))


def _torus_step(grid: TorusGrid, x: int, y: int, dx: int, dy: int) -> tuple[int, int]:
    if dx == 1:
        return (grid.h_edge(x, y), 1)
    if dx == -1:
        return (grid.h_edge(x - 1, y), -1)
    if dy == 1:
        return (grid.v_edge(x, y), 1)
    return (grid.v_edge(x, y - 1), -1)


def _random_sphere_loop(mesh, rng, n_steps) -> MeshLoop:
    adj = mesh.vertex_steps()
    # spanning tree of the 1-skeleton, parents pointing toward the basepoint
    parent: dict[int, tuple[int, int, int]] = {mesh.basepoint: (-1, 0, -1)}
    frontier = [mesh.basepoint]
    while frontier:
        v = frontier.pop(0)
        for e, s, w in adj[v]:
            if w not in parent:
                parent[w] = (e, -s, v)  # step taking w back to v
                frontier.append(w)
    here = mesh.basepoint
    steps: list[tuple[int, int]] = []
    for _ in range(n_steps):
        e, s, w = adj[here][rng.integers(len(adj[here]))]
        steps.append((e, s))
        here = w
    while here != mesh.basepoint:
        e, s, v = parent[here]
        steps.append((e, s))
        here = v
    return MeshLoop(mesh.basepoint, clip_steps(steps))


def random_homotopic_pair(
    mesh: SurfaceMesh,
    rng: np.random.Generator,
    n_steps: int = 12,
    winding_range: int = 1,
) -> tuple[MeshLoop, MeshLoop]:
    """Two independent random loops in the same homotopy class."""
    if mesh.genus == 1:
        w = (
            int(rng.integers(-winding_range, winding_range + 1)),
            int(rng.integers(-winding_range, winding_range + 1)),
        )
        return (
            random_loop(mesh, rng, n_steps, windings=w),
            random_loop(mesh, rng, n_steps, windings=w),
        )
    return (random_loop(mesh, rng, n_steps), random_loop(mesh, rng, n_steps))


# ---------------------------------------------------------------------------
# JSON encoding (mesh and loop schemas used by the CLI files)

def required_keys(obj, what: str, *keys: str) -> list:
    """Values of the given keys of a JSON object, in order.

    Raises ValueError naming the first missing key, so malformed input
    files are reported as bad data rather than as a crash.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the key {key!r}")
    return [obj[key] for key in keys]


def mesh_to_json(mesh: SurfaceMesh) -> dict:
    """Faces are encoded as 1-based signed edge indices (sign = traversal)."""
    return {
        "genus": mesh.genus,
        "vertices": mesh.vertex_count,
        "edges": [[t, h] for t, h in mesh.edges],
        "faces": [[s * (e + 1) for e, s in face] for face in mesh.faces],
        "face_areas": mesh.face_areas.tolist(),
        "basepoint": mesh.basepoint,
    }


def mesh_from_json(obj: dict, *, policy: NumericPolicy = DEFAULT_POLICY) -> SurfaceMesh:
    genus, vertices, edges, faces, face_areas, basepoint = required_keys(
        obj, "mesh", "genus", "vertices", "edges", "faces", "face_areas", "basepoint"
    )
    mesh = SurfaceMesh(
        int(genus),
        int(vertices),
        [(int(t), int(h)) for t, h in edges],
        [tuple((abs(k) - 1, 1 if k > 0 else -1) for k in face) for face in faces],
        face_areas,
        int(basepoint),
        grid=None,
        policy=policy,
    )
    mesh.grid = _detect_grid(mesh)
    return mesh


def _detect_grid(mesh: SurfaceMesh) -> Optional[TorusGrid]:
    """Recognize a builder torus mesh by exact topological comparison."""
    N = math.isqrt(mesh.vertex_count)
    if mesh.genus != 1 or N < 2 or N * N != mesh.vertex_count or mesh.basepoint != 0:
        return None
    grid = TorusGrid(N)
    if (mesh.edges, mesh.faces) == _torus_complex(grid):
        return grid
    return None


def loop_to_json(loop: MeshLoop) -> dict:
    return {"base": loop.base, "steps": [[e, s] for e, s in loop.steps]}


def loop_from_json(obj: dict) -> MeshLoop:
    base, steps = required_keys(obj, "loop", "base", "steps")
    return MeshLoop(int(base), tuple((int(e), int(s)) for e, s in steps))
