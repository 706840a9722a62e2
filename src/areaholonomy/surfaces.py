"""Discrete oriented surfaces with a normalized area form.

Two mesh families are built here: periodic N x N torus grids (genus 1) and
subdivided-octahedron spheres (genus 0).  Every mesh, built or loaded,
finds its grid (TorusGrid) from its own complex: a mesh whose complex is
exactly the builder torus's has one, and every other mesh has None.
Face-to-edge integration is one primitive, integrate_faces: an
exact solve of D theta = target along a spanning tree of the dual graph.
Enclosed area is the loop integral of one edge potential of the face
areas (SurfaceMesh.area_potential); on the torus the loop's lift to the
universal cover gives both the period windings and, by a discrete Green's
theorem, the uniform part of the area.  One primitive, _loop_lifts, gives
every loop's lift and flux in one pass; enclosed_area and words.loop_class
both read it.  No floating-point geometry is involved.

Every table a mesh derives from its own data (its grid, the potential,
its per-step fluxes, the spanning trees, a grid's step moves, the face
tables of lattice._Engine) is a cached_property of the mesh or its
TorusGrid: computed once, on first use.  A builder torus finds its grid
as it is built, against the arrays it was built from.  A built mesh
refuses every other write (AttributeError), so no table can go stale or
disagree with the complex.

Loops are checked, walked and integrated as arrays: the steps of many
loops are laid out flat (_loopsteps), and validate_loop, torus_windings
and enclosed_area are one-element calls of the kernels over that layout.
A face boundary is a loop too: every mesh lays out its faces once, and
its construction checks them with array passes over that layout.
"""

from __future__ import annotations

import math
import numbers
import operator
import weakref
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, cycle
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

# clip_steps is public through this module
from ._loopsteps import LoopSteps, Schedule, clip_steps, first_fault, flat_steps, lifts, schedule, step_rows
from .policy import DEFAULT_POLICY

_INTP = np.iinfo(np.intp)


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

    def h_edge(self, x: int, y: int) -> int:
        n = self.N
        return (x % n) + n * (y % n)

    def v_edge(self, x: int, y: int) -> int:
        n = self.N
        return n * n + (x % n) + n * (y % n)

    def vertex_xy(self, v: int) -> tuple[int, int]:
        return (v % self.N, v // self.N)

    def face(self, x: int, y: int) -> int:
        n = self.N
        return (x % n) + n * (y % n)

    @cached_property
    def step_moves(self) -> np.ndarray:
        """The moves dx (row 0) and dy (row 1) of every step row
        (_loopsteps): +-1 in dx for the horizontal edges h, below N^2, and
        in dy for the vertical ones (read-only)."""
        half = 2 * self.N * self.N
        moves = np.zeros((2, 2 * half), np.intp)
        moves[0, :half] = moves[1, half:] = np.tile((1, -1), self.N * self.N)
        return _read_only(moves)


@dataclass(frozen=True)
class MeshLoop:
    """A closed combinatorial path: (edge index, +-1) steps from a base
    vertex.  Indices follow json_int's rule and steps are pairs
    (_int_rows): a boolean or a fraction raises instead of being truncated.

    That check runs on every loop a caller builds and on every loop
    loop_from_json reads.  Loops the package derives from integers it
    already holds (loop_concat, loop_reverse, alpha_loop, beta_loop,
    face_boundary_loop, the random loops, words.std_loop and the lattice's
    block and face loops) are made by _derived_loop instead, which skips
    it: their indices are ints by construction.  The signs must be +-1,
    and a base or edge index beyond intp, which no mesh has, raises
    validate_loop's MalformedLoopError here, so every index fits the
    _loopsteps arrays.  The rest of validate_loop needs a mesh.
    """

    base: int
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "base", json_int(self.base, "loop: base"))
        steps = tuple(map(tuple, _int_rows(self.steps, "loop: steps", ("loop: a step edge", "loop: a step sign"), 2)[0]))
        object.__setattr__(self, "steps", steps)
        if any(s not in (-1, 1) for _, s in self.steps):
            raise MalformedLoopError("step signs must be +1 or -1")
        if not _INTP.min <= self.base <= _INTP.max:
            raise MalformedLoopError("loop base vertex out of range")
        beyond = [e for e, _ in steps if not _INTP.min <= e <= _INTP.max]
        if beyond:
            raise MalformedLoopError(f"edge index {beyond[0]} out of range")


def _derived_loop(base: int, steps: tuple[tuple[int, int], ...]) -> MeshLoop:
    """A MeshLoop of int indices and +-1 signs, without MeshLoop's check."""
    loop = object.__new__(MeshLoop)
    object.__setattr__(loop, "base", base)
    object.__setattr__(loop, "steps", steps)
    return loop


class SurfaceMesh:
    """Oriented closed 2-complex with face areas summing to 1.

    Faces are cyclic step lists (edge index, traversal sign), rotated so
    each boundary starts at its lowest-index vertex.  Edges and face steps
    are read into flat intp arrays by _int_rows (the builders and
    mesh_from_json hand over arrays); the edges tuple, and faces on first
    use, are formed from them.  Every undirected edge occurs in exactly
    two face boundaries with opposite signs; this is validated in array
    passes together with connectedness, the Euler characteristic and the
    area normalization.  The boundaries are laid out once as the loops of
    a _loopsteps layout, face_steps, each based at its face's start
    vertex: face f takes the flat steps (slots) face_steps.starts[f]
    onwards, and face_of_slot names the face of every slot.  Per edge,
    plus_slot and minus_slot are its slots of sign +1 and -1, plus_face
    and minus_face the faces that hold them, and tails and heads its
    endpoints.  step_ends is the (tail, head) of every step row
    (_loopsteps): (tails[e], heads[e]) in row 2e and (heads[e], tails[e])
    in row 2e + 1.  All of these are read-only.  The rest of what the mesh
    derives, its grid included, is a cached_property, and no attribute of
    a built mesh can be set or deleted.
    Integer slots follow the rule of json_int (_int_rows): a boolean or a
    number with a fractional part raises instead of being truncated.  Face
    areas follow json_float's (_float_array): a string or a boolean raises.
    """

    # True once __init__ has validated the mesh; __setattr__ then refuses
    _built = False

    def __init__(
        self,
        genus: int,
        vertex_count: int,
        edges: list[tuple[int, int]],
        faces: list[tuple[tuple[int, int], ...]],
        face_areas,
        basepoint: int,
    ):
        genus = json_int(genus, "mesh: genus")
        if genus not in (0, 1):
            raise ValueError("only genus 0 and 1 meshes are supported")
        self.genus = genus
        self.vertex_count = json_int(vertex_count, "mesh: vertices")
        ends = edges
        if not (isinstance(edges, np.ndarray) and edges.dtype == np.intp and edges.shape[1:] == (2,)):
            ends = _int_rows(edges, "mesh: edges", ("mesh: an edge tail", "mesh: an edge head"), 2)[1].reshape(-1, 2)
        if not isinstance(faces, _FaceSteps):
            faces = tuple(map(tuple, _rows(faces, "mesh: faces", "a list of steps")))
            _, steps = _int_rows([*chain.from_iterable(faces)], "mesh: face steps", ("mesh: a face edge", "mesh: a face sign"), 2)
            faces = _FaceSteps(np.fromiter(map(len, faces), np.intp, len(faces)), *steps.reshape(-1, 2).T)
        self.face_areas = _float_array(face_areas, "mesh: a face area", "face_areas must be positive, one per face")
        self.face_areas.setflags(write=False)
        self.basepoint = json_int(basepoint, "mesh: basepoint")
        self._validate(ends, *faces)
        self._built = True

    def __setattr__(self, name: str, value) -> None:
        # a cached_property stores its table in __dict__ without calling
        # this, so only __init__ and _validate write through here
        if self._built:
            raise AttributeError(f"a built SurfaceMesh is read-only: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a built SurfaceMesh is read-only: cannot delete {name!r}")

    # -- derived queries ---------------------------------------------------

    def face_start_vertex(self, face: int) -> int:
        return int(self.face_steps.bases[face])

    @cached_property
    def grid(self) -> Optional[TorusGrid]:
        """TorusGrid(N) when the complex is exactly build_torus_mesh(N)'s,
        face lengths included, at any basepoint; else None."""
        N, layout = math.isqrt(self.vertex_count), self.face_steps
        if self.genus != 1 or N < 2 or not np.array_equal(layout.lengths, np.full(N * N, 4)):
            return None
        ours = (self.tails, self.heads, layout.edges, layout.signs)
        return TorusGrid(N) if all(map(np.array_equal, ours, _torus_arrays(N))) else None

    @cached_property
    def vertex_steps(self) -> list[list[tuple[int, int, int]]]:
        """Adjacency: per vertex, outgoing (edge, sign, neighbor) steps."""
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.vertex_count)]
        for e, (t, h) in enumerate(self.edges):
            adj[t].append((e, 1, h))
            adj[h].append((e, -1, t))
        return adj

    @cached_property
    def faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each face's boundary steps (edge, sign), formed from face_steps
        on first use out of the tuples of _step_tuples."""
        layout = self.face_steps
        steps = tuple(map(self._step_tuples.__getitem__, layout.rows.tolist()))
        return tuple([steps[a:b] for a, b in zip(layout.starts.tolist(), (layout.starts + layout.lengths).tolist())])

    @cached_property
    def dual_tree(self) -> list[tuple[int, int, int, int]]:
        """BFS spanning tree of the dual graph, rooted at face 0.

        One (face, parent face, edge shared with the parent, sign of that
        edge in the face's boundary) row per non-root face, in BFS order.
        """
        layout = self.face_steps
        # per face the face across each of its slots, padded with face 0
        across = np.where(layout.signs > 0, self.minus_face[layout.edges], self.plus_face[layout.edges])
        neighbours = np.append(across, 0)[self.face_slots].tolist()
        edges, signs, starts = layout.edges.tolist(), layout.signs.tolist(), layout.starts.tolist()
        tree: list[tuple[int, int, int, int]] = []
        seen, queue = [True] + [False] * (len(neighbours) - 1), [0]
        for f in queue:
            for g in neighbours[f]:
                if not seen[g]:
                    seen[g] = True
                    i = starts[f] + neighbours[f].index(g)
                    tree.append((g, f, edges[i], -signs[i]))
                    queue.append(g)
        return tree

    @cached_property
    def _basepoint_tree(self) -> list[tuple[int, int, int]]:
        """BFS spanning tree of the 1-skeleton, rooted at the basepoint.

        Per vertex, the (edge, sign, vertex) step taking it one level
        closer to the basepoint; the basepoint's own row is (-1, 0, -1).
        """
        adj = self.vertex_steps
        parent: list[Optional[tuple[int, int, int]]] = [None] * self.vertex_count
        parent[self.basepoint] = (-1, 0, -1)
        queue = [self.basepoint]
        for v in queue:
            for e, s, w in adj[v]:
                if parent[w] is None:
                    parent[w] = (e, -s, v)
                    queue.append(w)
        return parent

    @cached_property
    def area_potential(self) -> tuple[np.ndarray, float]:
        """Edge potential theta of the face areas (read-only) and the
        density it leaves out.

        Torus: D theta = areas - density on every face, with density the mean
        face area, and theta is exactly 0 for uniform areas.  Sphere: D theta =
        areas - (total area) on face 0, and density is 0.
        """
        areas = self.face_areas
        if self.genus == 1:
            deviation = areas - 1.0 / len(areas)
            # face areas sum to 1 only within area_sum_tol
            offset = float(np.mean(deviation))
            target, density = deviation - offset, 1.0 / len(areas) + offset
        else:
            target, density = areas.copy(), 0.0
            target[0] -= np.sum(areas)
        return _read_only(integrate_faces(self, target)), density

    @cached_property
    def _step_fluxes(self) -> np.ndarray:
        """Flux of area_potential across every step row (_loopsteps):
        theta[e] in row 2e and -theta[e] in row 2e + 1, theta[e] * s exactly
        (read-only)."""
        theta = self.area_potential[0]
        return _read_only(np.stack((theta, -theta), axis=1).reshape(-1))

    @cached_property
    def _step_tuples(self) -> tuple[tuple[int, int], ...]:
        """The (edge, sign) step of every step row (_loopsteps): (e, 1) in
        row 2e and (e, -1) in row 2e + 1, the tuples faces holds, so a walk
        built from them makes no tuple."""
        return tuple(zip(np.repeat(np.arange(len(self.edges)), 2).tolist(), (1, -1) * len(self.edges)))

    @cached_property
    def _period_fluxes(self) -> tuple[list[float], ...]:
        """Flux terms of area_potential, one per step, along alpha_loop, its
        inverse, beta_loop and its inverse, as a walk along their steps takes
        them.  Torus grid meshes only."""
        theta = self.area_potential[0].tolist()
        fluxes = []
        for cycle in (alpha_loop(self), beta_loop(self)):
            terms = [theta[e] * s for e, s in cycle.steps]
            fluxes += [terms, [-v for v in reversed(terms)]]
        return tuple(fluxes)

    @cached_property
    def face_schedule(self) -> Schedule:
        """The order _loopsteps.prefixes multiplies the face boundaries in:
        row ends[f] of the product stack is face f's plaquette (read-only)."""
        order = schedule(self.face_steps)
        for array in (order.at, order.offsets, order.ends, *order.rows):
            array.setflags(write=False)
        return order

    @cached_property
    def transport_rows(self) -> np.ndarray:
        """Per slot, the face_schedule row of its face's boundary product
        before the slot, or through it where its sign is -1 (read-only)."""
        order, layout, face = self.face_schedule, self.face_steps, self.face_of_slot
        position = np.arange(len(face)) - layout.starts[face]
        return _read_only(order.offsets[position + (layout.signs < 0)] + order.at[face])

    @cached_property
    def face_slots(self) -> np.ndarray:
        """Per face its slots, padded to the longest face M (F, M) with the
        slot count S, which names no slot (read-only)."""
        layout = self.face_steps
        width = np.arange(np.max(layout.lengths))
        return _read_only(np.where(width < layout.lengths[:, None], layout.starts[:, None] + width, len(self.face_of_slot)))

    @cached_property
    def face_places(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge's place in the boundary of its +1 face and of its -1
        face: plus_slot and minus_slot less their face's start (read-only)."""
        starts = self.face_steps.starts
        return _read_only(self.plus_slot - starts[self.plus_face]), _read_only(self.minus_slot - starts[self.minus_face])

    @cached_property
    def neighbours(self) -> np.ndarray:
        """Per edge the edges of its +1 face and then of its -1 face, each
        padded as face_slots pads it, the pads reading edge 0 (read-only)."""
        face_edges = np.append(self.face_steps.edges, 0)[self.face_slots]
        return _read_only(np.concatenate((face_edges[self.plus_face], face_edges[self.minus_face]), axis=1))

    # -- validation ---------------------------------------------------------

    def _validate(self, ends: np.ndarray, lengths: np.ndarray, edges: np.ndarray, signs: np.ndarray) -> None:
        v, e, f = self.vertex_count, len(ends), len(lengths)
        if v - e + f != 2 - 2 * self.genus:
            raise ValueError(
                f"Euler characteristic {v - e + f} does not match genus {self.genus}"
            )
        # fail closed: every comparison with NaN is False
        if self.face_areas.shape != (f,) or not np.all(self.face_areas > 0):
            raise ValueError("face_areas must be positive, one per face")
        if not abs(float(np.sum(self.face_areas)) - 1.0) <= DEFAULT_POLICY.area_sum_tol:
            raise ValueError("face areas must sum to 1")
        if not (0 <= self.basepoint < v):
            raise ValueError("basepoint out of range")
        # a negative index reads as a huge unsigned one
        if (ends.view(np.uintp) >= v).any():
            raise ValueError(f"edge endpoints must be vertices 0..{v - 1}")
        self.tails, self.heads = ends.T.copy()
        self.edges = tuple(zip(self.tails.tolist(), self.heads.tolist()))
        self.step_ends = np.stack((self.tails, self.heads, self.heads, self.tails), axis=1).reshape(-1, 2)
        # every face's range is checked before any boundary is walked; a sign
        # other than +-1 steps along its step_ends row and fills no slot
        self.face_of_slot = np.repeat(np.arange(f), lengths)
        beyond = edges.view(np.uintp) >= e
        if (lengths == 0).any() or beyond.any():
            bad = np.flatnonzero((lengths == 0) | (np.bincount(self.face_of_slot[beyond], minlength=f) > 0))
            raise ValueError(f"face {bad[0]} must list edges among 0..{e - 1}")
        starts = np.zeros_like(lengths)
        np.cumsum(lengths[:-1], out=starts[1:])
        bases = np.where(signs[starts] > 0, self.tails[edges[starts]], self.heads[edges[starts]])
        self.face_steps = LoopSteps(bases, starts, lengths, edges, signs, step_rows(edges, signs))
        fault = first_fault(self, self.face_steps)
        if fault:
            raise ValueError(f"face {fault[0]} must list its edges head to tail around a closed boundary")
        plus, minus = signs == 1, signs == -1
        uses = [np.bincount(edges[side], minlength=e) for side in (plus, minus, slice(None))]
        wrong = np.flatnonzero((uses[0] != 1) | (uses[1] != 1) | (uses[2] != 2))
        if len(wrong):
            raise ValueError(f"edge {wrong[0]} must appear in exactly two faces with opposite signs")
        self.plus_slot, self.minus_slot = np.empty(e, np.intp), np.empty(e, np.intp)
        self.plus_slot[edges[plus]] = np.flatnonzero(plus)
        self.minus_slot[edges[minus]] = np.flatnonzero(minus)
        self.plus_face, self.minus_face = self.face_of_slot[self.plus_slot], self.face_of_slot[self.minus_slot]
        for array in (self.tails, self.heads, self.step_ends, *self.face_steps, self.face_of_slot,
                      self.plus_slot, self.minus_slot, self.plus_face, self.minus_face):
            array.setflags(write=False)
        # every edge borders a face, so with no isolated vertex a connected
        # dual graph makes the whole complex connected
        if (np.bincount(ends.ravel(), minlength=v) == 0).any() or len(self.dual_tree) != f - 1:
            raise ValueError("the complex is not connected")


class _FaceSteps(NamedTuple):
    """Faces as arrays: each face's step count, all steps' edges and signs."""

    lengths: np.ndarray
    edges: np.ndarray
    signs: np.ndarray


# ---------------------------------------------------------------------------
# builders

def build_torus_mesh(N: int, face_areas=None) -> SurfaceMesh:
    """Periodic N x N square grid: N^2 vertices, 2N^2 edges, N^2 faces.

    Horizontal edge h(x,y) points in +x, vertical edge v(x,y) in +y; the
    face at (x,y) is the counterclockwise square with corner (x,y).  The
    basepoint is vertex (0,0).  The grid does not depend on it: a mesh
    re-based at another vertex keeps it, and the period cycles alpha_loop
    (horizontal) and beta_loop (vertical) run through whichever vertex is
    the basepoint, not through (0,0).
    """
    if N < 2:
        raise ValueError("torus grid needs N >= 2")
    arrays = _torus_arrays(N)
    tails, heads, edges, signs = arrays
    if face_areas is None:
        face_areas = np.full(N * N, 1.0 / (N * N))
    faces = _FaceSteps(np.full(N * N, 4, np.intp), edges, signs)
    mesh = SurfaceMesh(1, N * N, np.stack((tails, heads), axis=1), faces, face_areas, 0)
    # found while arrays holds the layout, so the grid check compares the
    # mesh with it instead of laying it out again
    mesh.grid
    return mesh


class _TorusLayout(list):
    """The four arrays of _torus_arrays, in a list so that a weak
    reference can name them."""


# each N's layout while some caller holds it, and no longer
_LAID_OUT: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _torus_arrays(N: int) -> _TorusLayout:
    """Edge tails and heads and the flat face edges and signs of the builder
    torus, as SurfaceMesh stores them: face (x, y) is h(x, y), v(x + 1, y),
    h(x, y + 1)^-1, v(x, y)^-1, rotated to start at its lowest vertex.
    The arrays are read-only, and every call made while a caller still
    holds them returns the same ones."""
    layout = _LAID_OUT.get(N)
    if layout is not None:
        return layout
    x, y = np.tile(np.arange(N), N), np.repeat(np.arange(N), N)
    corner = x + N * y
    right, up = (x + 1) % N + N * y, x + N * ((y + 1) % N)
    # per face its four steps and the vertex each starts at; corner is
    # also the index of h(x, y) and of v(x, y) - N^2
    steps = np.stack((corner, N * N + right, up, N * N + corner), axis=1)
    starts = np.stack((corner, right, (x + 1) % N + N * ((y + 1) % N), up), axis=1)
    turn = (starts.argmin(axis=1)[:, None] + np.arange(4)) % 4
    signs = np.array((1, 1, -1, -1))[turn]
    arrays = np.tile(corner, 2), np.concatenate((right, up)), np.take_along_axis(steps, turn, axis=1).ravel(), signs.ravel()
    layout = _LAID_OUT[N] = _TorusLayout(map(_read_only, arrays))
    return layout


def alpha_loop(mesh: SurfaceMesh) -> MeshLoop:
    """Horizontal period cycle of a torus grid along the basepoint's row,
    starting and ending at the basepoint."""
    grid = _require_torus(mesh)
    bx, by = grid.vertex_xy(mesh.basepoint)
    return _derived_loop(mesh.basepoint, tuple((grid.h_edge(bx + i, by), 1) for i in range(grid.N)))


def beta_loop(mesh: SurfaceMesh) -> MeshLoop:
    """Vertical period cycle of a torus grid along the basepoint's column,
    starting and ending at the basepoint."""
    grid = _require_torus(mesh)
    bx, by = grid.vertex_xy(mesh.basepoint)
    return _derived_loop(mesh.basepoint, tuple((grid.v_edge(bx, by + j), 1) for j in range(grid.N)))


def build_sphere_mesh(subdiv: int, face_areas=None) -> SurfaceMesh:
    """Octahedron with each triangular face subdivided subdiv^2 times.

    Vertices are identified across parent faces through their integer
    coordinates i*A + j*B + k*C (i+j+k = subdiv) on the unit octahedron, so
    the result is a closed oriented sphere: V = 4s^2 + 2, E = 12s^2,
    F = 8s^2, all faces of area 1/(8 s^2) unless overridden.
    """
    if subdiv < 1:
        raise ValueError("sphere mesh needs subdiv >= 1")
    edges, faces, vertex_count = _sphere_complex(subdiv)
    if face_areas is None:
        face_areas = np.full(len(faces.lengths), 1.0 / len(faces.lengths))
    return SurfaceMesh(0, vertex_count, edges, faces, face_areas, 0)


def _sphere_complex(s: int) -> tuple[np.ndarray, _FaceSteps, int]:
    """Edge ends, faces and vertex count of the builder sphere, as
    SurfaceMesh reads them, built in whole-array and dict passes.  The
    octants' triangles are emitted in a fixed order: octant (s1, s2, s3)
    of corners A = s1 x, B = s2 y, C = s3 z (B and C swapped where
    s1 s2 s3 < 0 keeps the orientation outward), and in it, for i < s and
    j < s - i, the triangle (i, j), (i + 1, j), (i, j + 1), then, where
    i + j <= s - 2, (i + 1, j), (i + 1, j + 1), (i, j + 1).  Vertices and
    edges are numbered in the order they first appear, each face's edges
    from corner to corner, an edge pointing to its higher vertex, and every
    face starts at its lowest vertex."""
    i, j = np.nonzero(np.add.outer(np.arange(s), np.arange(s)) < s)
    # per (i, j) its two triangles' corners (i', j'), the second only
    # where i + j <= s - 2
    up = np.stack((i, j, i + 1, j, i, j + 1), axis=1)
    down = np.stack((i + 1, j, i + 1, j + 1, i, j + 1), axis=1)
    emitted = np.stack((np.ones_like(i, bool), i + j <= s - 2), axis=1)
    ci, cj = np.stack((up, down), axis=1)[emitted].reshape(-1, 3, 2).transpose(2, 0, 1)
    # the integer coordinates (s - i - j) A + i B + j C of every corner,
    # octant by octant, and one code per coordinate triple
    signs = np.array([(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])[:, :, None, None]
    flipped = signs.prod(axis=1) < 0
    x = signs[:, 0] * (s - ci - cj)
    y = signs[:, 1] * np.where(flipped, cj, ci)
    z = signs[:, 2] * np.where(flipped, ci, cj)
    codes = ((x + s) * (2 * s + 1) + y + s) * (2 * s + 1) + z + s
    vertices, distinct = _first_appearance(codes.ravel().tolist())
    # each face's edges from corner to corner: (u, v), (v, w), (w, u)
    tails = np.array(vertices, np.intp).reshape(-1, 3)
    heads = np.roll(tails, -1, axis=1)
    low, high = np.minimum(tails, heads).ravel().tolist(), np.maximum(tails, heads).ravel().tolist()
    edge_ids, edges = _first_appearance(list(zip(low, high)))
    turn = (tails.argmin(axis=1)[:, None] + np.arange(3)) % 3
    faces = _FaceSteps(
        np.full(len(tails), 3, np.intp),
        np.take_along_axis(np.array(edge_ids, np.intp).reshape(-1, 3), turn, axis=1).ravel(),
        np.take_along_axis(np.where(tails < heads, 1, -1), turn, axis=1).ravel(),
    )
    return np.array(edges, np.intp), faces, len(distinct)


def _first_appearance(keys: list) -> tuple[list[int], list]:
    """Each key's number among the distinct keys, numbered 0, 1, ... in
    the order they first appear, and the distinct keys in that order.
    (A dict keeps that order; numpy's unique would sort, and the first
    sort of a process pages in about 0.5 MB of numpy's sorting code.)"""
    distinct = list(dict.fromkeys(keys))
    numbers = dict(zip(distinct, range(len(distinct))))
    return list(map(numbers.__getitem__, keys)), distinct


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _require_torus(mesh: SurfaceMesh) -> TorusGrid:
    if mesh.grid is None:
        raise UnsupportedMeshError("operation needs a torus grid mesh")
    return mesh.grid


# ---------------------------------------------------------------------------
# loop utilities

def loop_concat(l1: MeshLoop, l2: MeshLoop) -> MeshLoop:
    """Traverse l1, then l2 (both based at the same vertex)."""
    if l1.base != l2.base:
        raise MalformedLoopError("cannot concatenate loops at different base vertices")
    return _derived_loop(l1.base, l1.steps + l2.steps)


def loop_reverse(loop: MeshLoop) -> MeshLoop:
    return _derived_loop(loop.base, tuple((e, -s) for e, s in reversed(loop.steps)))


def face_boundary_loop(mesh: SurfaceMesh, face: int) -> MeshLoop:
    return _derived_loop(mesh.face_start_vertex(face), tuple(mesh.faces[face]))


def validate_loop(mesh: SurfaceMesh, loop: MeshLoop) -> list[int]:
    """Check composability and closure; return the visited vertex path.

    Raises MalformedLoopError for a base vertex out of range, then for the
    first step whose edge is out of range or that does not start where the
    last one ended, then for a loop that does not end at its base.  One
    element of the batched check _loopsteps.first_fault.
    """
    steps = _checked_steps(mesh, [loop])
    return [loop.base, *mesh.step_ends[steps.rows, 1].tolist()]


def torus_windings(mesh: SurfaceMesh, loop: MeshLoop) -> tuple[int, int]:
    """Period winding numbers (p, q): signed crossings of the two cut cycles."""
    grid = _require_torus(mesh)
    dx, dy, _ = lifts(grid.step_moves, _checked_steps(mesh, [loop]))
    return (int(dx[0]) // grid.N, int(dy[0]) // grid.N)


def _checked_steps(mesh: SurfaceMesh, loops: Sequence[MeshLoop]) -> LoopSteps:
    """The layout of the loops; raises MalformedLoopError for the first
    malformed one."""
    steps = flat_steps([loop.base for loop in loops], [loop.steps for loop in loops])
    fault = first_fault(mesh, steps)
    if fault:
        raise MalformedLoopError(fault[1])
    return steps


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
    if target.shape != mesh.face_areas.shape:
        raise ValueError("integrate_faces needs one target per face")
    # roundoff on the scale of the unit total area at least: a target made
    # zero-sum by subtracting its mean keeps the rounding error of values
    # larger than what is left of them
    roundoff = len(target) * np.finfo(np.float64).eps * max(float(np.sum(np.abs(target))), 1.0)
    if not abs(float(np.sum(target))) <= roundoff:
        raise ValueError(f"face targets sum to {np.sum(target):.3e}, not to zero")
    subtree = target.tolist()
    theta = np.zeros(len(mesh.edges))
    for face, parent, edge, sign in reversed(mesh.dual_tree):
        theta[edge] = sign * subtree[face]
        subtree[parent] += subtree[face]
    return theta


def enclosed_area(mesh: SurfaceMesh, loop: MeshLoop) -> float:
    """Area-weighted winding number sum of a closed loop.

    The loop integral of area_potential gives every face's area except the
    reference part.  Genus 0: that part is face 0's winding times the total
    area, a multiple of 1, so the result is a class mod 1, returned as its
    canonical representative in (-1/2, 1/2].  Genus 1: the loop must be
    null-homotopic (else NotNullHomotopicError with its windings), and the
    uniform part is the density times the signed cell count of the loop's
    lift.  Lift and flux come from _loop_lifts, which words.loop_class
    reads too.  One element of the batched _loop_areas, after the checks
    of validate_loop.
    """
    (area,) = _loop_areas(mesh, _checked_steps(mesh, [loop]))
    if isinstance(area, NotNullHomotopicError):
        raise area
    return area


def _loop_lifts(mesh: SurfaceMesh, steps: LoopSteps) -> list[tuple[int, int, int, float]]:
    """(dx, dy, cells, flux) of every loop of a layout of valid loops: its
    lift to the universal cover (_loopsteps.lifts on a torus grid; a
    sphere is its own cover, where every lift is (0, 0, 0)) and its flux of
    area_potential, one gather from _step_fluxes added up left to right
    from 0.0 as a walk along its steps adds it."""
    terms = mesh._step_fluxes.take(steps.rows)
    spans = zip(steps.starts.tolist(), steps.lengths.tolist())
    flux = [reduce(operator.add, terms[a:a + n].tolist(), 0.0) for a, n in spans]
    if mesh.genus == 0:
        return [(0, 0, 0, f) for f in flux]
    return list(zip(*(a.tolist() for a in lifts(_require_torus(mesh).step_moves, steps)), flux))


def _loop_areas(mesh: SurfaceMesh, steps: LoopSteps) -> list:
    """enclosed_area of every loop of a layout of valid loops: a float, or
    for a genus-1 loop that is not null-homotopic its NotNullHomotopicError."""
    loops, density = _loop_lifts(mesh, steps), mesh.area_potential[1]
    if mesh.genus == 0:
        return [wrap_mod1(f) for *_, f in loops]
    areas = []
    for dx, dy, cells, f in loops:
        if dx or dy:
            p, q = dx // mesh.grid.N, dy // mesh.grid.N
            areas.append(NotNullHomotopicError(
                f"loop has period windings ({p}, {q}); enclosed area needs a null-homotopic loop",
                (p, q),
            ))
        else:
            areas.append(density * cells + f)
    return areas


# ---------------------------------------------------------------------------
# random loops (tests and the CLI's --random pair source)

def random_loop(
    mesh: SurfaceMesh,
    rng: np.random.Generator,
    n_steps: int = 12,
    windings: Optional[tuple[int, int]] = None,
) -> MeshLoop:
    """Random closed walk from the basepoint, freely reduced.

    On a torus grid the loop is closed in the universal cover so its period
    windings equal exactly the requested pair (default (0, 0)); its n_steps
    moves are one call of rng.integers.  On a sphere the walk is closed
    through spanning-tree ancestors of the 1-skeleton, and each move is a
    scalar draw among its vertex's edges.  Both walks cancel each backtrack
    as they meet it, and their loops are bit for bit those of drawing one
    move at a time and then reducing the steps with clip_steps.  Every step
    is one of the mesh's own face tuples (_step_tuples).  n_steps and the
    windings follow the rule of json_int, and n_steps must not be negative.
    """
    n_steps = _count_arg(n_steps, "random_loop: n_steps")
    if windings is not None:
        windings = tuple(windings)
        if len(windings) != 2:
            raise ValueError(f"random_loop: windings must be a pair, got {windings!r}")
        windings = json_ints(windings, "random_loop: a winding")
    if mesh.genus == 1:
        return _random_torus_loop(mesh, rng, n_steps, windings or (0, 0))
    if windings not in (None, (0, 0)):
        raise UnsupportedMeshError("period windings only make sense on the torus")
    return _random_sphere_loop(mesh, rng, n_steps)


def _random_torus_loop(mesh, rng, n_steps, windings) -> MeshLoop:
    """Moves 0, 1, 2, 3 step +x, -x, +y, -y, and move m ^ 1 undoes move m:
    on a grid of N >= 2 these are the step pairs clip_steps deletes."""
    grid = _require_torus(mesh)
    n = grid.N
    p, q = windings
    bx, by = grid.vertex_xy(mesh.basepoint)
    # one draw of all moves gives the values of n_steps single draws
    drawn = rng.integers(4, size=n_steps).tolist()
    moves: list[int] = []
    for move in drawn:
        if moves and moves[-1] == move ^ 1:
            moves.pop()
        else:
            moves.append(move)
    # the closing runs to (bx + pN, by + qN), each first cancelling what it
    # undoes at the top of the stack
    x = bx + drawn.count(0) - drawn.count(1)
    y = by + drawn.count(2) - drawn.count(3)
    tx, ty = bx + p * n, by + q * n
    for move, run in ((0 if tx > x else 1, abs(tx - x)), (2 if ty > y else 3, abs(ty - y))):
        while run and moves and moves[-1] == move ^ 1:
            moves.pop()
            run -= 1
        moves += [move] * run
    # each move's step row: h(x, y), h(x - 1, y), v(x, y) or v(x, y - 1)
    rows: list[int] = []
    x, y, nn = bx, by, n * n
    for move in moves:
        if move == 0:
            rows.append(2 * (x + n * y))
            x = (x + 1) % n
        elif move == 1:
            x = (x - 1) % n
            rows.append(2 * (x + n * y) + 1)
        elif move == 2:
            rows.append(2 * (nn + x + n * y))
            y = (y + 1) % n
        else:
            y = (y - 1) % n
            rows.append(2 * (nn + x + n * y) + 1)
    return _derived_loop(mesh.basepoint, tuple(map(mesh._step_tuples.__getitem__, rows)))


def _random_sphere_loop(mesh, rng, n_steps) -> MeshLoop:
    adj = mesh.vertex_steps
    parent = mesh._basepoint_tree
    here = mesh.basepoint
    # step rows, rows r and r ^ 1 cancelling as clip_steps cancels their steps
    rows: list[int] = []

    def step(e, s):
        row = 2 * e + (s < 0)
        if rows and rows[-1] == row ^ 1:
            rows.pop()
        else:
            rows.append(row)

    for _ in range(n_steps):
        e, s, here = adj[here][rng.integers(len(adj[here]))]
        step(e, s)
    while here != mesh.basepoint:
        e, s, here = parent[here]
        step(e, s)
    return _derived_loop(mesh.basepoint, tuple(map(mesh._step_tuples.__getitem__, rows)))


def random_homotopic_pair(
    mesh: SurfaceMesh,
    rng: np.random.Generator,
    n_steps: int = 12,
    winding_range: int = 1,
) -> tuple[MeshLoop, MeshLoop]:
    """Two independent random loops in the same homotopy class, with torus
    windings drawn from -winding_range .. winding_range, the loops of two
    random_loop calls.  The arguments follow the rule of json_int and must
    not be negative; they are checked before anything is drawn."""
    n_steps = _count_arg(n_steps, "random_homotopic_pair: n_steps")
    winding_range = _count_arg(winding_range, "random_homotopic_pair: winding_range")
    if mesh.genus == 1:
        w = (
            int(rng.integers(-winding_range, winding_range + 1)),
            int(rng.integers(-winding_range, winding_range + 1)),
        )
        return (_random_torus_loop(mesh, rng, n_steps, w), _random_torus_loop(mesh, rng, n_steps, w))
    return (_random_sphere_loop(mesh, rng, n_steps), _random_sphere_loop(mesh, rng, n_steps))


def _count_arg(value, what: str) -> int:
    """A nonnegative integer argument, read by json_int."""
    value = json_int(value, what)
    if value < 0:
        raise ValueError(f"{what} must not be negative, got {value}")
    return value


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


def json_int(value, what: str) -> int:
    """An integer slot of a JSON object, a SurfaceMesh or a MeshLoop, where
    int() would read 1.5 and true as 1.  An integral float such as 2.0 is
    read as 2; a boolean or a float with a fractional part raises
    ValueError naming the slot, and any other non-integer (a string, a
    list) raises TypeError, like every wrongly typed value."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not isinstance(value, (numbers.Integral, float)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_ints(values, what: str) -> tuple[int, ...]:
    """json_int of every element of a sequence, as a tuple.  A sequence of
    exact ints passes in one type pass, as it is; any other is read element
    by element, with json_int's conversions and errors."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    return tuple(json_int(value, what) for value in values)


def _int_rows(rows, what: str, names: tuple[str, ...], width: Optional[int] = None) -> tuple[tuple, np.ndarray]:
    """The rows of a part (what) of integer slots, and their values flat
    as intp: SurfaceMesh's edges and face steps, mesh_from_json's faces
    and MeshLoop's steps.  Lists and tuples of exact ints within intp
    (width each, if given) pass one type pass.  Any other part is read row
    by row (_rows), slot j by json_int as names[j % len(names)].  An int
    beyond intp is held as the intp bound of its sign, outside every range
    a mesh checks."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if isinstance(rows, (list, tuple)) and set(map(type, rows)) <= {list, tuple} and (width is None or set(map(len, rows)) <= {width}):
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {int}:
            with suppress(OverflowError):
                return tuple(rows), np.fromiter(flat, np.intp, len(flat))
    shape = f"a list of {width} integers" if width else "a list of integers"
    read = tuple(tuple(map(json_int, row, cycle(names))) for row in _rows(rows, what, shape, width))
    flat = [min(max(k, -_INTP.max), _INTP.max) for k in chain.from_iterable(read)]
    return read, np.fromiter(flat, np.intp, len(flat))


def _rows(rows, what: str, shape: str, width: Optional[int] = None) -> Iterator:
    """The rows of a part (what), each checked as it is reached.  A part
    or a row that is not a list or tuple raises TypeError naming it, and a
    row of another length than width ValueError; shape says what a row
    must be."""
    if not isinstance(rows, (list, tuple)):
        raise TypeError(f"{what} must be a list of rows, got {rows!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != (width or len(row)):
            error = ValueError if isinstance(row, (list, tuple)) else TypeError
            raise error(f"{what} row {i} must be {shape}, got {row!r}")
        yield row


def json_float(value, what: str) -> float:
    """A number slot of a JSON object, where float() would read true as 1.0.
    An int or a float is read as a float, NaN and infinity included; a
    boolean raises ValueError naming the slot, and any other non-number (a
    string, a list) raises TypeError, like every wrongly typed value."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _float_array(values, what: str, ragged: str) -> np.ndarray:
    """Nested lists of numbers as one float64 array, where np.array would
    read "0.25" as 0.25 and true as 1.0.  Every value that is not a list
    is a number slot, read by the json_float rule (what names it).  Lists
    of equal lengths whose slots are all floats and ints pass one type
    pass per level and convert flat, which is faster than numpy's walk of
    the nesting; any other is walked depth first, only to name its first
    fault, and lists of different lengths then raise ValueError(ragged).
    An array passes as it is."""
    if isinstance(values, np.ndarray):
        return np.array(values, dtype=np.float64)
    level, shape = [values], []
    while level and set(map(type, level)) <= {list, tuple}:
        lengths = set(map(len, level))
        if len(lengths) > 1:
            break
        shape += lengths
        level = list(chain.from_iterable(level))
    else:
        if set(map(type, level)) <= {float, int}:
            return np.array(level, dtype=np.float64).reshape(shape)
    stack = [values]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack += reversed(value)
        elif type(value) not in (float, int):
            json_float(value, what)
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:
        raise ValueError(ragged) from None


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


def mesh_from_json(obj: dict) -> SurfaceMesh:
    genus, vertices, edges, faces, face_areas, basepoint = required_keys(
        obj, "mesh", "genus", "vertices", "edges", "faces", "face_areas", "basepoint"
    )
    faces, entries = _int_rows(faces, "mesh: faces", ("mesh: a face entry",))
    if not np.all(entries):
        raise ValueError("mesh: face entries are signed 1-based edge indices, so 0 names no edge")
    faces = _FaceSteps(np.fromiter(map(len, faces), np.intp, len(faces)), np.abs(entries) - 1, np.sign(entries))
    return SurfaceMesh(genus, vertices, edges, faces, face_areas, basepoint)


def loop_to_json(loop: MeshLoop) -> dict:
    return {"base": loop.base, "steps": [[e, s] for e, s in loop.steps]}


def loop_from_json(obj: dict) -> MeshLoop:
    base, steps = required_keys(obj, "loop", "base", "steps")
    return MeshLoop(base, steps)
