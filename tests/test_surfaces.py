"""Mesh construction, winding numbers, and enclosed area."""

import json
import math
import struct
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import areaholonomy as ah
from areaholonomy import (
    MalformedLoopError,
    MeshLoop,
    NotNullHomotopicError,
    enclosed_area,
    loop_concat,
    loop_reverse,
    wrap_mod1,
)
from areaholonomy import fields, lattice, reps, surfaces
from areaholonomy._loopsteps import first_fault, flat_steps, lifts
from areaholonomy.surfaces import TorusGrid, integrate_faces, json_int
from conftest import (
    MALFORMED_MESHES,
    disjoint_union_json,
    flux_rep,
    lifted_walk,
    malformed_mesh_json,
    random_field,
    rebased,
    walk_area,
    walk_validate,
)


# ---------------------------------------------------------------------------
# reference: winding numbers by breadth-first propagation across faces


def oracle_area_sphere(mesh, loop):
    """Winding numbers spread over the dual graph from face 0; area mod 1."""
    crossings = [0] * len(mesh.edges)
    for e, s in loop.steps:
        crossings[e] += s
    edge_faces = [[] for _ in mesh.edges]
    for f_idx, face in enumerate(mesh.faces):
        for e, s in face:
            edge_faces[e].append((f_idx, s))
    dual = [[] for _ in mesh.faces]
    for e, ((f1, s1), (f2, s2)) in enumerate(edge_faces):
        dual[f1].append((f2, e, s1))
        dual[f2].append((f1, e, s2))
    winding = [None] * len(mesh.faces)
    winding[0] = 0
    queue = [0]
    while queue:
        f = queue.pop()
        for g, e, sign_f in dual[f]:
            # w_f * sign_f + w_g * (-sign_f) = crossings[e]
            value = winding[f] - sign_f * crossings[e]
            if winding[g] is None:
                winding[g] = value
                queue.append(g)
            assert winding[g] == value
    return wrap_mod1(float(np.dot(np.array(winding, dtype=np.float64), mesh.face_areas)))


def oracle_area_torus(mesh, loop):
    """Winding numbers of the lift's cells in the universal cover, spread
    from outside the lift's bounding box and folded back onto the torus."""
    grid = mesh.grid
    x, y = grid.vertex_xy(loop.base)
    c_h, c_v = {}, {}  # net rightward / upward crossings of unit segments
    for e, s in loop.steps:
        if e < grid.N * grid.N:
            key = (x, y) if s == 1 else (x - 1, y)
            c_h[key] = c_h.get(key, 0) + s
            x += s
        else:
            key = (x, y) if s == 1 else (x, y - 1)
            c_v[key] = c_v.get(key, 0) + s
            y += s
    assert (x, y) == grid.vertex_xy(loop.base)
    cells = {(a, b - 1) for a, b in c_h} | {(a, b) for a, b in c_h}
    cells |= {(a - 1, b) for a, b in c_v} | {(a, b) for a, b in c_v}
    if not cells:
        return 0.0
    x0, x1 = min(c[0] for c in cells) - 1, max(c[0] for c in cells) + 1
    y0, y1 = min(c[1] for c in cells) - 1, max(c[1] for c in cells) + 1
    winding = {(x0, y0): 0}
    queue = [(x0, y0)]
    while queue:
        cx, cy = queue.pop()
        w = winding[(cx, cy)]
        for cell, delta in (
            ((cx + 1, cy), -c_v.get((cx + 1, cy), 0)),
            ((cx - 1, cy), +c_v.get((cx, cy), 0)),
            ((cx, cy + 1), +c_h.get((cx, cy + 1), 0)),
            ((cx, cy - 1), -c_h.get((cx, cy), 0)),
        ):
            if not (x0 <= cell[0] <= x1 and y0 <= cell[1] <= y1):
                continue
            if cell not in winding:
                winding[cell] = w + delta
                queue.append(cell)
            assert winding[cell] == w + delta
    per_face = [0] * len(mesh.faces)
    for (cx, cy), w in winding.items():
        per_face[grid.face(cx, cy)] += w
    return float(np.dot(np.array(per_face, dtype=np.float64), mesh.face_areas))


@st.composite
def meshes_with_loops(draw, genus, count=1):
    """A builder mesh with random positive face areas and `count` random
    null-homotopic loops at its basepoint: (mesh, loop, ...)."""
    if genus == 1:
        size = draw(st.integers(2, 8))
        faces = size * size
    else:
        size = draw(st.integers(1, 4))
        faces = 8 * size * size
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=faces, max_size=faces)))
    build = ah.build_torus_mesh if genus == 1 else ah.build_sphere_mesh
    mesh = build(size, face_areas=weights / np.sum(weights))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (mesh, *(ah.random_loop(mesh, rng, draw(st.integers(0, 40))) for _ in range(count)))


class TestTorusMesh:
    def test_counts_n2(self):
        mesh = ah.build_torus_mesh(2)
        assert mesh.vertex_count == 4
        assert len(mesh.edges) == 8
        assert len(mesh.faces) == 4
        assert mesh.vertex_count - len(mesh.edges) + len(mesh.faces) == 0

    def test_areas_n3(self):
        mesh = ah.build_torus_mesh(3)
        assert np.allclose(mesh.face_areas, 1 / 9)
        assert np.sum(mesh.face_areas) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_each_edge_in_two_faces_opposite_signs(self, n):
        mesh = ah.build_torus_mesh(n)
        seen = {e: [] for e in range(len(mesh.edges))}
        for f, face in enumerate(mesh.faces):
            for e, s in face:
                seen[e].append((s, f))
        assert all(
            sorted(v) == [(-1, mesh.minus_face[e]), (1, mesh.plus_face[e])] for e, v in seen.items()
        )

    def test_period_cycles(self):
        mesh = ah.build_torus_mesh(3)
        assert ah.torus_windings(mesh, ah.alpha_loop(mesh)) == (1, 0)
        assert ah.torus_windings(mesh, ah.beta_loop(mesh)) == (0, 1)

    def test_period_cycles_through_basepoint(self):
        mesh = rebased(ah.build_torus_mesh(6), 14)
        for loop, windings in ((ah.alpha_loop(mesh), (1, 0)), (ah.beta_loop(mesh), (0, 1))):
            e, s = loop.steps[0]
            assert loop.base == 14 and mesh.step_ends[2 * e + (s < 0)][0] == 14
            assert ah.torus_windings(mesh, loop) == windings

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            ah.build_torus_mesh(1)

    def test_face_areas_override(self):
        areas = [0.4, 0.2, 0.2, 0.2]
        mesh = ah.build_torus_mesh(2, face_areas=areas)
        assert np.allclose(mesh.face_areas, areas)
        with pytest.raises(ValueError):
            ah.build_torus_mesh(2, face_areas=[0.5, 0.2, 0.2, 0.2])

    def test_nan_face_area_rejected(self):
        areas = np.full(16, 1 / 16)
        areas[3] = np.nan
        with pytest.raises(ValueError):
            ah.build_torus_mesh(4, face_areas=areas)
        with pytest.raises(ValueError):
            ah.build_sphere_mesh(1, face_areas=[np.nan] * 8)


class TestSphereMesh:
    def test_octahedron(self):
        mesh = ah.build_sphere_mesh(1)
        assert mesh.vertex_count == 6
        assert len(mesh.edges) == 12
        assert len(mesh.faces) == 8
        assert mesh.vertex_count - len(mesh.edges) + len(mesh.faces) == 2

    def test_subdiv_two(self):
        mesh = ah.build_sphere_mesh(2)
        assert len(mesh.faces) == 32
        assert np.allclose(mesh.face_areas, 1 / 32)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_counts_formula(self, s):
        # constructor already validates closedness and Euler characteristic
        mesh = ah.build_sphere_mesh(s)
        assert mesh.vertex_count == 4 * s * s + 2
        assert len(mesh.edges) == 12 * s * s
        assert len(mesh.faces) == 8 * s * s

    @pytest.mark.parametrize("s", range(1, 9))
    def test_array_build_equals_the_per_vertex_build(self, s):
        mesh = ah.build_sphere_mesh(s)
        assert (mesh.vertex_count, mesh.edges, mesh.faces) == walk_sphere_complex(s)


def walk_sphere_complex(s):
    """The builder sphere's vertex count, edges and faces, built vertex by
    vertex and edge by edge as they are first met."""
    vertex_ids, triangles = {}, []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                a, b, c = (s1, 0, 0), (0, s2, 0), (0, 0, s3)
                if s1 * s2 * s3 < 0:
                    b, c = c, b

                def point(i, j):
                    key = tuple((s - i - j) * a[m] + i * b[m] + j * c[m] for m in range(3))
                    return vertex_ids.setdefault(key, len(vertex_ids))

                for i in range(s):
                    for j in range(s - i):
                        triangles.append((point(i, j), point(i + 1, j), point(i, j + 1)))
                        if i + j <= s - 2:
                            triangles.append((point(i + 1, j), point(i + 1, j + 1), point(i, j + 1)))
    edge_ids, edges, faces = {}, [], []
    for u, v, w in triangles:
        steps = []
        for tail, head in ((u, v), (v, w), (w, u)):
            key = (min(tail, head), max(tail, head))
            if key not in edge_ids:
                edge_ids[key] = len(edges)
                edges.append(key)
            steps.append((edge_ids[key], 1 if tail < head else -1))
        k = [u, v, w].index(min(u, v, w))
        faces.append(tuple(steps[k:] + steps[:k]))
    return len(vertex_ids), tuple(edges), tuple(faces)


class TestEnclosedArea:
    def test_constant_loop(self, torus4, sphere1):
        for mesh in (torus4, sphere1):
            assert enclosed_area(mesh, MeshLoop(mesh.basepoint, ())) == 0.0

    def test_single_face_boundary_torus(self, torus4):
        for f in (0, 5, 15):
            loop = ah.face_boundary_loop(torus4, f)
            assert enclosed_area(torus4, loop) == pytest.approx(1 / 16, abs=1e-15)

    def test_single_face_boundary_sphere(self, sphere1):
        for f in range(8):
            loop = ah.face_boundary_loop(sphere1, f)
            assert enclosed_area(sphere1, loop) == pytest.approx(1 / 8, abs=1e-15)

    def test_relator_loop_encloses_plus_one(self, torus4):
        a, b = ah.alpha_loop(torus4), ah.beta_loop(torus4)
        relator = loop_concat(loop_concat(a, b), loop_concat(loop_reverse(a), loop_reverse(b)))
        assert enclosed_area(torus4, relator) == pytest.approx(1.0, abs=1e-15)

    def test_sphere_reversal_complement(self, sphere1):
        # a loop vs its reversal bound complementary regions: areas sum to 0 mod 1
        rng = np.random.default_rng(21)
        for f in range(8):
            loop = ah.face_boundary_loop(sphere1, f)
            total = enclosed_area(sphere1, loop) + enclosed_area(sphere1, loop_reverse(loop))
            assert abs(wrap_mod1(total)) < 1e-12
        for _ in range(100):
            loop = ah.random_loop(sphere1, rng, 10)
            total = enclosed_area(sphere1, loop) + enclosed_area(sphere1, loop_reverse(loop))
            assert abs(wrap_mod1(total)) < 1e-12

    def test_additivity_torus(self, torus4):
        rng = np.random.default_rng(22)
        for _ in range(30):
            l1 = ah.random_loop(torus4, rng, 10)
            l2 = ah.random_loop(torus4, rng, 10)
            both = enclosed_area(torus4, loop_concat(l1, l2))
            assert both == pytest.approx(
                enclosed_area(torus4, l1) + enclosed_area(torus4, l2), abs=1e-12
            )

    def test_additivity_sphere_mod_one(self, sphere2):
        rng = np.random.default_rng(23)
        for _ in range(30):
            l1 = ah.random_loop(sphere2, rng, 10)
            l2 = ah.random_loop(sphere2, rng, 10)
            both = enclosed_area(sphere2, loop_concat(l1, l2))
            sum_parts = enclosed_area(sphere2, l1) + enclosed_area(sphere2, l2)
            assert abs(wrap_mod1(both - sum_parts)) < 1e-12

    def test_reversal_antisymmetry(self, torus4):
        rng = np.random.default_rng(24)
        for _ in range(20):
            loop = ah.random_loop(torus4, rng, 12)
            assert enclosed_area(torus4, loop_reverse(loop)) == pytest.approx(
                -enclosed_area(torus4, loop), abs=1e-13
            )

    def test_not_null_homotopic(self, torus4):
        with pytest.raises(NotNullHomotopicError) as err:
            enclosed_area(torus4, ah.alpha_loop(torus4))
        assert err.value.windings == (1, 0)

    def test_malformed_loop(self, torus4):
        with pytest.raises(MalformedLoopError):
            enclosed_area(torus4, MeshLoop(0, ((0, 1), (0, 1))))
        with pytest.raises(MalformedLoopError):
            enclosed_area(torus4, MeshLoop(0, ((0, 1),)))  # does not close

    def test_winding_multiplicity(self, torus4):
        # traversing a face boundary twice doubles the enclosed area
        loop = ah.face_boundary_loop(torus4, 0)
        double = loop_concat(loop, loop)
        assert enclosed_area(torus4, double) == pytest.approx(2 / 16, abs=1e-15)


class TestAreaProperties:
    """enclosed_area is additive under loop_concat and changes sign under
    loop_reverse, on builder meshes with non-uniform face areas: exactly on
    the torus, mod 1 on the sphere."""

    @settings(max_examples=60, deadline=None)
    @given(meshes_with_loops(genus=1, count=2))
    def test_torus(self, mesh_loops):
        mesh, l1, l2 = mesh_loops
        a1, a2 = enclosed_area(mesh, l1), enclosed_area(mesh, l2)
        assert abs(enclosed_area(mesh, loop_concat(l1, l2)) - (a1 + a2)) <= 1e-12
        assert abs(enclosed_area(mesh, loop_reverse(l1)) + a1) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(meshes_with_loops(genus=0, count=2))
    def test_sphere_mod_one(self, mesh_loops):
        mesh, l1, l2 = mesh_loops
        a1, a2 = enclosed_area(mesh, l1), enclosed_area(mesh, l2)
        assert abs(wrap_mod1(enclosed_area(mesh, loop_concat(l1, l2)) - (a1 + a2))) <= 1e-12
        assert abs(wrap_mod1(enclosed_area(mesh, loop_reverse(l1)) + a1)) <= 1e-12


class TestAreaOracle:
    @settings(max_examples=60, deadline=None)
    @given(meshes_with_loops(genus=1))
    def test_torus_matches_lift_winding(self, mesh_loop):
        mesh, loop = mesh_loop
        assert abs(enclosed_area(mesh, loop) - oracle_area_torus(mesh, loop)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(meshes_with_loops(genus=0))
    def test_sphere_matches_dual_winding_mod_one(self, mesh_loop):
        mesh, loop = mesh_loop
        assert abs(wrap_mod1(enclosed_area(mesh, loop) - oracle_area_sphere(mesh, loop))) <= 1e-12


class TestIntegrateFaces:
    @pytest.mark.parametrize("mesh", [ah.build_torus_mesh(5), ah.build_sphere_mesh(3)], ids=["torus", "sphere"])
    def test_dual_tree_is_bfs_from_face_zero(self, mesh):
        # reference: the breadth-first walk over an (edge, sign) -> face map
        across = {(e, s): f for f, face in enumerate(mesh.faces) for e, s in face}
        tree, seen, queue = [], {0}, [0]
        for f in queue:
            for e, s in mesh.faces[f]:
                g = across[(e, -s)]
                if g not in seen:
                    seen.add(g)
                    tree.append((g, f, e, -s))
                    queue.append(g)
        assert mesh.dual_tree == tree

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([("torus", 2), ("torus", 5), ("sphere", 1), ("sphere", 3)]),
        st.integers(0, 2**32 - 1),
    )
    def test_solves_sum_zero_targets(self, spec, seed):
        kind, size = spec
        mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
        target = np.random.default_rng(seed).normal(size=len(mesh.faces))
        target -= np.mean(target)
        theta = integrate_faces(mesh, target)
        coboundary = [sum(s * theta[e] for e, s in face) for face in mesh.faces]
        assert np.max(np.abs(np.array(coboundary) - target)) <= 1e-12

    def test_rejects_targets_not_summing_to_zero(self, torus4, sphere1):
        for mesh in (torus4, sphere1):
            with pytest.raises(ValueError):
                integrate_faces(mesh, np.full(len(mesh.faces), 1e-9))
            with pytest.raises(ValueError):
                integrate_faces(mesh, np.zeros(len(mesh.faces) + 1))

    def test_rejects_nan_target(self, torus4, sphere1):
        for mesh in (torus4, sphere1):
            target = np.zeros(len(mesh.faces))
            target[1] = np.nan
            with pytest.raises(ValueError):
                integrate_faces(mesh, target)


class TestRandomLoops:
    def test_requested_windings(self, torus4):
        rng = np.random.default_rng(26)
        for p, q in [(0, 0), (1, 0), (-2, 1), (2, 2)]:
            loop = ah.random_loop(torus4, rng, 15, windings=(p, q))
            assert ah.torus_windings(torus4, loop) == (p, q)

    def test_homotopic_pairs_share_windings(self, torus4):
        rng = np.random.default_rng(27)
        for _ in range(10):
            l1, l2 = ah.random_homotopic_pair(torus4, rng, 10, winding_range=2)
            assert ah.torus_windings(torus4, l1) == ah.torus_windings(torus4, l2)

    def test_sphere_loops_close(self, sphere2):
        rng = np.random.default_rng(28)
        for _ in range(10):
            loop = ah.random_loop(sphere2, rng, 12)
            ah.enclosed_area(sphere2, loop)  # validates


class TestRandomLoopArguments:
    # windings (0.5, 0) gave a loop without the requested windings,
    # (True, 0) was read as (1, 0), and a negative count raised numpy's
    # errors on a torus but drew an empty loop on a sphere

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"windings": (0.5, 0)}, r"^random_loop: a winding must be an integer, got 0\.5$"),
            ({"windings": (True, 0)}, r"^random_loop: a winding must be an integer, got True$"),
            ({"windings": (1, 0, 0)}, r"^random_loop: windings must be a pair, got \(1, 0, 0\)$"),
            ({"n_steps": -1}, r"^random_loop: n_steps must not be negative, got -1$"),
            ({"n_steps": 2.5}, r"^random_loop: n_steps must be an integer, got 2\.5$"),
            ({"n_steps": True}, r"^random_loop: n_steps must be an integer, got True$"),
        ],
        ids=["fractional-winding", "boolean-winding", "three-windings", "negative-steps", "fractional-steps", "boolean-steps"],
    )
    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_malformed_random_loop(self, kind, kwargs, message, torus4, sphere2):
        mesh = torus4 if kind == "torus" else sphere2
        with pytest.raises(ValueError, match=message):
            ah.random_loop(mesh, np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"winding_range": -1}, r"^random_homotopic_pair: winding_range must not be negative, got -1$"),
            ({"winding_range": 1.5}, r"^random_homotopic_pair: winding_range must be an integer, got 1\.5$"),
            ({"n_steps": -1}, r"^random_homotopic_pair: n_steps must not be negative, got -1$"),
        ],
        ids=["negative-range", "fractional-range", "negative-steps"],
    )
    def test_malformed_homotopic_pair_draws_nothing(self, kwargs, message, torus4):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            ah.random_homotopic_pair(torus4, rng, **kwargs)
        assert rng.bit_generator.state == state

    def test_pinned_draws(self, torus4):
        # the loops seed 18 drew before the arguments were checked; integral
        # floats, which json_int reads as ints, draw the same
        sphere1 = ah.build_sphere_mesh(1)
        for args in ((6, (1, -1)), (6.0, (1.0, -1.0))):
            rng = np.random.default_rng(18)
            assert ah.random_loop(torus4, rng, *args) == MeshLoop(
                0, ((28, -1), (12, 1), (13, 1), (14, 1), (15, 1), (24, -1), (20, -1), (16, -1))
            )
            assert ah.random_loop(sphere1, rng, 5) == MeshLoop(0, ((2, 1), (1, -1), (9, 1), (11, -1), (7, -1), (3, -1)))
            assert ah.random_homotopic_pair(torus4, rng, 4, winding_range=2) == (
                MeshLoop(0, ()),
                MeshLoop(0, ((3, -1), (31, -1), (15, 1), (28, 1))),
            )
            assert int(rng.integers(1000)) == 313


class TestJson:
    def test_mesh_roundtrip_torus(self, torus4):
        back = ah.mesh_from_json(ah.mesh_to_json(torus4))
        assert back.edges == torus4.edges
        assert back.faces == torus4.faces
        assert back.grid is not None and back.grid.N == 4

    def test_rebased_torus_keeps_grid(self, torus4):
        obj = ah.mesh_to_json(torus4)
        obj["basepoint"] = 1
        mesh = ah.mesh_from_json(obj)
        assert mesh.basepoint == 1 and mesh.grid == torus4.grid

    @pytest.mark.parametrize("variant", ["2x8", "2x3", "relabeled"])
    def test_non_builder_torus_has_no_grid(self, torus4, variant):
        if variant in ("2x8", "2x3"):
            # a rectangular periodic grid; 2 x 8 has the vertex, edge and
            # face counts of torus:4
            nx, ny = (2, 8) if variant == "2x8" else (2, 3)
            cell = lambda x, y: (x % nx) + nx * (y % ny)  # noqa: E731
            obj = {
                "genus": 1,
                "vertices": nx * ny,
                "edges": [[cell(x, y), cell(x + 1, y)] for y in range(ny) for x in range(nx)]
                + [[cell(x, y), cell(x, y + 1)] for y in range(ny) for x in range(nx)],
                "faces": [
                    [cell(x, y) + 1, nx * ny + cell(x + 1, y) + 1, -(cell(x, y + 1) + 1), -(nx * ny + cell(x, y) + 1)]
                    for y in range(ny)
                    for x in range(nx)
                ],
                "face_areas": [1 / (nx * ny)] * (nx * ny),
                "basepoint": 0,
            }
        else:
            obj = ah.mesh_to_json(torus4)
            # swap the indices of edges 0 and 1 everywhere
            swap = {1: 2, 2: 1}
            obj["edges"][0], obj["edges"][1] = obj["edges"][1], obj["edges"][0]
            obj["faces"] = [[swap.get(abs(k), abs(k)) * (1 if k > 0 else -1) for k in f] for f in obj["faces"]]
        mesh = ah.mesh_from_json(obj)
        assert mesh.genus == 1
        assert mesh.grid is None

    def test_mesh_roundtrip_sphere(self, sphere2):
        back = ah.mesh_from_json(ah.mesh_to_json(sphere2))
        assert back.faces == sphere2.faces
        assert back.grid is None

    def test_loop_roundtrip(self, torus4):
        rng = np.random.default_rng(29)
        loop = ah.random_loop(torus4, rng, 9)
        assert ah.loop_from_json(ah.loop_to_json(loop)) == loop

    def test_signed_face_encoding(self, torus4):
        encoded = ah.mesh_to_json(torus4)
        # 1-based signed indices, sign carries traversal direction
        face0 = encoded["faces"][0]
        assert all(isinstance(k, int) and k != 0 for k in face0)
        decoded = [(abs(k) - 1, 1 if k > 0 else -1) for k in face0]
        assert tuple(decoded) == torus4.faces[0]

    def test_corrupted_mesh_json_rejected(self, torus4):
        broken = ah.mesh_to_json(torus4)
        broken["faces"][0][0] *= -1  # flips one traversal sign
        with pytest.raises(ValueError):
            ah.mesh_from_json(broken)
        unbalanced = ah.mesh_to_json(torus4)
        unbalanced["face_areas"][0] *= 2
        with pytest.raises(ValueError):
            ah.mesh_from_json(unbalanced)


class TestMalformedMesh:
    @pytest.mark.parametrize("case", MALFORMED_MESHES)
    def test_names_the_face_or_edge(self, case):
        obj, message = malformed_mesh_json(case)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ah.mesh_from_json(obj)

    @pytest.mark.parametrize(
        "sign, message",
        [(2, "edge 0 must appear"), (10**30, "edge 0 must appear"), (0, "face 0 must list its edges head to tail"),
         (-(10**30), "face 0 must list its edges head to tail")],
    )
    def test_face_sign_other_than_one(self, sign, message):
        # a sign other than +-1 fills no slot: 2 and 10**30 leave edge 0
        # without its +1 use, and 0 and -(10**30) break the face's walk
        mesh = ah.build_torus_mesh(4)
        faces = [list(face) for face in mesh.faces]
        assert faces[0][0] == (0, 1)
        faces[0][0] = (0, sign)
        with pytest.raises(ValueError, match=f"^{message}"):
            ah.SurfaceMesh(1, 16, mesh.edges, faces, mesh.face_areas, 0)

    def test_extra_use_of_an_edge(self):
        # three 2-gons between two vertices; face 0 also runs edge 0 out and
        # back with signs +-2, which fill no slot but use the edge
        edges = [(0, 1), (1, 0), (0, 1)]
        faces = [[(0, 1), (1, 1)], [(2, 1), (0, -1)], [(1, -1), (2, -1)]]
        assert ah.SurfaceMesh(0, 2, edges, faces, [1 / 3] * 3, 0).face_start_vertex(2) == 0
        faces[0] += [(0, 2), (0, -2)]
        with pytest.raises(ValueError, match="^edge 0 must appear in exactly two faces with opposite signs$"):
            ah.SurfaceMesh(0, 2, edges, faces, [1 / 3] * 3, 0)

    def test_face_areas_one_per_face(self):
        # (16, 1) areas broadcast against the (16,) plaquette norms, which
        # made the action of this field 778.99 instead of 48.69
        areas = np.full((16, 1), 1 / 16)
        with pytest.raises(ValueError, match="face_areas must be positive, one per face"):
            ah.build_torus_mesh(4, face_areas=areas)
        with pytest.raises(ValueError, match="face_areas must be positive, one per face"):
            ah.build_sphere_mesh(1, face_areas=np.full((2, 4), 1 / 8))

    @pytest.mark.parametrize(
        "value, error", [("0.25", TypeError), (True, ValueError), (None, TypeError)], ids=["string", "true", "null"]
    )
    def test_face_areas_are_numbers(self, value, error):
        # np.array would read "0.25" as 0.25, so this torus:2 mesh loaded
        obj = ah.mesh_to_json(ah.build_torus_mesh(2))
        obj["face_areas"][1] = value
        with pytest.raises(error, match=f"^mesh: a face area must be a number, got {value!r}$"):
            ah.mesh_from_json(obj)
        with pytest.raises(error, match="^mesh: a face area must be a number"):
            ah.build_torus_mesh(2, face_areas=obj["face_areas"])

    def test_ragged_face_areas_are_one_per_face(self):
        # numpy would refuse them with its own "inhomogeneous shape" message
        obj = ah.mesh_to_json(ah.build_torus_mesh(2))
        obj["face_areas"][1] = [0.25]
        with pytest.raises(ValueError, match="^face_areas must be positive, one per face$"):
            ah.mesh_from_json(obj)


class TestConnectedness:
    def test_isolated_vertex_rejected(self, sphere1):
        # vertex 6 is on no edge; a loop edge (0, 0), inserted into two
        # faces with opposite signs, balances the Euler characteristic
        loop_edge = len(sphere1.edges)
        faces = list(sphere1.faces)
        at_zero = [f for f in range(len(faces)) if sphere1.face_start_vertex(f) == 0]
        for f, s in zip(at_zero[:2], (1, -1)):
            faces[f] = ((loop_edge, s),) + faces[f]
        edges = list(sphere1.edges) + [(0, 0)]
        with pytest.raises(ValueError, match="not connected"):
            ah.SurfaceMesh(0, 7, edges, faces, sphere1.face_areas, 6)

    def test_disjoint_union_rejected(self, sphere1):
        # sphere plus torus has the Euler characteristic of one sphere
        obj = disjoint_union_json(sphere1, ah.build_torus_mesh(2))
        assert obj["genus"] == 0
        with pytest.raises(ValueError, match="not connected"):
            ah.mesh_from_json(obj)


class TestIntegerSlots:
    # int() would read each value as an index the caller may not mean:
    # 0.6 as 0, true as 1

    @pytest.mark.parametrize(
        "base, steps",
        [(0, ((0.6, 1), (1.2, 1), (2.9, 1))), (0, ((True, 1),)), (0, ((0, True),)), (0.5, ())],
        ids=["fractional-edges", "boolean-edge", "boolean-sign", "fractional-base"],
    )
    def test_mesh_loop_rejects_non_integral_index(self, base, steps):
        with pytest.raises(ValueError, match="must be an integer"):
            MeshLoop(base, steps)

    def test_mesh_loop_reads_integral_floats(self):
        loop = MeshLoop(0.0, ((2.0, -1.0),))
        assert loop == MeshLoop(0, ((2, -1),))
        assert all(type(k) is int for k in (loop.base, *loop.steps[0]))

    @pytest.mark.parametrize("slot", ["genus", "vertices", "edge", "face-edge", "face-sign", "basepoint"])
    def test_surface_mesh_rejects_non_integral_index(self, slot):
        mesh = ah.build_torus_mesh(3)
        genus, vertices, basepoint = 1, mesh.vertex_count, 0
        edges = list(mesh.edges)
        faces = [list(face) for face in mesh.faces]
        e, s = faces[0][0]
        assert s == 1
        if slot == "genus":
            genus = True
        elif slot == "vertices":
            vertices += 0.5
        elif slot == "edge":
            edges[0] = (edges[0][0] + 0.5, edges[0][1])
        elif slot == "face-edge":
            faces[0][0] = (e + 0.5, s)
        elif slot == "face-sign":
            faces[0][0] = (e, True)
        else:
            basepoint = 0.6
        with pytest.raises(ValueError, match="must be an integer"):
            ah.SurfaceMesh(genus, vertices, edges, faces, mesh.face_areas, basepoint)


# ---------------------------------------------------------------------------
# reference: the per-step walks that the array kernels replaced


def torus_step(grid, x, y, dx, dy):
    """The (edge, sign) step of the unit move (dx, dy) from (x, y)."""
    if dx == 1:
        return (grid.h_edge(x, y), 1)
    if dx == -1:
        return (grid.h_edge(x - 1, y), -1)
    if dy == 1:
        return (grid.v_edge(x, y), 1)
    return (grid.v_edge(x, y - 1), -1)


def walk_random_loop(mesh, rng, n_steps=12, windings=None):
    """random_loop drawing one move at a time, with the sphere's spanning
    tree rebuilt on every call."""
    if mesh.genus == 1:
        grid, (p, q) = mesh.grid, windings or (0, 0)
        bx, by = grid.vertex_xy(mesh.basepoint)
        x, y, steps = bx, by, []
        for _ in range(n_steps):
            dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
            steps.append(torus_step(grid, x, y, dx, dy))
            x, y = x + dx, y + dy
        while x != bx + p * grid.N:
            dx = 1 if bx + p * grid.N > x else -1
            steps.append(torus_step(grid, x, y, dx, 0))
            x += dx
        while y != by + q * grid.N:
            dy = 1 if by + q * grid.N > y else -1
            steps.append(torus_step(grid, x, y, 0, dy))
            y += dy
        return MeshLoop(mesh.basepoint, ah.clip_steps(steps))
    adj = mesh.vertex_steps
    parent = {mesh.basepoint: (-1, 0, -1)}
    frontier = [mesh.basepoint]
    while frontier:
        v = frontier.pop(0)
        for e, s, w in adj[v]:
            if w not in parent:
                parent[w] = (e, -s, v)
                frontier.append(w)
    here, steps = mesh.basepoint, []
    for _ in range(n_steps):
        e, s, w = adj[here][rng.integers(len(adj[here]))]
        steps.append((e, s))
        here = w
    while here != mesh.basepoint:
        e, s, here = parent[here]
        steps.append((e, s))
    return MeshLoop(mesh.basepoint, ah.clip_steps(steps))


def outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return ("value", fn(*args))
    except ValueError as ex:
        return (type(ex), str(ex), getattr(ex, "windings", None))


def same_bits(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def meshes_with_any_loops(draw):
    """A builder torus (N 2..8) or sphere (S 1..4) with random positive
    face areas, and up to six loops at its basepoint: random loops with
    random windings, some made malformed by a dropped step, a flipped
    sign, an out-of-range edge or a wrong base, and the empty loop."""
    torus = draw(st.booleans())
    size = draw(st.integers(2, 8) if torus else st.integers(1, 4))
    faces = size * size if torus else 8 * size * size
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=faces, max_size=faces)))
    mesh = (ah.build_torus_mesh if torus else ah.build_sphere_mesh)(size, face_areas=weights / np.sum(weights))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loops = []
    for _ in range(draw(st.integers(1, 6))):
        windings = tuple(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))) if torus else None
        loop = ah.random_loop(mesh, rng, draw(st.integers(0, 30)), windings)
        base, steps = loop.base, list(loop.steps)
        fault = draw(st.sampled_from(["none", "none", "drop", "flip", "edge", "base", "empty"]))
        at = draw(st.integers(0, max(len(steps) - 1, 0)))
        if fault == "drop" and steps:
            del steps[at]
        elif fault == "flip" and steps:
            steps[at] = (steps[at][0], -steps[at][1])
        elif fault == "edge" and steps:
            steps[at] = (draw(st.sampled_from([-1, len(mesh.edges), len(mesh.edges) + 7])), steps[at][1])
        elif fault == "base":
            base = draw(st.sampled_from([-1, mesh.vertex_count, (base + 1) % mesh.vertex_count]))
        elif fault == "empty":
            steps = []
        loops.append(MeshLoop(base, tuple(steps)))
    return mesh, loops


class TestLoopKernelOracles:
    """The array kernels against the per-step walks they replaced: the same
    accept/reject decisions and messages, windings, cell counts and areas
    bit for bit, and one batched call on K loops against K single calls."""

    @settings(max_examples=120, deadline=None)
    @given(meshes_with_any_loops())
    def test_single_loops(self, drawn):
        mesh, loops = drawn
        for loop in loops:
            assert outcome(ah.surfaces.validate_loop, mesh, loop) == outcome(walk_validate, mesh, loop)
            got, want = outcome(enclosed_area, mesh, loop), outcome(walk_area, mesh, loop)
            if got[0] == "value" and want[0] == "value":
                assert same_bits(got[1], want[1])
            else:
                assert got == want
            if mesh.genus == 1:
                walked = outcome(walk_validate, mesh, loop)
                lift = walked if walked[0] != "value" else ("value", lifted_walk(mesh.grid, loop))
                windings = lift if lift[0] != "value" else ("value", (lift[1][0] // mesh.grid.N, lift[1][1] // mesh.grid.N))
                assert outcome(ah.torus_windings, mesh, loop) == windings

    @settings(max_examples=120, deadline=None)
    @given(meshes_with_any_loops())
    def test_batched_equals_single(self, drawn):
        mesh, loops = drawn
        steps = flat_steps([loop.base for loop in loops], [loop.steps for loop in loops])
        singles = [outcome(walk_validate, mesh, loop) for loop in loops]
        # the batched check meets the malformed loops in the order a walk
        # over the loops meets them, and reports the first
        first = next((k for k, single in enumerate(singles) if single[0] != "value"), None)
        fault = first_fault(mesh, steps)
        if first is None:
            assert fault is None
        else:
            assert fault == (first, singles[first][1])
            assert outcome(ah.surfaces._checked_steps, mesh, loops) == singles[first]
        valid = [loop for loop, single in zip(loops, singles) if single[0] == "value"]
        steps = flat_steps([loop.base for loop in valid], [loop.steps for loop in valid])
        areas = ah.surfaces._loop_areas(mesh, steps)
        for loop, area in zip(valid, areas):
            want = outcome(walk_area, mesh, loop)
            if isinstance(area, NotNullHomotopicError):
                assert want == (NotNullHomotopicError, str(area), area.windings)
            else:
                assert same_bits(area, want[1])
        if mesh.genus == 1:
            walked = lifts(mesh.grid.step_moves, steps)
            assert [tuple(column) for column in zip(*(a.tolist() for a in walked))] == [
                lifted_walk(mesh.grid, loop) for loop in valid
            ]

    def test_edge_index_beyond_intp(self):
        # json_int reads 1e308 as an integer that no array index can hold,
        # and no mesh has such an edge or vertex, so the loop is refused
        # before a mesh is at hand
        with pytest.raises(MalformedLoopError, match=f"edge index {int(1e308)} out of range"):
            ah.loop_from_json({"base": 0, "steps": [[0, 1], [1e308, 1]]})
        with pytest.raises(MalformedLoopError, match="loop base vertex out of range"):
            ah.loop_from_json({"base": -1e308, "steps": []})


@st.composite
def meshes_for_walks(draw):
    """A builder torus (N 2..8 or 32) or sphere (S 1..3) at any basepoint,
    as built or as mesh_from_json reads it back, with its own face tuples."""
    torus = draw(st.booleans())
    size = draw(st.sampled_from([*range(2, 9), 32]) if torus else st.integers(1, 3))
    mesh = (ah.build_torus_mesh if torus else ah.build_sphere_mesh)(size)
    basepoint = draw(st.integers(0, mesh.vertex_count - 1))
    if draw(st.booleans()):
        return rebased(mesh, basepoint)
    obj = ah.mesh_to_json(mesh)
    obj["basepoint"] = basepoint
    return ah.mesh_from_json(obj)


class TestRandomLoopOracle:
    """random_loop and random_homotopic_pair give the loops, and leave the
    generator in the state, of drawing one move at a time."""

    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_fifty_seeds(self, kind):
        mesh = ah.build_torus_mesh(5) if kind == "torus" else ah.build_sphere_mesh(2)
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_steps in (0, 1, 12, 25):
                windings = (int(ref.integers(-1, 2)), int(ref.integers(-1, 2))) if kind == "torus" else None
                if windings is not None:
                    assert windings == (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
                assert ah.random_loop(mesh, rng, n_steps, windings) == walk_random_loop(mesh, ref, n_steps, windings)
            pair = ah.random_homotopic_pair(mesh, rng, 12, winding_range=2)
            if kind == "torus":
                w = (int(ref.integers(-2, 3)), int(ref.integers(-2, 3)))
                assert pair == (walk_random_loop(mesh, ref, 12, w), walk_random_loop(mesh, ref, 12, w))
            else:
                assert pair == (walk_random_loop(mesh, ref), walk_random_loop(mesh, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        meshes_for_walks(),
        st.integers(0, 40),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(0, 2**32 - 1),
    )
    def test_any_mesh_basepoint_and_windings(self, mesh, n_steps, windings, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        windings = windings if mesh.genus == 1 else None
        loop = ah.random_loop(mesh, rng, n_steps, windings)
        assert loop == walk_random_loop(mesh, ref, n_steps, windings)
        assert rng.bit_generator.state == ref.bit_generator.state
        pair = ah.random_homotopic_pair(mesh, rng, n_steps, winding_range=3)
        w = (int(ref.integers(-3, 4)), int(ref.integers(-3, 4))) if mesh.genus == 1 else None
        assert pair == (walk_random_loop(mesh, ref, n_steps, w), walk_random_loop(mesh, ref, n_steps, w))
        assert rng.bit_generator.state == ref.bit_generator.state
        # every step is one of the mesh's own face tuples
        face_steps = {id(step) for face in mesh.faces for step in face}
        assert all(id(step) in face_steps for step in chain(loop.steps, *(l.steps for l in pair)))


# ---------------------------------------------------------------------------
# the step-row kernels: one gather per step from the mesh's step_ends, the
# grid's moves and the area potential's step fluxes

INTP = np.iinfo(np.intp)


@st.composite
def meshes_with_single_faults(draw):
    """A builder torus (N 2..6) or sphere (S 1..3) with random positive face
    areas, and up to five random loops at its basepoint, each valid or
    corrupted in one way: one edge out of range (any intp, the extremes
    included), one step that starts at another vertex, a loop that does not
    close, or a base out of range."""
    torus = draw(st.booleans())
    size = draw(st.integers(2, 6) if torus else st.integers(1, 3))
    faces = size * size if torus else 8 * size * size
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=faces, max_size=faces)))
    mesh = (ah.build_torus_mesh if torus else ah.build_sphere_mesh)(size, face_areas=weights / np.sum(weights))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beyond = st.one_of(
        st.sampled_from([INTP.min, INTP.min + 1, -1, INTP.max]),
        st.integers(INTP.min, -1),
        st.integers(len(mesh.edges), INTP.max),
    )
    loops = []
    for _ in range(draw(st.integers(1, 5))):
        windings = tuple(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))) if torus else None
        loop = ah.random_loop(mesh, rng, draw(st.integers(0, 24)), windings)
        base, steps = loop.base, list(loop.steps)
        fault = draw(st.sampled_from(["none", "none", "edge", "composability", "open", "base"]))
        at = draw(st.integers(0, max(len(steps) - 1, 0)))
        if fault == "edge" and steps:
            steps[at] = (draw(beyond), steps[at][1])
        elif fault == "composability" and steps:
            steps[at] = (draw(st.integers(0, len(mesh.edges) - 1)), draw(st.sampled_from([-1, 1])))
        elif fault == "open":
            # one more step, out of the base where the loop ends
            e, s, _ = mesh.vertex_steps[base][draw(st.integers(0, len(mesh.vertex_steps[base]) - 1))]
            steps.append((e, s))
        elif fault == "base":
            base = draw(st.one_of(st.integers(INTP.min, -1), st.integers(mesh.vertex_count, INTP.max)))
        loops.append(MeshLoop(base, tuple(steps)))
    return mesh, loops


def walked_lift(mesh, loop):
    """(dx, dy, cells, flux) by one walk along the steps: the lift as
    lifted_walk takes it (none on a sphere) and the flux of area_potential
    added up left to right from 0.0."""
    theta = mesh.area_potential[0].tolist()
    flux = 0.0
    for e, s in loop.steps:
        flux = flux + theta[e] * s
    return (*(lifted_walk(mesh.grid, loop) if mesh.genus == 1 else (0, 0, 0)), flux)


def same_lifts(got, want):
    return [row[:3] for row in got] == [row[:3] for row in want] and all(
        same_bits(g[3], w[3]) for g, w in zip(got, want)
    )


class TestStepRowKernels:
    @settings(max_examples=150, deadline=None)
    @given(meshes_with_single_faults())
    def test_checks_and_lifts_against_walks(self, drawn):
        mesh, loops = drawn
        walks = [outcome(walk_validate, mesh, loop) for loop in loops]
        for loop, walked in zip(loops, walks):
            checked = outcome(ah.surfaces._checked_steps, mesh, [loop])
            if walked[0] != "value":
                assert checked == walked
                continue
            got = ah.surfaces._loop_lifts(mesh, checked[1])
            assert same_lifts(got, [walked_lift(mesh, loop)])
        # the batched check raises the first fault a walk over the loops meets
        first = next((walked for walked in walks if walked[0] != "value"), None)
        checked = outcome(ah.surfaces._checked_steps, mesh, loops)
        assert checked[0] == "value" if first is None else checked == first

    @settings(max_examples=100, deadline=None)
    @given(meshes_with_single_faults())
    def test_batched_equals_single(self, drawn):
        mesh, loops = drawn
        valid = [loop for loop in loops if outcome(walk_validate, mesh, loop)[0] == "value"]
        singles = [ah.surfaces._loop_lifts(mesh, ah.surfaces._checked_steps(mesh, [loop]))[0] for loop in valid]
        steps = ah.surfaces._checked_steps(mesh, valid)
        assert same_lifts(ah.surfaces._loop_lifts(mesh, steps), singles)

    def test_step_rows_name_the_step_tables(self, torus4):
        # row 2e is the step along edge e, row 2e + 1 the step against it
        steps = flat_steps([0], [((5, 1), (5, -1), (17, -1))])
        assert steps.rows.tolist() == [10, 11, 35]
        assert torus4.step_ends[steps.rows].tolist() == [list(torus4.edges[5]), list(torus4.edges[5])[::-1],
                                                          list(torus4.edges[17])[::-1]]
        assert not torus4.step_ends.flags.writeable


@st.composite
def meshes_with_random_areas(draw):
    """A builder torus (N 2..8) or sphere (S 1..3) with random positive face
    areas that sum to 1, as built, re-based at any vertex, or read back by
    mesh_from_json with any basepoint."""
    torus = draw(st.booleans())
    size = draw(st.integers(2, 8) if torus else st.integers(1, 3))
    faces = size * size if torus else 8 * size * size
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=faces, max_size=faces)))
    mesh = (ah.build_torus_mesh if torus else ah.build_sphere_mesh)(size, face_areas=weights / np.sum(weights))
    basepoint = draw(st.integers(0, mesh.vertex_count - 1))
    form = draw(st.sampled_from(["built", "rebased", "json"]))
    if form == "rebased":
        return rebased(mesh, basepoint)
    if form == "json":
        obj = ah.mesh_to_json(mesh)
        obj["basepoint"] = basepoint
        return ah.mesh_from_json(obj)
    return mesh


class TestMeshTables:
    """The tables a mesh derives from its own data, read from their cached
    properties."""

    @settings(max_examples=120, deadline=None)
    @given(meshes_with_random_areas())
    def test_face_loops_enclose_their_areas(self, mesh):
        """Each face boundary encloses the face's area (mod 1 on the sphere).

        theta comes from subtree sums over the dual tree (integrate_faces):
        each edge value is a sum of at most F targets, so it is off by at
        most F eps sum|target|, and a face loop adds L of them (L its
        length).  The target's own roundings and the torus's density term
        are on the unit scale of the areas, which max(., 1) covers, so the
        area is within L F eps max(sum|target|, 1) of the face's.
        """
        _, density = mesh.area_potential
        areas = np.asarray(mesh.face_areas)
        # the targets area_potential integrates: each area less the density
        # on the torus, face 0 less the total area on the sphere
        target = areas - density
        if mesh.genus == 0:
            target[0] -= np.sum(areas)
        scale = len(mesh.faces) * np.finfo(np.float64).eps * max(float(np.sum(np.abs(target))), 1.0)
        for f, face in enumerate(mesh.faces):
            area = enclosed_area(mesh, ah.face_boundary_loop(mesh, f))
            error = wrap_mod1(area - areas[f]) if mesh.genus == 0 else area - areas[f]
            assert abs(error) <= len(face) * scale

    @settings(max_examples=120, deadline=None)
    @given(meshes_with_random_areas())
    def test_step_rows_and_reads(self, mesh):
        theta, _ = mesh.area_potential
        fluxes = mesh._step_fluxes
        assert fluxes[0::2].tobytes() == theta.tobytes() and fluxes[1::2].tobytes() == (-theta).tobytes()
        assert not fluxes.flags.writeable and not theta.flags.writeable
        order = mesh.face_schedule
        face_tables = (order.at, *order.rows, order.offsets, order.ends, mesh.transport_rows, mesh.face_slots,
                       *mesh.face_places, mesh.neighbours)
        assert not any(table.flags.writeable for table in face_tables)
        tables = ["grid", "vertex_steps", "dual_tree", "_basepoint_tree", "area_potential", "_step_fluxes", "_step_tuples",
                  "face_schedule", "transport_rows", "face_slots", "face_places", "neighbours"]
        if mesh.genus == 1:
            grid = mesh.grid
            moves = grid.step_moves
            assert moves.shape == (2, 2 * len(mesh.edges)) and not moves.flags.writeable
            # each row's move is its step's (head - tail), wrapped: one of
            # dx, dy is +-1 and the other 0, congruent mod N to the walk
            # between the step's ends (on N = 2, +1 and -1 are congruent)
            tail, head = (np.array([grid.vertex_xy(v) for v in ends]) for ends in mesh.step_ends.T)
            assert np.array_equal(np.sum(np.abs(moves), axis=0), np.ones(moves.shape[1]))
            assert not np.any((moves.T - (head - tail)) % grid.N)
            assert grid.step_moves is moves
            tables.append("_period_fluxes")
        for name in tables:
            assert getattr(mesh, name) is getattr(mesh, name)


def oracle_grid(mesh):
    """The grid by comparing the mesh's edge and face tuples with those of
    build_torus_mesh(N), N^2 the vertex count."""
    N = math.isqrt(mesh.vertex_count)
    if mesh.genus != 1 or N < 2 or N * N != mesh.vertex_count:
        return None
    built = ah.build_torus_mesh(N)
    return TorusGrid(N) if (mesh.edges, mesh.faces) == (built.edges, built.faces) else None


@st.composite
def meshes_with_one_relabeling(draw):
    """A mesh of meshes_with_random_areas, built again by SurfaceMesh from
    its data, as it is or with one change that still makes a valid mesh:
    one face rotated to start at another vertex, two faces swapped with
    their areas, an edge reversed with its face signs flipped, two edge
    indices exchanged, or two vertex labels exchanged.  Returns the mesh
    and the change."""
    mesh = draw(meshes_with_random_areas())
    edges, faces, areas = list(mesh.edges), [list(face) for face in mesh.faces], mesh.face_areas.tolist()

    def two(count):
        i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 2))
        return i, j + (j >= i)

    change = draw(st.sampled_from(["none", "rotate face", "swap faces", "reverse edge", "swap edges", "swap vertices"]))
    if change == "rotate face":
        f = draw(st.integers(0, len(faces) - 1))
        k = draw(st.integers(1, len(faces[f]) - 1))
        faces[f] = faces[f][k:] + faces[f][:k]
    elif change == "swap faces":
        i, j = two(len(faces))
        faces[i], faces[j], areas[i], areas[j] = faces[j], faces[i], areas[j], areas[i]
    elif change == "reverse edge":
        e = draw(st.integers(0, len(edges) - 1))
        edges[e] = edges[e][::-1]
        faces = [[(k, -s if k == e else s) for k, s in face] for face in faces]
    elif change == "swap edges":
        a, b = two(len(edges))
        edges[a], edges[b] = edges[b], edges[a]
        faces = [[({a: b, b: a}.get(k, k), s) for k, s in face] for face in faces]
    elif change == "swap vertices":
        a, b = two(mesh.vertex_count)
        edges = [tuple({a: b, b: a}.get(v, v) for v in edge) for edge in edges]
    return ah.SurfaceMesh(mesh.genus, mesh.vertex_count, edges, faces, areas, mesh.basepoint), change


class TestGridDetection:
    """Every mesh finds its grid from its own complex."""

    @settings(max_examples=200, deadline=None)
    @given(meshes_with_one_relabeling())
    def test_grid_is_that_of_the_builder_complex(self, case):
        mesh, change = case
        assert mesh.grid == oracle_grid(mesh)
        if mesh.genus == 0:
            assert mesh.grid is None
        elif change == "none":
            assert mesh.grid == TorusGrid(math.isqrt(mesh.vertex_count))

    def test_grid_is_no_constructor_argument(self, torus4, sphere2):
        # a grid passed in could disagree with the complex: TorusGrid(3) on
        # torus:4's complex misread every lift
        with pytest.raises(TypeError):
            ah.SurfaceMesh(1, 16, torus4.edges, torus4.faces, torus4.face_areas, 0, grid=TorusGrid(3))
        with pytest.raises(TypeError):
            ah.SurfaceMesh(0, sphere2.vertex_count, sphere2.edges, sphere2.faces, sphere2.face_areas, 0,
                           grid=TorusGrid(2))
        mesh = ah.SurfaceMesh(1, 16, torus4.edges, torus4.faces, torus4.face_areas, 0)
        assert mesh.grid == TorusGrid(4)
        assert enclosed_area(mesh, ah.face_boundary_loop(mesh, 5)) == 1 / 16

    def test_builder_torus_lays_out_its_arrays_once(self, monkeypatch):
        # build_torus_mesh and the grid check of its mesh share one layout,
        # which a loaded torus lays out for itself; arrays that a caller
        # holds are shared, read-only
        made = []

        class Counted(ah.surfaces._TorusLayout):
            def __init__(self, arrays):
                super().__init__(arrays)
                made.append(len(self))

        monkeypatch.setattr(ah.surfaces, "_TorusLayout", Counted)
        mesh = ah.build_torus_mesh(7)
        assert mesh.grid == TorusGrid(7) and len(made) == 1
        assert ah.mesh_from_json(ah.mesh_to_json(mesh)).grid == TorusGrid(7) and len(made) == 2
        held = ah.surfaces._torus_arrays(7)
        assert ah.surfaces._torus_arrays(7) is held and len(made) == 3
        assert not any(array.flags.writeable for array in held)

    @pytest.mark.parametrize("name", ["grid", "faces", "face_areas", "basepoint", "face_schedule", "area_potential"])
    def test_built_mesh_refuses_writes(self, name):
        # TorusGrid(3) written over torus:4's grid misread every lift, and
        # a cached table written before or after its first read would too
        mesh = ah.build_torus_mesh(4)
        if name == "area_potential":
            mesh.area_potential
        with pytest.raises(AttributeError, match="read-only"):
            setattr(mesh, name, TorusGrid(3))
        with pytest.raises(AttributeError, match="read-only"):
            delattr(mesh, name)
        assert mesh.grid == TorusGrid(4)
        assert enclosed_area(mesh, ah.face_boundary_loop(mesh, 5)) == 1 / 16


class TestBulkIntegerRule:
    """json_int's rule applied to whole sequences: exact ints pass in one
    type pass, and any other sequence is read element by element."""

    def test_numpy_ints_and_integral_floats_normalise(self, torus4):
        edges = np.array(torus4.edges, dtype=np.int32)
        faces = [[(np.int64(e), float(s)) for e, s in face] for face in torus4.faces]
        mesh = ah.SurfaceMesh(np.int64(1), 16.0, edges, faces, torus4.face_areas, np.int16(0))
        assert (mesh.edges, mesh.faces) == (torus4.edges, torus4.faces)
        values = [mesh.genus, mesh.vertex_count, mesh.basepoint, *chain(*mesh.edges), *chain(*chain(*mesh.faces))]
        assert {type(v) for v in values} == {int}
        loop = MeshLoop(np.int64(0), [[np.int32(0), 1.0], (np.uint8(1), np.int64(1))])
        assert loop == MeshLoop(0, ((0, 1), (1, 1)))
        assert {type(v) for v in chain(*loop.steps)} == {int}
        assert ah.GammaRElement(2, np.array([1, 2, -1])) == ah.GammaRElement(2, (1, 2, -1))
        assert ah.SurfaceWord(2, [1.0, np.int8(2)]).letters == (1, 2)
        assert {type(v) for v in ah.SurfaceWord(2, (3.0, np.int64(4))).letters} == {int}

    @pytest.mark.parametrize("bad", [True, 1.5])
    @pytest.mark.parametrize("at", [0, 2, -1])
    def test_bool_or_fraction_anywhere_raises(self, torus4, bad, at):
        def replaced(pairs, slot):
            pairs = [list(pair) for pair in pairs]
            pairs[at][slot] = bad
            return [tuple(pair) for pair in pairs]

        def raises(what, build):
            with pytest.raises(ValueError, match=rf"^{what} must be an integer, got {bad!r}$"):
                build()

        mesh = torus4
        raises("mesh: an edge tail", lambda: ah.SurfaceMesh(
            1, 16, replaced(mesh.edges, 0), mesh.faces, mesh.face_areas, 0))
        raises("mesh: an edge head", lambda: ah.SurfaceMesh(
            1, 16, replaced(mesh.edges, 1), mesh.faces, mesh.face_areas, 0))
        faces = [list(face) for face in mesh.faces]
        faces[at] = replaced(faces[at], 1)
        raises("mesh: a face sign", lambda: ah.SurfaceMesh(1, 16, mesh.edges, faces, mesh.face_areas, 0))
        steps = ah.alpha_loop(mesh).steps
        raises("loop: a step edge", lambda: MeshLoop(0, replaced(steps, 0)))
        raises("loop: a step sign", lambda: MeshLoop(0, replaced(steps, 1)))
        letters = [1, 2, -1, -2, 3, 4, 1, 2]
        letters[at] = bad
        raises("word: a letter", lambda: ah.GammaRElement(2, letters))
        raises("word: a letter", lambda: ah.SurfaceWord(2, letters))


@st.composite
def meshes_to_round_trip(draw):
    """A builder torus (N 2..12) or sphere (S 1..4) with random positive
    face areas, and the same mesh re-based at a random vertex."""
    torus = draw(st.booleans())
    size = draw(st.integers(2, 12) if torus else st.integers(1, 4))
    faces = size * size if torus else 8 * size * size
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=faces, max_size=faces)))
    built = (ah.build_torus_mesh if torus else ah.build_sphere_mesh)(size, face_areas=weights / np.sum(weights))
    return built, rebased(built, draw(st.integers(0, built.vertex_count - 1)))


class TestArrayReaders:
    """The readers of mesh and field files check their input in one type
    pass per part and hold it in arrays; the builders hand the same arrays
    to SurfaceMesh."""

    TABLES = ("edges", "faces", "tails", "heads", "step_ends", "plus_slot", "minus_slot", "plus_face", "minus_face")

    @settings(max_examples=60, deadline=None)
    @given(meshes_to_round_trip(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_round_trip(self, meshes, n, seed):
        built, mesh = meshes
        args = (mesh.genus, mesh.vertex_count, mesh.edges, mesh.faces, mesh.face_areas, mesh.basepoint)
        for read in (ah.mesh_from_json(json.loads(json.dumps(ah.mesh_to_json(mesh)))), ah.SurfaceMesh(*args)):
            assert (read.genus, read.vertex_count, read.basepoint) == args[:2] + args[-1:]
            assert read.face_areas.tobytes() == built.face_areas.tobytes()
            for name in self.TABLES:
                got, want = getattr(read, name), getattr(built, name)
                assert type(got) is type(want) and np.array_equal(got, want), name
            assert all(map(np.array_equal, read.face_steps, built.face_steps))
            assert read.grid == built.grid
        field = random_field(mesh, n, np.random.default_rng(seed))
        back = ah.field_from_json(json.loads(json.dumps(ah.field_to_json(field))))
        assert back.U.tobytes() == field.U.tobytes()

    def test_round_trip_keeps_signed_zeros(self):
        # forming re + 1j * im would read each -0.0 imaginary part as +0.0
        mesh = ah.build_sphere_mesh(1)
        field = ah.GaugeField(mesh, ah.build_ym_field_from_rep(mesh, ah.sphere_rep([1, 0])).U.conj())
        assert np.signbit(field.U.imag).any()
        back = ah.field_from_json(json.loads(json.dumps(ah.field_to_json(field))))
        assert back.U.tobytes() == field.U.tobytes()

    @pytest.mark.parametrize("N", [8, 16])
    def test_well_formed_field_reads_each_scalar_slot_once(self, N, monkeypatch):
        # JSON's [tail, head] lists once failed a tuple-only type pass, and
        # every edge and face entry then went through json_int: about
        # 8 200 calls on a torus:32 field
        field = ah.build_ym_field_from_rep(ah.build_torus_mesh(N), flux_rep(1, 1))
        obj = json.loads(json.dumps(ah.field_to_json(field)))
        calls = []

        def counted(value, what):
            calls.append(what)
            return json_int(value, what)

        for module in (surfaces, fields, lattice, reps):
            monkeypatch.setattr(module, "json_int", counted)
        assert ah.field_from_json(obj).U.tobytes() == field.U.tobytes()
        assert sorted(calls) == ["field: n", "mesh: basepoint", "mesh: genus", "mesh: vertices"]
