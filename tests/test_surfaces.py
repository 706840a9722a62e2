"""Mesh construction, winding numbers, and enclosed area."""

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
from areaholonomy.surfaces import integrate_faces


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
        if grid.edge_info(e)[0] == "h":
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
def meshes_with_loops(draw, genus):
    """A builder mesh with random positive face areas and a random
    null-homotopic loop at its basepoint."""
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
    return mesh, ah.random_loop(mesh, rng, draw(st.integers(0, 40)))


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
        assert mesh.dual_tree() == tree

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


class TestJson:
    def test_mesh_roundtrip_torus(self, torus4):
        back = ah.mesh_from_json(ah.mesh_to_json(torus4))
        assert back.edges == torus4.edges
        assert back.faces == torus4.faces
        assert back.grid is not None and back.grid.N == 4

    @pytest.mark.parametrize("variant", ["2x8", "2x3", "basepoint", "relabeled"])
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
            if variant == "basepoint":
                obj["basepoint"] = 1
            else:
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
