"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib
import io
from bisect import bisect_right
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np
import pytest
import scipy.optimize

import areaholonomy as ah
from areaholonomy.cli import main
from areaholonomy.lattice import _Engine, _u_basis
from areaholonomy.liecore import expm_raw, matmul_raw
from areaholonomy.policy import DEFAULT_POLICY
from areaholonomy.surfaces import json_int, required_keys


class CliRun(NamedTuple):
    exit_code: int
    output: str
    stderr: str


def run_cli(args: list[str]) -> CliRun:
    """The command line's exit code, stdout and stderr, run in this process;
    anything it lets escape but SystemExit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as ex:
            code = ex.code or 0
    return CliRun(code, out.getvalue(), err.getvalue())


def flux_rep(n: int, k: int) -> ah.YangMillsRep:
    """Genus-1 abelian sector representative: Lambda = 2 pi i diag(k, 0, ...)."""
    weights = np.zeros(n)
    weights[0] = k
    lam = ah.SkewHermitian(2j * np.pi * np.diag(weights))
    eye = ah.Unitary(np.eye(n))
    return ah.YangMillsRep(1, n, [eye], [eye], lam)


def quaternion_rep(genus: int) -> ah.YangMillsRep:
    """Exact nonabelian rep: [X, Y] = -I with X, Y the quaternion units.

    Works for any genus >= 1 by putting the noncommuting pair in the first
    slot and identities elsewhere; Lambda = i pi I is central.
    """
    x = ah.Unitary([[0, 1], [-1, 0]])
    y = ah.Unitary([[1j, 0], [0, -1j]])
    eye = ah.Unitary(np.eye(2))
    a = [x] + [eye] * (genus - 1)
    b = [y] + [eye] * (genus - 1)
    return ah.YangMillsRep(genus, 2, a, b, ah.SkewHermitian(1j * np.pi * np.eye(2)))


def _skew_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1j
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1.0, -1.0
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1j, 1j
            basis.append(m)
    return basis


def solved_genus2_rep(seed: int = 0, n: int = 2) -> ah.YangMillsRep:
    """Random genus-2 rep found by root-finding on the relator equation.

    Parameterizes A_i = exp(X_i), B_i = exp(Y_i) over u(n) coordinates and
    solves prod [A_i, B_i] = exp(i pi I) by least squares from a random
    start.
    """
    rng = np.random.default_rng(seed)
    basis = _skew_basis(n)
    dim = len(basis)
    target = expm_raw(1j * np.pi * np.eye(n))

    def mats(params):
        out = []
        for idx in range(4):
            coeff = params[idx * dim: (idx + 1) * dim]
            out.append(expm_raw(sum(c * b for c, b in zip(coeff, basis))))
        return out

    def residual(params):
        a1, b1, a2, b2 = mats(params)
        rel = (a1 @ b1 @ a1.conj().T @ b1.conj().T) @ (a2 @ b2 @ a2.conj().T @ b2.conj().T)
        diff = rel - target
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    result = scipy.optimize.least_squares(
        residual, rng.normal(scale=0.8, size=4 * dim), xtol=1e-15, ftol=1e-15, gtol=1e-15
    )
    assert np.linalg.norm(result.fun) < 1e-10, "relator solve did not converge"
    a1, b1, a2, b2 = (ah.Unitary(m) for m in mats(result.x))
    return ah.YangMillsRep(2, n, [a1, a2], [b1, b2], ah.SkewHermitian(1j * np.pi * np.eye(n)))


def random_skew_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> ah.SkewHermitian:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return ah.SkewHermitian(scale * (a - a.conj().T) / 2.0)


def random_field(mesh: ah.SurfaceMesh, n: int, rng: np.random.Generator, scale: float = 0.3) -> ah.GaugeField:
    shape = (len(mesh.edges), n, n)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    skew = (a - a.conj().swapaxes(-1, -2)) / 2.0
    return ah.GaugeField(mesh, expm_raw(scale * skew))


def rebased(mesh: ah.SurfaceMesh, basepoint: int) -> ah.SurfaceMesh:
    """The same complex, areas and grid with another basepoint."""
    return ah.SurfaceMesh(mesh.genus, mesh.vertex_count, mesh.edges, mesh.faces, mesh.face_areas, basepoint)


def finite_difference_hessian(field, h=1e-5):
    """The action's Hessian from central differences of the exact gradient,
    in the real u(n) coordinates (_u_basis) of every edge: column (e, k)
    moves U_e to exp(+-h B_k) U_e.  Symmetrised."""
    engine = _Engine(field.mesh)
    n, edges = field.n, len(field.U)
    basis = _u_basis(n)
    up, down = (expm_raw(sign * h * basis.reshape(n * n, n, n)) for sign in (1, -1))

    def coordinates(u):
        grad = engine.gradient_from_logs(engine.logs(u))
        return (grad.reshape(edges, -1) @ basis.conj().T).real.ravel()

    columns = []
    for e in range(edges):
        for k in range(n * n):
            plus, minus = field.U.copy(), field.U.copy()
            plus[e] = up[k] @ plus[e]
            minus[e] = down[k] @ minus[e]
            columns.append((coordinates(plus) - coordinates(minus)) / (2 * h))
    hessian = np.array(columns)
    return (hessian + hessian.T) / 2


def dense_operator(field, mu, curvature):
    """_Engine.normal_operator as a dense matrix: column (e, k) is its image
    of the unit vector on coordinate k of edge e."""
    engine = _Engine(field.mesh)
    logs = engine.logs(field.U)
    apply = engine.normal_operator(logs, engine.face_blocks(logs), mu, curvature)
    d = field.n * field.n
    units = np.eye(len(field.U) * d).reshape(-1, len(field.U), d)
    return np.array([apply(c).ravel() for c in units]).T


ONE_EDGE_SPHERE = {"genus": 0, "vertices": 2, "edges": [[0, 1]], "faces": [[1, -1]], "face_areas": [1.0], "basepoint": 0}


def slit_face(mesh: ah.SurfaceMesh) -> ah.SurfaceMesh:
    """The mesh with a dangling edge from face 0's start vertex to a new
    vertex inside the face, whose boundary now runs out along the edge and
    straight back first; the Euler characteristic is unchanged."""
    obj = ah.mesh_to_json(mesh)
    obj["edges"].append([mesh.face_start_vertex(0), obj["vertices"]])
    obj["faces"][0] = [len(obj["edges"]), -len(obj["edges"])] + obj["faces"][0]
    return ah.mesh_from_json({**obj, "vertices": obj["vertices"] + 1})


def disjoint_union_json(first: ah.SurfaceMesh, second: ah.SurfaceMesh) -> dict:
    """Mesh JSON of two meshes side by side, with half the area each and
    the genus that their summed Euler characteristic gives."""
    a, b = ah.mesh_to_json(first), ah.mesh_to_json(second)
    v, e = a["vertices"], len(a["edges"])
    return {
        "genus": first.genus + second.genus - 1,
        "vertices": v + b["vertices"],
        "edges": a["edges"] + [[t + v, h + v] for t, h in b["edges"]],
        "faces": a["faces"] + [[k + e if k > 0 else k - e for k in face] for face in b["faces"]],
        "face_areas": [x / 2 for x in a["face_areas"] + b["face_areas"]],
        "basepoint": 0,
    }


MALFORMED_MESHES = ("entry-beyond-edges", "empty-face", "entry-beyond-intp", "open-face", "range-before-walk",
                    "same-sign", "face-areas-2d")


def malformed_mesh_json(case: str) -> tuple[dict, str]:
    """Mesh JSON with one fault and the message that names it: torus:3
    with face 4 listing edge 1000 or 10^30, left empty or not closing up
    (a step reversed), or with both an open face 2 and the out-of-range
    face 4, of which the range fault is reported; torus:3 with face areas
    of shape (F, 1); or a sphere of two 2-gons that run the same way round,
    so edge 0 has two +1 slots."""
    if case == "same-sign":
        obj = {"genus": 0, "vertices": 2, "edges": [[0, 1], [1, 0]], "faces": [[1, 2], [1, 2]],
               "face_areas": [0.5, 0.5], "basepoint": 0}
        return obj, "edge 0 must appear in exactly two faces with opposite signs"
    obj = ah.mesh_to_json(ah.build_torus_mesh(3))
    faces, message = obj["faces"], "face 4 must list edges among 0..17"
    if case in ("entry-beyond-edges", "range-before-walk"):
        faces[4][1] = 1000
        if case == "range-before-walk":
            faces[2][1] = -faces[2][1]
    elif case == "entry-beyond-intp":
        faces[4][1] = 10**30
    elif case == "empty-face":
        faces[4] = []
    elif case == "open-face":
        faces[4][1] = -faces[4][1]
        message = "face 4 must list its edges head to tail around a closed boundary"
    else:
        obj["face_areas"] = [[a] for a in obj["face_areas"]]
        message = "face_areas must be positive, one per face"
    return obj, message


# the element-by-element readers that the array passes replaced, kept as
# oracles: they name every fault of a field file in the words and the
# order the package names it


def oracle_mesh_from_json(obj) -> tuple:
    """mesh_from_json and SurfaceMesh's checks, one JSON element at a time:
    the (genus, vertex_count, edges, faces, face_areas, basepoint) of the
    mesh, or the exception of its first fault."""
    genus, vertices, edges, faces, face_areas, basepoint = required_keys(
        obj, "mesh", "genus", "vertices", "edges", "faces", "face_areas", "basepoint"
    )
    faces = [[json_int(k, "mesh: a face entry") for k in face] for face in faces]
    if any(k == 0 for face in faces for k in face):
        raise ValueError("mesh: face entries are signed 1-based edge indices, so 0 names no edge")
    faces = tuple(tuple((abs(k) - 1, 1 if k > 0 else -1) for k in face) for face in faces)
    genus = json_int(genus, "mesh: genus")
    if genus not in (0, 1):
        raise ValueError("only genus 0 and 1 meshes are supported")
    v = json_int(vertices, "mesh: vertices")
    edges = tuple((json_int(a, "mesh: an edge tail"), json_int(b, "mesh: an edge head")) for a, b in edges)
    areas = np.array(face_areas, dtype=np.float64)
    basepoint = json_int(basepoint, "mesh: basepoint")
    e, f = len(edges), len(faces)
    if v - e + f != 2 - 2 * genus:
        raise ValueError(f"Euler characteristic {v - e + f} does not match genus {genus}")
    if areas.shape != (f,) or not np.all(areas > 0):
        raise ValueError("face_areas must be positive, one per face")
    if not abs(float(np.sum(areas)) - 1.0) <= DEFAULT_POLICY.area_sum_tol:
        raise ValueError("face areas must sum to 1")
    if not 0 <= basepoint < v:
        raise ValueError("basepoint out of range")
    endpoints = list(chain.from_iterable(edges))
    if min(endpoints, default=0) < 0 or max(endpoints, default=0) >= v:
        raise ValueError(f"edge endpoints must be vertices 0..{v - 1}")
    lengths = list(map(len, faces))
    slot_edges = [k for k, _ in chain.from_iterable(faces)]
    if 0 in lengths or min(slot_edges) < 0 or max(slot_edges) >= e:
        ends = list(accumulate(lengths))
        bad = [lengths.index(0)] if 0 in lengths else []
        bad += [bisect_right(ends, i) for i, k in enumerate(slot_edges) if not 0 <= k < e][:1]
        raise ValueError(f"face {min(bad)} must list edges among 0..{e - 1}")
    for index, face in enumerate(faces):
        here = start = edges[face[0][0]][0 if face[0][1] > 0 else 1]
        composable = True
        for k, s in face:
            tail, head = edges[k] if s > 0 else edges[k][::-1]
            composable &= tail == here
            here = head
        if not composable or here != start:
            raise ValueError(f"face {index} must list its edges head to tail around a closed boundary")
    slots = {}
    for index, face in enumerate(faces):
        for k, s in face:
            slots.setdefault(k, []).append((s, index))
    for k in range(e):
        if sorted(s for s, _ in slots.get(k, [])) != [-1, 1]:
            raise ValueError(f"edge {k} must appear in exactly two faces with opposite signs")
    across = {(k, s): g for k, used in slots.items() for s, g in used}
    seen, queue = {0}, [0]
    for index in queue:
        for k, s in faces[index]:
            g = across[k, -s]
            if g not in seen:
                seen.add(g)
                queue.append(g)
    if len(set(endpoints)) < v or len(seen) != f:
        raise ValueError("the complex is not connected")
    return genus, v, edges, faces, areas, basepoint


def oracle_matrices_from_json(objs, n: int) -> np.ndarray:
    """reps._matrices_from_json with every key and n read one matrix at a time."""
    matrices = [required_keys(m, "matrix", "n", "re", "im") for m in objs]
    sizes = {json_int(size, "matrix: n") for size, _, _ in matrices}
    re = [np.array(m[1], dtype=np.float64) for m in matrices]
    im = [np.array(m[2], dtype=np.float64) for m in matrices]
    if sizes != {n} or {part.shape for part in re + im} != {(n, n)}:
        raise ValueError(f"every matrix must be {n} x {n}, as its n says")
    stack = np.empty((len(matrices), n, n), np.complex128)
    stack.real, stack.imag = re, im
    return stack


def oracle_field_from_json(obj) -> tuple:
    """field_from_json by the oracles, for an inline mesh: the mesh's
    values (oracle_mesh_from_json) and the field's matrices, or the
    exception of the first fault."""
    mesh_obj, n, edges = required_keys(obj, "field", "mesh", "n", "edges")
    mesh = oracle_mesh_from_json(mesh_obj)
    field = ah.GaugeField(ah.SurfaceMesh(*mesh), oracle_matrices_from_json(edges, json_int(n, "field: n")))
    return mesh, field.U


# the per-step walks that the loop kernels replaced, kept as oracles


def walk_validate(mesh, loop):
    """validate_loop as one walk over the steps."""
    if not (0 <= loop.base < mesh.vertex_count):
        raise ah.MalformedLoopError("loop base vertex out of range")
    here = loop.base
    path = [here]
    for e, s in loop.steps:
        if not (0 <= e < len(mesh.edges)):
            raise ah.MalformedLoopError(f"edge index {e} out of range")
        tail, head = mesh.step_ends[2 * e + (s < 0)]
        if tail != here:
            raise ah.MalformedLoopError("loop steps are not head-to-tail composable")
        here = head
        path.append(here)
    if here != loop.base:
        raise ah.MalformedLoopError("loop does not return to its base vertex")
    return path


def lifted_walk(grid, loop):
    """Net displacement of the lift and the sum over vertical steps of s * x."""
    x = dy = cells = 0
    for e, s in loop.steps:
        if e < grid.N * grid.N:
            x += s
        else:
            dy += s
            cells += s * x
    return x, dy, cells


def walk_area(mesh, loop):
    """enclosed_area with the flux summed by the builtin sum."""
    walk_validate(mesh, loop)
    theta, density = mesh.area_potential
    flux = float(sum(s * theta[e] for e, s in loop.steps))
    if mesh.genus == 0:
        return ah.wrap_mod1(flux)
    dx, dy, cells = lifted_walk(mesh.grid, loop)
    if dx or dy:
        p, q = dx // mesh.grid.N, dy // mesh.grid.N
        raise ah.NotNullHomotopicError(
            f"loop has period windings ({p}, {q}); enclosed area needs a null-homotopic loop", (p, q)
        )
    return density * cells + flux


def walk_holonomy(field, loop):
    """loop_holonomy as one left-to-right product over the reduced steps,
    each taken by the package's product kernel."""
    walk_validate(field.mesh, loop)
    out = np.eye(field.n, dtype=np.complex128)
    for e, s in ah.clip_steps(loop.steps):
        out = matmul_raw(out, field.U[e] if s > 0 else field.U[e].conj().T)
    return out


@pytest.fixture(scope="session")
def torus4() -> ah.SurfaceMesh:
    return ah.build_torus_mesh(4)


@pytest.fixture(scope="session")
def torus8() -> ah.SurfaceMesh:
    return ah.build_torus_mesh(8)


@pytest.fixture(scope="session")
def sphere1() -> ah.SurfaceMesh:
    return ah.build_sphere_mesh(1)


@pytest.fixture(scope="session")
def sphere2() -> ah.SurfaceMesh:
    return ah.build_sphere_mesh(2)
