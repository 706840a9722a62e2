"""Gauge fields and their file form.

A GaugeField holds one unitary per undirected edge of a mesh, in the
edge's canonical orientation; it is a value-semantic snapshot, never
mutated in place.  This module reads and writes fields and perturbs them,
and imports only liecore and surfaces, so a run that checks a field
(verify) loads neither the flow engine (lattice) nor the representations
(reps).
"""

from __future__ import annotations

from contextlib import suppress
from operator import itemgetter
from typing import Optional

import numpy as np

from .liecore import expm_raw, require_unitary
from .surfaces import SurfaceMesh, _float_array, json_int, json_ints, mesh_from_json, mesh_to_json, required_keys


class GaugeField:
    """One unitary per undirected edge, in the edge's canonical orientation."""

    __slots__ = ("mesh", "n", "U")

    def __init__(self, mesh: SurfaceMesh, values: np.ndarray):
        values = np.array(values, dtype=np.complex128)
        n = values.shape[1] if values.ndim == 3 else 0
        if n < 1 or values.shape != (len(mesh.edges), n, n):
            raise ValueError("field values must have shape (E, n, n), n >= 1")
        require_unitary(values, "an edge matrix")
        values.setflags(write=False)
        self.mesh = mesh
        self.n = n
        self.U = values

    @staticmethod
    def identity(mesh: SurfaceMesh, n: int) -> "GaugeField":
        values = np.broadcast_to(np.eye(n, dtype=np.complex128), (len(mesh.edges), n, n)).copy()
        return GaugeField(mesh, values)

    def __repr__(self) -> str:
        return f"GaugeField(edges={len(self.mesh.edges)}, n={self.n})"


def perturb_field(field: GaugeField, rng: np.random.Generator, eps: float) -> GaugeField:
    """Left-multiply every edge by exp(eps X) with X standard Gaussian skew.
    Raises ValueError, before drawing, unless eps is finite."""
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    n = field.n
    a = rng.normal(size=(len(field.mesh.edges), n, n)) + 1j * rng.normal(
        size=(len(field.mesh.edges), n, n)
    )
    skew = (a - a.conj().swapaxes(-1, -2)) / 2.0
    return GaugeField(field.mesh, expm_raw(eps * skew) @ field.U)


# ---------------------------------------------------------------------------
# JSON

def field_to_json(field: GaugeField) -> dict:
    """Each edge as matrix_to_json writes it, from one tolist() per part."""
    n = field.n
    return {
        "mesh": mesh_to_json(field.mesh),
        "n": n,
        "edges": [
            {"n": n, "re": re, "im": im}
            for re, im in zip(field.U.real.tolist(), field.U.imag.tolist())
        ],
    }


def _field_text(field: GaugeField, seed: int) -> str:
    """json.dumps(field_to_json(field) | {"seed": seed}, sort_keys=True,
    indent=1), formed from the arrays without the tree of edge dicts.

    json lays out the file with one placeholder per list, and each list's
    item once per shape with "%s" in every number slot; one % fills all
    slots.  json writes finite floats and ints with their repr, as %s
    does, and a GaugeField and its mesh hold only finite numbers, so the
    bytes are json's.
    """
    import json
    import re
    from itertools import chain

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, indent=1)

    def row(k):
        return ["%s"] * k

    n = field.n
    mesh = mesh_to_json(field.mesh)
    # per list, in the file's key order: item shapes, item for a shape, numbers
    lists = (
        ([n] * len(field.U), lambda k: {"im": [row(k)] * k, "n": k, "re": [row(k)] * k},
         np.stack((field.U.imag, field.U.real), 1).ravel().tolist()),
        (list(map(len, mesh["edges"])), row, chain.from_iterable(mesh["edges"])),
        ([0] * len(mesh["face_areas"]), lambda _: "%s", mesh["face_areas"]),
        (list(map(len, mesh["faces"])), row, chain.from_iterable(mesh["faces"])),
    )
    mesh.update(edges=["@1"], face_areas=["@2"], faces=["@3"])
    skeleton = dumps({"edges": ["@0"], "mesh": mesh, "n": n, "seed": seed})

    def items(match):
        indent, (shapes, item, _) = match[1], lists[int(match[2])]
        layout = {
            k: dumps(item(k)).replace('"%s"', "%s").replace("\n", "\n" + indent)
            for k in set(shapes)
        }
        return indent + f",\n{indent}".join(map(layout.__getitem__, shapes))

    text = re.sub(r'( *)"@(\d)"', items, skeleton)
    return text % tuple(chain.from_iterable(numbers for *_, numbers in lists))


def field_from_json(obj: dict, *, base_dir: Optional[str] = None) -> GaugeField:
    """Load a field snapshot; "mesh" may be inline JSON or a file path
    (resolved against base_dir when given)."""
    mesh_obj, n, edges = required_keys(obj, "field", "mesh", "n", "edges")
    if isinstance(mesh_obj, str):
        import json
        import os

        path = mesh_obj if base_dir is None else os.path.join(base_dir, mesh_obj)
        with open(path) as handle:
            mesh_obj = json.load(handle)
    mesh = mesh_from_json(mesh_obj)
    return GaugeField(mesh, _matrices_from_json(edges, json_int(n, "field: n")))


def _matrices_from_json(objs, n: int) -> np.ndarray:
    """The stack (K, n, n) of K matrices in matrix_to_json's form, one array
    conversion per part; ValueError unless each says n and is n x n.  Only
    a list that fails a type pass is read by required_keys, to name a fault.
    The entries of re, then of im, are read as surfaces.json_float reads a
    number (_float_array), so a string or a boolean entry raises naming its
    part, even where the matrices also differ in shape."""
    parts = None
    if type(objs) is list and set(map(type, objs)) <= {dict}:
        with suppress(KeyError):
            parts = [list(map(itemgetter(key), objs)) for key in ("n", "re", "im")]
    if parts is None:
        matrices = [required_keys(m, "matrix", "n", "re", "im") for m in objs]
        parts = [[m[i] for m in matrices] for i in range(3)]
    sizes = set(json_ints(parts[0], "matrix: n"))
    fault = f"every matrix must be {n} x {n}, as its n says"
    re, im = (_float_array(part, f"matrix: an entry of {key}", fault) for key, part in zip(("re", "im"), parts[1:]))
    if sizes != {n} or {re.shape, im.shape} != {(len(parts[0]), n, n)}:
        raise ValueError(fault)
    # assigned, as re + 1j * im would turn a -0.0 imaginary part into +0.0
    stack = np.empty(re.shape, np.complex128)
    stack.real, stack.imag = re, im
    return stack
