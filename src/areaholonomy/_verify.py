"""The area-holonomy check of many loop pairs in a few array passes.

lattice.verify_area_property checks one pair and the CLI's verify checks
many; both run verify_pairs.  The loops of a pass are checked, lifted and
transported by the _loopsteps kernels, but what is raised is what checking
the pairs one at a time raises first, in the same order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._loopsteps import concat_inverse, flat_steps, holonomies, loop_faults
from .liecore import expm_raw, logm_raw
from .surfaces import MalformedLoopError, NotNullHomotopicError, _loop_areas

# Pairs per array pass.  At about a hundred steps per pair, the flat arrays
# of one pass stay near 100 KB, which keeps the peak memory near that of
# checking one pair at a time.
_PAIR_BLOCK = 64


def verify_pairs(field, pairs, lam: Optional[np.ndarray] = None) -> list:
    """verify_area_property for many loop pairs, _PAIR_BLOCK at a time.

    Per pair, (delta, residual) with delta the oriented area between the
    loops, or the pair's NotNullHomotopicError.  What is raised is what
    the per-pair sequence raises first: for each pair in turn, different
    bases, a malformed l1 l2^-1, a mesh with no torus grid, then (unless
    the pair is not null-homotopic) loops not based at the basepoint or a
    malformed l1 or l2.  lam None reads basepoint_curvature, once the
    first null-homotopic pair needs it.
    """
    rows = []
    for first in range(0, len(pairs), _PAIR_BLOCK):
        block, lam = _verify_block(field, pairs[first:first + _PAIR_BLOCK], lam)
        rows += block
    return rows


def _verify_block(field, pairs, lam: Optional[np.ndarray]) -> tuple[list, Optional[np.ndarray]]:
    """One array pass of verify_pairs: its rows, and lam once read."""
    mesh = field.mesh
    count = len(pairs)
    between = concat_inverse(pairs)
    between_faults = loop_faults(mesh, between)
    stop = next((i for i, (l1, l2) in enumerate(pairs) if l1.base != l2.base or i in between_faults), count)
    rows = _loop_areas(mesh, between.take(slice(0, stop))) if stop else []
    del between
    loops = flat_steps(
        [l1.base for l1, _ in pairs] + [l2.base for _, l2 in pairs],
        [l1.steps for l1, _ in pairs] + [l2.steps for _, l2 in pairs],
    )
    faulty = loop_faults(mesh, loops)
    transported = []
    for i, row in enumerate(rows):
        if isinstance(row, NotNullHomotopicError):
            continue
        if lam is None:
            lam = basepoint_curvature(field)
        if pairs[i][0].base != mesh.basepoint:
            raise ValueError("both loops must be based at the mesh basepoint")
        for k in (i, count + i):
            if k in faulty:
                raise MalformedLoopError(faulty[k])
        transported.append(i)
    if stop < count:
        if pairs[stop][0].base != pairs[stop][1].base:
            raise MalformedLoopError("cannot concatenate loops at different base vertices")
        raise MalformedLoopError(between_faults[stop])
    if transported:
        first = np.array(transported, dtype=np.intp)
        h = holonomies(field.U, loops.take(np.concatenate((first, first + count))))
        deltas = np.array([rows[i] for i in transported])
        residuals = area_residuals(h[: len(first)], h[len(first):], deltas, lam)
        for i, residual in zip(transported, residuals.tolist()):
            rows[i] = (rows[i], residual)
    return rows, lam


def basepoint_curvature(field) -> np.ndarray:
    """Curvature density log(H)/area of the first face whose boundary
    passes through the basepoint, with H that boundary's holonomy
    traversed from the basepoint.  lattice.face_curvature(field, f) is
    expressed in the frame of face f's start vertex, which differs by a
    gauge-dependent conjugation unless that vertex is the basepoint."""
    mesh = field.mesh
    for f, face in enumerate(mesh.faces):
        for k, (e, s) in enumerate(face):
            if mesh.step_endpoints(e, s)[0] == mesh.basepoint:
                rotated = flat_steps([mesh.basepoint], [face[k:] + face[:k]])
                return logm_raw(holonomies(field.U, rotated)[0]) / mesh.face_areas[f]
    raise ValueError("no face boundary passes through the basepoint")


def area_residuals(h1: np.ndarray, h2: np.ndarray, deltas: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """||H1 - exp(delta lam) H2||_F for stacks of holonomy pairs and their
    oriented areas delta, with one expm_raw over the stack of delta lam.
    The squared norm is summed as np.linalg.norm sums it for one matrix
    (a dot product of the real parts plus one of the imaginary parts), so
    each entry is bit for bit the norm of its pair alone."""
    diff = h1 - expm_raw(deltas[:, None, None] * lam) @ h2
    re, im = diff.real.reshape(len(diff), -1), diff.imag.reshape(len(diff), -1)
    squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(squares[:, 0, 0])
