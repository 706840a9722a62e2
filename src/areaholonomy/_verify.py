"""The area-holonomy check of many loop pairs in a few array passes.

lattice.verify_area_property checks one pair and the CLI's verify checks
many; both run verify_pairs.  Every loop is checked before its pair is
measured, and two loops of the mesh at one base make a valid l1 l2^-1.
The _loopsteps kernels check, lift and transport the loops of a pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._loopsteps import concat_inverse, flat_steps, holonomies
from .liecore import expm_raw, logm_raw
from .surfaces import NotNullHomotopicError, _checked_steps, _loop_areas

# Pairs per array pass.  At about a hundred steps per pair, the flat arrays
# of one pass stay near 100 KB, which keeps the peak memory near that of
# checking one pair at a time.
_PAIR_BLOCK = 64


def verify_pairs(field, pairs, lam: Optional[np.ndarray] = None) -> list:
    """verify_area_property for many loop pairs, _PAIR_BLOCK at a time.

    Per pair, (delta, residual) with delta the oriented area between the
    loops, or the pair's NotNullHomotopicError.  Raises ValueError if
    some loop is not based at the mesh basepoint, then MalformedLoopError
    (surfaces.validate_loop's message) for the first malformed loop in the
    order l1_0, l2_0, l1_1, l2_1, ...: each pass checks its loops before
    it measures a pair.  lam None reads basepoint_curvature, once the
    first null-homotopic pair needs it.
    """
    mesh = field.mesh
    if any(l1.base != mesh.basepoint or l2.base != mesh.basepoint for l1, l2 in pairs):
        raise ValueError("both loops must be based at the mesh basepoint")
    rows = []
    for first in range(0, len(pairs), _PAIR_BLOCK):
        steps = _checked_steps(mesh, [loop for pair in pairs[first:first + _PAIR_BLOCK] for loop in pair])
        block = _loop_areas(mesh, concat_inverse(steps))
        measured = [i for i, row in enumerate(block) if not isinstance(row, NotNullHomotopicError)]
        if measured:
            if lam is None:
                lam = basepoint_curvature(field)
            l1s = 2 * np.array(measured, dtype=np.intp)
            h = holonomies(field.U, steps)
            deltas = np.array([block[i] for i in measured])
            residuals = area_residuals(h[l1s], h[l1s + 1], deltas, lam)
            for i, residual in zip(measured, residuals.tolist()):
                block[i] = (block[i], residual)
        rows += block
    return rows


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
