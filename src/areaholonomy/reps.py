"""Homomorphisms from the area-quotient group into U(n).

A representation stores images A_i, B_i of the surface-group generators
plus the curvature generator Lambda of the central one-parameter subgroup;
validity means the relator product equals exp(Lambda) and Lambda commutes
with every generator image.  Genus 0 has no generators: the data is just
Lambda with integer spectrum / 2 pi i, and the classification by weight
vectors is exact integer combinatorics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .liecore import (
    SkewHermitian,
    Unitary,
    commutant_dimension,
    expm,
    expm_raw,
    inner,
)
from .policy import DEFAULT_POLICY
from .surfaces import json_int, required_keys

if TYPE_CHECKING:
    from .words import GammaRElement


class InvalidRepError(ValueError):
    """The representation violates the relator or centrality constraint."""


class RepDiagnostics(NamedTuple):
    relator_residual: float
    centrality_residual: float
    ok: bool


@dataclass(frozen=True)
class WeightVector:
    """Weakly decreasing integer tuple: winding weights of U(1) -> U(n).
    Entries follow surfaces.json_int: a fraction or a boolean raises."""

    k: tuple[int, ...]

    def __post_init__(self):
        k = tuple(json_int(v, "weight vector: an entry") for v in self.k)
        if any(k[i] < k[i + 1] for i in range(len(k) - 1)):
            raise ValueError("weight vector entries must be weakly decreasing")
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return len(self.k)


class YangMillsRep:
    """Generator images plus the central curvature generator Lambda.

    Construction checks shapes and entrywise invariants only; the value
    constraints (relator, centrality, genus-0 quantization) are computed by
    validate_rep, anew on every call that needs them.
    """

    __slots__ = ("genus", "n", "A", "B", "Lambda")

    def __init__(
        self,
        genus: int,
        n: int,
        A: Sequence[Unitary],
        B: Sequence[Unitary],
        Lambda: SkewHermitian,
    ):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if len(A) != genus or len(B) != genus:
            raise InvalidRepError(f"need {genus} images per generator family")
        if Lambda.n != n or any(m.n != n for m in A) or any(m.n != n for m in B):
            raise InvalidRepError("matrix dimensions do not match n")
        self.genus = genus
        self.n = n
        self.A = tuple(A)
        self.B = tuple(B)
        self.Lambda = Lambda

    def __repr__(self) -> str:
        return f"YangMillsRep(genus={self.genus}, n={self.n})"


def _word_image(rep: YangMillsRep, letters) -> np.ndarray:
    """Product of the generator images of a letter sequence, in order."""
    out = np.eye(rep.n, dtype=np.complex128)
    for letter in letters:
        idx = abs(letter)
        mat = rep.A[idx - 1].mat if idx <= rep.genus else rep.B[idx - rep.genus - 1].mat
        if letter < 0:
            mat = mat.conj().T
        out = out @ mat
    return out


def relator_image(rep: YangMillsRep) -> np.ndarray:
    """Product of commutators [A_i, B_i] in generator order: the image of
    words.relator_letters, multiplied left to right as _word_image does."""
    out = np.eye(rep.n, dtype=np.complex128)
    for a, b in zip(rep.A, rep.B):
        out = out @ a.mat @ b.mat @ a.mat.conj().T @ b.mat.conj().T
    return out


def validate_rep(rep: YangMillsRep) -> RepDiagnostics:
    """Residuals of the two defining constraints.

    relator_residual is ||prod [A_i, B_i] - exp(Lambda)||_F; for genus 0 it
    also enforces integer quantization of the Lambda spectrum (exp(Lambda)
    must be the identity), reported as the larger of the two violations.
    """
    target = expm_raw(rep.Lambda.mat)
    relator_res = float(np.linalg.norm(relator_image(rep) - target))
    if rep.genus == 0:
        phases = np.linalg.eigvalsh(-1j * rep.Lambda.mat) / (2 * np.pi)
        quant = float(np.max(np.abs(phases - np.round(phases)))) if len(phases) else 0.0
        relator_res = max(relator_res, quant)
    cent = 0.0
    for m in rep.A + rep.B:
        cent = max(cent, float(np.linalg.norm(rep.Lambda.mat @ m.mat - m.mat @ rep.Lambda.mat)))
    tol = DEFAULT_POLICY.rep_tol
    return RepDiagnostics(relator_res, cent, relator_res <= tol and cent <= tol)


def _require_valid(rep: YangMillsRep) -> None:
    diag = validate_rep(rep)
    if not diag.ok:
        raise InvalidRepError(
            f"invalid representation: relator residual {diag.relator_residual:.3e}, "
            f"centrality residual {diag.centrality_residual:.3e}"
        )


def evaluate(rep: YangMillsRep, x: GammaRElement) -> Unitary:
    """Apply the holonomy homomorphism to a group element.

    Returns the word image times exp(t Lambda); independence of the word
    representative follows from the validated constraints.
    """
    _require_valid(rep)
    if x.genus != rep.genus:
        from .words import GenusMismatchError

        raise GenusMismatchError(f"element genus {x.genus} does not match rep genus {rep.genus}")
    return Unitary(_word_image(rep, x.word.letters) @ expm_raw(x.t * rep.Lambda.mat))


def irreducible(rep: YangMillsRep) -> bool:
    """True iff only scalars commute with the image of the representation.

    The probe set is the generator images together with the midpoint
    exp(Lambda / 2) of the central one-parameter subgroup.  For an
    irreducible representation Lambda is then forced to be a scalar
    i*lambda*I; this is checked defensively.
    """
    _require_valid(rep)
    mats = list(rep.A + rep.B) + [expm(SkewHermitian(0.5 * rep.Lambda.mat))]
    if commutant_dimension(mats) != 1:
        return False
    scalar = np.trace(rep.Lambda.mat) / rep.n
    if np.linalg.norm(rep.Lambda.mat - scalar * np.eye(rep.n)) > DEFAULT_POLICY.rep_tol:
        raise AssertionError("irreducible rep with non-scalar Lambda (constraint violation)")
    return True


def ym_action_value(rep: YangMillsRep) -> float:
    """Yang-Mills action of the constant-curvature connection: ||Lambda||^2.

    The curvature density is constant and the total area is normalized to
    1, so the action integral collapses to the inner product of Lambda with
    itself.
    """
    _require_valid(rep)
    return inner(rep.Lambda, rep.Lambda)


def enumerate_sphere_classes(n: int, kmax: int) -> list[WeightVector]:
    """All weight vectors with entries in [-kmax, kmax], lex descending.

    The count is the multiset number C(n + 2 kmax, n); together with the
    integer action values this exhibits the discreteness of the genus-0
    classification.
    """
    if n < 1 or kmax < 0:
        raise ValueError("need n >= 1 and kmax >= 0")
    values = range(kmax, -kmax - 1, -1)
    out = [WeightVector(k) for k in itertools.combinations_with_replacement(values, n)]
    assert len(out) == math.comb(n + 2 * kmax, n)
    return out


def sphere_rep(k: WeightVector | Sequence[int]) -> YangMillsRep:
    """Genus-0 representation of a weight vector: Lambda = 2 pi i diag(k).

    Evaluation traces the closed geodesic t -> diag(exp(2 pi i k_j t)),
    returning to the identity at t = 1.
    """
    if not isinstance(k, WeightVector):
        k = WeightVector(tuple(k))
    lam = SkewHermitian(2j * np.pi * np.diag(np.array(k.k, dtype=np.float64)))
    return YangMillsRep(0, k.n, [], [], lam)


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    out = np.zeros((n + y.shape[0],) * 2, dtype=np.complex128)
    out[:n, :n] = x
    out[n:, n:] = y
    return out


def direct_sum(r1: YangMillsRep, r2: YangMillsRep) -> YangMillsRep:
    """Block-diagonal combination; the action values add."""
    if r1.genus != r2.genus:
        from .words import GenusMismatchError

        raise GenusMismatchError("direct sum needs matching genus")
    a = [Unitary(_block_diag(x.mat, y.mat)) for x, y in zip(r1.A, r2.A)]
    b = [Unitary(_block_diag(x.mat, y.mat)) for x, y in zip(r1.B, r2.B)]
    lam = SkewHermitian(_block_diag(r1.Lambda.mat, r2.Lambda.mat))
    return YangMillsRep(r1.genus, r1.n + r2.n, a, b, lam)


# ---------------------------------------------------------------------------
# JSON

def matrix_to_json(mat: np.ndarray) -> dict:
    """Matrix JSON encoding used across the repo: n plus real/imag row-major arrays."""
    m = np.asarray(mat, dtype=np.complex128)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """One matrix in matrix_to_json's form, read as fields reads the edges
    of a field file."""
    from .fields import _matrices_from_json

    (n,) = required_keys(obj, "matrix", "n")
    return _matrices_from_json([obj], json_int(n, "matrix: n"))[0]

