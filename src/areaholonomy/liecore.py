"""Numerics for the unitary group U(n) and its Lie algebra u(n).

Unitary and skew-Hermitian matrices are normal, so exp and log are spectral:
exp diagonalizes the Hermitian matrix -iX, and the principal log
diagonalizes the Cayley transform i(I - U)(I + U)^-1, which is Hermitian
and shares U's eigenvectors (Higham, Functions of Matrices, 2008, ch. 11).
Both kernels are batched over leading axes, use numpy only and take one
code path for every n, U(1) included.  The log raises BranchCutError
instead of picking a branch when an eigenvalue lies within eps_branch of
-1.  Dimensions stay small (n <= 8).
"""

from __future__ import annotations

import numpy as np

from .policy import DEFAULT_POLICY, NumericPolicy
from .surfaces import required_keys


class DimensionMismatchError(ValueError):
    """Operands have incompatible matrix dimensions."""


class BranchCutError(ArithmeticError):
    """An eigenvalue sits too close to -1 for a principal logarithm.

    For plaquette logs this means the loop is too large for a well-defined
    curvature; refine the mesh or reduce the flux.
    """


def _as_complex_matrix(entries) -> np.ndarray:
    mat = np.array(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def require_unitary(values: np.ndarray, tol: float, what: str) -> None:
    """Raise ValueError unless ||U U* - I||_F <= tol for every matrix U of
    a stack (leading axes are batch axes).  Fails closed: a NaN residual
    is rejected, and non-finite entries raise no numpy warning."""
    eye = np.eye(values.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.linalg.norm(values @ values.conj().swapaxes(-1, -2) - eye, axis=(-2, -1))
    worst = np.max(residual)
    if not worst <= tol:
        raise ValueError(f"{what} is not unitary: worst ||U U* - I|| = {worst:.3e}")


class SkewHermitian:
    """An element of u(n): X + X* = 0 (validated at construction)."""

    __slots__ = ("mat",)

    def __init__(self, entries, *, policy: NumericPolicy = DEFAULT_POLICY):
        mat = _as_complex_matrix(entries)
        with np.errstate(invalid="ignore", over="ignore"):
            residual = np.linalg.norm(mat + mat.conj().T)
        if not residual <= policy.skew_tol:
            raise ValueError(f"matrix is not skew-Hermitian: ||X + X*|| = {residual:.3e}")
        mat.setflags(write=False)
        self.mat = mat

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"SkewHermitian(n={self.n})"


class Unitary:
    """An element of U(n): U U* = I and |det U| = 1 (validated)."""

    __slots__ = ("mat",)

    def __init__(self, entries, *, policy: NumericPolicy = DEFAULT_POLICY):
        mat = _as_complex_matrix(entries)
        require_unitary(mat, policy.unitary_tol, "matrix")
        if not abs(abs(np.linalg.det(mat)) - 1.0) <= policy.unitary_tol:
            raise ValueError("matrix determinant does not have modulus 1")
        mat.setflags(write=False)
        self.mat = mat

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"Unitary(n={self.n})"


# ---------------------------------------------------------------------------
# raw-array kernels (shared with the lattice hot path; no wrapper overhead)

def expm_raw(x: np.ndarray) -> np.ndarray:
    """exp of skew-Hermitian arrays, batched over leading axes."""
    herm = -1j * x
    w, v = np.linalg.eigh(herm)
    phase = np.exp(1j * w)
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


def haar_unitary_raw(rng: np.random.Generator, batch: tuple[int, ...], n: int) -> np.ndarray:
    """Haar-distributed unitaries of shape batch + (n, n): QR of complex
    Gaussian matrices, with the phases of R's diagonal moved into Q
    (Mezzadri, Notices AMS 54, 2007)."""
    shape = (*batch, n, n)
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


# Largest phase logm_raw accepts from its first pass: ||C|| <= tan(3 pi / 8) ~ 2.4.
_CAYLEY_MAX_PHASE = 0.75 * np.pi


def _cayley_eigh(u: np.ndarray, rotated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the Cayley transform of `rotated` (a scalar phase
    times u), and the phases of u read from its Rayleigh quotients."""
    eye = np.eye(u.shape[-1])
    try:
        c = 1j * np.linalg.solve(eye + rotated, eye - rotated)
    except np.linalg.LinAlgError:
        raise BranchCutError("eigenvalue -1: I + U is singular") from None
    _, v = np.linalg.eigh((c + c.conj().swapaxes(-1, -2)) / 2.0)
    theta = np.angle(np.sum(v.conj() * (u @ v), axis=-2))
    return v, theta


def logm_raw(u: np.ndarray, *, eps_branch: float = DEFAULT_POLICY.eps_branch) -> np.ndarray:
    """Principal log of unitary arrays, batched over leading axes.

    One batched solve forms the Cayley transform C = i(I - U)(I + U)^-1,
    whose eigenvalues tan(theta/2) are real; one batched eigh of its
    Hermitian part gives an orthonormal eigenbasis of U even for degenerate
    spectra, and each phase theta is read from the Rayleigh quotient v* U v.
    The eigenbasis is only as accurate as eps * ||C||, so matrices with a
    phase beyond _CAYLEY_MAX_PHASE are transformed again after rotating
    their spectrum by a scalar phase that puts -1 in the middle of its
    widest gap, which bounds ||C|| by cot(pi / 2n).

    Raises BranchCutError when any phase of any matrix satisfies
    pi - |theta| < eps_branch, including an exact eigenvalue -1, and
    ValueError on non-finite input.
    """
    v, theta = _cayley_eigh(u, u)
    if not np.all(np.isfinite(theta)):
        raise ValueError("unitary input has non-finite entries")
    far = np.max(np.abs(theta), axis=-1) > _CAYLEY_MAX_PHASE
    if np.any(far):
        s = np.sort(theta[far], axis=-1)
        gaps = np.diff(np.concatenate([s, s[..., :1] + 2 * np.pi], axis=-1), axis=-1)
        widest = np.argmax(gaps, axis=-1)[..., None]
        shift = np.take_along_axis(s + gaps / 2, widest, axis=-1) - np.pi
        u_far = u[far]
        v[far], theta[far] = _cayley_eigh(u_far, np.exp(-1j * shift)[..., None] * u_far)
    if np.min(np.pi - np.abs(theta)) < eps_branch:
        raise BranchCutError("eigenvalue within eps_branch of -1")
    x = (v * (1j * theta)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (x - x.conj().swapaxes(-1, -2)) / 2.0


# ---------------------------------------------------------------------------
# public operations

def expm(x: SkewHermitian) -> Unitary:
    """Matrix exponential u(n) -> U(n); exact on diagonal input."""
    return Unitary(expm_raw(x.mat))


def logm_principal(u: Unitary, *, policy: NumericPolicy = DEFAULT_POLICY) -> SkewHermitian:
    """Inverse of expm with all eigenvalue arguments in (-pi, pi).

    Raises BranchCutError when an eigenvalue lies within policy.eps_branch
    of -1, instead of silently picking a branch.
    """
    return SkewHermitian(logm_raw(u.mat, eps_branch=policy.eps_branch))


def inner(x: SkewHermitian, y: SkewHermitian, *, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Invariant inner product tr(X Y*) on u(n); real for skew-Hermitian input."""
    if x.n != y.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.n} vs {y.n}")
    value = np.trace(x.mat @ y.mat.conj().T)
    if abs(value.imag) > policy.inner_imag_tol * max(1.0, abs(value.real)):
        raise ValueError(f"inner product has imaginary leakage {value.imag:.3e}")
    return float(value.real)


def commutant_dimension(mats: list[Unitary], *, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Real dimension of {X in u(n) : X M = M X for all M}.

    The commutant of a set of unitaries is a *-subalgebra, so its
    skew-Hermitian part has real dimension equal to the complex nullity of
    the stacked commutator system; that nullity is counted by singular
    values below policy.commutant_svd_tol.  Value 1 certifies
    irreducibility (only scalars commute).
    """
    if not mats:
        raise ValueError("commutant_dimension needs a nonempty list")
    n = mats[0].n
    eye = np.eye(n)
    rows = []
    for m in mats:
        if m.n != n:
            raise DimensionMismatchError("matrices have mixed dimensions")
        # vec(XM - MX) = (M^T kron I - I kron M) vec(X)
        rows.append(np.kron(m.mat.T, eye) - np.kron(eye, m.mat))
    system = np.vstack(rows)
    # system has >= n^2 rows, so svd returns all n^2 singular values
    sigma = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(sigma <= policy.commutant_svd_tol))


def conjugacy_residual(u: Unitary, v: Unitary) -> float:
    """Max angular gap between the sorted eigenphase multisets of U and V.

    Phases are taken in (-pi, pi], sorted ascending, and compared entrywise
    on the circle; the comparison is minimized over cyclic shifts so that a
    spectrum straddling the -1 branch point does not produce a spurious gap.
    Zero (up to roundoff) iff U and V are conjugate in U(n).
    """
    if u.n != v.n:
        raise DimensionMismatchError(f"dimension mismatch: {u.n} vs {v.n}")
    a = np.sort(np.angle(np.linalg.eigvals(u.mat)))
    b = np.sort(np.angle(np.linalg.eigvals(v.mat)))
    n = len(a)
    best = np.inf
    for shift in range(n):
        rolled = np.concatenate([b[shift:], b[:shift] + 2 * np.pi])
        gap = np.abs(a - rolled)
        gap = np.minimum(gap, 2 * np.pi - gap)
        best = min(best, float(np.max(gap)))
    return best


# ---------------------------------------------------------------------------
# helpers

def random_skew_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> SkewHermitian:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return SkewHermitian(scale * (a - a.conj().T) / 2.0)


def random_unitary(rng: np.random.Generator, n: int) -> Unitary:
    """One Haar-distributed element of U(n)."""
    return Unitary(haar_unitary_raw(rng, (), n))


def matrix_to_json(mat: np.ndarray) -> dict:
    """Matrix JSON encoding used across the repo: n plus real/imag row-major arrays."""
    m = np.asarray(mat, dtype=np.complex128)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    n, re, im = required_keys(obj, "matrix", "n", "re", "im")
    n = int(n)
    mat = np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)
    if mat.shape != (n, n):
        raise ValueError(f"matrix JSON claims n={n} but arrays have shape {mat.shape}")
    return mat
