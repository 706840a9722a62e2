"""Numerics for the unitary group U(n) and its Lie algebra u(n).

Unitary and skew-Hermitian matrices are normal, so exp and log are spectral:
exp diagonalizes the Hermitian matrix -iX, and the principal log
diagonalizes the Cayley transform i(I - U)(I + U)^-1, which is Hermitian
and shares U's eigenvectors (Higham, Functions of Matrices, 2008, ch. 11).
Both kernels are batched over leading axes and use numpy only: closed
forms at n = 2, numpy's eigh and solve (_kernels) at every other n.  The
log raises BranchCutError instead of picking a branch when an eigenvalue
lies within DEFAULT_POLICY.eps_branch of -1.  Dimensions stay small (n <= 8).
"""

from __future__ import annotations

import numpy as np

from .policy import DEFAULT_POLICY


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


def require_unitary(values: np.ndarray, what: str) -> None:
    """Raise ValueError unless ||U U* - I||_F <= DEFAULT_POLICY.unitary_tol
    for every matrix U of a stack (leading axes are batch axes).  Fails
    closed: a NaN residual is rejected, and non-finite entries raise no
    numpy warning."""
    eye = np.eye(values.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.linalg.norm(values @ values.conj().swapaxes(-1, -2) - eye, axis=(-2, -1))
    worst = np.max(residual)
    if not worst <= DEFAULT_POLICY.unitary_tol:
        raise ValueError(f"{what} is not unitary: worst ||U U* - I|| = {worst:.3e}")


class SkewHermitian:
    """An element of u(n): X + X* = 0 (validated at construction)."""

    __slots__ = ("mat",)

    def __init__(self, entries):
        mat = _as_complex_matrix(entries)
        with np.errstate(invalid="ignore", over="ignore"):
            residual = np.linalg.norm(mat + mat.conj().T)
        if not residual <= DEFAULT_POLICY.skew_tol:
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

    def __init__(self, entries):
        mat = _as_complex_matrix(entries)
        require_unitary(mat, "matrix")
        if not abs(abs(np.linalg.det(mat)) - 1.0) <= DEFAULT_POLICY.unitary_tol:
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

# Largest n whose products matmul_raw forms in real form.  numpy multiplies
# a stack of complex matrices with one BLAS call per matrix, and a stack of
# real ones in one pass, so the real form wins while the 2n x 2n blocks
# stay small.  1 024 stacked products, a @ b against the real form with
# its blocks built in the same call, best of 41 (2-vCPU host, numpy 2.4.6,
# scipy-openblas 0.3.31, one BLAS thread): n = 4 278 -> 122 us, n = 5
# 409 -> 265 us, n = 6 507 -> 349 us, n = 7 581 -> 486 us, n = 8 688 ->
# 600 us (527 -> 529 us in a second run), n = 10 625 -> 839 us.
_REAL_FORM_MAX_N = 7


def real_form(b: np.ndarray) -> np.ndarray:
    """The right factor as matmul_raw multiplies by it.  For 1 < n <=
    _REAL_FORM_MAX_N, the (..., 2n, 2n) real array whose 2 x 2 block (k, j)
    is [[Re b_kj, Im b_kj], [-Im b_kj, Re b_kj]]; else b itself.  A factor
    that many products share (a step table) is formed once."""
    n = b.shape[-1]
    if not 1 < n <= _REAL_FORM_MAX_N:
        return b
    rows = np.empty((*b.shape[:-1], 2, n), dtype=np.complex128)
    rows[..., 0, :] = b
    # i b_kj = -Im b_kj + i Re b_kj
    np.multiply(b, 1j, out=rows[..., 1, :])
    return rows.view(np.float64).reshape(*b.shape[:-2], 2 * n, 2 * n)


def matmul_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of complex n x n matrices (leading axes broadcast),
    b given as it is or as its real_form.  In real form, a's interleaved
    (re, im) float view times b's blocks is one real batched matmul whose
    float result is the complex product's view.  n = 1 and n >
    _REAL_FORM_MAX_N take numpy's complex product, so n = 1 results are
    those of a @ b byte for byte."""
    if b.dtype == np.complex128:
        b = real_form(b)
    if b.dtype == np.complex128:
        return a @ b
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return (a.view(np.float64) @ b).view(np.complex128)


# The n whose eigh and solve take closed forms over the whole stack, where
# LAPACK takes one matrix at a time.  2 048 matrices, 2-vCPU host, one BLAS
# thread: eigh 2.4 -> 0.27 ms, solve 1.0 -> 0.39 ms.
_CLOSED_FORM_N = 2


def _kernels(n: int):  # eigh and solve for stacks of n x n matrices
    return (_eigh2, _solve2) if n == _CLOSED_FORM_N else (np.linalg.eigh, np.linalg.solve)


def _eigh2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of 2 x 2 Hermitian h = [[a, conj b], [b, d]]: values
    (a + d) / 2 -+ r, r = hypot((a - d) / 2, |b|), vectors formed from
    t = |a - d| / 2 + r, which cancels nothing (LAPACK's zlaev2)."""
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    half, size = (a - d) / 2, np.abs(b)
    r = np.hypot(half, size)
    t = np.where(r == 0, 1.0, np.abs(half) + r)
    # columns (-conj b, t), (t, b) if a > d, else (t, -b), (conj b, t): V = I if h is scalar
    right, up = half > 0, b.conj()
    v = np.stack((np.where(right, -up, t), np.where(right, t, up), np.where(right, t, -b), np.where(right, b, t)), -1)
    v = v.reshape(h.shape) / np.hypot(t, size)[..., None, None]
    return np.stack(((a + d) / 2 - r, (a + d) / 2 + r), -1), v


def _solve2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of 2 x 2 arrays, as adj(a) b / det(a)."""
    adj = np.stack((a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0]), -1).reshape(a.shape)
    with np.errstate(all="ignore"):
        x = matmul_raw(adj, b) / (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])[..., None, None]
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def expm_raw(x: np.ndarray) -> np.ndarray:
    """exp of skew-Hermitian arrays, batched over leading axes."""
    w, v = _kernels(x.shape[-1])[0](-1j * x)
    phase = np.exp(1j * w)
    return matmul_raw(v * phase[..., None, :], v.conj().swapaxes(-1, -2))


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
    (eigh, solve), eye = _kernels(u.shape[-1]), np.eye(u.shape[-1])
    try:
        c = 1j * solve(eye + rotated, eye - rotated)
        _, v = eigh((c + c.conj().swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError:
        raise BranchCutError("eigenvalue -1: I + U is singular") from None
    theta = np.angle(np.sum(v.conj() * matmul_raw(u, v), axis=-2))
    return v, theta


def logm_raw(u: np.ndarray, eig: bool = False):
    """Principal log X of unitary arrays, batched over leading axes; with
    eig, (X, V, theta) for X = V diag(i theta) V*, V orthonormal
    eigenvectors of U and theta its phases in (-pi, pi).

    One batched solve forms the Cayley transform C = i(I - U)(I + U)^-1,
    whose eigenvalues tan(theta/2) are real; one batched eigh of its
    Hermitian part gives an orthonormal eigenbasis of U even for degenerate
    spectra, and each phase theta is read from the Rayleigh quotient v* U v.
    The eigenbasis is only as accurate as eps * ||C||, so matrices with a
    phase beyond _CAYLEY_MAX_PHASE are transformed again after rotating
    their spectrum by a scalar phase that puts -1 in the middle of its
    widest gap, which bounds ||C|| by cot(pi / 2n).

    X is within a few eps * kappa of the exact log, kappa the largest
    |log a - log b| / |a - b| over eigenvalues a, b (1 if a = b):
    (pi - d) / sin(d) for phases +-(pi - d), where no double-precision log
    does better.  exp of X still gives back u to a few eps.

    Raises ValueError on non-finite input, and BranchCutError when any
    phase of any matrix satisfies pi - |theta| < DEFAULT_POLICY.eps_branch
    (1e-8), including an exact eigenvalue -1.
    """
    if not np.all(np.isfinite(u)):
        raise ValueError("unitary input has non-finite entries")
    v, theta = _cayley_eigh(u, u)
    far = np.max(np.abs(theta), axis=-1) > _CAYLEY_MAX_PHASE
    if np.any(far):
        s = np.sort(theta[far], axis=-1)
        gaps = np.diff(np.concatenate([s, s[..., :1] + 2 * np.pi], axis=-1), axis=-1)
        widest = np.argmax(gaps, axis=-1)[..., None]
        shift = np.take_along_axis(s + gaps / 2, widest, axis=-1) - np.pi
        u_far = u[far]
        v[far], theta[far] = _cayley_eigh(u_far, np.exp(-1j * shift)[..., None] * u_far)
    if not np.all(np.pi - np.abs(theta) >= DEFAULT_POLICY.eps_branch):
        raise BranchCutError("eigenvalue within eps_branch of -1")
    x = matmul_raw(v * (1j * theta)[..., None, :], v.conj().swapaxes(-1, -2))
    x = (x - x.conj().swapaxes(-1, -2)) / 2.0
    return (x, v, theta) if eig else x


# ---------------------------------------------------------------------------
# public operations

def expm(x: SkewHermitian) -> Unitary:
    """Matrix exponential u(n) -> U(n); exact on diagonal input."""
    return Unitary(expm_raw(x.mat))


def logm_principal(u: Unitary) -> SkewHermitian:
    """Inverse of expm with all eigenvalue arguments in (-pi, pi).

    Raises BranchCutError when an eigenvalue lies within
    DEFAULT_POLICY.eps_branch (1e-8) of -1, instead of silently picking a
    branch.
    """
    return SkewHermitian(logm_raw(u.mat))


def inner(x: SkewHermitian, y: SkewHermitian) -> float:
    """Invariant inner product tr(X Y*) on u(n); real for skew-Hermitian input."""
    if x.n != y.n:
        raise DimensionMismatchError(f"dimension mismatch: {x.n} vs {y.n}")
    value = np.trace(x.mat @ y.mat.conj().T)
    if abs(value.imag) > DEFAULT_POLICY.inner_imag_tol * max(1.0, abs(value.real)):
        raise ValueError(f"inner product has imaginary leakage {value.imag:.3e}")
    return float(value.real)


def commutant_dimension(mats: list[Unitary]) -> int:
    """Real dimension of {X in u(n) : X M = M X for all M}.

    The commutant of a set of unitaries is a *-subalgebra, so its
    skew-Hermitian part has real dimension equal to the complex nullity of
    the stacked commutator system; that nullity is counted by singular
    values below DEFAULT_POLICY.commutant_svd_tol.  Value 1 certifies
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
    return int(np.sum(sigma <= DEFAULT_POLICY.commutant_svd_tol))


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

