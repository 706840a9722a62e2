"""Unitary/skew-Hermitian numerics: exp, principal log, inner product,
commutant dimension, conjugacy comparison."""

import inspect
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import areaholonomy as ah
from areaholonomy import (
    BranchCutError,
    DimensionMismatchError,
    SkewHermitian,
    Unitary,
    commutant_dimension,
    conjugacy_residual,
    expm,
    inner,
    logm_principal,
)
from areaholonomy.lattice import _Engine
from areaholonomy.liecore import _REAL_FORM_MAX_N, _eigh2, expm_raw, logm_raw, matmul_raw, real_form
from conftest import random_skew_hermitian

EPS_BRANCH = ah.DEFAULT_POLICY.eps_branch


def expm_series(x: np.ndarray, terms: int = 30) -> np.ndarray:
    """Independent oracle: truncated power series."""
    out = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    return out


class TestExpm:
    def test_zero_gives_identity(self):
        assert np.array_equal(expm(SkewHermitian(np.zeros((2, 2)))).mat, np.eye(2))

    def test_euler_identity(self):
        u = expm(SkewHermitian([[1j * np.pi]]))
        assert abs(u.mat[0, 0] + 1.0) < 1e-15

    def test_inverse_pairing(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = random_skew_hermitian(rng, 3)
            prod = expm(x).mat @ expm(SkewHermitian(-x.mat)).mat
            assert np.linalg.norm(prod - np.eye(3)) < 1e-10

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = random_skew_hermitian(rng, 3, scale=0.5)
            assert np.linalg.norm(expm(x).mat - expm_series(x.mat)) < 1e-12

    def test_unitarity_up_to_large_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = random_skew_hermitian(rng, 4)
            x = SkewHermitian(x.mat * (10.0 / np.linalg.norm(x.mat)))
            u = expm(x).mat
            assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-10

    def test_exact_on_diagonal(self):
        x = SkewHermitian(np.diag([0.7j, -0.2j, 1.3j]))
        expected = np.diag(np.exp(np.array([0.7j, -0.2j, 1.3j])))
        assert np.array_equal(expm(x).mat, expected)


class TestLogm:
    def test_identity_gives_zero(self):
        assert np.linalg.norm(logm_principal(Unitary(np.eye(3))).mat) == 0.0

    def test_diagonal_case(self):
        x = logm_principal(Unitary([[np.exp(1j * np.pi / 2)]]))
        assert abs(x.mat[0, 0] - 1j * np.pi / 2) < 1e-15

    def test_roundtrip_small_spectral_radius(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = random_skew_hermitian(rng, 3)
            radius = np.max(np.abs(np.linalg.eigvalsh(-1j * x.mat)))
            x = SkewHermitian(x.mat * (0.45 * np.pi / radius))
            back = logm_principal(expm(x))
            assert np.linalg.norm(back.mat - x.mat) < 1e-10

    def test_roundtrip_full_band(self):
        # eigenvalue arguments anywhere in (-pi + 0.01, pi - 0.01)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = ah.random_unitary(rng, 4).mat
            phases = rng.uniform(-np.pi + 0.01, np.pi - 0.01, size=4)
            x = SkewHermitian(v @ np.diag(1j * phases) @ v.conj().T)
            assert np.linalg.norm(logm_principal(expm(x)).mat - x.mat) < 1e-9

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCutError):
            logm_principal(Unitary(np.diag([-1.0 + 0j, 1.0])))

    def test_branch_cut_near_minus_one(self):
        u = Unitary([[np.exp(1j * (np.pi - 1e-9))]])
        with pytest.raises(BranchCutError):
            logm_principal(u)


def schur_logm(u: np.ndarray) -> np.ndarray:
    """Independent oracle: principal log of one unitary from its complex
    Schur form, which is diagonal because unitaries are normal."""
    t, q = scipy.linalg.schur(u, output="complex")
    x = (q * (1j * np.angle(np.diagonal(t)))[None, :]) @ q.conj().T
    return (x - x.conj().T) / 2.0


def with_phases(seed: int, phases) -> np.ndarray:
    """W diag(exp(i phases)) W* for a random unitary W."""
    w = ah.random_unitary(np.random.default_rng(seed), len(phases)).mat
    return (w * np.exp(1j * np.asarray(phases))[None, :]) @ w.conj().T


def oracle_bound(u: np.ndarray) -> float:
    """How far logm_raw(u) may be from the oracle: max(1e-11, 16 eps kappa),
    with kappa the largest divided difference |log a - log b| / |a - b| of
    the principal log over u's eigenvalues a, b (1 where a = b).  Across
    the cut, at phases +-(pi - delta), kappa is (pi - delta) / sin(delta),
    and no double-precision log, the oracle included, is more accurate."""
    phases = np.angle(np.linalg.eigvals(u))
    # |a - b| = 2 |sin(d / 2)| for phases d apart
    kappa = 1.0 / np.min(np.sinc(np.subtract.outer(phases, phases) / (2 * np.pi)))
    return max(1e-11, 16 * np.finfo(np.float64).eps * kappa)


seeds = st.integers(0, 2**32 - 1)
# every phase the branch-cut rule accepts with room to spare
phases = st.floats(-(np.pi - 1e-6), np.pi - 1e-6)


@st.composite
def spectra(draw, n):
    """n phases, drawn as a few distinct values repeated: degenerate spectra."""
    distinct = draw(st.lists(phases, min_size=1, max_size=n))
    return [distinct[i % len(distinct)] for i in range(n)]


class TestBatchedLogm:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.lists(seeds, min_size=1, max_size=8), st.data())
    def test_matches_schur_oracle(self, n, batch_seeds, data):
        batch = np.stack([
            ah.random_unitary(np.random.default_rng(s), n).mat if s % 2
            else with_phases(s, data.draw(st.lists(phases, min_size=n, max_size=n)))
            for s in batch_seeds
        ])
        out = logm_raw(batch)
        for u, x in zip(batch, out):
            assert np.max(np.abs(x - schur_logm(u))) <= oracle_bound(u)

    def test_phases_straddling_the_cut(self):
        # kappa is about 3e6 here: the two logs differ by about 3e-10
        u = with_phases(0, [np.pi - 1e-6, -(np.pi - 1e-6)])
        assert np.max(np.abs(logm_raw(u) - schur_logm(u))) <= oracle_bound(u)
        assert np.linalg.norm(expm_raw(logm_raw(u)) - u) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), seeds, st.data())
    def test_exp_roundtrip_on_degenerate_spectra(self, n, seed, data):
        u = with_phases(seed, data.draw(spectra(n)))
        assert np.linalg.norm(expm_raw(logm_raw(u)) - u) <= 1e-12

    def test_leading_axes_are_batch_axes(self):
        rng = np.random.default_rng(15)
        batch = np.stack([ah.random_unitary(rng, 3).mat for _ in range(6)]).reshape(2, 3, 3, 3)
        out = logm_raw(batch)
        assert out.shape == batch.shape
        for u, x in zip(batch.reshape(6, 3, 3), out.reshape(6, 3, 3)):
            assert np.array_equal(x, logm_raw(u))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_phase_just_inside_branch_passes(self, n, sign):
        phase = sign * (np.pi - 2 * EPS_BRANCH)
        u = with_phases(16, [phase] + [0.4] * (n - 1))
        assert np.linalg.norm(expm_raw(logm_raw(u)) - u) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 7), seeds, st.sampled_from([1, -1]))
    def test_phase_on_branch_raises_alone_and_in_batch(self, n, position, seed, sign):
        bad = with_phases(seed, [sign * (np.pi - EPS_BRANCH / 2)] + [0.3] * (n - 1))
        with pytest.raises(BranchCutError):
            logm_raw(bad)
        rng = np.random.default_rng(seed)
        batch = np.stack([with_phases(s, rng.uniform(-2, 2, n)) for s in range(8)])
        logm_raw(batch)  # benign on its own
        batch[position] = bad
        with pytest.raises(BranchCutError):
            logm_raw(batch)

    @pytest.mark.parametrize(
        "u",
        [
            np.diag([-1.0 + 0j, 1.0]),
            -np.eye(3, dtype=complex),
            with_phases(17, [np.pi, 0.2, -0.5]),
            np.stack([np.eye(2, dtype=complex), np.diag([1.0 + 0j, -1.0])]),
            np.diag([1.0 + 0j, complex(-1.0, 1e-310)]),
            np.diag([1.0 + 0j, 1.0, complex(-1.0, 1e-310)]),
        ],
        ids=["diagonal", "minus-identity", "conjugated", "in-batch", "subnormal-det-n2", "subnormal-det-n3"],
    )
    def test_exact_minus_one_raises(self, u):
        # det(I + U) of the last two cases is subnormal: the inverse
        # overflows, which must raise here, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BranchCutError):
                logm_raw(u)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_input_raises(self, n):
        # the input is checked before any arithmetic, so no numpy warning
        # comes first
        for bad in (np.nan, np.inf, -np.inf):
            for entry in (complex(bad, 0), complex(0, bad)):
                for matrix in (np.full((n, n), entry), np.where(np.eye(n, k=n - 1) > 0, entry, np.eye(n))):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(ValueError, match="non-finite"):
                            logm_raw(np.stack([np.eye(n, dtype=complex), matrix]))

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.lists(st.floats(2 * EPS_BRANCH, 1e-6), min_size=2, max_size=2), st.sampled_from([1, -1]), phases)
    def test_phases_near_the_cut(self, seed, deltas, sign, other):
        # n = 2: one phase within 1e-6 of +-pi, the other anywhere or
        # within 1e-6 of the cut on either side
        for second in (other, sign * (np.pi - deltas[1]), -sign * (np.pi - deltas[1])):
            u = with_phases(seed, [sign * (np.pi - deltas[0]), second])
            assert np.max(np.abs(logm_raw(u) - schur_logm(u))) <= oracle_bound(u)
            assert np.linalg.norm(expm_raw(logm_raw(u)) - u) <= 1e-12


@st.composite
def hermitian_stacks(draw):
    """Hermitian 2 x 2 matrices [[a, conj b], [b, d]] at one scale in 1e-3
    .. 1e3: random ones, scalar ones, diagonal ones (b = 0, a above or below
    d) and ones whose |b| is 1e-12 of |a - d|."""
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for kind in draw(st.lists(st.sampled_from(["random", "scalar", "diagonal", "tiny"]), min_size=1, max_size=16)):
        a, d, re, im = rng.normal(size=4)
        b = {"random": 1, "scalar": 0, "diagonal": 0, "tiny": 1e-12 * abs(a - d)}[kind] * complex(re, im)
        out.append([[a, b.conjugate()], [b, a if kind == "scalar" else d]])
    return scale * np.array(out)


def check_eigh(h):
    """_eigh2 against the exact eigenvalues and np.linalg.eigh, per matrix."""
    eps = np.finfo(np.float64).eps
    w, v = _eigh2(h)
    norm = np.linalg.norm(h, axis=(-2, -1))
    assert np.all(w[..., 0] <= w[..., 1])
    # the roots of the characteristic polynomial in extended precision
    a, d, b = (part.astype(np.longdouble) for part in (h[..., 0, 0].real, h[..., 1, 1].real, np.abs(h[..., 1, 0])))
    r = np.sqrt(((a - d) / 2) ** 2 + b * b)
    exact = np.stack(((a + d) / 2 - r, (a + d) / 2 + r), -1)
    assert np.all(np.abs(w - exact).astype(np.float64) <= 4 * eps * norm[..., None])
    # LAPACK's own eigenvalues are about 4.5 eps ||h|| from the exact ones
    assert np.all(np.abs(w - np.linalg.eigvalsh(h)) <= 8 * eps * norm[..., None])
    assert np.all(np.linalg.norm(h @ v - v * w[..., None, :], axis=(-2, -1)) <= 4 * eps * norm)
    assert np.all(np.linalg.norm(v.conj().swapaxes(-1, -2) @ v - np.eye(2), axis=(-2, -1)) <= 8 * eps)


class TestClosedForms:
    """The n = 2 eigendecomposition takes no LAPACK call; numpy's eigh and
    scipy's expm are the oracles."""

    @settings(max_examples=200, deadline=None)
    @given(hermitian_stacks())
    def test_eigh_matches_lapack(self, h):
        check_eigh(h)

    @pytest.mark.parametrize("h", [
        3 * np.eye(2), np.diag([1.0, 2.0]), np.diag([2.0, 1.0]),
        [[1.0, 1e-13], [1e-13, 3.0]], [[3.0, -1e-13j], [1e-13j, 1.0]],
    ], ids=["scalar", "a-below-d", "a-above-d", "tiny-b", "tiny-b-a-above-d"])
    def test_eigh_special_cases(self, h):
        check_eigh(np.array(h, dtype=complex))

    def test_eigh_on_scalar_face_logs(self):
        # a (1, 1) sphere field: every face log is scalar up to roundoff
        mesh = ah.build_sphere_mesh(2)
        field = ah.apply_gauge(
            ah.build_ym_field_from_rep(mesh, ah.sphere_rep([1, 1])),
            ah.random_gauge_transform(mesh, 2, np.random.default_rng(3)),
        )
        check_eigh(-1j * _Engine(mesh).logs(field.U).x)

    @settings(max_examples=100, deadline=None)
    @given(hermitian_stacks())
    def test_expm_matches_scipy(self, h):
        x = 1j * h
        error = np.max(np.abs(expm_raw(x) - scipy.linalg.expm(x)), axis=(-2, -1))
        assert np.all(error <= 8 * np.finfo(np.float64).eps * np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1))))


class TestAbelianKernels:
    """At n = 1 the general kernels reduce to the scalar formulas, which
    stay here as the oracle: log u = i angle(u) and exp(i y) = e^{i y}."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(phases, st.floats(1 - 1e-14, 1 + 1e-14)), min_size=1, max_size=64))
    def test_log_is_i_angle(self, polar):
        u = np.array([[[r * np.exp(1j * t)]] for t, r in polar])
        assert np.array_equal(logm_raw(u), 1j * np.angle(u))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
    def test_exp_is_scalar_exp(self, ys):
        x = 1j * np.array(ys)[:, None, None]
        assert np.array_equal(expm_raw(x), np.exp(1j * x.imag))


@st.composite
def product_operands(draw):
    """Complex stacks a, b of n x n matrices, n 1 .. one past the real-form
    range, with broadcast leading axes, and each operand now and then a
    conjugate transpose or a strided view rather than a contiguous array."""
    n = draw(st.integers(1, _REAL_FORM_MAX_N + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.sampled_from([((), ()), ((3,), (3,)), ((4, 1), (1, 2)), ((2, 3), (3,)), ((5,), ()), ((), (2,))]))
    operands = []
    for shape in lead:
        scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
        base = scale * (rng.normal(size=(*shape, 2 * n, n)) + 1j * rng.normal(size=(*shape, 2 * n, n)))
        view = draw(st.sampled_from(["contiguous", "adjoint", "strided"]))
        if view == "contiguous":
            operands.append(base[..., :n, :].copy())
        elif view == "adjoint":
            operands.append(base[..., :n, :].conj().swapaxes(-1, -2))
        else:
            operands.append(base[..., ::2, :])
    return operands


class TestMatmulRaw:
    @settings(max_examples=200, deadline=None)
    @given(product_operands())
    def test_matches_matmul(self, operands):
        a, b = operands
        n = a.shape[-1]
        want = a @ b
        got = matmul_raw(a, b)
        assert got.shape == want.shape and got.dtype == np.complex128
        if not 1 < n <= _REAL_FORM_MAX_N:
            # 1 x 1 and large stacks are numpy's own product
            assert got.tobytes() == want.tobytes()
        norms = np.linalg.norm(a, axis=(-2, -1))[..., None, None] * np.linalg.norm(b, axis=(-2, -1))[..., None, None]
        assert np.all(np.abs(got - want) <= 4 * n * np.finfo(float).eps * norms)
        # a right factor formed once multiplies as the factor itself does
        assert matmul_raw(a, real_form(b)).tobytes() == got.tobytes()

    def test_real_form_blocks(self):
        b = np.array([[1 + 2j, 3 - 4j], [5j, -6]])
        assert np.array_equal(real_form(b), [[1, 2, 3, -4], [-2, 1, 4, 3], [0, 5, -6, 0], [-5, 0, 0, -6]])
        one = b[:1, :1]
        assert real_form(one) is one


class TestInner:
    def test_trace_example(self):
        x = SkewHermitian(np.diag([1j, -1j]))
        assert inner(x, x) == pytest.approx(2.0, abs=1e-15)

    def test_zero(self):
        x = SkewHermitian(np.zeros((3, 3)))
        y = random_skew_hermitian(np.random.default_rng(6), 3)
        assert inner(x, y) == 0.0

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_skew_hermitian(rng, 3)
            y = random_skew_hermitian(rng, 3)
            w = ah.random_unitary(rng, 3).mat
            xc = SkewHermitian(w @ x.mat @ w.conj().T)
            yc = SkewHermitian(w @ y.mat @ w.conj().T)
            assert inner(xc, yc) == pytest.approx(inner(x, y), abs=1e-12)

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(8)
        x = random_skew_hermitian(rng, 3)
        y = random_skew_hermitian(rng, 3)
        z = random_skew_hermitian(rng, 3)
        assert inner(x, y) == pytest.approx(inner(y, x), abs=1e-12)
        combo = SkewHermitian(2.0 * x.mat + 3.0 * y.mat)
        assert inner(combo, z) == pytest.approx(2 * inner(x, z) + 3 * inner(y, z), abs=1e-10)
        assert inner(x, x) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(SkewHermitian(np.zeros((2, 2))), SkewHermitian(np.zeros((3, 3))))


def commutant_dimension_bruteforce(mats, tol=1e-9):
    """Independent oracle: real null space over an explicit u(n) basis."""
    n = mats[0].n
    basis = []
    for i in range(n):
        m = np.zeros((n, n), complex)
        m[i, i] = 1j
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), complex)
            m[i, j], m[j, i] = 1.0, -1.0
            basis.append(m)
            m = np.zeros((n, n), complex)
            m[i, j], m[j, i] = 1j, 1j
            basis.append(m)
    rows = []
    for mat in mats:
        for b in basis:
            comm = b @ mat.mat - mat.mat @ b
            rows.append(np.concatenate([comm.real.ravel(), comm.imag.ravel()]))
    system = np.array(rows).reshape(len(mats), len(basis), -1)
    system = np.concatenate([system[k].T for k in range(len(mats))])
    sigma = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(sigma <= tol))


class TestCommutant:
    def test_identity_gives_full_algebra(self):
        assert commutant_dimension([Unitary(np.eye(2))]) == 4

    def test_irreducible_pair(self):
        mats = [Unitary(np.diag([1.0 + 0j, -1.0])), Unitary([[0, 1], [-1, 0]])]
        assert commutant_dimension(mats) == 1
        assert commutant_dimension_bruteforce(mats) == 1

    def test_distinct_diagonal(self):
        mats = [Unitary(np.diag([np.exp(0.4j), np.exp(1.7j)]))]
        assert commutant_dimension(mats) == 2
        assert commutant_dimension_bruteforce(mats) == 2

    def test_matches_bruteforce_on_random_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mats = [ah.random_unitary(rng, 3) for _ in range(2)]
            assert commutant_dimension(mats) == commutant_dimension_bruteforce(mats)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(10)
        mats = [Unitary(np.diag([1.0 + 0j, -1.0])), Unitary([[0, 1], [-1, 0]])]
        w = ah.random_unitary(rng, 2).mat
        conj = [Unitary(w @ m.mat @ w.conj().T) for m in mats]
        assert commutant_dimension(mats) == commutant_dimension(conj)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            commutant_dimension([])


class TestConjugacyResidual:
    def test_equal(self):
        u = ah.random_unitary(np.random.default_rng(11), 3)
        assert conjugacy_residual(u, u) == 0.0

    def test_conjugation_gives_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = ah.random_unitary(rng, 4)
            w = ah.random_unitary(rng, 4).mat
            v = Unitary(w @ u.mat @ w.conj().T)
            assert conjugacy_residual(u, v) < 1e-10

    def test_quarter_turn_gap(self):
        u = Unitary(np.diag([1.0 + 0j, 1.0]))
        v = Unitary(np.diag([1j, 1.0]))
        assert conjugacy_residual(u, v) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_stable_at_minus_one(self):
        # spectra straddling the branch point must not produce a fake gap
        rng = np.random.default_rng(13)
        u = Unitary(np.diag([-1.0 + 0j, 1j]))
        w = ah.random_unitary(rng, 2).mat
        v = Unitary(w @ u.mat @ w.conj().T)
        assert conjugacy_residual(u, v) < 1e-10


class TestTypesAndJson:
    def test_skew_invariant_enforced(self):
        with pytest.raises(ValueError):
            SkewHermitian([[1.0, 0.0], [0.0, 1.0]])

    def test_unitary_invariant_enforced(self):
        with pytest.raises(ValueError):
            Unitary([[2.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a comparison with NaN is False, so each check must fail closed
        bad_matrices = [[[bad, 0.0], [0.0, 1.0]], np.full((2, 2), bad)]
        with np.errstate(invalid="ignore"):
            for entries in bad_matrices:
                with pytest.raises(ValueError):
                    Unitary(entries)
                with pytest.raises(ValueError):
                    SkewHermitian(1j * np.array(entries))

    def test_matrix_json_roundtrip(self):
        rng = np.random.default_rng(14)
        # signed zeros too, which forming re + 1j * im would lose
        for m in (ah.random_unitary(rng, 3).mat, np.array([[complex(-0.0, -0.0)]])):
            back = ah.matrix_from_json(ah.matrix_to_json(m))
            assert back.shape == m.shape and back.tobytes() == m.tobytes()

    def test_default_tolerances(self):
        loose = np.eye(2) + 1e-10 * np.array([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            Unitary(loose)
        ah.logm_principal(Unitary([[np.exp(1j * (np.pi - 1e-4))]]))

    def test_no_callable_takes_a_policy(self):
        # every check reads its tolerance from DEFAULT_POLICY and the line
        # search's steps are fixed, so no call can loosen or tune either
        candidates = [
            (f"{module.__name__}.{name}", value)
            for module in (ah, ah.liecore, ah.surfaces, ah.words, ah.reps, ah.lattice)
            for name, value in vars(module).items()
        ]
        candidates += [(f"_Engine.{name}", value) for name, value in vars(ah.lattice._Engine).items()]
        taking = []
        for name, value in candidates:
            # NumericPolicy is the record the tolerances live in
            if value is ah.NumericPolicy or not callable(value):
                continue
            if not getattr(value, "__module__", "").startswith("areaholonomy"):
                continue
            try:
                params = inspect.signature(value).parameters
            except (TypeError, ValueError):
                continue
            if {"policy", "step_policy", "eps_branch"} & set(params):
                taking.append(name)
        assert taking == []
        assert list(inspect.signature(ah.liecore.require_unitary).parameters) == ["values", "what"]
        assert not hasattr(ah, "StepPolicy")
