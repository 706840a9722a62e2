"""Unitary/skew-Hermitian numerics: exp, principal log, inner product,
commutant dimension, conjugacy comparison."""

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
from areaholonomy.liecore import expm_raw, logm_raw

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
            x = ah.random_skew_hermitian(rng, 3)
            prod = expm(x).mat @ expm(SkewHermitian(-x.mat)).mat
            assert np.linalg.norm(prod - np.eye(3)) < 1e-10

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = ah.random_skew_hermitian(rng, 3, scale=0.5)
            assert np.linalg.norm(expm(x).mat - expm_series(x.mat)) < 1e-12

    def test_unitarity_up_to_large_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = ah.random_skew_hermitian(rng, 4)
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
            x = ah.random_skew_hermitian(rng, 3)
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
            assert np.max(np.abs(x - schur_logm(u))) <= 1e-11

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
        ],
        ids=["diagonal", "minus-identity", "conjugated", "in-batch"],
    )
    def test_exact_minus_one_raises(self, u):
        with pytest.raises(BranchCutError):
            logm_raw(u)

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_input_raises(self, n):
        batch = np.stack([np.eye(n, dtype=complex), np.full((n, n), np.nan + 0j)])
        with pytest.raises(ValueError):
            logm_raw(batch)


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


class TestInner:
    def test_trace_example(self):
        x = SkewHermitian(np.diag([1j, -1j]))
        assert inner(x, x) == pytest.approx(2.0, abs=1e-15)

    def test_zero(self):
        x = SkewHermitian(np.zeros((3, 3)))
        y = ah.random_skew_hermitian(np.random.default_rng(6), 3)
        assert inner(x, y) == 0.0

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = ah.random_skew_hermitian(rng, 3)
            y = ah.random_skew_hermitian(rng, 3)
            w = ah.random_unitary(rng, 3).mat
            xc = SkewHermitian(w @ x.mat @ w.conj().T)
            yc = SkewHermitian(w @ y.mat @ w.conj().T)
            assert inner(xc, yc) == pytest.approx(inner(x, y), abs=1e-12)

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(8)
        x = ah.random_skew_hermitian(rng, 3)
        y = ah.random_skew_hermitian(rng, 3)
        z = ah.random_skew_hermitian(rng, 3)
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
        m = ah.random_unitary(rng, 3).mat
        back = ah.matrix_from_json(ah.matrix_to_json(m))
        assert np.array_equal(m, back)

    def test_policy_can_be_tightened(self):
        # the centralized policy record parameterizes every tolerance
        loose = np.eye(2) + 1e-10 * np.array([[0, 1], [0, 0]])
        Unitary(loose, policy=ah.NumericPolicy(unitary_tol=1e-9))
        with pytest.raises(ValueError):
            Unitary(loose, policy=ah.NumericPolicy(unitary_tol=1e-12))
        u = Unitary([[np.exp(1j * (np.pi - 1e-4))]])
        ah.logm_principal(u)  # fine at the default branch tolerance
        with pytest.raises(BranchCutError):
            ah.logm_principal(u, policy=ah.NumericPolicy(eps_branch=1e-3))
