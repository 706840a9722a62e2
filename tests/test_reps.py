"""Holonomy representations: constraints, evaluation, irreducibility,
action values, and the genus-0 weight-vector classification."""

import itertools
import math

import numpy as np
import pytest

import areaholonomy as ah
from areaholonomy import (
    GammaRElement,
    InvalidRepError,
    SkewHermitian,
    Unitary,
    WeightVector,
    YangMillsRep,
    direct_sum,
    enumerate_sphere_classes,
    evaluate,
    gamma_mul,
    irreducible,
    sphere_rep,
    validate_rep,
    ym_action_value,
)
from conftest import flux_rep, quaternion_rep, solved_genus2_rep

FOUR_PI_SQ = 4 * np.pi**2


class TestValidate:
    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_abelian_genus1(self, k):
        one = Unitary([[1.0]])
        rep = YangMillsRep(1, 1, [one], [one], SkewHermitian([[2j * np.pi * k]]))
        assert validate_rep(rep).ok

    def test_relator_violation_residual(self):
        eye = Unitary(np.eye(2))
        rep = YangMillsRep(1, 2, [eye], [eye], SkewHermitian(1j * np.pi * np.eye(2)))
        diag = validate_rep(rep)
        assert not diag.ok
        # identity commutator vs exp(i pi I) = -I: ||I - (-I)||_F = 2 sqrt(2)
        assert diag.relator_residual == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_centrality_violation(self):
        # Lambda = i pi diag(1,-1) does not commute with the quaternion images
        x = Unitary([[0, 1], [-1, 0]])
        y = Unitary([[1j, 0], [0, -1j]])
        lam = SkewHermitian(1j * np.pi * np.diag([1.0, -1.0]))
        diag = validate_rep(YangMillsRep(1, 2, [x], [y], lam))
        assert not diag.ok
        assert diag.centrality_residual > 1e-2

    def test_solved_genus2(self):
        rep = solved_genus2_rep(seed=1)
        assert validate_rep(rep).ok

    def test_genus0_quantization_enforced(self):
        rep = YangMillsRep(0, 1, [], [], SkewHermitian([[1.0j]]))
        diag = validate_rep(rep)
        assert not diag.ok

    def test_shape_mismatch(self):
        with pytest.raises(InvalidRepError):
            YangMillsRep(1, 1, [], [], SkewHermitian([[0.0j]]))

    @pytest.mark.parametrize("genus", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relator_image_is_the_relator_word_image(self, genus, n):
        # relator_image multiplies the commutators without spelling the
        # relator word, in the same order, so it is bit for bit that image
        rng = np.random.default_rng(100 * genus + n)
        for _ in range(5):
            a, b = ([ah.random_unitary(rng, n) for _ in range(genus)] for _ in range(2))
            rep = YangMillsRep(genus, n, a, b, SkewHermitian(np.zeros((n, n))))
            image = ah.reps.relator_image(rep)
            assert image.tobytes() == ah.reps._word_image(rep, ah.relator_letters(genus)).tobytes()


class TestEvaluate:
    def test_identity_element(self):
        rep = quaternion_rep(1)
        out = evaluate(rep, GammaRElement(1, (), 0.0))
        assert np.allclose(out.mat, np.eye(2), atol=1e-15)

    def test_central_generator_hits_relator_image(self):
        for rep in (quaternion_rep(1), quaternion_rep(2), flux_rep(1, 2)):
            j = GammaRElement(rep.genus, (), 1.0)
            expected = ah.expm(rep.Lambda).mat
            assert np.linalg.norm(evaluate(rep, j).mat - expected) < 1e-12

    @pytest.mark.parametrize(
        "genus,rep_builder",
        [
            (0, lambda: sphere_rep([1, -1])),
            (1, lambda: quaternion_rep(1)),
            (2, lambda: quaternion_rep(2)),
            (3, lambda: quaternion_rep(3)),
        ],
    )
    def test_homomorphism(self, genus, rep_builder):
        rep = rep_builder()
        rng = np.random.default_rng(60 + genus)
        alphabet = [i for i in range(-2 * genus, 2 * genus + 1) if i != 0]
        for _ in range(125):
            def rand_el():
                if genus == 0:
                    return GammaRElement(0, (), float(rng.normal()))
                letters = [int(l) for l in rng.choice(alphabet, size=rng.integers(0, 8))]
                return GammaRElement(genus, letters, float(rng.normal()))

            x, y = rand_el(), rand_el()
            lhs = evaluate(rep, gamma_mul(x, y)).mat
            rhs = evaluate(rep, x).mat @ evaluate(rep, y).mat
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_invalid_rep_rejected(self):
        eye = Unitary(np.eye(2))
        bad = YangMillsRep(1, 2, [eye], [eye], SkewHermitian(1j * np.pi * np.eye(2)))
        with pytest.raises(InvalidRepError):
            evaluate(bad, GammaRElement(1, "a1"))

    def test_independent_of_word_representative(self):
        # words containing the relator evaluate like their normal form with
        # the extracted central coordinate
        rng = np.random.default_rng(66)
        rep = quaternion_rep(2)
        relator = ah.relator_letters(2)
        for _ in range(50):
            letters = [int(l) for l in rng.choice([1, -1, 2, -2, 3, -3, 4, -4], size=6)]
            x = GammaRElement(2, tuple(letters) + relator, 0.0)
            plain = GammaRElement(2, letters, 0.0)
            expected = evaluate(rep, plain).mat @ ah.expm(rep.Lambda).mat
            assert np.linalg.norm(evaluate(rep, x).mat - expected) < 1e-12

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(64)
        rep = quaternion_rep(1)
        w = ah.random_unitary(rng, 2)
        conj = YangMillsRep(
            1,
            2,
            [Unitary(w.mat @ m.mat @ w.mat.conj().T) for m in rep.A],
            [Unitary(w.mat @ m.mat @ w.mat.conj().T) for m in rep.B],
            SkewHermitian(w.mat @ rep.Lambda.mat @ w.mat.conj().T),
        )
        for _ in range(20):
            letters = [int(l) for l in rng.choice([1, -1, 2, -2], size=rng.integers(0, 6))]
            x = GammaRElement(1, letters, float(rng.normal()))
            u1 = evaluate(rep, x)
            u2 = evaluate(conj, x)
            assert np.linalg.norm(w.mat @ u1.mat @ w.mat.conj().T - u2.mat) < 1e-10
            assert ah.conjugacy_residual(u1, u2) < 1e-10

    @pytest.mark.parametrize(
        "refused, message",
        [
            (lambda: evaluate(quaternion_rep(1), GammaRElement(2, (), 0.0)), "^element genus 2 does not match rep genus 1$"),
            (lambda: direct_sum(quaternion_rep(1), quaternion_rep(2)), "^direct sum needs matching genus$"),
        ],
        ids=["evaluate", "direct-sum"],
    )
    def test_genera_must_match(self, refused, message):
        with pytest.raises(ah.GenusMismatchError, match=message):
            refused()


class TestIrreducible:
    def test_dimension_one_always(self):
        assert irreducible(flux_rep(1, 1)) is True

    def test_diagonal_distinct_weights_reducible(self):
        assert irreducible(sphere_rep([1, 0])) is False
        assert irreducible(sphere_rep([1, -1])) is False

    def test_quaternion_irreducible(self):
        assert irreducible(quaternion_rep(2)) is True

    def test_solved_genus2_irreducible(self):
        assert irreducible(solved_genus2_rep(seed=2)) is True

    def test_scalar_lambda_for_irreducible(self):
        rep = quaternion_rep(2)
        assert irreducible(rep)
        scalar = np.trace(rep.Lambda.mat) / rep.n
        assert np.linalg.norm(rep.Lambda.mat - scalar * np.eye(rep.n)) < 1e-9


class TestActionValue:
    def test_flat_is_zero(self):
        assert ym_action_value(sphere_rep([0, 0])) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_abelian_value(self, k):
        assert ym_action_value(flux_rep(1, k)) == pytest.approx(FOUR_PI_SQ * k * k, rel=1e-13)

    def test_two_weights(self):
        k1, k2 = 2, 1
        assert ym_action_value(sphere_rep([k1, k2])) == pytest.approx(
            FOUR_PI_SQ * (k1**2 + k2**2), rel=1e-13
        )

    def test_direct_sum_adds(self):
        r1, r2 = quaternion_rep(1), flux_rep(1, 1)
        both = direct_sum(r1, r2)
        assert validate_rep(both).ok
        assert ym_action_value(both) == pytest.approx(
            ym_action_value(r1) + ym_action_value(r2), rel=1e-12
        )

    def test_reassigned_lambda_is_validated_again(self):
        # validity is that of the rep as it is now: a Lambda whose spectrum
        # is not quantized makes the genus-0 rep invalid, even after an
        # earlier call found the rep valid
        rep = sphere_rep([1, 0])
        assert ym_action_value(rep) == pytest.approx(FOUR_PI_SQ, rel=1e-13)
        rep.Lambda = SkewHermitian(np.diag([0.5j, 0]))
        with pytest.raises(InvalidRepError):
            ym_action_value(rep)
        assert not validate_rep(rep).ok


class TestSphereClasses:
    def test_n1_kmax1(self):
        assert [c.k for c in enumerate_sphere_classes(1, 1)] == [(1,), (0,), (-1,)]

    def test_n2_kmax1(self):
        expected = [(1, 1), (1, 0), (1, -1), (0, 0), (0, -1), (-1, -1)]
        assert [c.k for c in enumerate_sphere_classes(2, 1)] == expected

    @pytest.mark.parametrize("n,kmax", [(1, 3), (2, 2), (3, 1), (2, 3)])
    def test_matches_bruteforce_multiset_count(self, n, kmax):
        brute = {
            tuple(sorted(t, reverse=True))
            for t in itertools.product(range(-kmax, kmax + 1), repeat=n)
        }
        classes = enumerate_sphere_classes(n, kmax)
        assert {c.k for c in classes} == brute
        assert len(classes) == len(set(classes)) == math.comb(n + 2 * kmax, n)

    def test_isolation_gap(self):
        classes = enumerate_sphere_classes(2, 2)
        actions = sorted(ym_action_value(sphere_rep(c)) for c in classes)
        gaps = [b - a for a, b in zip(actions, actions[1:]) if b - a > 1e-9]
        assert min(gaps) >= FOUR_PI_SQ - 1e-9

    def test_action_closed_form(self):
        for c in enumerate_sphere_classes(2, 2):
            assert ym_action_value(sphere_rep(c)) == pytest.approx(
                FOUR_PI_SQ * sum(k * k for k in c.k), rel=1e-12
            )

    def test_weight_vector_invariant(self):
        with pytest.raises(ValueError):
            WeightVector((0, 1))

    @pytest.mark.parametrize("weights", [(1.5, 0), (True, 0), (2, 0.5)], ids=["fraction", "boolean", "late-fraction"])
    def test_weights_are_integers(self, weights):
        # int() read (1.5, 0) as (1, 0), whose action is 4 pi^2, not an error
        value = next(k for k in weights if type(k) is not int)
        with pytest.raises(ValueError, match=f"^weight vector: an entry must be an integer, got {value!r}$"):
            sphere_rep(weights)
        assert sphere_rep((2.0, np.int64(0))).n == 2
        assert WeightVector((2.0, np.int64(0))).k == (2, 0)


class TestSphereRep:
    def test_flat(self):
        rep = sphere_rep([0, 0, 0])
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(evaluate(rep, GammaRElement(0, (), t)).mat, np.eye(3))

    def test_half_turn(self):
        rep = sphere_rep([1])
        val = evaluate(rep, GammaRElement(0, (), 0.5)).mat[0, 0]
        assert abs(val + 1.0) < 1e-14

    def test_closed_geodesic(self):
        rep = sphere_rep([2, 1])
        out = evaluate(rep, GammaRElement(0, (), 1.0)).mat
        assert np.linalg.norm(out - np.eye(2)) < 1e-12

    def test_geodesic_form(self):
        rep = sphere_rep([2, -1])
        t = 0.37
        out = evaluate(rep, GammaRElement(0, (), t)).mat
        # t is reduced mod 1 by the group element, which the geodesic allows
        expected = np.diag(np.exp(2j * np.pi * np.array([2, -1]) * ah.wrap_mod1(t)))
        assert np.linalg.norm(out - expected) < 1e-12


def identity_field_json() -> dict:
    """field_to_json of the identity n = 2 field on torus:2 (8 edges)."""
    return ah.field_to_json(ah.GaugeField(ah.build_torus_mesh(2), np.tile(np.eye(2, dtype=complex), (8, 1, 1))))


@pytest.mark.parametrize("im", [[[0.5]], 0, [[0, 0]], [[0, 0], [0, 0], [0, 0]]])
def test_matrix_json_rejects_im_of_another_shape(im):
    # numpy would broadcast im against re; the reader does not
    with pytest.raises(ValueError, match="must be 2 x 2"):
        ah.matrix_from_json({"n": 2, "re": [[1, 0], [0, 1]], "im": im})
    # in a field, one such edge makes the stack ragged
    obj = identity_field_json()
    obj["edges"][3]["im"] = im
    with pytest.raises(ValueError, match="^every matrix must be 2 x 2, as its n says$"):
        ah.field_from_json(obj)


def test_field_reader_names_a_string_entry_in_a_ragged_stack():
    # a string entry is named as json_float names it, even where the stack
    # is also ragged
    obj = identity_field_json()
    obj["edges"][3]["re"] = [[1, 0]]
    obj["edges"][5]["re"][1][0] = "x"
    with pytest.raises(TypeError, match="^matrix: an entry of re must be a number, got 'x'$"):
        ah.field_from_json(obj)


@pytest.mark.parametrize(
    "part, value, error", [("re", "1.0", TypeError), ("re", True, ValueError), ("im", False, ValueError), ("im", None, TypeError)]
)
def test_matrix_json_reads_entries_as_numbers(part, value, error):
    # np.array would read "1.0" and true as 1.0, false as 0.0 and null as NaN
    message = f"^matrix: an entry of {part} must be a number, got {value!r}$"
    obj = ah.matrix_to_json(np.eye(2))
    obj[part][1][0] = value
    with pytest.raises(error, match=message):
        ah.matrix_from_json(obj)
    field = identity_field_json()
    field["edges"][3][part][1][0] = value
    with pytest.raises(error, match=message):
        ah.field_from_json(field)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.0]], [[1.0, [0.0]], [0.0, 1.0]]], ids=["short-row", "nested-entry"])
def test_matrix_json_rows_of_different_lengths(part, rows):
    # numpy would refuse them with its own "inhomogeneous shape" message
    obj = ah.matrix_to_json(np.eye(2))
    obj[part] = rows
    with pytest.raises(ValueError, match="^every matrix must be 2 x 2, as its n says$"):
        ah.matrix_from_json(obj)
    field = identity_field_json()
    field["edges"][3][part] = rows
    with pytest.raises(ValueError, match="^every matrix must be 2 x 2, as its n says$"):
        ah.field_from_json(field)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_matrix_json_non_finite_entry(part, value):
    # read without a numpy warning (which the test settings make an error);
    # the field's unitarity check then rejects it
    obj = ah.matrix_to_json(np.eye(2))
    obj[part][0][1] = value
    assert not np.all(np.isfinite(ah.matrix_from_json(obj)))
    field = identity_field_json()
    field["edges"][3][part][0][1] = value
    with pytest.raises(ValueError, match="not unitary"):
        ah.field_from_json(field)
