"""Central-extension word algebra: free reduction, the area cocycle,
normal forms, the word problem, and mesh-loop classes."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import areaholonomy as ah
from areaholonomy import (
    GammaRElement,
    GenusMismatchError,
    clip,
    gamma_inv,
    gamma_mul,
    loop_class,
    relator_letters,
    word_problem,
    wrap_mod1,
)
from areaholonomy.words import _dehn_reduce, _dehn_table
from conftest import rebased

LETTERS_G2 = [i for i in range(-4, 5) if i != 0]


def random_element(genus: int, rng: np.random.Generator, max_len: int = 10) -> GammaRElement:
    if genus == 0:
        return GammaRElement(0, (), float(rng.normal()))
    alphabet = [i for i in range(-2 * genus, 2 * genus + 1) if i != 0]
    letters = [int(l) for l in rng.choice(alphabet, size=rng.integers(0, max_len + 1))]
    return GammaRElement(genus, letters, float(rng.normal()))


def t_distance(x: float, genus: int) -> float:
    return abs(wrap_mod1(x)) if genus == 0 else abs(x)


class TestClip:
    def test_full_cancellation(self):
        assert clip([1, 2, -2, -1]) == ()

    def test_no_adjacent_cancellation(self):
        assert clip([1, 2, -1]) == (1, 2, -1)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(LETTERS_G2), max_size=30))
    def test_word_times_reverse_inverse_cancels(self, letters):
        inverse = [-l for l in reversed(letters)]
        assert clip(letters + inverse) == ()

    def test_thousand_random_words(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            letters = [int(l) for l in rng.choice(LETTERS_G2, size=rng.integers(0, 20))]
            inverse = [-l for l in reversed(letters)]
            assert clip(letters + inverse) == ()

    def test_order_independence(self):
        # stack reduction equals repeated single-pass deletion
        def slow_clip(letters):
            letters = list(letters)
            changed = True
            while changed:
                changed = False
                for i in range(len(letters) - 1):
                    if letters[i] == -letters[i + 1]:
                        del letters[i:i + 2]
                        changed = True
                        break
            return tuple(letters)

        rng = np.random.default_rng(32)
        for _ in range(200):
            letters = [int(l) for l in rng.choice(LETTERS_G2, size=rng.integers(0, 16))]
            assert clip(letters) == slow_clip(letters)


class TestGammaMul:
    def test_genus1_commutation(self):
        ab = gamma_mul(GammaRElement(1, "a1"), GammaRElement(1, "b1"))
        assert str(ab.word) == "a1 b1" and ab.t == 0.0
        ba = gamma_mul(GammaRElement(1, "b1"), GammaRElement(1, "a1"))
        assert str(ba.word) == "a1 b1" and ba.t == -1.0

    def test_genus2_relator_normalizes_to_central_one(self):
        rel = GammaRElement(2, relator_letters(2), 0.0)
        assert rel.word.letters == ()
        assert rel.t == 1.0

    def test_relator_conjugates(self):
        # oracle: free reduction cancels w against w^-1 once the central
        # relator value J is extracted, so the class is (empty, 1)
        rng = np.random.default_rng(33)
        rel = GammaRElement(2, relator_letters(2), 0.0)
        for _ in range(100):
            w = random_element(2, rng)
            conj = gamma_mul(gamma_mul(w, rel), gamma_inv(w))
            assert conj.word.letters == ()
            assert abs(conj.t - 1.0) < 1e-12

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatchError):
            gamma_mul(GammaRElement(1, "a1"), GammaRElement(2, "a1"))

    @pytest.mark.parametrize("genus", [0, 1, 2, 3])
    def test_group_axioms(self, genus):
        rng = np.random.default_rng(40 + genus)
        ident = GammaRElement(genus)
        for _ in range(200):
            x, y, z = (random_element(genus, rng) for _ in range(3))
            lhs = gamma_mul(gamma_mul(x, y), z)
            rhs = gamma_mul(x, gamma_mul(y, z))
            assert lhs.word.letters == rhs.word.letters
            assert t_distance(lhs.t - rhs.t, genus) < 1e-12
            assert gamma_mul(x, ident).word.letters == x.word.letters
            assert t_distance(gamma_mul(x, ident).t - x.t, genus) < 1e-15
            inv_prod = gamma_mul(x, gamma_inv(x))
            assert inv_prod.word.letters == ()
            assert t_distance(inv_prod.t, genus) < 1e-12

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_centrality_of_central_coordinate(self, genus):
        rng = np.random.default_rng(50 + genus)
        j = GammaRElement(genus, (), 1.7)
        for _ in range(50):
            x = random_element(genus, rng)
            left = gamma_mul(j, x)
            right = gamma_mul(x, j)
            assert left.word.letters == right.word.letters
            assert abs(left.t - right.t) < 1e-12

    def test_genus1_abelianization(self):
        # forgetting t is a homomorphism onto the surface group: the word
        # part is determined by the exponent pair (p, q)
        rng = np.random.default_rng(54)
        for _ in range(100):
            x = random_element(1, rng)
            y = random_element(1, rng)
            prod = gamma_mul(x, y)
            count = lambda el, g: sum(1 if l == g else -1 if l == -g else 0 for l in el.word.letters)
            assert count(prod, 1) == count(x, 1) + count(y, 1)
            assert count(prod, 2) == count(x, 2) + count(y, 2)

    def test_dehn_shortens(self):
        # normalizing never lengthens, and trivial words vanish entirely
        rng = np.random.default_rng(55)
        rel = relator_letters(3)
        for _ in range(50):
            w = random_element(3, rng, max_len=8)
            padded = GammaRElement(3, w.word.letters + rel + tuple(-l for l in reversed(w.word.letters)), 0.0)
            assert padded.word.letters == ()
            assert padded.t == 1.0


def _exponents(letters) -> tuple[int, int]:
    """Exponent sums (p, q) of a1 and b1 in a genus-1 word."""
    p = sum(1 if l > 0 else -1 for l in letters if abs(l) == 1)
    q = sum(1 if l > 0 else -1 for l in letters if abs(l) == 2)
    return p, q


def _normal_letters(p: int, q: int) -> tuple[int, ...]:
    return (1,) * p + (-1,) * -p + (2,) * q + (-2,) * -q


def oracle_mul(x: GammaRElement, y: GammaRElement) -> GammaRElement:
    """Closed forms of the group law: genus 0 adds t, genus 1 is the
    Heisenberg product (a^p b^q)(a^r b^u) = a^(p+r) b^(q+u) J^(-q r),
    genus >= 2 concatenates and Dehn-reduces."""
    g = x.genus
    if g == 0:
        return GammaRElement(0, (), x.t + y.t)
    if g == 1:
        (p, q), (r, u) = _exponents(x.word.letters), _exponents(y.word.letters)
        return GammaRElement(1, _normal_letters(p + r, q + u), x.t + y.t - q * r)
    return GammaRElement(g, x.word.letters + y.word.letters, x.t + y.t)


def oracle_inv(x: GammaRElement) -> GammaRElement:
    """(a^p b^q)^-1 = a^-p b^-q J^(-p q) in genus 1."""
    g = x.genus
    if g == 0:
        return GammaRElement(0, (), -x.t)
    if g == 1:
        p, q = _exponents(x.word.letters)
        return GammaRElement(1, _normal_letters(-p, -q), -x.t - p * q)
    return GammaRElement(g, tuple(-l for l in reversed(x.word.letters)), -x.t)


def t_bits(el: GammaRElement) -> bytes:
    return struct.pack("<d", el.t)


@st.composite
def elements(draw, genus):
    if genus == 0:
        letters = []
    else:
        alphabet = [i for i in range(-2 * genus, 2 * genus + 1) if i != 0]
        letters = draw(st.lists(st.sampled_from(alphabet), max_size=16))
    t = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    ))
    return GammaRElement(genus, letters, t)


class TestClosedFormOracle:
    """The group law and inverse match the closed forms, letter for letter
    and bit for bit in t."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda g: st.tuples(elements(g), elements(g))))
    def test_mul(self, pair):
        x, y = pair
        got, want = gamma_mul(x, y), oracle_mul(x, y)
        assert got.word.letters == want.word.letters
        assert t_bits(got) == t_bits(want)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3).flatmap(elements))
    def test_inv(self, x):
        got, want = gamma_inv(x), oracle_inv(x)
        assert got.word.letters == want.word.letters
        assert t_bits(got) == t_bits(want)


def quadratic_dehn_reduce(letters: tuple[int, ...], genus: int) -> tuple[tuple[int, ...], int]:
    """The earlier quadratic reducer: after every replacement it clips the
    whole word and restarts its scan at letter 0, so each replacement is
    at the leftmost window that matches."""
    table = _dehn_table(genus)
    half = 2 * genus + 1
    full = 4 * genus
    t_delta = 0
    word = clip(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - half + 1):
            hit = table.get(word[i:i + half])
            if hit is None:
                continue
            rotation, sign = hit
            j = half
            while j < full and i + j < len(word) and word[i + j] == rotation[j]:
                j += 1
            complement = rotation[j:]
            replacement = tuple(-l for l in reversed(complement))
            word = clip(word[:i] + replacement + word[i + j:])
            t_delta += sign
            changed = True
            break
    return word, t_delta


@st.composite
def relator_rich_words(draw, genus):
    """Words made of random letters, rotations of R and R^-1, prefixes and
    suffixes of those rotations, and powers of R."""
    relator = relator_letters(genus)
    inverse = tuple(-l for l in reversed(relator))
    alphabet = [i for i in range(-2 * genus, 2 * genus + 1) if i != 0]
    letters: list[int] = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["letters", "rotation", "prefix", "suffix", "power"]))
        if kind == "letters":
            letters += clip(draw(st.lists(st.sampled_from(alphabet), max_size=8)))
            continue
        if kind == "power":
            letters += (relator if draw(st.booleans()) else inverse) * draw(st.integers(1, 3))
            continue
        base = draw(st.sampled_from([relator, inverse]))
        k = draw(st.integers(0, 4 * genus - 1))
        rotation = base[k:] + base[:k]
        cut = draw(st.integers(0, 4 * genus))
        letters += {"rotation": rotation, "prefix": rotation[:cut], "suffix": rotation[cut:]}[kind]
    return letters


def trivial_word(genus: int, length: int, seed: int) -> tuple[tuple[int, ...], int]:
    """A word of at least `length` letters made of pieces u R^a u^-1, and
    the sum k of the a: it normalizes to (empty, k)."""
    rng = np.random.default_rng(seed)
    relator = list(relator_letters(genus))
    inverse = [-l for l in reversed(relator)]
    letters: list[int] = []
    k = 0
    while len(letters) < length:
        size = int(rng.integers(10, 120))
        u = list(clip(rng.integers(1, 2 * genus + 1, size=size) * rng.choice([-1, 1], size=size)))
        a = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        letters += u + (relator if a > 0 else inverse) * abs(a) + [-l for l in reversed(u)]
        k += a
    return tuple(letters), k


class TestDehnOracle:
    """The linear two-stack reducer returns the quadratic reducer's normal
    form: the same letters and the same t, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda g: st.tuples(st.just(g), relator_rich_words(g))),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_same_normal_form(self, genus_letters, t):
        genus, letters = genus_letters
        want_letters, want_dt = quadratic_dehn_reduce(tuple(letters), genus)
        assert _dehn_reduce(tuple(letters), genus) == (want_letters, want_dt)
        got = GammaRElement(genus, letters, t)
        assert got.word.letters == want_letters
        assert t_bits(got) == struct.pack("<d", t + want_dt)

    def test_long_trivial_word(self):
        letters, k = trivial_word(2, 16_000, seed=59)
        assert len(letters) > 16_000
        assert _dehn_reduce(letters, 2) == quadratic_dehn_reduce(letters, 2) == ((), k)


class TestGammaInv:
    def test_central(self):
        assert gamma_inv(GammaRElement(1, (), 0.7)).t == -0.7

    def test_genus0(self):
        assert gamma_inv(GammaRElement(0, (), 0.3)).t == pytest.approx(-0.3)

    def test_genus1_roundtrip(self):
        x = GammaRElement(1, "a1 b1", 0.0)
        prod = gamma_mul(x, gamma_inv(x))
        assert prod.word.letters == () and prod.t == 0.0


class TestWordProblem:
    def test_reflexive(self):
        x = GammaRElement(1, "a1 b1", 0.25)
        assert word_problem(x, x)

    def test_distinct_area_classes(self):
        assert not word_problem(GammaRElement(1, "a1 b1", 0.0), GammaRElement(1, "a1 b1", 0.5))

    def test_relator_conjugate_equals_j(self):
        rng = np.random.default_rng(56)
        rel = GammaRElement(2, relator_letters(2), 0.0)
        j = GammaRElement(2, (), 1.0)
        w = random_element(2, rng)
        assert word_problem(gamma_mul(gamma_mul(w, rel), gamma_inv(w)), j)

    def test_genus0_mod1(self):
        assert word_problem(GammaRElement(0, (), 0.25), GammaRElement(0, (), 1.25))
        assert not word_problem(GammaRElement(0, (), 0.25), GammaRElement(0, (), 0.5))

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(LETTERS_G2), max_size=12), st.floats(-3, 3))
    def test_relator_absorption(self, letters, t):
        # x * R == J * x for every x: the relator is the central generator
        x = GammaRElement(2, letters, t)
        rel = GammaRElement(2, relator_letters(2), 0.0)
        j = GammaRElement(2, (), 1.0)
        assert word_problem(gamma_mul(x, rel), gamma_mul(j, x))


class TestLoopClass:
    def test_single_face_at_basepoint(self):
        mesh = ah.build_torus_mesh(2)
        loop = ah.face_boundary_loop(mesh, 0)
        assert loop.base == mesh.basepoint
        cls = loop_class(mesh, loop)
        assert cls.word.letters == ()
        assert cls.t == pytest.approx(0.25, abs=1e-15)

    def test_alpha_is_standard(self, torus4):
        cls = loop_class(torus4, ah.alpha_loop(torus4))
        assert str(cls.word) == "a1" and cls.t == 0.0

    def test_homomorphism(self, torus4):
        rng = np.random.default_rng(57)
        for _ in range(200):
            w1 = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            w2 = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            l1 = ah.random_loop(torus4, rng, 8, windings=w1)
            l2 = ah.random_loop(torus4, rng, 8, windings=w2)
            combined = loop_class(torus4, ah.loop_concat(l1, l2))
            expected = gamma_mul(loop_class(torus4, l1), loop_class(torus4, l2))
            assert combined.word.letters == expected.word.letters
            assert abs(combined.t - expected.t) < 1e-12

    def test_homomorphism_at_another_basepoint(self):
        # the period cycles of the standard representatives run through
        # the basepoint, so they close wherever it is
        mesh = rebased(ah.build_torus_mesh(6), 14)
        rng = np.random.default_rng(60)
        for _ in range(200):
            w1, w2 = ((int(rng.integers(-2, 3)), int(rng.integers(-2, 3))) for _ in range(2))
            l1 = ah.random_loop(mesh, rng, 8, windings=w1)
            l2 = ah.random_loop(mesh, rng, 8, windings=w2)
            combined = loop_class(mesh, ah.loop_concat(l1, l2))
            expected = gamma_mul(loop_class(mesh, l1), loop_class(mesh, l2))
            assert combined.word.letters == expected.word.letters
            assert abs(combined.t - expected.t) < 1e-12

    def test_sphere_class_in_half_open_interval(self, sphere2):
        rng = np.random.default_rng(58)
        for _ in range(100):
            loop = ah.random_loop(sphere2, rng, 10)
            cls = loop_class(sphere2, loop)
            assert cls.word.letters == ()
            assert -0.5 < cls.t <= 0.5

    def test_base_mismatch(self, torus4):
        loop = ah.face_boundary_loop(torus4, 5)
        assert loop.base != torus4.basepoint
        with pytest.raises(ah.MalformedLoopError):
            loop_class(torus4, loop)

    @pytest.mark.parametrize(
        "steps, message",
        [
            (((0, 1), (2, 1)), "loop steps are not head-to-tail composable"),
            (((0, 1), (99, 1)), "edge index 99 out of range"),
            (((0, 1), (1, 1)), "loop does not return to its base vertex"),
        ],
        ids=["gap", "edge", "open"],
    )
    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_malformed_loop_messages(self, kind, steps, message, torus4, sphere2):
        mesh = torus4 if kind == "torus" else sphere2
        loop = ah.MeshLoop(mesh.basepoint, steps)
        with pytest.raises(ah.MalformedLoopError, match=f"^{message}$"):
            ah.surfaces.validate_loop(mesh, loop)
        with pytest.raises(ah.MalformedLoopError, match=f"^{message}$"):
            loop_class(mesh, loop)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_area_against_standard_representative(self, data):
        # bit for bit: one lift of the loop with the standard
        # representative's part added in closed form, against the enclosed
        # area of the concatenated loop; random areas make theta nonzero
        n = data.draw(st.integers(2, 8))
        areas = None
        if data.draw(st.booleans()):
            weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n)))
            areas = weights / np.sum(weights)
        mesh = rebased(ah.build_torus_mesh(n, face_areas=areas), data.draw(st.integers(0, n * n - 1)))
        p, q = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        loop = ah.random_loop(mesh, rng, data.draw(st.integers(0, 30)), windings=(p, q))
        cls = loop_class(mesh, loop)
        between = ah.loop_concat(loop, ah.loop_reverse(ah.std_loop(mesh, p, q)))
        assert cls.word.letters == _normal_letters(p, q)
        assert t_bits(cls) == struct.pack("<d", ah.enclosed_area(mesh, between))

    def test_homomorphism_with_nonuniform_areas(self):
        rng = np.random.default_rng(61)
        weights = rng.uniform(0.1, 1.0, 36)
        mesh = rebased(ah.build_torus_mesh(6, face_areas=weights / np.sum(weights)), 9)
        assert np.any(mesh.area_potential[0] != 0.0)
        for _ in range(200):
            w1, w2 = ((int(rng.integers(-2, 3)), int(rng.integers(-2, 3))) for _ in range(2))
            l1 = ah.random_loop(mesh, rng, 8, windings=w1)
            l2 = ah.random_loop(mesh, rng, 8, windings=w2)
            combined = loop_class(mesh, ah.loop_concat(l1, l2))
            expected = gamma_mul(loop_class(mesh, l1), loop_class(mesh, l2))
            assert combined.word.letters == expected.word.letters
            assert abs(combined.t - expected.t) < 1e-12

    def test_one_layout_and_one_lift(self, monkeypatch):
        # the standard representative is never built or walked, not even
        # on a mesh's first call, which caches the period cycles' flux
        torus4 = ah.build_torus_mesh(4)
        calls = {"flat_steps": 0, "lifts": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def forbidden(*args):
            raise AssertionError("loop_class built or walked a loop it should add in closed form")

        monkeypatch.setattr(ah.surfaces, "flat_steps", counted("flat_steps", ah.surfaces.flat_steps))
        monkeypatch.setattr(ah._loopsteps, "flat_steps", counted("flat_steps", ah._loopsteps.flat_steps))
        monkeypatch.setattr(ah.surfaces, "lifts", counted("lifts", ah.surfaces.lifts))
        for module in (ah.words, ah.surfaces):
            for name in ("std_loop", "loop_concat", "loop_reverse", "torus_windings"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        loop = ah.random_loop(torus4, np.random.default_rng(62), 10, windings=(2, -1))
        assert str(loop_class(torus4, loop).word) == "a1 a1 b1^-1"
        assert calls == {"flat_steps": 1, "lifts": 1}


class TestStdLoop:
    # std_loop(t, 1.5, 0) raised a TypeError from tuple repetition, and
    # std_loop(t, True, 0) returned the a-cycle

    @pytest.mark.parametrize(
        "p, q, message",
        [(1.5, 0, r"^std_loop: p must be an integer, got 1\.5$"), (True, 0, r"^std_loop: p must be an integer, got True$"),
         (0, -0.5, r"^std_loop: q must be an integer, got -0\.5$")],
        ids=["fractional-p", "boolean-p", "fractional-q"],
    )
    def test_malformed_windings(self, torus4, p, q, message):
        with pytest.raises(ValueError, match=message):
            ah.std_loop(torus4, p, q)

    def test_integral_floats(self, torus4):
        assert ah.std_loop(torus4, 2.0, -1.0) == ah.std_loop(torus4, 2, -1)
        assert ah.torus_windings(torus4, ah.std_loop(torus4, 2, -1)) == (2, -1)


class TestParsing:
    def test_text_roundtrip(self):
        el = GammaRElement(2, "a1 b1 a1^-1 b2^-1", 0.5)
        back = GammaRElement(2, str(el.word), el.t)
        assert back == el

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            GammaRElement(1, "c1")
        with pytest.raises(ValueError):
            GammaRElement(1, "a2")  # index beyond genus

    def test_genus0_rejects_letters(self):
        with pytest.raises(ValueError):
            GammaRElement(0, "a1")

    def test_wrap_boundary(self):
        assert GammaRElement(0, (), 0.5).t == 0.5
        assert GammaRElement(0, (), -0.5).t == 0.5
        assert GammaRElement(0, (), 1.5).t == 0.5
        assert GammaRElement(0, (), 0.7).t == pytest.approx(-0.3)


class TestIntegerLetters:
    # int() read 1.5 as 1 and True as 1, so these words kept letters the
    # caller never wrote

    @pytest.mark.parametrize("letters", [[1.5, 3], [True, 3], [1, 3.25]], ids=["fraction", "boolean", "late-fraction"])
    def test_fractional_or_boolean_letter_raises(self, letters):
        value = next(l for l in letters if type(l) is not int)
        with pytest.raises(ValueError, match=f"^word: a letter must be an integer, got {value!r}$"):
            GammaRElement(2, letters)
        with pytest.raises(ValueError, match=f"^word: a letter must be an integer, got {value!r}$"):
            ah.SurfaceWord(2, tuple(letters))

    def test_integral_letters_are_read(self):
        assert ah.SurfaceWord(2, (1.0, np.int64(3))).letters == (1, 3)
        assert all(type(l) is int for l in ah.SurfaceWord(2, (1.0, np.int64(3))).letters)
        assert GammaRElement(2, [1.0, 3]) == GammaRElement(2, [1, 3])


class TestAlphabet:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_letter_outside_alphabet_raises(self, data):
        # checked on entry: normalization could cancel the letter (with its
        # inverse beside it) or, in genus 1, read it as b
        genus = data.draw(st.integers(0, 4))
        alphabet = [l for l in range(-2 * genus, 2 * genus + 1) if l != 0]
        bad = data.draw(st.sampled_from([0, 2 * genus + 1, -2 * genus - 1, 7 * genus + 5, -100]))
        letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=6)) if alphabet else []
        at = data.draw(st.integers(0, len(letters)))
        letters[at:at] = data.draw(st.sampled_from([[bad], [bad, -bad], [-bad, bad], [bad, bad]]))
        with pytest.raises(ValueError, match="outside the genus-"):
            GammaRElement(genus, letters, 0.0)

    def test_seen_cases(self):
        for genus, letters in ((2, [5, -5]), (2, [0, 0]), (1, [7]), (1, [0])):
            with pytest.raises(ValueError, match=f"outside the genus-{genus} alphabet"):
                GammaRElement(genus, letters)
