"""The quotient path group in algebraic form: reduced surface-group words
with a central real "area" coordinate.

Elements multiply by concatenation; every extraction of the surface relator
R = a1 b1 a1^-1 b1^-1 ... (or its inverse) during normalization shifts the
central coordinate t by +1 (resp. -1).  Normal forms: genus 0 stores only
t mod 1, genus 1 uses the Heisenberg form a^p b^q, genus >= 2 keeps
Dehn-reduced words, found in linear time by one two-stack pass
(_dehn_reduce).  Those are not unique: equality always goes through
word_problem, which is sound for surface groups by small cancellation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from typing import Iterable, Sequence, Union

from .policy import DEFAULT_POLICY
from .surfaces import (
    MalformedLoopError,
    MeshLoop,
    SurfaceMesh,
    _checked_steps,
    _derived_loop,
    _loop_lifts,
    _require_torus,
    alpha_loop,
    beta_loop,
    enclosed_area,
    json_int,
    json_ints,
    loop_reverse,
    wrap_mod1,
)


class GenusMismatchError(ValueError):
    """Operands belong to groups of different genus."""


# Letters are nonzero ints: a_i = i, b_i = g + i, inverses negative.

def clip(letters: Iterable[int]) -> tuple[int, ...]:
    """Free reduction: delete adjacent letter-inverse pairs until none remain.

    Deletion order does not matter, so one stack pass is enough.  The
    letters that remain are kept as given, not converted.
    _dehn_reduce clips its whole input once before its own pass: looking
    up relator windows in a word clipped only on the fly could match
    letters that the full clip cancels, and change the normal form.
    """
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _check_alphabet(letters: tuple[int, ...], genus: int) -> None:
    """Raise ValueError for the first letter that is not one of +-1 .. +-2g."""
    bound = 2 * genus
    if letters and (0 in letters or max(letters) > bound or min(letters) < -bound):
        bad = next(l for l in letters if l == 0 or abs(l) > bound)
        raise ValueError(f"letter {bad} outside the genus-{genus} alphabet")


def relator_letters(genus: int) -> tuple[int, ...]:
    """The surface relator: product of commutators [a_i, b_i], length 4g."""
    letters: list[int] = []
    for i in range(1, genus + 1):
        letters.extend((i, genus + i, -i, -(genus + i)))
    return tuple(letters)


@dataclass(frozen=True)
class SurfaceWord:
    """A freely reduced word in the 2g surface-group generators, of letters
    read by surfaces.json_ints."""

    genus: int
    letters: tuple[int, ...]

    def __post_init__(self):
        letters = json_ints(self.letters, "word: a letter")
        _check_alphabet(letters, self.genus)
        if letters != clip(letters):
            raise ValueError("word is not freely reduced")
        object.__setattr__(self, "letters", letters)

    def __str__(self) -> str:
        return format_letters(self.letters, self.genus)


def _normal_word(genus: int, letters: tuple[int, ...]) -> SurfaceWord:
    """A SurfaceWord of int letters in the alphabet, freely reduced, made
    without SurfaceWord's check: GammaRElement's normal forms are."""
    word = object.__new__(SurfaceWord)
    object.__setattr__(word, "genus", genus)
    object.__setattr__(word, "letters", letters)
    return word


_TOKEN = re.compile(r"^([ab])([0-9]+)(\^-1)?$")


def parse_letters(text: str, genus: int) -> tuple[int, ...]:
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse word token {token!r}")
        kind, idx, inv = m.group(1), int(m.group(2)), m.group(3)
        if not (1 <= idx <= genus):
            raise ValueError(f"generator index {idx} exceeds genus {genus}")
        letter = idx if kind == "a" else genus + idx
        letters.append(-letter if inv else letter)
    return tuple(letters)


def format_letters(letters: Sequence[int], genus: int) -> str:
    parts = []
    for l in letters:
        idx = abs(l)
        name = f"a{idx}" if idx <= genus else f"b{idx - genus}"
        parts.append(name + ("^-1" if l < 0 else ""))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Dehn normalization (genus >= 2)

@lru_cache(maxsize=None)
def _dehn_table(genus: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """All cyclic rotations of R and R^-1, keyed by their (2g+1)-prefixes.

    Any subword of the cyclic relator longer than half its length uniquely
    identifies the rotation it starts; surface relators have no repeated
    length-2 subwords, so the keys never collide.
    """
    table: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    half = 2 * genus + 1
    for word, sign in ((relator_letters(genus), 1),
                       (tuple(-l for l in reversed(relator_letters(genus))), -1)):
        doubled = word + word
        for k in range(len(word)):
            rotation = doubled[k:k + len(word)]
            key = rotation[:half]
            if key in table and table[key] != (rotation, sign):
                raise AssertionError("ambiguous relator prefix")
            table[key] = (rotation, sign)
    return table


def _dehn_reduce(letters: tuple[int, ...], genus: int) -> tuple[tuple[int, ...], int]:
    """Shorten until no cyclic-relator subword longer than 2g remains.

    Each replacement takes the leftmost subword u that begins a rotation r
    of R or R^-1 with more than 2g of its letters, extended along r as far
    as the word follows it, up to all of r; it swaps u for the inverse of
    the rest of r and shifts t by the relator sign.  The word strictly
    shortens, so this terminates.  Dehn-reduced words are not unique, and
    this is the normal form of restarting a left-to-right scan after every
    replacement, found in linear time by one pass over two stacks
    (Domanski and Anshel 1985).  Letters move from `unread` (the clipped
    word, reversed) onto `out`, cancelling inverse pairs, and only the
    2g+1 letters ending at each new top of `out` are looked up: every
    window lower down was looked up when its last letter arrived.  The
    replacement is pushed back onto `unread`, cancelling against its top,
    which is also what extends u; so out + reversed(unread) is always the
    clipped word.
    """
    table = _dehn_table(genus)
    half = 2 * genus + 1
    t_delta = 0
    unread = list(reversed(clip(letters)))
    out: list[int] = []
    while unread:
        letter = unread.pop()
        if out and out[-1] == -letter:
            out.pop()
            continue
        out.append(letter)
        hit = table.get(tuple(out[-half:])) if len(out) >= half else None
        if hit is None:
            continue
        rotation, sign = hit
        del out[-half:]
        t_delta += sign
        # push the inverse of rotation[half:] so that its first letter is
        # read next; cancelling against the top of unread extends the match
        for l in rotation[half:]:
            if unread and unread[-1] == l:
                unread.pop()
            else:
                unread.append(-l)
    return tuple(out), t_delta


def _heisenberg_normalize(letters: Sequence[int]) -> tuple[int, int, float]:
    """Genus-1 normal form a^p b^q; moving a past b costs one relator.

    Swapping b^s a^r -> a^r b^s extracts J^(-s r), so each a-letter picks up
    minus the net b-exponent standing before it.
    """
    p = q = 0
    t_delta = 0.0
    b_before = 0
    for l in letters:
        if abs(l) == 1:
            tau = 1 if l > 0 else -1
            p += tau
            t_delta -= tau * b_before
        else:
            sigma = 1 if l > 0 else -1
            q += sigma
            b_before += sigma
    return p, q, t_delta


def _heisenberg_letters(p: int, q: int) -> tuple[int, ...]:
    return tuple([1] * p if p >= 0 else [-1] * (-p)) + tuple([2] * q if q >= 0 else [-2] * (-q))


WordLike = Union[str, SurfaceWord, Sequence[int]]


class GammaRElement:
    """(normal-form word, central area coordinate t).

    The central generator is J = (empty word, 1); for genus 0 the word is
    empty and t lives in R/Z, represented in (-1/2, 1/2].  The letters are
    checked once, on entry: each must be one of +-1 .. +-2g, whether or
    not normalization would cancel it, and letters given as numbers
    follow the rule of surfaces.json_ints.
    """

    __slots__ = ("genus", "word", "t")

    def __init__(self, genus: int, word: WordLike = (), t: float = 0.0):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if isinstance(word, SurfaceWord):
            if word.genus != genus:
                raise GenusMismatchError("word genus does not match element genus")
            letters: tuple[int, ...] = word.letters
        elif isinstance(word, str):
            letters = parse_letters(word, genus)
        else:
            letters = json_ints(word, "word: a letter")
            _check_alphabet(letters, genus)
        t = float(t)

        if genus == 0:
            normal, t = (), wrap_mod1(t)
        elif genus == 1:
            p, q, dt = _heisenberg_normalize(letters)
            normal, t = _heisenberg_letters(p, q), t + dt
        else:
            normal, dt = _dehn_reduce(letters, genus)
            t = t + dt
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "word", _normal_word(genus, normal))
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("GammaRElement is immutable")

    def __eq__(self, other) -> bool:
        # structural (normal-form) equality; semantic equality is word_problem
        return (
            isinstance(other, GammaRElement)
            and self.genus == other.genus
            and self.word.letters == other.word.letters
            and self.t == other.t
        )

    def __hash__(self):
        return hash((self.genus, self.word.letters, self.t))

    def __repr__(self) -> str:
        word = str(self.word) or "(empty)"
        return f"GammaRElement(genus={self.genus}, word='{word}', t={self.t})"


def gamma_mul(x: GammaRElement, y: GammaRElement) -> GammaRElement:
    """Concatenate and renormalize; t picks up one unit per relator extracted.

    The constructor's normalization covers every genus: genus 0 wraps t mod
    1, and in genus 1 moving y's a-letters past x's b-letters gives the
    Heisenberg cocycle -q r.
    """
    if x.genus != y.genus:
        raise GenusMismatchError(f"genus mismatch: {x.genus} vs {y.genus}")
    return GammaRElement(x.genus, x.word.letters + y.word.letters, x.t + y.t)


def gamma_inv(x: GammaRElement) -> GammaRElement:
    inverse = tuple(-l for l in reversed(x.word.letters))
    return GammaRElement(x.genus, inverse, -x.t)


def word_problem(x: GammaRElement, y: GammaRElement) -> bool:
    """Equality in the group: x y^-1 reduces to the identity.

    Genus >= 2 relies on Dehn's algorithm being complete for surface
    relators: a nonempty Dehn-reduced word is never trivial.
    """
    z = gamma_mul(x, gamma_inv(y))
    if z.word.letters:
        return False
    # genus 0 already stores t as the canonical representative mod 1
    return abs(z.t) <= DEFAULT_POLICY.t_tol


# ---------------------------------------------------------------------------
# mesh loops -> group elements

def std_loop(mesh: SurfaceMesh, p: int, q: int) -> MeshLoop:
    """Standard representative: alpha cycle p times, then beta cycle q
    times.  p and q follow the rule of surfaces.json_int."""
    p, q = json_int(p, "std_loop: p"), json_int(q, "std_loop: q")
    a, b = alpha_loop(mesh), beta_loop(mesh)
    steps: tuple[tuple[int, int], ...] = ()
    block = a.steps if p >= 0 else loop_reverse(a).steps
    steps += block * abs(p)
    block = b.steps if q >= 0 else loop_reverse(b).steps
    steps += block * abs(q)
    return _derived_loop(mesh.basepoint, steps)


def loop_class(mesh: SurfaceMesh, loop: MeshLoop) -> GammaRElement:
    """Class of a based mesh loop in the area-quotient group.

    Genus 0: (empty, enclosed area mod 1).  Genus 1: period windings give
    the word a^p b^q and t is the area between the loop and the standard
    representative of (p, q), the enclosed area of loop * std_loop^-1.
    The loop is checked and lifted once (surfaces._loop_lifts: dx, dy,
    cells and flux), and std_loop is never built.  Its inverse, which runs
    along the basepoint's column and row, adds its part in closed form: it
    takes the cell sum to cells - dx * dy, and its flux terms (the mesh's
    _period_fluxes table) continue the loop's left-to-right sum,
    so t is the enclosed area of the concatenated loop bit for bit.
    """
    if loop.base != mesh.basepoint:
        raise MalformedLoopError("loop must be based at the mesh basepoint")
    if mesh.genus == 0:
        return GammaRElement(0, (), enclosed_area(mesh, loop))
    grid = _require_torus(mesh)
    ((dx, dy, cells, flux),) = _loop_lifts(mesh, _checked_steps(mesh, [loop]))
    p, q = dx // grid.N, dy // grid.N
    alpha, alpha_inverse, beta, beta_inverse = mesh._period_fluxes
    # std_loop^-1 = b^-q a^-p, from the lift's end (dx, dy): down or up
    # the basepoint's column, whose vertical steps add dx * -dy cells, then
    # along its row; a list repeated a negative number of times is empty
    terms = chain(beta_inverse * q, beta * -q, alpha_inverse * p, alpha * -p)
    flux = reduce(operator.add, terms, flux)
    return GammaRElement(1, _heisenberg_letters(p, q), mesh.area_potential[1] * (cells - dx * dy) + flux)
