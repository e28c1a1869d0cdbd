"""4-strand braid words with real and virtual crossings, commutator families,
and single-component closures.

Word text uses ``s1 s2 s3`` for positive real generators, ``S1 S2 S3`` for
their inverses and ``v1 v2 v3`` for virtual generators (letters act on
strand positions p, p+1 and are listed bottom to top).

Closure template: the top of strand i returns to the bottom of strand
i+1 (mod 4) along arcs that cross everything else virtually.  A pure
braid's closure is then a single component (the returns form a 4-cycle)
and the empty word closes to the unknot; a word whose permutation breaks
the single-component property is rejected.  All strands run upward, so a
positive generator closes to a positive crossing whose left-entering
strand passes over.

The commutator family b(k) is built by b(1) = A, b(k) = [g(k), b(k-1)]
with g(k) = B for k = 2, 3 (mod 4) and g(k) = A for k = 0, 1 (mod 4):
spelled out, b(2) = [B, b(1)], b(4u-1) = [B, b(4u-2)], b(4u) = [A, b(4u-1)],
b(4u+1) = [A, b(4u)], b(4u+2) = [B, b(4u+1)].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .diagram import Chord, DiagramError, GaussDiagram, load_json
from .khovanov import CapExceeded, DEFAULT_HOMOLOGY_CAP, distinguish_from_unknot, lemma5_scan

STRANDS = 4

# |b(k)| doubles with k; b(16)'s 393,208 letters close and print in 1.2-1.7 s at a
# 160 MiB peak (Python 3.11), and the cap keeps b(17) from doubling that cost
MAX_BK_LETTERS = 1 << 19

REAL_POS = "real_pos"
REAL_NEG = "real_neg"
VIRTUAL = "virtual"


class BraidError(DiagramError):
    """Raised for malformed braid words or non-knot closures."""


@dataclass(frozen=True)
class BraidLetter:
    pos: int  # acts on strands pos, pos+1
    kind: str

    def __post_init__(self) -> None:
        if not 1 <= self.pos <= STRANDS - 1:
            raise BraidError(f"letter position {self.pos} outside 1..{STRANDS - 1}")
        if self.kind not in (REAL_POS, REAL_NEG, VIRTUAL):
            raise BraidError(f"unknown letter kind {self.kind!r}")

    def inverted(self) -> BraidLetter:
        if self.kind == REAL_POS:
            return BraidLetter(self.pos, REAL_NEG)
        if self.kind == REAL_NEG:
            return BraidLetter(self.pos, REAL_POS)
        return self

    def token(self) -> str:
        ch = {REAL_POS: "s", REAL_NEG: "S", VIRTUAL: "v"}[self.kind]
        return f"{ch}{self.pos}"


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[BraidLetter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def token_str(self) -> str:
        return " ".join(l.token() for l in self.letters)

    def real_count(self) -> int:
        return sum(1 for l in self.letters if l.kind != VIRTUAL)


_LETTER = re.compile(r"([sSv])([1-3])\Z")


def parse_braid_word(text: str) -> BraidWord:
    letters = []
    for tok in text.replace(",", " ").split():
        m = _LETTER.match(tok)
        if not m:
            raise BraidError(f"bad braid token {tok!r}: expected s/S/v followed by 1..3")
        ch, pos = m.groups()
        kind = {"s": REAL_POS, "S": REAL_NEG, "v": VIRTUAL}[ch]
        letters.append(BraidLetter(int(pos), kind))
    return BraidWord(tuple(letters))


def inverse(word: BraidWord) -> BraidWord:
    return BraidWord(tuple(l.inverted() for l in reversed(word.letters)))


def product(*words: BraidWord) -> BraidWord:
    letters: tuple[BraidLetter, ...] = ()
    for w in words:
        letters += w.letters
    return BraidWord(letters)


def commutator(u: BraidWord, v: BraidWord) -> BraidWord:
    return product(u, v, inverse(u), inverse(v))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse real pairs and doubled virtual letters."""
    stack: list[BraidLetter] = []
    for l in word.letters:
        if stack and stack[-1].pos == l.pos:
            prev = stack[-1]
            cancels = (prev.kind == VIRTUAL and l.kind == VIRTUAL) or (
                {prev.kind, l.kind} == {REAL_POS, REAL_NEG}
            )
            if cancels:
                stack.pop()
                continue
        stack.append(l)
    return BraidWord(tuple(stack))


def _strands(word: BraidWord) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """One walk up the word, naming each strand by its bottom: the
    permutation, and per real letter in word order its (over strand, under
    strand, sign).  At a positive letter the strand entering from the left
    passes over."""
    at = list(range(1, STRANDS + 1))  # at[p - 1] is the strand at position p
    crossings = []
    for l in word.letters:
        p = l.pos
        left, right = at[p - 1], at[p]
        at[p - 1], at[p] = right, left
        if l.kind == REAL_POS:
            crossings.append((left, right, 1))
        elif l.kind == REAL_NEG:
            crossings.append((right, left, -1))
    return tuple(at.index(b) + 1 for b in range(1, STRANDS + 1)), crossings


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Bottom-to-top strand permutation: entry i-1 is where bottom i ends."""
    return _strands(word)[0]


def _closure_bottoms(perm: tuple[int, ...]) -> list[int]:
    """The bottoms the closure's component passes, in order from bottom 1,
    for a word of permutation ``perm``: the top of strand i returns to the
    bottom of strand i+1 (mod 4).  Raises unless it passes all of them."""
    bottoms = [1]
    while (nxt := perm[bottoms[-1] - 1] % STRANDS + 1) != 1:
        bottoms.append(nxt)
    if sorted(bottoms) != list(range(1, STRANDS + 1)):
        raise BraidError(
            f"closure is not a knot: the component visits bottoms {sorted(bottoms)}"
        )
    return bottoms


@dataclass(frozen=True)
class GeneratorDef:
    """Named commutator generators.  Derived inverses are free."""

    A: BraidWord
    B: BraidWord

    def generator(self, k: int) -> BraidWord:
        return self.B if k % 4 in (2, 3) else self.A


def load_generator_def(data: bytes | str) -> GeneratorDef:
    """Parse ``{"A": "<word>", "B": "<word>"}``."""
    obj = load_json(data, "generator file", BraidError)
    if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
        raise BraidError("generator JSON needs fields 'A' and 'B'")
    for name in ("A", "B"):
        if not isinstance(obj[name], str):
            raise BraidError(f"generator field {name!r} must be a braid word string")
    return GeneratorDef(parse_braid_word(obj["A"]), parse_braid_word(obj["B"]))


# Editable example generators (not a reproduction of any specific family):
# both are pure words, and A alone closes to the virtual trefoil.
EXAMPLE_GENS = GeneratorDef(parse_braid_word("s1 v1 s1 v1"), parse_braid_word("s2 v2 s2 v2"))


def b_family(k: int, defs: GeneratorDef) -> BraidWord:
    """k-th member of the commutator family; length 2(|g(k)| + |b(k-1)|).
    Refuses a k outside the bounds of :func:`_family_counts` before
    building."""
    _family_counts(k, defs)
    word = defs.A
    for step in range(2, k + 1):
        word = commutator(defs.generator(step), word)
    return word


def closure(word: BraidWord) -> GaussDiagram:
    """Close the braid into a knot diagram and return its Gauss diagram.

    Chord k is the k-th real letter of the word (sign from the letter
    kind, arrow from the over pass to the under pass); virtual letters and
    the return arcs contribute none.  Slots follow the component from the
    bottom of strand 1.  Raises when the closure is not a single
    component.
    """
    perm, crossings = _strands(word)
    # the component runs up the strands in closure order, each strand
    # meeting its crossings in word order: a strand's first slot follows
    # the crossings of the strands before it
    met = [0] * (STRANDS + 1)
    for over, under, _ in crossings:
        met[over] += 1
        met[under] += 1
    slot = [0] * (STRANDS + 1)
    start = 0
    for b in _closure_bottoms(perm):
        slot[b], start = start, start + met[b]
    chords = []
    for cid, (over, under, sign) in enumerate(crossings, start=1):
        chords.append(Chord(cid, slot[over], slot[under], sign))
        slot[over] += 1
        slot[under] += 1
    return GaussDiagram("closed", chords)


def _compose(first: tuple[int, ...], then: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation of a word whose letters are those of ``first``, then
    those of ``then``."""
    return tuple(then[p - 1] for p in first)


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm, start=1):
        inv[p - 1] = i
    return tuple(inv)


def _family_counts(k: int, defs: GeneratorDef) -> tuple[int, int, tuple[int, ...]]:
    """(letters, real letters, permutation) of ``b_family(k, defs)``,
    without building it: |b(k)| = 2(|g(k)| + |b(k-1)|) counts both kinds
    of letter, and the permutation of [g, b] = g b g^-1 b^-1 composes
    those of g and b.

    Raises CapExceeded before counting when k > 20, the bit length of
    ``MAX_BK_LETTERS``, and once some b(j), j <= k, has more than
    ``MAX_BK_LETTERS`` letters.  A letter in either generator makes
    |b(k)| >= 2**(k - 1), so the bound on k adds a refusal only for an
    empty pair, whose members are all empty."""
    if k < 1:
        raise BraidError("the braid family is indexed from 1")
    bound = f"b(k) is capped at k <= {MAX_BK_LETTERS.bit_length()} and {MAX_BK_LETTERS} letters"
    if k > MAX_BK_LETTERS.bit_length():
        raise CapExceeded(f"{bound}, got k = {k}")
    letters, real, perm = len(defs.A), defs.A.real_count(), permutation(defs.A)
    step = 1
    while letters <= MAX_BK_LETTERS and step < k:
        step += 1
        g = defs.generator(step)
        g_perm = permutation(g)
        letters = 2 * (len(g) + letters)
        real = 2 * (g.real_count() + real)
        perm = _compose(_compose(_compose(g_perm, perm), _invert(g_perm)), _invert(perm))
    if letters > MAX_BK_LETTERS:
        raise CapExceeded(f"{bound}, b({step}) has {letters}")
    return letters, real, perm


def scan_family(
    ks: Iterable[int],
    defs: GeneratorDef,
    homology_cap: int = DEFAULT_HOMOLOGY_CAP,
) -> list[dict]:
    """Per-k report rows: word length, chord count, homology verdict with
    witness, and the gradings of states passing the fast certificate.

    Rows whose closure exceeds the homology cap are marked skipped.  A
    row's counts come from :func:`_family_counts`, and its closure is a
    knot when it passes all four bottoms; a word and its closure are built
    only for a row within the cap, since |b(k)| doubles with each k.
    Every real letter is a chord of the closure.  A k past the bounds of
    :func:`_family_counts` raises CapExceeded when its row is reached."""
    rows = []
    for k in ks:
        letters, real, perm = _family_counts(k, defs)
        _closure_bottoms(perm)  # raises unless the closure is a knot
        row: dict = {
            "k": k,
            "letters": letters,
            "chords": real,
            "skipped": real > homology_cap,
        }
        if not row["skipped"]:
            diagram = closure(b_family(k, defs))
            nontrivial, witness = distinguish_from_unknot(diagram, homology_cap)
            row["nontrivial"] = nontrivial
            row["witness"] = list(witness) if witness else None
            row["lemma5_hits"] = [
                [i, j] for _, i, j in lemma5_scan(diagram, homology_cap) if abs(j) != 1
            ]
        rows.append(row)
    return rows
