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

import json
import re
from dataclasses import dataclass
from typing import Iterable

from .diagram import Chord, GaussDiagram
from .khovanov import DEFAULT_HOMOLOGY_CAP, distinguish_from_unknot, lemma5_scan

STRANDS = 4

REAL_POS = "real_pos"
REAL_NEG = "real_neg"
VIRTUAL = "virtual"


class BraidError(ValueError):
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
    name: str | None = None

    def __len__(self) -> int:
        return len(self.letters)

    def token_str(self) -> str:
        return " ".join(l.token() for l in self.letters)

    def real_count(self) -> int:
        return sum(1 for l in self.letters if l.kind != VIRTUAL)


_LETTER = re.compile(r"([sSv])([1-3])\Z")


def parse_braid_word(text: str, name: str | None = None) -> BraidWord:
    letters = []
    for tok in text.replace(",", " ").split():
        m = _LETTER.match(tok)
        if not m:
            raise BraidError(f"bad braid token {tok!r}: expected s/S/v followed by 1..3")
        ch, pos = m.groups()
        kind = {"s": REAL_POS, "S": REAL_NEG, "v": VIRTUAL}[ch]
        letters.append(BraidLetter(int(pos), kind))
    return BraidWord(tuple(letters), name)


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


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Bottom-to-top strand permutation: entry i-1 is where bottom i ends."""
    where = list(range(1, STRANDS + 1))
    for l in word.letters:
        a, b = l.pos, l.pos + 1
        for idx in range(STRANDS):
            if where[idx] == a:
                where[idx] = b
            elif where[idx] == b:
                where[idx] = a
    return tuple(where)


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
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise BraidError(f"generator file is not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
        raise BraidError("generator JSON needs fields 'A' and 'B'")
    return GeneratorDef(
        parse_braid_word(obj["A"], "A"), parse_braid_word(obj["B"], "B")
    )


# Editable example generators (not a reproduction of any specific family):
# both are pure words, and A alone closes to the virtual trefoil.
EXAMPLE_GENS = GeneratorDef(
    parse_braid_word("s1 v1 s1 v1", "A"),
    parse_braid_word("s2 v2 s2 v2", "B"),
)


def b_family(k: int, defs: GeneratorDef) -> BraidWord:
    """k-th member of the commutator family; length 2(|g(k)| + |b(k-1)|)."""
    if k < 1:
        raise BraidError("the braid family is indexed from 1")
    word = defs.A
    for step in range(2, k + 1):
        word = commutator(defs.generator(step), word)
    return BraidWord(word.letters, f"b({k})")


def closure(word: BraidWord) -> GaussDiagram:
    """Close the braid into a knot diagram and return its Gauss diagram.

    Real letters become chords (sign from the letter kind, arrow from the
    over pass to the under pass); virtual letters and the return arcs
    contribute none.  Raises when the closure is not a single component.
    """
    # trace the component through the braid, bottom 1 first
    passes: list[list[tuple[int, bool]]] = []
    for p in _closure_bottoms(permutation(word)):
        events: list[tuple[int, bool]] = []
        for idx, l in enumerate(word.letters):
            if l.pos == p:
                events.append((idx, True))
                p = l.pos + 1
            elif l.pos + 1 == p:
                events.append((idx, False))
                p = l.pos
        passes.append(events)

    slot = 0
    occurrences: dict[int, list[tuple[int, bool]]] = {}
    for events in passes:
        for idx, entered_left in events:
            if word.letters[idx].kind != VIRTUAL:
                occurrences.setdefault(idx, []).append((slot, entered_left))
                slot += 1
    chords = []
    for cid, idx in enumerate(sorted(occurrences), start=1):
        letter = word.letters[idx]
        (s1, left1), (s2, left2) = occurrences[idx]
        over_first = left1 == (letter.kind == REAL_POS)
        tail, head = (s1, s2) if over_first else (s2, s1)
        chords.append(Chord(cid, tail, head, 1 if letter.kind == REAL_POS else -1))
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
    those of g and b."""
    if k < 1:
        raise BraidError("the braid family is indexed from 1")
    letters, real, perm = len(defs.A), defs.A.real_count(), permutation(defs.A)
    for step in range(2, k + 1):
        g = defs.generator(step)
        g_perm = permutation(g)
        letters = 2 * (len(g) + letters)
        real = 2 * (g.real_count() + real)
        perm = _compose(_compose(_compose(g_perm, perm), _invert(g_perm)), _invert(perm))
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
    Every real letter is a chord of the closure."""
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
