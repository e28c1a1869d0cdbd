"""Gauss diagrams of virtual and long virtual knot diagrams.

A Gauss diagram records each real crossing of a knot diagram as a signed,
directed chord on the preimage circle (or line, for long knots).  The chord
is directed from the over-passage to the under-passage and carries the sign
of the crossing.  Virtual crossings leave no trace, so a Gauss diagram is a
complete combinatorial substitute for a virtual knot diagram.

Endpoints live in *slots* ``0 .. 2n-1``: the positions of the ``2n`` chord
endpoints in the order they are met along the circle (for closed diagrams)
or along the line starting just after the basepoint (for long diagrams).
Every operation renormalizes slots back to this range.

Text form: a whitespace/comma separated list of tokens ``O<label><sign>`` /
``U<label><sign>``, e.g. ``"O1+ U2+ O3+ U1+ O2+ U3+"`` for the right
trefoil.  ``O`` marks the over-passage (tail of the chord), ``U`` the
under-passage (head).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

Kind = Literal["closed", "long"]

TAIL = "t"
HEAD = "h"


class ParseError(ValueError):
    """Raised for malformed Gauss code text; the message names the offending token."""


class DiagramError(ValueError):
    """Raised when an operation's precondition on a diagram fails."""


@dataclass(frozen=True, order=True)
class Chord:
    """One real crossing: directed (tail = over, head = under) and signed."""

    id: int
    tail: int
    head: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise DiagramError(f"chord {self.id}: sign must be +1 or -1")
        if self.tail == self.head:
            raise DiagramError(f"chord {self.id}: tail and head occupy the same slot")

    def other(self, slot: int) -> int:
        if slot == self.tail:
            return self.head
        if slot == self.head:
            return self.tail
        raise DiagramError(f"slot {slot} is not an endpoint of chord {self.id}")


class GaussDiagram:
    """Immutable Gauss diagram.

    Equality and hashing ignore chord ids: two diagrams are equal when their
    slot sequences of (chord occurrence, role, sign) agree exactly.  The
    equality key ``(kind, structure_key())`` is built on the first
    ``==`` or ``hash`` and kept; a diagram never compared costs nothing for
    it.  Closed diagrams additionally expose :meth:`canonical_code`, the
    minimal lexicographic rotation of the serialized code, for comparison of
    based circles up to rotation.
    """

    __slots__ = ("kind", "chords", "_slots", "_by_id", "_key")

    def __init__(self, kind: Kind, chords: Iterable[Chord]):
        if kind not in ("closed", "long"):
            raise DiagramError(f"unknown diagram kind {kind!r}")
        chords = tuple(sorted(chords, key=lambda c: c.id))
        n = len(chords)
        slots: list[tuple[int, str] | None] = [None] * (2 * n)
        by_id: dict[int, Chord] = {}
        for idx, c in enumerate(chords):
            if c.id in by_id:
                raise DiagramError(f"duplicate chord id {c.id}")
            by_id[c.id] = c
            for slot, role in ((c.tail, TAIL), (c.head, HEAD)):
                if not 0 <= slot < 2 * n:
                    raise DiagramError(f"chord {c.id}: slot {slot} outside [0, {2 * n})")
                if slots[slot] is not None:
                    raise DiagramError(f"slot {slot} used by two endpoints")
                slots[slot] = (idx, role)
        self.kind: Kind = kind
        self.chords: tuple[Chord, ...] = chords
        self._slots: tuple[tuple[int, str], ...] = tuple(slots)  # type: ignore[arg-type]
        self._by_id = by_id
        self._key: tuple | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.chords)

    @property
    def slot_count(self) -> int:
        return 2 * len(self.chords)

    def chord(self, chord_id: int) -> Chord:
        try:
            return self._by_id[chord_id]
        except KeyError:
            raise DiagramError(f"unknown chord id {chord_id}") from None

    def chord_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.chords)

    def at(self, slot: int) -> tuple[Chord, str]:
        """(chord, role) of the endpoint in ``slot``; role is 't' or 'h'."""
        try:
            idx, role = self._slots[slot % len(self._slots)]
        except ZeroDivisionError:
            raise DiagramError(f"slot {slot}: the empty diagram has no slots") from None
        return self.chords[idx], role

    def other_end(self, slot: int) -> int:
        chord, _ = self.at(slot)
        return chord.other(slot % len(self._slots))

    def adjacent_pairs(self) -> Iterator[int]:
        """Start slots k of adjacent slot pairs (k, k+1): cyclic for closed,
        linear for long.  A 1-chord closed diagram has one pair, not two."""
        m = self.slot_count
        if m < 2:
            return
        if self.kind == "long":
            yield from range(m - 1)
        elif m == 2:
            yield 0
        else:
            yield from range(m)

    def is_adjacent(self, a: int, b: int) -> bool:
        """True when slot b immediately follows slot a."""
        m = self.slot_count
        if self.kind == "long":
            return b == a + 1
        return m >= 2 and b == (a + 1) % m and not (m == 2 and a == 1)

    # -- equality up to id relabeling --------------------------------------

    def structure_key(self) -> tuple:
        seen: dict[int, int] = {}
        key = []
        for idx, role in self._slots:
            label = seen.setdefault(idx, len(seen))
            key.append((label, role, self.chords[idx].sign))
        return tuple(key)

    def _eq_key(self) -> tuple:
        if self._key is None:
            self._key = (self.kind, self.structure_key())
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussDiagram):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self) -> int:
        return hash(self._eq_key())

    def __repr__(self) -> str:
        return f"GaussDiagram({self.kind!r}, {self.code()!r})"

    # -- serialization -----------------------------------------------------

    def code(self) -> str:
        """Gauss code with chord ids renormalized to 1..n by first appearance."""
        return self._code_from(0, ["+" if c.sign > 0 else "-" for c in self.chords])

    def _code_from(self, r: int, signs: list[str]) -> str:
        """``code()`` of the diagram read from slot r onwards, cyclically."""
        seen: dict[int, int] = {}
        tokens = []
        for idx, role in self._slots[r:] + self._slots[:r]:
            label = seen.setdefault(idx, len(seen) + 1)
            tokens.append(("O" if role == TAIL else "U") + str(label) + signs[idx])
        return " ".join(tokens)

    def canonical_code(self) -> str:
        """Rotation-minimal code for closed diagrams; plain code for long.

        Each rotation's code is read straight from the slot tuple, without
        building the rotated diagram.  Only rotations starting at a tail are
        read: their codes start ``O1`` and every other one starts ``U1``,
        and ``'O' < 'U'``.  The result is ``min(self.rotated(r).code() for
        r in range(self.slot_count))``.
        """
        if self.kind == "long" or self.n == 0:
            return self.code()
        signs = ["+" if c.sign > 0 else "-" for c in self.chords]
        return min(
            self._code_from(r, signs)
            for r, (_, role) in enumerate(self._slots)
            if role == TAIL
        )

    def rotated(self, r: int) -> GaussDiagram:
        """Closed diagram re-based so that old slot r becomes slot 0."""
        if self.kind != "closed":
            raise DiagramError("only closed diagrams can be rotated")
        m = self.slot_count
        if m == 0:
            return self
        return GaussDiagram(
            "closed",
            (
                Chord(c.id, (c.tail - r) % m, (c.head - r) % m, c.sign)
                for c in self.chords
            ),
        )

    # -- chord surgery ------------------------------------------------------

    def delete_chords(self, ids: Iterable[int]) -> GaussDiagram:
        """Remove the given chords; remaining slots are compacted in order."""
        drop = set(ids)
        for cid in drop:
            self.chord(cid)
        dead = set()
        for c in self.chords:
            if c.id in drop:
                dead.update((c.tail, c.head))
        remap: dict[int, int] = {}
        for slot in range(self.slot_count):
            if slot not in dead:
                remap[slot] = len(remap)
        return GaussDiagram(
            self.kind,
            (
                Chord(c.id, remap[c.tail], remap[c.head], c.sign)
                for c in self.chords
                if c.id not in drop
            ),
        )

    def swap_slots(self, a: int, b: int) -> GaussDiagram:
        """Exchange the endpoints in slots a and b (chord data otherwise kept)."""
        m = self.slot_count
        a %= m
        b %= m
        return self._traded({a: b, b: a})

    def _traded(self, trade: dict[int, int]) -> GaussDiagram:
        """Move every endpoint in a slot of ``trade`` to its image; ``trade``
        must permute its own keys.  Untouched chords are reused."""
        return GaussDiagram(
            self.kind,
            (
                Chord(c.id, trade.get(c.tail, c.tail), trade.get(c.head, c.head), c.sign)
                if c.tail in trade or c.head in trade
                else c
                for c in self.chords
            ),
        )

    def insert_endpoints(self, placed: list[tuple[int, int, str, int]]) -> GaussDiagram:
        """Insert new chords given as (gap, chord_key, role, sign) records.

        ``gap`` is a position in [0, slot_count] (new endpoints land before
        the old slot of that index; equal gaps keep list order).  Both
        endpoints of every new chord must be supplied, with matching signs.
        New ids start above the current maximum.
        """
        m = self.slot_count
        order: list[tuple[int, int, int, object]] = [(s, 1, 0, s) for s in range(m)]
        for pos, (gap, key, role, sign) in enumerate(placed):
            if not 0 <= gap <= m:
                raise DiagramError(f"insertion gap {gap} outside [0, {m}]")
            order.append((gap, 0, pos, ("new", key, role, sign)))
        order.sort(key=lambda t: (t[0], t[1], t[2]))
        remap: dict[int, int] = {}
        new_ends: dict[int, list[tuple[str, int, int]]] = {}
        for new_slot, (_, _, _, what) in enumerate(order):
            if isinstance(what, int):
                remap[what] = new_slot
            else:
                _, key, role, sign = what  # type: ignore[misc]
                new_ends.setdefault(key, []).append((role, sign, new_slot))
        next_id = max((c.id for c in self.chords), default=0)
        chords = [
            Chord(c.id, remap[c.tail], remap[c.head], c.sign) for c in self.chords
        ]
        for key in sorted(new_ends):
            ends = new_ends[key]
            if len(ends) != 2 or {ends[0][0], ends[1][0]} != {TAIL, HEAD}:
                raise DiagramError(f"new chord {key} needs exactly one tail and one head")
            if ends[0][1] != ends[1][1]:
                raise DiagramError(f"new chord {key} has mismatched signs")
            next_id += 1
            tail = next(s for r, _, s in ends if r == TAIL)
            head = next(s for r, _, s in ends if r == HEAD)
            chords.append(Chord(next_id, tail, head, ends[0][1]))
        return GaussDiagram(self.kind, chords)


# -- parsing / text I/O ------------------------------------------------------

_TOKEN = re.compile(r"([OU])([0-9]+)([+-])\Z")


def parse_gauss_code(text: str, kind: Kind = "closed") -> GaussDiagram:
    """Parse a Gauss code; see the module docstring for the grammar.

    Raises :class:`ParseError` naming the offending token for: bad token
    syntax, a label seen twice with the same O/U role, a sign mismatch
    between a label's two tokens, and labels missing their partner.
    """
    ends: dict[str, dict[str, tuple[int, int]]] = {}
    tokens = text.replace(",", " ").split()
    for slot, tok in enumerate(tokens):
        m = _TOKEN.match(tok)
        if not m:
            raise ParseError(f"bad token {tok!r}: expected O<label>+/- or U<label>+/-")
        role_ch, label, sign_ch = m.groups()
        role = TAIL if role_ch == "O" else HEAD
        sign = 1 if sign_ch == "+" else -1
        rec = ends.setdefault(label, {})
        if role in rec:
            raise ParseError(f"token {tok!r}: label {label} already has an {role_ch} endpoint")
        rec[role] = (slot, sign)
    chords = []
    for label, rec in ends.items():
        if TAIL not in rec or HEAD not in rec:
            raise ParseError(f"label {label}: missing its {'U' if HEAD not in rec else 'O'} token")
        (tslot, tsign), (hslot, hsign) = rec[TAIL], rec[HEAD]
        if tsign != hsign:
            raise ParseError(f"label {label}: sign mismatch between its O and U tokens")
        chords.append(Chord(int(label), tslot, hslot, tsign))
    return GaussDiagram(kind, chords)


def read_diagram_file(text: str, default_kind: Kind = "closed") -> list[GaussDiagram]:
    """Parse a diagram file: one code per line, ``#`` comments, optional
    ``long:`` / ``closed:`` prefix per line (default closed)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = default_kind
        for prefix in ("long:", "closed:"):
            if line.startswith(prefix):
                kind = prefix[:-1]  # type: ignore[assignment]
                line = line[len(prefix):].strip()
                break
        try:
            out.append(parse_gauss_code(line, kind))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return out


# -- basepoint plumbing -------------------------------------------------------


def virtualize(diagram: GaussDiagram, chord_id: int) -> GaussDiagram:
    """Replace the real crossing of ``chord_id`` by a virtual one.

    On Gauss diagrams this simply deletes the chord (virtual crossings carry
    no chord); slots are renormalized.
    """
    return diagram.delete_chords([chord_id])


def cut(diagram: GaussDiagram, slot: int) -> GaussDiagram:
    """Cut a closed diagram just before ``slot``, producing a long diagram."""
    if diagram.kind != "closed":
        raise DiagramError("cut expects a closed diagram")
    if not 0 <= slot <= diagram.slot_count:
        raise DiagramError(f"cut position {slot} outside [0, {diagram.slot_count}]")
    m = diagram.slot_count
    if m == 0:
        return GaussDiagram("long", ())
    return GaussDiagram(
        "long",
        (
            Chord(c.id, (c.tail - slot) % m, (c.head - slot) % m, c.sign)
            for c in diagram.chords
        ),
    )


def reclose(diagram: GaussDiagram) -> GaussDiagram:
    """Forget the basepoint of a long diagram (inverse of :func:`cut` up to rotation)."""
    if diagram.kind != "long":
        raise DiagramError("reclose expects a long diagram")
    return GaussDiagram("closed", diagram.chords)


def concat_long(first: GaussDiagram, second: GaussDiagram) -> GaussDiagram:
    """Connected sum of long diagrams: ``second`` is appended after ``first``."""
    if first.kind != "long" or second.kind != "long":
        raise DiagramError("concat_long expects two long diagrams")
    shift = first.slot_count
    bump = max((c.id for c in first.chords), default=0)
    chords = list(first.chords) + [
        Chord(c.id + bump, c.tail + shift, c.head + shift, c.sign)
        for c in second.chords
    ]
    return GaussDiagram("long", chords)
