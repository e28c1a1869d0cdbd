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
under-passage (head).  A label is read as the chord id it names, so
``O01+`` and ``O1+`` are endpoints of the same chord 1.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from operator import itemgetter
from typing import Container, Iterable, Literal

Kind = Literal["closed", "long"]

TAIL = "t"
HEAD = "h"


class DiagramError(ValueError):
    """Raised when an operation's precondition on a diagram fails, and the
    base of every refusal of outside input: the parse, move, family, arrow,
    braid and cap errors all derive from it, and the CLI answers each with
    exit 1 (2 for :class:`~vknots.khovanov.CapExceeded`) and one stderr
    line."""


class ParseError(DiagramError):
    """Raised for malformed Gauss code text; the message names the offending token."""


def load_json(data: bytes | str, what: str, error: type[DiagramError]) -> object:
    """``json.loads(data)``, refusing with ``error`` and the message "<what>
    is not valid JSON: ..." whatever ``json`` refuses: text that is not
    JSON, bytes that are not UTF-8, an int past the digit limit, and
    nesting past the recursion limit."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


class Chord(namedtuple("Chord", "id tail head sign")):
    """One real crossing: directed (tail = over, head = under) and signed.

    An immutable tuple ``(id, tail, head, sign)`` of ints, so it orders,
    hashes and compares as that tuple does (equal to a plain 4-tuple of
    the same fields)."""

    __slots__ = ()

    def __new__(cls, id: int, tail: int, head: int, sign: int) -> Chord:
        if not (type(id) is int and type(tail) is int and type(head) is int
                and type(sign) is int):
            for name, value in zip(cls._fields, (id, tail, head, sign)):
                if type(value) is not int:
                    raise DiagramError(
                        f"chord {id!r}: {name} must be an int, not {type(value).__name__}")
        if sign != 1 and sign != -1:
            raise DiagramError(f"chord {id}: sign must be +1 or -1")
        if tail == head:
            raise DiagramError(f"chord {id}: tail and head occupy the same slot")
        return tuple.__new__(cls, (id, tail, head, sign))

    @classmethod
    def _make(cls, fields: Iterable[int]) -> Chord:
        # namedtuple's _make (and _replace through it) would skip __new__
        return cls(*fields)

    def other(self, slot: int) -> int:
        if slot == self.tail:
            return self.head
        if slot == self.head:
            return self.tail
        raise DiagramError(f"slot {slot} is not an endpoint of chord {self.id}")


_ID = itemgetter(0)


class GaussDiagram:
    """Immutable Gauss diagram.

    Equality and hashing ignore chord ids: two diagrams are equal when
    their kinds agree and slot by slot their (role, sign, offset to the
    other end) cells do.  The key ``(kind, cells)`` is built on the first
    ``==`` or ``hash`` and kept; a diagram never compared costs nothing
    for it.  Closed diagrams additionally expose :meth:`canonical_code`,
    the least code over all rotations, for comparison of based circles up
    to rotation; :func:`rotation_key` of the key, the least rotation of the
    cells, has the same equality and is cheaper to build.  Chord ids are
    ints: :meth:`chord` reads every id and refuses a bool or a float.
    """

    __slots__ = ("kind", "chords", "_ends", "_by_id", "_key")

    def __init__(self, kind: Kind, chords: Iterable[Chord]):
        if kind not in ("closed", "long"):
            raise DiagramError(f"unknown diagram kind {kind!r}")
        chords = tuple(sorted(chords, key=_ID))
        m = 2 * len(chords)
        by_id: dict[int, Chord] = {}
        # slot s holds the tail of chords[e >> 1] when e = ends[s] is even,
        # and its head when e is odd
        ends = [-1] * m
        for idx, c in enumerate(chords):
            cid, tail, head, _ = c
            if cid in by_id:
                raise DiagramError(f"duplicate chord id {cid}")
            by_id[cid] = c
            if not 0 <= tail < m:
                raise DiagramError(f"chord {cid}: slot {tail} outside [0, {m})")
            if ends[tail] >= 0:
                raise DiagramError(f"slot {tail} used by two endpoints")
            ends[tail] = 2 * idx
            if not 0 <= head < m:
                raise DiagramError(f"chord {cid}: slot {head} outside [0, {m})")
            if ends[head] >= 0:
                raise DiagramError(f"slot {head} used by two endpoints")
            ends[head] = 2 * idx + 1
        self.kind: Kind = kind
        self.chords: tuple[Chord, ...] = chords
        self._ends = ends
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
        """The chord of ``chord_id``; raises DiagramError for an id that is
        not an int (a bool is not) and then for an unknown one."""
        if type(chord_id) is not int:
            raise DiagramError(f"chord id must be an int, not {type(chord_id).__name__}")
        try:
            return self._by_id[chord_id]
        except KeyError:
            raise DiagramError(f"unknown chord id {chord_id}") from None

    def chord_ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.chords)

    def at(self, slot: int) -> tuple[Chord, str]:
        """(chord, role) of the endpoint in ``slot``; role is 't' or 'h'."""
        try:
            end = self._ends[slot % len(self._ends)]
        except ZeroDivisionError:
            raise DiagramError(f"slot {slot}: the empty diagram has no slots") from None
        return self.chords[end >> 1], HEAD if end & 1 else TAIL

    # -- equality up to id relabeling --------------------------------------

    def _eq_key(self) -> tuple:
        """``(kind, cells)``: slot s is one int packing (role, sign, (other
        end - s) % 2n), tails below heads (the cell format is spelled out
        above :func:`pair_starts`).  Built once and kept."""
        if self._key is None:
            m = len(self._ends)
            cells = [0] * m
            for _, tail, head, sign in self.chords:
                s = m if sign < 0 else 0
                cells[tail] = s + (head - tail) % m
                cells[head] = 2 * m + s + (tail - head) % m
            self._key = (self.kind, tuple(cells))
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
        signs = ["+" if c.sign > 0 else "-" for c in self.chords]
        seen: dict[int, int] = {}
        tokens = []
        for end in self._ends:
            idx = end >> 1
            label = seen.setdefault(idx, len(seen) + 1)
            tokens.append(("U" if end & 1 else "O") + str(label) + signs[idx])
        return " ".join(tokens)

    def canonical_code(self) -> str:
        """The least code over all rotations for a closed diagram; plain
        code for a long or empty one."""
        if self.kind == "long" or self.n == 0:
            return self.code()
        return min(self.rotated(r).code() for r in range(self.slot_count))

    def rotated(self, r: int) -> GaussDiagram:
        """Closed diagram re-based so that old slot r becomes slot 0."""
        if self.kind != "closed":
            raise DiagramError("only closed diagrams can be rotated")
        m = self.slot_count
        return self._moved([(s - r) % m for s in range(m)])

    # -- chord surgery ------------------------------------------------------

    def delete_chords(self, ids: Iterable[int]) -> GaussDiagram:
        """Remove the chords of ``ids``, read by :meth:`chord`; slots are compacted in order."""
        dead = {s for c in map(self.chord, ids) for s in (c.tail, c.head)}
        return self._moved(_drop_map(self.slot_count, dead))

    def _moved(self, where: list[int], added: Iterable[Chord] = ()) -> GaussDiagram:
        """The diagram whose slot ``where[s]`` holds the endpoint of old
        slot s, plus the chords ``added`` in the slots ``where`` leaves
        free; a chord with both ends at -1 is dropped, and one with one
        end at -1 is refused.  Chords that keep their slots are reused."""
        chords = [
            c
            if where[c.tail] == c.tail and where[c.head] == c.head
            else Chord(c.id, where[c.tail], where[c.head], c.sign)
            for c in self.chords
            if where[c.tail] >= 0 or where[c.head] >= 0
        ]
        chords += added
        return GaussDiagram(self.kind, chords)


# -- slot adjacency and cells ---------------------------------------------------
#
# A diagram's cells (``GaussDiagram._eq_key``) hold all of it but its chord
# ids: the cell of slot s of m is ``q * m + (other end - s) % m``, with q = 0
# for a positive tail, 1 for a negative tail, 2 for a positive head and 3
# for a negative head.  So ``cell // m`` is the role and sign, ``cell >= 2 * m``
# marks a head, ``cell % (2 * m) >= m`` a negative chord, and the other end
# is ``(s + cell) % m``.  The move searches keep their nodes as cells.


def pair_starts(kind: Kind, m: int) -> range:
    """Start slots k of the adjacent slot pairs (k, k+1) of a diagram with
    m slots: cyclic for closed, linear for long.  A 1-chord closed diagram
    has one pair, not two."""
    if kind == "long" or m == 2:
        return range(max(m - 1, 0))
    return range(m)


def _drop_map(m: int, dead: Container[int]) -> list[int]:
    """The old -> new slot map of m slots that drops the slots in ``dead``
    and keeps the others in order: ``where[s]`` is -1 for a dropped slot."""
    where = [-1] * m
    i = 0
    for s in range(m):
        if s not in dead:
            where[s] = i
            i += 1
    return where


def rotation_key(kind: Kind, cells: tuple[int, ...]) -> tuple:
    """Relabel-free search key of a diagram from its cells: a closed
    diagram's is the least rotation of the cells, which starts at a least
    cell; a long one's is ``(kind, cells)`` itself."""
    if kind == "long" or not cells:
        return kind, cells
    low = min(cells)
    return kind, min(cells[r:] + cells[:r] for r in range(len(cells)) if cells[r] == low)


# -- parsing / text I/O ------------------------------------------------------

# [0-9], not \d: a label is ASCII digits.  A code's tokens all match _TOKEN
# exactly when, joined by single spaces, they match _CODE.
_TOKEN_SYNTAX = r"[OU][0-9]+[+-]"
_TOKEN = re.compile(_TOKEN_SYNTAX)
_CODE = re.compile(f"{_TOKEN_SYNTAX}(?: {_TOKEN_SYNTAX})*")
_LABELS = bytes.maketrans(b"OU+-", b"    ")  # a valid code is ASCII


def parse_gauss_code(text: str, kind: Kind = "closed") -> GaussDiagram:
    """Parse a Gauss code; see the module docstring for the grammar.

    Raises :class:`ParseError` naming the offending token for: bad token
    syntax, a label past int's digit limit, a label seen twice with the
    same O/U role, a sign mismatch between a label's two tokens, and
    labels missing their partner.

    The whole code is checked by one regex match and its labels read by
    one ``int`` map; only a refused code is read again token by token, by
    :func:`_token_fault`, to name its first fault.
    """
    tokens = text.replace(",", " ").split()
    joined = " ".join(tokens)
    if tokens and not _CODE.fullmatch(joined):
        raise _token_fault(tokens)
    try:
        labels = list(map(int, joined.encode().translate(_LABELS).split()))
    except ValueError:
        # a label past int's digit limit: raised in token order, after any
        # fault of an earlier token
        raise _token_fault(tokens) from None
    tails: dict[int, int] = {}
    heads: dict[int, int] = {}
    for slot, tok, cid in zip(range(len(tokens)), tokens, labels):
        if tok[0] == "O":
            tails[cid] = slot
        else:
            heads[cid] = slot
    if 2 * len(tails) != len(tokens) or tails.keys() != heads.keys():
        raise _token_fault(tokens)
    chords = []
    for cid, tslot in tails.items():
        hslot = heads[cid]
        sign_ch = tokens[tslot][-1]
        if tokens[hslot][-1] != sign_ch:
            raise _token_fault(tokens)
        chords.append(Chord(cid, tslot, hslot, 1 if sign_ch == "+" else -1))
    return GaussDiagram(kind, chords)


def _token_fault(tokens: list[str]) -> ParseError:
    """The first fault of a refused code, reading its tokens one by one:
    in slot order, a token of bad syntax, a label past int's digit limit or
    the second token of a label with one role; then, labels in order of
    first appearance, a missing partner or a sign mismatch."""
    ends: dict[int, dict[str, str]] = {}
    for tok in tokens:
        if not _TOKEN.fullmatch(tok):
            return ParseError(f"bad token {tok!r}: expected O<label>+/- or U<label>+/-")
        role_ch, label = tok[0], tok[1:-1]
        try:
            rec = ends.setdefault(int(label), {})
        except ValueError:
            return ParseError(
                f"token {tok[:12] + '...'!r}: label of {len(label)} digits is too long")
        if role_ch in rec:
            return ParseError(f"token {tok!r}: label {label} already has an {role_ch} endpoint")
        rec[role_ch] = tok[-1]
    for cid, rec in ends.items():
        if len(rec) < 2:
            return ParseError(f"label {cid}: missing its {'U' if 'U' not in rec else 'O'} token")
        if rec["O"] != rec["U"]:
            return ParseError(f"label {cid}: sign mismatch between its O and U tokens")
    raise AssertionError("a code without a fault")


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
    no chord); slots are renormalized.  The id is read through
    :meth:`GaussDiagram.chord`, so a bool or a float id is refused.
    """
    return diagram.delete_chords([chord_id])


def cut(diagram: GaussDiagram, slot: int) -> GaussDiagram:
    """Cut a closed diagram just before ``slot``, producing a long diagram."""
    if diagram.kind != "closed":
        raise DiagramError("cut expects a closed diagram")
    if not 0 <= slot <= diagram.slot_count:
        raise DiagramError(f"cut position {slot} outside [0, {diagram.slot_count}]")
    return GaussDiagram("long", diagram.rotated(slot).chords)


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
