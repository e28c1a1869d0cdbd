"""Generalized Reidemeister moves on Gauss diagrams.

Only the classical moves R1, R2, R3 act nontrivially on a Gauss diagram;
the virtual and mixed moves of the generalized calculus are identities
there and are never emitted.  The forbidden moves Fo and Fu are not
Reidemeister moves; one site recognizer, :func:`_sites`, reads them
together with R1_del, R2_del and R3 (see docs/moves.md), in one pass over
the pair starts it is given.  It reads a diagram's packed slot cells
(``vknots.diagram``), not its chords, and so do the searches,
:func:`simplify` here and ``forbidden.trivialize_forbidden``: a search
node is a cell tuple, a site is a plain ``(kind, data)`` tuple, and a
child is its parent's cells rewritten by :func:`_child_cells` (a swap
move rewrites only the cells it touches).  No node is a ``GaussDiagram``
and no site a :class:`MoveEvent`; a search builds events only for the
trace it returns, and :func:`simplify` builds its result by replaying
that trace through :func:`apply_move`.

The oriented R3 catalogue is *generated*, not transcribed: three straight
lines in general position (a horizontal top strand over a vertical middle
strand over a diagonal bottom strand) realize every oriented triangle
configuration once the diagonal's slope, the side the top strand passes on,
and the three strand orientations are varied.  Extracting the induced
endpoint orders and crossing signs from that picture yields the complete
set of valid fragments; sliding the strand flips the order inside each of
the three adjacent endpoint pairs and maps the catalogue to itself.  See
docs/moves.md for the resulting table.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

from .diagram import (
    HEAD,
    TAIL,
    Chord,
    DiagramError,
    GaussDiagram,
    Kind,
    _drop_map,
    pair_starts,
    rotation_key,
    virtualize,
)

# The one table of move kinds.  Per kind: the length of its event data,
# how many of its leading fields are ints (slots, gaps or a chord id), and
# how many of those are the starts of the adjacent pairs a slot-local site
# reads (0 for the kinds no recognizer reads).
_SHAPE = {
    "R1_add": (3, 1, 0),
    "R1_del": (3, 1, 1),
    "R2_add": (5, 2, 0),
    "R2_del": (4, 2, 2),
    "R3": (3, 3, 3),
    "virtualize": (1, 1, 0),
    "Fo": (1, 1, 1),
    "Fu": (1, 1, 1),
}

MOVE_KINDS = tuple(_SHAPE)

REDUCING_KINDS = ("R1_del", "R2_del", "R3")


class MoveError(DiagramError):
    """Raised when a move event is not applicable; names the failed precondition."""


@dataclass(frozen=True)
class MoveEvent:
    """A rewriting site.  ``data`` is kind-specific:

    - R1_del:  (slot, sign, orient)        pair (slot, slot+1); orient 'OU'/'UO'
    - R1_add:  (gap, sign, orient)
    - R2_del:  (k1, k2, par, sign_first)   tail pair at k1, head pair at k2
    - R2_add:  (g1, g2, par, sign_first, roles1)
    - R3:      (kt, km, kb)                top / mixed / head pair start slots
    - virtualize: (chord_id,)
    - Fo / Fu: (slot,)                     adjacent tail / head pair exchange

    An add move's gap g lies in [0, 2n]: its new endpoints land before old
    slot g, and endpoints at equal gaps keep the order listed here.
    R1_add's pair at g is (tail, head) for 'OU' and (head, tail) for
    'UO'.  R2_add's pair at g1 holds ``roles1`` ('t' or 'h') for chord 0
    and then chord 1, whose signs are ``sign_first`` and its negative; the
    pair at g2 holds the other role, in the same chord order exactly when
    ``par`` is true.  The new chords' ids start above the largest id.
    """

    kind: str
    data: tuple

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise MoveError(f"unknown move kind {self.kind!r}")


# -- oriented R3 catalogue ----------------------------------------------------
#
# Chord names inside a triangle fragment: x joins the top strand (two tails)
# to the mixed strand, y joins top to the strand with two heads, z joins the
# mixed strand to the head strand.  A fragment is summarized by which chord's
# endpoint comes first inside each adjacent pair, plus the three signs.


def _cross(u: tuple[float, float], v: tuple[float, float]) -> int:
    d = u[0] * v[1] - u[1] * v[0]
    return 1 if d > 0 else -1


def _r3_catalogue() -> frozenset[tuple]:
    entries = set()
    for slope in (1.0, -1.0):
        for y_top in (2.0, -1.0):  # top strand above or below the fixed crossing
            ab = (0.0, y_top)
            ac = (y_top / slope, y_top)
            bc = (0.0, 0.0)
            for a in (1, -1):
                for b in (1, -1):
                    for c in (1, -1):
                        da = (float(a), 0.0)
                        db = (0.0, float(b))
                        dc = (float(c), c * slope)
                        top_first = "x" if a * ab[0] < a * ac[0] else "y"
                        mid_first = "x" if b * ab[1] < b * bc[1] else "z"
                        bot_first = "y" if c * ac[0] < c * bc[0] else "z"
                        entries.add(
                            (
                                top_first,
                                mid_first,
                                bot_first,
                                _cross(da, db),
                                _cross(da, dc),
                                _cross(db, dc),
                            )
                        )
    return frozenset(entries)


R3_CATALOGUE = _r3_catalogue()


# -- recognition and enumeration -------------------------------------------------


def _sites(
    kind: Kind, cells: tuple[int, ...], starts: Iterable[int], kinds: Container[str]
) -> tuple[list, list, list, list]:
    """The R1_del, R2_del and R3 sites, and the Fo and Fu sites together,
    among ``kinds`` whose first adjacent pair (k, k+1) starts at a k of
    ``starts``, as four lists of ``(kind, data)`` pairs in the order of
    ``starts``, read from a diagram's kind and cells (see
    ``vknots.diagram``).  Every k must be a pair start of the diagram
    (``diagram.pair_starts``); it is read as given, not modulo m.

    This is the one recognizer of these sites: :func:`enumerate_moves` and
    the searches pass every pair start, and :func:`apply_move` checks an
    event against the sites at its first slot.  Only R1_del needs one chord
    at (k, k+1); R2_del, R3 and Fo need two tails of distinct chords there,
    Fu two heads.  An R3 site adds the pair holding x's head and z's tail,
    and the pair holding the heads of y and z; its fragment must be in
    :data:`R3_CATALOGUE`.
    """
    m = len(cells)
    heads = 2 * m
    # two distinct chords take m >= 4 slots, and among them slot b follows
    # slot a exactly when (b - a) % period == 1
    period = m if kind == "closed" else m + 1
    want_r1, want_r2 = "R1_del" in kinds, "R2_del" in kinds
    want_r3 = "R3" in kinds and m >= 6
    want_fo, want_fu = "Fo" in kinds, "Fu" in kinds
    r1_del, r2_del, r3, forbidden = [], [], [], []
    for k in starts:
        k1 = (k + 1) % m
        a, b = cells[k], cells[k1]
        if (k + a) % m == k1:
            if want_r1:
                r1_del.append(
                    ("R1_del", (k, -1 if a % heads >= m else 1, "OU" if a < heads else "UO")))
            continue
        if a >= heads or b >= heads:
            if want_fu and a >= heads and b >= heads:
                forbidden.append(("Fu", (k,)))
            continue
        # two tails: a >= m and b >= m mark negative chords
        s1, s2 = -1 if a >= m else 1, -1 if b >= m else 1
        h1, h2 = (k + a) % m, (k1 + b) % m
        if want_r2 and s1 != s2:
            if (h2 - h1) % period == 1:
                r2_del.append(("R2_del", (k, h1, True, s1)))
            elif (h1 - h2) % period == 1:
                r2_del.append(("R2_del", (k, h2, False, s1)))
        if want_r3:
            # x is first the chord with its tail at k, then the one at k + 1;
            # y is the other top chord and z has its tail next to x's head,
            # in the mixed pair (km, km1)
            for first, hx, hy, sx, sy in (("x", h1, h2, s1, s2), ("y", h2, h1, s2, s1)):
                up, down = (hx + 1) % m, (hx - 1) % m
                for km, km1, zt in ((hx, up, up), (down, hx, down)):
                    z = cells[zt]
                    if z >= heads or zt == k or zt == k1 or (km1 - km) % period != 1:
                        continue
                    hz = (zt + z) % m
                    if (hz - hy) % period == 1:
                        kb = hy
                    elif (hy - hz) % period == 1:
                        kb = hz
                    else:
                        continue
                    fragment = (
                        first,
                        "x" if km == hx else "z",
                        "y" if kb == hy else "z",
                        sx,
                        sy,
                        -1 if z >= m else 1,
                    )
                    if fragment in R3_CATALOGUE:
                        r3.append(("R3", (k, km, kb)))
        if want_fo:
            forbidden.append(("Fo", (k,)))
    return r1_del, r2_del, r3, forbidden


def enumerate_moves(
    diagram: GaussDiagram, kinds: Iterable[str] = REDUCING_KINDS
) -> list[MoveEvent]:
    """All applicable sites of the requested kinds, deterministically
    ordered: R1_del, R1_add, R2_del, R2_add, R3, virtualize, then Fo and
    Fu together in slot order."""
    kinds = set(kinds)
    unknown = kinds.difference(MOVE_KINDS)
    if unknown:
        raise MoveError(f"unknown move kinds {sorted(unknown)}")
    m = diagram.slot_count
    r1_del, r2_del, r3, forbidden = _sites(
        *diagram._eq_key(), pair_starts(diagram.kind, m), kinds)

    gaps = range(m + 1) if diagram.kind == "long" else range(max(m, 1))
    events = [MoveEvent(*site) for site in r1_del]
    if "R1_add" in kinds:
        events += [
            MoveEvent("R1_add", data)
            for data in itertools.product(gaps, (1, -1), ("OU", "UO"))
        ]
    events += [MoveEvent(*site) for site in r2_del]
    if "R2_add" in kinds:
        events += [
            MoveEvent("R2_add", data)
            for data in itertools.product(gaps, gaps, (True, False), (1, -1), (TAIL, HEAD))
        ]
    events += [MoveEvent(*site) for site in r3]
    if "virtualize" in kinds:
        events += [MoveEvent("virtualize", (c.id,)) for c in diagram.chords]
    return events + [MoveEvent(*site) for site in forbidden]


def _slot_map(m: int, kind: str, data: tuple) -> list[int]:
    """Where a site's move sends each old slot of a diagram with m slots:
    ``where[s]`` is the new slot of old slot s, or -1 when the move drops
    it.  R1_del and R2_del drop their pairs and keep the other slots in
    order; R3, Fo and Fu swap the two ends inside each of theirs.
    ``(kind, data)`` must be a site."""
    starts = data[: _SHAPE[kind][2]]
    if kind == "R1_del" or kind == "R2_del":
        return _drop_map(m, {s for k in starts for s in (k, (k + 1) % m)})
    # an R3 site's six slots are distinct, so its three swaps commute
    where = list(range(m))
    for k in starts:
        where[k], where[(k + 1) % m] = (k + 1) % m, k
    return where


def _child_cells(cells: tuple[int, ...], site: tuple[str, tuple]) -> tuple[int, ...]:
    """The cells of the diagram a site's move leaves, equal to the cells of
    :func:`apply_move`'s result.  An R1_del or R2_del child's cell at new
    slot ``where[s]`` is read off :func:`_slot_map` as old slot s's role
    and sign with the new offset to its other end.  An R3, Fo or Fu child
    keeps m slots and rewrites only the cells of its swapped slots and of
    their partners: every data field of these kinds is a pair start."""
    kind, data = site
    m = len(cells)
    if kind == "R1_del" or kind == "R2_del":
        where = _slot_map(m, kind, data)
        k = m - 2 * _SHAPE[kind][2]
        # a loop, not a comprehension: a closure would turn this function's
        # locals into cells and slow down the swap branch below
        child = []
        for s, w in enumerate(where):
            if w >= 0:
                c = cells[s]
                child.append(c // m * k + (where[(s + c) % m] - w) % k)
        return tuple(child)
    moved = {}  # old slot -> new slot
    for k in data:
        k1 = (k + 1) % m
        moved[k], moved[k1] = k1, k
    child = list(cells)
    for s, t in moved.items():
        c = cells[s]
        o = (s + c) % m
        if o in moved:
            child[t] = c - c % m + (moved[o] - t) % m
        else:
            child[t] = c - c % m + (o - t) % m
            c = cells[o]
            child[o] = c - c % m + (t - o) % m
    return tuple(child)


# -- application ---------------------------------------------------------------


def apply_move(diagram: GaussDiagram, event: MoveEvent) -> GaussDiagram:
    """Rewrite ``diagram`` at the event's site.  Raises MoveError naming
    the event, before any rewrite, when its data is malformed (the wrong
    length; a slot, gap or chord id that is not an int, since a bool is
    not one; a gap outside [0, 2n]; an add-move sign other than the int 1
    or -1; an R1_add orient other than 'OU' or 'UO'; an R2_add parity
    that is not a bool or a role other than 't' or 'h'; a virtualized
    chord id that the diagram does not have) and when the event is not a
    site of the diagram."""
    kind, data = event.kind, event.data
    length, ints, pairs = _SHAPE[kind]
    adds = kind == "R1_add" or kind == "R2_add"
    m = diagram.slot_count
    if (
        not isinstance(data, tuple)
        or len(data) != length
        or not all(type(x) is int for x in data[:ints])
    ):
        fault = f"want a tuple of {length} fields, the first {ints} of them ints"
    elif adds and (min(data[:ints]) < 0 or max(data[:ints]) > m):
        fault = f"its gaps must lie in [0, {m}]"
    # an add move's sign is its last field but one
    elif adds and (type(data[-2]) is not int or data[-2] not in (1, -1)):
        fault = "its sign must be the int 1 or -1"
    elif kind == "R1_add" and data[2] not in ("OU", "UO"):
        fault = "its orient must be 'OU' or 'UO'"
    elif kind == "R2_add" and type(data[2]) is not bool:
        fault = "its parity must be a bool"
    elif kind == "R2_add" and data[4] not in (TAIL, HEAD):
        fault = "its role must be 't' or 'h'"
    elif kind == "virtualize" and data[0] not in diagram._by_id:
        fault = f"unknown chord id {data[0]}"
    else:
        fault = None
    if fault:
        raise MoveError(f"{kind}: malformed data {data!r}: {fault}")

    if pairs:
        k = data[0]
        dkind, cells = diagram._eq_key()
        if k not in pair_starts(dkind, m) or (kind, data) not in itertools.chain(
            *_sites(dkind, cells, (k,), (kind,))
        ):
            raise MoveError(f"{kind}: {data} is not a {kind} site of the diagram")
        return diagram._moved(_slot_map(m, kind, data))

    if kind == "virtualize":
        return virtualize(diagram, *data)

    if kind == "R1_add":
        g, sign, orient = data
        return _added(diagram, (g, g), [(0, 1, sign) if orient == "OU" else (1, 0, sign)])
    g1, g2, par, sign, roles1 = data
    # endpoints 0 and 1 at g1 belong to chords 0 and 1, and so do
    # endpoints 2 and 3 at g2 when par (3 and 2 when not)
    new = [(0, 2 if par else 3, sign), (1, 3 if par else 2, -sign)]
    if roles1 == HEAD:
        new = [(h, t, s) for t, h, s in new]
    return _added(diagram, (g1, g1, g2, g2), new)


def _added(
    diagram: GaussDiagram, gaps: tuple[int, ...], new: list[tuple[int, int, int]]
) -> GaussDiagram:
    """``diagram`` with new endpoint i placed before old slot ``gaps[i]``,
    equal gaps in order of i, and the new chords ``new`` given as (tail
    i, head i, sign), with ids above the largest id.  Old slot s moves to
    ``s + #(gaps <= s)``, and endpoint i to ``gaps[i]`` plus its rank in a
    stable sort of the gaps.  A function of its own, so that its
    comprehensions do not turn :func:`apply_move`'s locals into cells,
    which would slow every event."""
    order = sorted(range(len(gaps)), key=gaps.__getitem__)
    at = [g + order.index(i) for i, g in enumerate(gaps)]
    top = max((c.id for c in diagram.chords), default=0)
    return diagram._moved(
        [s + sum(g <= s for g in gaps) for s in range(diagram.slot_count)],
        [Chord(top + j, at[t], at[h], s) for j, (t, h, s) in enumerate(new, 1)],
    )


def apply_trace(diagram: GaussDiagram, events: Sequence[MoveEvent]) -> GaussDiagram:
    for e in events:
        diagram = apply_move(diagram, e)
    return diagram


# -- simplification search ------------------------------------------------------


@dataclass
class SearchStats:
    """What a :func:`simplify` call that was handed this object did:
    ``expanded`` nodes it expanded, ``deduplicated`` children it dropped
    because their search key was already seen, and ``budget_spent`` True
    when the node budget ran out with nodes still queued and the diagram
    not emptied.  ``forbidden.trivialize_forbidden`` fills it in too."""

    budget_spent: bool = False
    expanded: int = 0
    deduplicated: int = 0


def simplify(
    diagram: GaussDiagram, budget: int = 2000, stats: SearchStats | None = None
) -> tuple[GaussDiagram, list[MoveEvent]]:
    """Greedy chord-count descent by breadth-first search over R1/R2
    deletions and R3 slides.

    Returns the best diagram found (never more chords than the input) and a
    replayable move trace reaching it.  ``budget`` caps the number of nodes
    expanded; exhaustion returns the best found so far.  When ``stats`` is
    given, the call fills it in.  Deterministic for a fixed site ordering.

    A search node is a diagram's cells, a child is :func:`_child_cells` of
    its parent's, and a node's trace is a linked list of ``(kind, data)``
    sites ending in its parent's, turned into events only for the best
    trace (see docs/moves.md, "Search representation").  The returned
    diagram is the input with the best trace replayed through
    :func:`apply_move`, so it carries the input's chord ids.
    """
    if budget < 0:
        raise MoveError("simplify budget must be >= 0")

    kind, cells = diagram._eq_key()
    best_m = len(cells)
    # a node's trace is a linked list of sites, (last site, parent's trace)
    best: tuple | None = None
    seen = {rotation_key(kind, cells)}
    queue: deque[tuple[tuple[int, ...], tuple | None]] = deque([(cells, None)])
    expanded = deduplicated = 0
    while queue and expanded < budget and best_m > 0:
        current, trace = queue.popleft()
        expanded += 1
        r1_del, r2_del, r3, _ = _sites(
            kind, current, pair_starts(kind, len(current)), REDUCING_KINDS)
        for site in r1_del + r2_del + r3:
            child = _child_cells(current, site)
            key = rotation_key(kind, child)
            if key in seen:
                deduplicated += 1
                continue
            seen.add(key)
            child_trace = (site, trace)
            if len(child) < best_m:
                best_m, best = len(child), child_trace
                if best_m == 0:
                    break
            queue.append((child, child_trace))
    if stats is not None:
        stats.budget_spent = bool(queue) and best_m > 0
        stats.expanded = expanded
        stats.deduplicated = deduplicated
    best_trace = []
    while best is not None:
        site, best = best
        best_trace.append(MoveEvent(*site))
    best_trace.reverse()
    return apply_trace(diagram, best_trace), best_trace
