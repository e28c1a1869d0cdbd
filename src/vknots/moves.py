"""Generalized Reidemeister moves on Gauss diagrams.

Only the classical moves R1, R2, R3 act nontrivially on a Gauss diagram;
the virtual and mixed moves of the generalized calculus are identities
there and are never emitted.  The forbidden moves Fo and Fu are not
Reidemeister moves; one site recognizer, :func:`_sites_at`, reads them
together with R1_del, R2_del and R3 (see docs/moves.md).  It reads a
diagram's packed slot cells (``vknots.diagram``), not its chords, and so
do the searches, :func:`simplify` here and
``forbidden.trivialize_forbidden``: a search node is a cell tuple, a child
is one slot-order rewrite of its parent's cells (:func:`_slot_order`, the
helper :func:`apply_move` also uses), and no node is a ``GaussDiagram``;
:func:`simplify` builds its result by replaying its best trace through
:func:`apply_move`.

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
    DiagramError,
    GaussDiagram,
    Kind,
    follows,
    pair_starts,
    reorder_cells,
    rotation_key,
    virtualize,
)

MOVE_KINDS = (
    "R1_add",
    "R1_del",
    "R2_add",
    "R2_del",
    "R3",
    "virtualize",
    "Fo",
    "Fu",
)

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


def _sites_at(
    kind: Kind, cells: tuple[int, ...], k: int, kinds: Container[str]
) -> list[tuple[str, tuple]]:
    """The R1_del, R2_del, R3, Fo and Fu sites among ``kinds`` whose data
    starts with slot k, that is whose first adjacent pair is (k, k+1), as
    ``(kind, data)`` pairs, read from a diagram's kind and cells (see
    ``vknots.diagram``).

    This is the one recognizer of these sites: :func:`enumerate_moves` and
    the searches call it once per adjacent pair, and :func:`apply_move`
    checks an event against it.  Only R1_del needs one chord at (k, k+1);
    R2_del, R3 and Fo need two tails of distinct chords there, Fu two
    heads.  An R3 site adds the pair holding x's head and z's tail, and the
    pair holding the heads of y and z; its fragment must be in
    :data:`R3_CATALOGUE`.
    """
    m = len(cells)
    if k not in pair_starts(kind, m):  # k is read as given, not modulo m
        return []
    k1 = (k + 1) % m
    a, b = cells[k], cells[k1]
    heads = 2 * m
    if (k + a) % m == k1:
        if "R1_del" not in kinds:
            return []
        return [("R1_del", (k, -1 if a % heads >= m else 1, "OU" if a < heads else "UO"))]
    if (a < heads) != (b < heads):
        return []
    if a >= heads:
        return [("Fu", (k,))] if "Fu" in kinds else []
    s1, s2 = -1 if a >= m else 1, -1 if b >= m else 1
    h1, h2 = (k + a) % m, (k1 + b) % m
    sites = []
    if "R2_del" in kinds and s1 != s2:
        if follows(kind, m, h1, h2):
            sites.append(("R2_del", (k, h1, True, s1)))
        elif follows(kind, m, h2, h1):
            sites.append(("R2_del", (k, h2, False, s1)))
    if "R3" in kinds and m >= 6:
        # x is first the chord with its tail at k, then the one at k + 1;
        # y is the other top chord and z has its tail next to x's head
        for first, hx, hy, sx, sy in (("x", h1, h2, s1, s2), ("y", h2, h1, s2, s1)):
            for km, zt in ((hx, (hx + 1) % m), ((hx - 1) % m, (hx - 1) % m)):
                z = cells[zt]
                if z >= heads or zt in (k, k1) or not follows(kind, m, km, (km + 1) % m):
                    continue
                hz = (zt + z) % m
                if follows(kind, m, hy, hz):
                    kb = hy
                elif follows(kind, m, hz, hy):
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
                    sites.append(("R3", (k, km, kb)))
    if "Fo" in kinds:
        sites.append(("Fo", (k,)))
    return sites


def _site_events(
    kind: Kind, cells: tuple[int, ...], kinds: Container[str]
) -> tuple[list[MoveEvent], list[MoveEvent], list[MoveEvent], list[MoveEvent]]:
    """The R1_del, R2_del and R3 events, and the Fo and Fu events together,
    each list in slot order, among ``kinds``."""
    r1_del, r2_del, r3, forbidden = [], [], [], []
    found = {"R1_del": r1_del, "R2_del": r2_del, "R3": r3, "Fo": forbidden, "Fu": forbidden}
    for k in pair_starts(kind, len(cells)):
        for site, data in _sites_at(kind, cells, k, kinds):
            found[site].append(MoveEvent(site, data))
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
    r1_del, r2_del, r3, forbidden = _site_events(*diagram._eq_key(), kinds)

    m = diagram.slot_count
    gaps = range(m + 1) if diagram.kind == "long" else range(max(m, 1))
    events = r1_del
    if "R1_add" in kinds:
        events += [
            MoveEvent("R1_add", data)
            for data in itertools.product(gaps, (1, -1), ("OU", "UO"))
        ]
    events += r2_del
    if "R2_add" in kinds:
        events += [
            MoveEvent("R2_add", data)
            for data in itertools.product(gaps, gaps, (True, False), (1, -1), (TAIL, HEAD))
        ]
    events += r3
    if "virtualize" in kinds:
        events += [MoveEvent("virtualize", (c.id,)) for c in diagram.chords]
    return events + forbidden


# How many adjacent pair starts lead each slot-local event's data.
_PAIRS = {"R1_del": 1, "R2_del": 2, "R3": 3, "Fo": 1, "Fu": 1}


def _slot_order(m: int, event: MoveEvent) -> list[int]:
    """The old slots of a diagram with m slots, in the order the event
    leaves them: R1_del and R2_del drop their pairs, R3, Fo and Fu swap the
    two ends inside each of theirs.  The event must be a site."""
    starts = event.data[: _PAIRS[event.kind]]
    if event.kind in ("R1_del", "R2_del"):
        dead = {s for k in starts for s in (k, (k + 1) % m)}
        return [s for s in range(m) if s not in dead]
    # an R3 site's six slots are distinct, so its three swaps commute
    order = list(range(m))
    for k in starts:
        order[k], order[(k + 1) % m] = order[(k + 1) % m], order[k]
    return order


# -- application ---------------------------------------------------------------


def apply_move(diagram: GaussDiagram, event: MoveEvent) -> GaussDiagram:
    """Rewrite ``diagram`` at the event's site; raises MoveError when stale."""
    kind = event.kind

    if kind in _PAIRS:
        if (kind, event.data) not in _sites_at(*diagram._eq_key(), event.data[0], (kind,)):
            raise MoveError(f"{kind}: {event.data} is not a {kind} site of the diagram")
        return diagram._reordered(_slot_order(diagram.slot_count, event))

    if kind == "R1_add":
        g, sign, orient = event.data
        roles = (TAIL, HEAD) if orient == "OU" else (HEAD, TAIL)
        return diagram.insert_endpoints(
            [(g, 0, roles[0], sign), (g, 0, roles[1], sign)]
        )

    if kind == "R2_add":
        g1, g2, par, sign_first, roles1 = event.data
        roles2 = HEAD if roles1 == TAIL else TAIL
        pair2 = [(g2, 0, roles2, sign_first), (g2, 1, roles2, -sign_first)]
        if not par:
            pair2.reverse()
        return diagram.insert_endpoints(
            [(g1, 0, roles1, sign_first), (g1, 1, roles1, -sign_first)] + pair2
        )

    if kind == "virtualize":
        return virtualize(diagram, *event.data)

    raise MoveError(f"unknown move kind {kind!r}")


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

    A search node is a diagram's cells, and a child is one slot-order
    rewrite of its parent's (see docs/moves.md, "Search representation").
    The returned diagram is the input with the best trace replayed through
    :func:`apply_move`, so it carries the input's chord ids.
    """
    if budget < 0:
        raise MoveError("simplify budget must be >= 0")

    kind, cells = diagram._eq_key()
    best_m = len(cells)
    best_trace: list[MoveEvent] = []
    seen = {rotation_key(kind, cells)}
    queue: deque[tuple[tuple[int, ...], list[MoveEvent]]] = deque([(cells, [])])
    expanded = deduplicated = 0
    while queue and expanded < budget and best_m > 0:
        current, trace = queue.popleft()
        expanded += 1
        m = len(current)
        r1_del, r2_del, r3, _ = _site_events(kind, current, REDUCING_KINDS)
        for event in r1_del + r2_del + r3:
            child = reorder_cells(current, _slot_order(m, event))
            key = rotation_key(kind, child)
            if key in seen:
                deduplicated += 1
                continue
            seen.add(key)
            child_trace = trace + [event]
            if len(child) < best_m:
                best_m, best_trace = len(child), child_trace
                if best_m == 0:
                    break
            queue.append((child, child_trace))
    if stats is not None:
        stats.budget_spent = bool(queue) and best_m > 0
        stats.expanded = expanded
        stats.deduplicated = deduplicated
    return apply_trace(diagram, best_trace), best_trace
