"""Generalized Reidemeister moves on Gauss diagrams.

Only the classical moves R1, R2, R3 act nontrivially on a Gauss diagram;
the virtual and mixed moves of the generalized calculus are identities
there and are never emitted.

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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .diagram import HEAD, TAIL, Chord, DiagramError, GaussDiagram

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

R_KINDS = frozenset({"R1_add", "R1_del", "R2_add", "R2_del", "R3"})
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


def _r3_fragment(diagram: GaussDiagram, kt: int, km: int, kb: int):
    """Fragment summary of the three adjacent pairs, or None if malformed."""
    m = diagram.slot_count
    pairs = []
    for k in (kt, km, kb):
        if diagram.kind == "long" and not 0 <= k < m - 1:
            return None
        pairs.append((diagram.at(k), diagram.at((k + 1) % m)))
    (t1, t2), (m1, m2), (b1, b2) = pairs
    if {t1[1], t2[1]} != {TAIL} or {b1[1], b2[1]} != {HEAD}:
        return None
    if {m1[1], m2[1]} != {TAIL, HEAD}:
        return None
    top_ids = {t1[0].id, t2[0].id}
    if len(top_ids) != 2:
        return None
    cx = m1[0] if m1[1] == HEAD else m2[0]
    cz = m1[0] if m1[1] == TAIL else m2[0]
    if cx.id not in top_ids or cz.id in top_ids:
        return None
    cy_id = next(cid for cid in top_ids if cid != cx.id)
    if {b1[0].id, b2[0].id} != {cy_id, cz.id}:
        return None
    cy = diagram.chord(cy_id)
    used = {kt, (kt + 1) % m, km, (km + 1) % m, kb, (kb + 1) % m}
    if len(used) != 6:
        return None
    top_first = "x" if t1[0].id == cx.id else "y"
    mid_first = "x" if m1[1] == HEAD else "z"
    bot_first = "y" if b1[0].id == cy.id else "z"
    return (top_first, mid_first, bot_first, cx.sign, cy.sign, cz.sign), (cx, cy, cz)


# -- enumeration ---------------------------------------------------------------


def enumerate_moves(
    diagram: GaussDiagram, kinds: Iterable[str] = REDUCING_KINDS
) -> list[MoveEvent]:
    """All applicable sites of the requested kinds, deterministically ordered."""
    kinds = set(kinds)
    unknown = kinds.difference(MOVE_KINDS)
    if unknown:
        raise MoveError(f"unknown move kinds {sorted(unknown)}")
    events: list[MoveEvent] = []
    m = diagram.slot_count

    if "R1_del" in kinds:
        for k in diagram.adjacent_pairs():
            (c1, r1), (c2, r2) = diagram.at(k), diagram.at((k + 1) % m)
            if c1.id == c2.id:
                orient = "OU" if r1 == TAIL else "UO"
                events.append(MoveEvent("R1_del", (k, c1.sign, orient)))

    if "R1_add" in kinds:
        gaps = range(m + 1) if diagram.kind == "long" else range(max(m, 1))
        for g in gaps:
            for sign in (1, -1):
                for orient in ("OU", "UO"):
                    events.append(MoveEvent("R1_add", (g, sign, orient)))

    if "R2_del" in kinds:
        for k in diagram.adjacent_pairs():
            (c1, r1), (c2, r2) = diagram.at(k), diagram.at((k + 1) % m)
            if r1 != TAIL or r2 != TAIL or c1.id == c2.id or c1.sign == c2.sign:
                continue
            if diagram.is_adjacent(c1.head, c2.head):
                events.append(MoveEvent("R2_del", (k, c1.head, True, c1.sign)))
            elif diagram.is_adjacent(c2.head, c1.head):
                events.append(MoveEvent("R2_del", (k, c2.head, False, c1.sign)))

    if "R2_add" in kinds:
        gaps = range(m + 1) if diagram.kind == "long" else range(max(m, 1))
        for g1 in gaps:
            for g2 in gaps:
                for par in (True, False):
                    for sign in (1, -1):
                        for roles1 in (TAIL, HEAD):
                            events.append(
                                MoveEvent("R2_add", (g1, g2, par, sign, roles1))
                            )

    if "R3" in kinds and m >= 6:
        for kt in diagram.adjacent_pairs():
            (c1, r1), (c2, r2) = diagram.at(kt), diagram.at((kt + 1) % m)
            if r1 != TAIL or r2 != TAIL or c1.id == c2.id:
                continue
            for cx, cy in ((c1, c2), (c2, c1)):
                hx = cx.head
                for km in (hx, (hx - 1) % m):
                    if diagram.kind == "long" and not 0 <= km < m - 1:
                        continue
                    partner = (km + 1) % m if km == hx else km
                    cz, rz = diagram.at(partner)
                    if rz != TAIL or cz.id in (cx.id, cy.id):
                        continue
                    hy, hz = cy.head, cz.head
                    if diagram.is_adjacent(hy, hz):
                        kb = hy
                    elif diagram.is_adjacent(hz, hy):
                        kb = hz
                    else:
                        continue
                    frag = _r3_fragment(diagram, kt, km, kb)
                    if frag is not None and frag[0] in R3_CATALOGUE:
                        events.append(MoveEvent("R3", (kt, km, kb)))

    if "virtualize" in kinds:
        for c in diagram.chords:
            events.append(MoveEvent("virtualize", (c.id,)))

    if "Fo" in kinds or "Fu" in kinds:
        for k in diagram.adjacent_pairs():
            (c1, r1), (c2, r2) = diagram.at(k), diagram.at((k + 1) % m)
            if c1.id == c2.id or r1 != r2:
                continue
            kind = "Fo" if r1 == TAIL else "Fu"
            if kind in kinds:
                events.append(MoveEvent(kind, (k,)))

    seen = set()
    unique = []
    for e in events:
        if e not in seen:
            seen.add(e)
            unique.append(e)
    return unique


# -- application ---------------------------------------------------------------


def apply_move(diagram: GaussDiagram, event: MoveEvent) -> GaussDiagram:
    """Rewrite ``diagram`` at the event's site; raises MoveError when stale."""
    m = diagram.slot_count
    kind = event.kind

    if kind == "R1_del":
        k, sign, orient = event.data
        if not (0 <= k < m and diagram.is_adjacent(k, (k + 1) % m)):
            raise MoveError(f"R1_del: no adjacent pair starts at slot {k}")
        (c1, r1), (c2, _) = diagram.at(k), diagram.at((k + 1) % m)
        if c1.id != c2.id:
            raise MoveError(f"R1_del: slots {k},{k + 1} belong to different chords")
        if c1.sign != sign or ("OU" if r1 == TAIL else "UO") != orient:
            raise MoveError("R1_del: recorded sign/orientation do not match the chord")
        return diagram.delete_chords([c1.id])

    if kind == "R1_add":
        g, sign, orient = event.data
        roles = (TAIL, HEAD) if orient == "OU" else (HEAD, TAIL)
        return diagram.insert_endpoints(
            [(g, 0, roles[0], sign), (g, 0, roles[1], sign)]
        )

    if kind == "R2_del":
        k1, k2, par, sign_first = event.data
        for k in (k1, k2):
            if not (0 <= k < m and diagram.is_adjacent(k, (k + 1) % m)):
                raise MoveError(f"R2_del: no adjacent pair starts at slot {k}")
        (c1, r1), (c2, r2) = diagram.at(k1), diagram.at((k1 + 1) % m)
        if r1 != TAIL or r2 != TAIL or c1.id == c2.id:
            raise MoveError("R2_del: slots do not hold tails of two distinct chords")
        if c1.sign != sign_first or c2.sign != -sign_first:
            raise MoveError("R2_del: chord signs are not opposite as recorded")
        heads = (c1.head, c2.head) if par else (c2.head, c1.head)
        if heads != (k2, (k2 + 1) % m):
            raise MoveError("R2_del: head pair does not match the recorded variant")
        return diagram.delete_chords([c1.id, c2.id])

    if kind == "R2_add":
        g1, g2, par, sign_first, roles1 = event.data
        roles2 = HEAD if roles1 == TAIL else TAIL
        pair2 = [(g2, 0, roles2, sign_first), (g2, 1, roles2, -sign_first)]
        if not par:
            pair2.reverse()
        return diagram.insert_endpoints(
            [(g1, 0, roles1, sign_first), (g1, 1, roles1, -sign_first)] + pair2
        )

    if kind == "R3":
        kt, km, kb = event.data
        frag = _r3_fragment(diagram, kt, km, kb)
        if frag is None:
            raise MoveError("R3: slots do not form a triangle fragment")
        if frag[0] not in R3_CATALOGUE:
            raise MoveError("R3: fragment is not an oriented R3 configuration")
        # the six slots are distinct, so the three adjacent transpositions
        # commute and one trade applies them all
        trade = {}
        for k in (kt, km, kb):
            trade[k], trade[(k + 1) % m] = (k + 1) % m, k
        return diagram._traded(trade)

    if kind == "virtualize":
        (chord_id,) = event.data
        return diagram.delete_chords([chord_id])

    if kind in ("Fo", "Fu"):
        (k,) = event.data
        if not (0 <= k < m and diagram.is_adjacent(k, (k + 1) % m)):
            raise MoveError(f"{kind}: no adjacent pair starts at slot {k}")
        (c1, r1), (c2, r2) = diagram.at(k), diagram.at((k + 1) % m)
        want = TAIL if kind == "Fo" else HEAD
        if c1.id == c2.id or r1 != want or r2 != want:
            raise MoveError(f"{kind}: slots {k},{k + 1} are not a {kind} triangle")
        return diagram.swap_slots(k, (k + 1) % m)

    raise MoveError(f"unknown move kind {kind!r}")


def inverse_event(diagram: GaussDiagram, event: MoveEvent) -> MoveEvent:
    """Event undoing ``event`` on ``apply_move(diagram, event)``.

    For closed diagrams a deletion whose slot pair wraps past slot 0 is
    undone only up to rotation (the re-insertion lands at the end).
    """
    m = diagram.slot_count
    kind = event.kind
    if kind == "R1_add":
        g, sign, orient = event.data
        return MoveEvent("R1_del", (g, sign, orient))
    if kind == "R1_del":
        k, sign, orient = event.data
        gap = m - 2 if (k + 1) >= m else k
        return MoveEvent("R1_add", (gap, sign, orient))
    if kind == "R2_add":
        g1, g2, par, sign, roles1 = event.data
        if g1 < g2:
            p1, p2 = g1, g2 + 2
        elif g1 > g2:
            p1, p2 = g1 + 2, g2
        else:
            p1, p2 = g1, g1 + 2  # pair1 lands first at a shared gap
        if roles1 == TAIL:
            return MoveEvent("R2_del", (p1, p2, par, sign))
        return MoveEvent("R2_del", (p2, p1, par, sign if par else -sign))
    if kind == "R2_del":
        k1, k2, par, sign = event.data
        wrap_tails = k1 + 1 >= m
        wrap_heads = k2 + 1 >= m
        dead = sorted({k1, (k1 + 1) % m, k2, (k2 + 1) % m})

        def gap_for(k: int, wraps: bool) -> int:
            if wraps:
                return m - 4
            return k - sum(1 for d in dead if d < k)

        g1 = gap_for(k1, wrap_tails)
        g2 = gap_for(k2, wrap_heads)
        heads_first = g1 == g2 and (wrap_tails or (not wrap_heads and k2 < k1))
        if heads_first:
            return MoveEvent("R2_add", (g2, g1, par, sign if par else -sign, HEAD))
        return MoveEvent("R2_add", (g1, g2, par, sign, TAIL))
    if kind in ("R3", "Fo", "Fu"):
        return event
    raise MoveError(f"no inverse for move kind {kind!r}")


def apply_trace(diagram: GaussDiagram, events: Sequence[MoveEvent]) -> GaussDiagram:
    for e in events:
        diagram = apply_move(diagram, e)
    return diagram


# -- simplification search ------------------------------------------------------


def simplify(
    diagram: GaussDiagram, budget: int = 2000
) -> tuple[GaussDiagram, list[MoveEvent]]:
    """Greedy chord-count descent by breadth-first search over R1/R2
    deletions and R3 slides.

    Returns the best diagram found (never more chords than the input) and a
    replayable move trace reaching it.  ``budget`` caps the number of nodes
    expanded; exhaustion returns the best found so far.  Deterministic for a
    fixed site ordering.
    """
    if budget < 0:
        raise MoveError("simplify budget must be >= 0")

    def dedupe_key(d: GaussDiagram) -> tuple:
        return (d.kind, d.canonical_code())

    best = diagram
    best_trace: list[MoveEvent] = []
    seen = {dedupe_key(diagram)}
    queue: deque[tuple[GaussDiagram, list[MoveEvent]]] = deque([(diagram, [])])
    expanded = 0
    while queue and expanded < budget and best.n > 0:
        current, trace = queue.popleft()
        expanded += 1
        for event in enumerate_moves(current, REDUCING_KINDS):
            child = apply_move(current, event)
            key = dedupe_key(child)
            if key in seen:
                continue
            seen.add(key)
            child_trace = trace + [event]
            if child.n < best.n:
                best, best_trace = child, child_trace
                if best.n == 0:
                    return best, best_trace
            queue.append((child, child_trace))
    return best, best_trace
