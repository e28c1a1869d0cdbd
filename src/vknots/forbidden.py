"""Forbidden moves, F-order alternating sums, and n-triviality certification.

A forbidden move slides a strand across a crossing entirely over (Fo) or
entirely under (Fu) it; on Gauss diagrams this exchanges two adjacent
tails (Fo) or two adjacent heads (Fu) belonging to distinct chords.  The
local disk where the move applies is a *triangle*, a site of its slot and
kind, checked in :func:`_checked_sites`.  Jointly the two moves unknot
every virtual knot, which makes the alternating sums over triangle
toggles (:func:`f_alt_sum`) a genuine finite-type filtration.  A toggle
is a move trace: the GPV sum, the F sum and :func:`lemma3_residual` take
their terms from one expansion, ``arrows._alternating_terms``, which
replays ``virtualize`` or ``Fo``/``Fu`` events through
``moves.apply_trace``.  No F sum and no residual reads a triangle's
sign: a semi-triple point of sign e expands to e * (original - toggled),
so a sign changes no F sum's vanishing, and in the Lemma 3 identity the
product of the marks' signs multiplies both sides and cancels.
:func:`check_n_trivial` decides each toggled subset by
:func:`certify_trivial`, the one reader of the unknot battery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .diagram import DiagramError, GaussDiagram, load_json, pair_starts, reclose, rotation_key
from .khovanov import DEFAULT_HOMOLOGY_CAP, CapExceeded, homology, jones_hat
from .laurent import LaurentPoly
from .moves import (
    MoveError,
    MoveEvent,
    SearchStats,
    _SHAPE,
    _child_cells,
    _sites,
    apply_trace,
    simplify,
)
from .arrows import Invariant, _alternating_terms, v21, v22, writhe_polynomial

UNKNOT_TABLE = {(0, -1): 1, (0, 1): 1}
UNKNOT_JONES = LaurentPoly({1: 1, -1: 1})


class FamilyError(DiagramError):
    """Raised for overlapping or otherwise invalid site families."""


@dataclass(frozen=True)
class TriangleSite:
    """Adjacent slot pair (slot, slot+1) carrying two tails (Fo) or two
    heads (Fu) of distinct chords; no sum reads a sign of it.
    One forbidden move at the site is ``moves.apply_move`` of its event,
    which refuses a stale site with ``MoveError``; :func:`site_at` is the
    ``FamilyError`` check that families and F sums run before any toggle."""

    slot: int
    kind: str  # 'Fo' | 'Fu'

    def _event(self) -> MoveEvent:
        return MoveEvent(self.kind, (self.slot,))


@dataclass(frozen=True)
class Verdict:
    """Three-valued triviality verdict of :func:`certify_trivial`.

    ``certified`` carries a move trace to the empty diagram; ``refuted``
    carries the name of a battery invariant together with its value and
    the unknot's value; ``unknown`` carries neither, and a ``reason``:
    ``"budget"`` when the R-move search spent its node budget, else
    ``"cap"`` when the input had more chords than the cap on the state
    sums, else ``"search"`` when the search ended on its own and every
    battery row matched the unknot's.  Each reason also means that the
    writhe polynomial, read at any chord count, is 0.
    """

    status: str
    trace: tuple[MoveEvent, ...] = ()
    witness: tuple[str, str, str] | None = None
    reason: str | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# -- triangles -----------------------------------------------------------------


def find_triangles(diagram: GaussDiagram) -> list[TriangleSite]:
    """All triangles, in slot order: the Fo and Fu sites the move
    recognizer reads at every adjacent pair (the ``("Fo", "Fu")``
    enumeration of :func:`~vknots.moves.enumerate_moves`)."""
    kind, cells = diagram._eq_key()
    *_, forbidden = _sites(kind, cells, pair_starts(kind, len(cells)), ("Fo", "Fu"))
    return [TriangleSite(data[0], move) for move, data in forbidden]


def site_at(diagram: GaussDiagram, slot: int, kind: str) -> TriangleSite:
    """Validated triangle site at (slot, slot+1); raises when stale.  The
    site is read by the move recognizer, so ``slot`` must be an int (not a
    bool) and the start of an adjacent pair, between 0 and 2n - 1, and is
    not wrapped."""
    if kind not in ("Fo", "Fu"):
        raise FamilyError(f"triangle kind must be 'Fo' or 'Fu', not {kind!r}")
    if type(slot) is not int:
        raise FamilyError(f"triangle slot must be an int, not {type(slot).__name__}")
    dkind, cells = diagram._eq_key()
    if slot in pair_starts(dkind, len(cells)):
        *_, forbidden = _sites(dkind, cells, (slot,), (kind,))
        if forbidden:  # it can only be (kind, (slot,))
            return TriangleSite(slot, kind)
    raise FamilyError(f"slots ({slot}, {slot + 1}) are not a {kind} triangle")


def _footprint(diagram: GaussDiagram, site: TriangleSite) -> set[tuple[str, int]]:
    """The two slots and two chord ids a site touches, tagged apart."""
    a, b = site.slot, (site.slot + 1) % diagram.slot_count
    return {
        ("slot", a),
        ("slot", b),
        ("chord", diagram.at(a)[0].id),
        ("chord", diagram.at(b)[0].id),
    }


def disjoint_sites(diagram: GaussDiagram, count: int) -> list[TriangleSite] | None:
    """Greedily pick ``count`` >= 0 pairwise disjoint triangles (no shared
    slots or chords), or None when the diagram has fewer."""
    if count < 0:
        raise FamilyError(f"site count must be >= 0, got {count}")
    picked: list[TriangleSite] = []
    used: set[tuple[str, int]] = set()
    for site in find_triangles(diagram):
        if len(picked) == count:
            break
        touched = _footprint(diagram, site)
        if used.isdisjoint(touched):
            picked.append(site)
            used |= touched
    return picked if len(picked) == count else None


def _checked_sites(
    diagram: GaussDiagram, sites: Iterable[TriangleSite]
) -> list[TriangleSite]:
    """The sites, each checked by :func:`site_at`; raises when one is
    stale or two share a slot or a chord."""
    checked = [site_at(diagram, s.slot, s.kind) for s in sites]
    used: set[tuple[str, int]] = set()
    for s in checked:
        touched = _footprint(diagram, s)
        if not used.isdisjoint(touched):
            pair = (s.slot, (s.slot + 1) % diagram.slot_count)
            raise FamilyError(f"triangle sites are not disjoint at slots {pair}")
        used |= touched
    return checked


# -- alternating sums -----------------------------------------------------------


def f_alt_sum(
    invariant: Invariant, diagram: GaussDiagram, sites: Sequence[TriangleSite]
) -> int:
    """Alternating sum of ``invariant`` over all toggle patterns of the
    disjoint triangle sites.  Vanishing for every n+1 disjoint triangles is
    the defining property of F-order <= n."""
    events = [s._event() for s in _checked_sites(diagram, sites)]
    return sum(sign * invariant(d) for sign, d in _alternating_terms(diagram, events))


# -- the similarity identity ----------------------------------------------------


def _validate_families(
    diagram: GaussDiagram, families: Sequence[Sequence]
) -> list[list[MoveEvent]]:
    """Each family as the move trace that toggles it.  A family is a
    nonempty sequence of chord ids (GPV mode), each toggled by a
    ``virtualize`` event in chord id order, or of :class:`TriangleSite`
    (F mode), each toggled by an ``Fo``/``Fu`` event in slot order.  Raises
    when the family list or a family is empty, the members are not all
    chord ids or all sites, one family lists a chord twice, or two
    families share a chord or a slot."""
    if not families:
        raise FamilyError("the family list is empty: give at least one family")
    if not all(families):
        raise FamilyError("a family must be nonempty")
    members = [m for fam in families for m in fam]
    if all(isinstance(m, TriangleSite) for m in members):
        ordered = [sorted(fam, key=lambda s: s.slot) for fam in families]
        _checked_sites(diagram, itertools.chain(*ordered))
        return [[s._event() for s in sites] for sites in ordered]
    if not all(type(m) is int for m in members):
        raise FamilyError(
            "family members must be all chord ids (GPV) or all TriangleSites (F), got "
            + ", ".join(sorted({type(m).__name__ for m in members}))
        )
    ordered = []
    seen: set[int] = set()
    for fam in families:
        ids = sorted(fam)
        for cid, nxt in zip(ids, ids[1:]):
            if cid == nxt:
                raise FamilyError(f"chord {cid} is listed twice in family {list(fam)}")
        for cid in ids:
            diagram.chord(cid)
            if cid in seen:
                raise FamilyError(f"chord {cid} appears in two families")
            seen.add(cid)
        ordered.append([MoveEvent("virtualize", (cid,)) for cid in ids])
    return ordered


def lemma3_residual(
    invariant: Invariant,
    diagram: GaussDiagram,
    families: Sequence[Sequence],
) -> int:
    """Residual v(K) - v(K') - sum of expanded transversal terms.

    K' applies every member of every family.  The transversal sum runs over
    tuples picking one position per family; members before the picked one
    are applied outright and the picked member becomes a semi-virtual
    (GPV) or semi-triple (F) mark.  Each term is the alternating sum over
    the marks, as in :func:`gpv_alt_sum` or :func:`f_alt_sum`, and reads
    no triangle sign (see the module docstring).  The residual is exactly
    0 whenever all nonempty subfamily toggles of the diagram present the
    same knot.
    """
    ordered = _validate_families(diagram, families)
    v_k = invariant(diagram)
    v_kp = invariant(apply_trace(diagram, [e for members in ordered for e in members]))

    total = 0
    for picks in itertools.product(*(range(len(members)) for members in ordered)):
        base = diagram
        marks = []
        for members, pick in zip(ordered, picks):
            base = apply_trace(base, members[:pick])
            marks.append(members[pick])
        total += sum(sign * invariant(d) for sign, d in _alternating_terms(base, marks))
    return v_k - v_kp - total


# -- triviality certification -----------------------------------------------------


def certify_trivial(
    diagram: GaussDiagram, budget: int = 2000, cap: int = DEFAULT_HOMOLOGY_CAP
) -> Verdict:
    """Certified when the R-move search empties the diagram within budget;
    refuted when a battery invariant differs from the unknot's; unknown
    otherwise, with a reason (see :class:`Verdict`).

    The battery's rows are invariant under the search's R1/R2 deletions
    and R3 slides, so each may be read on the input or on the reduced
    diagram, and the witness is the input's either way.  In order: v21,
    then v22 (long inputs only, O(n**2) chord pairs, 0 on the unknot) on
    the input, where a nonzero value refutes it without searching; the
    search; then jones_hat and Z2 Khovanov homology on the closure of the
    reduced diagram, over 2**(reduced chords) states, only when the input
    has at most ``cap`` chords; last, at any chord count, the O(n)
    ``writhe_polynomial`` of the reduced diagram, which goes last so that
    it decides only inputs the other rows leave unknown.  The normalized
    bracket is not tried: for a fixed writhe,
    ``khovanov.jones_from_bracket`` maps monomials one-to-one and sends
    the unknot's bracket to the unknot's Jones polynomial, so the bracket
    differs from the unknot's exactly when jones_hat does.  A refutation
    is sound; unknown claims nothing.  Raises MoveError when ``budget``
    is negative, before any row is read."""
    if budget < 0:
        raise MoveError("certify budget must be >= 0")
    if diagram.kind == "long":
        for name, fn in (("v21", v21), ("v22", v22)):
            val = fn(diagram)
            if val != 0:
                return Verdict("refuted", witness=(name, str(val), "0"))
    stats = SearchStats()
    reduced, trace = simplify(diagram, budget, stats=stats)
    if reduced.n == 0:
        return Verdict("certified", tuple(trace))
    if diagram.n <= cap:
        closed = reclose(reduced) if reduced.kind == "long" else reduced
        jh = jones_hat(closed)
        if jh != UNKNOT_JONES:
            return Verdict("refuted", witness=("jones_hat", jh.to_str("q"), UNKNOT_JONES.to_str("q")))
        table = homology(closed, cap).as_dict()
        if table != UNKNOT_TABLE:
            return Verdict("refuted", witness=("khovanov", str(table), str(UNKNOT_TABLE)))
    w = writhe_polynomial(reduced)
    if w:
        return Verdict("refuted", witness=("writhe", w.to_str("t"), "0"))
    if stats.budget_spent:
        return Verdict("unknown", reason="budget")
    return Verdict("unknown", reason="cap" if diagram.n > cap else "search")


def check_n_trivial(
    diagram: GaussDiagram,
    families: Sequence[Sequence],
    budget: int = 2000,
    cap: int = DEFAULT_HOMOLOGY_CAP,
) -> tuple[dict[tuple[int, ...], Verdict], bool]:
    """Certify triviality of every nonempty subfamily application.

    Returns (per-subset verdicts keyed by sorted family indices, aggregate);
    the aggregate is True only when every subset is certified.  Each
    family is a sequence of chord ids or of :class:`TriangleSite`, and the
    members decide the mode (see :func:`_validate_families`).  Raises
    MoveError when ``budget`` is negative, before any subset is toggled.
    """
    if budget < 0:
        raise MoveError("certify budget must be >= 0")
    ordered = _validate_families(diagram, families)
    verdicts: dict[tuple[int, ...], Verdict] = {}
    aggregate = True
    for r in range(1, len(ordered) + 1):
        for subset in itertools.combinations(range(len(ordered)), r):
            toggled = apply_trace(diagram, [e for idx in subset for e in ordered[idx]])
            verdict = certify_trivial(toggled, budget, cap)
            verdicts[subset] = verdict
            aggregate = aggregate and verdict.certified
    return verdicts, aggregate


# -- unknotting search over forbidden + Reidemeister moves -------------------------


# The kinds the search moves by, the slot-local ones that lead their data
# with pair starts.  A node's children come in the order R2_del, R1_del,
# Fo, Fu, R3, each kind ordered by its site data.
_SEARCH_KINDS = tuple(kind for kind, shape in _SHAPE.items() if shape[2])
# Nodes trivialize_forbidden expands, over all its depth limits, before it
# gives up: a few seconds of search.  No depth-6 request of the small-batch
# benchmark expands more than 310.
DEFAULT_NODE_CAP = 100_000


def trivialize_forbidden(
    diagram: GaussDiagram,
    budget: int = 10,
    stats: SearchStats | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[MoveEvent] | None:
    """Move sequence over {Fo, Fu, R1_del, R2_del, R3} emptying the diagram,
    or None when no sequence of length <= budget is found; raises MoveError
    when ``budget`` or ``node_cap`` is negative, and CapExceeded, naming the
    cap and the depth limit it stopped at, before it would expand more than
    ``node_cap`` nodes over all its depth limits.

    Iterative deepening with deletion-first ordering.  No move adds a
    chord, so the diagrams reachable from the input form a finite graph:
    once a depth limit's search is cut by nothing that depends on the
    limit (no hopeless node, no kind left out, no R1_del child skipped),
    it has walked that whole graph without meeting the empty diagram, and
    no deeper limit is tried.  A diagram with p positive and q negative
    chords needs at least max(p, q) moves to become empty, since R2_del
    removes one chord of each sign, R1_del one chord, and Fo, Fu and R3
    keep every chord and its sign; a node with fewer moves left is
    hopeless.  The bound never exceeds the true distance, so it prunes
    only subtrees that hold no trace and the search returns the same first
    trace as one pruned by the chord count alone (see docs/moves.md).  A
    child's sign counts are known from its event (R1_del carries its
    chord's sign), so kinds whose children would all be hopeless are not
    enumerated, and no hopeless child is built.  The others are built one
    at a time, in (kind order, event data) order, and only until a trace
    is found.  As in ``moves.simplify``, a node is the diagram's cells, a
    site is a ``(kind, data)`` tuple, a child is built by
    ``moves._child_cells``, and events are built only for the trace
    returned (see docs/moves.md, "Search representation").

    When ``stats`` is given, the call fills it in, summed over every depth
    limit tried: ``expanded`` nodes passed the check against the deepest
    visit of their search key so far, ``deduplicated`` nodes were cut by
    it, and ``budget_spent`` is True when no trace was found and the last
    limit was cut by its depth, False when a trace was found or the move
    graph ran out.
    """
    if budget < 0:
        raise MoveError("trivialize budget must be >= 0")
    if node_cap < 0:
        raise MoveError("trivialize node cap must be >= 0")
    kind, start = diagram._eq_key()
    expanded = deduplicated = 0

    start_pos = sum(1 for c in diagram.chords if c.sign > 0)
    start_neg = diagram.n - start_pos
    # depth limit 0 finds only the empty diagram's empty trace
    for limit in range(budget + 1):
        best_seen: dict[tuple, int] = {}
        depth_cut = False  # whether this limit's search was cut by its depth

        def dfs(cells: tuple[int, ...], pos: int, neg: int, depth_left: int,
                trace: list[tuple[str, tuple]]):
            nonlocal expanded, deduplicated, depth_cut
            if not cells:
                return [MoveEvent(*site) for site in trace]
            if max(pos, neg) > depth_left:
                depth_cut = True
                return None
            key = rotation_key(kind, cells)
            if best_seen.get(key, -1) >= depth_left:
                deduplicated += 1
                return None
            best_seen[key] = depth_left
            if expanded == node_cap:
                raise CapExceeded(
                    f"trivialize capped at {node_cap} expanded nodes, "
                    f"reached at depth limit {limit} of {budget}"
                )
            expanded += 1
            left = depth_left - 1
            if max(pos, neg) <= left:
                kinds = _SEARCH_KINDS
            else:
                # max(pos, neg) == left + 1: only R2_del, and R1_del when
                # the counts differ, lower it
                depth_cut = True
                kinds = ("R1_del", "R2_del") if pos != neg else ("R2_del",)
            r1_del, r2_del, r3, forbidden = _sites(
                kind, cells, pair_starts(kind, len(cells)), kinds)
            steps = [(site, pos - 1, neg - 1) for site in r2_del]
            for site in r1_del:
                child_pos, child_neg = (pos - 1, neg) if site[1][1] > 0 else (pos, neg - 1)
                if max(child_pos, child_neg) > left:
                    depth_cut = True
                else:
                    steps.append((site, child_pos, child_neg))
            # Fo sorts before Fu
            forbidden.sort()
            r3.sort()
            steps += [(site, pos, neg) for site in forbidden + r3]
            for site, child_pos, child_neg in steps:
                trace.append(site)
                found = dfs(_child_cells(cells, site), child_pos, child_neg, left, trace)
                if found is not None:
                    return found
                trace.pop()
            return None

        found = dfs(start, start_pos, start_neg, limit, [])
        if found is not None or not depth_cut:
            break
    if stats is not None:
        stats.budget_spent = found is None and depth_cut
        stats.expanded = expanded
        stats.deduplicated = deduplicated
    return found


# -- families file ------------------------------------------------------------------


def load_families(data: bytes | str) -> tuple[str, list[tuple]]:
    """Parse the families JSON: ``{"mode": "GPV"|"F", "families": [...]}``
    where GPV members are chord ids and F members are
    ``{"slots": [k, k+1], "kind": "Fo"|"Fu"}`` descriptors (``[2n-1, 2n]``
    crosses a closed diagram's basepoint), read as sites.  Returns the
    mode and each family as a nonempty tuple of its members.  JSON
    booleans are not integers here."""
    obj = load_json(data, "families file", FamilyError)
    if not isinstance(obj, dict):
        raise FamilyError("families file must hold a JSON object")
    mode = obj.get("mode")
    if mode not in ("GPV", "F"):
        raise FamilyError(f"families mode must be 'GPV' or 'F', not {mode!r}")
    listed = obj.get("families", [])
    if not isinstance(listed, list) or not all(isinstance(f, list) for f in listed):
        raise FamilyError("'families' must be a list of member lists")
    families = []
    for fam in listed:
        if not fam:
            raise FamilyError("a family must be nonempty")
        if mode == "GPV":
            if not all(type(c) is int for c in fam):
                raise FamilyError("GPV family members must be chord ids")
            families.append(tuple(fam))
        else:
            sites = []
            for desc in fam:
                if not isinstance(desc, dict):
                    raise FamilyError(f"bad site descriptor {desc!r}")
                slots = desc.get("slots")
                kind = desc.get("kind")
                if (
                    not isinstance(slots, list)
                    or len(slots) != 2
                    or not all(type(k) is int for k in slots)
                    or slots[1] != slots[0] + 1
                    or kind not in ("Fo", "Fu")
                ):
                    raise FamilyError(f"bad site descriptor {desc!r}")
                sites.append(TriangleSite(slots[0], kind))
            families.append(tuple(sites))
    return mode, families
