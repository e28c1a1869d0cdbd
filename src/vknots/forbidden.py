"""Forbidden moves, F-order alternating sums, and n-triviality certification.

A forbidden move slides a strand across a crossing entirely over (Fo) or
entirely under (Fu) it; on Gauss diagrams this exchanges two adjacent
tails (Fo) or two adjacent heads (Fu) belonging to distinct chords.  The
local disk where the move applies is a *triangle* and carries a sign; one
forbidden move flips the sign of its triangle.  Jointly the two moves
unknot every virtual knot, which makes the alternating sums over triangle
toggles (:func:`f_alt_sum`) a genuine finite-type filtration.

Sign convention (the only free choice; every identity below is invariant
under a global flip): a triangle at slots (k, k+1) is positive when the
two chords' far endpoints appear in the same order as their near ones,
reading slots from k+2 onward (cyclically for closed diagrams).

Semi-virtual and semi-triple expansions express marked diagrams as formal
integer combinations of honest diagrams: a semi-virtual crossing is
(real - virtual), and a semi-triple point at a triangle of sign e is
e * (original - toggled).  These drive the similarity identity checked by
:func:`lemma3_residual`: when every nonempty subfamily toggle of n
disjoint families yields one and the same knot, any invariant v satisfies
v(K) = v(K') + sum over transversal tuples of the expanded marked
diagrams (with the product of semi-triple signs in F mode).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .diagram import HEAD, TAIL, DiagramError, GaussDiagram, reclose
from .khovanov import DEFAULT_HOMOLOGY_CAP, homology, jones_hat
from .laurent import LaurentPoly
from .moves import MoveEvent, apply_move, enumerate_moves, simplify
from .arrows import Invariant, gpv_alt_sum, v21, v22

UNKNOT_TABLE = {(0, -1): 1, (0, 1): 1}
UNKNOT_JONES = LaurentPoly({1: 1, -1: 1})


class FamilyError(DiagramError):
    """Raised for overlapping or otherwise invalid site families."""


@dataclass(frozen=True)
class TriangleSite:
    """Adjacent slot pair (slot, slot+1) carrying two tails (Fo) or two
    heads (Fu) of distinct chords, with the triangle sign."""

    slot: int
    kind: str  # 'Fo' | 'Fu'
    sign: int

    def slots(self, diagram: GaussDiagram) -> tuple[int, int]:
        return self.slot, (self.slot + 1) % diagram.slot_count


@dataclass(frozen=True)
class Family:
    """One set of toggle sites: chord ids in GPV mode, TriangleSites in F mode."""

    members: tuple

    def __post_init__(self) -> None:
        if not self.members:
            raise FamilyError("a family must be nonempty")


@dataclass(frozen=True)
class Verdict:
    """Three-valued triviality verdict.

    ``certified`` carries a move trace to the empty diagram; ``refuted``
    carries the name of a battery invariant together with its value and
    the unknot's value; ``unknown`` carries neither.
    """

    status: str
    trace: tuple[MoveEvent, ...] = ()
    witness: tuple[str, str, str] | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


@dataclass(frozen=True)
class FormalDiagramSum:
    """Integer combination of Gauss diagrams; invariants evaluate linearly."""

    terms: tuple[tuple[int, GaussDiagram], ...]

    def evaluate(self, invariant: Invariant) -> int:
        return sum(coeff * invariant(d) for coeff, d in self.terms)


# -- triangles -----------------------------------------------------------------


def triangle_sign(diagram: GaussDiagram, slot: int) -> int:
    """Sign of the triangle at (slot, slot+1); see the module docstring."""
    m = diagram.slot_count
    c1, _ = diagram.at(slot)
    c2, _ = diagram.at((slot + 1) % m)
    o1, o2 = c1.other(slot % m), c2.other((slot + 1) % m)
    if diagram.kind == "long":
        return 1 if o1 < o2 else -1
    base = (slot + 2) % m
    return 1 if (o1 - base) % m < (o2 - base) % m else -1


def find_triangles(diagram: GaussDiagram) -> list[TriangleSite]:
    """All triangles: adjacent same-role endpoint pairs on distinct chords."""
    out = []
    m = diagram.slot_count
    for k in diagram.adjacent_pairs():
        (c1, r1), (c2, r2) = diagram.at(k), diagram.at((k + 1) % m)
        if c1.id != c2.id and r1 == r2:
            kind = "Fo" if r1 == TAIL else "Fu"
            out.append(TriangleSite(k, kind, triangle_sign(diagram, k)))
    return out


def site_at(diagram: GaussDiagram, slot: int, kind: str) -> TriangleSite:
    """Validated triangle site at (slot, slot+1); raises when stale."""
    m = diagram.slot_count
    if m == 0 or not diagram.is_adjacent(slot % m if m else 0, (slot + 1) % m):
        raise FamilyError(f"no adjacent slot pair starts at {slot}")
    (c1, r1), (c2, r2) = diagram.at(slot), diagram.at((slot + 1) % m)
    want = TAIL if kind == "Fo" else HEAD
    if kind not in ("Fo", "Fu"):
        raise FamilyError(f"triangle kind must be 'Fo' or 'Fu', not {kind!r}")
    if c1.id == c2.id or r1 != want or r2 != want:
        raise FamilyError(f"slots ({slot}, {slot + 1}) are not a {kind} triangle")
    return TriangleSite(slot, kind, triangle_sign(diagram, slot))


def disjoint_sites(diagram: GaussDiagram, count: int) -> list[TriangleSite] | None:
    """Greedily pick ``count`` pairwise disjoint triangles (no shared slots
    or chords), or None when the diagram has fewer."""
    picked: list[TriangleSite] = []
    used_slots: set[int] = set()
    used_chords: set[int] = set()
    for site in find_triangles(diagram):
        a, b = site.slots(diagram)
        chords = {diagram.at(a)[0].id, diagram.at(b)[0].id}
        if {a, b} & used_slots or chords & used_chords:
            continue
        picked.append(site)
        used_slots.update((a, b))
        used_chords.update(chords)
        if len(picked) == count:
            return picked
    return None


def apply_forbidden(diagram: GaussDiagram, site: TriangleSite) -> GaussDiagram:
    """One forbidden move: exchange the two endpoints of the site.

    Chord signs and directions are untouched; the triangle re-detected at
    the same slots has the opposite sign.
    """
    site_at(diagram, site.slot, site.kind)  # staleness check
    m = diagram.slot_count
    return diagram.swap_slots(site.slot, (site.slot + 1) % m)


def _check_disjoint_sites(sites: Iterable[TriangleSite], diagram: GaussDiagram) -> None:
    slots_seen: set[int] = set()
    chords_seen: set[int] = set()
    for s in sites:
        a, b = s.slots(diagram)
        ca, _ = diagram.at(a)
        cb, _ = diagram.at(b)
        if {a, b} & slots_seen or {ca.id, cb.id} & chords_seen:
            raise FamilyError(f"triangle sites are not disjoint at slots ({a}, {b})")
        slots_seen.update((a, b))
        chords_seen.update((ca.id, cb.id))


def _toggle(diagram: GaussDiagram, sites: Iterable[TriangleSite]) -> GaussDiagram:
    for s in sites:
        diagram = apply_forbidden(diagram, s)
    return diagram


# -- alternating sums and expansions ------------------------------------------


def f_alt_sum(
    invariant: Invariant, diagram: GaussDiagram, sites: Sequence[TriangleSite]
) -> int:
    """Alternating sum of ``invariant`` over all toggle patterns of the
    disjoint triangle sites.  Vanishing for every n+1 disjoint triangles is
    the defining property of F-order <= n."""
    sites = list(sites)
    for s in sites:
        site_at(diagram, s.slot, s.kind)
    _check_disjoint_sites(sites, diagram)
    total = 0
    for r in range(len(sites) + 1):
        for chosen in itertools.combinations(sites, r):
            total += (-1) ** r * invariant(_toggle(diagram, chosen))
    return total


def expand_semivirtual(
    diagram: GaussDiagram, chord_ids: Iterable[int]
) -> FormalDiagramSum:
    """Resolve semi-virtual marks: each marked crossing expands to
    (real - virtual), giving 2**|M| signed terms."""
    ids = sorted(set(chord_ids))
    for cid in ids:
        diagram.chord(cid)
    terms = []
    for r in range(len(ids) + 1):
        for drop in itertools.combinations(ids, r):
            terms.append(((-1) ** r, diagram.delete_chords(drop)))
    return FormalDiagramSum(tuple(terms))


def expand_semitriple(
    diagram: GaussDiagram, sites: Sequence[TriangleSite]
) -> FormalDiagramSum:
    """Resolve semi-triple marks: a mark at a triangle of sign e expands to
    e * (original - toggled), so the whole sum carries the product of the
    marked triangles' signs."""
    sites = list(sites)
    for s in sites:
        site_at(diagram, s.slot, s.kind)
    _check_disjoint_sites(sites, diagram)
    outer = 1
    for s in sites:
        outer *= triangle_sign(diagram, s.slot)
    terms = []
    for r in range(len(sites) + 1):
        for chosen in itertools.combinations(sites, r):
            terms.append((outer * (-1) ** r, _toggle(diagram, chosen)))
    return FormalDiagramSum(tuple(terms))


# -- the similarity identity ----------------------------------------------------


def _validate_families(
    diagram: GaussDiagram, families: Sequence[Family], mode: str
) -> list[tuple]:
    if mode not in ("GPV", "F"):
        raise FamilyError(f"mode must be 'GPV' or 'F', not {mode!r}")
    ordered = []
    if mode == "GPV":
        seen: set[int] = set()
        for fam in families:
            ids = tuple(sorted(fam.members))
            for cid in ids:
                diagram.chord(cid)
                if cid in seen:
                    raise FamilyError(f"chord {cid} appears in two families")
                seen.add(cid)
            ordered.append(ids)
    else:
        all_sites: list[TriangleSite] = []
        for fam in families:
            sites = tuple(sorted(fam.members, key=lambda s: s.slot))
            for s in sites:
                site_at(diagram, s.slot, s.kind)
            all_sites.extend(sites)
            ordered.append(sites)
        _check_disjoint_sites(all_sites, diagram)
    return ordered


def _apply_all(diagram: GaussDiagram, members: Iterable, mode: str) -> GaussDiagram:
    if mode == "GPV":
        return diagram.delete_chords(members)
    return _toggle(diagram, members)


def lemma3_residual(
    invariant: Invariant,
    diagram: GaussDiagram,
    families: Sequence[Family],
    mode: str,
) -> int:
    """Residual v(K) - v(K') - sum of expanded transversal terms.

    K' applies every member of every family.  The transversal sum runs over
    tuples picking one position per family; members before the picked one
    are applied outright and the picked member becomes a semi-virtual
    (GPV) or semi-triple (F) mark.  Each term is the alternating sum over
    the marks, :func:`gpv_alt_sum` or :func:`f_alt_sum`: in F mode the
    identity multiplies the semi-triple expansion by the product of the
    marks' triangle signs, which cancels the same product inside it.  The
    residual is exactly 0 whenever all nonempty subfamily toggles of the
    diagram present the same knot.
    """
    ordered = _validate_families(diagram, families, mode)
    v_k = invariant(diagram)
    full = diagram
    for members in ordered:
        full = _apply_all(full, members, mode)
    v_kp = invariant(full)

    total = 0
    for picks in itertools.product(*(range(len(members)) for members in ordered)):
        base = diagram
        marks = []
        for members, pick in zip(ordered, picks):
            base = _apply_all(base, members[:pick], mode)
            marks.append(members[pick])
        alt_sum = gpv_alt_sum if mode == "GPV" else f_alt_sum
        total += alt_sum(invariant, base, marks)
    return v_k - v_kp - total


# -- triviality certification -----------------------------------------------------


def _battery(diagram: GaussDiagram, cap: int) -> list[tuple[str, str, str]]:
    """The first (name, value, unknot value) row that witnesses
    nontriviality, as a one-row list, or [] when no row does.

    Rows are tried in the order v21, v22 (long diagrams only), jones_hat,
    then Z2 Khovanov homology.  The last two sum over the 2**n states, so
    a diagram of more than ``cap`` chords stops before them.  The normalized
    bracket is not tried: for a fixed writhe,
    ``khovanov.jones_from_bracket`` maps monomials one-to-one and sends the
    unknot's bracket to the unknot's Jones polynomial, so the bracket
    differs from the unknot's exactly when jones_hat does.
    """
    if diagram.kind == "long":
        for name, fn in (("v21", v21), ("v22", v22)):
            val = fn(diagram)
            if val != 0:
                return [(name, str(val), "0")]
        diagram = reclose(diagram)
    if diagram.n > cap:
        return []
    jh = jones_hat(diagram)
    if jh != UNKNOT_JONES:
        return [("jones_hat", jh.to_str("q"), UNKNOT_JONES.to_str("q"))]
    table = homology(diagram, cap).as_dict()
    if table != UNKNOT_TABLE:
        return [("khovanov", str(table), str(UNKNOT_TABLE))]
    return []


def certify_trivial(
    diagram: GaussDiagram, budget: int = 2000, cap: int = DEFAULT_HOMOLOGY_CAP
) -> Verdict:
    """Certified when the R-move search empties the diagram within budget;
    refuted when a battery invariant differs from the unknot's; unknown
    otherwise.  The state-sum rows of the battery (Jones, Khovanov) run only
    on diagrams of at most ``cap`` chords.  A refutation is sound; unknown
    claims nothing."""
    reduced, trace = simplify(diagram, budget)
    if reduced.n == 0:
        return Verdict("certified", tuple(trace))
    rows = _battery(diagram, cap)
    if rows:
        return Verdict("refuted", (), rows[0])
    return Verdict("unknown")


def check_n_trivial(
    diagram: GaussDiagram,
    families: Sequence[Family],
    mode: str,
    budget: int = 2000,
    cap: int = DEFAULT_HOMOLOGY_CAP,
) -> tuple[dict[tuple[int, ...], Verdict], bool]:
    """Certify triviality of every nonempty subfamily application.

    Returns (per-subset verdicts keyed by sorted family indices, aggregate);
    the aggregate is True only when every subset is certified.
    """
    ordered = _validate_families(diagram, families, mode)
    verdicts: dict[tuple[int, ...], Verdict] = {}
    aggregate = True
    for r in range(1, len(ordered) + 1):
        for subset in itertools.combinations(range(len(ordered)), r):
            toggled = diagram
            for idx in subset:
                toggled = _apply_all(toggled, ordered[idx], mode)
            verdict = certify_trivial(toggled, budget, cap)
            verdicts[subset] = verdict
            aggregate = aggregate and verdict.certified
    return verdicts, aggregate


# -- unknotting search over forbidden + Reidemeister moves -------------------------


# Search order of the move kinds and the chord count each removes.
_SEARCH_ORDER = {"R2_del": 0, "R1_del": 1, "Fo": 2, "Fu": 3, "R3": 4}
_CHORDS_REMOVED = {"R2_del": 2, "R1_del": 1, "Fo": 0, "Fu": 0, "R3": 0}


def trivialize_forbidden(
    diagram: GaussDiagram, budget: int = 10
) -> list[MoveEvent] | None:
    """Move sequence over {Fo, Fu, R1_del, R2_del, R3} emptying the diagram,
    or None when no sequence of length <= budget is found.

    Iterative deepening with deletion-first ordering; forbidden moves are
    unknotting operations, so failure only means the budget was too small.
    A move removes at most two chords, so a nonempty diagram of n chords
    with d moves left is hopeless when (n + 1) // 2 > d.  A child's chord
    count is known from its move kind (R2_del removes two chords, R1_del
    one, Fo, Fu and R3 none), so kinds whose children would be hopeless are
    not enumerated and those children are never built.  The others are
    built one at a time, in (kind order, event data) order, and only until
    a trace is found.
    """
    start = diagram
    if start.n == 0:
        return []

    def successors(d: GaussDiagram, depth_left: int):
        kinds = [
            kind
            for kind, removed in _CHORDS_REMOVED.items()
            if d.n == removed or (d.n - removed + 1) // 2 <= depth_left
        ]
        evs = enumerate_moves(d, kinds)
        evs.sort(key=lambda e: (_SEARCH_ORDER[e.kind], e.data))
        for e in evs:
            yield e, apply_move(d, e)

    for limit in range(1, budget + 1):
        best_seen: dict[tuple, int] = {}

        def dfs(d: GaussDiagram, depth_left: int, trace: list[MoveEvent]):
            if d.n == 0:
                return list(trace)
            if depth_left <= 0 or (d.n + 1) // 2 > depth_left:
                return None
            key = (d.kind, d.canonical_code())
            if best_seen.get(key, -1) >= depth_left:
                return None
            best_seen[key] = depth_left
            for event, child in successors(d, depth_left - 1):
                trace.append(event)
                found = dfs(child, depth_left - 1, trace)
                if found is not None:
                    return found
                trace.pop()
            return None

        found = dfs(start, limit, [])
        if found is not None:
            return found
    return None


# -- families file ------------------------------------------------------------------


def load_families(data: bytes | str) -> tuple[str, list[Family]]:
    """Parse the families JSON: ``{"mode": "GPV"|"F", "families": [...]}``
    where GPV members are chord ids and F members are
    ``{"slots": [k, k+1], "kind": "Fo"|"Fu"}`` descriptors."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FamilyError(f"families file is not valid JSON: {exc}") from None
    mode = obj.get("mode")
    if mode not in ("GPV", "F"):
        raise FamilyError(f"families mode must be 'GPV' or 'F', not {mode!r}")
    families = []
    for fam in obj.get("families", []):
        if mode == "GPV":
            if not all(isinstance(c, int) for c in fam):
                raise FamilyError("GPV family members must be chord ids")
            families.append(Family(tuple(fam)))
        else:
            sites = []
            for desc in fam:
                slots = desc.get("slots")
                kind = desc.get("kind")
                if (
                    not isinstance(slots, list)
                    or len(slots) != 2
                    or kind not in ("Fo", "Fu")
                ):
                    raise FamilyError(f"bad site descriptor {desc!r}")
                sites.append(TriangleSite(slots[0], kind, 0))
            families.append(Family(tuple(sites)))
    return mode, families
