"""Arrow-diagram patterns and the subdiagram pairing.

An arrow pattern is a Gauss diagram used as a counting template: the
pairing of a pattern A with a diagram D counts the subdiagrams of D that
are order-isomorphic to A (cyclically for closed diagrams, linearly for
long ones), weighted by the signs of the matched chords wherever the
pattern leaves a sign free.  Integer combinations of patterns evaluate
linearly; this realizes the classical Polyak-Viro style formulas, and the
two built-in degree-2 invariants v21/v22 of long virtual knots arise from
the two interleaved two-chord patterns that survive all Reidemeister moves.

One key (:func:`_key`) names the arrow diagram that a set of chords
spans: each endpoint's (first-appearance index, role), then the signs in
index order, least over the rotations for the closed kind.  It keys the
sign assignments of a pattern and the chord subsets of a diagram alike,
so :func:`pairing` reads each subset of an order once for all terms, and
:func:`embeddings` keeps the subsets whose key is one of a pattern's.

Finite-type behaviour under virtualization is tested by
:func:`gpv_alt_sum`, the alternating sum over deletions of a chosen set of
chords S (GPV-order).  It and the forbidden-move sums of
:mod:`vknots.forbidden` take their terms from one expansion,
:func:`_alternating_terms`, which replays each subset of toggle events
(``virtualize`` here, ``Fo`` and ``Fu`` there) through
``moves.apply_trace``.  :func:`gpv_alt_sum`, :func:`v21` and :func:`v22`
read chosen chord ids through :func:`_chord_ids`.  A pairing needs no
deletions: by the subdiagram expansion (Goussarov-Polyak-Viro), its
alternating sum over S is its signed count of the matchings whose chords
contain S.  :func:`v21` and :func:`v22` count those chord pairs
directly, and the CLI's ``gpv-sum`` and ``ntrivial``'s battery read
them; :func:`gpv_alt_sum` stays the definition for any invariant and the
tests' oracle for the direct count.

The index of a chord is the signed count of the endpoints strictly
between its tail and its head, going forward from the tail (+sign at a
head, -sign at a tail).  :func:`writhe_polynomial` reads every index off
one prefix sum.  Its t**n coefficients are the index writhes J_n of
Satoh-Taniguchi (*The writhes of a virtual knot*, Fund. Math. 225, 2014),
and it is Kauffman's affine index polynomial (*An affine index polynomial
invariant of virtual knots*, JKTR 22, 2013).  Each J_n has F-order 1: a
forbidden move changes the indices of its own two chords only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .diagram import HEAD, TAIL, Chord, DiagramError, GaussDiagram, Kind, load_json
from .laurent import LaurentPoly
from .moves import MoveEvent, apply_trace

Invariant = Callable[[GaussDiagram], int]

FREE = "free"


class ArrowError(DiagramError):
    """Raised for malformed arrow patterns/polynomials."""


@dataclass(frozen=True)
class ArrowPattern:
    """Ordered endpoint sequence of (chord label, role) with sign constraints.

    ``signs[label]`` is +1, -1 or "free" (default free).  Each label must
    occur exactly once as a tail and once as a head.
    """

    kind: Kind
    endpoints: tuple[tuple[str, str], ...]
    signs: Mapping[str, object] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        seen: dict[str, set[str]] = {}
        for label, role in self.endpoints:
            if role not in (TAIL, HEAD):
                raise ArrowError(f"label {label}: role must be {TAIL!r} or {HEAD!r}")
            if role in seen.setdefault(label, set()):
                raise ArrowError(f"label {label} appears twice as {role!r}")
            seen[label].add(role)
        for label, roles in seen.items():
            if roles != {TAIL, HEAD}:
                raise ArrowError(f"label {label} is missing a {(({TAIL, HEAD}) - roles).pop()!r} endpoint")
        signs = dict(self.signs or {})
        for label, s in signs.items():
            if label not in seen:
                raise ArrowError(f"sign constraint for unknown label {label}")
            # type(s) is int refuses True and 1.0, which compare equal to 1
            if s != FREE and (type(s) is not int or s not in (1, -1)):
                raise ArrowError(f"label {label}: sign must be +1, -1 or 'free'")
        for label in seen:
            signs.setdefault(label, FREE)
        object.__setattr__(self, "signs", signs)

    @property
    def order(self) -> int:
        return len(self.endpoints) // 2

    def labels(self) -> tuple[str, ...]:
        out: list[str] = []
        for label, _ in self.endpoints:
            if label not in out:
                out.append(label)
        return tuple(out)


@dataclass(frozen=True)
class ArrowPolynomial:
    """Integer combination of arrow patterns of one common kind."""

    terms: tuple[tuple[int, ArrowPattern], ...]

    def __post_init__(self) -> None:
        kinds = {p.kind for _, p in self.terms}
        if len(kinds) > 1:
            raise ArrowError("all terms of an arrow polynomial must share a kind")

    @property
    def kind(self) -> Kind | None:
        return self.terms[0][1].kind if self.terms else None


def _key(kind: Kind, chords: Iterable[Sequence]) -> tuple[tuple[int, ...], dict]:
    """Key of the arrow diagram that ``chords`` span, each a (label, tail,
    head, sign) tuple as a :class:`Chord` is, and its labels in index order
    (a dict).  An end is 2 * index + (1 for a tail), so on a closed diagram
    only a rotation that starts at a head can give the least key."""
    ends = sorted([(t, label, 1, s) for label, t, h, s in chords]
                  + [(h, label, 0, s) for label, t, h, s in chords])
    starts = [r for r, end in enumerate(ends) if not end[2]] if kind == "closed" else [0]
    best = None
    for r in starts or [0]:
        index: dict = {}
        codes, signs = [], []
        for _, label, tail, s in ends[r:] + ends[:r]:
            i = index.get(label)
            if i is None:
                i = index[label] = len(index)
                signs.append(s)
            codes.append(2 * i + tail)
        key = (*codes, *signs)
        if best is None or key < best:
            best, labels = key, index
    return best, labels


def _pattern_keys(pattern: ArrowPattern) -> dict[tuple[int, ...], tuple[int, dict]]:
    """Key -> (free-sign product, labels) of each sign assignment of
    ``pattern``.  Assignments that a rotation symmetry relates share a key
    and a product, so a matched subset counts once."""
    labels, at = pattern.labels(), pattern.endpoints.index
    free = [label for label in labels if pattern.signs[label] == FREE]
    out = {}
    for choice in itertools.product((1, -1), repeat=len(free)):
        sign = {**pattern.signs, **dict(zip(free, choice))}
        chords = [(label, at((label, TAIL)), at((label, HEAD)), sign[label]) for label in labels]
        key, index = _key(pattern.kind, chords)
        out[key] = math.prod(choice), index
    return out


def embeddings(pattern: ArrowPattern, diagram: GaussDiagram) -> list[dict[str, int]]:
    """All matchings of ``pattern`` into ``diagram``, each a dict from label
    to chord id: one per chord subset whose key is that of a sign
    assignment of the pattern, in ``itertools.combinations`` order.

    Closed-kind matching is up to rotation of the based circle.  A
    rotation-symmetric pattern counts a matched subset once (the
    subdiagram expansion counts subdiagrams, not symmetries), with one of
    the label assignments that the symmetry relates.  A pattern of more
    chords than the diagram matches nothing, and its signs are not keyed.
    """
    if pattern.kind != diagram.kind:
        raise ArrowError(f"pattern kind {pattern.kind!r} != diagram kind {diagram.kind!r}")
    if pattern.order > diagram.n:
        return []
    keys = _pattern_keys(pattern)
    out = []
    for subset in itertools.combinations(diagram.chords, pattern.order):
        key, ids = _key(diagram.kind, subset)
        if key in keys:
            out.append(dict(zip(keys[key][1], ids)))
    return out


def pairing(poly: ArrowPolynomial | ArrowPattern, diagram: GaussDiagram) -> int:
    """Evaluate an arrow polynomial against a diagram.

    A free-signed pattern stands for its sum over sign assignments weighted
    by the product of the signs, so each matching contributes the sign
    product of its free-labelled chords; sign-fixed labels contribute 1.
    The terms fill one table per order, from key to coefficient times
    weight, and each chord subset of each order is keyed once for all
    terms; a term of more chords than the diagram adds 0 and is skipped.
    Its alternating sum over the deletions of chosen chords is
    :func:`gpv_alt_sum` of the pairing; :func:`v21` and :func:`v22` count
    that sum directly for their patterns.
    """
    if isinstance(poly, ArrowPattern):
        poly = ArrowPolynomial(((1, poly),))
    if poly.kind is not None and poly.kind != diagram.kind:
        raise ArrowError(f"polynomial kind {poly.kind!r} != diagram kind {diagram.kind!r}")
    tables: dict[int, dict[tuple[int, ...], int]] = {}
    for coeff, pattern in poly.terms:
        if pattern.order > diagram.n:
            continue
        table = tables.setdefault(pattern.order, {})
        for key, (weight, _) in _pattern_keys(pattern).items():
            table[key] = table.get(key, 0) + coeff * weight
    return sum(
        table.get(_key(diagram.kind, subset)[0], 0)
        for k, table in tables.items()
        for subset in itertools.combinations(diagram.chords, k)
    )


# -- built-in degree-2 invariants ---------------------------------------------
#
# Of the four interleaved two-chord endpoint orders, only the two below are
# unchanged by a parallel R2 pair (the other two count exactly the chord
# pair such a move creates).  Both evaluate to 1 on the long right trefoil
# and to the second Conway coefficient on classical knots; they differ on
# general virtual long knots.  v21 and v22 count their chord pairs
# directly; the patterns are the same invariants for the general
# evaluator, :func:`pairing`, which the tests hold the counts against.

V21_PATTERN = ArrowPattern(
    "long", (("1", TAIL), ("2", HEAD), ("1", HEAD), ("2", TAIL))
)
V22_PATTERN = ArrowPattern(
    "long", (("1", HEAD), ("2", TAIL), ("1", TAIL), ("2", HEAD))
)


def _chord_ids(diagram: GaussDiagram, ids: Iterable[int]) -> list[Chord]:
    """The chords of the distinct ``ids``, in id order, each read by
    ``diagram.chord``; an id that is not an int (a bool is not) is refused
    before any unknown one, and before any chord is returned."""
    ids = list(ids)
    for cid in ids:
        if type(cid) is not int:
            diagram.chord(cid)  # refuses it before any unknown id
    return [diagram.chord(cid) for cid in sorted(set(ids))]


def _interleaved(
    name: str, diagram: GaussDiagram, containing: Collection[int], heads_first: bool
) -> int:
    """Sum of a.sign * b.sign over the ordered chord pairs (a, b) with
    x(a) < y(b) < y(a) < x(b), where (x, y) is a chord's (tail, head), or
    its (head, tail) when ``heads_first``; only the pairs whose two chords
    include every id in ``containing``.

    So a runs forward (x < y) and b backward, and a pair is read at most
    once.  One chord in ``containing`` fixes its side, two fix the pair,
    and more leave none."""
    if diagram.kind != "long":
        raise DiagramError(f"{name} is defined for long diagrams")

    def span(c):
        return (c.head, c.tail, c.sign) if heads_first else (c.tail, c.head, c.sign)

    fixed = [span(c) for c in _chord_ids(diagram, containing)]
    forward = [s for s in fixed if s[0] < s[1]]
    backward = [s for s in fixed if s[1] < s[0]]
    if len(forward) > 1 or len(backward) > 1:
        return 0
    if not forward:
        forward = [s for s in map(span, diagram.chords) if s[0] < s[1]]
    if not backward:
        backward = [s for s in map(span, diagram.chords) if s[1] < s[0]]
    return sum(
        sa * sb for xa, ya, sa in forward for xb, yb, sb in backward if xa < yb < ya < xb
    )


def v21(diagram: GaussDiagram, containing: Collection[int] = ()) -> int:
    """Degree-2 invariant of long virtual knots: the signed count of the
    chord pairs in the interleaved order t1 h2 h1 t2 (``V21_PATTERN``).

    With ``containing``, only the pairs through those chords: that is its
    alternating sum over their deletions (see :func:`gpv_alt_sum`), read in
    O(n) pairs for one chord, one pair for two, and none for more."""
    return _interleaved("v21", diagram, containing, heads_first=False)


def v22(diagram: GaussDiagram, containing: Collection[int] = ()) -> int:
    """Companion degree-2 invariant (interleaved order h1 t2 t1 h2,
    ``V22_PATTERN``); takes ``containing`` as :func:`v21` does."""
    return _interleaved("v22", diagram, containing, heads_first=True)


def writhe_polynomial(diagram: GaussDiagram) -> LaurentPoly:
    """W(t) = sum over chords c of sign(c) (t**ind(c) - 1), 0 on the unknot
    and on classical knots.  With P(s) the sum of +sign at heads and -sign
    at tails before slot s, ind(c) = P(head) - P(tail) + sign(c); P over
    all slots is 0, so no wrap-around term is needed, and a long diagram
    reads as its closure."""
    weight = [0] * diagram.slot_count
    for _, tail, head, sign in diagram.chords:
        weight[tail], weight[head] = -sign, sign
    before = list(itertools.accumulate(weight, initial=0))
    terms = []
    for _, tail, head, sign in diagram.chords:
        terms += [(before[head] - before[tail] + sign, sign), (0, -sign)]
    return LaurentPoly(terms)


# -- alternating subset sums ----------------------------------------------------


def _alternating_terms(
    diagram: GaussDiagram, events: Sequence[MoveEvent]
) -> Iterator[tuple[int, GaussDiagram]]:
    """The terms ((-1)**|S|, apply_trace(diagram, S)) over all subsets S of
    ``events``, by size and then in ``itertools.combinations`` order."""
    for r in range(len(events) + 1):
        for chosen in itertools.combinations(events, r):
            yield (-1) ** r, apply_trace(diagram, chosen)


def gpv_alt_sum(
    invariant: Invariant, diagram: GaussDiagram, chord_ids: Iterable[int]
) -> int:
    """Alternating sum of ``invariant`` over all virtualizations of ``chord_ids``.

    Sum over subsets V of the chosen chords of (-1)**|V| applied to the
    diagram with V deleted.  Vanishing for every set of n+1 chords is the
    defining property of GPV-order <= n.  The ids are read by
    :func:`_chord_ids`, before any term is.
    """
    events = [MoveEvent("virtualize", (c.id,)) for c in _chord_ids(diagram, chord_ids)]
    return sum(sign * invariant(d) for sign, d in _alternating_terms(diagram, events))


# -- JSON interface ---------------------------------------------------------------


def load_arrow_polynomial(data: bytes | str) -> ArrowPolynomial:
    """Parse the arrow-polynomial JSON wire form.

    Schema: ``{"kind": "long"|"closed", "terms": [{"coeff": int,
    "endpoints": [["1","t"], ...], "signs": {"1": "free"|"+"|"-"}}]}``.
    """
    obj = load_json(data, "arrow polynomial", ArrowError)
    if not isinstance(obj, dict) or "kind" not in obj or "terms" not in obj:
        raise ArrowError("arrow polynomial JSON needs 'kind' and 'terms'")
    kind = obj["kind"]
    if kind not in ("long", "closed"):
        raise ArrowError(f"unknown kind {kind!r}")
    if not isinstance(obj["terms"], list):
        raise ArrowError("arrow polynomial 'terms' must be a list")
    terms = []
    for i, term in enumerate(obj["terms"]):
        if not isinstance(term, dict) or "coeff" not in term or "endpoints" not in term:
            raise ArrowError(f"term {i}: needs 'coeff' and 'endpoints'")
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ArrowError(f"term {i}: coeff must be an integer")
        if not isinstance(term["endpoints"], list) or not isinstance(term.get("signs") or {}, dict):
            raise ArrowError(f"term {i}: endpoints must be a list and signs an object")
        endpoints = []
        for ep in term["endpoints"]:
            if (
                not isinstance(ep, (list, tuple))
                or len(ep) != 2
                or not isinstance(ep[0], str)
            ):
                raise ArrowError(f"term {i}: endpoint {ep!r} must be [label, role]")
            endpoints.append((ep[0], ep[1]))
        signs = {}
        for label, s in (term.get("signs") or {}).items():
            # a list or an object is no key; the pattern refuses it as a sign
            signs[label] = {"+": 1, "-": -1, FREE: FREE}.get(s, s) if isinstance(s, str) else s
        try:
            terms.append((coeff, ArrowPattern(kind, tuple(endpoints), signs)))
        except ArrowError as exc:
            raise ArrowError(f"term {i}: {exc}") from None
    # an empty sum keeps its declared kind as a zero-weighted empty pattern
    return ArrowPolynomial(tuple(terms) or ((0, ArrowPattern(kind, ())),))
