"""Kauffman bracket, unnormalized Jones polynomial, and Z2 Khovanov homology
of virtual knots presented as closed Gauss diagrams.

States and smoothings
    A state assigns every chord a marker +1 (A-smoothing) or -1
    (B-smoothing).  Smoothing is traced directly on the diagram circle: the
    circle is split into 2n arcs between consecutive endpoint slots, and at
    a chord of sign ``e`` with marker ``mu`` the strands reconnect
    orientation-preservingly iff ``e * mu = +1`` (jump to the other
    endpoint and keep direction) and orientation-reversingly otherwise.
    Virtual crossings never appear at this level.

Gradings
    For an enhanced state S (a state with a label 1 or x on each circle):
    sigma = #(+ markers) - #(- markers), tau = #(1 labels) - #(x labels),
    w = writhe, i(S) = (w - sigma)/2 and j(S) = w + i(S) + tau.

Differential
    Switching one positive marker to negative raises i by 1.  When the
    circle count drops the two circles merge by 1*1 -> 1, 1*x -> x,
    x*x -> 0; when it rises the circle splits by 1 -> 1x + x1, x -> xx.
    Over Z2 a switch that preserves the circle count (possible on virtual
    diagrams) is declared a zero map; with that extension d is still a
    differential and the bigraded homology KH is invariant under all
    generalized Reidemeister moves, with graded Euler characteristic the
    unnormalized Jones polynomial.

    A switch is read off locally, from the circle index of each arc in the
    old and the new state and their circle counts.  The arcs ending and
    starting at the chord's tail lie on different strands of either
    smoothing there, so their circles in the old and the new state are the
    circles that merge or split, and the counts tell which.  Every other
    circle keeps its arcs, and circles are listed in order of their
    smallest arc, so the map from untouched old circles to new ones is
    monotone: a label mask moves by deleting the bits of the old circles
    and inserting the bits of the new ones.  ``homology`` and
    ``differential`` both go through :meth:`_StateSpace.switches` and
    :func:`_switch_images`.

Reduced complex
    Circle 0 is the circle through arc 0 in every state, since circles are
    numbered by their smallest arc.  Let X multiply the label of circle 0
    by x (1 -> x, x -> 0), and let nu be the sum, over the x-labelled
    circles, of turning that x into 1.  Over Z2 both commute with merge,
    split and the zero map, X**2 = 0 and X nu + nu X = id.  So X nu and
    nu X are complementary idempotent chain maps and C = im(X nu) +
    im(nu X).  im(X nu) is C_x, the enhanced states whose circle 0 is
    labelled x, and X maps im(nu X) isomorphically onto C_x, lowering j by
    2.  Hence KH^{i,j} = Hx^{i,j} + Hx^{i,j-2} (Shumakovitch, *Torsion of
    Khovanov homology*, Fund. Math. 225, 2014), and ``homology`` builds and
    reduces C_x alone: half of the enhanced states.

    d o d = 0 on the whole complex, which is never built, follows from two
    checks.  The rank elimination of each C_x block checks that every row
    independent of the rows before it maps to 0 under the next block; that
    is d o d = 0 on C_x, since those rows span the block's row space and d
    is linear.  And every switch map, on all its label masks, must commute
    with X and nu, so d does too.  Then d d = d d X nu + d d nu X, where
    d d X nu = (d d on C_x) X nu and d d nu X = nu (d d on C_x) X, and both
    are 0.  The C_x columns are cut from the image list the commutation
    check reads, so no change to the switch images reaches one and not
    the other.  Both are a pure function of the switch data and the
    circle count, so :func:`_x_columns` computes them once per process and
    keeps them in a bounded memo: the check runs on a map's first use, and
    every later use reads the same map, so it covers every map a table
    reads.

Chord reversal
    Reversing a chord (swapping its tail and head, keeping its sign)
    changes no smoothing: the orientation-preserving pairs (in at p, out at
    q) and (in at q, out at p), and the orientation-reversing pairs (in at
    p, in at q) and (out at p, out at q), are the same sets when p and q
    trade places.  So every circle, switch, census entry and the writhe
    stay, and so do the bracket, the Jones polynomial and the table
    (Kauffman, *Virtual knot theory*, Europ. J. Combin. 20, 1999: the
    bracket does not see a crossing flanked by virtual crossings).  The
    state sums may therefore delete a kink or an R2 pair whose chords point
    either way.  Only the state sums may: the arrow invariants and the
    forbidden moves read directions (docs/moves.md, "Chord reversal").

State space
    Every operation reads one state space per diagram: the circles of a
    state traced on its own, and a census of the states per
    (negative-marker count, circle count).  The census walks the states in
    reflected Gray-code order, so each step rewrites the four arc ends of
    one chord, and keeps no state; it counts circles on a ``seen`` list
    stamped with the mask, since reading the arc arrays of
    :meth:`_StateSpace.walk` made an ``eval`` request on 4-9 chords take
    0.70 ms instead of 0.58 ms.  ``homology`` goes along the same walk and
    keeps, for every state, only the circle index of each arc and the
    circle count, for the length of the call; it tallies the census on the
    way, so a ``kh`` report walks the cube once and traces no state on its
    own.  That cube is the reduced diagram's: ``kh`` first
    runs :func:`reduce_for_state_sums` (kink and R2 deletions up to chord
    reversal, then ``moves.simplify`` for R3 slides) and reads all three
    sums on the diagram it returns, so a request walks 2**(reduced n)
    states.  The table and the Jones polynomial are invariant under those
    steps; the bracket is not under R1, and the report rescales it by
    <D> = (-A^3)**(w(D) - w(D')) <D'>.  The chord cap is still judged on
    the input.  The bracket depends on a state only through its census
    key, so it sums the O(n^2) census entries instead of the 2**n states,
    and the Jones polynomial is read off that sum.

    Only the last diagram's space is cached, keyed by kind and chord tuple:
    the tuple carries the chord ids that order the markers, which diagram
    equality ignores.  The cache is how ``kh`` reads the table, the Jones
    polynomial and the bracket, three functions of a diagram, from one
    walk; every cache hit on the benchmark workloads was on the diagram
    just before.  It keeps only what calls share, the smoothings and the
    census: no single state, and no walk array past its call.  Two more
    memos outlive a diagram, both bounded pure functions of small keys,
    and ``homology``'s speed rests on them: the C_x columns of each switch
    map, keyed by (merge or split, a, b, c, circle count), and the order of
    the label masks by bit count.  Neither is built at import; the tables
    do not depend on what they hold.

    The basis of C_x is never listed.  ``homology`` makes one pass over
    the states in descending mask order.  Block (i, j) holds the enhanced
    states of that bidegree in that state order, then label order, so the
    state (mask, 2*mu + 1), whose other circles carry t x-labels, sits at
    the length the block had when the pass reached its state, plus the
    rank of mu among the masks with t bits set.  A switch raises the mask,
    so the pass has placed every target state before it builds the rows
    that map to it; the rows of each block are bitmasks over the next
    block, built straight from those indices, and a per-call dict in front
    of the memo looks each switch map's columns up once per call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .diagram import Chord, DiagramError, GaussDiagram
from .gf2 import gf2_rank
from .laurent import LaurentPoly
from .moves import simplify

DEFAULT_HOMOLOGY_CAP = 12
# Largest chord cap the CLI accepts for --cap-chords: 2**16 states.
MAX_CAP_CHORDS = 16

StateVec = tuple[int, ...]


class CapExceeded(DiagramError):
    """Raised when a diagram is larger than the configured chord cap."""


@dataclass(frozen=True)
class CircleSet:
    """Partition of the 2n boundary arcs into state circles.

    Circles are tuples of arc indices, sorted, and listed in increasing
    order of their smallest arc; a chord-free diagram has one empty circle.
    """

    circles: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.circles)


@dataclass(frozen=True)
class EnhancedState:
    """Markers per chord (in chord-id order) plus a label per circle.

    Labels follow the circle order of :func:`trace_circles` and are the
    strings ``"1"`` and ``"x"``.
    """

    markers: StateVec
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(m not in (1, -1) for m in self.markers):
            raise DiagramError("markers must be +1 or -1")
        if any(l not in ("1", "x") for l in self.labels):
            raise DiagramError("labels must be '1' or 'x'")


@dataclass(frozen=True)
class GradedDims:
    """Finitely supported table (i, j) -> dim_Z2 KH^{i,j}."""

    dims: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, table: dict[tuple[int, int], int]) -> GradedDims:
        return cls(tuple(sorted((k, v) for k, v in table.items() if v)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.dims)

    def dim(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    def euler(self) -> LaurentPoly:
        acc: dict[int, int] = {}
        for (i, j), d in self.dims:
            acc[j] = acc.get(j, 0) + (-1) ** i * d
        return LaurentPoly(acc)


def writhe(diagram: GaussDiagram | _StateSpace) -> int:
    return sum(c.sign for c in diagram.chords)


def _reversal_deletion(d: GaussDiagram) -> tuple[int, ...]:
    """Ids of a kink or of an R2 pair up to chord reversal: one chord whose
    two ends are adjacent, or two chords of opposite signs whose four ends
    form two adjacent slot pairs, whatever their directions; () if none."""
    m = d.slot_count

    def adjacent(a: int, b: int) -> bool:
        return (a - b) % m in (1, m - 1)

    for c in d.chords:
        if adjacent(c.tail, c.head):
            return (c.id,)
    for c in d.chords:
        for s in ((c.tail - 1) % m, (c.tail + 1) % m):
            other, _ = d.at(s)
            if other.sign != c.sign and adjacent(other.other(s), c.head):
                return (c.id, other.id)
    return ()


def reduce_for_state_sums(closed: GaussDiagram) -> tuple[GaussDiagram, int]:
    """A diagram with the homology table and Jones polynomial of the closed
    diagram ``closed``, and the writhe shift w(closed) - w(reduced), so that
    <closed> = (-A^3)**shift <reduced>.

    Repeats two steps until the chord count stops falling: delete kinks and
    R2 pairs up to chord reversal (see "Chord reversal" above), then run
    :func:`moves.simplify` for its R3 slides.  Only the state sums may read
    this diagram; it need not be equivalent to ``closed`` as a virtual knot.
    Deleting first keeps simplify's search small, but it is greedy: it can
    delete two chords that simplify would first slide with R3 on the way
    to a smaller diagram, so the result can keep more chords than
    ``simplify(closed)`` does.
    """
    reduced = closed
    while True:
        start = reduced.n
        while dead := _reversal_deletion(reduced):
            reduced = reduced.delete_chords(dead)
        reduced, _ = simplify(reduced)
        if reduced.n == start:
            return reduced, writhe(closed) - writhe(reduced)


# -- state space engine --------------------------------------------------------


class _StateSpace:
    """Smoothings, circle data and switch transitions of one closed diagram.

    Masks encode states: bit k set means chord ``chords[k]`` carries the
    negative marker.
    """

    def __init__(self, kind: str, chords: tuple[Chord, ...]):
        if kind != "closed":
            raise DiagramError("state smoothing expects a closed diagram")
        self.chords = chords
        self.n = len(chords)
        self.w = writhe(self)
        # Arc i runs slot i -> slot i+1; its ends are L=2i (at slot i) and
        # R=2i+1 (at slot i+1).  Smoothing a chord pairs up the four arc
        # ends at its slots as (a, b), (c, d); per chord, the pairs for the
        # positive and for the negative marker.  The strands reconnect
        # orientation-preservingly iff sign * marker = +1.
        m = 2 * self.n
        self._smoothings = []
        for c in chords:
            r_in_p, r_in_q = 2 * ((c.tail - 1) % m) + 1, 2 * ((c.head - 1) % m) + 1
            l_out_p, l_out_q = 2 * c.tail, 2 * c.head
            preserving = (r_in_p, l_out_q, r_in_q, l_out_p)
            reversing = (r_in_p, r_in_q, l_out_p, l_out_q)
            self._smoothings.append(
                (preserving, reversing) if c.sign > 0 else (reversing, preserving)
            )
        # per chord: its mask bit and the arcs (u, v) ending and starting at
        # its tail, which lie on different strands of either smoothing there
        self._tails = [(1 << k, (c.tail - 1) % m, c.tail) for k, c in enumerate(chords)]

    def mask_of(self, markers: StateVec) -> int:
        if len(markers) != self.n:
            raise DiagramError(f"expected {self.n} markers, got {len(markers)}")
        mask = 0
        for k, mu in enumerate(markers):
            if mu not in (1, -1):
                raise DiagramError("markers must be +1 or -1")
            if mu < 0:
                mask |= 1 << k
        return mask

    def markers_of(self, mask: int) -> StateVec:
        return tuple(-1 if (mask >> k) & 1 else 1 for k in range(self.n))

    def circles(self, mask: int) -> tuple[tuple[int, ...], ...]:
        return self._trace(mask)[0]

    def _trace(self, mask: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        """(circles, circle index of each arc) of one state, traced on its own."""
        partner = [0] * (4 * self.n)
        for k, ends in enumerate(self._smoothings):
            a, b, c, d = ends[(mask >> k) & 1]
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
        arc_circle, count = self._arc_circles(partner)
        circles: list[list[int]] = [[] for _ in range(count)]
        for arc, idx in enumerate(arc_circle):
            circles[idx].append(arc)
        return tuple(map(tuple, circles)), arc_circle

    def _arc_circles(self, partner: list[int]) -> tuple[list[int], int]:
        """(circle index of each arc, circle count) when smoothings join arc
        end e to arc end ``partner[e]``; the chord-free diagram is one
        circle without arcs."""
        m = 2 * self.n
        # walking from the lowest arc not yet on a circle numbers the
        # circles in order of their smallest arc
        arc_circle = [-1] * m
        count = 0 if m else 1
        for start in range(m):
            if arc_circle[start] >= 0:
                continue
            end = 2 * start
            while arc_circle[end >> 1] < 0:
                arc_circle[end >> 1] = count
                end = partner[end ^ 1]
            count += 1
        return arc_circle, count

    def _gray(self) -> Iterator[tuple[int, list[int]]]:
        """Every state as (mask, partner), in reflected Gray-code order.

        ``partner`` joins the arc ends as the state's smoothings do.  It is
        one list: step g flips the marker of chord k, the lowest set bit of
        g, and rewrites only that chord's four entries."""
        partner = [0] * (4 * self.n)
        for a, b, c, d in (ends[0] for ends in self._smoothings):
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
        mask = 0
        yield mask, partner
        for g in range(1, 1 << self.n):
            k = (g & -g).bit_length() - 1
            mask ^= 1 << k
            a, b, c, d = self._smoothings[k][(mask >> k) & 1]
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
            yield mask, partner

    @functools.cached_property
    def census(self) -> dict[tuple[int, int], int]:
        """Number of states per (negative-marker count, circle count),
        counted along the Gray walk on a ``seen`` list stamped with the
        mask; no state is kept."""
        m = 2 * self.n
        seen = [-1] * m
        counts: dict[tuple[int, int], int] = {}
        for mask, partner in self._gray():
            count = 0 if m else 1  # the chord-free diagram is one circle
            for start in range(m):
                if seen[start] == mask:
                    continue
                count += 1
                end = 2 * start
                while seen[end >> 1] != mask:
                    seen[end >> 1] = mask
                    end = partner[end ^ 1]
            key = (mask.bit_count(), count)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def walk(self) -> tuple[list[list[int]], list[int]]:
        """The circle index of each arc and the circle count of every state,
        indexed by mask, traced along the Gray walk; the census is tallied
        on the way.  Neither list is kept."""
        size = 1 << self.n
        arcs: list[list[int]] = [[]] * size
        sizes = [0] * size
        counts: dict[tuple[int, int], int] = {}
        for mask, partner in self._gray():
            arcs[mask], count = self._arc_circles(partner)
            sizes[mask] = count
            key = (mask.bit_count(), count)
            counts[key] = counts.get(key, 0) + 1
        # cached_property reads a value already in the instance dict
        vars(self).setdefault("census", counts)
        return arcs, sizes

    def homological_i(self, mask: int) -> int:
        """i = (w - sigma)/2, where sigma = n - 2 * #negative markers."""
        return (self.w - self.n) // 2 + mask.bit_count()

    def switches(self, mask: int, arcs, sizes) -> Iterator[tuple[int, int, int, int, int]]:
        """Every positive-marker switch of state ``mask`` that changes the
        circle count, as (new mask, split, a, b, c): old circles a < b merge
        into new circle c (split 0), or old circle a splits into new circles
        b < c (split 1).  A switch that keeps the count is the zero map and
        is skipped.  ``arcs[m]`` and ``sizes[m]`` are the circle index of
        each arc and the circle count of state m, for the state and every
        state one switch above it."""
        old, size = arcs[mask], sizes[mask]
        for bit, u, v in self._tails:
            if mask & bit:
                continue
            new_mask = mask | bit
            new_size = sizes[new_mask]
            if new_size == size:
                continue
            new = arcs[new_mask]
            if new_size == size - 1:
                a, b = old[u], old[v]
                yield (new_mask, 0, a, b, new[u]) if a < b else (new_mask, 0, b, a, new[u])
            elif new_size == size + 1:
                b, c = new[u], new[v]
                yield (new_mask, 1, old[u], b, c) if b < c else (new_mask, 1, old[u], c, b)
            else:
                raise AssertionError("a marker switch changes the circle count by at most 1")


# the one-entry cache of "State space" above
_space_of = functools.lru_cache(maxsize=1)(_StateSpace)


def _space(diagram: GaussDiagram) -> _StateSpace:
    return _space_of(diagram.kind, diagram.chords)


# -- public operations -----------------------------------------------------------


def trace_circles(diagram: GaussDiagram, markers: StateVec) -> CircleSet:
    """Circles of the diagram smoothed along ``markers`` (one per chord,
    in chord-id order)."""
    sp = _space(diagram)
    return CircleSet(sp.circles(sp.mask_of(tuple(markers))))


def gradings(diagram: GaussDiagram, state: EnhancedState) -> tuple[int, int, int, int]:
    """(sigma, tau, i, j) of an enhanced state."""
    sp = _space(diagram)
    mask = sp.mask_of(state.markers)
    circles = sp.circles(mask)
    if len(state.labels) != len(circles):
        raise DiagramError(
            f"state has {len(circles)} circles but {len(state.labels)} labels"
        )
    sigma = sp.n - 2 * mask.bit_count()
    tau = sum(1 if l == "1" else -1 for l in state.labels)
    i = sp.homological_i(mask)
    j = sp.w + i + tau
    return sigma, tau, i, j


def enhanced_states(diagram: GaussDiagram) -> Iterable[EnhancedState]:
    """All enhanced states, in (state bitmask, lexicographic labels) order."""
    sp = _space(diagram)
    for mask in range(1 << sp.n):
        markers = sp.markers_of(mask)
        k = len(sp.circles(mask))
        for labels in itertools.product("1x", repeat=k):
            yield EnhancedState(markers, labels)


def _census_bracket(sp: _StateSpace) -> LaurentPoly:
    """The bracket summed over the census: a state with b negative markers
    has sigma = n - 2b, and (-A^2 - A^-2)**s = (-1)**s * sum_k C(s, k)
    A**(4k - 2s) turns each census entry into s + 1 integer terms."""
    acc: dict[int, int] = {}
    for (neg, size), count in sp.census.items():
        sigma = sp.n - 2 * neg
        signed = -count if size % 2 else count
        for k in range(size + 1):
            e = sigma + 4 * k - 2 * size
            acc[e] = acc.get(e, 0) + signed * math.comb(size, k)
    return LaurentPoly(acc)


def bracket(diagram: GaussDiagram) -> LaurentPoly:
    """Kauffman bracket state sum, normalized by <empty> = 1.

    <D> = sum over states of A**sigma * (-A^2 - A^-2)**|s|, so the
    chord-free diagram evaluates to -A^2 - A^-2.
    """
    return _census_bracket(_space(diagram))


def jones_hat(diagram: GaussDiagram) -> LaurentPoly:
    """Unnormalized Jones polynomial: sum over enhanced states of
    (-1)**i(S) * q**j(S).  Invariant under all generalized Reidemeister
    moves.  Read off the bracket: :func:`jones_from_bracket` maps its term
    A**(sigma + 4k - 2s) * (-1)**s * C(s, k) to (-1)**i * q**(w + i + s -
    2k) * C(s, k), the state sum's term.  It does not call :func:`bracket`,
    so counting that name counts only the bracket's own callers."""
    sp = _space(diagram)
    return jones_from_bracket(_census_bracket(sp), sp.w)


def jones_from_bracket(br: LaurentPoly, w: int) -> LaurentPoly:
    """Bracket-to-Jones change of variable, calibrated so that the unknot
    maps to q + 1/q and the writhe sign rule matches the state sum:
    A**k -> (-1)**((w - k)/2) * q**(w + (w - k)/2)."""
    acc: dict[int, int] = {}
    for k, coeff in br.items():
        if (w - k) % 2:
            raise DiagramError("bracket exponent parity inconsistent with writhe")
        half = (w - k) // 2
        e = w + half
        acc[e] = acc.get(e, 0) + coeff * (-1) ** (half % 2)
    return LaurentPoly(acc)


def _label_mask(labels: tuple[str, ...]) -> int:
    mask = 0
    for idx, l in enumerate(labels):
        if l == "x":
            mask |= 1 << idx
    return mask


def _mask_labels(mask: int, count: int) -> tuple[str, ...]:
    return tuple("x" if (mask >> idx) & 1 else "1" for idx in range(count))


def _drop_bit(mask: int, pos: int) -> int:
    """``mask`` with bit ``pos`` removed and the higher bits shifted down."""
    return (mask & ((1 << pos) - 1)) | ((mask >> (pos + 1)) << pos)


def _insert_bit(mask: int, pos: int, bit: int) -> int:
    """``mask`` with ``bit`` inserted at ``pos`` and the higher bits shifted up."""
    return (mask & ((1 << pos) - 1)) | (bit << pos) | ((mask >> pos) << (pos + 1))


def _switch_images(sw: tuple[str, int, int, int], lam: int) -> list[int]:
    """New label masks produced by one marker switch (Z2 coefficients):
    ("merge", a, b, c) merges old circles a < b into new circle c, and
    ("split", a, b, c) splits old circle a into new circles b < c.

    Circles the switch leaves alone keep their order, so their labels move
    by deleting the old circles' bits and inserting the new circles' bits.
    """
    kind, a, b, c = sw
    if kind == "merge":
        xa, xb = (lam >> a) & 1, (lam >> b) & 1
        if xa and xb:
            return []
        return [_insert_bit(_drop_bit(_drop_bit(lam, b), a), c, xa | xb)]
    base = _drop_bit(lam, a)
    if (lam >> a) & 1:
        return [_insert_bit(_insert_bit(base, b, 1), c, 1)]
    return [
        _insert_bit(_insert_bit(base, b, 1), c, 0),
        _insert_bit(_insert_bit(base, b, 0), c, 1),
    ]


def differential(diagram: GaussDiagram, state: EnhancedState) -> list[EnhancedState]:
    """Images of one enhanced state under the Z2 differential, one per
    surviving positive-marker switch.  Every image T has i(T) = i(S) + 1
    and j(T) = j(S)."""
    sp = _space(diagram)
    mask = sp.mask_of(state.markers)
    near = [mask] + [mask | bit for bit, _, _ in sp._tails if not mask & bit]
    traced = {m: sp._trace(m) for m in near}
    arcs = {m: arc_circle for m, (_, arc_circle) in traced.items()}
    sizes = {m: len(circles) for m, (circles, _) in traced.items()}
    if len(state.labels) != sizes[mask]:
        raise DiagramError("label count does not match the state's circles")
    lam = _label_mask(state.labels)
    out = []
    for new_mask, split, a, b, c in sp.switches(mask, arcs, sizes):
        sw = ("split" if split else "merge", a, b, c)
        for lam2 in _switch_images(sw, lam):
            out.append(
                EnhancedState(sp.markers_of(new_mask), _mask_labels(lam2, sizes[new_mask]))
            )
    return out


def _label_planes(size: int) -> list[int]:
    """Plane k, for k < size: the bitmask over the 2**size label masks that
    selects those with bit k set."""
    ones = (1 << (1 << size)) - 1
    planes = []
    for k in range(size):
        half = 1 << k
        # 2**k clear bits, then 2**k set bits, repeated
        planes.append((((1 << half) - 1) << half) * (ones // ((1 << 2 * half) - 1)))
    return planes


# one entry per bit count; a state of n chords has at most n + 1 circles
@functools.lru_cache(maxsize=MAX_CAP_CHORDS + 1)
def _bit_order(bits: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(rank, groups) of the masks below 2**bits: ``groups[t]`` lists those
    with t bits set in increasing order, and ``rank[mu]`` is the position
    of mu in its group.  A mask's rank does not depend on ``bits``."""
    groups: list[list[int]] = [[] for _ in range(bits + 1)]
    rank = []
    for mu in range(1 << bits):
        group = groups[mu.bit_count()]
        rank.append(len(group))
        group.append(mu)
    return tuple(rank), tuple(map(tuple, groups))


# Over 960 kh-large requests (seeds 1-8) 150 distinct switch maps came up;
# the bound leaves room and caps the memory a pathological input can pin.
@functools.lru_cache(maxsize=256)
def _x_columns(sw: tuple[str, int, int, int], size: int) -> tuple[int, ...]:
    """Column bits of one switch on C_x, from a state of ``size`` circles.

    C_x holds the label masks whose circle 0 is labelled x (bit 0 set).  A
    source mask 2*mu + 1 is listed at mu, and its images are bits
    ``rank[lam2 >> 1]`` (see :func:`_bit_order`).  The images of all
    2**size label masks are listed once.  The check reads that whole list,
    and the columns are cut from its odd half, so the map ``homology``
    reduces is the map the check covers.  The map F must commute with X (x
    times circle 0's label: 1 -> x, x -> 0) and with nu (the sum, over the
    x-labelled circles, of turning that x into 1); otherwise
    AssertionError("d o d ...") is raised.  F(e_lam) is the bitmask
    ``vecs[lam]`` over the target label masks, on which X and nu act
    through the target's label planes.

    The columns and the check are a pure function of the switch data and
    the circle count, so they are computed once per process, on the map's
    first use, and the check covers every map ``homology`` reads.
    """
    images = [_switch_images(sw, lam) for lam in range(1 << size)]
    vecs = []
    for found in images:
        vec = 0
        for lam2 in found:
            vec ^= 1 << lam2
        vecs.append(vec)
    target = size + 1 if sw[0] == "split" else size - 1
    planes = _label_planes(target)
    evens = planes[0] ^ ((1 << (1 << len(planes))) - 1)
    for lam, vec in enumerate(vecs):
        f_nu = nu_f = 0
        rest = lam
        while rest:
            low = rest & -rest
            f_nu ^= vecs[lam ^ low]
            rest ^= low
        for k, plane in enumerate(planes):
            nu_f ^= (vec & plane) >> (1 << k)
        f_x = 0 if lam & 1 else vecs[lam | 1]
        if f_x != (vec & evens) << 1 or f_nu != nu_f:
            raise AssertionError(
                f"d o d = 0 not implied: {sw} on {size} circles does not "
                f"commute with X and nu at label mask {lam}"
            )
    rank = _bit_order(target - 1)[0]
    columns = []
    for found in images[1::2]:
        vec = 0
        for lam2 in found:
            vec ^= 1 << rank[lam2 >> 1]
        columns.append(vec)
    return tuple(columns)


def homology(
    diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP
) -> GradedDims:
    """Z2 Khovanov homology dimensions per bidegree (i, j).

    Walks the 2**n states once and builds, per j-column, only the
    subcomplex C_x whose circle 0 is labelled x, from the walk's arc
    arrays, in one pass over the states in descending mask order.  Its
    dims dim ker - dim im come from GF(2) ranks, and KH^{i,j} = Hx^{i,j} +
    Hx^{i,j-2} (see "Reduced complex" above).  d o d = 0 on the whole
    complex follows from two checks: the rank elimination checks it on
    C_x, on the rows it finds independent, and every switch map must
    commute with X and nu, which :func:`_x_columns` checks on the map's
    first use in the process.
    """
    if diagram.n > cap:
        raise CapExceeded(f"homology capped at {cap} chords, got {diagram.n}")
    sp = _space(diagram)
    arcs, sizes = sp.walk()
    w = sp.w

    # A basis element (mask, 2*mu + 1) of C_x has its circle 0 labelled x
    # and bit k of mu labelling circle k + 1.  The block (i, j) lists them
    # in descending mask order, then mu order.  A state of size circles
    # and mu with t bits has j = w + i + size - 2 - 2t and sits at
    # offset[mask][t] + rank[mu], where rank[mu] is the position of mu
    # among the masks with t bits set.  Every switch raises the mask, so
    # the pass reaches a target state before the states that map to it,
    # and a row is built when its target offsets are known.
    top = max(sizes)
    groups = [_bit_order(size - 1)[1] for size in range(1, top + 1)]

    # Column bits of the images of every mu under one switch, relative to
    # the target state's block offset; they depend only on the switch data
    # and the circle count, which key them as one int.  Images keep j, so
    # a merge keeps the number of x-labels and a split adds one: a part
    # pairs the columns with the target's offsets from that t on.  The
    # blocks a state's rows go to, one per t, depend only on its negative
    # marker count and circle count, which key them as one int too.
    base = top + 1
    columns: dict[int, tuple[int, ...]] = {}
    offset: list[list[int]] = [[]] * len(sizes)
    matrices: dict[tuple[int, int], list[int]] = {}
    blocks: dict[int, list[list[int]]] = {}
    for mask in range(len(sizes) - 1, -1, -1):
        size = sizes[mask]
        parts = []
        for new_mask, split, a, b, c in sp.switches(mask, arcs, sizes):
            key = (((split * base + a) * base + b) * base + c) * base + size
            cols = columns.get(key)
            if cols is None:
                sw = ("split" if split else "merge", a, b, c)
                cols = columns[key] = _x_columns(sw, size)
            parts.append((cols, offset[new_mask][split:]))
        key = mask.bit_count() * base + size
        rows_of = blocks.get(key)
        if rows_of is None:
            i = sp.homological_i(mask)
            rows_of = blocks[key] = [
                matrices.setdefault((i, w + i + size - 2 - 2 * t), []) for t in range(size)
            ]
        offset[mask] = [len(rows) for rows in rows_of]
        last = size - 1
        for t, group in enumerate(groups[last]):
            rows = rows_of[t]
            if t == last:
                # merging two x-labels gives nothing, so when every label
                # is x a merge has no target block
                parts = [part for part in parts if len(part[1]) > t]
            for mu in group:
                vec = 0
                for cols, at in parts:
                    vec |= cols[mu] << at[t]
                rows.append(vec)

    # d o d = 0 on C_x is checked inside each block's elimination
    ranks = {
        (i, j): gf2_rank(rows, matrices.get((i + 1, j)))
        for (i, j), rows in matrices.items()
    }
    table: dict[tuple[int, int], int] = {}
    for (i, j), rows in matrices.items():
        dim = len(rows) - ranks[(i, j)] - ranks.get((i - 1, j), 0)
        if dim:
            # the other summand, im(nu X), is C_x shifted two j-steps up
            for key in ((i, j), (i, j + 2)):
                table[key] = table.get(key, 0) + dim
    return GradedDims.from_dict(table)


def lemma5_check(diagram: GaussDiagram, markers: StateVec) -> bool:
    """Fast nontriviality certificate for the all-1 enhanced state on this
    state: every positive-to-negative marker switch must preserve the
    circle count and every negative-to-positive switch must not increase
    it.  When true, the all-1 enhanced state survives to homology, so
    dim KH^{i(S), j(S)} >= 1."""
    sp = _space(diagram)
    mask = sp.mask_of(tuple(markers))
    size = len(sp.circles(mask))
    for k in range(sp.n):
        if (mask >> k) & 1:
            if len(sp.circles(mask & ~(1 << k))) > size:
                return False
        else:
            if len(sp.circles(mask | (1 << k))) != size:
                return False
    return True


def lemma5_gradings(diagram: GaussDiagram, markers: StateVec) -> tuple[int, int]:
    """(i, j) of the all-1 enhanced state on ``markers``."""
    sp = _space(diagram)
    mask = sp.mask_of(tuple(markers))
    i = sp.homological_i(mask)
    return i, sp.w + i + len(sp.circles(mask))


def lemma5_scan(
    diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP
) -> list[tuple[StateVec, int, int]]:
    """All states passing :func:`lemma5_check`, with the (i, j) of their
    all-1 enhanced state.  The circle counts come from one walk of the
    cube; no state is traced on its own."""
    if diagram.n > cap:
        raise CapExceeded(f"lemma5 scan capped at {cap} chords, got {diagram.n}")
    sp = _space(diagram)
    _, sizes = sp.walk()
    bits = [1 << k for k in range(sp.n)]
    out = []
    for mask, size in enumerate(sizes):
        if all(
            sizes[mask ^ bit] <= size if mask & bit else sizes[mask | bit] == size
            for bit in bits
        ):
            i = sp.homological_i(mask)
            out.append((sp.markers_of(mask), i, sp.w + i + size))
    return out


def distinguish_from_unknot(
    diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP
) -> tuple[bool, tuple[int, int] | None]:
    """(True, (i, j)) when some KH^{i,j} with |j| != 1 is nonzero; such a
    class cannot occur for the unknot, whose homology is Z2 at (0, -1) and
    (0, 1) only.  (False, None) does not certify triviality."""
    table = homology(diagram, cap)
    for (i, j), dim in table.dims:
        if abs(j) != 1 and dim > 0:
            return True, (i, j)
    return False, None
