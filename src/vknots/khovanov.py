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

    A switch is read off locally.  The arcs ending and starting at the
    chord's tail lie on different strands of either smoothing there, so
    their circles in the old and the new state are the circles that merge
    or split.  Every other circle keeps its arcs, and circles are listed in
    order of their smallest arc, so the map from untouched old circles to
    new ones is monotone: a label mask moves by deleting the bits of the
    old circles and inserting the bits of the new ones.  ``homology`` and
    ``differential`` both go through :meth:`_StateSpace.switch` and
    :func:`_switch_images`.

State space
    Every operation reads one state space per diagram: the circles of each
    traced state, the circle of each arc, and a census of the states per
    (negative-marker count, circle count).  The bracket and the Jones
    polynomial depend on a state only through that pair, so each sums the
    O(n^2) census entries instead of the 2**n states.  A state with s
    circles contributes a power (-A^2 - A^-2)**s or (q + 1/q)**s, whose
    coefficients are the binomials C(s, k); both sums add those integers
    into one exponent-to-coefficient dict and build a single polynomial
    from it.

    Only the last diagram's space is cached, keyed by kind and chord tuple:
    the tuple carries the chord ids that order the markers, which diagram
    equality ignores.  One entry is enough, since callers ask for one
    diagram several times in a row (homology, Jones and bracket of a ``kh``
    report, the states of a Lemma 5 scan); on the benchmark workloads every
    cache hit was on the diagram just before.

    The homology basis is never listed.  Block (i, j) holds the enhanced
    states of that bidegree in state order, then label order, so the state
    (mask, lam) with t x-labels sits at a block offset of its state for t,
    counted with binomial coefficients, plus the rank of lam among the
    label masks with t bits set.  The rows of each block are bitmasks over
    the next block and are built straight from those indices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .diagram import Chord, DiagramError, GaussDiagram
from .gf2 import gf2_rank
from .laurent import LaurentPoly

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


def writhe(diagram: GaussDiagram) -> int:
    return sum(c.sign for c in diagram.chords)


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
        self.w = sum(c.sign for c in chords)
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
        self._states: dict[int, tuple[tuple[tuple[int, ...], ...], list[int]]] = {}

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
        return self._state(mask)[0]

    def _state(self, mask: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        """(circles, circle index of each arc) of one state, traced once."""
        got = self._states.get(mask)
        if got is None:
            got = self._states[mask] = self._trace(mask)
        return got

    def _trace(self, mask: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        n = self.n
        if n == 0:
            return ((),), []
        m = 2 * n
        partner = [0] * (2 * m)
        for k, ends in enumerate(self._smoothings):
            a, b, c, d = ends[(mask >> k) & 1]
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
        # walking from the lowest arc not yet on a circle numbers the
        # circles in order of their smallest arc
        arc_circle = [-1] * m
        count = 0
        for start in range(m):
            if arc_circle[start] >= 0:
                continue
            end = 2 * start
            while arc_circle[end >> 1] < 0:
                arc_circle[end >> 1] = count
                end = partner[end ^ 1]
            count += 1
        circles: list[list[int]] = [[] for _ in range(count)]
        for arc, idx in enumerate(arc_circle):
            circles[idx].append(arc)
        return tuple(map(tuple, circles)), arc_circle

    @functools.cached_property
    def census(self) -> dict[tuple[int, int], int]:
        """Number of states per (negative-marker count, circle count)."""
        counts: dict[tuple[int, int], int] = {}
        for mask in range(1 << self.n):
            key = (mask.bit_count(), len(self.circles(mask)))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def sigma(self, mask: int) -> int:
        return self.n - 2 * bin(mask).count("1")

    def homological_i(self, mask: int) -> int:
        return (self.w - self.sigma(mask)) // 2

    def switch(self, mask: int, k: int) -> tuple[str, int, int, int]:
        """Effect of switching the positive marker of chord k to negative.

        Returns ("zero", -1, -1, -1) when the circle count is unchanged,
        ("merge", a, b, c) when old circles a < b merge into new circle c,
        and ("split", a, b, c) when old circle a splits into new circles
        b < c.  Every other circle keeps its arcs, so the old and the new
        circle order agree on them.
        """
        old, old_arc = self._state(mask)
        new, new_arc = self._state(mask | (1 << k))
        # the arcs ending and starting at the chord's tail lie on different
        # strands of either smoothing there
        v = self.chords[k].tail
        u = (v - 1) % (2 * self.n)
        if len(new) == len(old) - 1:
            a, b = sorted((old_arc[u], old_arc[v]))
            return ("merge", a, b, new_arc[u])
        if len(new) == len(old) + 1:
            b, c = sorted((new_arc[u], new_arc[v]))
            return ("split", old_arc[u], b, c)
        if len(new) == len(old):
            return ("zero", -1, -1, -1)
        raise AssertionError("a marker switch changes the circle count by at most 1")


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
    sigma = sp.sigma(mask)
    tau = sum(1 if l == "1" else -1 for l in state.labels)
    i = (sp.w - sigma) // 2
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


def bracket(diagram: GaussDiagram) -> LaurentPoly:
    """Kauffman bracket state sum, normalized by <empty> = 1.

    <D> = sum over states of A**sigma * (-A^2 - A^-2)**|s|, so the
    chord-free diagram evaluates to -A^2 - A^-2.  A state with b negative
    markers has sigma = n - 2b, so the sum runs over the census, and
    (-A^2 - A^-2)**s = (-1)**s * sum_k C(s, k) A**(4k - 2s) turns each
    census entry into s + 1 integer terms.
    """
    sp = _space(diagram)
    acc: dict[int, int] = {}
    for (neg, size), count in sp.census.items():
        sigma = sp.n - 2 * neg
        signed = -count if size % 2 else count
        for k in range(size + 1):
            e = sigma + 4 * k - 2 * size
            acc[e] = acc.get(e, 0) + signed * math.comb(size, k)
    return LaurentPoly(acc)


def jones_hat(diagram: GaussDiagram) -> LaurentPoly:
    """Unnormalized Jones polynomial: sum over enhanced states of
    (-1)**i(S) * q**j(S).  Invariant under all generalized Reidemeister
    moves.  A state with b negative markers has i = (w - n)/2 + b, and its
    labelings contribute q**(w + i) * (q + 1/q)**|s|, so the sum runs over
    the census; (q + 1/q)**s = sum_k C(s, k) q**(2k - s) turns each census
    entry into s + 1 integer terms."""
    sp = _space(diagram)
    acc: dict[int, int] = {}
    for (neg, size), count in sp.census.items():
        i = (sp.w - sp.n) // 2 + neg
        signed = -count if i % 2 else count
        for k in range(size + 1):
            e = sp.w + i + 2 * k - size
            acc[e] = acc.get(e, 0) + signed * math.comb(size, k)
    return LaurentPoly(acc)


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
    """New label masks produced by one marker switch (Z2 coefficients).

    Circles the switch leaves alone keep their order, so their labels move
    by deleting the old circles' bits and inserting the new circles' bits.
    """
    kind, a, b, c = sw
    if kind == "zero":
        return []
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
    if len(state.labels) != len(sp.circles(mask)):
        raise DiagramError("label count does not match the state's circles")
    lam = _label_mask(state.labels)
    out = []
    for k in range(sp.n):
        if (mask >> k) & 1:
            continue
        new_mask = mask | (1 << k)
        count = len(sp.circles(new_mask))
        for lam2 in _switch_images(sp.switch(mask, k), lam):
            out.append(EnhancedState(sp.markers_of(new_mask), _mask_labels(lam2, count)))
    return out


def homology(
    diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP
) -> GradedDims:
    """Z2 Khovanov homology dimensions per bidegree (i, j).

    Enumerates the 2**n states with their label expansions, builds the
    differential per j-column, asserts d o d = 0, and reports
    dim ker - dim im by GF(2) ranks.
    """
    if diagram.n > cap:
        raise CapExceeded(f"homology capped at {cap} chords, got {diagram.n}")
    sp = _space(diagram)
    n, w = sp.n, sp.w
    states = range(1 << n)
    sizes = [len(sp.circles(mask)) for mask in states]

    # The block (i, j) lists the enhanced states (mask, lam) of degree
    # (i, j) in mask order, then label order.  A state with t x-labels
    # sits at offset[mask][t] + rank[lam], where rank[lam] is the position
    # of lam among the label masks with t bits set.
    top = max(sizes)
    by_bits: list[list[int]] = [[] for _ in range(top + 1)]
    rank = [0] * (1 << top)
    for lam in range(1 << top):
        group = by_bits[lam.bit_count()]
        rank[lam] = len(group)
        group.append(lam)
    filled: dict[tuple[int, int], int] = {}
    offset = []
    for mask in states:
        size, i = sizes[mask], sp.homological_i(mask)
        starts = []
        for t in range(size + 1):
            key = (i, w + i + size - 2 * t)
            at = filled.get(key, 0)
            starts.append(at)
            filled[key] = at + math.comb(size, t)
        offset.append(starts)

    # Column bits of the images of every label mask under one switch,
    # relative to the target state's block offset; they depend only on the
    # switch data and the circle count.  Images keep j, so a merge keeps
    # the number of x-labels and a split adds one.
    columns: dict[tuple[tuple[str, int, int, int], int], list[int]] = {}
    matrices: dict[tuple[int, int], list[int]] = {key: [] for key in filled}
    for mask in states:
        size, i = sizes[mask], sp.homological_i(mask)
        targets = []
        for k in range(n):
            if (mask >> k) & 1:
                continue
            sw = sp.switch(mask, k)
            if sw[0] == "zero":
                continue
            cols = columns.get((sw, size))
            if cols is None:
                cols = columns[(sw, size)] = [
                    sum(1 << rank[lam2] for lam2 in _switch_images(sw, lam))
                    for lam in range(1 << size)
                ]
            targets.append((offset[mask | (1 << k)], sw[0] == "split", cols))
        for t in range(size + 1):
            rows = matrices[(i, w + i + size - 2 * t)]
            # merging two x-labels gives nothing, so when every label is x
            # a merge has no target block
            parts = [
                (cols, starts[t + up])
                for starts, up, cols in targets
                if t + up < len(starts)
            ]
            for lam in by_bits[t][: math.comb(size, t)]:
                vec = 0
                for cols, at in parts:
                    vec |= cols[lam] << at
                rows.append(vec)

    # d o d = 0, checked blockwise before any elimination
    for (i, j), rows in matrices.items():
        nxt = matrices.get((i + 1, j))
        if not nxt:
            continue
        for vec in rows:
            acc = 0
            v = vec
            while v:
                low = v & -v
                acc ^= nxt[low.bit_length() - 1]
                v ^= low
            if acc:
                raise AssertionError(f"d o d != 0 in column j={j} at i={i}")

    ranks = {key: gf2_rank(rows) for key, rows in matrices.items()}
    table: dict[tuple[int, int], int] = {}
    for (i, j), rows in matrices.items():
        dim = len(rows) - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
        if dim:
            table[(i, j)] = dim
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
    all-1 enhanced state."""
    if diagram.n > cap:
        raise CapExceeded(f"lemma5 scan capped at {cap} chords, got {diagram.n}")
    sp = _space(diagram)
    out = []
    for mask in range(1 << sp.n):
        markers = sp.markers_of(mask)
        if lemma5_check(diagram, markers):
            i, j = lemma5_gradings(diagram, markers)
            out.append((markers, i, j))
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
