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

State space
    Every operation reads one state space per diagram: the circles of each
    traced state and a census of the states per (negative-marker count,
    circle count).  The bracket and the Jones polynomial depend on a state
    only through that pair, so each sums the O(n^2) census entries instead
    of the 2**n states.  Only the last diagram's space is cached, keyed by
    kind and chord tuple: the tuple carries the chord ids that order the
    markers, which diagram equality ignores.  One entry is enough, since
    callers ask for one diagram several times in a row (homology, Jones
    and bracket of a ``kh`` report, the states of a Lemma 5 scan); on the
    benchmark workloads every cache hit was on the diagram just before.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .diagram import Chord, DiagramError, GaussDiagram
from .gf2 import gf2_rank
from .laurent import LaurentPoly

DEFAULT_HOMOLOGY_CAP = 12

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
        self._circles: dict[int, tuple[tuple[int, ...], ...]] = {}

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
        got = self._circles.get(mask)
        if got is None:
            got = self._trace(mask)
            self._circles[mask] = got
        return got

    def _trace(self, mask: int) -> tuple[tuple[int, ...], ...]:
        n = self.n
        if n == 0:
            return ((),)
        m = 2 * n
        # arc i runs slot i -> slot i+1; its ends are L=2i (at slot i) and
        # R=2i+1 (at slot i+1).  Smoothing pairs up arc ends at each chord.
        partner = [-1] * (2 * m)

        def pair(a: int, b: int) -> None:
            partner[a] = b
            partner[b] = a

        for k, c in enumerate(self.chords):
            mu = -1 if (mask >> k) & 1 else 1
            p, q = c.tail, c.head
            r_in_p = 2 * ((p - 1) % m) + 1
            r_in_q = 2 * ((q - 1) % m) + 1
            l_out_p = 2 * p
            l_out_q = 2 * q
            if c.sign * mu > 0:  # orientation-preserving reconnection
                pair(r_in_p, l_out_q)
                pair(r_in_q, l_out_p)
            else:  # orientation-reversing
                pair(r_in_p, r_in_q)
                pair(l_out_p, l_out_q)
        seen = [False] * (2 * m)
        circles = []
        for start in range(2 * m):
            if seen[start]:
                continue
            arcs = []
            end = start
            while not seen[end]:
                seen[end] = True
                seen[end ^ 1] = True
                arcs.append(end >> 1)
                end = partner[end ^ 1]
            circles.append(tuple(sorted(arcs)))
        circles.sort(key=lambda t: t[0])
        return tuple(circles)

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

    def switch(self, mask: int, k: int):
        """Effect of switching the positive marker of chord k to negative.

        Returns ("zero", None) when the circle count is unchanged, else
        ("merge", (a, b, c, carry)) or ("split", (a, b, c, carry)) where a
        (resp. a -> b, c) are circle indices in the old (new) state and
        ``carry`` maps every other old circle index to its new index.
        """
        old = self.circles(mask)
        new = self.circles(mask | (1 << k))
        if len(new) == len(old):
            return ("zero", None)
        old_index = {circ: i for i, circ in enumerate(old)}
        carry: dict[int, int] = {}
        missing_new = []
        for j, circ in enumerate(new):
            i = old_index.get(circ)
            if i is None:
                missing_new.append(j)
            else:
                carry[i] = j
        missing_old = [i for i, circ in enumerate(old) if i not in carry]
        if len(new) == len(old) - 1:
            a, b = missing_old
            (c,) = missing_new
            return ("merge", (a, b, c, carry))
        if len(new) == len(old) + 1:
            (a,) = missing_old
            b, c = missing_new
            return ("split", (a, b, c, carry))
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
    markers has sigma = n - 2b, so the sum runs over the census.
    """
    sp = _space(diagram)
    delta = LaurentPoly({2: -1, -2: -1})
    acc = LaurentPoly.zero()
    for (neg, size), count in sp.census.items():
        acc = acc + (delta**size).shift(sp.n - 2 * neg) * count
    return acc


def jones_hat(diagram: GaussDiagram) -> LaurentPoly:
    """Unnormalized Jones polynomial: sum over enhanced states of
    (-1)**i(S) * q**j(S).  Invariant under all generalized Reidemeister
    moves.  A state with b negative markers has i = (w - n)/2 + b, and its
    labelings contribute q**(w + i) * (q + 1/q)**|s|, so the sum runs over
    the census."""
    sp = _space(diagram)
    qq = LaurentPoly({1: 1, -1: 1})
    acc = LaurentPoly.zero()
    for (neg, size), count in sp.census.items():
        i = (sp.w - sp.n) // 2 + neg
        acc = acc + (qq**size).shift(sp.w + i) * (-count if i % 2 else count)
    return acc


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


def _switch_images(kind: str, data, lam: int) -> list[int]:
    """New label masks produced by one marker switch (Z2 coefficients)."""
    if kind == "zero":
        return []
    a, b, c, carry = data
    base = 0
    for old, new in carry.items():
        if (lam >> old) & 1:
            base |= 1 << new
    if kind == "merge":
        xa, xb = (lam >> a) & 1, (lam >> b) & 1
        if xa and xb:
            return []
        return [base | ((xa | xb) << c)]
    # split
    if (lam >> a) & 1:
        return [base | (1 << b) | (1 << c)]
    return [base | (1 << b), base | (1 << c)]


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
        kind, data = sp.switch(mask, k)
        new_mask = mask | (1 << k)
        count = len(sp.circles(new_mask))
        for lam2 in _switch_images(kind, data, lam):
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

    basis: dict[tuple[int, int], list[tuple[int, int]]] = {}
    index: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        circles = sp.circles(mask)
        size = len(circles)
        i = sp.homological_i(mask)
        for lam in range(1 << size):
            tau = size - 2 * bin(lam).count("1")
            key = (i, w + i + tau)
            block = basis.setdefault(key, [])
            index[(mask, lam)] = len(block)
            block.append((mask, lam))

    switches: dict[int, list[tuple[int, str, object]]] = {}
    for mask in range(1 << n):
        entry = []
        for k in range(n):
            if not (mask >> k) & 1:
                kind, data = sp.switch(mask, k)
                if kind != "zero":
                    entry.append((mask | (1 << k), kind, data))
        switches[mask] = entry

    def image_vector(mask: int, lam: int) -> int:
        vec = 0
        for new_mask, kind, data in switches[mask]:
            for lam2 in _switch_images(kind, data, lam):
                vec |= 1 << index[(new_mask, lam2)]
        return vec

    matrices: dict[tuple[int, int], list[int]] = {}
    for (i, j), block in basis.items():
        matrices[(i, j)] = [image_vector(mask, lam) for mask, lam in block]

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
    for (i, j), block in basis.items():
        dim = len(block) - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
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
