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
    and inserting the bits of the new ones.  The differential has one
    implementation, and it is never applied to a single enhanced state:
    ``homology`` reads each label map from :func:`_switch_images`, through
    :func:`_x_columns`, and reads each switch from the walk's labels and
    counts in its row pass, the one reader of switch data.  It raises
    AssertionError on any switch that moves the count by more than 1.

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
    it keeps and finds independent of the kept rows before it maps to 0
    under the next block; that is d o d = 0 on C_x, since those rows span
    the block's row space and d is linear.  The blocks of a j-column are
    eliminated in ascending i, and block (i, j) keeps every row except
    those at the leading bits of block (i - 1, j)'s pivots.  Each such
    pivot p_L is a sum of rows that the check of block (i - 1, j) has
    sent to 0, so row L of block (i, j) is the sum of its rows at the
    lower bits of p_L, and by induction on L every skipped row lies in the
    span of the kept ones (see :mod:`vknots.gf2`).  The rank stays, and
    the kept rows still span the row space.  And every switch map, on all
    its label masks, must commute with X and nu, so d does too.  Then
    d d = d d X nu + d d nu X, where
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
    Every operation builds the state space of the diagram it is given (the
    two smoothings of each chord) and keeps none of it past the call; it
    reads every state's circles off a walk.  One loop, ``walk``, steps
    the reflected Gray code in place: step g flips chord k, the lowest set
    bit of g, and rewrites only that chord's four entries of one list that
    joins the arc ends as the current state's smoothings do.  It traces
    only the first state whole and steps the circle count from there.  Cut
    a state's circles at the switched chord's four arc ends: what is left
    of the circles through them is two strands, which pair the four ends
    in one of three ways.  The chord's two smoothings pair them in two of
    the three ways, and the ends lie on two circles when the smoothing
    pairs them as the strands do and on one circle otherwise; every other
    circle stays.  So a switch moves the count by at most 1, and one
    strand decides by how much.  After the switch to the pairs (w, x),
    (y, z), the walk follows the strand from the far end of x's arc until
    an end of the chord comes up.  Reaching w, the strands pair as the new
    smoothing does: the switch split a circle.  Reaching the end the old
    smoothing paired with x, they pair as the old one did: two circles
    merged.  Reaching the third end, they pair as neither does and the
    count stays, which only a virtual diagram allows.  The census, the
    number of states per (negative-marker count, circle count), is tallied
    on the way in a flat list indexed by neg * (n + 2) + count, since a
    state of n chords has at most n + 1 circles.  The bracket depends on a
    state only through its census key, so it sums the O(n^2) census
    entries instead of the 2**n states, and the Jones polynomial is read
    off that sum: :func:`bracket` and :func:`jones_hat` walk in count
    mode, which keeps no state.

    A switch is read off the circles of its two states, numbered by their
    smallest arc, so :func:`homology_and_bracket` (and :func:`lemma5_scan`,
    which reads the counts) walk in label mode: for every state ``walk``
    also keeps the circle index of each arc, as bytes (so a state space
    takes at most ``MAX_TRACED_CHORDS`` chords), and the circle count, for
    the length of the call.  A step that keeps the count traces nothing and
    leaves the labels as they were.  A merge of circles a < b is one
    ``bytes.translate`` of the old labels: the merged circle keeps index a
    and the circles above b move down one.  A split traces the new circle
    through circle a's smallest arc, and the traced piece keeps index a.
    The bracket is summed from the census of the same walk, so a ``kh``
    report walks the cube once and traces no state on its own; it reads
    the Jones polynomial off that bracket by :func:`jones_from_bracket`,
    as :func:`jones_hat` does, and ``eval`` reads both sums off one
    census.
    The cube is the reduced diagram's: ``kh`` first runs
    :func:`reduce_for_state_sums` (kink and R2 deletions up to chord
    reversal, then ``moves.simplify`` for R3 slides) and reads its sums on
    the diagram it returns, so a request walks 2**(reduced n) states.  The
    table and the Jones polynomial are invariant under those steps; the
    bracket is not under R1, and the report rescales it by
    <D> = (-A^3)**(w(D) - w(D')) <D'>.  The chord cap is still judged on
    the input.

    Two memos outlive a diagram, both bounded pure functions of small keys,
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
    block, built straight from those indices.  The pass reads each
    positive-marker switch where it builds the state's rows, and a
    per-call dict in front of the memo looks each switch map's columns up
    once per call.  Each state lists its block lengths once, as its target
    offsets, padded with a trailing 0, and once more from t = 1 on, which
    a split (adding an x-label) reads; nothing is sliced per switch.  At
    t = size - 1 every label is x and a merge's column is 0 (x*x = 0,
    checked in :func:`_x_columns`), so it lands on the pad and no
    per-state filter drops merges there.  A state of one or two circles
    ORs its rows switch by switch; a larger one builds them per t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .diagram import Chord, DiagramError, GaussDiagram
from .gf2 import gf2_rank
from .laurent import LaurentPoly
from .moves import simplify

DEFAULT_HOMOLOGY_CAP = 12
# Largest chord cap the CLI accepts for --cap-chords: 2**16 states.
MAX_CAP_CHORDS = 16
# Circle labels are bytes, and 255 marks an arc not yet on a circle; a state
# of n chords has at most n + 1 circles, labelled 0 to n.
MAX_TRACED_CHORDS = 254

StateVec = tuple[int, ...]


class CapExceeded(DiagramError):
    """Raised when a diagram is larger than the configured chord cap."""


@dataclass(frozen=True)
class GradedDims:
    """Finitely supported table (i, j) -> dim_Z2 KH^{i,j}."""

    dims: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, table: dict[tuple[int, int], int]) -> GradedDims:
        return cls(tuple(sorted((k, v) for k, v in table.items() if v)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.dims)

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


def delete_reversals(closed: GaussDiagram) -> GaussDiagram:
    """``closed`` with kinks and R2 pairs up to chord reversal deleted until
    none is left; the homology table and Jones polynomial stay."""
    while dead := _reversal_deletion(closed):
        closed = closed.delete_chords(dead)
    return closed


def reduce_for_state_sums(closed: GaussDiagram) -> tuple[GaussDiagram, int]:
    """A diagram with the homology table and Jones polynomial of the closed
    diagram ``closed``, and the writhe shift w(closed) - w(reduced), so that
    <closed> = (-A^3)**shift <reduced>.

    Repeats two steps until the chord count stops falling:
    :func:`delete_reversals` (see "Chord reversal" above), then run
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
        reduced, _ = simplify(delete_reversals(reduced))
        if reduced.n == start:
            return reduced, writhe(closed) - writhe(reduced)


# -- state space engine --------------------------------------------------------


class _StateSpace:
    """Smoothings and circle data of one closed diagram.

    Masks encode states: bit k set means chord ``chords[k]`` carries the
    negative marker.
    """

    def __init__(self, kind: str, chords: tuple[Chord, ...]):
        if kind != "closed":
            raise DiagramError("state smoothing expects a closed diagram")
        if len(chords) > MAX_TRACED_CHORDS:
            raise DiagramError(
                f"state smoothing takes at most {MAX_TRACED_CHORDS} chords, got {len(chords)}"
            )
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

    def markers_of(self, mask: int) -> StateVec:
        return tuple(-1 if (mask >> k) & 1 else 1 for k in range(self.n))

    def _partner(self, mask: int) -> list[int]:
        """Arc end e joined to ``partner[e]`` by the smoothings of state
        ``mask``."""
        partner = [0] * (4 * self.n)
        for k, ends in enumerate(self._smoothings):
            a, b, c, d = ends[(mask >> k) & 1]
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
        return partner

    def _arc_circles(self, partner: list[int]) -> tuple[bytes, int]:
        """(circle index of each arc, circle count) when smoothings join arc
        end e to arc end ``partner[e]``; the chord-free diagram is one
        circle without arcs."""
        m = 2 * self.n
        # 255 marks an arc not yet on a circle, and the one past the last
        # arc ends the search for the next; walking from the lowest such
        # arc numbers the circles in order of their smallest arc
        arc_circle = bytearray(b"\xff") * (m + 1)
        count = 0 if m else 1
        start = arc_circle.index(255)
        while start < m:
            end = 2 * start
            while arc_circle[end >> 1] == 255:
                arc_circle[end >> 1] = count
                end = partner[end ^ 1]
            count += 1
            start = arc_circle.index(255, start)
        return bytes(arc_circle[:m]), count

    def walk(self, *, labelled: bool) -> tuple[list[bytes], list[int], dict[tuple[int, int], int]]:
        """The circle index of each arc and the circle count of every state,
        indexed by mask, and the census tallied on the way, along the Gray
        walk; with ``labelled`` false both lists are empty.

        Only the first state is traced whole.  Step g flips chord k, the
        lowest set bit of g, to the pairs (w, x), (y, z), rewrites only
        those four entries of the one ``partner`` list, and follows the
        strand from the far end of x's arc to an end of chord k: w on a
        split, x's old partner on a merge, and the third end when the count
        stays (see "State space" above).  Only with ``labelled`` does a step
        then touch the labels, and only if it changed the count.  A merge
        joins the old circles a < b of w's and x's arcs, which the old
        smoothing put on different circles: the merged circle keeps index a
        and every circle above b moves down one.  A split traces the new
        circle through the smallest arc of w's old circle a: the traced
        piece keeps index a, the other takes index c, the number of distinct
        labels before its smallest arc, and every circle from c on moves up
        one.  Each update is one ``bytes.translate`` through a table sliced
        from the identity, once per call and table."""
        n = self.n
        m = 2 * n
        # the mask bit of the chord at every arc end: L=2i sits at slot i,
        # R=2i+1 at slot i+1
        bit_at = [0] * m
        for k, c in enumerate(self.chords):
            bit_at[c.tail] = bit_at[c.head] = 1 << k
        owner = [bit_at[((e + 1) >> 1) % m] for e in range(2 * m)]
        stride = n + 2  # a state of n chords has at most n + 1 circles
        tally = [0] * ((n + 1) * stride)
        # Step g flips the chord of bit g & -g, to the negative marker iff
        # the next bit of g is clear, so g & 3 * bit is bit for a new
        # negative marker and 3 * bit for a new positive one.  Per such key:
        # the new pairs (w, x), (y, z), the far end of x's arc, the old
        # partner of x and the move of the tally row neg * stride.
        steps = {
            key: (*new, new[1] ^ 1, old[old.index(new[1]) ^ 1], move)
            for k, (pos, neg) in enumerate(self._smoothings)
            for key, new, old, move in ((1 << k, neg, pos, stride), (3 << k, pos, neg, -stride))
        }
        partner = self._partner(0)
        labels, count = self._arc_circles(partner)
        tally[count] += 1
        arcs: list[bytes] = [labels] * (1 << n) if labelled else []
        sizes = [count] * (1 << n) if labelled else []
        # translation tables, keyed by a << 8 | b (merge) and a << 8 | c
        # (split), built on first use in this call
        identity = bytes.maketrans(b"", b"")
        merged: dict[int, bytes] = {}
        split: dict[int, bytes] = {}
        mask = row = 0
        for g in range(1, 1 << n):
            bit = g & -g
            w, x, y, z, end, old, move = steps[g & 3 * bit]
            partner[w], partner[x], partner[y], partner[z] = x, w, z, y
            row += move
            while owner[end] != bit:
                end = partner[end] ^ 1
            if end == w:
                count += 1
            elif end == old:
                count -= 1
            tally[row + count] += 1
            if not labelled:
                continue
            mask ^= bit
            if end == w:
                a = labels[w >> 1]
                # 255 marks the traced circle's arcs
                marked = bytearray(labels)
                end = 2 * labels.index(a)
                while marked[end >> 1] != 255:
                    marked[end >> 1] = 255
                    end = partner[end ^ 1]
                # circles are numbered by their smallest arc, so the labels
                # before an arc are 0 to their maximum
                c = max(labels[: marked.index(a)]) + 1
                table = split.get(a << 8 | c)
                if table is None:
                    table = identity[:a] + bytes((c,)) + identity[a + 1 : c]
                    table = split[a << 8 | c] = table + identity[c + 1 :] + bytes((a,))
                labels = bytes(marked).translate(table)
            elif end == old:
                a, b = labels[w >> 1], labels[x >> 1]
                if a > b:
                    a, b = b, a
                table = merged.get(a << 8 | b)
                if table is None:
                    table = merged[a << 8 | b] = identity[:b] + bytes((a,)) + identity[b:255]
                labels = labels.translate(table)
            arcs[mask] = labels
            sizes[mask] = count
        return arcs, sizes, _census_of(tally, stride)

    def homological_i(self, mask: int) -> int:
        """i = (w - sigma)/2, where sigma = n - 2 * #negative markers."""
        return (self.w - self.n) // 2 + mask.bit_count()


def _census_of(tally: list[int], stride: int) -> dict[tuple[int, int], int]:
    """The census {(neg, count): states} of a flat tally indexed by
    neg * stride + count."""
    return {divmod(key, stride): states for key, states in enumerate(tally) if states}


def _space(diagram: GaussDiagram) -> _StateSpace:
    return _StateSpace(diagram.kind, diagram.chords)


# -- public operations -----------------------------------------------------------


def _census_bracket(n: int, census: dict[tuple[int, int], int]) -> LaurentPoly:
    """The bracket summed over the census of n chords: a state with b negative
    markers has sigma = n - 2b, and (-A^2 - A^-2)**s = (-1)**s * sum_k
    C(s, k) A**(4k - 2s) turns each census entry into s + 1 integer terms."""
    acc: dict[int, int] = {}
    for (neg, size), count in census.items():
        sigma = n - 2 * neg
        signed = -count if size % 2 else count
        for k in range(size + 1):
            e = sigma + 4 * k - 2 * size
            acc[e] = acc.get(e, 0) + signed * math.comb(size, k)
    return LaurentPoly(acc)


def bracket(diagram: GaussDiagram) -> LaurentPoly:
    """Kauffman bracket <D> = sum over states of A**sigma * delta**|s|,
    where |s| counts the state's circles and delta = -A^2 - A^-2, so the
    crossingless circle gives delta (no normalization by <O> = 1)."""
    return _census_bracket(diagram.n, _space(diagram).walk(labelled=False)[2])


def jones_hat(diagram: GaussDiagram) -> LaurentPoly:
    """Unnormalized Jones polynomial: sum over enhanced states of
    (-1)**i(S) * q**j(S).  Invariant under all generalized Reidemeister
    moves.  Read off the bracket: :func:`jones_from_bracket` maps its term
    A**(sigma + 4k - 2s) * (-1)**s * C(s, k) to (-1)**i * q**(w + i + s -
    2k) * C(s, k), the state sum's term."""
    return jones_from_bracket(bracket(diagram), writhe(diagram))


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

    ``homology`` reads a merge's targets through offsets padded with a 0,
    which the all-x label mask, the last column, reaches: merging two
    x-labels gives nothing, so that column must be 0.  It is checked
    before the commutation, so a nonzero image there raises
    AssertionError("x*x = 0 ...") and never lands on the pad.

    The columns and the checks are a pure function of the switch data and
    the circle count, so they are computed once per process, on the map's
    first use, and the checks cover every map ``homology`` reads.
    """
    images = [_switch_images(sw, lam) for lam in range(1 << size)]
    target = size + 1 if sw[0] == "split" else size - 1
    rank = _bit_order(target - 1)[0]
    columns = []
    for found in images[1::2]:
        vec = 0
        for lam2 in found:
            vec ^= 1 << rank[lam2 >> 1]
        columns.append(vec)
    if sw[0] == "merge" and columns[-1]:
        raise AssertionError(
            f"x*x = 0 not kept: {sw} on {size} circles maps the all-x label "
            f"mask to {images[-1]}, where homology reads a padded offset"
        )
    vecs = []
    for found in images:
        vec = 0
        for lam2 in found:
            vec ^= 1 << lam2
        vecs.append(vec)
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
    return tuple(columns)


def homology(diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP) -> GradedDims:
    """Z2 Khovanov homology dimensions per bidegree (i, j); the table of
    :func:`homology_and_bracket`."""
    return homology_and_bracket(diagram, cap)[0]


def homology_and_bracket(
    diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP
) -> tuple[GradedDims, LaurentPoly]:
    """Z2 Khovanov homology dimensions per bidegree (i, j), and the
    Kauffman bracket summed over the census of the same walk.

    Walks the 2**n states once and builds, per j-column, only the
    subcomplex C_x whose circle 0 is labelled x, from the walk's arc
    arrays, in one pass over the states in descending mask order.  Its
    dims dim ker - dim im come from GF(2) ranks, and KH^{i,j} = Hx^{i,j} +
    Hx^{i,j-2} (see "Reduced complex" above).  d o d = 0 on the whole
    complex follows from two checks: the rank elimination checks it on
    C_x, on the rows it finds independent among those the previous
    block's checked pivots do not already span, and every switch map must
    commute with X and nu, which :func:`_x_columns` checks on the map's
    first use in the process.
    """
    if diagram.n > cap:
        raise CapExceeded(f"homology capped at {cap} chords, got {diagram.n}")
    sp = _space(diagram)
    arcs, sizes, census = sp.walk(labelled=True)
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
    # the target's block offset, keyed by one int: 2 * size (plus 1 for a
    # split), then the switch data.  Images keep j, so a merge keeps the
    # x-label count and reads the target's offsets (padded with the 0 where
    # x*x = 0 lands), and a split adds one and reads them from t = 1 on
    # (shifted).  A state's blocks, one per t, are keyed by its negative
    # marker count and circle count.
    base = top + 1
    i0 = sp.homological_i(0)
    # per chord its mask bit and the arcs u, v ending and starting at its
    # tail; per value of a mask's low or high half, its positive-marker chords
    tails = [(1 << k, (c.tail - 1) % (2 * sp.n), c.tail) for k, c in enumerate(sp.chords)]
    half, below = sp.n // 2, (1 << sp.n // 2) - 1
    low_half, high_half = (
        [[t for t in tails[lo:hi] if not (part << lo) & t[0]] for part in range(1 << hi - lo)]
        for lo, hi in ((0, half), (half, sp.n))
    )
    columns: dict[int, tuple[int, ...]] = {}
    offsets: list[tuple[int, ...]] = [()] * len(sizes)
    shifted = offsets.copy()
    matrices: dict[tuple[int, int], list[int]] = {}
    blocks: dict[int, list[list[int]]] = {}
    for mask in range(len(sizes) - 1, -1, -1):
        size = sizes[mask]
        neg = mask.bit_count()
        key = neg * base + size
        rows_of = blocks.get(key)
        if rows_of is None:
            i = i0 + neg
            rows_of = blocks[key] = [
                matrices.setdefault((i, w + i + size - 2 - 2 * t), []) for t in range(size)
            ]
        lengths = offsets[mask] = (*map(len, rows_of), 0)
        shifted[mask] = lengths[1:]
        old = arcs[mask]
        merge_key = 2 * size * base
        # a state of one or two circles ORs its rows mu = 0, 1 switch by switch
        low = high = 0
        parts = [] if size > 2 else None
        for bit, u, v in low_half[mask & below] + high_half[mask >> half]:
            new_mask = mask | bit
            new_size = sizes[new_mask]
            if new_size == size:
                continue  # the zero map
            new = arcs[new_mask]
            if new_size == size - 1:
                # old circles a < b merge into new circle c
                a, b = old[u], old[v]
                if a > b:
                    a, b = b, a
                c, head, at = new[u], merge_key, offsets[new_mask]
            elif new_size == size + 1:
                # old circle a splits into new circles b < c
                b, c = new[u], new[v]
                if b > c:
                    b, c = c, b
                a, head, at = old[u], merge_key + base, shifted[new_mask]
            else:
                raise AssertionError("a marker switch changes the circle count by at most 1")
            key = ((head + a) * base + b) * base + c
            try:
                cols = columns[key]
            except KeyError:
                sw = ("merge" if head == merge_key else "split", a, b, c)
                cols = columns[key] = _x_columns(sw, size)
            if size > 2:
                parts.append((cols, at))
            else:
                low |= cols[0] << at[0]
                if size == 2:
                    high |= cols[1] << at[1]
        if size > 2:
            for t, group in enumerate(groups[size - 1]):
                rows = rows_of[t]
                for mu in group:
                    vec = 0
                    for cols, at in parts:
                        vec |= cols[mu] << at[t]
                    rows.append(vec)
        else:
            rows_of[0].append(low)
            if size == 2:
                rows_of[1].append(high)

    # d o d = 0 on C_x is checked inside each block's elimination.  The
    # blocks go in ascending i, so block (i, j) skips the rows at the
    # leading bits of block (i - 1, j)'s checked pivots, which the other
    # rows span (see the gf2 module docstring).
    ranks: dict[tuple[int, int], int] = {}
    leads: dict[tuple[int, int], dict[int, int]] = {}
    for i, j in sorted(matrices):
        pivots = leads[i, j] = {}
        ranks[i, j] = gf2_rank(
            matrices[i, j], matrices.get((i + 1, j)), leads.pop((i - 1, j), ()), pivots
        )
    table: dict[tuple[int, int], int] = {}
    for (i, j), rows in matrices.items():
        dim = len(rows) - ranks[(i, j)] - ranks.get((i - 1, j), 0)
        if dim:
            # the other summand, im(nu X), is C_x shifted two j-steps up
            for key in ((i, j), (i, j + 2)):
                table[key] = table.get(key, 0) + dim
    return GradedDims.from_dict(table), _census_bracket(sp.n, census)


def lemma5_scan(
    diagram: GaussDiagram, cap: int = DEFAULT_HOMOLOGY_CAP
) -> list[tuple[StateVec, int, int]]:
    """All states that pass the Lemma 5 certificate, with the (i, j) of
    their all-1 enhanced state.  A state passes when every switch of a
    positive marker to a negative one keeps its circle count and every
    switch back does not increase it; its all-1 enhanced state then
    survives to homology, so dim KH^{i, j} >= 1.  The circle counts come
    from one walk of the cube; no state is traced on its own."""
    if diagram.n > cap:
        raise CapExceeded(f"lemma5 scan capped at {cap} chords, got {diagram.n}")
    sp = _space(diagram)
    _, sizes, _ = sp.walk(labelled=True)
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
