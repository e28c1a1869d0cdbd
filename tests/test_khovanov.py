import itertools
import random

import networkx as nx
import pytest

from vknots.corpus import (
    figure_eight,
    random_diagram,
    right_trefoil,
    unknot,
    virtual_trefoil,
)
from vknots import khovanov
from vknots.diagram import Chord, GaussDiagram, parse_gauss_code, reclose
from vknots.khovanov import (
    CapExceeded,
    EnhancedState,
    bracket,
    differential,
    distinguish_from_unknot,
    enhanced_states,
    gradings,
    homology,
    jones_from_bracket,
    jones_hat,
    lemma5_check,
    lemma5_gradings,
    _space,
    _switch_images,
    trace_circles,
    writhe,
)
from vknots.laurent import LaurentPoly
from vknots.moves import apply_move, enumerate_moves

TREFOIL = right_trefoil("closed")
VT = virtual_trefoil()


def oracle_circle_count(diagram: GaussDiagram, markers) -> int:
    """Independent circle counter: build the smoothed diagram as an explicit
    graph on arc-end nodes and count connected components with networkx."""
    n = diagram.n
    if n == 0:
        return 1
    m = 2 * n
    g = nx.Graph()
    for arc in range(m):
        g.add_edge(("L", arc), ("R", arc))  # the arc itself
    by_id = {c.id: k for k, c in enumerate(diagram.chords)}
    for c in diagram.chords:
        mu = markers[by_id[c.id]]
        p, q = c.tail, c.head
        into_p, into_q = ("R", (p - 1) % m), ("R", (q - 1) % m)
        out_p, out_q = ("L", p), ("L", q)
        if c.sign * mu > 0:
            g.add_edge(into_p, out_q)
            g.add_edge(into_q, out_p)
        else:
            g.add_edge(into_p, into_q)
            g.add_edge(out_p, out_q)
    return nx.number_connected_components(g)


class TestTraceCircles:
    def test_empty_diagram_one_circle(self):
        assert trace_circles(unknot(), ()).count == 1

    def test_trefoil_oriented_state(self):
        # all-positive markers on the positive trefoil = Seifert smoothing
        assert trace_circles(TREFOIL, (1, 1, 1)).count == 2

    def test_virtual_trefoil_all_positive(self):
        assert trace_circles(VT, (1, 1)).count == 1

    def test_partition_covers_arcs_once(self, rng):
        for _ in range(30):
            d = random_diagram(rng, rng.randint(1, 7), "closed")
            markers = tuple(rng.choice((1, -1)) for _ in range(d.n))
            cs = trace_circles(d, markers)
            arcs = sorted(a for circle in cs.circles for a in circle)
            assert arcs == list(range(d.slot_count))

    def test_against_networkx_oracle(self):
        rng = random.Random(5150)
        for _ in range(150):
            d = random_diagram(rng, rng.randint(0, 7), "closed")
            markers = tuple(rng.choice((1, -1)) for _ in range(d.n))
            assert trace_circles(d, markers).count == oracle_circle_count(d, markers)
            # an equal copy with reversed chord ids lists the same markers in
            # reverse; right after d, it must not reuse d's chord order
            ids = d.chord_ids()
            swap = dict(zip(ids, reversed(ids)))
            copy = GaussDiagram(
                "closed", (Chord(swap[c.id], c.tail, c.head, c.sign) for c in d.chords)
            )
            assert copy == d
            flipped = markers[::-1]
            assert trace_circles(copy, flipped).count == oracle_circle_count(copy, flipped)

    def test_marker_length_mismatch(self):
        with pytest.raises(Exception, match="markers"):
            trace_circles(TREFOIL, (1, 1))


class TestGradings:
    def test_empty_diagram_label_one(self):
        s = EnhancedState((), ("1",))
        assert gradings(unknot(), s) == (0, 1, 0, 1)

    def test_trefoil_all_positive(self):
        cs = trace_circles(TREFOIL, (1, 1, 1))
        s = EnhancedState((1, 1, 1), tuple("1" for _ in range(cs.count)))
        sigma, tau, i, j = gradings(TREFOIL, s)
        assert (sigma, i) == (3, 0)

    def test_trefoil_all_negative_all_x(self):
        cs = trace_circles(TREFOIL, (-1, -1, -1))
        s = EnhancedState((-1, -1, -1), tuple("x" for _ in range(cs.count)))
        sigma, tau, i, j = gradings(TREFOIL, s)
        assert i == 3 and j == 3 + 3 + tau and tau == -cs.count

    def test_label_count_checked(self):
        with pytest.raises(Exception, match="labels"):
            gradings(TREFOIL, EnhancedState((1, 1, 1), ("1",)))


class TestBracket:
    def test_empty(self):
        assert bracket(unknot()) == LaurentPoly({2: -1, -2: -1})

    def test_trefoil_value(self):
        # state-sum oracle frozen by hand: A^7 + A^3 + A^-1 - A^-9
        assert bracket(TREFOIL) == LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})

    def test_state_sum_against_independent_tracer(self):
        rng = random.Random(62)
        for _ in range(20):
            d = random_diagram(rng, rng.randint(0, 6), "closed")
            acc = LaurentPoly.zero()
            delta = LaurentPoly({2: -1, -2: -1})
            for markers in itertools.product((1, -1), repeat=d.n):
                sigma = sum(markers)
                acc = acc + (delta ** oracle_circle_count(d, markers)).shift(sigma)
            assert bracket(d) == acc

    def test_r2_r3_exact_invariance_r1_monomial(self):
        rng = random.Random(63)
        done = {"R1_add": 0, "R2_add": 0, "R3": 0}
        while min(done.values()) < 15:
            d = random_diagram(rng, rng.randint(0, 5), "closed")
            for kind in done:
                events = enumerate_moves(d, [kind])
                if not events:
                    continue
                d2 = apply_move(d, rng.choice(events))
                b1, b2 = bracket(d), bracket(d2)
                if kind == "R1_add":
                    assert b2 in (b1 * LaurentPoly({3: -1}), b1 * LaurentPoly({-3: -1}))
                else:
                    assert b1 == b2
                done[kind] += 1


class TestJonesHat:
    def test_unknot(self):
        assert jones_hat(unknot()) == LaurentPoly({1: 1, -1: 1})

    def test_trefoil_value(self):
        assert jones_hat(TREFOIL) == LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})

    def test_bracket_route_agrees(self, rng):
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 6), "closed")
            assert jones_hat(d) == jones_from_bracket(bracket(d), writhe(d))

    def test_unknot_bracket_iff_unknot_jones(self):
        # why the unknot battery tries no bracket row after jones_hat
        rng = random.Random(65)
        delta = LaurentPoly({2: -1, -2: -1})
        unknot_jones = LaurentPoly({1: 1, -1: 1})
        seen = set()
        for _ in range(120):
            d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
            closed = d if d.kind == "closed" else reclose(d)
            w = writhe(closed)
            norm = bracket(closed) * LaurentPoly({-3 * w: (-1) ** (w % 2)})
            trivial_jones = jones_hat(closed) == unknot_jones
            assert (norm == delta) == trivial_jones, d.code()
            seen.add((d.kind, trivial_jones))
        assert len(seen) == 4

    def test_equals_chain_euler(self, rng):
        for _ in range(10):
            d = random_diagram(rng, rng.randint(0, 6), "closed")
            acc = {}
            for s in enhanced_states(d):
                _, _, i, j = gradings(d, s)
                acc[j] = acc.get(j, 0) + (-1) ** i
            assert jones_hat(d) == LaurentPoly(acc)

    def test_full_r_move_invariance(self):
        rng = random.Random(64)
        checked = 0
        while checked < 40:
            d = random_diagram(rng, rng.randint(0, 5), "closed")
            events = enumerate_moves(d, ["R1_del", "R2_del", "R3", "R1_add", "R2_add"])
            if not events:
                continue
            d2 = apply_move(d, rng.choice(events))
            assert jones_hat(d) == jones_hat(d2)
            checked += 1


class TestCensusSums:
    """bracket and jones_hat against the census sum by polynomial powers
    and shifts that the binomial sums replaced."""

    @staticmethod
    def power_shift_sums(d):
        sp = _space(d)
        delta = LaurentPoly({2: -1, -2: -1})
        qq = LaurentPoly({1: 1, -1: 1})
        br = jh = LaurentPoly.zero()
        for (neg, size), count in sp.census.items():
            br = br + (delta**size).shift(sp.n - 2 * neg) * count
            i = (sp.w - sp.n) // 2 + neg
            jh = jh + (qq**size).shift(sp.w + i) * (-count if i % 2 else count)
        return br, jh

    def test_match_power_and_shift_sums(self):
        rng = random.Random(69)
        for n in range(11):
            for _ in range(3 if n < 9 else 1):
                d = random_diagram(rng, n, "closed")
                assert (bracket(d), jones_hat(d)) == self.power_shift_sums(d), d.code()


class TestDifferential:
    def test_merge_of_two_x_circles_dies(self):
        # R2-style diagram where switching chord 1 merges two circles
        d = parse_gauss_code("O1+ O2- U1+ U2-", "closed")
        for s in enhanced_states(d):
            if s.markers != (1, 1):
                continue
            outs = differential(d, s)
            for t in outs:
                _, _, i, j = gradings(d, t)
                _, _, i0, j0 = gradings(d, s)
                assert (i, j) == (i0 + 1, j0)

    def test_split_of_label_one_gives_two(self):
        d = parse_gauss_code("O1+ U1+", "closed")  # kink: + marker state has 2 circles
        # state with the negative marker has 1 circle; switching from the
        # positive state merges or splits depending on direction
        s = EnhancedState((1,), ("1", "1"))
        outs = differential(d, s)
        assert len(outs) == 1  # merge of (1,1) -> 1

        d2 = parse_gauss_code("O1- U1-", "closed")  # negative kink: + marker is 1 circle
        s2 = EnhancedState((1,), ("1",))
        outs2 = differential(d2, s2)
        assert len(outs2) == 2  # split of 1 -> 1x + x1
        assert sorted(t.labels for t in outs2) == [("1", "x"), ("x", "1")]
        s3 = EnhancedState((1,), ("x",))
        outs3 = differential(d2, s3)
        assert [t.labels for t in outs3] == [("x", "x")]

    def test_xx_merge_emits_nothing(self):
        d = parse_gauss_code("O1+ U1+", "closed")
        assert differential(d, EnhancedState((1,), ("x", "x"))) == []

    def test_virtual_trefoil_has_zero_map_switch(self):
        # some positive-marker switch preserves the circle count
        found_zero = False
        for s in enhanced_states(VT):
            outs = differential(VT, s)
            pos = sum(1 for mu in s.markers if mu > 0)
            if pos and len(outs) < pos * 1:  # fewer images than switches
                found_zero = True
        assert found_zero

    def test_images_raise_i_preserve_j(self, rng):
        for _ in range(10):
            d = random_diagram(rng, rng.randint(1, 5), "closed")
            for s in enhanced_states(d):
                _, _, i0, j0 = gradings(d, s)
                for t in differential(d, s):
                    _, _, i, j = gradings(d, t)
                    assert (i, j) == (i0 + 1, j0)


def oracle_switch(sp, mask, k):
    """Reference switch: diff the whole circle tuples of both states.

    Returns (kind, a, b, c) as the engine does, plus ``carry``, the new
    index of every circle the switch leaves alone.
    """
    old, new = sp.circles(mask), sp.circles(mask | (1 << k))
    if len(new) == len(old):
        return ("zero", -1, -1, -1), {}
    old_index = {circ: i for i, circ in enumerate(old)}
    carry = {old_index[circ]: j for j, circ in enumerate(new) if circ in old_index}
    missing_old = [i for i in range(len(old)) if i not in carry]
    missing_new = [j for j, circ in enumerate(new) if circ not in old_index]
    if len(new) == len(old) - 1:
        (a, b), (c,) = missing_old, missing_new
        return ("merge", a, b, c), carry
    (a,), (b, c) = missing_old, missing_new
    return ("split", a, b, c), carry


def oracle_images(sw, carry, lam):
    """Reference label map: move every carried label to its new index."""
    kind, a, b, c = sw
    base = 0
    for old, new in carry.items():
        base |= ((lam >> old) & 1) << new
    if kind == "zero":
        return []
    if kind == "merge":
        xa, xb = (lam >> a) & 1, (lam >> b) & 1
        return [] if xa and xb else [base | ((xa | xb) << c)]
    if (lam >> a) & 1:
        return [base | (1 << b) | (1 << c)]
    return [base | (1 << b), base | (1 << c)]


class TestSwitch:
    def test_local_switch_matches_tuple_diff(self):
        rng = random.Random(4040)
        diagrams = [VT, TREFOIL] + [
            random_diagram(rng, rng.randint(1, 6), "closed") for _ in range(60)
        ]
        kinds = set()
        for d in diagrams:
            sp = _space(d)
            for mask in range(1 << sp.n):
                size = len(sp.circles(mask))
                for k in range(sp.n):
                    if (mask >> k) & 1:
                        continue
                    want, carry = oracle_switch(sp, mask, k)
                    assert sp.switch(mask, k) == want, (d.code(), mask, k)
                    # untouched circles keep their relative order
                    assert sorted(carry.values()) == [carry[i] for i in sorted(carry)]
                    for lam in range(1 << size):
                        assert _switch_images(want, lam) == oracle_images(want, carry, lam)
                    kinds.add(want[0])
        assert kinds == {"zero", "merge", "split"}

    def test_dropped_split_image_trips_d_o_d(self, monkeypatch):
        def lossy(sw, lam):
            images = _switch_images(sw, lam)
            return images[:1] if sw[0] == "split" else images

        monkeypatch.setattr(khovanov, "_switch_images", lossy)
        # the same patch reaches the differential ...
        d = parse_gauss_code("O1- U1-", "closed")
        assert len(differential(d, EnhancedState((1,), ("1",)))) == 1
        # ... and the homology assembly, whose d o d check catches it
        with pytest.raises(AssertionError, match="d o d"):
            homology(TREFOIL)


class TestHomology:
    def test_unknot_table(self):
        assert homology(unknot()).as_dict() == {(0, -1): 1, (0, 1): 1}

    def test_trefoil_table(self):
        # frozen: Z2 coefficients double the torsion bigradings
        assert homology(TREFOIL).as_dict() == {
            (0, 1): 1,
            (0, 3): 1,
            (2, 5): 1,
            (2, 7): 1,
            (3, 7): 1,
            (3, 9): 1,
        }

    def test_euler_characteristic_is_jones(self, rng):
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 7), "closed")
            assert homology(d).euler() == jones_hat(d)

    def test_figure_eight_euler(self):
        d = figure_eight("closed")
        assert homology(d).euler() == jones_hat(d)

    def test_move_invariance(self):
        rng = random.Random(65)
        checked = 0
        while checked < 25:
            d = random_diagram(rng, rng.randint(0, 5), "closed")
            events = enumerate_moves(d, ["R1_del", "R2_del", "R3", "R1_add", "R2_add"])
            if not events:
                continue
            d2 = apply_move(d, rng.choice(events))
            assert homology(d).as_dict() == homology(d2).as_dict()
            checked += 1

    def test_cap(self):
        rng = random.Random(1)
        with pytest.raises(CapExceeded):
            homology(random_diagram(rng, 5, "closed"), cap=4)


class TestLemma5:
    def test_empty_state_passes(self):
        assert lemma5_check(unknot(), ()) is True

    def test_trefoil_seifert_state_fails(self):
        assert lemma5_check(TREFOIL, (1, 1, 1)) is False

    def test_virtual_trefoil_all_negative_passes(self):
        assert lemma5_check(VT, (-1, -1)) is True
        assert lemma5_gradings(VT, (-1, -1)) == (2, 6)

    def test_rank_consequence(self):
        # the certificate's real content: the all-1 state on a passing
        # state survives to homology
        rng = random.Random(66)
        confirmed = 0
        for _ in range(120):
            d = random_diagram(rng, rng.randint(0, 6), "closed")
            table = None
            for markers in itertools.product((1, -1), repeat=d.n):
                if not lemma5_check(d, markers):
                    continue
                s = EnhancedState(
                    markers, tuple("1" for _ in range(trace_circles(d, markers).count))
                )
                assert differential(d, s) == []
                i, j = lemma5_gradings(d, markers)
                if table is None:
                    table = homology(d).as_dict()
                assert table.get((i, j), 0) >= 1
                confirmed += 1
        assert confirmed > 20


class TestDistinguish:
    def test_unknot_false(self):
        assert distinguish_from_unknot(unknot()) == (False, None)

    def test_trefoil_true(self):
        flag, witness = distinguish_from_unknot(TREFOIL)
        assert flag and abs(witness[1]) not in (1,)

    def test_virtual_trefoil_true(self):
        flag, witness = distinguish_from_unknot(VT)
        assert flag and witness is not None
