import random

import pytest

from vknots.corpus import random_diagram, virtual_trefoil
from vknots.diagram import GaussDiagram, parse_gauss_code
from vknots.moves import (
    MoveError,
    MoveEvent,
    R3_CATALOGUE,
    apply_move,
    apply_trace,
    enumerate_moves,
    inverse_event,
    simplify,
)

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


class TestEnumerate:
    def test_single_chord_has_r1(self):
        d = parse_gauss_code("O1+ U1+")
        events = enumerate_moves(d, ["R1_del"])
        assert len(events) == 1 and events[0].kind == "R1_del"

    def test_empty_diagram_r1_adds(self):
        events = enumerate_moves(parse_gauss_code(""), ["R1_add", "R1_del", "R2_del", "R3"])
        assert events and all(e.kind == "R1_add" for e in events)
        assert len(events) == 4  # one gap x two signs x two directions

    def test_trefoil_has_no_r1_del(self):
        assert enumerate_moves(parse_gauss_code(TREFOIL), ["R1_del"]) == []

    def test_r2_del_requires_opposite_signs(self):
        same = parse_gauss_code("O1+ O2+ U1+ U2+", "long")
        assert enumerate_moves(same, ["R2_del"]) == []
        opp = parse_gauss_code("O1+ O2- U1+ U2-", "long")
        assert len(enumerate_moves(opp, ["R2_del"])) == 1

    def test_every_event_applies(self, rng):
        kinds = ["R1_del", "R2_del", "R3", "R1_add", "R2_add", "Fo", "Fu", "virtualize"]
        for _ in range(60):
            d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
            for e in enumerate_moves(d, kinds):
                apply_move(d, e)  # must not raise

    def test_unknown_kind_rejected(self):
        with pytest.raises(MoveError, match="unknown move kinds"):
            enumerate_moves(parse_gauss_code(""), ["R9"])


class TestApply:
    def test_r1_del_to_empty(self):
        d = parse_gauss_code("O1+ U1+")
        (e,) = enumerate_moves(d, ["R1_del"])
        assert apply_move(d, e).n == 0

    def test_r1_add_then_del(self):
        d = parse_gauss_code(TREFOIL, "long")
        e = MoveEvent("R1_add", (3, -1, "UO"))
        d2 = apply_move(d, e)
        assert d2.n == 4
        back = apply_move(d2, inverse_event(d, e))
        assert back == d

    def test_r2_add_then_del(self, rng):
        for _ in range(40):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            m = d.slot_count
            g1, g2 = rng.randint(0, m), rng.randint(0, m)
            e = MoveEvent("R2_add", (g1, g2, rng.choice((True, False)), rng.choice((1, -1)), "t"))
            d2 = apply_move(d, e)
            assert d2.n == d.n + 2
            back = apply_move(d2, inverse_event(d, e))
            assert back == d

    def test_r2_del_then_add_up_to_rotation(self, rng):
        seen = 0
        while seen < 30:
            d = random_diagram(rng, rng.randint(2, 6), rng.choice(("closed", "long")))
            for e in enumerate_moves(d, ["R2_del"]):
                d2 = apply_move(d, e)
                back = apply_move(d2, inverse_event(d, e))
                assert back.canonical_code() == d.canonical_code()
                seen += 1

    def test_r3_preserves_chords_and_signs(self, rng):
        seen = 0
        while seen < 40:
            d = random_diagram(rng, rng.randint(3, 7), rng.choice(("closed", "long")))
            for e in enumerate_moves(d, ["R3"]):
                d2 = apply_move(d, e)
                assert d2.n == d.n
                assert sorted(c.sign for c in d2.chords) == sorted(c.sign for c in d.chords)
                # the same event undoes the slide
                assert apply_move(d2, e) == d
                seen += 1

    def test_r3_matches_chained_swaps_with_one_diagram(self, monkeypatch):
        rng = random.Random(808)
        built = []
        original = GaussDiagram.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        seen = 0
        while seen < 200:
            d = random_diagram(rng, rng.randint(3, 8), rng.choice(("closed", "long")))
            m = d.slot_count
            for e in enumerate_moves(d, ["R3"]):
                chained = d
                for k in e.data:
                    chained = chained.swap_slots(k, (k + 1) % m)
                monkeypatch.setattr(GaussDiagram, "__init__", counting_init)
                slid = apply_move(d, e)
                monkeypatch.undo()
                assert len(built) == 1
                built.clear()
                assert slid.kind == chained.kind and slid.chords == chained.chords
                seen += 1

    def test_stale_event_rejected(self):
        d = parse_gauss_code("O1+ U1+")
        (e,) = enumerate_moves(d, ["R1_del"])
        empty = apply_move(d, e)
        with pytest.raises(MoveError):
            apply_move(empty, e)

    def test_virtualize_event(self):
        d = parse_gauss_code(TREFOIL)
        d2 = apply_move(d, MoveEvent("virtualize", (2,)))
        assert d2.n == 2


class TestR3Catalogue:
    def test_size_and_closure(self):
        assert len(R3_CATALOGUE) == 16

        def flipped(entry):
            t, m, b, sx, sy, sz = entry
            return (
                "y" if t == "x" else "x",
                "z" if m == "x" else "x",
                "z" if b == "y" else "y",
                sx,
                sy,
                sz,
            )

        for entry in R3_CATALOGUE:
            assert flipped(entry) in R3_CATALOGUE

    def test_closed_under_mirror(self):
        for t, m, b, sx, sy, sz in R3_CATALOGUE:
            assert (t, m, b, -sx, -sy, -sz) in R3_CATALOGUE


class TestSlotPartitionFuzz:
    def test_random_move_sequences_keep_valid_diagrams(self):
        rng = random.Random(99)
        kinds = ["R1_del", "R2_del", "R3", "R1_add", "R2_add", "Fo", "Fu"]
        for _ in range(50):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            for _ in range(6):
                events = enumerate_moves(d, kinds)
                if not events:
                    break
                d = apply_move(d, rng.choice(events))
                # reconstructing revalidates the slot partition invariants
                assert GaussDiagram(d.kind, d.chords) == d


class TestSimplify:
    def test_single_kink(self):
        d = parse_gauss_code("O1+ U1+")
        out, trace = simplify(d, 10)
        assert out.n == 0 and [e.kind for e in trace] == ["R1_del"]

    def test_r2_pair_within_budget(self):
        d = parse_gauss_code("O1+ O2- U1+ U2-", "long")
        out, trace = simplify(d, 10)
        assert out.n == 0 and len(trace) == 1

    def test_virtual_trefoil_is_stuck(self):
        d = virtual_trefoil()
        out, trace = simplify(d, 500)
        assert out == d and trace == []

    def test_never_increases_and_trace_replays(self, rng):
        for _ in range(30):
            d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
            out, trace = simplify(d, 300)
            assert out.n <= d.n
            assert apply_trace(d, trace) == out

    def test_budget_zero_returns_input(self):
        d = parse_gauss_code("O1+ U1+")
        out, trace = simplify(d, 0)
        assert out == d and trace == []
