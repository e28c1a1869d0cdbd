import hashlib
import itertools
import random

import pytest

from vknots import moves
from vknots.corpus import random_diagram, virtual_trefoil
from vknots.diagram import GaussDiagram, pair_starts, parse_gauss_code
from vknots.forbidden import check_n_trivial, disjoint_sites, trivialize_forbidden
from vknots.moves import (
    MOVE_KINDS,
    MoveError,
    MoveEvent,
    R3_CATALOGUE,
    SearchStats,
    apply_move,
    apply_trace,
    enumerate_moves,
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
        with pytest.raises(MoveError, match="^unknown move kind 'R9'$"):
            MoveEvent("R9", (0,))


class TestApply:
    def test_r1_del_to_empty(self):
        d = parse_gauss_code("O1+ U1+")
        (e,) = enumerate_moves(d, ["R1_del"])
        assert apply_move(d, e).n == 0

    def test_r1_add_then_del(self):
        d = parse_gauss_code(TREFOIL, "long")
        for e in enumerate_moves(d, ["R1_add"]):
            d2 = apply_move(d, e)
            assert d2.n == 4
            assert any(apply_move(d2, back) == d for back in enumerate_moves(d2, ["R1_del"]))

    def test_r2_add_then_del(self, rng):
        for _ in range(40):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            m = d.slot_count
            g1, g2 = rng.randint(0, m), rng.randint(0, m)
            e = MoveEvent("R2_add", (g1, g2, rng.choice((True, False)), rng.choice((1, -1)), "t"))
            d2 = apply_move(d, e)
            assert d2.n == d.n + 2
            assert any(apply_move(d2, back) == d for back in enumerate_moves(d2, ["R2_del"]))

    def test_r2_del_then_add_up_to_rotation(self, rng):
        seen = 0
        while seen < 30:
            d = random_diagram(rng, rng.randint(2, 6), rng.choice(("closed", "long")))
            code = d.canonical_code()
            for e in enumerate_moves(d, ["R2_del"]):
                d2 = apply_move(d, e)
                assert any(
                    apply_move(d2, back).canonical_code() == code
                    for back in enumerate_moves(d2, ["R2_add"])
                )
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


LOCAL_KINDS = ("R1_del", "R2_del", "R3", "Fo", "Fu")


def candidate_events(d, r3=True):
    """Every slot-local event whose slots run from -1 to 2n, enumerated or
    not; R3 triples only when ``r3``."""
    slots = range(-1, d.slot_count + 1)
    for k in slots:
        for sign, orient in itertools.product((1, -1), ("OU", "UO")):
            yield MoveEvent("R1_del", (k, sign, orient))
        for k2, par, sign in itertools.product(slots, (True, False), (1, -1)):
            yield MoveEvent("R2_del", (k, k2, par, sign))
        yield MoveEvent("Fo", (k,))
        yield MoveEvent("Fu", (k,))
    if r3:
        for t in itertools.product(slots, repeat=3):
            yield MoveEvent("R3", t)


class TestOneRecognizer:
    """enumerate_moves and apply_move read one recognizer, so they agree
    on every candidate site."""

    def test_apply_accepts_exactly_the_enumerated_events(self):
        rng = random.Random(6060)
        accepted = dict.fromkeys(LOCAL_KINDS, 0)
        for i in range(400):
            d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
            listed = set(enumerate_moves(d, LOCAL_KINDS))
            for e in candidate_events(d, r3=d.n <= 5 or i % 2 == 0):
                try:
                    apply_move(d, e)
                except MoveError:
                    assert e not in listed, e
                else:
                    assert e in listed, e
                    accepted[e.kind] += 1
        assert min(accepted.values()) > 20, accepted

    def test_matches_a_chord_oracle(self):
        # the oracle shares no code with the recognizer, so this catches a
        # site that enumerate_moves and apply_move both misread
        rng = random.Random(6063)
        listed = dict.fromkeys(LOCAL_KINDS, 0)
        for i in range(600):
            n, kind = rng.randint(0, 12), rng.choice(("closed", "long"))
            d = (random_diagram if i % 2 else scrambled_diagram)(rng, n, kind)
            events = enumerate_moves(d, LOCAL_KINDS)
            assert sorted((e.kind, e.data) for e in events) == oracle_events(d), d
            for e in events:
                listed[e.kind] += 1
        assert min(listed.values()) > 100, listed

    def test_enumeration_has_no_duplicates(self):
        rng = random.Random(6061)
        for _ in range(300):
            d = random_diagram(rng, rng.randint(0, 9), rng.choice(("closed", "long")))
            events = enumerate_moves(d, MOVE_KINDS)
            assert len(events) == len(set(events))

    def test_enumeration_order(self):
        # kinds in blocks R1_del, R1_add, R2_del, R2_add, R3, virtualize,
        # then Fo and Fu together; slot-local blocks by their first slot
        blocks = ["R1_del", "R1_add", "R2_del", "R2_add", "R3", "virtualize", "Fo"]
        rng = random.Random(6062)
        for _ in range(300):
            d = random_diagram(rng, rng.randint(0, 7), rng.choice(("closed", "long")))
            kinds = rng.sample(MOVE_KINDS, rng.randint(1, len(MOVE_KINDS)))
            events = enumerate_moves(d, kinds)
            rank = [blocks.index("Fo" if e.kind == "Fu" else e.kind) for e in events]
            assert rank == sorted(rank)
            for kind in ("R1_del", "R2_del", "R3"):
                starts = [e.data[0] for e in events if e.kind == kind]
                assert starts == sorted(starts)
            f_starts = [e.data[0] for e in events if e.kind in ("Fo", "Fu")]
            assert f_starts == sorted(set(f_starts))


def oracle_events(d):
    """The R1_del, R2_del, R3, Fo and Fu events of ``d``, found from
    ``d.chords`` alone, as sorted (kind, data) pairs.  The R3 check is the
    chord-based fragment reading the move recognizer had before it read
    cells."""
    m = 2 * len(d.chords)
    ends = {}
    for c in d.chords:
        ends[c.tail] = (c, "t")
        ends[c.head] = (c, "h")

    def follows(a, b):
        if d.kind == "long":
            return b == a + 1
        return m >= 2 and b == (a + 1) % m and not (m == 2 and a == 1)

    def pair(k):
        return ends[k], ends[(k + 1) % m]

    events = []
    for c in d.chords:
        if follows(c.tail, c.head):
            events.append(("R1_del", (c.tail, c.sign, "OU")))
        if follows(c.head, c.tail):
            events.append(("R1_del", (c.head, c.sign, "UO")))
    tails, mixed, heads = [], [], []
    for c1, c2 in itertools.permutations(d.chords, 2):
        if follows(c1.tail, c2.tail):
            events.append(("Fo", (c1.tail,)))
            tails.append(c1.tail)
            if c1.sign != c2.sign:
                if follows(c1.head, c2.head):
                    events.append(("R2_del", (c1.tail, c1.head, True, c1.sign)))
                if follows(c2.head, c1.head):
                    events.append(("R2_del", (c1.tail, c2.head, False, c1.sign)))
        if follows(c1.head, c2.head):
            events.append(("Fu", (c1.head,)))
            heads.append(c1.head)
        if follows(c1.head, c2.tail):
            mixed.append(c1.head)
        if follows(c2.tail, c1.head):
            mixed.append(c2.tail)

    def r3_fragment(kt, km, kb):
        (t1, t2), (m1, m2), (b1, b2) = pair(kt), pair(km), pair(kb)
        cx = m1[0] if m1[1] == "h" else m2[0]
        cz = m1[0] if m1[1] == "t" else m2[0]
        top = {t1[0].id, t2[0].id}
        if cx.id not in top or cz.id in top:
            return None
        cy = t1[0] if t2[0].id == cx.id else t2[0]
        if {b1[0].id, b2[0].id} != {cy.id, cz.id}:
            return None
        return (
            "x" if t1[0].id == cx.id else "y",
            "x" if m1[1] == "h" else "z",
            "y" if b1[0].id == cy.id else "z",
            cx.sign,
            cy.sign,
            cz.sign,
        )

    for kt, km, kb in itertools.product(tails, mixed, heads):
        if len({kt, (kt + 1) % m, km, (km + 1) % m, kb, (kb + 1) % m}) == 6:
            if r3_fragment(kt, km, kb) in R3_CATALOGUE:
                events.append(("R3", (kt, km, kb)))
    return sorted(events)


class TestMalformedEvents:
    """apply_move refuses malformed event data with MoveError before the
    recognizer reads it."""

    @pytest.mark.parametrize("event", [
        MoveEvent("R1_del", ()),
        MoveEvent("R1_del", (0.0, 1, "OU")),
        MoveEvent("R1_del", (0, 1)),
        MoveEvent("R2_del", (0, True, True, 1)),
        MoveEvent("R3", (0, 2, 4.0)),
        MoveEvent("Fu", (1, 2)),
        MoveEvent("Fo", [1]),
        MoveEvent("virtualize", ()),
        MoveEvent("virtualize", (1.0,)),
        MoveEvent("R1_add", ()),
        MoveEvent("R2_add", (0, 0, True, 1)),
        MoveEvent("R2_add", (0, False, True, 1, "t")),
        MoveEvent("R1_add", (0, 1, "zz")),
        MoveEvent("R2_add", (0, 3, "yes", 1, "t")),
        MoveEvent("R2_add", (0, 3, True, 1, "x")),
        MoveEvent("R1_add", (0, 2, "OU")),
        MoveEvent("R1_add", (0, 1.0, "OU")),
        MoveEvent("R1_add", (0, True, "OU")),
        MoveEvent("R2_add", (0, 3, True, 2, "t")),
        MoveEvent("R2_add", (0, 3, True, 1.0, "t")),
        MoveEvent("R2_add", (0, 3, True, True, "t")),
        MoveEvent("R1_add", (-1, 1, "OU")),
        MoveEvent("R1_add", (7, 1, "OU")),
        MoveEvent("R2_add", (-1, 3, True, 1, "t")),
        MoveEvent("R2_add", (0, 7, True, 1, "t")),
        MoveEvent("virtualize", (9,)),
    ])
    def test_refused_with_move_error(self, event):
        d = parse_gauss_code("O1+ O2- U1+ U2- O3+ U3+", "long")
        with pytest.raises(MoveError, match=f"{event.kind}: malformed data"):
            apply_move(d, event)

    def test_bool_slot_is_not_read_as_its_int(self):
        # slot 1 starts an Fo pair and slot True equals 1, but is no slot
        d = parse_gauss_code("U3+ O1+ O2- U1+ U2- O3+")
        assert apply_move(d, MoveEvent("Fo", (1,))).n == 3
        with pytest.raises(MoveError, match="malformed"):
            apply_move(d, MoveEvent("Fo", (True,)))


def kernel_diagrams(seed):
    """Seeded random and scrambled diagrams of each kind, 0-8 chords."""
    rng = random.Random(seed)
    return [
        make(rng, n, kind)
        for n in range(9)
        for kind in ("closed", "long")
        for make in (random_diagram, scrambled_diagram)
        for _ in range(6)
    ]


class TestSearchKernel:
    """The searches' node kernel: the one recognizer read at one start or
    at all of them, and the child cells a site's move leaves."""

    def test_one_start_equals_the_all_starts_scan(self):
        counts = dict.fromkeys(("wrap", "m2", "R3"), 0)
        for d in kernel_diagrams(3001):
            kind, cells = d._eq_key()
            m = len(cells)
            starts = pair_starts(kind, m)
            scan = moves._sites(kind, cells, starts, LOCAL_KINDS)
            for k in starts:
                at_k = moves._sites(kind, cells, (k,), LOCAL_KINDS)
                assert at_k == tuple(
                    [site for site in found if site[1][0] == k] for found in scan), (d, k)
                counts["wrap"] += kind == "closed" and k == m - 1 and any(at_k)
            counts["m2"] += kind == "closed" and m == 2 and len(scan[0]) == 1
            counts["R3"] += len(scan[2])
        assert min(counts.values()) > 5, counts

    def test_child_cells_equal_apply_move(self):
        counts = dict.fromkeys(LOCAL_KINDS, 0)
        wraps = 0
        for d in kernel_diagrams(3002):
            kind, cells = d._eq_key()
            m = len(cells)
            for found in moves._sites(kind, cells, pair_starts(kind, m), LOCAL_KINDS):
                for site in found:
                    child = moves._child_cells(cells, site)
                    assert child == apply_move(d, MoveEvent(*site))._eq_key()[1], (d, site)
                    counts[site[0]] += 1
                    wraps += kind == "closed" and m - 1 in site[1][:moves._SHAPE[site[0]][2]]
        assert min(counts.values()) > 20 and wraps > 20, (counts, wraps)

    def test_searches_build_events_only_for_the_returned_trace(self, monkeypatch):
        built = []
        original = MoveEvent.__post_init__

        def counting_init(self):
            built.append(self.kind)
            original(self)

        diagrams = kernel_diagrams(3003)[::3]
        monkeypatch.setattr(MoveEvent, "__post_init__", counting_init)
        nodes = 0
        for d in diagrams:
            built.clear()
            stats = SearchStats()
            _, trace = simplify(d, 300, stats=stats)
            assert len(built) == len(trace)
            nodes += stats.expanded
            built.clear()
            stats = SearchStats()
            trace = trivialize_forbidden(d, 5, stats=stats)
            assert len(built) == (0 if trace is None else len(trace))
            nodes += stats.expanded
        assert nodes > 10 * len(diagrams)


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

    def test_stats_count_expanded_and_deduplicated_nodes(self):
        stats = SearchStats()
        simplify(virtual_trefoil(), 2000, stats=stats)
        assert stats == SearchStats(budget_spent=False, expanded=1, deduplicated=0)
        d = parse_gauss_code(
            "U1+ U2- O3+ O4- O5- U6- O7+ U7+ U8+ O1+ O2- U5- U9- U4- U3+ O9- O6- O8+")
        stats = SearchStats()
        assert simplify(d, 2000, stats=stats)[0].n == 0
        assert stats == SearchStats(budget_spent=False, expanded=78, deduplicated=195)
        stats = SearchStats()
        assert simplify(d, 50, stats=stats)[0].n == 2
        assert stats == SearchStats(budget_spent=True, expanded=50, deduplicated=128)

    def test_budget_zero_returns_input(self):
        d = parse_gauss_code("O1+ U1+")
        out, trace = simplify(d, 0)
        assert out == d and trace == []

    def test_negative_budget_refused(self):
        with pytest.raises(MoveError, match="^simplify budget must be >= 0$"):
            simplify(parse_gauss_code("O1+ U1+"), -1)


def scrambled_diagram(rng, n, kind):
    """A diagram of n chords grown from a small random one by R1 and R2
    insertions, each followed by a random R3 slide when one applies."""
    d = random_diagram(rng, rng.randint(0, min(n, 3)), kind)
    while d.n < n:
        grow = ["R1_add"] if d.n + 2 > n else ["R1_add", "R2_add", "R2_add"]
        d = apply_move(d, rng.choice(enumerate_moves(d, grow)))
        slides = enumerate_moves(d, ["R3"])
        if slides:
            d = apply_move(d, rng.choice(slides))
    return d


def golden_diagrams(seed, per):
    """``per`` random and ``per`` scrambled diagrams of each kind and each
    chord count 0..12."""
    rng = random.Random(seed)
    return [
        make(rng, n, kind)
        for n in range(13)
        for kind in ("closed", "long")
        for make in (random_diagram, scrambled_diagram)
        for _ in range(per)
    ]


def event_list(events):
    return [[e.kind, list(e.data)] for e in events]


class TestSearchGolden:
    """One sha256 over each search's outputs on seeded diagrams, so that a
    change to how the searches represent their nodes shows any change in
    what they return."""

    def test_simplify(self):
        h = hashlib.sha256()
        for d in golden_diagrams(1801, 6):
            for budget in (0, 50, 2000):
                stats = SearchStats()
                out, trace = simplify(d, budget, stats=stats)
                h.update(repr((event_list(trace), out.code(), out.chord_ids(),
                               stats.budget_spent)).encode())
        assert h.hexdigest() == (
            "ebce4f6fc566c61cad550f6ba31d4ec2b61d82f594c2d919f3b0c50837526394")

    def test_trivialize_forbidden(self):
        h = hashlib.sha256()
        for d in golden_diagrams(1802, 3):
            trace = trivialize_forbidden(d, 6)
            h.update(repr(None if trace is None else event_list(trace)).encode())
        assert h.hexdigest() == (
            "516bd2c6bc3f6c59a1e22475cb691e8a118212a8888568ee38b1567325d03128")

    def test_check_n_trivial(self):
        # re-derived when certify_trivial got its writhe row, after checking
        # that each of the 8 subset verdicts it changed went from unknown
        # to refuted with a "writhe" witness, and no aggregate changed
        h = hashlib.sha256()
        for d in golden_diagrams(1803, 2):
            ids = d.chord_ids()
            runs = []
            if d.n >= 4:
                runs.append(("GPV", [ids[:2], ids[2:4]]))
            elif d.n >= 2:
                runs.append(("GPV", [ids[:1], ids[1:2]]))
            sites = disjoint_sites(d, 2)
            if sites:
                runs.append(("F", [(s,) for s in sites]))
            for mode, families in runs:
                verdicts, aggregate = check_n_trivial(d, families, budget=200)
                h.update(repr((mode, aggregate, sorted(
                    (k, v.status, event_list(v.trace), v.witness, v.reason)
                    for k, v in verdicts.items()))).encode())
        assert h.hexdigest() == (
            "b6704f949c514cfe228275dd684e5f9d38d43e06120a1f7f702e56527dcfe2d0")


class TestAddMoveGolden:
    """One sha256 over the chords of every R1_add and R2_add result on
    seeded diagrams: both orients, parities, roles and signs, and equal,
    crossed and end gaps.  Each diagram is read twice, the second time
    with its chord ids tripled, so that a new id counts from the largest
    id and not from the chord count."""

    def test_apply_move(self):
        rng = random.Random(4001)
        h = hashlib.sha256()
        for n in range(7):
            for kind in ("closed", "long"):
                for make in (random_diagram, scrambled_diagram):
                    d = make(rng, n, kind)
                    spaced = GaussDiagram(kind, [c._replace(id=3 * c.id) for c in d.chords])
                    for diagram in (d, spaced):
                        for e in enumerate_moves(diagram, ["R1_add", "R2_add"]):
                            out = apply_move(diagram, e)
                            h.update(repr((e.kind, [tuple(c) for c in out.chords])).encode())
        assert h.hexdigest() == (
            "ac48a49cac8f9f7408f45473964195a8eeb993256af2c34785a5e766c4869977")
