import gc
import hashlib
import itertools
import json
import random
import weakref

import networkx as nx
import pytest

from vknots.corpus import (
    figure_eight,
    gpv2_trivial,
    left_trefoil,
    random_diagram,
    right_trefoil,
    unknot,
    virtual_trefoil,
)
from vknots import khovanov
from vknots.braids import BraidError, closure, parse_braid_word
from vknots.cli import main
from vknots.diagram import Chord, DiagramError, GaussDiagram, parse_gauss_code, reclose
from vknots.gf2 import gf2_rank
from vknots.khovanov import (
    CapExceeded,
    bracket,
    distinguish_from_unknot,
    homology,
    jones_from_bracket,
    jones_hat,
    lemma5_check,
    lemma5_gradings,
    lemma5_scan,
    _space,
    _switch_images,
    writhe,
)
from vknots.laurent import LaurentPoly
from vknots.moves import apply_move, enumerate_moves, simplify

TREFOIL = right_trefoil("closed")
VT = virtual_trefoil()


@pytest.fixture(autouse=True)
def cold_column_memo(request):
    """A test that monkeypatches, for example ``_switch_images`` or
    ``_x_columns``, starts and ends with an empty C_x column memo: its
    mutant then reaches every switch map, even on diagrams earlier tests
    cached, and no column computed under it outlives the test."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    khovanov._x_columns.cache_clear()
    yield
    khovanov._x_columns.cache_clear()


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
        sp = _space(unknot())
        assert len(sp.circles(sp.mask_of(()))) == 1

    def test_trefoil_oriented_state(self):
        # all-positive markers on the positive trefoil = Seifert smoothing
        sp = _space(TREFOIL)
        assert len(sp.circles(sp.mask_of((1, 1, 1)))) == 2

    def test_virtual_trefoil_all_positive(self):
        sp = _space(VT)
        assert len(sp.circles(sp.mask_of((1, 1)))) == 1

    def test_partition_covers_arcs_once(self, rng):
        for _ in range(30):
            d = random_diagram(rng, rng.randint(1, 7), "closed")
            markers = tuple(rng.choice((1, -1)) for _ in range(d.n))
            sp = _space(d)
            arcs = sorted(a for circle in sp.circles(sp.mask_of(markers)) for a in circle)
            assert arcs == list(range(d.slot_count))

    def test_against_networkx_oracle(self):
        rng = random.Random(5150)
        for _ in range(150):
            d = random_diagram(rng, rng.randint(0, 7), "closed")
            markers = tuple(rng.choice((1, -1)) for _ in range(d.n))
            sp = _space(d)
            assert len(sp.circles(sp.mask_of(markers))) == oracle_circle_count(d, markers)
            # an equal copy with reversed chord ids lists the same markers in
            # reverse; right after d, it must not reuse d's chord order
            ids = d.chord_ids()
            swap = dict(zip(ids, reversed(ids)))
            copy = GaussDiagram(
                "closed", (Chord(swap[c.id], c.tail, c.head, c.sign) for c in d.chords)
            )
            assert copy == d
            flipped = markers[::-1]
            sp = _space(copy)
            assert len(sp.circles(sp.mask_of(flipped))) == oracle_circle_count(copy, flipped)

    def test_marker_length_mismatch(self):
        with pytest.raises(Exception, match="markers"):
            _space(TREFOIL).mask_of((1, 1))

    def test_non_int_markers_are_refused(self):
        # True == 1 and 1.0 == 1, but a marker must be an int, as a chord's
        # fields and a site's slot must
        for markers, name in (((True, 1, 1), "bool"), ((1.0, -1, True), "float"),
                              ((1, -1.0, 1), "float"), ((1, 1, "1"), "str")):
            with pytest.raises(DiagramError, match=f"markers must be ints, not {name}"):
                lemma5_check(TREFOIL, markers)
            with pytest.raises(DiagramError, match=f"markers must be ints, not {name}"):
                lemma5_gradings(TREFOIL, markers)
        assert lemma5_gradings(TREFOIL, (1, -1, 1)) == (1, 5)

    @pytest.mark.parametrize("markers", [(0, 1, 1), (1, 2, 1), (1, 1, -2)])
    def test_markers_other_than_plus_or_minus_one_are_refused(self, markers):
        for fn in (lemma5_check, lemma5_gradings):
            with pytest.raises(DiagramError, match="^markers must be \\+1 or -1$"):
                fn(TREFOIL, markers)

    @pytest.mark.parametrize("fn", [bracket, jones_hat, lemma5_scan])
    def test_state_sums_refuse_a_long_diagram(self, fn):
        with pytest.raises(DiagramError, match="^state smoothing expects a closed diagram$"):
            fn(right_trefoil("long"))

    def test_circle_labels_fit_a_byte_up_to_254_chords(self):
        def kinks(n):
            return GaussDiagram("closed", (Chord(k + 1, 2 * k, 2 * k + 1, 1) for k in range(n)))

        # one of the two uniform states splits off a circle at every kink
        sp = _space(kinks(254))
        assert max(len(sp.circles(mask)) for mask in (0, (1 << 254) - 1)) == 255
        with pytest.raises(DiagramError, match="at most 254 chords, got 255"):
            lemma5_check(kinks(255), (1,) * 255)


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
            acc = LaurentPoly()
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
        # sum over every enhanced state (mask, label mask lam), with
        # bit k of lam labelling circle k by x: (-1)**i * q**j, where
        # j = w + i + #(1 labels) - #(x labels)
        for _ in range(10):
            d = random_diagram(rng, rng.randint(0, 6), "closed")
            sp = _space(d)
            acc = {}
            for mask in range(1 << sp.n):
                size = len(sp.circles(mask))
                i = sp.homological_i(mask)
                for lam in range(1 << size):
                    j = sp.w + i + size - 2 * lam.bit_count()
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
        br = jh = LaurentPoly()
        for (neg, size), count in sp.walk(labelled=False)[2].items():
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


def counting_traces(monkeypatch) -> list[int]:
    """The masks of every state ``_StateSpace._trace`` traces on its own
    from here on, in call order."""
    traces = []
    trace = khovanov._StateSpace._trace

    def counting_trace(self, mask):
        traces.append(mask)
        return trace(self, mask)

    monkeypatch.setattr(khovanov._StateSpace, "_trace", counting_trace)
    return traces


def counting_walks(monkeypatch) -> list[tuple[int, bool]]:
    """(chord count, label mode) of every Gray walk of the cube from here
    on, in call order: each call to ``_StateSpace.walk``."""
    walks = []
    walk = khovanov._StateSpace.walk

    def counting(self, *, labelled):
        walks.append((self.n, labelled))
        return walk(self, labelled=labelled)

    monkeypatch.setattr(khovanov._StateSpace, "walk", counting)
    return walks


class TestGrayCensus:
    """Both modes of the Gray walk against single-state traces, and the
    walks a request pays for."""

    @staticmethod
    def traced_census(d):
        sp = khovanov._StateSpace(d.kind, d.chords)
        counts = {}
        for mask in range(1 << sp.n):
            key = (mask.bit_count(), len(sp.circles(mask)))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_matches_traced_census(self, monkeypatch):
        # label mode returns the traced arcs, counts and census, and count
        # mode the census alone, on random diagrams (also with shuffled
        # chord ids) and on braid closures; the traced circle counts along
        # the Gray order show that the steps split, merge and keep
        traces = counting_traces(monkeypatch)
        rng = random.Random(7331)
        pairs = []
        for n in range(11):
            for _ in range(3 if n < 9 else 1):
                d = random_diagram(rng, n, "closed")
                ids = [3 * k + 1 for k in range(n)]
                rng.shuffle(ids)
                relabelled = GaussDiagram(
                    "closed",
                    (Chord(i, c.tail, c.head, c.sign) for i, c in zip(ids, d.chords)),
                )
                pairs.append((d, (d, relabelled)))
        braids = random.Random(7332)
        for real in range(4, 11):
            for _ in range(2):
                d = random_braid_closure(braids, real)
                pairs.append((d, (d,)))
        steps = set()
        for d, copies in pairs:
            want = None
            for copy in copies:
                sp = khovanov._StateSpace("closed", copy.chords)
                traces.clear()
                walks = sp.walk(labelled=True), sp.walk(labelled=False)
                # neither mode traces a single state
                assert traces == []
                traced = [sp._trace(mask) for mask in range(1 << d.n)]
                arcs = [arc for _, arc in traced]
                sizes = [len(circles) for circles, _ in traced]
                census = {}
                for mask, size in enumerate(sizes):
                    key = (mask.bit_count(), size)
                    census[key] = census.get(key, 0) + 1
                # the census does not depend on the chord ids
                want = want or census
                assert census == want, d.code()
                assert walks == ((arcs, sizes, census), ([], [], census)), copy.code()
                gray = [g ^ (g >> 1) for g in range(1 << d.n)]
                steps.update(sizes[b] - sizes[a] for a, b in zip(gray, gray[1:]))
        assert [d.n for d, copies in pairs if len(copies) == 1] == [
            real for real in range(4, 11) for _ in range(2)]
        assert steps == {-1, 0, 1}

    def test_stepped_count_matches_traced_census(self):
        # each Gray step of the count-mode walk moves the circle count by
        # -1, 0 or +1 after one strand walk; the circle counts of the
        # label-mode walk give the steps this set of diagrams takes
        rng = random.Random(2211)
        diagrams = [unknot(), parse_gauss_code("O1+ U1+"), parse_gauss_code("O1- U1-")]
        diagrams += [random_braid_closure(rng, real) for real in (11, 11, 12, 12)]
        diagrams += [right_trefoil(), left_trefoil(), figure_eight(), VT, reclose(gpv2_trivial())]
        steps, kinks = set(), 0
        for d in diagrams:
            sp = khovanov._StateSpace(d.kind, d.chords)
            assert sp.walk(labelled=False)[2] == self.traced_census(d), d.code()
            _, sizes, _ = sp.walk(labelled=True)
            gray = [g ^ (g >> 1) for g in range(1 << d.n)]
            steps.update(sizes[b] - sizes[a] for a, b in zip(gray, gray[1:]))
            m = d.slot_count
            kinks += sum((c.tail - c.head) % m in (1, m - 1) for c in d.chords)
        assert [d.n for d in diagrams[3:7]] == [11, 11, 12, 12]
        assert steps == {-1, 0, 1}
        # a chord whose two ends lie on one arc
        assert kinks

    def test_walk_matches_traced_states(self):
        # the circle index of each arc and the circle count of every state
        # of the walk against each state traced on its own, on diagrams
        # whose Gray steps merge, split and (virtual only) keep the count
        rng = random.Random(3434)
        kinked = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+ O4- U4-")
        diagrams = [unknot(), parse_gauss_code("O1+ U1+"), parse_gauss_code("O1- U1-"), kinked]
        diagrams += [random_braid_closure(rng, real) for real in (11, 12)]
        diagrams += [VT, reclose(gpv2_trivial()), random_diagram(rng, 7, "closed")]
        assert [d.n for d in diagrams[:6]] == [0, 1, 1, 4, 11, 12]
        seen, keeping = set(), []
        for d in diagrams:
            sp = khovanov._StateSpace(d.kind, d.chords)
            arcs, sizes, census = sp.walk(labelled=True)
            traced = [sp._trace(mask) for mask in range(1 << d.n)]
            assert arcs == [arc for _, arc in traced], d.code()
            assert sizes == [len(circles) for circles, _ in traced], d.code()
            assert census == self.traced_census(d), d.code()
            gray = [g ^ (g >> 1) for g in range(1 << d.n)]
            steps = {sizes[b] - sizes[a] for a, b in zip(gray, gray[1:])}
            seen |= steps
            if 0 in steps:
                keeping.append(d)
        assert seen == {-1, 0, 1}
        # a step that keeps the count needs a virtual diagram
        assert VT in keeping and any(d.n >= 11 for d in keeping)

    def test_state_sums_keep_no_state(self, monkeypatch):
        traces = counting_traces(monkeypatch)
        d = random_diagram(random.Random(12), 8, "closed")
        bracket(d)
        jones_hat(d)
        assert traces == []
        # homology traces no single state
        homology(d)
        assert traces == []

    def test_kh_request_walks_the_cube_once(self, monkeypatch, capsys):
        walks = counting_walks(monkeypatch)
        traces = counting_traces(monkeypatch)
        d = random_diagram(random.Random(13), 8, "closed")
        d = apply_move(d, enumerate_moves(d, ["R2_add"])[0])
        reduced, _ = khovanov.reduce_for_state_sums(d)
        assert reduced.n < d.n == 10
        assert main(["kh", "--code", d.code()]) == 0
        assert "euler_check" in capsys.readouterr().out
        # homology's walk over the reduced diagram, in label mode, keeps the
        # arc array and circle count of every state and tallies the census
        # that jones_hat and bracket then read; no state is traced on its own
        assert walks == [(reduced.n, True)] and traces == []

    def test_eval_request_walks_the_cube_once_per_diagram(self, monkeypatch, capsys, tmp_path):
        walks = counting_walks(monkeypatch)
        traces = counting_traces(monkeypatch)
        rng = random.Random(16)
        diagrams = [random_diagram(rng, n, kind) for n, kind in ((6, "closed"), (7, "long"), (5, "closed"))]
        path = tmp_path / "d.txt"
        path.write_text("".join(f"{d.kind}: {d.code()}\n" for d in diagrams))
        assert main(["eval", "--input", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["diagrams"]) == 3
        # bracket and jones_hat read one census per diagram, tallied on one
        # Gray walk in count mode; no state is traced on its own
        assert walks == [(6, False), (7, False), (5, False)] and traces == []

    def test_no_state_space_outlives_a_request(self, monkeypatch, capsys):
        spaces = []
        init = khovanov._StateSpace.__init__

        def recording_init(self, kind, chords):
            spaces.append(weakref.ref(self))
            init(self, kind, chords)

        monkeypatch.setattr(khovanov._StateSpace, "__init__", recording_init)
        code = random_diagram(random.Random(17), 7, "closed").code()
        assert main(["kh", "--code", code]) == 0
        assert main(["eval", "--code", code]) == 0
        capsys.readouterr()
        gc.collect()
        # each request built one state space and kept none of it
        assert len(spaces) == 2 and [ref() for ref in spaces] == [None, None]


def kh_oracle(d: GaussDiagram) -> str:
    """The JSON line of a ``kh`` report computed on the unreduced diagram."""
    closed = d if d.kind == "closed" else reclose(d)
    table = homology(closed, closed.n)
    jh = jones_hat(closed)
    report = {
        "writhe": writhe(closed),
        "table": [{"i": i, "j": j, "dim": dim} for (i, j), dim in table.dims],
        "jones_hat": jh.pairs(),
        "bracket": bracket(closed).pairs(),
        "euler_check": "ok" if table.euler() == jh else "mismatch",
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def random_braid_closure(rng: random.Random, real: int) -> GaussDiagram:
    """Closure of a random 4-strand word with ``real`` real letters and a
    few virtual ones; words closing to more than one component are redrawn."""
    while True:
        tokens = [rng.choice("sS") + str(rng.randint(1, 3)) for _ in range(real)]
        tokens += ["v" + str(rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        rng.shuffle(tokens)
        try:
            return closure(parse_braid_word(" ".join(tokens)))
        except BraidError:
            continue


class TestStateSumGolden:
    """One sha256 over state-sum outputs on seeded diagrams, derived before
    the census counted circles by Gray steps, so that a change to how the
    census tallies its states shows any change in the bytes they print."""

    def test_eval_reports(self, capsys, tmp_path):
        rng = random.Random(2201)
        diagrams = [
            random_diagram(rng, n, kind)
            for n in range(4, 10)
            for kind in ("closed", "long")
            for _ in range(4)
        ]
        path = tmp_path / "d.txt"
        path.write_text("".join(f"{d.kind}: {d.code()}\n" for d in diagrams))
        assert main(["eval", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cd18af1428a2cd552939feb24caada1b2d585192ae3eb9b496e13622aaadb47d")

    def test_bracket_and_jones_hat_of_braid_closures(self):
        rng = random.Random(2202)
        h = hashlib.sha256()
        for real in (10, 11, 12):
            for _ in range(3):
                d = random_braid_closure(rng, real)
                h.update(repr((d.code(), bracket(d).pairs(), jones_hat(d).pairs())).encode())
        assert h.hexdigest() == (
            "c99166a7b8bd6498a0e801dd4b929f0e9854f47efb42404804bf40cc06b49876")

    def test_kh_reports(self, capsys):
        # derived before homology stepped its Gray walk inline, so that a
        # change to how the pass reads switches and builds rows shows any
        # change in the bytes kh prints
        rng = random.Random(2203)
        diagrams = [
            d
            for n in range(8, 13)
            for d in (random_diagram(rng, n, "closed"), random_diagram(rng, n, "closed"),
                      random_braid_closure(rng, n))
        ]
        shrunk = kept = 0
        for d in diagrams:
            reduced, _ = khovanov.reduce_for_state_sums(d)
            shrunk += reduced.n < d.n
            _, sizes, _ = khovanov._StateSpace(reduced.kind, reduced.chords).walk(labelled=True)
            bits = [1 << k for k in range(reduced.n)]
            kept += any(sizes[mask | bit] == size
                        for mask, size in enumerate(sizes) for bit in bits if not mask & bit)
        # the reduction shrinks some, and some reduced (virtual) diagrams
        # have switches that keep the circle count, the zero maps
        assert shrunk and kept
        h = hashlib.sha256()
        for d in diagrams:
            assert main(["kh", "--code", d.code()]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == (
            "b724ef669b0eb064df0b1f9cb7384f62669fd5eb5b1da105cd5ad14d01aeb639")


class TestKhOnReducedDiagram:
    """``kh`` reads its state sums on the diagram ``simplify`` reduces the
    input to; its reports must equal those of the unreduced diagram."""

    @staticmethod
    def padded_corpus():
        rng = random.Random(2718)
        out = []
        for _ in range(60):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            for _ in range(rng.randint(0, 2)):
                d = apply_move(d, rng.choice(enumerate_moves(d, ["R1_add", "R2_add"])))
            out.append(d)
        return out

    def check(self, capsys, d):
        assert main(["kh", "--code", d.code(), "--kind", d.kind]) == 0
        out = capsys.readouterr().out
        assert out == kh_oracle(d), d.code()
        closed = d if d.kind == "closed" else reclose(d)
        assert json.loads(out)["bracket"] == bracket(closed).pairs()

    def test_small_diagrams_match_unreduced_oracle(self, capsys):
        reduced = kinks = 0
        for d in self.padded_corpus():
            assert d.n <= 9
            self.check(capsys, d)
            closed = d if d.kind == "closed" else reclose(d)
            small, _ = simplify(closed)
            reduced += small.n < closed.n
            kinks += writhe(small) != writhe(closed)
        # the corpus exercises the reduction and the bracket's rescaling
        assert reduced >= 40 and kinks >= 20

    def test_braid_closures_match_unreduced_oracle(self, capsys):
        rng = random.Random(1618)
        for real in (10, 11, 12):
            d = random_braid_closure(rng, real)
            assert d.n == real
            self.check(capsys, d)


def reversed_chords(d: GaussDiagram, ids) -> GaussDiagram:
    """``d`` with the chords in ``ids`` reversed: tail and head swapped,
    sign and id kept."""
    return GaussDiagram(
        d.kind,
        (Chord(c.id, c.head, c.tail, c.sign) if c.id in ids else c for c in d.chords),
    )


def closed_corpus(seed: int, sizes) -> list[GaussDiagram]:
    """Seeded random closed diagrams and 4-strand braid closures, one of
    each per size."""
    rng = random.Random(seed)
    return [d for n in sizes for d in (random_diagram(rng, n, "closed"),
                                       random_braid_closure(rng, n))]


class TestChordReversal:
    """Reversing chords, each keeping its sign, changes nothing the state
    sums read: the smoothing pairs at a chord are the same sets whichever
    end is its tail."""

    @staticmethod
    def space(d):
        return khovanov._StateSpace(d.kind, d.chords)

    def test_state_space_and_sums_unchanged(self):
        rng = random.Random(4242)
        for d in closed_corpus(4242, range(1, 10)):
            before = self.space(d)
            arcs, sizes, census = before.walk(labelled=True)
            sums = (homology(d).as_dict(), jones_hat(d), bracket(d))
            ids = list(d.chord_ids())
            for subset in (ids, rng.sample(ids, rng.randint(1, d.n))):
                flipped = reversed_chords(d, set(subset))
                assert [(c.tail, c.head) for c in flipped.chords] != [
                    (c.tail, c.head) for c in d.chords]
                # the census of a count-mode walk, then the arc arrays and
                # the census of a label-mode walk
                after = self.space(flipped)
                assert after.walk(labelled=False) == ([], [], census), flipped.code()
                assert after.walk(labelled=True) == (arcs, sizes, census), flipped.code()
                # homology reads a reversed chord's switches at its new
                # tail arcs, its old head arcs: the equality below and
                # TestHomologyOracle cover them
                assert (homology(flipped).as_dict(), jones_hat(flipped), bracket(flipped)) == sums


class TestReduceForStateSums:
    """``reduce_for_state_sums`` deletes kinks and R2 pairs up to chord
    reversal, then runs ``simplify`` for R3 slides, until the chord count
    stops falling; ``kh`` reads its state sums on the result."""

    def test_fewer_states_than_simplify(self):
        ours = theirs = 0
        for d in closed_corpus(3030, [10, 11, 12] * 8):
            reduced, shift = khovanov.reduce_for_state_sums(d)
            assert shift == writhe(d) - writhe(reduced)
            # nothing is left for either step to delete
            assert khovanov._reversal_deletion(reduced) == ()
            assert simplify(reduced)[0].n == reduced.n
            ours += 1 << reduced.n
            theirs += 1 << simplify(d)[0].n
        assert ours < theirs

    def test_greedy_deletion_can_keep_more_chords_than_simplify(self):
        # Chords 3 and 4 form an R2 pair, which step 1 deletes at once.
        # simplify first slides both of them with R3 and then deletes two
        # other R2 pairs, a route that deleting them closes.
        d = parse_gauss_code(
            "O1+ U2+ U3- U4+ U5- O6- U1+ O2+ O7+ U8+ O5- U6- U9- O10- U7+ O3- O4+ "
            "O8+ O9- U10-", "closed")
        assert khovanov._reversal_deletion(d) == (3, 4)
        reduced, shift = khovanov.reduce_for_state_sums(d)
        assert (reduced.n, simplify(d)[0].n) == (8, 6)
        assert homology(reduced).as_dict() == homology(d).as_dict()
        assert bracket(d) == bracket(reduced) * LaurentPoly({3 * shift: (-1) ** (shift % 2)})

    def test_reversed_r2_pair_that_simplify_keeps(self, capsys):
        # chords 1 and 2 have opposite signs and adjacent ends at slots
        # (0, 1) and (3, 4), but the head of 1 sits beside the tail of 2,
        # so no oriented R2 site is there; chord 3 is then a kink
        d = parse_gauss_code("U1+ O2- O3+ U2- O1+ U3+", "closed")
        assert simplify(d)[0].n == 3
        assert khovanov.reduce_for_state_sums(d) == (unknot("closed"), 1)
        report = json.loads(self.kh(capsys, d))
        assert report["table"] == [{"dim": 1, "i": 0, "j": -1}, {"dim": 1, "i": 0, "j": 1}]
        assert report["bracket"] == bracket(d).pairs()

    @staticmethod
    def kh(capsys, d):
        assert main(["kh", "--code", d.code(), "--kind", d.kind]) == 0
        return capsys.readouterr().out

    def test_kh_reports_match_unreduced_diagrams(self, capsys):
        rng = random.Random(6060)
        beyond = 0
        for _ in range(60):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            for _ in range(rng.randint(0, 2)):
                d = apply_move(d, rng.choice(enumerate_moves(d, ["R1_add", "R2_add"])))
            d = reversed_chords(d, set(rng.sample(d.chord_ids(), d.n // 2)))
            assert d.n <= 9
            out = self.kh(capsys, d)
            assert out == kh_oracle(d), d.code()
            closed = d if d.kind == "closed" else reclose(d)
            assert json.loads(out)["bracket"] == bracket(closed).pairs()
            beyond += khovanov.reduce_for_state_sums(closed)[0].n < simplify(closed)[0].n
        # the corpus reaches pairs that only reversal makes deletable
        assert beyond >= 10


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


def walk_switch(sp, arcs, sizes, mask, k):
    """The switch of chord ``k`` from state ``mask`` as (kind, a, b, c),
    read off the walk's circle labels at the chord's tail arcs u and v, as
    the row pass of ``homology`` reads it: old circles a < b merge into new
    circle c, or old circle a splits into new circles b < c."""
    m = 2 * sp.n
    u, v = (sp.chords[k].tail - 1) % m, sp.chords[k].tail
    new_mask = mask | 1 << k
    old, new = arcs[mask], arcs[new_mask]
    delta = sizes[new_mask] - sizes[mask]
    if delta == -1:
        a, b = sorted((old[u], old[v]))
        return "merge", a, b, new[u]
    if delta == 1:
        b, c = sorted((new[u], new[v]))
        return "split", old[u], b, c
    assert delta == 0, (mask, k)
    return "zero", -1, -1, -1


class TestSwitch:
    def test_local_switch_matches_tuple_diff(self):
        rng = random.Random(4040)
        diagrams = [VT, TREFOIL] + [
            random_diagram(rng, rng.randint(1, 6), "closed") for _ in range(60)
        ]
        kinds = set()
        for d in diagrams:
            sp = _space(d)
            arcs, sizes, _ = sp.walk(labelled=True)
            for mask in range(1 << sp.n):
                size = len(sp.circles(mask))
                for k in range(sp.n):
                    if (mask >> k) & 1:
                        continue
                    want, carry = oracle_switch(sp, mask, k)
                    kinds.add(want[0])
                    assert walk_switch(sp, arcs, sizes, mask, k) == want, (d.code(), mask, k)
                    if want[0] == "zero":
                        continue
                    # untouched circles keep their relative order
                    assert sorted(carry.values()) == [carry[i] for i in sorted(carry)]
                    for lam in range(1 << size):
                        assert _switch_images(want, lam) == oracle_images(want, carry, lam)
        assert kinds == {"zero", "merge", "split"}

    def test_touched_circles_keep_the_lower_index(self):
        # circles are numbered by their smallest arc, so the merged circle
        # keeps the lower index (c == a), and so does the split piece that
        # holds the old circle's smallest arc (b == a); the walk's stepped
        # labels rest on this
        rng = random.Random(4141)
        diagrams = [random_diagram(rng, n, "closed") for n in range(1, 9) for _ in range(4)]
        diagrams += [random_braid_closure(rng, real) for real in (6, 8, 10)]
        counts = {"merge": 0, "split": 0}
        for d in diagrams:
            sp = _space(d)
            arcs, sizes, _ = sp.walk(labelled=True)
            for mask in range(1 << sp.n):
                for k in range(sp.n):
                    if (mask >> k) & 1:
                        continue
                    kind, a, b, c = walk_switch(sp, arcs, sizes, mask, k)
                    if kind != "zero":
                        assert (c if kind == "merge" else b) == a, (d.code(), mask)
                        counts[kind] += 1
        assert min(counts.values()) > 1000

    @staticmethod
    def forge_count(monkeypatch, state, jump):
        """Make every walk add ``jump`` to the circle count of ``state`` of
        the trefoil, whose states have 2, 1, 1, 2, 1, 2, 2, 3 circles by
        mask."""
        walk = khovanov._StateSpace.walk

        def forged(self, *, labelled):
            arcs, sizes, census = walk(self, labelled=labelled)
            assert sizes == [2, 1, 1, 2, 1, 2, 2, 3]
            sizes[state] += jump
            return arcs, sizes, census

        monkeypatch.setattr(khovanov._StateSpace, "walk", forged)

    def test_count_jump_of_two_trips_the_switch_guard(self, monkeypatch):
        # a switch changes the circle count by -1, 0 or +1; forged circle
        # counts that jump by 2 must raise, not be read as a merge or split:
        # state 1 forged to 4 circles jumps by 2 to state 3
        self.forge_count(monkeypatch, 1, 3)
        with pytest.raises(AssertionError, match="changes the circle count by at most 1"):
            homology(TREFOIL)

    def test_count_jump_on_a_map_read_before_trips_the_switch_guard(self, monkeypatch):
        # state 3 forged to 3 circles is jumped to by 2 from state 2, whose
        # labels there read as the split of state 4 to state 5, which the
        # pass has read before: the guard runs on every switch, not only
        # where a switch map's columns are first looked up
        self.forge_count(monkeypatch, 3, 1)
        with pytest.raises(AssertionError, match="changes the circle count by at most 1"):
            homology(TREFOIL)

    def test_dropped_split_image_trips_d_o_d(self, monkeypatch):
        def lossy(sw, lam):
            images = _switch_images(sw, lam)
            return images[:1] if sw[0] == "split" else images

        monkeypatch.setattr(khovanov, "_switch_images", lossy)
        # the homology assembly's d o d check catches it
        with pytest.raises(AssertionError, match="d o d"):
            homology(TREFOIL)

    def test_misplaced_merge_image_trips_d_o_d(self, monkeypatch):
        def misplaced(sw, lam):
            # put the merged circle's label on the new circle before it
            kind, a, b, c = sw
            if kind != "merge" or c == 0:
                return _switch_images(sw, lam)
            xa, xb = (lam >> a) & 1, (lam >> b) & 1
            if xa and xb:
                return []
            rest = khovanov._drop_bit(khovanov._drop_bit(lam, b), a)
            return [khovanov._insert_bit(rest, c - 1, xa | xb)]

        d = random_diagram(random.Random(0), 5, "closed")
        monkeypatch.setattr(khovanov, "_switch_images", misplaced)
        # the homology assembly's d o d check catches it
        with pytest.raises(AssertionError, match="d o d"):
            homology(d)


def oracle_homology(d: GaussDiagram) -> dict:
    """Reference table: every state traced on its own, every switch read by
    :func:`oracle_switch`, each row built on its own, d o d checked on
    every row, then plain ``gf2_rank``."""
    sp = khovanov._StateSpace(d.kind, d.chords)
    basis = {}
    index = {}
    for mask in range(1 << sp.n):
        size = len(sp.circles(mask))
        i = sp.homological_i(mask)
        for lam in range(1 << size):
            block = basis.setdefault((i, sp.w + i + size - 2 * lam.bit_count()), [])
            index[mask, lam] = len(block)
            block.append((mask, lam))
    switches = {
        mask: [
            (mask | (1 << k), *oracle_switch(sp, mask, k))
            for k in range(sp.n)
            if not (mask >> k) & 1
        ]
        for mask in range(1 << sp.n)
    }
    matrices = {}
    for key, block in basis.items():
        rows = matrices[key] = []
        for mask, lam in block:
            vec = 0
            for new_mask, sw, carry in switches[mask]:
                for lam2 in oracle_images(sw, carry, lam):
                    vec ^= 1 << index[new_mask, lam2]
            rows.append(vec)
    for (i, j), rows in matrices.items():
        nxt = matrices.get((i + 1, j), [])
        for vec in rows:
            image = 0
            while vec:
                low = vec & -vec
                image ^= nxt[low.bit_length() - 1]
                vec ^= low
            assert image == 0, (d.code(), i, j)
    ranks = {key: gf2_rank(rows) for key, rows in matrices.items()}
    table = {}
    for (i, j), rows in matrices.items():
        dim = len(rows) - ranks[i, j] - ranks.get((i - 1, j), 0)
        if dim:
            table[i, j] = dim
    return table


class TestHomologyOracle:
    """``homology`` against the row-by-row assembly of :func:`oracle_homology`."""

    @staticmethod
    def relabelled(d: GaussDiagram, rng: random.Random) -> GaussDiagram:
        ids = [5 * k + 2 for k in range(d.n)]
        rng.shuffle(ids)
        return GaussDiagram(
            "closed", (Chord(i, c.tail, c.head, c.sign) for i, c in zip(ids, d.chords))
        )

    def test_random_diagrams_up_to_nine_chords(self):
        rng = random.Random(9090)
        for n in range(10):
            for _ in range(4 if n < 8 else 2):
                d = random_diagram(rng, n, "closed")
                want = oracle_homology(d)
                for copy in (d, self.relabelled(d, rng)):
                    assert homology(copy).as_dict() == want, copy.code()

    def test_virtual_trefoil(self):
        assert homology(VT).as_dict() == oracle_homology(VT)

    def test_braid_closures(self):
        rng = random.Random(1212)
        for real in (10, 11, 12):
            d = random_braid_closure(rng, real)
            assert homology(d).as_dict() == oracle_homology(d), d.code()


class TestReducedComplex:
    """``homology`` builds only C_x, the enhanced states whose circle 0 is
    labelled x, and checks that every switch map commutes with X and nu."""

    def test_rows_reaching_gf2_rank_are_half(self, monkeypatch):
        calls = []

        def counting_rank(rows, *args):
            calls.append(len(rows))
            return gf2_rank(rows, *args)

        monkeypatch.setattr(khovanov, "gf2_rank", counting_rank)
        rng = random.Random(1313)
        for n in range(10):
            d = random_diagram(rng, n, "closed")
            calls.clear()
            homology(d)
            half = 0
            for markers in itertools.product((1, -1), repeat=n):
                half += 2 ** (oracle_circle_count(d, markers) - 1)
            assert sum(calls) == half, d.code()

    @pytest.mark.parametrize(
        "code, table",
        [
            ("", {(0, -1): 1, (0, 1): 1}),
            ("O1+ U1+", {(0, -1): 1, (0, 1): 1}),
            ("O1- U1-", {(0, -1): 1, (0, 1): 1}),
            (
                "O1+ U2+ O3+ U1+ O2+ U3+",
                {(0, 1): 1, (0, 3): 1, (2, 5): 1, (2, 7): 1, (3, 7): 1, (3, 9): 1},
            ),
            (
                "O1+ O2+ U1+ U2+",
                {(0, 1): 1, (0, 3): 1, (1, 2): 1, (1, 4): 1, (2, 4): 1, (2, 6): 1},
            ),
        ],
        ids=["no-chords", "unknot-kink", "unknot-negative-kink", "trefoil", "virtual-trefoil"],
    )
    def test_small_tables(self, code, table):
        d = parse_gauss_code(code, "closed")
        assert homology(d).as_dict() == table == oracle_homology(d)

    def test_mutant_on_the_unbuilt_half_trips_d_o_d(self, monkeypatch):
        # change only label masks whose circle 0 is labelled 1: no C_x
        # column reads them, and the commutation check still must
        def even_half_lost(sw, lam):
            return _switch_images(sw, lam) if lam & 1 else []

        monkeypatch.setattr(khovanov, "_switch_images", even_half_lost)
        with pytest.raises(AssertionError, match="d o d = 0 not implied.*commute"):
            homology(TREFOIL)

    def test_mutant_breaking_nu_only_trips_d_o_d(self, monkeypatch):
        # a split of a 1-labelled circle a > 0 keeps one of its two
        # images; the change does not read circle 0's label, so the map
        # still commutes with X, but not with nu
        def lossy(sw, lam):
            images = _switch_images(sw, lam)
            kind, a, _, _ = sw
            return images[1:] if kind == "split" and a and not (lam >> a) & 1 else images

        monkeypatch.setattr(khovanov, "_switch_images", lossy)
        with pytest.raises(AssertionError, match="d o d = 0 not implied.*commute"):
            homology(TREFOIL)

    def test_mutant_breaking_x_only_trips_d_o_d(self, monkeypatch):
        # swapping the labels of new circles 0 and 1 after a split keeps
        # the map commuting with nu, which treats all circles alike, but
        # not with X, which reads circle 0 alone
        def swapped(sw, lam):
            images = _switch_images(sw, lam)
            if sw[0] != "split":
                return images
            return [lam2 ^ 3 if lam2 & 3 in (1, 2) else lam2 for lam2 in images]

        monkeypatch.setattr(khovanov, "_switch_images", swapped)
        with pytest.raises(AssertionError, match="d o d = 0 not implied.*commute"):
            homology(TREFOIL)

    def test_nonzero_all_x_merge_image_trips_the_pad_check(self, monkeypatch):
        # homology reads a merge's all-x column at a padded offset 0, so
        # x*x must stay 0; a merge that keeps an x instead must be caught
        # by _x_columns on the map's first use, not land on the pad
        def x_kept(sw, lam):
            kind, a, b, c = sw
            if kind == "merge" and (lam >> a) & 1 and (lam >> b) & 1:
                rest = khovanov._drop_bit(khovanov._drop_bit(lam, b), a)
                return [khovanov._insert_bit(rest, c, 1)]
            return _switch_images(sw, lam)

        monkeypatch.setattr(khovanov, "_switch_images", x_kept)
        with pytest.raises(AssertionError, match=r"x\*x = 0 not kept: \('merge'"):
            homology(TREFOIL)

    def test_flipped_bit_in_a_skipped_row_trips_d_o_d(self, monkeypatch):
        # block (i + 1, j) skips the rows at the leading bits of block
        # (i, j)'s pivots; one bit flipped in such a row before block
        # (i, j) is eliminated must trip that block's check, since no
        # later elimination reads the row
        d = random_diagram(random.Random(1), 6, "closed")
        calls = []

        def recording(rows, next_rows, spanned, pivots):
            calls.append((rows, next_rows, set(spanned)))
            return gf2_rank(rows, next_rows, spanned, pivots)

        monkeypatch.setattr(khovanov, "gf2_rank", recording)
        table = homology(d)
        skipping = next(k for k, (_, _, spanned) in enumerate(calls) if spanned)
        rows, _, spanned = calls[skipping]
        checked = next(k for k, (_, next_rows, _) in enumerate(calls) if next_rows is rows)
        lead = min(spanned)
        assert checked < skipping and lead < len(rows)

        def flipping(rows, next_rows, spanned, pivots):
            if len(calls) == checked:
                next_rows[lead] ^= 1
            calls.append(None)
            return gf2_rank(rows, next_rows, spanned, pivots)

        calls.clear()
        monkeypatch.setattr(khovanov, "gf2_rank", flipping)
        with pytest.raises(AssertionError, match="d o d != 0"):
            homology(d)
        assert len(calls) == checked + 1
        monkeypatch.setattr(khovanov, "gf2_rank", gf2_rank)
        assert homology(d) == table

    def test_c_x_columns_changed_after_the_check_trip_d_o_d(self, monkeypatch):
        # the other half of the check: d o d = 0 on C_x, in the elimination
        x_columns = khovanov._x_columns

        def lossy(sw, size):
            # merges into circle 0 become zero maps on C_x only
            kind, _, _, c = sw
            cols = x_columns(sw, size)
            return [0] * len(cols) if kind == "merge" and c == 0 else cols

        monkeypatch.setattr(khovanov, "_x_columns", lossy)
        d = random_diagram(random.Random(1), 5, "closed")
        with pytest.raises(AssertionError, match="d o d != 0"):
            homology(d)


class TestColumnMemo:
    """The C_x columns of each switch map are computed once per process;
    the tables must not depend on what the memo holds."""

    def test_tables_do_not_depend_on_the_memo(self):
        rng = random.Random(1515)
        diagrams = [random_diagram(rng, n, "closed") for n in range(10)]
        diagrams += [random_braid_closure(rng, real) for real in (10, 11, 12)]
        others = [random_diagram(rng, 9, "closed") for _ in range(4)]
        want = [oracle_homology(d) for d in diagrams]
        for d, table in zip(diagrams, want):
            khovanov._x_columns.cache_clear()
            assert homology(d).as_dict() == table, ("cold", d.code())
        for d in others:
            homology(d)
        warm = khovanov._x_columns.cache_info().currsize
        for d, table in zip(diagrams, want):
            assert homology(d).as_dict() == table, ("warm", d.code())
        assert khovanov._x_columns.cache_info().hits and warm
        khovanov._x_columns.cache_clear()
        for d, table in zip(diagrams, want):
            assert homology(d).as_dict() == table, ("cleared", d.code())

    def test_memo_stays_within_its_bound(self):
        bound = khovanov._x_columns.cache_info().maxsize
        assert bound is not None
        # every consistent switch on up to 8 circles: circle 0 keeps arc 0,
        # so it is a merged or split circle exactly when the new circle 0 is
        keys = []
        for size in range(1, 9):
            for a, b in itertools.combinations(range(size), 2):
                keys += [(("merge", a, b, c), size) for c in range(size - 1) if (a == 0) == (c == 0)]
            for a in range(size):
                for b, c in itertools.combinations(range(size + 1), 2):
                    if (a == 0) == (b == 0):
                        keys.append((("split", a, b, c), size))
        assert len(keys) > bound
        khovanov._x_columns.cache_clear()
        for sw, size in keys:
            assert len(khovanov._x_columns(sw, size)) == 1 << (size - 1)
            assert khovanov._x_columns.cache_info().currsize <= bound
        assert khovanov._x_columns.cache_info().misses == len(keys)
        # columns evicted from a full memo are computed again, and equal
        table = homology(TREFOIL).as_dict()
        khovanov._x_columns.cache_clear()
        assert homology(TREFOIL).as_dict() == table


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

    def test_scan_matches_per_state_checks(self):
        rng = random.Random(5555)
        for n in range(10):
            for _ in range(4 if n < 8 else 2):
                d = random_diagram(rng, n, "closed")
                want = []
                for mask in range(1 << n):
                    markers = tuple(-1 if (mask >> k) & 1 else 1 for k in range(n))
                    if lemma5_check(d, markers):
                        want.append((markers, *lemma5_gradings(d, markers)))
                assert lemma5_scan(d) == want, d.code()

    def test_scan_cap(self):
        d = random_diagram(random.Random(1), 5, "closed")
        with pytest.raises(CapExceeded, match="^lemma5 scan capped at 4 chords, got 5$"):
            lemma5_scan(d, cap=4)
        assert lemma5_scan(d, cap=5) == lemma5_scan(d)

    def test_scan_traces_no_state(self, monkeypatch):
        traces = counting_traces(monkeypatch)
        d = random_diagram(random.Random(14), 8, "closed")
        lemma5_scan(d)
        assert traces == []

    def test_rank_consequence(self):
        # the certificate's real content: the all-1 state on a passing
        # state survives to homology
        rng = random.Random(66)
        confirmed = 0
        for _ in range(120):
            d = random_diagram(rng, rng.randint(0, 6), "closed")
            table = None
            sp = _space(d)
            for markers in itertools.product((1, -1), repeat=d.n):
                if not lemma5_check(d, markers):
                    continue
                # the all-1 state (label mask 0) is a cycle: every switch
                # of a positive marker maps it to nothing
                mask = sp.mask_of(markers)
                for k in range(d.n):
                    if not (mask >> k) & 1:
                        assert oracle_images(*oracle_switch(sp, mask, k), 0) == []
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
