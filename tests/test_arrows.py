import hashlib
import itertools
import json
import math
import random

import pytest

from vknots import arrows
from vknots.arrows import (
    ArrowError,
    ArrowPattern,
    ArrowPolynomial,
    V21_PATTERN,
    V22_PATTERN,
    embeddings,
    gpv_alt_sum,
    load_arrow_polynomial,
    pairing,
    subdiagram_expand,
    v21,
    v22,
    writhe_polynomial,
)
from vknots.braids import EXAMPLE_GENS, b_family, closure
from vknots.corpus import (
    figure_eight,
    left_trefoil,
    random_diagram,
    right_trefoil,
)
from vknots.diagram import DiagramError, GaussDiagram, concat_long, parse_gauss_code, reclose
from vknots.laurent import LaurentPoly

LT = right_trefoil("long")
TTHH = ArrowPattern("long", (("1", "t"), ("2", "t"), ("1", "h"), ("2", "h")))
# closed patterns that a rotation maps onto themselves with their labels
# permuted, free and with label 1 fixed positive
SYMMETRIC_CLOSED = [
    ArrowPattern("closed", tuple((e[0], e[1]) for e in spec.split()), signs)
    for spec in ("1t 1h 2t 2h", "1t 2h 2t 1h", "1t 2h 3t 1h 2t 3h")
    for signs in ({}, {"1": 1})
]


def pattern_of_subdiagram(d: GaussDiagram) -> ArrowPattern:
    """Forget signs: the order/role shape of a diagram as a free pattern."""
    eps = []
    for slot in range(d.slot_count):
        chord, role = d.at(slot)
        eps.append((str(chord.id), role))
    return ArrowPattern(d.kind, tuple(eps))


def oracle_count(pattern: ArrowPattern, diagram: GaussDiagram) -> int:
    """Count pattern occurrences via the explicit subdiagram expansion:
    a subdiagram matches when some rotation of its endpoint shape equals
    the pattern's shape (exact for long diagrams)."""

    def shapes(d):
        seq = []
        seen = {}
        for slot in range(d.slot_count):
            chord, role = d.at(slot)
            label = seen.setdefault(chord.id, len(seen))
            seq.append((label, role, chord.sign))
        if d.kind == "long" or not seq:
            return {tuple(seq)}
        out = set()
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            relabel = {}
            out.add(
                tuple(
                    (relabel.setdefault(lab, len(relabel)), role, s)
                    for lab, role, s in rot
                )
            )
        return out

    want_shapes = set()
    for signs in itertools.product((1, -1), repeat=pattern.order):
        labels = pattern.labels()
        assign = dict(zip(labels, signs))
        ok = all(
            pattern.signs[l] == "free" or pattern.signs[l] == assign[l]
            for l in labels
        )
        if not ok:
            continue
        seen = {}
        seq = tuple(
            (seen.setdefault(lab, len(seen)), role, assign[lab])
            for lab, role in pattern.endpoints
        )
        want_shapes.add(seq)

    count = 0
    for sub in subdiagram_expand(diagram):
        if sub.n != pattern.order:
            continue
        if shapes(sub) & want_shapes:
            count += 1
    return count


class TestEmbeddings:
    def test_single_free_chord(self):
        p = ArrowPattern("long", (("1", "t"), ("1", "h")))
        d = parse_gauss_code("O1- U1-", "long")
        assert len(embeddings(p, d)) == 1

    def test_pattern_larger_than_diagram(self):
        d = parse_gauss_code("O1+ U1+", "long")
        assert embeddings(TTHH, d) == []

    def test_tthh_in_long_trefoil(self):
        ms = embeddings(TTHH, LT)
        assert len(ms) == 1 and ms[0] == {"1": 1, "2": 3}

    def test_reads_no_slot(self, monkeypatch):
        # matching sorts the chosen chords' endpoints; it never scans slots
        calls = []
        original = GaussDiagram.at

        def counting_at(self, slot):
            calls.append(slot)
            return original(self, slot)

        monkeypatch.setattr(GaussDiagram, "at", counting_at)
        rng = random.Random(31)
        for _ in range(10):
            d = random_diagram(rng, rng.randint(2, 8), "long")
            embeddings(V21_PATTERN, d)
            embeddings(TTHH, d)
            embeddings(ArrowPattern("closed", TTHH.endpoints), reclose(d))
        assert calls == []

    def test_kind_mismatch(self):
        with pytest.raises(ArrowError, match="kind"):
            embeddings(TTHH, right_trefoil("closed"))

    def test_counts_match_subdiagram_oracle(self):
        rng = random.Random(314)
        patterns = [
            TTHH,
            V21_PATTERN,
            V22_PATTERN,
            ArrowPattern("long", (("1", "h"), ("1", "t"))),
            ArrowPattern(
                "long",
                (("1", "t"), ("2", "t"), ("2", "h"), ("1", "h")),
                {"1": 1},
            ),
        ]
        for _ in range(40):
            d = random_diagram(rng, rng.randint(0, 4), "long")
            for p in patterns:
                assert len(embeddings(p, d)) == oracle_count(p, d), (p, d.code())

    def test_counts_match_oracle_closed(self):
        rng = random.Random(217)
        patterns = [
            ArrowPattern("closed", (("1", "t"), ("2", "t"), ("1", "h"), ("2", "h"))),
            ArrowPattern("closed", (("1", "t"), ("2", "h"), ("1", "h"), ("2", "t"))),
            ArrowPattern("closed", (("1", "t"), ("1", "h"))),
            *SYMMETRIC_CLOSED,
        ]
        for _ in range(40):
            d = random_diagram(rng, rng.randint(0, 4), "closed")
            for p in patterns:
                assert len(embeddings(p, d)) == oracle_count(p, d), (p, d.code())


class TestPairing:
    def test_sign_weight(self):
        p = ArrowPattern("long", (("1", "t"), ("1", "h")))
        d = parse_gauss_code("O1- U1-", "long")
        assert pairing(p, d) == -1

    def test_empty_pattern_counts_empty_subdiagram(self):
        empty = ArrowPattern("long", ())
        assert pairing(empty, parse_gauss_code("O1+ U2+ U1+ O2+", "long")) == 1

    def test_v21_pattern_on_trefoil(self):
        assert pairing(V21_PATTERN, LT) == 1

    def test_zero_polynomial(self):
        assert pairing(ArrowPolynomial(()), LT) == 0

    def test_weight_is_free_sign_product(self):
        d = parse_gauss_code("O1- O2+ U2+ U1-", "long")  # nested, signs -,+
        p = ArrowPattern(
            "long", (("1", "t"), ("2", "t"), ("2", "h"), ("1", "h")), {"2": 1}
        )
        assert pairing(p, d) == -1  # only chord 1 is free


    def test_a_pattern_larger_than_the_diagram_is_not_keyed(self, monkeypatch):
        # 40 free labels have 2**40 sign assignments, and a 1-chord diagram
        # has no 40-chord subset to match them
        d = parse_gauss_code("O1+ U1+")
        keyed = []
        original = arrows._pattern_keys

        def counting_keys(pattern):
            keyed.append(pattern.order)
            return original(pattern) if pattern.order <= d.n else {}

        monkeypatch.setattr(arrows, "_pattern_keys", counting_keys)
        big = ArrowPattern("closed", tuple((str(i), role) for i in range(40) for role in "th"))
        one = ArrowPattern("closed", (("1", "t"), ("1", "h")))
        assert embeddings(big, d) == [] and pairing(big, d) == 0
        assert pairing(ArrowPolynomial(((1, big), (2, one))), d) == 2
        assert keyed == [1]


class TestArrowRefusals:
    """Each refusal of a malformed pattern, polynomial or pairing is an
    ArrowError that says what is wrong."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ArrowPattern("long", (("1", "x"), ("1", "h"))),
             "label 1: role must be 't' or 'h'"),
            (lambda: ArrowPattern("long", (("1", "t"),)), "label 1 is missing a 'h' endpoint"),
            (lambda: ArrowPattern("long", (("1", "t"), ("1", "h")), {"2": 1}),
             "sign constraint for unknown label 2"),
            (lambda: ArrowPolynomial(((1, TTHH), (1, ArrowPattern("closed", TTHH.endpoints)))),
             "all terms of an arrow polynomial must share a kind"),
            (lambda: pairing(ArrowPolynomial(((1, TTHH),)), right_trefoil("closed")),
             "polynomial kind 'long' != diagram kind 'closed'"),
            (lambda: load_arrow_polynomial(
                '{"kind": "long", "terms": [{"coeff": 1, "endpoints": {}}]}'),
             "term 0: endpoints must be a list and signs an object"),
            (lambda: load_arrow_polynomial(
                '{"kind": "long", "terms": [{"coeff": 1, "endpoints": [], "signs": [1]}]}'),
             "term 0: endpoints must be a list and signs an object"),
            (lambda: load_arrow_polynomial(
                '{"kind": "long", "terms": [{"coeff": 1, "endpoints": [["1"]]}]}'),
             "term 0: endpoint ['1'] must be [label, role]"),
            (lambda: load_arrow_polynomial(
                '{"kind": "long", "terms": [{"coeff": 1, "endpoints": [[1, "t"]]}]}'),
             "term 0: endpoint [1, 't'] must be [label, role]"),
        ],
        ids=["role", "missing-end", "unknown-sign", "mixed-kinds", "pairing-kind",
             "endpoints-object", "signs-list", "short-endpoint", "int-label"],
    )
    def test_refusal(self, build, message):
        with pytest.raises(ArrowError) as info:
            build()
        assert str(info.value) == message


class TestSubdiagramExpand:
    def test_single_chord(self):
        d = parse_gauss_code("O1+ U1+", "long")
        subs = subdiagram_expand(d)
        assert len(subs) == 2 and {s.n for s in subs} == {0, 1}

    def test_three_chords_gives_eight(self):
        assert len(subdiagram_expand(LT)) == 8

    def test_cap(self):
        rng = random.Random(1)
        with pytest.raises(Exception, match="cap"):
            subdiagram_expand(random_diagram(rng, 5, "long"), cap=4)


class TestV2Invariants:
    def test_paper_values(self):
        assert v21(parse_gauss_code("", "long")) == 0
        assert v21(LT) == 1

    def test_v22_calibration_values(self):
        assert v22(LT) == 1

    def test_classical_corpus_equality(self):
        # [DERIVED] frozen from the independent subdiagram-expansion oracle:
        # both trefoils give 1 (mirror-invariant) and the figure eight -1,
        # the second Conway coefficients.
        for d, expected in (
            (right_trefoil("long"), 1),
            (left_trefoil("long"), 1),
            (figure_eight("long"), -1),
        ):
            assert v21(d) == v22(d) == expected

    def test_connected_sum_additivity(self):
        both = concat_long(LT, LT)
        assert v21(both) == 2 and v22(both) == 2

    def test_rejects_closed(self):
        # before any chord id is read
        for fn, name in ((v21, "v21"), (v22, "v22")):
            for containing in ((), (1,), (9,)):
                with pytest.raises(DiagramError, match=f"^{name} is defined for long diagrams$"):
                    fn(right_trefoil("closed"), containing)

    def test_r_move_invariance_sampled(self):
        from vknots.moves import apply_move, enumerate_moves

        rng = random.Random(55)
        checked = 0
        while checked < 200:
            d = random_diagram(rng, rng.randint(0, 6), "long")
            events = enumerate_moves(
                d, ["R1_del", "R2_del", "R3", "R1_add", "R2_add"]
            )
            if not events:
                continue
            e = rng.choice(events)
            d2 = apply_move(d, e)
            assert (v21(d), v22(d)) == (v21(d2), v22(d2)), (d.code(), e)
            checked += 1

    def test_v21_v22_differ_on_some_virtual_knot(self):
        rng = random.Random(123)
        assert any(
            v21(d) != v22(d)
            for d in (random_diagram(rng, rng.randint(2, 5), "long") for _ in range(200))
        )


V2 = [(v21, V21_PATTERN), (v22, V22_PATTERN)]


class TestDirectCount:
    """v21 and v22 count chord pairs themselves.  Their oracles share no
    inequality with the count: the matchings of the pattern, which compare
    endpoint sequences, and the deletion definition :func:`gpv_alt_sum`."""

    @pytest.mark.parametrize("fn, pattern", V2)
    def test_equals_the_pairing_of_its_pattern(self, fn, pattern):
        # the signed count of the pattern's matches whose chords contain S
        rng = random.Random(2502)
        checked = 0
        for n in list(range(13)) + [20, 30, 40, 50, 60]:
            for _ in range(5):
                d = random_diagram(rng, n, "long")
                ids = d.chord_ids()
                # both labels are free: a match weighs its two chord signs
                matches = [
                    (set(m.values()), math.prod(d.chord(cid).sign for cid in m.values()))
                    for m in embeddings(pattern, d)
                ]
                if n <= 6:
                    chosen = [s for r in range(4) for s in itertools.combinations(ids, r)]
                else:
                    chosen = [tuple(rng.sample(ids, r)) for r in range(4) for _ in range(3)]
                for s in chosen:
                    want = sum(w for chords, w in matches if set(s) <= chords)
                    assert fn(d, s) == want, (d.code(), s)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("fn, pattern", V2)
    def test_repeated_ids_count_once(self, fn, pattern):
        # held to the deletion definition, on the pairing of the pattern
        d = random_diagram(random.Random(2503), 8, "long")
        paired = lambda e: pairing(pattern, e)
        for cid in d.chord_ids():
            assert fn(d, (cid, cid)) == fn(d, (cid,)) == gpv_alt_sum(paired, d, (cid, cid))
        assert fn(d, (1, 2, 1)) == fn(d, (1, 2)) == gpv_alt_sum(paired, d, (1, 2, 1))

    @pytest.mark.parametrize("fn, pattern", V2)
    @pytest.mark.parametrize("containing", [(9,), (1, 9), (12, 9), (1, 2, 3, 9)])
    def test_unknown_ids_refused_as_the_pairing_does(self, fn, pattern, containing):
        # as the alternating sum of the pairing over deletions refuses them
        d = random_diagram(random.Random(2504), 5, "long")
        with pytest.raises(DiagramError) as direct:
            fn(d, containing)
        with pytest.raises(DiagramError) as oracle:
            gpv_alt_sum(lambda e: pairing(pattern, e), d, containing)
        assert str(direct.value) == str(oracle.value) == "unknown chord id 9"

    @pytest.mark.parametrize("reader", ["v21", "v22", "gpv_alt_sum"])
    @pytest.mark.parametrize(
        "ids, message",
        [([True], "chord id must be an int, not bool"),
         ([1.0], "chord id must be an int, not float"),
         ([1, True], "chord id must be an int, not bool"),
         ([[1]], "chord id must be an int, not list"),
         ([2, "x"], "chord id must be an int, not str"),
         ([9, True], "chord id must be an int, not bool"),
         ([9], "unknown chord id 9"),
         ([1, 9], "unknown chord id 9")],
        ids=["true", "float", "int-and-true", "list", "int-and-str", "unknown-and-true",
             "unknown", "int-and-unknown"],
    )
    def test_ids_refused_before_any_term(self, reader, ids, message):
        # True and 1.0 equal chord id 1, and a list or a str does not sort
        # with an int; each is refused before an unknown id is, and both
        # before the alternating sum calls its invariant
        d = random_diagram(random.Random(2504), 5, "long")
        calls = []

        def counted(e):
            calls.append(e)
            return v21(e)

        read = {"v21": v21, "v22": v22, "gpv_alt_sum": lambda e, s: gpv_alt_sum(counted, e, s)}
        with pytest.raises(DiagramError, match=f"^{message}$"):
            read[reader](d, ids)
        assert calls == []

    def test_reads_no_matching(self, monkeypatch):
        # neither the matchings nor the key of any chord subset
        import vknots.arrows as arrows

        def no_matching(*args, **kwargs):
            raise AssertionError("the pairing was called")

        monkeypatch.setattr(arrows, "embeddings", no_matching)
        monkeypatch.setattr(arrows, "_key", no_matching)
        assert (v21(LT), v22(LT), v21(LT, (1,)), v22(LT, (1, 2))) == (1, 1, 1, 0)


class TestGpvAltSum:
    def test_triple_sums_vanish_on_trefoil(self):
        assert gpv_alt_sum(v21, LT, (1, 2, 3)) == 0
        assert gpv_alt_sum(v22, LT, (1, 2, 3)) == 0

    def test_some_double_sum_is_nonzero(self):
        # v21 has order exactly 2: on the long trefoil the pair {1, 2}
        # witnesses it (value frozen from the expansion oracle).
        assert gpv_alt_sum(v21, LT, (1, 2)) == 1

    def test_constant_invariant_telescopes(self, rng):
        d = random_diagram(rng, 4, "long")
        assert gpv_alt_sum(lambda _: 7, d, (2,)) == 0

    def test_unknown_chord(self):
        with pytest.raises(Exception, match="unknown chord"):
            gpv_alt_sum(v21, LT, (9,))

    def test_triple_sums_vanish_randomized(self):
        rng = random.Random(808)
        for _ in range(60):
            d = random_diagram(rng, rng.randint(3, 6), "long")
            ids = list(d.chord_ids())
            rng.shuffle(ids)
            assert gpv_alt_sum(v21, d, ids[:3]) == 0
            assert gpv_alt_sum(v22, d, ids[:3]) == 0

    def test_equals_the_matches_containing_the_chosen_chords(self):
        # For a pairing <A, .>, the sum over V of S of (-1)**|V| <A, D - V>
        # is the weighted count of the matches of A whose chords contain S.
        rng = random.Random(8080)
        cases = 0
        for _ in range(120):
            d = random_diagram(rng, rng.randint(0, 9), "long")
            ids = list(d.chord_ids())
            for pattern, fn in ((V21_PATTERN, v21), (V22_PATTERN, v22)):
                # both labels are free: a match weighs its two chord signs
                matches = [
                    (set(m.values()), math.prod(d.chord(cid).sign for cid in m.values()))
                    for m in embeddings(pattern, d)
                ]
                for _ in range(4):
                    chosen = set(rng.sample(ids, rng.randint(0, min(4, len(ids)))))
                    want = sum(w for chords, w in matches if chosen <= chords)
                    assert gpv_alt_sum(fn, d, chosen) == want, (d, chosen)
                    cases += 1
        assert cases == 960

    def test_user_polynomial_degree_bound(self):
        # a degree-2 pattern is killed by any 3 deletions
        poly = ArrowPolynomial(((3, TTHH), (-2, V21_PATTERN)))
        rng = random.Random(9)
        fn = lambda d: pairing(poly, d)
        for _ in range(30):
            d = random_diagram(rng, rng.randint(3, 6), "long")
            ids = list(d.chord_ids())
            rng.shuffle(ids)
            assert gpv_alt_sum(fn, d, ids[:3]) == 0


def index_loop(d: GaussDiagram) -> LaurentPoly:
    """Oracle for the writhe polynomial, in O(n**2) steps: each chord's
    index summed endpoint by endpoint, going forward (cyclically) from its
    tail to its head."""
    terms = []
    for c in d.chords:
        index, slot = 0, (c.tail + 1) % d.slot_count
        while slot != c.head:
            chord, role = d.at(slot)
            index += chord.sign if role == "h" else -chord.sign
            slot = (slot + 1) % d.slot_count
        terms += [(index, c.sign), (0, -c.sign)]
    return LaurentPoly(terms)


class TestWrithePolynomial:
    def test_equals_the_index_loop(self):
        rng = random.Random(4301)
        for n in range(13):
            for kind in ("closed", "long"):
                for _ in range(20):
                    d = random_diagram(rng, n, kind)
                    assert writhe_polynomial(d) == index_loop(d), d.code()
        for k in range(1, 7):
            d = closure(b_family(k, EXAMPLE_GENS))
            assert writhe_polynomial(d) == index_loop(d), k

    def test_long_diagrams_read_as_their_closure(self):
        rng = random.Random(4302)
        for n in range(13):
            d = random_diagram(rng, n, "long")
            assert writhe_polynomial(d) == writhe_polynomial(reclose(d)), d.code()

    def test_known_values(self):
        # J_1 = J_-1 = 1 on the virtual trefoil; 0 on the unknot and on
        # classical knots
        vt = parse_gauss_code("O1+ O2+ U1+ U2+")
        assert writhe_polynomial(vt) == LaurentPoly({-1: 1, 0: -2, 1: 1})
        for d in (parse_gauss_code(""), LT, figure_eight("long"), left_trefoil()):
            assert not writhe_polynomial(d), d.code()


class TestArrowPolynomialJson:
    GOOD = {
        "kind": "long",
        "terms": [
            {
                "coeff": 1,
                "endpoints": [["1", "t"], ["2", "h"], ["1", "h"], ["2", "t"]],
                "signs": {"1": "free", "2": "free"},
            }
        ],
    }

    def test_good_load_matches_v21(self):
        poly = load_arrow_polynomial(json.dumps(self.GOOD))
        assert len(poly.terms) == 1
        assert pairing(poly, LT) == v21(LT)

    def test_fixed_sign_tokens(self):
        obj = dict(self.GOOD)
        obj["terms"] = [dict(self.GOOD["terms"][0], signs={"1": "+", "2": "-"})]
        poly = load_arrow_polynomial(json.dumps(obj))
        assert poly.terms[0][1].signs == {"1": 1, "2": -1}

    def test_duplicate_role_rejected(self):
        obj = {
            "kind": "long",
            "terms": [
                {"coeff": 1, "endpoints": [["1", "h"], ["2", "t"], ["1", "h"], ["2", "h"]]}
            ],
        }
        with pytest.raises(ArrowError, match="twice"):
            load_arrow_polynomial(json.dumps(obj))

    def test_empty_terms_is_zero(self):
        poly = load_arrow_polynomial('{"kind": "long", "terms": []}')
        assert pairing(poly, LT) == 0

    def test_bad_json(self):
        with pytest.raises(ArrowError, match="not valid JSON"):
            load_arrow_polynomial("{")

    def test_missing_fields(self):
        with pytest.raises(ArrowError, match="'kind' and 'terms'"):
            load_arrow_polynomial("{}")


def expansion_pairing(pattern: ArrowPattern, diagram: GaussDiagram) -> int:
    """Pairing via the full subdiagram expansion: each subdiagram of the
    pattern's order contributes its free-sign weight when some rotation
    matches the pattern exactly.  Independent of the matcher in arrows.py."""

    def match_weight(sub: GaussDiagram) -> int | None:
        seq = [sub.at(slot) for slot in range(sub.slot_count)]
        rotations = range(1) if sub.kind == "long" else range(max(len(seq), 1))
        for r in rotations:
            rot = seq[r:] + seq[:r]
            assign: dict[str, int] = {}
            back: dict[int, str] = {}
            ok = True
            for (label, role), (chord, drole) in zip(pattern.endpoints, rot):
                if role != drole:
                    ok = False
                    break
                if assign.setdefault(label, chord.id) != chord.id:
                    ok = False
                    break
                if back.setdefault(chord.id, label) != label:
                    ok = False
                    break
            if not ok:
                continue
            weight = 1
            good = True
            for label, cid in assign.items():
                want = pattern.signs[label]
                sign = sub.chord(cid).sign
                if want == "free":
                    weight *= sign
                elif want != sign:
                    good = False
                    break
            if good:
                return weight
        return None

    total = 0
    for sub in subdiagram_expand(diagram):
        if sub.n != pattern.order:
            continue
        w = match_weight(sub)
        if w is not None:
            total += w
    return total


class TestPairingOracleEquivalence:
    def test_pairing_equals_expansion_route(self):
        rng = random.Random(606)
        long_pats = [V21_PATTERN, V22_PATTERN, TTHH]
        closed_pats = [
            ArrowPattern("closed", (("1", "t"), ("2", "t"), ("1", "h"), ("2", "h"))),
            ArrowPattern("closed", (("1", "t"), ("2", "h"), ("1", "h"), ("2", "t")), {"1": 1}),
            *SYMMETRIC_CLOSED,
        ]
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 4), "long")
            for p in long_pats:
                assert pairing(p, d) == expansion_pairing(p, d), (p, d.code())
            c = random_diagram(rng, rng.randint(0, 4), "closed")
            for p in closed_pats:
                assert pairing(p, c) == expansion_pairing(p, c), (p, c.code())


def _term(coeff, endpoints, signs=None):
    term = {"coeff": coeff, "endpoints": [[label, role] for label, role in endpoints.split()]}
    if signs is not None:
        term["signs"] = signs
    return term


class TestPairingGolden:
    """One sha256 over ``eval --arrow-poly`` stdout on seeded diagrams of
    0-10 chords, derived while the pairing still matched each chord subset
    positionwise against each pattern, so that a change to how subsets are
    read shows any change in the values it prints."""

    POLYNOMIALS = [
        {"kind": "long", "terms": [_term(5, ""), _term(-2, "1t 1h"), _term(3, "1h 1t", {"1": "+"})]},
        {"kind": "long", "terms": [
            _term(1, "1t 2h 1h 2t"), _term(-1, "1t 2h 1h 2t"), _term(2, "1h 2t 1t 2h"),
            _term(-3, "1t 2t 1h 2h", {"2": "-"})]},
        {"kind": "long", "terms": [_term(1, "1t 2t 1h 3t 2h 3h", {"1": "+"})]},
        {"kind": "long", "terms": [
            _term(2, "1t 2h 3t 1h 3h 2t"), _term(-1, "1h 2t 3t 2h 1t 3h", {"2": "-", "3": "+"}),
            _term(4, "1t 2t 3h 3t 2h 1h"), _term(-7, "1t 2h 1h 2t"), _term(1, "")]},
        {"kind": "closed", "terms": [_term(1, "1t 2h 1h 2t"), _term(1, "1t 1h 2t 2h")]},
        {"kind": "closed", "terms": [
            _term(3, "1t 1h 2t 2h", {"1": "+"}), _term(-2, "1t 2h 2t 1h", {"1": "+"}),
            _term(1, "1t 2h 3t 1h 2t 3h"), _term(5, "1t 2h 3t 1h 2t 3h", {"1": "+"})]},
        {"kind": "closed", "terms": [
            _term(1, ""), _term(-1, "1t 1h"), _term(2, "1t 2t 1h 2h", {"2": "-"}),
            _term(-2, "1t 2t 1h 2h", {"2": "-"}), _term(1, "1t 2t 3t 1h 2h 3h", {"3": "-"})]},
    ]

    def test_eval_arrow_poly(self, capsys, tmp_path):
        from vknots.cli import main

        rng = random.Random(3501)
        codes = {
            kind: "".join(
                f"{kind}: {random_diagram(rng, n, kind).code()}\n"
                for n in range(11) for _ in range(2)
            )
            for kind in ("long", "closed")
        }
        h = hashlib.sha256()
        values = set()
        for i, poly in enumerate(self.POLYNOMIALS):
            (tmp_path / "d.txt").write_text(codes[poly["kind"]])
            (tmp_path / f"p{i}.json").write_text(json.dumps(poly))
            argv = ["eval", "--input", str(tmp_path / "d.txt"), "--arrow-poly", str(tmp_path / f"p{i}.json")]
            assert main(argv) == 0
            out = capsys.readouterr().out
            values |= {row["arrow_pairing"] for row in json.loads(out)["diagrams"]}
            h.update(out.encode())
        # the polynomials take many values, of both signs
        assert len(values) > 20 and min(values) < 0 < max(values)
        assert h.hexdigest() == (
            "7ebd734df9a8bdcfb31d6f7a29cb781aca82acff11fb099ac7997512e52a3988")
