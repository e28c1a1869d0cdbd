import hashlib
import json
import random

import pytest

from vknots import forbidden, khovanov, moves
from vknots.arrows import gpv_alt_sum, v21, v22, writhe_polynomial
from vknots.corpus import gpv2_trivial, random_diagram, right_trefoil, virtual_trefoil
from vknots.diagram import (
    Chord,
    GaussDiagram,
    pair_starts,
    parse_gauss_code,
    reclose,
    rotation_key,
)
from vknots.forbidden import (
    FamilyError,
    TriangleSite,
    certify_trivial,
    check_n_trivial,
    disjoint_sites,
    f_alt_sum,
    find_triangles,
    lemma3_residual,
    load_families,
    site_at,
    trivialize_forbidden,
)
from vknots.khovanov import jones_hat
from vknots.moves import (
    MoveError,
    MoveEvent,
    SearchStats,
    apply_move,
    apply_trace,
    enumerate_moves,
    simplify,
)

VT = virtual_trefoil()
LT = right_trefoil("long")
EMPTY = parse_gauss_code("")
EMPTY_LONG = parse_gauss_code("", "long")


def battery_on_input(d, cap):
    """Oracle for certify_trivial's witness: the first battery row that
    tells ``d`` from the unknot, read on ``d`` itself with no search, or
    None.  Rows: v21, then v22 on a long diagram; then, when ``d`` has at
    most ``cap`` chords, jones_hat and the Khovanov table of its closure;
    then, at any chord count, the writhe polynomial; each against its
    value on the empty diagram."""
    if d.kind == "long":
        for name, fn in (("v21", v21), ("v22", v22)):
            value, unknot = fn(d), fn(EMPTY_LONG)
            if value != unknot:
                return name, str(value), str(unknot)
    if d.n <= cap:
        closed = reclose(d) if d.kind == "long" else d
        jones, unknot = jones_hat(closed), jones_hat(EMPTY)
        if jones != unknot:
            return "jones_hat", jones.to_str("q"), unknot.to_str("q")
        table = khovanov.homology(closed, cap).as_dict()
        unknot = khovanov.homology(EMPTY).as_dict()
        if table != unknot:
            return "khovanov", str(table), str(unknot)
    w, unknot = writhe_polynomial(d), writhe_polynomial(EMPTY)
    if w != unknot:
        return "writhe", w.to_str("t"), unknot.to_str("t")
    return None


def insert_r2_pair(rng, d):
    m = d.slot_count
    before = set(d.chord_ids())
    d2 = apply_move(
        d,
        MoveEvent(
            "R2_add",
            (rng.randint(0, m), rng.randint(0, m), rng.choice((True, False)),
             rng.choice((1, -1)), "t"),
        ),
    )
    return d2, sorted(set(d2.chord_ids()) - before)


def tail_site(d, pair):
    ta, tb = d.chord(pair[0]).tail, d.chord(pair[1]).tail
    if abs(ta - tb) != 1:
        return None
    return site_at(d, min(ta, tb), "Fo")


def similar_instance(rng, n_families, base_max=3):
    """Random diagram with n inserted R2 pairs whose single forbidden-move
    sites form families; every subfamily toggle keeps the pairs removable,
    so all toggles present the same knot."""
    while True:
        d = random_diagram(rng, rng.randint(0, base_max), "long")
        pairs = []
        for _ in range(n_families):
            d, new = insert_r2_pair(rng, d)
            pairs.append(new)
        sites = [tail_site(d, p) for p in pairs]
        if all(s is not None for s in sites):
            return d, pairs, [(s,) for s in sites]


class TestTriangles:
    def test_virtual_trefoil_sites(self):
        sites = find_triangles(VT)
        assert [(s.slot, s.kind) for s in sites] == [(0, "Fo"), (2, "Fu")]

    def test_empty(self):
        assert find_triangles(parse_gauss_code("")) == []

    def test_classical_trefoil_has_none(self):
        assert find_triangles(right_trefoil("closed")) == []
        assert find_triangles(LT) == []

    def test_find_triangles_is_the_f_enumeration(self):
        rng = random.Random(7070)
        for _ in range(600):
            d = random_diagram(rng, rng.randint(0, 8), rng.choice(("closed", "long")))
            # adjacent same-role endpoints of distinct chords, read slot by slot
            expected = []
            for k in pair_starts(d.kind, d.slot_count):
                (c1, r1), (c2, r2) = d.at(k), d.at(k + 1)
                if c1.id != c2.id and r1 == r2:
                    expected.append((k, "Fo" if r1 == "t" else "Fu"))
            events = enumerate_moves(d, ("Fo", "Fu"))
            sites = find_triangles(d)
            assert [(e.data[0], e.kind) for e in events] == expected
            assert [(s.slot, s.kind) for s in sites] == expected

    def test_site_at_reads_no_slot_modulo_2n(self):
        rng = random.Random(7071)
        for _ in range(200):
            d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
            listed = {(s.slot, s.kind): s for s in find_triangles(d)}
            m = d.slot_count
            for slot in (-m - 1, -1, *range(m), m, m + 1, 1000):
                for kind in ("Fo", "Fu"):
                    if (slot, kind) in listed:
                        assert site_at(d, slot, kind) == listed[slot, kind]
                    else:
                        with pytest.raises(FamilyError, match="not a F"):
                            site_at(d, slot, kind)

    @pytest.mark.parametrize("kind", ["R3", "fo", None])
    def test_site_at_refuses_a_kind_other_than_fo_and_fu(self, kind):
        d = parse_gauss_code("U3+ O1+ O2- U1+ U2- O3+")
        with pytest.raises(FamilyError, match=f"^triangle kind must be 'Fo' or 'Fu', not {kind!r}$"):
            site_at(d, 1, kind)

    @pytest.mark.parametrize("slot", [1.0, True])
    def test_site_at_refuses_a_slot_that_is_not_an_int(self, slot):
        # slot 1 starts an Fo pair, and 1.0 and True equal 1
        d = parse_gauss_code("U3+ O1+ O2- U1+ U2- O3+")
        assert site_at(d, 1, "Fo").slot == 1
        with pytest.raises(FamilyError, match="must be an int"):
            site_at(d, slot, "Fo")

    @pytest.mark.parametrize("d", [parse_gauss_code(""), LT, VT])
    def test_zero_disjoint_sites_is_the_empty_list(self, d):
        # every diagram has zero disjoint sites; None means fewer than asked
        assert disjoint_sites(d, 0) == []

    def test_negative_site_count_refused(self):
        with pytest.raises(FamilyError, match="site count must be >= 0, got -1"):
            disjoint_sites(VT, -1)


class TestApplyForbidden:
    def test_involution(self, rng):
        for _ in range(40):
            d = random_diagram(rng, rng.randint(2, 6), rng.choice(("closed", "long")))
            for s in find_triangles(d):
                d1 = apply_move(d, s._event())
                d2 = apply_move(d1, site_at(d1, s.slot, s.kind)._event())
                assert d2 == d

    def test_virtual_trefoil_swap(self):
        s = find_triangles(VT)[0]
        assert apply_move(VT, s._event()) == parse_gauss_code("O2+ O1+ U1+ U2+")

    def test_chord_count_preserved(self, rng):
        for _ in range(20):
            d = random_diagram(rng, rng.randint(2, 5), "closed")
            for s in find_triangles(d):
                assert apply_move(d, s._event()).n == d.n

    def test_stale_site_rejected(self):
        with pytest.raises(MoveError, match="not a Fo site"):
            apply_move(LT, TriangleSite(0, "Fo")._event())


class TestFAltSum:
    def test_single_site_is_difference(self, rng):
        count = 0
        while count < 20:
            d = random_diagram(rng, rng.randint(2, 5), "long")
            sites = find_triangles(d)
            if not sites:
                continue
            s = sites[0]
            assert f_alt_sum(v21, d, [s]) == v21(d) - v21(apply_move(d, s._event()))
            count += 1

    def test_two_disjoint_triangles_kill_v21(self):
        rng = random.Random(4040)
        checked = 0
        while checked < 100:
            d = random_diagram(rng, rng.randint(3, 7), "long")
            sites = disjoint_sites(d, 2)
            if sites is None:
                continue
            assert f_alt_sum(v21, d, sites) == 0
            assert f_alt_sum(v22, d, sites) == 0
            checked += 1

    def test_single_triangle_difference_sometimes_nonzero(self):
        rng = random.Random(4041)
        hits = 0
        for _ in range(200):
            d = random_diagram(rng, rng.randint(2, 6), "long")
            sites = find_triangles(d)
            if sites and f_alt_sum(v21, d, [sites[0]]) != 0:
                hits += 1
        assert hits > 0

    def test_jones_sees_single_forbidden_moves(self):
        sites = find_triangles(VT)
        assert f_alt_sum(lambda d: 0 if jones_hat(d) == jones_hat(VT) else 1, VT, [sites[0]]) != 0

    def test_overlapping_sites_rejected(self):
        d = parse_gauss_code("O1+ O2+ O3+ U1+ U2+ U3+", "long")
        s01 = site_at(d, 0, "Fo")
        s12 = site_at(d, 1, "Fo")
        with pytest.raises(FamilyError, match="disjoint"):
            f_alt_sum(v21, d, [s01, s12])


def code_hash(d):
    """An integer that tells diagrams apart, so that every term of an
    alternating sum shows."""
    return int(hashlib.sha256(d.code().encode()).hexdigest()[:12], 16)


def bitmask_f_sum(invariant, d, sites):
    """Sum over bitmasks of (-1)**popcount times the invariant of ``d``
    with the masked sites toggled one at a time by apply_move."""
    total = 0
    for mask in range(1 << len(sites)):
        toggled = d
        for i, site in enumerate(sites):
            if mask >> i & 1:
                toggled = apply_move(toggled, site._event())
        total += (-1) ** bin(mask).count("1") * invariant(toggled)
    return total


class TestFSideByBitmask:
    """f_alt_sum against a loop that shares no code with its subset
    primitive."""

    def test_two_and_three_disjoint_sites(self):
        rng = random.Random(7072)
        checked = dict.fromkeys((2, 3), 0)
        while min(checked.values()) < 25:
            d = random_diagram(rng, rng.randint(4, 9), rng.choice(("closed", "long")))
            count = rng.choice((2, 3))
            sites = disjoint_sites(d, count)
            if sites is None:
                continue
            rng.shuffle(sites)
            invariants = [code_hash] + ([v21, v22] if d.kind == "long" else [])
            for inv in invariants:
                expected = bitmask_f_sum(inv, d, sites)
                assert f_alt_sum(inv, d, sites) == expected
            checked[count] += 1


class TestExpansions:
    """A semi-virtual mark expands to (real - virtual): gpv_alt_sum
    evaluates the expansion of the marked chords."""

    def test_semivirtual_single(self):
        assert gpv_alt_sum(v21, LT, [2]) == v21(LT) - v21(LT.delete_chords([2]))

    def test_semivirtual_empty_marks(self):
        assert gpv_alt_sum(v21, LT, []) == v21(LT)


class TestLemma3:
    def test_gpv_n3_residual_zero_and_corollary(self):
        rng = random.Random(3030)
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 3), "long")
            fams = []
            for _ in range(3):
                d, new = insert_r2_pair(rng, d)
                fams.append(new)
            for fn in (v21, v22):
                assert lemma3_residual(fn, d, fams) == 0
            # "in particular": order 2 < n = 3 forces equal values
            full = d.delete_chords([c for f in fams for c in f])
            assert v21(d) == v21(full) and v22(d) == v22(full)

    def test_gpv_n1_telescoping(self, rng):
        for _ in range(20):
            d = random_diagram(rng, rng.randint(1, 5), "long")
            cid = rng.choice(d.chord_ids())
            assert lemma3_residual(v21, d, [(cid,)]) == 0

    def test_gpv_n2_nontrivial_terms(self):
        rng = random.Random(3131)
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 3), "long")
            fams = []
            for _ in range(2):
                d, new = insert_r2_pair(rng, d)
                fams.append(new)
            assert lemma3_residual(v21, d, fams) == 0

    def test_f_mode_residual_zero(self):
        rng = random.Random(3232)
        for _ in range(25):
            d, pairs, fams = similar_instance(rng, 2)
            assert lemma3_residual(v21, d, fams) == 0
            assert lemma3_residual(v22, d, fams) == 0

    def test_kmatrix_instance(self):
        k = gpv2_trivial()
        assert lemma3_residual(v21, k, [(1, 2), (3, 4)]) == 0

    def test_non_disjoint_families_rejected(self):
        with pytest.raises(FamilyError, match="two families"):
            lemma3_residual(v21, LT, [(1,), (1, 2)])

    @pytest.mark.parametrize("mode", ["GPV", "F"])
    def test_empty_family_list_rejected(self, mode):
        # an empty families file of either mode; with no families the
        # residual would read -v(K), not 0
        _, families = load_families(json.dumps({"mode": mode, "families": []}))
        with pytest.raises(FamilyError, match="family list is empty"):
            lemma3_residual(v21, LT, families)


class TestCertify:
    def test_empty_certified(self):
        v = certify_trivial(parse_gauss_code(""))
        assert v.certified and v.trace == ()

    def test_virtual_trefoil_refuted_by_jones(self):
        v = certify_trivial(VT)
        assert v.status == "refuted" and v.witness[0] == "jones_hat"

    @pytest.mark.parametrize(
        "d",
        [LT, VT, parse_gauss_code("O1+ O2- U1+ U2- O3+ U3+", "long")],
        ids=["v21-refuted", "closed", "reducible"],
    )
    def test_negative_budget_refused_before_any_row(self, d, monkeypatch):
        # refused whether v21 would refute the input or the search would run
        def no_row(*args):
            raise AssertionError("a battery row was read")

        for name in ("v21", "v22", "jones_hat", "homology", "apply_trace"):
            monkeypatch.setattr(forbidden, name, no_row)
        with pytest.raises(MoveError, match="certify budget must be >= 0"):
            certify_trivial(d, budget=-1)
        with pytest.raises(MoveError, match="certify budget must be >= 0"):
            check_n_trivial(gpv2_trivial(), [(1, 2), (3, 4)], budget=-1)

    def test_budget_zero_gives_unknown_on_reducible_unknot(self):
        d = parse_gauss_code("O1+ O2- U1+ U2- O3+ U3+", "long")
        v = certify_trivial(d, budget=0)
        assert v.status == "unknown"

    @pytest.mark.parametrize(
        "code, kind, budget, cap, reason",
        [
            # the search could still delete chords when its budget ran out
            ("O1+ O2- U1+ U2- O3+ U3+", "long", 0, 12, "budget"),
            # no move applies to the right trefoil, whose writhe polynomial
            # is 0, and the cap skips the jones_hat row that refutes it
            ("O1+ U2+ O3+ U1+ O2+ U3+", "closed", 2000, 2, "cap"),
            # random_diagram(Random(91), 4, "closed"): no move applies, and
            # every battery row, the writhe polynomial's included, matches
            # the unknot's
            ("U1- U2+ O1- O3- O2+ O4+ U3- U4+", "closed", 2000, 12, "search"),
        ],
    )
    def test_unknown_names_what_stopped_it(self, code, kind, budget, cap, reason):
        d = parse_gauss_code(code, kind)
        v = certify_trivial(d, budget, cap)
        assert (v.status, v.reason) == ("unknown", reason)
        stats = SearchStats()
        reduced, _ = simplify(d, budget, stats=stats)
        assert reduced.n and stats.budget_spent == (reason == "budget")

    def test_writhe_refutes_where_jones_and_khovanov_match(self):
        # no move applies, and the Jones and Z2 Khovanov rows match the
        # unknot's; the writhe polynomial, t^-2 - 2 + t^2, refutes it
        d = parse_gauss_code("O1+ U2+ O3- U1+ O2+ U3-")
        assert simplify(d)[0] == d
        assert jones_hat(d) == forbidden.UNKNOT_JONES
        assert khovanov.homology(d).as_dict() == forbidden.UNKNOT_TABLE
        v = certify_trivial(d)
        assert (v.status, v.witness) == ("refuted", ("writhe", "t^-2 - 2 + t^2", "0"))

    def test_decided_verdicts_carry_no_reason(self):
        assert certify_trivial(parse_gauss_code("")).reason is None
        assert certify_trivial(VT).reason is None

    def test_soundness_cross_check(self, rng):
        # certified diagrams never carry a refuting battery value
        for _ in range(40):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            v = certify_trivial(d, budget=400)
            if v.certified:
                assert battery_on_input(d, 10) is None

    def test_state_sums_wait_for_the_cap(self, monkeypatch):
        # jones_hat walks in count mode and homology in label mode; above
        # the cap neither may walk
        def no_walk(self, *, labelled):
            raise AssertionError(f"walk (labelled={labelled}) run above the cap")

        monkeypatch.setattr(khovanov._StateSpace, "walk", no_walk)
        # within the cap, jones_hat refutes the right trefoil and a seeded
        # long diagram, whose v21, v22 and writhe polynomial vanish
        seeded = random_diagram(random.Random(169), 4, "long")
        assert (v21(seeded), v22(seeded)) == (0, 0)
        rt = right_trefoil()
        for d in (rt, seeded):
            assert not writhe_polynomial(d)
            assert certify_trivial(d, cap=d.n - 1).reason == "cap"
        # the writhe polynomial refutes the virtual trefoil above the cap
        # without a walk
        assert certify_trivial(VT, cap=VT.n - 1).witness == ("writhe", "t^-1 - 2 + t", "0")
        monkeypatch.undo()
        for d in (rt, seeded, VT):
            assert certify_trivial(d, cap=d.n).witness[0] == "jones_hat"

    def test_battery_on_reduced_matches_the_input(self):
        # oracle: the battery run on the input diagram itself, with the cap
        # judged on it; inputs are random diagrams, some with R2 pairs
        # added so that the search reduces them without emptying them
        rng = random.Random(4021)
        reduced_only = 0
        for n in range(10):
            for kind in ("closed", "long"):
                d = random_diagram(rng, n, kind)
                padded = d
                while padded.n + 2 <= 9 and rng.random() < 0.7:
                    padded, _ = insert_r2_pair(rng, padded)
                for diagram in (d, padded):
                    reduced, trace = simplify(diagram, 2000)
                    for cap in (12, max(diagram.n - 2, 0)):
                        if reduced.n == 0:
                            want = ("certified", tuple(trace), None)
                        else:
                            row = battery_on_input(diagram, cap)
                            want = ("refuted", (), row) if row else ("unknown", (), None)
                            reduced_only += reduced.n < diagram.n
                        v = certify_trivial(diagram, 2000, cap)
                        assert (v.status, v.trace, v.witness) == want, diagram.code()
        assert reduced_only

    def test_arrow_rows_refute_before_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("simplify reached")

        monkeypatch.setattr(forbidden, "simplify", no_search)
        rng = random.Random(2505)
        witnesses = set()
        for _ in range(60):
            d = random_diagram(rng, rng.randint(2, 9), "long")
            toggled = apply_trace(d, [MoveEvent("virtualize", (rng.choice(d.chord_ids()),))])
            if (v21(toggled), v22(toggled)) == (0, 0):
                continue
            v = certify_trivial(toggled)
            assert v.status == "refuted" and v.witness == battery_on_input(toggled, 12)
            witnesses.add(v.witness[0])
        assert witnesses == {"v21", "v22"}

    def test_state_sums_read_closed_diagrams_only(self, monkeypatch):
        # jones_hat and homology see only closures, on long and closed
        # inputs and on their GPV and F toggles
        reached = set()

        def closed_only(fn):
            def wrapper(d, *args):
                assert d.kind == "closed", fn.__name__
                reached.add((fn.__name__, given.kind))
                return fn(d, *args)

            return wrapper

        monkeypatch.setattr(forbidden, "jones_hat", closed_only(jones_hat))
        monkeypatch.setattr(forbidden, "homology", closed_only(khovanov.homology))
        rng = random.Random(2801)
        for _ in range(40):
            d = random_diagram(rng, rng.randint(1, 7), rng.choice(("closed", "long")))
            sites = find_triangles(d)[:1]
            for given in (
                d,
                apply_trace(d, [MoveEvent("virtualize", (rng.choice(d.chord_ids()),))]),
                apply_trace(d, [s._event() for s in sites]),
            ):
                certify_trivial(given, 200, 12)
        assert reached == {(f, k) for f in ("jones_hat", "homology") for k in ("closed", "long")}

    def test_arrow_rows_read_once_on_long_inputs_only(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(d, *args):
                calls.append((fn.__name__, d))
                return fn(d, *args)

            return wrapper

        monkeypatch.setattr(forbidden, "v21", counted(v21))
        monkeypatch.setattr(forbidden, "v22", counted(v22))
        rng = random.Random(2802)
        read = set()
        for _ in range(60):
            d = random_diagram(rng, rng.randint(1, 7), rng.choice(("closed", "long")))
            for given in (d, apply_trace(d, [MoveEvent("virtualize", (rng.choice(d.chord_ids()),))])):
                calls.clear()
                certify_trivial(given, 200, 12)
                names = tuple(name for name, _ in calls)
                if given.kind == "closed":
                    assert names == ()
                else:
                    assert names in (("v21",), ("v21", "v22"))
                    assert all(seen is given for _, seen in calls)
                read.add(names)
        assert read == {(), ("v21",), ("v21", "v22")}

    def test_golden_verdicts_on_toggles(self):
        # one sha256 over certify_trivial's verdicts on GPV and F toggles of
        # seeded diagrams, so that a change to the order of its checks
        # shows any change in what it returns; re-derived when the writhe
        # row was added, after checking that each of the 222 verdicts it
        # changed went from unknown to refuted with a "writhe" witness
        rng = random.Random(2501)
        h = hashlib.sha256()
        for n in range(10):
            for kind in ("closed", "long"):
                for _ in range(6):
                    d = random_diagram(rng, n, kind)
                    traces = [
                        [MoveEvent("virtualize", (cid,)) for cid in sorted(rng.sample(d.chord_ids(), r))]
                        for r in range(1, min(n, 3) + 1)
                    ]
                    sites = disjoint_sites(d, 2) or []
                    traces += [[s._event() for s in sites[:r]] for r in range(1, len(sites) + 1)]
                    for trace in traces:
                        toggled = apply_trace(d, trace)
                        for budget, cap in ((2000, 12), (2000, 5), (3, 12), (3, 5)):
                            v = certify_trivial(toggled, budget, cap)
                            h.update(repr((v.status, [[e.kind, list(e.data)] for e in v.trace],
                                           v.witness, v.reason)).encode())
        assert h.hexdigest() == (
            "81d5f6cfc9655b44546d73a091d527d45c9642963251692a14b9b94f08d6bb20")


class TestNTrivial:
    def test_kmatrix_gpv2(self):
        k = gpv2_trivial()
        verdicts, aggregate = check_n_trivial(k, [(1, 2), (3, 4)], budget=300)
        assert aggregate is True
        assert set(verdicts) == {(0,), (1,), (0, 1)}
        assert all(v.certified for v in verdicts.values())
        # the diagram itself is a nontrivial knot: a genuine 2-family example
        assert certify_trivial(k).status == "refuted"

    def test_f_mode_delegation(self):
        rng = random.Random(717)
        d, pairs, fams = similar_instance(rng, 2)
        verdicts, aggregate = check_n_trivial(d, fams, budget=500)
        assert aggregate is True

    def test_loaded_sites_equal_found_sites(self):
        # A site is only its slot and kind, so the descriptors of a
        # families file load as the very sites find_triangles lists.
        rng = random.Random(2468)
        checked = 0
        while checked < 40:
            kind = ("closed", "long")[checked % 2]
            d = random_diagram(rng, rng.randint(2, 7), kind)
            found = find_triangles(d)
            if not found:
                continue
            text = json.dumps(
                {
                    "mode": "F",
                    "families": [
                        [{"slots": [s.slot, s.slot + 1], "kind": s.kind}] for s in found
                    ],
                }
            )
            _, families = load_families(text)
            assert families == [(s,) for s in found]
            checked += 1

    def test_shared_chord_rejected(self):
        k = gpv2_trivial()
        with pytest.raises(FamilyError):
            check_n_trivial(k, [(1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "listed, message",
        [
            ([[1, 1]], "chord 1 is listed twice in family [1, 1]"),
            ([[3], [2, 1, 2]], "chord 2 is listed twice in family [2, 1, 2]"),
            ([[1, 2], [2, 3]], "chord 2 appears in two families"),
        ],
    )
    def test_repeated_chord_named_where_it_repeats(self, listed, message):
        _, families = load_families(json.dumps({"mode": "GPV", "families": listed}))
        with pytest.raises(FamilyError) as exc:
            check_n_trivial(gpv2_trivial(), families)
        assert str(exc.value) == message

    @pytest.mark.parametrize("mode", ["GPV", "F"])
    def test_empty_family_list_rejected(self, mode):
        # an empty families file of either mode; no subsets would leave a
        # vacuous aggregate True for any knot
        _, families = load_families(json.dumps({"mode": mode, "families": []}))
        with pytest.raises(FamilyError, match="family list is empty"):
            check_n_trivial(right_trefoil(), families)

    @pytest.mark.parametrize(
        "families, message",
        [
            ([(1,), (TriangleSite(0, "Fo"),)], "got TriangleSite, int"),
            ([("1",)], "got str"),
            ([(1.0, 2)], "got float, int"),
            ([(True,)], "got bool"),
        ],
    )
    def test_members_decide_the_mode(self, families, message):
        # chord ids mean GPV mode and TriangleSites F mode; anything else,
        # or a mix, is refused before a diagram is toggled
        k = gpv2_trivial()
        for call in (check_n_trivial, lambda d, f: lemma3_residual(v21, d, f)):
            with pytest.raises(FamilyError) as exc:
                call(k, families)
            assert str(exc.value) == (
                "family members must be all chord ids (GPV) or all TriangleSites (F), " + message
            )

    def test_empty_family_rejected(self):
        for call in (check_n_trivial, lambda d, f: lemma3_residual(v21, d, f)):
            with pytest.raises(FamilyError, match="a family must be nonempty"):
                call(gpv2_trivial(), [(1, 2), ()])

    def test_gpv_toggles_reach_delete_chords_at_call_time(self, monkeypatch):
        # a patch of the class after import sees each virtualized chord:
        # 2 + 2 for the single families, 4 for their union
        calls = []
        original = GaussDiagram.delete_chords

        def counted(self, ids):
            calls.append(tuple(ids))
            return original(self, ids)

        monkeypatch.setattr(GaussDiagram, "delete_chords", counted)
        check_n_trivial(gpv2_trivial(), [(1, 2), (3, 4)], budget=300)
        assert sorted(calls) == [(1,), (1,), (2,), (2,), (3,), (3,), (4,), (4,)]

    def test_f_toggles_replay_through_apply_move(self, monkeypatch):
        rng = random.Random(717)
        d, _, fams = similar_instance(rng, 2)
        kinds = []
        original = moves.apply_move

        def counted(diagram, event):
            kinds.append(event.kind)
            return original(diagram, event)

        monkeypatch.setattr(moves, "apply_move", counted)
        check_n_trivial(d, fams, budget=500)
        # one event per site for each single family, two for their union
        assert sum(k in ("Fo", "Fu") for k in kinds) == 4


class TestTrivializeForbidden:
    def test_empty(self):
        assert trivialize_forbidden(parse_gauss_code("")) == []

    def test_virtual_trefoil_within_depth_8(self):
        trace = trivialize_forbidden(VT, 8)
        assert trace is not None and len(trace) <= 8
        assert apply_trace(VT, trace).n == 0

    def test_replay_property(self, rng):
        for _ in range(15):
            d = random_diagram(rng, rng.randint(0, 4), rng.choice(("closed", "long")))
            trace = trivialize_forbidden(d, 10)
            assert trace is not None
            assert apply_trace(d, trace).n == 0

    def test_budget_exhaustion_returns_none(self):
        assert trivialize_forbidden(VT, 1) is None

    def test_stops_when_the_move_graph_runs_out(self):
        # the right trefoil alternates O and U, so it has no site of any
        # searched kind: limits 0-2 are cut by its 3 positive chords, limit
        # 3 leaves out the kinds that keep them, and limit 4 walks the one
        # node with nothing cut, so no deeper limit is tried
        stats = SearchStats()
        assert trivialize_forbidden(right_trefoil(), 1000, stats=stats) is None
        assert stats == SearchStats(budget_spent=False, expanded=2, deduplicated=0)
        stats = SearchStats()
        assert trivialize_forbidden(right_trefoil(), 3, stats=stats) is None
        assert stats == SearchStats(budget_spent=True, expanded=1, deduplicated=0)

    def test_traces_match_eager_search(self):
        rng = random.Random(606)
        for n in range(9):
            for kind in ("closed", "long"):
                for _ in range(4):
                    d = random_diagram(rng, n, kind)
                    assert trivialize_forbidden(d, 6) == eager_trivialize(d, 6)

    def test_builds_no_child_its_bound_rejects(self, monkeypatch):
        # a child that passes dfs's depth bound is either empty or has its
        # search key read next, so every nonempty child built must be read;
        # a child is built from its parent's cells by moves._child_cells
        built: list[tuple] = []
        coded: set[int] = set()
        original = forbidden._child_cells

        def counting_child(cells, site):
            child = original(cells, site)
            built.append(child)
            return child

        def recording_key(kind, cells):
            coded.add(id(cells))
            return rotation_key(kind, cells)

        rng = random.Random(607)
        diagrams = [random_diagram(rng, n, kind)
                    for n in range(2, 8) for kind in ("closed", "long")]
        eager_built = sum(eager_children(d, 6) for d in diagrams)
        monkeypatch.setattr(forbidden, "_child_cells", counting_child)
        monkeypatch.setattr(forbidden, "rotation_key", recording_key)
        for d in diagrams:
            trivialize_forbidden(d, 6)
        assert built
        assert all(not child or id(child) in coded for child in built)
        assert len(built) < eager_built

    def test_stats_count_expanded_and_deduplicated_nodes(self, monkeypatch):
        # every node that passes the sign bound reads its search key once,
        # and is then either expanded or cut by the best_seen check
        keys = []

        def counting_key(kind, cells):
            keys.append(1)
            return rotation_key(kind, cells)

        monkeypatch.setattr(forbidden, "rotation_key", counting_key)
        stats = SearchStats()
        assert trivialize_forbidden(parse_gauss_code(""), 0, stats=stats) == []
        assert stats == SearchStats(budget_spent=False, expanded=0, deduplicated=0)
        stats = SearchStats()
        assert trivialize_forbidden(VT, 1, stats=stats) is None
        assert stats == SearchStats(budget_spent=True, expanded=0, deduplicated=0)
        rng = random.Random(608)
        seen = []
        for n in range(2, 8):
            for kind in ("closed", "long"):
                d = random_diagram(rng, n, kind)
                keys.clear()
                stats = SearchStats()
                trace = trivialize_forbidden(d, 6, stats=stats)
                assert stats.expanded + stats.deduplicated == len(keys), d.code()
                assert stats.budget_spent == (trace is None)
                assert trace == trivialize_forbidden(d, 6)
                seen.append((stats.expanded, stats.deduplicated))
        assert seen[:2] == [(2, 0), (3, 0)] and seen[4] == (25, 21)
        assert sum(dedup for _, dedup in seen) == 362

    def test_negative_budget_raises(self):
        for d in (parse_gauss_code(""), VT):
            with pytest.raises(MoveError, match="trivialize budget must be >= 0"):
                trivialize_forbidden(d, -1)
            with pytest.raises(MoveError, match="trivialize node cap must be >= 0"):
                trivialize_forbidden(d, 3, node_cap=-1)

    def test_node_cap_stops_before_the_node_past_it(self):
        # this search expands 10,673 nodes over depth limits 0 to 20 and
        # finds no trace; a cap of that many lets it finish, one less stops
        # it before the last node, and the stop names the cap and the limit
        d = random_diagram(random.Random(2), 12, "closed")
        stats = SearchStats()
        assert trivialize_forbidden(d, 20, stats=stats, node_cap=10_673) is None
        assert (stats.expanded, stats.budget_spent) == (10_673, True)
        with pytest.raises(khovanov.CapExceeded, match=(
                "^trivialize capped at 10672 expanded nodes, reached at depth limit 20 of 20$")):
            trivialize_forbidden(d, 20, node_cap=10_672)
        # limits 0 to 6 prune the root by its sign counts and expand nothing
        with pytest.raises(khovanov.CapExceeded, match="capped at 0 .* depth limit 7 of 20$"):
            trivialize_forbidden(d, 20, node_cap=0)
        assert trivialize_forbidden(parse_gauss_code(""), 20, node_cap=0) == []


def with_signs(d, positive):
    """``d`` with its first ``positive`` chords positive and the rest negative."""
    return GaussDiagram(d.kind, [
        Chord(c.id, c.tail, c.head, 1 if i < positive else -1)
        for i, c in enumerate(d.chords)
    ])


def kink_chain(p):
    return parse_gauss_code(" ".join(f"O{i}+ U{i}+" for i in range(1, p + 1)), "long")


class TestSignBound:
    def test_traces_match_eager_search(self):
        rng = random.Random(1101)
        for n in range(9):
            for kind in ("closed", "long"):
                for _ in range(2):
                    d = random_diagram(rng, n, kind)
                    for budget in sorted({n // 2, (n + 1) // 2 + 1, 7}):
                        assert trivialize_forbidden(d, budget) == eager_trivialize(d, budget)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_kink_chain(self, monkeypatch, p):
        # p kinks of one sign need p moves; below that the root is cut
        # before its key is read, so no child is built
        d = kink_chain(p)
        built, keys = [], []
        original = forbidden._child_cells

        def counting_child(cells, site):
            built.append(site)
            return original(cells, site)

        def counting_key(kind, cells):
            keys.append(1)
            return rotation_key(kind, cells)

        monkeypatch.setattr(forbidden, "_child_cells", counting_child)
        monkeypatch.setattr(forbidden, "rotation_key", counting_key)
        assert trivialize_forbidden(d, p - 1) is None
        assert built == [] and keys == []
        trace = trivialize_forbidden(d, p)
        assert len(trace) == p and all(e.kind == "R1_del" for e in trace)
        # the counter is live: the trace's p children were built through it
        assert len(built) >= p
        assert apply_trace(d, trace).n == 0

    def test_fewer_keys_read_than_the_eager_search(self, monkeypatch):
        rng = random.Random(1102)
        diagrams = [with_signs(random_diagram(rng, n, kind), positive)
                    for n in range(3, 8) for kind in ("closed", "long")
                    for positive in (0, n - 1)]
        eager_keys, keys = [], []
        original_code = GaussDiagram.canonical_code

        def counting_code(self):
            eager_keys.append(1)
            return original_code(self)

        def counting_key(kind, cells):
            keys.append(1)
            return rotation_key(kind, cells)

        monkeypatch.setattr(GaussDiagram, "canonical_code", counting_code)
        monkeypatch.setattr(forbidden, "rotation_key", counting_key)
        for d in diagrams:
            assert trivialize_forbidden(d, 6) == eager_trivialize(d, 6)
        assert len(keys) < len(eager_keys)


def _eager_successors(d):
    evs = enumerate_moves(d, ["R2_del", "R1_del", "Fo", "Fu", "R3"])
    order = {"R2_del": 0, "R1_del": 1, "Fo": 2, "Fu": 3, "R3": 4}
    evs.sort(key=lambda e: (order[e.kind], e.data))
    return [(e, apply_move(d, e)) for e in evs]


def eager_trivialize(diagram, budget, counter=None):
    """The search that builds every successor of a node before visiting
    any, kept as the reference for trace order.  ``counter`` collects the
    number of children built."""
    if diagram.n == 0:
        return []
    for limit in range(1, budget + 1):
        best_seen = {}

        def dfs(d, depth_left, trace):
            if d.n == 0:
                return list(trace)
            if depth_left <= 0 or (d.n + 1) // 2 > depth_left:
                return None
            key = (d.kind, d.canonical_code())
            if best_seen.get(key, -1) >= depth_left:
                return None
            best_seen[key] = depth_left
            successors = _eager_successors(d)
            if counter is not None:
                counter.append(len(successors))
            for event, child in successors:
                trace.append(event)
                found = dfs(child, depth_left - 1, trace)
                if found is not None:
                    return found
                trace.pop()
            return None

        found = dfs(diagram, limit, [])
        if found is not None:
            return found
    return None


def eager_children(diagram, budget):
    counter = []
    eager_trivialize(diagram, budget, counter)
    return sum(counter)


class TestFamiliesJson:
    def test_gpv(self):
        mode, fams = load_families('{"mode": "GPV", "families": [[1, 2], [3]]}')
        assert mode == "GPV" and fams == [(1, 2), (3,)]

    def test_f_sites(self):
        mode, fams = load_families(
            json.dumps(
                {"mode": "F", "families": [[{"slots": [0, 1], "kind": "Fo"}]]}
            )
        )
        assert mode == "F" and fams == [(TriangleSite(0, "Fo"),)]

    def test_bad_mode(self):
        with pytest.raises(FamilyError, match="mode"):
            load_families('{"mode": "X", "families": []}')

    def test_bad_site(self):
        with pytest.raises(FamilyError, match="descriptor"):
            load_families('{"mode": "F", "families": [[{"slots": [0], "kind": "Fo"}]]}')

    @pytest.mark.parametrize("slots", [[0, 5], [1, 0], [0, 0], [True, 2], [0, True]])
    def test_slots_must_be_consecutive_integers(self, slots):
        text = json.dumps({"mode": "F", "families": [[{"slots": slots, "kind": "Fo"}]]})
        with pytest.raises(FamilyError, match="descriptor"):
            load_families(text)

    def test_pair_across_the_basepoint(self, rng):
        # [2n-1, 2n] names the closed diagram's pair (2n-1, 0)
        d = random_diagram(rng, 4, "closed")
        while (site := next((s for s in find_triangles(d) if s.slot == 7), None)) is None:
            d = random_diagram(rng, 4, "closed")
        text = json.dumps({"mode": "F", "families": [[{"slots": [7, 8], "kind": site.kind}]]})
        _, fams = load_families(text)
        assert fams[0] == (site,)

    @pytest.mark.parametrize("kind", ["closed", "long"])
    @pytest.mark.parametrize("slots", [[1000, 1001], [4, 5], [-4, -3]])
    def test_slots_outside_the_diagram_refused(self, kind, slots):
        # slot 0 of O1+ O2+ U1+ U2+ is an Fo triangle; no slot wraps to it
        d = parse_gauss_code("O1+ O2+ U1+ U2+", kind)
        text = json.dumps({"mode": "F", "families": [[{"slots": slots, "kind": "Fo"}]]})
        _, fams = load_families(text)
        with pytest.raises(FamilyError, match="not a Fo triangle"):
            f_alt_sum(v21, d, fams[0])
        with pytest.raises(FamilyError, match="not a Fo triangle"):
            check_n_trivial(d, fams)

    def test_boolean_chord_ids_rejected(self):
        with pytest.raises(FamilyError, match="chord ids"):
            load_families('{"mode": "GPV", "families": [[true]]}')
