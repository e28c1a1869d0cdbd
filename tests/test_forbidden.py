import itertools
import json
import random

import pytest

from vknots import forbidden, khovanov
from vknots.arrows import gpv_alt_sum, v21, v22
from vknots.corpus import gpv2_trivial, random_diagram, right_trefoil, virtual_trefoil
from vknots.diagram import GaussDiagram, parse_gauss_code
from vknots.forbidden import (
    Family,
    FamilyError,
    TriangleSite,
    _battery,
    apply_forbidden,
    certify_trivial,
    check_n_trivial,
    disjoint_sites,
    expand_semitriple,
    expand_semivirtual,
    f_alt_sum,
    find_triangles,
    lemma3_residual,
    load_families,
    site_at,
    triangle_sign,
    trivialize_forbidden,
)
from vknots.khovanov import jones_hat
from vknots.moves import MoveEvent, apply_move, apply_trace, enumerate_moves

VT = virtual_trefoil()
LT = right_trefoil("long")


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
            return d, pairs, [Family((s,)) for s in sites]


class TestTriangles:
    def test_virtual_trefoil_sites(self):
        sites = find_triangles(VT)
        assert [(s.slot, s.kind) for s in sites] == [(0, "Fo"), (2, "Fu")]

    def test_empty(self):
        assert find_triangles(parse_gauss_code("")) == []

    def test_classical_trefoil_has_none(self):
        assert find_triangles(right_trefoil("closed")) == []
        assert find_triangles(LT) == []

    def test_signs_flip_under_global_reversal(self, rng):
        # toggling a site flips exactly that site's sign
        for _ in range(30):
            d = random_diagram(rng, rng.randint(2, 6), "closed")
            for s in find_triangles(d):
                d2 = apply_forbidden(d, s)
                s2 = site_at(d2, s.slot, s.kind)
                assert s2.sign == -s.sign


class TestApplyForbidden:
    def test_involution(self, rng):
        for _ in range(40):
            d = random_diagram(rng, rng.randint(2, 6), rng.choice(("closed", "long")))
            for s in find_triangles(d):
                d2 = apply_forbidden(apply_forbidden(d, s), site_at(apply_forbidden(d, s), s.slot, s.kind))
                assert d2 == d

    def test_virtual_trefoil_swap(self):
        s = find_triangles(VT)[0]
        assert apply_forbidden(VT, s) == parse_gauss_code("O2+ O1+ U1+ U2+")

    def test_chord_count_preserved(self, rng):
        for _ in range(20):
            d = random_diagram(rng, rng.randint(2, 5), "closed")
            for s in find_triangles(d):
                assert apply_forbidden(d, s).n == d.n

    def test_stale_site_rejected(self):
        with pytest.raises(FamilyError, match="not a F"):
            apply_forbidden(LT, TriangleSite(0, "Fo", 1))


class TestFAltSum:
    def test_single_site_is_difference(self, rng):
        count = 0
        while count < 20:
            d = random_diagram(rng, rng.randint(2, 5), "long")
            sites = find_triangles(d)
            if not sites:
                continue
            s = sites[0]
            assert f_alt_sum(v21, d, [s]) == v21(d) - v21(apply_forbidden(d, s))
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


class TestExpansions:
    def test_semivirtual_single(self):
        d = LT
        out = expand_semivirtual(d, [2])
        assert len(out.terms) == 2
        assert out.evaluate(v21) == v21(d) - v21(d.delete_chords([2]))

    def test_semivirtual_empty_marks(self):
        out = expand_semivirtual(LT, [])
        assert len(out.terms) == 1 and out.terms[0][0] == 1

    def test_semivirtual_matches_gpv_sum(self, rng):
        for _ in range(40):
            d = random_diagram(rng, rng.randint(2, 6), "long")
            ids = list(d.chord_ids())
            rng.shuffle(ids)
            marks = ids[: rng.randint(1, min(4, len(ids)))]
            assert expand_semivirtual(d, marks).evaluate(v21) == gpv_alt_sum(v21, d, marks)

    def test_semitriple_sign_convention(self):
        rng = random.Random(2)
        seen = {1: False, -1: False}
        while not all(seen.values()):
            d = random_diagram(rng, rng.randint(2, 5), "long")
            sites = find_triangles(d)
            if not sites:
                continue
            s = sites[0]
            out = expand_semitriple(d, [s])
            toggled = apply_forbidden(d, s)
            if s.sign > 0:
                assert out.evaluate(v21) == v21(d) - v21(toggled)
            else:
                assert out.evaluate(v21) == v21(toggled) - v21(d)
            seen[s.sign] = True

    def test_semitriple_matches_signed_f_sum(self, rng):
        checked = 0
        while checked < 50:
            d = random_diagram(rng, rng.randint(3, 6), "long")
            sites = disjoint_sites(d, 2) or (find_triangles(d)[:1] or None)
            if not sites:
                continue
            prod = 1
            for s in sites:
                prod *= s.sign
            assert expand_semitriple(d, sites).evaluate(v21) == prod * f_alt_sum(v21, d, sites)
            checked += 1


class TestLemma3:
    def test_gpv_n3_residual_zero_and_corollary(self):
        rng = random.Random(3030)
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 3), "long")
            fams = []
            for _ in range(3):
                d, new = insert_r2_pair(rng, d)
                fams.append(Family(tuple(new)))
            for fn in (v21, v22):
                assert lemma3_residual(fn, d, fams, "GPV") == 0
            # "in particular": order 2 < n = 3 forces equal values
            full = d.delete_chords([c for f in fams for c in f.members])
            assert v21(d) == v21(full) and v22(d) == v22(full)

    def test_gpv_n1_telescoping(self, rng):
        for _ in range(20):
            d = random_diagram(rng, rng.randint(1, 5), "long")
            cid = rng.choice(d.chord_ids())
            assert lemma3_residual(v21, d, [Family((cid,))], "GPV") == 0

    def test_gpv_n2_nontrivial_terms(self):
        rng = random.Random(3131)
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 3), "long")
            fams = []
            for _ in range(2):
                d, new = insert_r2_pair(rng, d)
                fams.append(Family(tuple(new)))
            assert lemma3_residual(v21, d, fams, "GPV") == 0

    def test_f_mode_residual_zero(self):
        rng = random.Random(3232)
        for _ in range(25):
            d, pairs, fams = similar_instance(rng, 2)
            assert lemma3_residual(v21, d, fams, "F") == 0
            assert lemma3_residual(v22, d, fams, "F") == 0

    def test_kmatrix_instance(self):
        k = gpv2_trivial()
        fams = [Family((1, 2)), Family((3, 4))]
        assert lemma3_residual(v21, k, fams, "GPV") == 0

    def test_non_disjoint_families_rejected(self):
        with pytest.raises(FamilyError, match="two families"):
            lemma3_residual(v21, LT, [Family((1,)), Family((1, 2))], "GPV")


class TestCertify:
    def test_empty_certified(self):
        v = certify_trivial(parse_gauss_code(""))
        assert v.certified and v.trace == ()

    def test_virtual_trefoil_refuted_by_jones(self):
        v = certify_trivial(VT)
        assert v.status == "refuted" and v.witness[0] == "jones_hat"

    def test_budget_zero_gives_unknown_on_reducible_unknot(self):
        d = parse_gauss_code("O1+ O2- U1+ U2- O3+ U3+", "long")
        v = certify_trivial(d, budget=0)
        assert v.status == "unknown"

    def test_soundness_cross_check(self, rng):
        # certified diagrams never carry a refuting battery value
        for _ in range(40):
            d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
            v = certify_trivial(d, budget=400)
            if v.certified:
                assert _battery(d, cap=10) == []

    def test_state_sums_wait_for_the_cap(self, monkeypatch):
        def no_census(self):
            raise AssertionError("census run above the cap")

        monkeypatch.setattr(khovanov._StateSpace, "census", property(no_census))
        # within the cap, jones_hat refutes the virtual trefoil and its long
        # form, whose v21 and v22 vanish
        assert _battery(VT, cap=VT.n - 1) == []
        assert certify_trivial(VT, cap=VT.n - 1).status == "unknown"
        long_vt = parse_gauss_code("O1+ O2+ U1+ U2+", "long")
        assert (v21(long_vt), v22(long_vt)) == (0, 0)
        assert _battery(long_vt, cap=long_vt.n - 1) == []


class TestNTrivial:
    def test_kmatrix_gpv2(self):
        k = gpv2_trivial()
        verdicts, aggregate = check_n_trivial(
            k, [Family((1, 2)), Family((3, 4))], "GPV", budget=300
        )
        assert aggregate is True
        assert set(verdicts) == {(0,), (1,), (0, 1)}
        assert all(v.certified for v in verdicts.values())
        # the diagram itself is a nontrivial knot: a genuine 2-family example
        assert certify_trivial(k).status == "refuted"

    def test_f_mode_delegation(self):
        rng = random.Random(717)
        d, pairs, fams = similar_instance(rng, 2)
        verdicts, aggregate = check_n_trivial(d, fams, "F", budget=500)
        assert aggregate is True

    def test_shared_chord_rejected(self):
        k = gpv2_trivial()
        with pytest.raises(FamilyError):
            check_n_trivial(k, [Family((1, 2)), Family((2, 3))], "GPV")


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

    def test_traces_match_eager_search(self):
        rng = random.Random(606)
        for n in range(9):
            for kind in ("closed", "long"):
                for _ in range(4):
                    d = random_diagram(rng, n, kind)
                    assert trivialize_forbidden(d, 6) == eager_trivialize(d, 6)

    def test_builds_no_child_its_bound_rejects(self, monkeypatch):
        # a child that passes dfs's depth bound is either empty or has its
        # canonical code read next, so every nonempty child built must be
        # read
        built: list[GaussDiagram] = []
        coded: set[int] = set()
        original_code = GaussDiagram.canonical_code

        def counting_apply(d, event):
            child = apply_move(d, event)
            built.append(child)
            return child

        def recording_code(self):
            coded.add(id(self))
            return original_code(self)

        rng = random.Random(607)
        diagrams = [random_diagram(rng, n, kind)
                    for n in range(2, 8) for kind in ("closed", "long")]
        eager_built = sum(eager_children(d, 6) for d in diagrams)
        monkeypatch.setattr(forbidden, "apply_move", counting_apply)
        monkeypatch.setattr(GaussDiagram, "canonical_code", recording_code)
        for d in diagrams:
            trivialize_forbidden(d, 6)
        assert built
        assert all(child.n == 0 or id(child) in coded for child in built)
        assert len(built) < eager_built


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
        assert mode == "GPV" and [f.members for f in fams] == [(1, 2), (3,)]

    def test_f_sites(self):
        mode, fams = load_families(
            json.dumps(
                {"mode": "F", "families": [[{"slots": [0, 1], "kind": "Fo"}]]}
            )
        )
        assert mode == "F" and fams[0].members[0].slot == 0

    def test_bad_mode(self):
        with pytest.raises(FamilyError, match="mode"):
            load_families('{"mode": "X", "families": []}')

    def test_bad_site(self):
        with pytest.raises(FamilyError, match="descriptor"):
            load_families('{"mode": "F", "families": [[{"slots": [0], "kind": "Fo"}]]}')
