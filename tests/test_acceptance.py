"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -v -s`` (or via ``vknots selftest``
for the randomized batteries).  Every tolerance here is exact integer or
polynomial equality; the only numeric limits are the stated wall-clock caps.
"""

import itertools
import json
import math
import random
import time

from vknots.arrows import gpv_alt_sum, v21, v22, writhe_polynomial
from vknots.braids import (
    BraidWord,
    EXAMPLE_GENS,
    GeneratorDef,
    b_family,
    closure,
    inverse,
    parse_braid_word,
    product,
    scan_family,
)
from vknots.cli import main
from vknots.corpus import (
    figure_eight,
    left_trefoil,
    random_diagram,
    right_trefoil,
    unknot,
)
from vknots.diagram import concat_long, parse_gauss_code, reclose
from vknots.forbidden import (
    certify_trivial,
    disjoint_sites,
    f_alt_sum,
    lemma3_residual,
    site_at,
    trivialize_forbidden,
)
from vknots.khovanov import bracket, homology, jones_hat, _space
from vknots.laurent import LaurentPoly
from vknots.moves import MoveEvent, apply_move, apply_trace, enumerate_moves
from oracles import circles, insert_r2_pair, lemma5_check, lemma5_gradings


def report(num: int, ok: bool, detail: str, seconds: float | None = None) -> None:
    # wall-clock seconds go on their own line, so that the ACCEPTANCE lines
    # of two runs of the same code are equal byte for byte
    if seconds is not None:
        print(f"SECONDS    {num:2d}: {seconds:.3f}")
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_unknot_homology(capsys):
    t0 = time.time()
    code = main(["kh", "--code", ""])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    with capsys.disabled():
        table = json.loads(out)["table"]
        ok = (
            code == 0
            and table == [{"dim": 1, "i": 0, "j": -1}, {"dim": 1, "i": 0, "j": 1}]
            and elapsed < 1.0
        )
        report(1, ok, "unknot homology table exact within 1 s", elapsed)


def test_criterion_02_d_squared_and_euler():
    rng = random.Random(20260809)
    t0 = time.time()
    for _ in range(500):
        d = random_diagram(rng, rng.randint(0, 8), "closed")
        table = homology(d)  # raises if d o d != 0
        assert table.euler() == jones_hat(d), d.code()
    elapsed = time.time() - t0
    report(2, elapsed < 300, "500 diagrams: d^2 = 0 and Euler = Jones within 300 s", elapsed)


def test_criterion_03_move_invariance():
    rng = random.Random(3)
    unit_plus, unit_minus = LaurentPoly({3: -1}), LaurentPoly({-3: -1})
    kinds = ["R1_del", "R2_del", "R3", "R1_add", "R2_add"]
    checked = 0
    while checked < 200:
        d = random_diagram(rng, rng.randint(0, 5), "long")
        events = enumerate_moves(d, kinds)
        if not events:
            continue
        e = rng.choice(events)
        d2 = apply_move(d, e)
        assert v21(d) == v21(d2) and v22(d) == v22(d2), (d.code(), e)
        c, c2 = reclose(d), reclose(d2)
        assert jones_hat(c) == jones_hat(c2), (d.code(), e)
        assert homology(c).as_dict() == homology(c2).as_dict(), (d.code(), e)
        b1, b2 = bracket(c), bracket(c2)
        if e.kind in ("R1_add", "R1_del"):
            assert b2 in (b1 * unit_plus, b1 * unit_minus) or b1 in (
                b2 * unit_plus,
                b2 * unit_minus,
            ), (d.code(), e)
        else:
            assert b1 == b2, (d.code(), e)
        checked += 1
    report(3, True, "bracket/jones/KH/v21/v22 stable over 200 random (diagram, move) pairs")


def test_criterion_04_gpv_finite_typeness():
    rng = random.Random(4)
    for _ in range(200):
        d = random_diagram(rng, rng.randint(3, 6), "long")
        for c in itertools.combinations(d.chord_ids(), 3):
            assert gpv_alt_sum(v21, d, c) == 0, (d.code(), c)
            assert gpv_alt_sum(v22, d, c) == 0, (d.code(), c)
    report(4, True, "all 3-fold virtualization sums vanish for v21 and v22 (200 diagrams)")


def test_criterion_05_f_order_behavior():
    rng = random.Random(5)
    checked = 0
    single_nonzero = 0
    while checked < 100:
        d = random_diagram(rng, rng.randint(3, 7), "long")
        sites = disjoint_sites(d, 2)
        if sites is None:
            continue
        assert f_alt_sum(v21, d, sites) == 0, d.code()
        if f_alt_sum(v21, d, sites[:1]) != 0:
            single_nonzero += 1
        checked += 1
    report(
        5,
        single_nonzero > 0,
        f"two-triangle sums vanish on 100 diagrams; {single_nonzero} single-triangle differences nonzero",
    )


def test_criterion_06_lemma3_identities():
    rng = random.Random(6)
    for _ in range(50):  # GPV mode, n = 3 families of inserted R2 pairs
        d = random_diagram(rng, rng.randint(0, 3), "long")
        fams = []
        for _ in range(3):
            d, new = insert_r2_pair(rng, d)
            fams.append(new)
        assert lemma3_residual(v21, d, fams) == 0, d.code()
        assert lemma3_residual(v22, d, fams) == 0, d.code()
        full = d.delete_chords([c for f in fams for c in f])
        assert v21(d) == v21(full) and v22(d) == v22(full), d.code()

    checked = 0  # F mode, n = 2 single-site families on inserted R2 pairs
    while checked < 50:
        d = random_diagram(rng, rng.randint(0, 3), "long")
        pairs = []
        for _ in range(2):
            d, new = insert_r2_pair(rng, d)
            pairs.append(new)
        sites = []
        for p in pairs:
            ta, tb = d.chord(p[0]).tail, d.chord(p[1]).tail
            if abs(ta - tb) != 1:
                break
            sites.append(site_at(d, min(ta, tb), "Fo"))
        if len(sites) != 2:
            continue
        fams = [(s,) for s in sites]
        assert lemma3_residual(v21, d, fams) == 0, d.code()
        assert lemma3_residual(v22, d, fams) == 0, d.code()
        checked += 1
    report(6, True, "similarity identity residuals exactly 0 (50 GPV n=3, 50 F n=2)")


def test_criterion_07_paper_values():
    lt = right_trefoil("long")
    ok = v21(lt) == 1 and v21(unknot("long")) == 0
    corpus = [right_trefoil("long"), left_trefoil("long"), figure_eight("long")]
    ok = ok and all(v21(d) == v22(d) for d in corpus)
    report(7, ok, "v21(right trefoil) = 1, v21(unknot) = 0, v21 = v22 on the classical corpus")


def test_criterion_08_lemma5_singleton_oracle():
    """Faithful transcription of the stated oracle.

    The rank consequence of the certificate (the all-1 state survives to
    homology) holds on every sample, but the literal singleton conclusion
    is not implied by the two circle-count conditions: states several
    marker switches away can share the grading window.  Counterexamples
    are printed verbatim below; see test_criterion_08_rank_consequence for
    the sound part of the certificate.
    """
    rng = random.Random(8)
    counterexamples = []
    passing = 0
    for _ in range(200):
        d = random_diagram(rng, rng.randint(0, 10), "closed")
        sp = _space(d)
        for mask in range(1 << d.n):
            markers = sp.markers_of(mask)
            if not lemma5_check(d, markers):
                continue
            passing += 1
            i0, j0 = lemma5_gradings(d, markers)
            hits = [
                t
                for t in range(1 << d.n)
                if i0 - 1 <= sp.homological_i(t) <= i0 + 1
                and sp.w + sp.homological_i(t) + len(circles(sp, t)) == j0
            ]
            if hits != [mask]:
                counterexamples.append(
                    (d.code(), markers, (i0, j0), [sp.markers_of(t) for t in hits])
                )
    for code, markers, grading, hits in counterexamples[:10]:
        others = [h for h in hits if h != markers]
        print(
            f"ACCEPTANCE  8 counterexample: diagram {code!r}, state {markers}, "
            f"(i, j) = {grading}, {len(others)} other window state(s), "
            f"first: {others[0]}"
        )
    report(
        8,
        not counterexamples,
        f"singleton oracle over 200 diagrams: {passing} certificates, "
        f"{len(counterexamples)} counterexamples",
    )


def test_criterion_08_rank_consequence():
    # the certificate soundly implies dim KH^{i0, j0} >= 1 (this is what
    # nontriviality scans rely on); verified alongside the literal oracle
    rng = random.Random(88)
    confirmed = 0
    for _ in range(200):
        d = random_diagram(rng, rng.randint(0, 8), "closed")
        sp = _space(d)
        table = None
        for mask in range(1 << d.n):
            markers = sp.markers_of(mask)
            if not lemma5_check(d, markers):
                continue
            if table is None:
                table = homology(d).as_dict()
            i0, j0 = lemma5_gradings(d, markers)
            assert table.get((i0, j0), 0) >= 1, (d.code(), markers)
            confirmed += 1
    report(8, confirmed > 50, f"rank consequence of the certificate holds on {confirmed} states")


def test_criterion_09_forbidden_unknotting():
    rng = random.Random(2026)
    lengths = []
    for _ in range(30):
        d = random_diagram(rng, rng.randint(0, 5), rng.choice(("closed", "long")))
        trace = trivialize_forbidden(d, 10)
        assert trace is not None, d.code()
        assert apply_trace(d, trace).n == 0, d.code()
        lengths.append(len(trace))
    report(9, True, f"30/30 unknotted within depth 10 (max trace {max(lengths)}); replays empty")


def test_criterion_10_braid_recursion():
    b2 = b_family(2, EXAMPLE_GENS)
    literal = product(
        EXAMPLE_GENS.B, EXAMPLE_GENS.A, inverse(EXAMPLE_GENS.B), inverse(EXAMPLE_GENS.A)
    )
    ok = b2.letters == literal.letters
    for k in range(2, 11):
        g = EXAMPLE_GENS.generator(k)
        ok = ok and len(b_family(k, EXAMPLE_GENS)) == 2 * (
            len(g) + len(b_family(k - 1, EXAMPLE_GENS))
        )
    ok = ok and certify_trivial(closure(BraidWord())).certified
    t0 = time.time()
    rows = scan_family(range(1, 5), EXAMPLE_GENS, homology_cap=12)
    alt = GeneratorDef(parse_braid_word("s1 s1"), parse_braid_word("s2 S3 s2 S3"))
    rows += scan_family(range(1, 5), alt, homology_cap=12)
    elapsed = time.time() - t0
    ok = ok and elapsed < 600 and all("k" in r for r in rows)
    report(10, ok, "commutator recursion exact; scans over two GeneratorDefs within 600 s", elapsed)


def test_criterion_11_f_order_is_strict():
    # v21 has F-order <= 1 (criterion 5), so by the Leibniz rule of
    # alternating sums v21**n has F-order <= n: every (n + 1)-site sum
    # vanishes.  On n disjoint sites that each move v21 by 1, the n-site
    # sum of v21**n is n!, so its F-order is exactly n and level n of the
    # filtration is larger than level n - 1.  The long diagram below has an
    # Fu site at slot 3 that moves v21 by 1; its n copies, concatenated,
    # have one such site per copy, at slot 3 + 10k of copy k.
    piece = parse_gauss_code("O1- U1- O2+ U3+ U2+ U4- O4- O5+ U5+ O3+", "long")
    rng = random.Random(11)
    sampled = 0
    for n in range(1, 5):
        def power(d, n=n):
            return v21(d) ** n

        copies = [piece]
        while len(copies) < n + 1:
            copies.append(concat_long(copies[-1], piece))
        for count, want in ((n, math.factorial(n)), (n + 1, 0)):
            d = copies[count - 1]
            sites = [site_at(d, 3 + 10 * k, "Fu") for k in range(count)]
            got = f_alt_sum(power, d, sites)
            assert got == want, (n, count, got, d.code())
        # and the (n + 1)-site sums vanish on seeded random long diagrams
        checked = 0
        while checked < 40:
            d = random_diagram(rng, rng.randint(2 * n + 2, 2 * n + 5), "long")
            sites = disjoint_sites(d, n + 1)
            if sites is not None:
                assert f_alt_sum(power, d, sites) == 0, (n, d.code())
                checked += 1
        sampled += checked
    report(
        11,
        True,
        "v21**n has F-order exactly n for n = 1..4: n-site sums n! on n concatenated "
        f"copies, (n + 1)-site sums 0 on n + 1 copies and on {sampled} seeded diagrams",
    )


def index_writhe(n):
    """J_n, the t**n coefficient of the writhe polynomial."""
    def j_n(d):
        return dict(writhe_polynomial(d).items()).get(n, 0)

    return j_n


def test_criterion_12_index_writhes_have_f_order_one():
    # The index writhes J_n (Satoh-Taniguchi) are R-move invariants of
    # F-order exactly 1 and of no GPV-order up to 5: finite GPV-order
    # implies finite F-order, and J_n is a witness that the converse fails.
    rng = random.Random(12)
    kinds = ["R1_del", "R2_del", "R3", "R1_add", "R2_add"]
    seen = dict.fromkeys(kinds, 0)
    for _ in range(300):  # seeded 6-move walks, each step of a random kind
        d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
        w = writhe_polynomial(d)
        for _ in range(6):
            # R2_add has O(n**2) sites, so one is drawn without listing them
            m = d.slot_count
            e = MoveEvent("R2_add", (rng.randint(0, m), rng.randint(0, m), rng.random() < 0.5,
                                     rng.choice((1, -1)), rng.choice("th")))
            kind = rng.choice(kinds)
            if kind != "R2_add":
                e = rng.choice(enumerate_moves(d, [kind]) or [e])
            d = apply_move(d, e)
            assert writhe_polynomial(d) == w, (d.code(), e)
            seen[e.kind] += 1
    assert min(seen.values()) >= 50, seen

    # F-order exactly 1: every 2-site sum vanishes, some 1-site sums do not
    two_site = one_site_nonzero = 0
    while two_site < 200:
        d = random_diagram(rng, rng.randint(3, 9), "closed")
        sites = disjoint_sites(d, 2)
        if sites is None:
            continue
        for n in (1, -1, 2, -2):
            assert f_alt_sum(index_writhe(n), d, sites) == 0, (n, d.code())
            one_site_nonzero += f_alt_sum(index_writhe(n), d, sites[:1]) != 0
        two_site += 1
    assert one_site_nonzero

    # no GPV-order <= m: a seeded (m + 1)-chord sum of J_1 is nonzero
    tries = []
    for m in range(1, 6):
        for attempt in range(1, 201):
            d = random_diagram(rng, rng.randint(m + 1, m + 6), rng.choice(("closed", "long")))
            if gpv_alt_sum(index_writhe(1), d, rng.sample(d.chord_ids(), m + 1)) != 0:
                break
        else:
            raise AssertionError(f"no nonzero {m + 1}-chord GPV sum of J_1 in 200 diagrams")
        tries.append(attempt)

    # Theorem Fn: F b(k) is F-2-trivial for k >= 2, so every invariant of
    # F-order <= 1 takes the unknot's value on it.  W is 0 on CL b(k) too,
    # and EX has nonzero index writhes at odd k
    f_gens = GeneratorDef(parse_braid_word("s1 s2 v1 S2 S1 v2"),
                          parse_braid_word("s2 s3 v2 S3 S2 v3"))
    cl_gens = GeneratorDef(parse_braid_word("s1 s1"), parse_braid_word("s2 s2"))
    suffix = parse_braid_word("s1 s2 s3 v1 v2 v3")
    for k in range(1, 7):
        assert not writhe_polynomial(closure(b_family(k, f_gens))), ("F", k)
        assert not writhe_polynomial(closure(product(b_family(k, cl_gens), suffix))), ("CL", k)
    for k in (1, 3, 5):
        assert writhe_polynomial(closure(b_family(k, EXAMPLE_GENS))), ("EX", k)
    report(
        12,
        True,
        f"W unchanged by {sum(seen.values())} R-move events ({seen['R3']} R3); "
        f"J_n 2-site F sums 0 on {two_site} diagrams, {one_site_nonzero} 1-site sums "
        f"nonzero; nonzero (m + 1)-chord GPV sums of J_1 for m = 1..5 after {tries} "
        "draws; J_n = 0 on F and CL b(k), k <= 6, and not on EX k = 1, 3, 5",
    )
