import json
import random
import time

import pytest

from vknots import braids
from vknots.braids import (
    BraidError,
    BraidWord,
    EXAMPLE_GENS,
    GeneratorDef,
    b_family,
    closure,
    commutator,
    free_reduce,
    inverse,
    load_generator_def,
    parse_braid_word,
    permutation,
    product,
    scan_family,
)
from vknots.cli import main
from vknots.corpus import virtual_trefoil
from vknots.khovanov import bracket, jones_hat
from vknots.moves import simplify


class TestWordOps:
    def test_parse_and_print(self):
        w = parse_braid_word("s1 S2 v3")
        assert w.token_str() == "s1 S2 v3"

    def test_bad_token(self):
        with pytest.raises(BraidError, match="bad braid token"):
            parse_braid_word("s4")

    def test_inverse_involution(self):
        w = parse_braid_word("s1 v2 S3 s2")
        assert inverse(inverse(w)).letters == w.letters

    def test_inverse_empty(self):
        assert inverse(BraidWord()).letters == ()

    def test_product_lengths(self):
        u, v = parse_braid_word("s1 s2"), parse_braid_word("v1 S3 v2")
        assert len(product(u, v)) == len(u) + len(v)

    def test_commutator_length(self):
        u, v = parse_braid_word("s1 s2"), parse_braid_word("v1 S3 v2")
        assert len(commutator(u, v)) == 2 * (len(u) + len(v))

    def test_free_reduction_of_w_winv(self):
        for text in ("s1 v2 S3", "v1 v2 s1 s1", ""):
            w = parse_braid_word(text)
            assert free_reduce(product(w, inverse(w))).letters == ()

    def test_generator_def_invariant(self):
        for gen in (EXAMPLE_GENS.A, EXAMPLE_GENS.B):
            assert free_reduce(product(gen, inverse(gen))).letters == ()

    def test_permutation_pure(self):
        assert permutation(EXAMPLE_GENS.A) == (1, 2, 3, 4)
        assert permutation(parse_braid_word("s1")) == (2, 1, 3, 4)


class TestBFamily:
    def test_b1_is_a(self):
        assert b_family(1, EXAMPLE_GENS).letters == EXAMPLE_GENS.A.letters

    def test_b2_is_commutator_literally(self):
        expected = product(
            EXAMPLE_GENS.B,
            EXAMPLE_GENS.A,
            inverse(EXAMPLE_GENS.B),
            inverse(EXAMPLE_GENS.A),
        )
        assert b_family(2, EXAMPLE_GENS).letters == expected.letters

    def test_length_recursion_through_10(self):
        for k in range(2, 11):
            g = EXAMPLE_GENS.generator(k)
            assert len(b_family(k, EXAMPLE_GENS)) == 2 * (
                len(g) + len(b_family(k - 1, EXAMPLE_GENS))
            )

    def test_generator_schedule(self):
        # B at k = 2, 3 mod 4; A at k = 0, 1 mod 4
        picks = [EXAMPLE_GENS.generator(k) for k in range(2, 8)]
        names = ["B" if p is EXAMPLE_GENS.B else "A" for p in picks]
        assert names == ["B", "B", "A", "A", "B", "B"]

    def test_k_zero_rejected(self):
        with pytest.raises(BraidError):
            b_family(0, EXAMPLE_GENS)


class TestClosure:
    def test_empty_word_unknot(self):
        assert closure(BraidWord()).n == 0

    def test_chord_count_is_real_letter_count(self, rng):
        for _ in range(30):
            tokens = []
            for _ in range(rng.randint(0, 8)):
                tokens.append(rng.choice("sSv") + str(rng.randint(1, 3)))
            w = parse_braid_word(" ".join(tokens))
            try:
                d = closure(w)
            except BraidError:
                continue
            assert d.n == w.real_count()

    def test_single_real_letter_with_virtual_completion(self):
        d = closure(parse_braid_word("s1 v1"))
        assert d.n == 1
        reduced, _ = simplify(d, 20)
        assert reduced.n == 0

    def test_example_a_closes_to_virtual_trefoil(self):
        assert closure(EXAMPLE_GENS.A) == virtual_trefoil()

    def test_multi_component_rejected(self):
        with pytest.raises(BraidError, match="not a knot"):
            closure(parse_braid_word("s1"))

    def test_conjugation_preserves_writhe_and_component_count(self):
        # The shifted closure is not a trace: conjugating a word can change
        # the closure's knot type (unlike the classical Markov move), but it
        # always preserves the writhe and, when the conjugate still closes
        # to a knot, the chord count grows by the conjugator's real letters.
        from vknots.khovanov import writhe

        rng = random.Random(88)
        checked = 0
        while checked < 10:
            x_tokens = [rng.choice("sSv") + str(rng.randint(1, 3)) for _ in range(4)]
            w_tokens = [rng.choice("sSv") + str(rng.randint(1, 3)) for _ in range(2)]
            x, w = parse_braid_word(" ".join(x_tokens)), parse_braid_word(" ".join(w_tokens))
            conj = product(w, x, inverse(w))
            try:
                d1, d2 = closure(x), closure(conj)
            except BraidError:
                continue
            assert writhe(d1) == writhe(d2)
            assert d2.n == d1.n + 2 * w.real_count()
            checked += 1

    def test_free_reduction_preserves_closure_invariants(self):
        rng = random.Random(89)
        checked = 0
        while checked < 10:
            tokens = [rng.choice("sSv") + str(rng.randint(1, 3)) for _ in range(6)]
            w = parse_braid_word(" ".join(tokens))
            r = free_reduce(w)
            if r.letters == w.letters:
                continue
            try:
                d1, d2 = closure(w), closure(r)
            except BraidError:
                continue
            assert jones_hat(d1) == jones_hat(d2)
            checked += 1


class TestScanFamily:
    def test_trivial_generators_all_unknots(self):
        gens = GeneratorDef(BraidWord(), BraidWord())
        rows = scan_family(range(1, 4), gens, 12)
        assert all(r["chords"] == 0 and r["nontrivial"] is False for r in rows)

    def test_example_gens_k1_nontrivial(self):
        rows = scan_family([1], EXAMPLE_GENS, 12)
        assert rows[0]["nontrivial"] is True
        i, j = rows[0]["witness"]
        assert abs(j) != 1

    def test_chord_counts_monotone(self):
        rows = scan_family(range(1, 5), EXAMPLE_GENS, 12)
        counts = [r["chords"] for r in rows]
        assert counts == sorted(counts)

    def test_cap_marks_skipped(self):
        rows = scan_family(range(1, 4), EXAMPLE_GENS, 12)
        assert rows[-1]["skipped"] is True and "nontrivial" not in rows[-1]

    # EX is EXAMPLE_GENS; F is a non-pure pair whose commutators are pure
    # from k = 2 on; CL is the pure pair A12, A23
    FAMILIES = {
        "EX": EXAMPLE_GENS,
        "F": GeneratorDef(
            parse_braid_word("s1 s2 v1 S2 S1 v2"), parse_braid_word("s2 s3 v2 S3 S2 v3")
        ),
        "CL": GeneratorDef(parse_braid_word("s1 s1"), parse_braid_word("s2 s2")),
    }

    def test_counts_match_built_words(self):
        for name, gens in self.FAMILIES.items():
            rows = scan_family(range(1, 8), gens, 0)
            for k, row in enumerate(rows, start=1):
                word = b_family(k, gens)
                assert (row["letters"], row["chords"]) == (len(word), closure(word).n), (name, k)
                assert row["skipped"] == (row["chords"] > 0)

    def test_non_knot_closure_rejected_like_closure(self):
        rejected = 0
        for a, b in (("s1 s2 s3", "s2"), ("s1", "s2"), ("v1 v2", "s3 v1")):
            gens = GeneratorDef(parse_braid_word(a), parse_braid_word(b))
            for k in range(1, 5):
                try:
                    closure(b_family(k, gens))
                except BraidError as exc:
                    with pytest.raises(BraidError) as scanned:
                        scan_family([k], gens, 0)
                    assert str(scanned.value) == str(exc)
                    rejected += 1
                else:
                    scan_family([k], gens, 0)
        assert 0 < rejected < 12

    def test_words_built_only_within_the_cap(self, monkeypatch, capsys):
        built = []
        family = braids.b_family

        def counting_family(k, defs):
            built.append(k)
            return family(k, defs)

        monkeypatch.setattr(braids, "b_family", counting_family)
        assert main(["braid", "--scan", "1:2"]) == 0
        head = capsys.readouterr().out
        start = time.perf_counter()
        assert main(["braid", "--scan", "1:30"]) == 2
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        # |b(30)| has over a billion letters; only k = 1, 2 are in the cap
        assert built == [1, 2, 1, 2] and elapsed < 10
        rows = json.loads(out)["rows"]
        assert [r["k"] for r in rows] == list(range(1, 31))
        assert json.dumps(rows[:2]) == json.dumps(json.loads(head)["rows"])
        assert err == "braid --scan: --cap-chords 12 exceeded: skipped 28 of 30 rows\n"


class TestGeneratorJson:
    def test_load(self):
        gd = load_generator_def(json.dumps({"A": "s1 v1", "B": "s2"}))
        assert gd.A.token_str() == "s1 v1" and gd.B.token_str() == "s2"

    def test_missing_field(self):
        with pytest.raises(BraidError, match="'A' and 'B'"):
            load_generator_def('{"A": "s1"}')
