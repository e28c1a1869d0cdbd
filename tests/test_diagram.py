import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots.corpus import random_diagram
from vknots.diagram import (
    Chord,
    DiagramError,
    GaussDiagram,
    ParseError,
    concat_long,
    cut,
    load_json,
    pair_starts,
    parse_gauss_code,
    read_diagram_file,
    reclose,
    rotation_key,
    virtualize,
)

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
VT = "O1+ O2+ U1+ U2+"


class TestParse:
    def test_empty_input(self):
        d = parse_gauss_code("", "closed")
        assert d.n == 0 and d.kind == "closed"

    def test_trefoil_positions(self):
        d = parse_gauss_code(TREFOIL, "closed")
        assert d.n == 3
        c1 = d.chord(1)
        assert (c1.tail, c1.head, c1.sign) == (0, 3, 1)

    def test_sign_mismatch(self):
        with pytest.raises(ParseError, match="sign mismatch"):
            parse_gauss_code("O1+ U1-")

    def test_duplicate_role(self):
        with pytest.raises(ParseError, match="already has an O"):
            parse_gauss_code("O1+ O1+")

    def test_unpaired_label(self):
        with pytest.raises(ParseError, match="missing its U"):
            parse_gauss_code("O1+ U2+ O2+")

    def test_bad_token(self):
        with pytest.raises(ParseError, match="bad token 'X1\\+'"):
            parse_gauss_code("X1+ U1+")

    def test_commas_allowed(self):
        assert parse_gauss_code("O1+,U1+") == parse_gauss_code("O1+ U1+")

    def test_diagram_file(self):
        text = "# comment\nO1+ U1+\nlong: O1- U1-\n\nclosed: " + VT
        ds = read_diagram_file(text)
        assert [d.kind for d in ds] == ["closed", "long", "closed"]
        assert ds[2] == parse_gauss_code(VT)

    def test_diagram_file_error_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            read_diagram_file("O1+ U1+\nO1+ o2-")

    def test_labels_are_read_as_chord_ids(self):
        # a leading zero names the same chord
        assert parse_gauss_code("O01+ U1+") == parse_gauss_code("O1+ U1+")
        assert parse_gauss_code("O1+ U02- O002- U001+").code() == "O1+ U2- O2- U1+"

    def test_label_past_the_int_limit_is_refused_in_token_order(self):
        label = "9" * 5000
        too_long = "token 'O99999999999...': label of 5000 digits is too long"
        cases = {
            f"O{label}+ U{label}+": too_long,  # every token's syntax is good
            f"O1+ O{label}+ x": too_long,
            f"x O{label}+": "bad token 'x': expected O<label>+/- or U<label>+/-",
            f"O1+ O1+ O{label}+": "token 'O1+': label 1 already has an O endpoint",
        }
        for text, message in cases.items():
            with pytest.raises(ParseError) as info:
                parse_gauss_code(text)
            assert str(info.value) == message

    def test_same_chord_under_two_labels_names_its_token(self):
        with pytest.raises(ParseError, match=r"^token 'O1\+': label 1 already has an O endpoint$"):
            parse_gauss_code("O01+ U01+ O1+ U1+")
        with pytest.raises(ParseError, match=r"^line 2: token 'O1\+'"):
            read_diagram_file("O1+ U1+\nO01+ U01+ O1+ U1+")


class TestRoundTrip:
    def test_trefoil(self):
        d = parse_gauss_code(TREFOIL, "closed")
        assert parse_gauss_code(d.code(), "closed") == d

    @given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_random_round_trip(self, seed, n, is_long):
        import random

        kind = "long" if is_long else "closed"
        d = random_diagram(random.Random(seed), n, kind)
        assert parse_gauss_code(d.code(), kind) == d

    def test_ids_renormalized(self):
        d = GaussDiagram("closed", [Chord(7, 0, 1, 1), Chord(3, 2, 3, -1)])
        assert d.code() == "O1+ U1+ O2- U2-"


class TestStructure:
    def test_equality_ignores_ids(self):
        a = GaussDiagram("closed", [Chord(1, 0, 2, 1), Chord(2, 1, 3, 1)])
        b = GaussDiagram("closed", [Chord(5, 0, 2, 1), Chord(9, 1, 3, 1)])
        assert a == b and hash(a) == hash(b)

    def test_kind_distinguishes(self):
        assert parse_gauss_code(VT, "closed") != parse_gauss_code(VT, "long")

    def test_slot_collision_rejected(self):
        with pytest.raises(DiagramError, match="slot"):
            GaussDiagram("closed", [Chord(1, 0, 1, 1), Chord(2, 1, 2, 1)])

    def test_canonical_code_rotation(self):
        d = parse_gauss_code(TREFOIL, "closed")
        assert d.rotated(2).canonical_code() == d.canonical_code()

    def test_adjacency(self):
        # slot 0 follows slot 3 on the closed diagram, not on the long one
        d = parse_gauss_code(VT, "closed")
        assert 3 in pair_starts(d.kind, d.slot_count)
        dl = parse_gauss_code(VT, "long")
        assert 3 not in pair_starts(dl.kind, dl.slot_count)

    def test_empty_diagram_has_no_slots(self):
        d = GaussDiagram("closed", ())
        with pytest.raises(DiagramError, match="no slots"):
            d.at(0)

    def test_relabelled_copies_equal_and_hash_alike(self, rng):
        for n in range(1, 8):
            d = random_diagram(rng, n, rng.choice(("closed", "long")))
            ids = rng.sample(range(1, 100), n)
            relabelled = GaussDiagram(
                d.kind,
                [Chord(new, c.tail, c.head, c.sign) for new, c in zip(ids, d.chords)],
            )
            flipped = GaussDiagram(
                d.kind,
                [
                    Chord(c.id, c.tail, c.head, -c.sign if k == 0 else c.sign)
                    for k, c in enumerate(d.chords)
                ],
            )
            # compare and hash in both orders, so either side's key is the
            # one built first
            assert relabelled == d and d == relabelled
            assert hash(relabelled) == hash(d)
            assert flipped != d and d != flipped
            assert relabelled in {d} and d in {relabelled}
            assert flipped not in {d, relabelled}


def _canonical_code_oracle(d: GaussDiagram) -> str:
    """The former definition: the least code over all rotated diagrams."""
    return min(d.rotated(r).code() for r in range(d.slot_count))


class TestCanonicalCode:
    def test_matches_rotation_oracle(self, rng):
        for n in range(0, 13):
            for _ in range(12):
                d = random_diagram(rng, n, "closed")
                copies = [d] + [d.rotated(rng.randrange(2 * n)) for _ in range(2) if n]
                for c in copies:
                    expected = _canonical_code_oracle(c) if n else c.code()
                    assert c.canonical_code() == expected
                assert len({c.canonical_code() for c in copies}) == 1

    def test_long_is_plain_code(self, rng):
        for n in range(0, 10):
            d = random_diagram(rng, n, "long")
            assert d.canonical_code() == d.code()

    def test_builds_no_diagram(self, rng, monkeypatch):
        d = random_diagram(rng, 9, "closed")
        expected = _canonical_code_oracle(d)
        built = []
        original = GaussDiagram.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(GaussDiagram, "__init__", counting_init)
        assert d.canonical_code() == expected
        assert built == []
        _canonical_code_oracle(d)
        assert len(built) == d.slot_count  # the counter sees constructions


def _structure_key_oracle(d: GaussDiagram) -> tuple:
    """The former equality key: kind and, slot by slot, (chord label by
    first appearance, role, sign)."""
    seen: dict[int, int] = {}
    key = []
    for slot in range(d.slot_count):
        c, role = d.at(slot)
        key.append((seen.setdefault(c.id, len(seen)), role, c.sign))
    return d.kind, tuple(key)


class TestEquality:
    def test_equal_exactly_when_structure_keys_are(self, rng):
        diagrams = []
        for n in range(7):
            for kind in ("closed", "long"):
                for _ in range(14):
                    d = random_diagram(rng, n, kind)
                    ids = [5 * k for k in range(1, n + 1)]
                    rng.shuffle(ids)
                    diagrams += [
                        d,
                        GaussDiagram(
                            kind,
                            (Chord(i, c.tail, c.head, c.sign) for i, c in zip(ids, d.chords)),
                        ),
                    ]
                    if kind == "closed" and n:
                        diagrams.append(d.rotated(rng.randrange(2 * n)))
        oracle = [_structure_key_oracle(d) for d in diagrams]
        equal_pairs = 0
        for a, b in itertools.combinations(range(len(diagrams)), 2):
            same = diagrams[a] == diagrams[b]
            assert same == (oracle[a] == oracle[b]), (diagrams[a], diagrams[b])
            if same:
                assert hash(diagrams[a]) == hash(diagrams[b])
                equal_pairs += 1
        assert equal_pairs  # relabelled copies are equal


class TestSearchKey:
    def test_equal_exactly_when_canonical_codes_are(self, rng):
        diagrams = []
        for n in range(7):
            for kind in ("closed", "long"):
                for _ in range(12):
                    d = random_diagram(rng, n, kind)
                    ids = [7 * k for k in range(1, n + 1)]
                    rng.shuffle(ids)
                    relabelled = GaussDiagram(
                        kind,
                        (Chord(i, c.tail, c.head, c.sign) for i, c in zip(ids, d.chords)),
                    )
                    diagrams += [d, relabelled]
                    if kind == "closed" and n:
                        diagrams.append(d.rotated(rng.randrange(2 * n)))
        keys = [rotation_key(*d._eq_key()) for d in diagrams]
        codes = [(d.kind, d.canonical_code()) for d in diagrams]
        equal_pairs = 0
        for a, b in itertools.combinations(range(len(diagrams)), 2):
            assert (keys[a] == keys[b]) == (codes[a] == codes[b]), (
                diagrams[a], diagrams[b])
            equal_pairs += keys[a] == keys[b]
        assert equal_pairs  # relabelled and rotated copies are equal

    def test_closed_key_is_rotation_invariant(self, rng):
        for n in range(1, 13):
            d = random_diagram(rng, n, "closed")
            assert {rotation_key(*d.rotated(r)._eq_key()) for r in range(2 * n)} == {
                rotation_key(*d._eq_key())}


class TestVirtualize:
    def test_trefoil_chord1(self):
        d = parse_gauss_code(TREFOIL, "closed")
        assert virtualize(d, 1) == parse_gauss_code("U2+ O3+ O2+ U3+", "closed")

    def test_all_chords_gives_empty(self, rng):
        d = random_diagram(rng, 5, "closed")
        for cid in d.chord_ids():
            d = virtualize(d, cid)
        assert d.n == 0

    def test_strictly_decreases(self, rng):
        for _ in range(20):
            d = random_diagram(rng, rng.randint(1, 6), "long")
            cid = rng.choice(d.chord_ids())
            assert virtualize(d, cid).n == d.n - 1

    def test_unknown_chord(self):
        with pytest.raises(DiagramError, match="unknown chord"):
            virtualize(parse_gauss_code(VT), 9)

    def test_virtual_trefoil_reduces_after_one(self):
        d = virtualize(parse_gauss_code(VT), 2)
        assert d.n == 1
        c = d.chords[0]
        assert abs(c.tail - c.head) == 1  # one kink, R1-deletable


class TestBasepoint:
    def test_cut_empty(self):
        assert cut(parse_gauss_code(""), 0).kind == "long"

    def test_cut_at_zero_keeps_tokens(self):
        d = parse_gauss_code(TREFOIL, "closed")
        assert cut(d, 0).code() == TREFOIL

    def test_cut_then_reclose(self):
        d = parse_gauss_code(TREFOIL, "closed")
        for slot in range(d.slot_count + 1):
            back = reclose(cut(d, slot))
            assert back.canonical_code() == d.canonical_code()

    def test_cut_range(self):
        with pytest.raises(DiagramError, match="outside"):
            cut(parse_gauss_code(VT), 9)

    @pytest.mark.parametrize(
        "op, kind, message",
        [
            (lambda d: d.rotated(1), "long", "only closed diagrams can be rotated"),
            (lambda d: cut(d, 0), "long", "cut expects a closed diagram"),
            (reclose, "closed", "reclose expects a long diagram"),
        ],
        ids=["rotated", "cut", "reclose"],
    )
    def test_basepoint_ops_refuse_the_other_kind(self, op, kind, message):
        with pytest.raises(DiagramError, match=f"^{message}$"):
            op(parse_gauss_code(TREFOIL, kind))

    def test_concat_identity(self):
        e = parse_gauss_code("", "long")
        d = parse_gauss_code(TREFOIL, "long")
        assert concat_long(e, d) == d
        assert concat_long(d, e) == d

    def test_concat_counts(self, rng):
        a = random_diagram(rng, 3, "long")
        b = random_diagram(rng, 4, "long")
        assert concat_long(a, b).n == 7

    def test_concat_rejects_closed(self):
        with pytest.raises(DiagramError, match="long"):
            concat_long(parse_gauss_code(VT), parse_gauss_code(VT))


SEPARATORS = (" ", " ", ",", ", ", "\t", "\n", " ,\t", "  \n")
# Characters whose insertion anywhere makes a token invalid.
BAD_CHARACTERS = "xou*.#=Oo"
# Non-ASCII digits, which the grammar refuses though ``int`` reads all but ².
UNICODE_DIGITS = "٣３²३"


def golden_tokens(rng, n):
    """Tokens of a random n-chord code: random labels below 1000, some
    written with leading zeros, endpoints in random order."""
    labels = rng.sample(range(1000), n)
    signs = {label: rng.choice("+-") for label in labels}
    ends = [(label, role) for label in labels for role in "OU"]
    rng.shuffle(ends)
    return [role + "0" * rng.choice((0, 0, 0, 1, 2)) + str(label) + signs[label]
            for label, role in ends]


def golden_join(rng, tokens):
    text = "".join(tok + rng.choice(SEPARATORS) for tok in tokens)
    return rng.choice(("", " ", ",", "\n\t")) + text


def golden_mutant(rng, tokens):
    """``tokens`` with one fault: a dropped token, a repeated role, a
    flipped sign, a bad character, a Unicode digit, or two glued tokens."""
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    tok = tokens[i]
    fault = rng.choice(("drop", "role", "sign", "char", "digit", "glue"))
    if fault == "drop":
        del tokens[i]
    elif fault == "role":
        tokens[i] = {"O": "U", "U": "O"}.get(tok[0], "O") + tok[1:]
    elif fault == "sign":
        tokens[i] = tok[:-1] + {"+": "-", "-": "+"}.get(tok[-1], "+")
    elif fault == "char":
        at = rng.randrange(len(tok) + 1)
        tokens[i] = tok[:at] + rng.choice(BAD_CHARACTERS) + tok[at:]
    elif fault == "digit":
        at = rng.randrange(1, len(tok) - 1)
        tokens[i] = tok[:at] + rng.choice(UNICODE_DIGITS) + tok[at + 1:]
    elif i + 1 < len(tokens):
        tokens[i:i + 2] = [tok + tokens[i + 1]]
    else:
        tokens[i - 1:i + 1] = [tokens[i - 1] + tok]
    return tokens


def golden_outcome(read):
    """What ``read()`` gives: its diagrams' kind, chords and code, or the
    type and text of what it raised."""
    try:
        out = read()
    except (ParseError, DiagramError) as exc:
        return type(exc).__name__, str(exc)
    return [(d.kind, [(c.id, c.tail, c.head, c.sign) for c in d.chords], d.code())
            for d in (out if isinstance(out, list) else [out])]


class TestParseGolden:
    """One sha256 over what ``parse_gauss_code`` and ``read_diagram_file``
    give on seeded codes, valid ones and mutants with one or two faults,
    derived before the parser read its tokens in one pass, so that any
    change to the chords, kind, code or refusal text shows."""

    def test_valid_codes(self):
        rng = random.Random(2901)
        h = hashlib.sha256()
        for n in range(61):
            for kind in ("closed", "long"):
                for _ in range(3):
                    text = golden_join(rng, golden_tokens(rng, n))
                    h.update(repr(golden_outcome(lambda: parse_gauss_code(text, kind))).encode())
        assert h.hexdigest() == (
            "92b0f491128310622b627c0e342753b7712a6fb521aac4013d0eadeab56b81bb")

    def test_mutant_refusals(self):
        rng = random.Random(2902)
        h = hashlib.sha256()
        for _ in range(1500):
            tokens = golden_tokens(rng, rng.randint(1, 40))
            for _ in range(rng.choice((1, 1, 2))):
                if tokens:
                    tokens = golden_mutant(rng, tokens)
            text = golden_join(rng, tokens)
            kind = rng.choice(("closed", "long"))
            h.update(repr(golden_outcome(lambda: parse_gauss_code(text, kind))).encode())
        assert h.hexdigest() == (
            "4ed5c20f8415fbf7cb50be2a0d3eb5f1fc265d54e5dafe52bccdbd9efa0d0d79")

    def test_file_line_errors(self):
        rng = random.Random(2903)
        h = hashlib.sha256()
        for _ in range(300):
            lines = []
            for _ in range(rng.randint(1, 6)):
                tokens = golden_tokens(rng, rng.randint(0, 8))
                if tokens and rng.random() < 0.3:
                    tokens = golden_mutant(rng, tokens)
                prefix = rng.choice(("", "", "long: ", "closed:", " long:"))
                comment = rng.choice(("", "", " # note", "#"))
                lines.append(prefix + golden_join(rng, tokens).replace("\n", " ") + comment)
                if rng.random() < 0.2:
                    lines.append(rng.choice(("", "# comment", "   ")))
            text = "\n".join(lines)
            kind = rng.choice(("closed", "long"))
            h.update(repr(golden_outcome(lambda: read_diagram_file(text, kind))).encode())
        assert h.hexdigest() == (
            "2712e3f84111b90be137f310952a0a47438bd790fc95ea2c22a5710e6e729134")

    def test_named_mutants(self):
        cases = {
            "O1+ U1+ O2+": "label 2: missing its U token",
            "O1+ O1+ U1+": "token 'O1+': label 1 already has an O endpoint",
            "O1+ U1-": "label 1: sign mismatch between its O and U tokens",
            "O1+ U1* ": "bad token 'U1*': expected O<label>+/- or U<label>+/-",
            "O٣+ U٣+": "bad token 'O٣+': expected O<label>+/- or U<label>+/-",
            "O1+U1+": "bad token 'O1+U1+': expected O<label>+/- or U<label>+/-",
            "O1+ O1+ x": "token 'O1+': label 1 already has an O endpoint",
            "O1+ x O1+": "bad token 'x': expected O<label>+/- or U<label>+/-",
        }
        for text, message in cases.items():
            with pytest.raises(ParseError) as info:
                parse_gauss_code(text)
            assert str(info.value) == message


class TestLoadJson:
    class Refused(DiagramError):
        pass

    def test_valid_json(self):
        assert load_json(b'{"a": [1, -2]}', "input", self.Refused) == {"a": [1, -2]}

    @pytest.mark.parametrize(
        "data, detail",
        [
            ("{", "Expecting property name"),
            (b'{"a": "\xff"}', "'utf-8' codec can't decode"),
            ("9" * 5000, "integer string conversion"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["syntax", "not-utf8", "long-int", "deep"],
    )
    def test_refusals_take_the_callers_class(self, data, detail):
        with pytest.raises(self.Refused) as info:
            load_json(data, "input", self.Refused)
        assert str(info.value).startswith("input is not valid JSON: ")
        assert detail in str(info.value) and "\n" not in str(info.value)


class TestChordRefusals:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1, 0, 1, 1.0), "chord 1: sign must be an int, not float"),
            ((1, 0, 1, True), "chord 1: sign must be an int, not bool"),
            ((True, 0, 1, 1), "chord True: id must be an int, not bool"),
            ((1, 0.0, 1, 1), "chord 1: tail must be an int, not float"),
            ((1, 0, "1", 1), "chord 1: head must be an int, not str"),
            (("a", 0, 1, 1), "chord 'a': id must be an int, not str"),
            ((1, 0.0, 1.0, 1.0), "chord 1: tail must be an int, not float"),
            ((1, 0, 1, 0), "chord 1: sign must be +1 or -1"),
            ((1, 0, 1, 2), "chord 1: sign must be +1 or -1"),
            ((4, 2, 2, 1), "chord 4: tail and head occupy the same slot"),
            ((4, 2, 2, 0), "chord 4: sign must be +1 or -1"),
        ],
    )
    def test_message(self, fields, message):
        with pytest.raises(DiagramError) as info:
            Chord(*fields)
        assert str(info.value) == message

    def test_other_end_of_a_slot_off_the_chord(self):
        c = Chord(4, 2, 5, 1)
        assert (c.other(2), c.other(5)) == (5, 2)
        for slot in (0, 3, -2):
            with pytest.raises(DiagramError, match=f"^slot {slot} is not an endpoint of chord 4$"):
                c.other(slot)

    def test_non_int_slot_refused_before_the_diagram(self):
        with pytest.raises(DiagramError, match=r"^chord 1: tail must be an int, not float$"):
            GaussDiagram("closed", [Chord(1, 0.0, 1, 1)])

    def test_replace_keeps_the_checks(self):
        c = Chord(1, 0, 1, 1)
        assert c._replace(sign=-1) == Chord(1, 0, 1, -1)
        with pytest.raises(DiagramError, match="sign must be"):
            c._replace(sign=0)
        with pytest.raises(DiagramError, match="same slot"):
            Chord._make((1, 3, 3, 1))

    def test_is_its_field_tuple(self):
        c = Chord(3, 5, 2, -1)
        assert (c.id, c.tail, c.head, c.sign) == (3, 5, 2, -1)
        assert c == (3, 5, 2, -1) and hash(c) == hash((3, 5, 2, -1))
        assert repr(c) == "Chord(id=3, tail=5, head=2, sign=-1)"
        assert sorted([Chord(2, 0, 1, 1), Chord(1, 2, 3, 1)])[0].id == 1
        with pytest.raises(AttributeError):
            c.sign = 1


def construction_oracle(kind, chords):
    """The message of the first fault that a diagram of ``chords`` has, in
    the order the checks were first written: the kind, then the chords by
    id (input order among equal ids), each its id, its tail slot, then its
    head slot; None when there is none."""
    if kind not in ("closed", "long"):
        return f"unknown diagram kind {kind!r}"
    chords = sorted(chords, key=lambda c: c.id)
    m = 2 * len(chords)
    seen_ids, used = [], []
    for c in chords:
        if c.id in seen_ids:
            return f"duplicate chord id {c.id}"
        seen_ids.append(c.id)
        for slot in (c.tail, c.head):
            if not 0 <= slot < m:
                return f"chord {c.id}: slot {slot} outside [0, {m})"
            if slot in used:
                return f"slot {slot} used by two endpoints"
            used.append(slot)
    return None


class TestDiagramRefusals:
    @pytest.mark.parametrize(
        "kind, chords, message",
        [
            ("open", [], "unknown diagram kind 'open'"),
            ("open", [(1, 0, 5, 1)], "unknown diagram kind 'open'"),
            ("closed", [(1, 0, 1, 1), (1, 2, 3, 1)], "duplicate chord id 1"),
            ("long", [(1, 0, 5, 1), (2, 1, 2, 1)], "chord 1: slot 5 outside [0, 4)"),
            ("closed", [(1, -1, 0, 1)], "chord 1: slot -1 outside [0, 2)"),
            ("closed", [(1, 0, 1, 1), (2, 1, 2, 1)], "slot 1 used by two endpoints"),
            # two faults: the first chord in id order is named, whatever
            # the input order
            ("closed", [(2, 0, 9, 1), (1, 0, 7, 1)], "chord 1: slot 7 outside [0, 4)"),
            ("closed", [(5, 0, 9, 1), (3, 1, 2, 1), (3, 0, 4, -1)], "duplicate chord id 3"),
            ("long", [(3, 0, 9, 1), (1, 0, 1, 1), (2, 1, 2, 1)],
             "slot 1 used by two endpoints"),
            ("closed", [(2, 1, 0, 1), (1, 0, 3, 1)], "slot 0 used by two endpoints"),
            # within a chord the tail is checked before the head
            ("closed", [(1, 9, 8, 1)], "chord 1: slot 9 outside [0, 2)"),
            ("closed", [(1, 0, 1, 1), (2, 3, 0, 1)], "slot 0 used by two endpoints"),
        ],
    )
    def test_message(self, kind, chords, message):
        chords = [Chord(*c) for c in chords]
        assert construction_oracle(kind, chords) == message
        with pytest.raises(DiagramError) as info:
            GaussDiagram(kind, chords)
        assert str(info.value) == message

    def test_seeded_faults_match_the_oracle(self):
        rng = random.Random(2904)
        refused = 0
        for _ in range(3000):
            n = rng.randint(1, 9)
            d = random_diagram(rng, n, "closed")
            chords = list(d.chords)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(n)
                c = chords[i]
                cid, tail, head, sign = c.id, c.tail, c.head, c.sign
                fault = rng.randrange(3)
                if fault == 0:
                    cid = rng.choice(chords).id
                elif fault == 1:
                    tail = rng.randint(-3, 2 * n + 3)
                else:
                    head = rng.randint(-3, 2 * n + 3)
                if tail != head:
                    chords[i] = Chord(cid, tail, head, sign)
            rng.shuffle(chords)
            kind = rng.choice(("closed", "long", "closed", "long", "line"))
            expected = construction_oracle(kind, chords)
            try:
                built = GaussDiagram(kind, chords)
            except DiagramError as exc:
                assert str(exc) == expected, chords
                refused += 1
            else:
                assert expected is None, chords
                assert built.chords == tuple(sorted(chords))
        assert refused > 1500
