import argparse
import hashlib
import io
import json
import random
import signal
import sys

import jsonschema
import pytest

from vknots import cli, forbidden, schemas
from vknots.cli import main
from vknots.arrows import ArrowError, gpv_alt_sum, v21, v22
from vknots.braids import BraidError
from vknots.corpus import GPV2_TRIVIAL, RIGHT_TREFOIL, VIRTUAL_TREFOIL, random_diagram
from vknots.diagram import DiagramError, GaussDiagram, ParseError, parse_gauss_code
from vknots.forbidden import FamilyError
from vknots.khovanov import MAX_CAP_CHORDS, CapExceeded, GradedDims
from vknots.laurent import LaurentPoly
from vknots.moves import MoveError, apply_move, enumerate_moves, simplify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, [json.loads(line) for line in out.strip().splitlines() if line]


class TestKh:
    def test_unknot_table(self, capsys):
        code, (report,) = run_json(capsys, "kh", "--code", "")
        assert code == 0
        assert report["table"] == [
            {"dim": 1, "i": 0, "j": -1},
            {"dim": 1, "i": 0, "j": 1},
        ]
        assert report["euler_check"] == "ok"
        jsonschema.validate(report, schemas.KH_REPORT)

    def test_trefoil(self, capsys):
        code, (report,) = run_json(capsys, "kh", "--code", RIGHT_TREFOIL)
        assert code == 0 and report["writhe"] == 3
        assert report["jones_hat"] == [[1, 1], [1, 3], [1, 5], [-1, 9]]
        jsonschema.validate(report, schemas.KH_REPORT)

    def test_cap_exceeded_is_exit_2(self, capsys, tmp_path):
        code, (report,) = run_json(
            capsys, "kh", "--code", RIGHT_TREFOIL, "--cap-chords", "2"
        )
        assert code == 2 and report["skipped"] is True

    def test_cap_judged_on_the_input(self, capsys):
        # two R2 pads make a 7-chord trefoil that simplify takes back to
        # 3 chords; the cap still applies to the 7 chords given
        d = parse_gauss_code(RIGHT_TREFOIL, "closed")
        for _ in range(2):
            d = apply_move(d, enumerate_moves(d, ["R2_add"])[0])
        assert d.n == 7 and simplify(d)[0].n == 3
        code, (report,) = run_json(capsys, "kh", "--code", d.code(), "--cap-chords", "5")
        assert code == 2 and report == {"code": d.code(), "skipped": True, "chords": 7}
        code, (report,) = run_json(capsys, "kh", "--code", d.code(), "--cap-chords", "7")
        assert code == 0 and report["writhe"] == 3 and report["euler_check"] == "ok"

    def test_stdin_input_prints_what_code_does(self, capsys, monkeypatch):
        want = run(capsys, "kh", "--code", RIGHT_TREFOIL)
        monkeypatch.setattr(sys, "stdin", io.StringIO(RIGHT_TREFOIL + "\n"))
        assert run(capsys, "kh", "--input", "-") == want and want[0] == 0

    def test_no_input_is_exit_1(self, capsys):
        code = main(["kh"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: no input: pass --input FILE or --code 'O1+ ...'\n"

    @pytest.mark.parametrize("cap", ["17", "40", "-1"])
    def test_cap_outside_ceiling_is_exit_1(self, capsys, cap):
        code = main(["kh", "--code", RIGHT_TREFOIL, "--cap-chords", cap])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"between 0 and {MAX_CAP_CHORDS}" in captured.err
        assert "Traceback" not in captured.err


class TestEval:
    def test_long_trefoil_v21(self, capsys):
        code, (report,) = run_json(
            capsys, "eval", "--code", RIGHT_TREFOIL, "--kind", "long"
        )
        assert code == 0
        row = report["diagrams"][0]
        assert row["v21"] == 1 and row["v22"] == 1
        jsonschema.validate(report, schemas.EVAL_REPORT)

    def test_arrow_poly_flag(self, capsys, tmp_path):
        poly = {
            "kind": "long",
            "terms": [
                {
                    "coeff": 1,
                    "endpoints": [["1", "t"], ["2", "h"], ["1", "h"], ["2", "t"]],
                }
            ],
        }
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly))
        code, (report,) = run_json(
            capsys,
            "eval",
            "--code",
            RIGHT_TREFOIL,
            "--kind",
            "long",
            "--arrow-poly",
            str(path),
        )
        assert code == 0 and report["diagrams"][0]["arrow_pairing"] == 1

    @pytest.mark.parametrize("terms", [[], [{"coeff": 1, "endpoints": [["1", "t"], ["1", "h"]]}]])
    def test_arrow_poly_of_the_other_kind_is_null(self, capsys, tmp_path, terms):
        # an empty closed polynomial is still closed: no pairing on a long diagram
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"kind": "closed", "terms": terms}))
        code, (report,) = run_json(capsys, "eval", "--code", RIGHT_TREFOIL, "--kind", "long",
                                   "--arrow-poly", str(path))
        assert code == 0 and report["diagrams"][0]["arrow_pairing"] is None

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(f"# corpus\n{VIRTUAL_TREFOIL}\nlong: {RIGHT_TREFOIL}\n")
        code, (report,) = run_json(capsys, "eval", "--input", str(path))
        assert code == 0 and len(report["diagrams"]) == 2

    def test_parse_error_is_exit_1(self, capsys):
        code = main(["eval", "--code", "O1+ U1-"])
        assert code == 1

    def test_cap_exceeded_is_exit_2(self, capsys):
        code = main(["eval", "--code", RIGHT_TREFOIL, "--cap-chords", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "capped at 2 chords" in captured.err
        assert "Traceback" not in captured.err


class TestSums:
    def test_gpv_sum_vanishes(self, capsys):
        code, (report,) = run_json(
            capsys,
            "gpv-sum",
            "--code",
            RIGHT_TREFOIL,
            "--kind",
            "long",
            "--invariant",
            "v21",
            "--chords",
            "1,2,3",
        )
        assert code == 0 and report["values"] == [0]
        jsonschema.validate(report, schemas.SUM_REPORT)

    def test_unknown_chord_is_exit_1(self, capsys):
        code = main(
            ["gpv-sum", "--code", RIGHT_TREFOIL, "--kind", "long", "--chords", "7"]
        )
        assert code == 1

    def test_f_sum(self, capsys, tmp_path):
        fam = {"mode": "F", "families": [[{"slots": [0, 1], "kind": "Fo"}]]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(fam))
        code, (report,) = run_json(
            capsys,
            "f-sum",
            "--code",
            VIRTUAL_TREFOIL,
            "--kind",
            "long",
            "--families",
            str(path),
        )
        assert code == 0 and len(report["values"]) == 1
        jsonschema.validate(report, schemas.SUM_REPORT)

class TestGpvSumCounts:
    """gpv-sum counts the chord pairs that contain the chosen chords: the
    values, errors and exit codes of the alternating sum over deletions."""

    def test_equals_the_alternating_sum(self, capsys):
        rng = random.Random(2020)
        for n in range(61):
            # the code renumbers the chords, so the ids are read from its parse
            d = parse_gauss_code(random_diagram(rng, n, "long").code(), "long")
            name, fn = (("v21", v21), ("v22", v22))[n % 2]
            size = min(n % 5, n)
            chosen = rng.sample(d.chord_ids(), size)
            listed = chosen + chosen[:1]  # a repeated chord counts once
            code, (report,) = run_json(capsys, "gpv-sum", "--code", d.code(), "--kind", "long",
                                       "--invariant", name, "--chords", ",".join(map(str, listed)))
            assert code == 0 and report["values"] == [gpv_alt_sum(fn, d, chosen)], (d.code(), chosen)

    def test_deletes_no_chord(self, capsys, monkeypatch):
        calls = []
        delete = GaussDiagram.delete_chords

        def counting(self, ids):
            calls.append(ids)
            return delete(self, ids)

        monkeypatch.setattr(GaussDiagram, "delete_chords", counting)
        d = parse_gauss_code(random_diagram(random.Random(60), 60, "long").code(), "long")
        code, (report,) = run_json(capsys, "gpv-sum", "--code", d.code(), "--kind", "long",
                                   "--chords", "7,41")
        assert code == 0 and calls == []
        monkeypatch.setattr(GaussDiagram, "delete_chords", delete)
        assert report["values"] == [gpv_alt_sum(v21, d, [7, 41])]

    @pytest.mark.parametrize(
        "kind, chords, err",
        [
            # the first unknown id in sorted order is named, before the kind
            ("long", "9,7,1", "error: unknown chord id 7\n"),
            ("closed", "9,7,1", "error: unknown chord id 7\n"),
            ("closed", "1,2", "error: v21 is defined for long diagrams\n"),
            ("closed", "", "error: v21 is defined for long diagrams\n"),
        ],
    )
    def test_errors(self, capsys, kind, chords, err):
        code = main(["gpv-sum", "--code", RIGHT_TREFOIL, "--kind", kind, "--chords", chords])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == err

    def test_error_on_a_later_diagram_prints_no_values(self, capsys, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text(f"{RIGHT_TREFOIL}\nO1+ U1+\n")
        code = main(["gpv-sum", "--input", str(path), "--kind", "long", "--chords", "1,3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == "error: unknown chord id 3\n"


class TestSumCaps:
    """f-sum evaluates the invariant 2**|S| times per diagram and gpv-sum
    once, on the matches that contain the chords; more chords or sites than
    --cap-chords are refused before the first evaluation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []

        def counting(d, containing=()):
            counter.append(d)
            return 0

        monkeypatch.setitem(cli.INVARIANTS, "v21", counting)
        return counter

    def test_gpv_sum(self, capsys, calls):
        argv = ["gpv-sum", "--code", RIGHT_TREFOIL, "--kind", "long", "--chords", "1,2,3,3"]
        code = main(argv + ["--cap-chords", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        assert "gpv-sum capped at 2 chords, got 3" in captured.err
        code, (report,) = run_json(capsys, *argv, "--cap-chords", "3")
        assert code == 0 and report["values"] == [0] and len(calls) == 1

    def test_f_sum(self, capsys, tmp_path, calls):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"mode": "F", "families": [[
            {"slots": [0, 1], "kind": "Fo"}, {"slots": [4, 5], "kind": "Fo"}]]}))
        argv = ["f-sum", "--code", "O1+ O2+ U1+ U2+ O3+ O4+ U3+ U4+", "--kind", "long",
                "--families", str(path)]
        code = main(argv + ["--cap-chords", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        assert "f-sum capped at 1 sites, got 2" in captured.err
        code, (report,) = run_json(capsys, *argv, "--cap-chords", "2")
        assert code == 0 and report["values"] == [0] and len(calls) == 4


class TestNTrivial:
    def test_family_cap_refuses_before_any_certificate(self, capsys, tmp_path, monkeypatch):
        # check_n_trivial certifies 2**|families| - 1 subsets
        calls = []
        certify = forbidden.certify_trivial

        def counting(*args, **kwargs):
            calls.append(args[0])
            return certify(*args, **kwargs)

        monkeypatch.setattr(forbidden, "certify_trivial", counting)
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[1], [2], [3]]}')
        argv = ["ntrivial", "--code", GPV2_TRIVIAL, "--kind", "long", "--families", str(path)]
        code = main(argv + ["--cap-chords", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        assert "ntrivial capped at 2 families, got 3" in captured.err
        code, (report,) = run_json(capsys, *argv, "--cap-chords", "3")
        assert code == 0 and len(report["subsets"]) == 7 and len(calls) == 7

    def test_gpv2_example(self, capsys, tmp_path):
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[1, 2], [3, 4]]}')
        code, (report,) = run_json(
            capsys,
            "ntrivial",
            "--code",
            GPV2_TRIVIAL,
            "--kind",
            "long",
            "--families",
            str(path),
        )
        assert code == 0 and report["aggregate"] is True
        assert len(report["subsets"]) == 3
        jsonschema.validate(report, schemas.NTRIVIAL_REPORT)


    def test_cap_chords_bounds_the_jones_row(self, capsys, tmp_path):
        # dropping the kink leaves the right trefoil, which jones_hat
        # refutes within the cap; above it the subset stays unknown, since
        # its writhe polynomial is 0.  The virtual trefoil's is not, so
        # the writhe row refutes it above the cap too
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[4]]}')
        argv = ["ntrivial", "--code", RIGHT_TREFOIL + " O4+ U4+", "--families", str(path)]
        code, (report,) = run_json(capsys, *argv)
        assert code == 0 and report["subsets"][0]["status"] == "refuted"
        assert report["subsets"][0]["witness"][0] == "jones_hat"
        code, (report,) = run_json(capsys, *argv, "--cap-chords", "2")
        assert code == 2 and report["subsets"][0]["status"] == "unknown"
        assert report["subsets"][0]["witness"] is None
        path.write_text('{"mode": "GPV", "families": [[3]]}')
        argv = ["ntrivial", "--code", VIRTUAL_TREFOIL + " O3+ U3+", "--families", str(path)]
        code, (report,) = run_json(capsys, *argv, "--cap-chords", "1")
        assert code == 0 and report["subsets"][0]["status"] == "refuted"
        assert report["subsets"][0]["witness"] == ["writhe", "t^-1 - 2 + t", "0"]

    def test_khovanov_row_refutes_when_jones_matches(self, capsys, tmp_path, monkeypatch):
        # no seeded random diagram of 3-9 chords has the unknot's jones_hat
        # and another Z2 table, so both rows are stubbed; the search cannot
        # empty the virtual trefoil left after dropping the kink
        table = {(0, -1): 1, (0, 1): 1, (1, 3): 1}
        read = []

        def jones_hat(d):
            read.append(("jones_hat", d.code()))
            return forbidden.UNKNOT_JONES

        def homology(d, cap):
            read.append(("homology", d.code()))
            return GradedDims.from_dict(table)

        monkeypatch.setattr(forbidden, "jones_hat", jones_hat)
        monkeypatch.setattr(forbidden, "homology", homology)
        witness = ("khovanov", "{(0, -1): 1, (0, 1): 1, (1, 3): 1}", "{(0, -1): 1, (0, 1): 1}")
        v = forbidden.certify_trivial(parse_gauss_code(VIRTUAL_TREFOIL))
        assert (v.status, v.witness) == ("refuted", witness)
        assert read == [("jones_hat", VIRTUAL_TREFOIL), ("homology", VIRTUAL_TREFOIL)]
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[3]]}')
        argv = ["ntrivial", "--code", VIRTUAL_TREFOIL + " O3+ U3+", "--families", str(path)]
        code, (report,) = run_json(capsys, *argv)
        assert code == 0 and report["subsets"][0]["status"] == "refuted"
        assert report["subsets"][0]["witness"] == list(witness)

    def test_unknown_subsets_named_on_stderr(self, capsys, tmp_path):
        # with no node to expand, the search certifies only the subset that
        # toggles to the empty diagram; the other two stay unknown
        families = tmp_path / "fams.json"
        families.write_text('{"mode": "GPV", "families": [[1, 2], [3, 4]]}')
        codes = tmp_path / "codes.txt"
        codes.write_text(f"{GPV2_TRIVIAL}\n{GPV2_TRIVIAL}\n")
        argv = ["ntrivial", "--input", str(codes), "--kind", "long",
                "--families", str(families)]
        code = main(argv + ["--budget", "0"])
        captured = capsys.readouterr()
        assert code == 2
        line = (
            '{"aggregate":false,"mode":"GPV","subsets":[{"families":[0],"status":"unknown",'
            '"trace_length":null,"witness":null},{"families":[0,1],"status":"certified",'
            '"trace_length":0,"witness":null},{"families":[1],"status":"unknown",'
            '"trace_length":null,"witness":null}]}\n'
        )
        assert captured.out == 2 * line
        assert captured.err == (
            "ntrivial: 4 of 6 subsets unknown (neither emptied by the R-move "
            "search nor refuted): 4 with --budget 0 spent\n"
        )
        assert main(argv) == 0 and capsys.readouterr().err == ""

    def test_cap_named_when_it_kept_subsets_unknown(self, capsys, tmp_path):
        # no move applies to the right trefoil left after dropping the
        # kink, and its writhe polynomial is 0, so the cap on its Jones and
        # Khovanov rows, not the budget, keeps the subset unknown
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[4]]}')
        argv = ["ntrivial", "--code", RIGHT_TREFOIL + " O4+ U4+", "--families", str(path)]
        code = main(argv + ["--cap-chords", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "ntrivial: 1 of 1 subsets unknown (neither emptied by the R-move "
            "search nor refuted): 1 with the Jones and Khovanov rows skipped "
            "above --cap-chords 2\n"
        )

    def test_ended_search_named_when_no_limit_was_reached(self, capsys, tmp_path):
        # deleting chord 5 leaves random_diagram(Random(91), 4, "closed"),
        # which no move applies to and whose every battery row, the writhe
        # polynomial's included, matches the unknot's; neither --budget nor
        # --cap-chords stopped anything
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[5]]}')
        argv = ["ntrivial", "--code", "U1- U2+ O1- O3- O2+ O4+ U3- U4+ O5+ U5+",
                "--families", str(path)]
        stdout = None
        for extra in ([], ["--budget", "100000", "--cap-chords", "16"]):
            code = main(argv + extra)
            captured = capsys.readouterr()
            assert code == 2 and stdout in (None, captured.out)
            stdout = captured.out
            assert captured.err.endswith(
                "with the R-move search ended and every battery row matching "
                "the unknot's\n"
            )
            assert "--budget" not in captured.err and "--cap-chords" not in captured.err

    @pytest.mark.parametrize(
        "codes, families, err",
        [
            (["O1+ U2+ O3+ U1+ O2+ U3+", "O1+ O2+ U1+ U2+"], {"mode": "GPV", "families": [[3]]},
             "error: unknown chord id 3\n"),
            (["O1+ O2+ U1+ U2+", "O1+ U2+ O3+ U1+ O2+ U3+"],
             {"mode": "F", "families": [[{"slots": [0, 1], "kind": "Fo"}]]},
             "error: slots (0, 1) are not a Fo triangle\n"),
        ],
        ids=["gpv-unknown-chord", "f-stale-site"],
    )
    def test_error_on_a_later_diagram_prints_no_report(self, capsys, tmp_path, codes,
                                                       families, err):
        path = tmp_path / "fams.json"
        path.write_text(json.dumps(families))
        inp = tmp_path / "codes.txt"
        argv = ["ntrivial", "--input", str(inp), "--families", str(path)]
        # the first diagram alone gets its report; the second is refused
        inp.write_text(f"{codes[0]}\n")
        code, (report,) = run_json(capsys, *argv)
        assert code in (0, 2) and report["subsets"]
        inp.write_text("\n".join(codes) + "\n")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == err


class TestTrivialize:
    def test_virtual_trefoil(self, capsys):
        code, (report,) = run_json(capsys, "trivialize", "--code", VIRTUAL_TREFOIL)
        assert code == 0
        res = report["results"][0]
        assert res["found"] and res["replayed_empty"]
        jsonschema.validate(report, schemas.TRIVIALIZE_REPORT)

    def test_budget_exhaustion_exit_2(self, capsys):
        code, (report,) = run_json(
            capsys, "trivialize", "--code", VIRTUAL_TREFOIL, "--depth", "1"
        )
        assert code == 2 and report["results"][0]["found"] is False

    def test_exhausted_depth_named_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("O1+ U1+\nO1- O2- U1- U2-\n")
        code = main(["trivialize", "--input", str(path), "--depth", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (
            '{"results":[{"code":"O1+ U1+","found":true,"replayed_empty":true,'
            '"trace":[["R1_del",[0,1,"OU"]]]},{"code":"O1- O2- U1- U2-","found":false,'
            '"replayed_empty":null,"trace":null}]}\n'
        )
        assert captured.err == "trivialize: --depth 1 exhausted: no trace for 1 of 2 diagrams\n"

    @pytest.mark.parametrize("depth", ["8", "100000000"])
    def test_move_graph_running_out_is_named_on_stderr(self, capsys, depth):
        # no move sequence empties the right trefoil: the move graph runs
        # out at depth limit 4, so no --depth is to blame
        code = main(["trivialize", "--code", "O1+ U2+ O3+ U1+ O2+ U3+", "--depth", depth])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (
            '{"results":[{"code":"O1+ U2+ O3+ U1+ O2+ U3+","found":false,'
            '"replayed_empty":null,"trace":null}]}\n'
        )
        assert captured.err == (
            f"trivialize: the move graph ran out with --depth {depth} unspent: "
            "no trace at any depth for 1 of 1 diagrams\n"
        )

    def test_each_stop_is_named_for_its_diagrams(self, capsys, tmp_path):
        # five positive kinks need five R1 deletions, more than --depth 4;
        # the right trefoil's move graph runs out at depth limit 4
        path = tmp_path / "three.txt"
        path.write_text("O1+ U1+\nO1+ U1+ O2+ U2+ O3+ U3+ O4+ U4+ O5+ U5+\n"
                        "O1+ U2+ O3+ U1+ O2+ U3+\n")
        code = main(["trivialize", "--input", str(path), "--depth", "4"])
        assert code == 2
        assert capsys.readouterr().err == (
            "trivialize: --depth 4 exhausted: no trace for 1 of 3 diagrams\n"
            "trivialize: the move graph ran out with --depth 4 unspent: "
            "no trace at any depth for 1 of 3 diagrams\n"
        )

    def test_found_trace_writes_no_stderr(self, capsys):
        code = main(["trivialize", "--code", VIRTUAL_TREFOIL])
        assert code == 0 and capsys.readouterr().err == ""


    @pytest.mark.parametrize("flag", ["--depth", "--budget"])
    def test_negative_depth_is_exit_1(self, capsys, flag):
        code = main(["trivialize", "--code", VIRTUAL_TREFOIL, flag, "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--depth" in captured.err and "got -1" in captured.err
        assert "Traceback" not in captured.err


class TestBudgetFlag:
    def test_ntrivial_negative_budget_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[1, 2], [3, 4]]}')
        code = main(["ntrivial", "--code", GPV2_TRIVIAL, "--kind", "long",
                     "--families", str(path), "--budget", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--budget" in captured.err and "got -1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["eval", "kh", "lemma5"])
    def test_negative_budget_refused_everywhere(self, capsys, command):
        code = main([command, "--code", RIGHT_TREFOIL, "--budget", "-5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "--budget" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["kh"],
            ["lemma5"],
            ["gpv-sum", "--kind", "long", "--chords", "1"],
            ["f-sum", "--kind", "long", "--families", "unread.json"],
        ],
    )
    def test_budget_only_where_it_is_read(self, capsys, argv):
        code = main(argv + ["--code", RIGHT_TREFOIL, "--budget", "5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unrecognized arguments: --budget 5" in captured.err

    @pytest.mark.parametrize("cap", ["0", "5"])
    def test_trivialize_refuses_cap_chords(self, capsys, cap):
        # trivialize's search is bounded by --depth and --max-nodes
        code = main(["trivialize", "--code", "O1+ O2+ U1+ U2+", "--cap-chords", cap])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"unrecognized arguments: --cap-chords {cap}" in captured.err


class TestEmptyInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ntrivial", "--families", "FAMILIES"],
            ["gpv-sum", "--kind", "long", "--chords", "1"],
        ],
    )
    def test_is_exit_1(self, capsys, tmp_path, argv):
        (tmp_path / "fams.json").write_text('{"mode": "GPV", "families": [[1]]}')
        path = tmp_path / "empty.txt"
        path.write_text("# no codes\n\n")
        argv = [str(tmp_path / "fams.json") if a == "FAMILIES" else a for a in argv]
        code = main(argv + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: no diagrams in input\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trivialize", "--code", "O1+ U1+", "--depth", "x"],
            ["nosuch", "--code", "O1+ U1+"],
            ["kh", "--code", RIGHT_TREFOIL, "--kind", "braided"],
        ],
    )
    def test_argparse_errors_are_exit_1(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "usage: vknots" in captured.err and "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trivialize", "--help"])
        assert exc.value.code == 0
        assert "--depth" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gpv-sum", "--code", RIGHT_TREFOIL, "--kind", "long", "--chords", "1,x"],
             "--chords"),
            (["braid", "--scan", "1-3"], "--scan"),
            (["braid", "--scan", "5:2"], "--scan"),
        ],
    )
    def test_bad_flag_values_name_the_flag(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"argument {flag}:" in captured.err
        assert "Traceback" not in captured.err


class TestCliGolden:
    """The exact bytes argparse gives each of a fixed list of command lines:
    sha256 of the JSON list (argv, exit code, stdout, stderr), with help
    and usage text wrapped at 80 columns.  The digests were taken with the
    argparse of CPython 3.11; another version's help layout is a new
    recording, not a regression."""

    T = RIGHT_TREFOIL
    CASES = [
        ([], "fc9c5979d1f2dd79355d13f68dcaa07e178964c3fd79a0569053267524be61c6"),
        (["-h"], "17cb0d19ef50db6bce6b376ef96d0960fac1fb724a43515d6cfbf5b7af865cca"),
        (["--help"], "5fe5c9ccd045ceb29a7eea5aa2bfc63cb05388208dbbceff78855ea1d1ef002d"),
        (["-h", "eval"], "3c5bf887a3eed28c6984098762e7cf6fcb79754a971569dd73234577011fe262"),
        (["nosuch", "--code", T],
         "9cb288f4dd8141428e3e83d9177df746b13866c4bfd2cc4608f7ff51589554ca"),
        (["EVAL", "--code", T],
         "93585bf95ce8fc1544f154405c96af2cf2985da3b68e4a95291ca3ba7dd6966c"),
        (["eva", "--code", T],
         "8c3cdfb01500aa898efc9d60f71e8ddbaa3adc95213025039a3a2047cfcbedf0"),
        (["eval", "-h"], "964ead64c4410bc4b9032a4fefdf005a71d3d70ce22be45810f96e6e570f2773"),
        (["eval", "--he"], "f73e62cbe4275220f0fb45dee500d3e790d73e1161da7d1666ad71f539d5b264"),
        (["eval", "--co", T],
         "3ccefefe551368a2d0f42aa4ccea95c432cc58361ddcf1d147fdeb2607cd7b29"),
        (["eval", f"--code={T}"],
         "9a856036192c2a4d4cdaa77b81171afc83ea4459af5be3571eb50a3e95a1b7db"),
        (["eval", "--code", T, "--", "--kind", "long"],
         "27e64e3530959f0579a6b3370279da8bc2b4e9989554174f52336d95bccab83b"),
        (["eval", "--code", T, "stray"],
         "d3d597f036585c6aa170696e193edf66d1281922082934b29e4740d465c7a841"),
        (["eval", "--code", T, "--nosuch"],
         "2bb0aa5b7e64a05531a2f0541b5bae7e8a0c53c37147ef448b94ce2075780a5e"),
        (["kh", "--code", T, "--kind", "braided"],
         "f68086882c3ea8e203dbb778a4a6ec7a444fdc8bf27adff409bad881b86145ab"),
        # re-derived when trivialize got --max-nodes, which its usage lists
        (["trivialize", "--code", VIRTUAL_TREFOIL, "--depth", "x"],
         "2f1ff4fa349017aad64b6cc1e6c6da361fb6e7e03716d2d5c7d3b20d2ab9e091"),
        (["gpv-sum", "--code", T, "--kind", "long"],
         "c6a80ec914c6dc573478f3c8e41b497e3b91e58249995914460dba030a76a2d7"),
        (["braid", "--word", "s1 s1", "--bk", "2"],
         "5f2c1a6aefc515a4f72392184dcff288e4c40aa66a421ef15c96e98019ac3588"),
        (["braid", "--scan", "3:1"],
         "8484cf487febcf9d5af04ccdbfce7c21aefed8bbe528c927c97bf08c36f67bf8"),
        (["gpv-sum", "--code", T, "--kind", "long", "--chords", "1,2"],
         "5790253b10d75bb76a31f5cabe4e7b2eeca11d082e7624d5d75539d57536c68f"),
        (["selftest", "--seed", "3"],
         "d42041f8a1bca513e69d9ef2d3c82e3ae6dbfcafebca8c7bbc00895fa54dbe06"),
    ]

    @pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(a) or "no-arguments" for a, _ in CASES])
    def test_bytes(self, capsys, monkeypatch, argv, digest):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        blob = json.dumps([argv, code, captured.out, captured.err])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestJsonShape:
    """Well-formed JSON of the wrong shape is bad input: exit 1, a message,
    no traceback."""

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["ntrivial", "--code", VIRTUAL_TREFOIL, "--families"], "[1]",
             "JSON object"),
            (["ntrivial", "--code", VIRTUAL_TREFOIL, "--families"],
             '{"mode": "GPV", "families": [5]}', "list of member lists"),
            (["eval", "--code", RIGHT_TREFOIL, "--kind", "long", "--arrow-poly"],
             '{"kind": "long", "terms": 7}', "must be a list"),
            (["ntrivial", "--code", VIRTUAL_TREFOIL, "--kind", "long", "--families"],
             '{"mode": "F", "families": [[{"slots": [0, 5], "kind": "Fo"}]]}',
             "bad site descriptor"),
            (["ntrivial", "--code", VIRTUAL_TREFOIL, "--families"],
             '{"mode": "GPV", "families": [[true]]}', "chord ids"),
            (["eval", "--code", RIGHT_TREFOIL, "--kind", "long", "--arrow-poly"],
             '{"kind": "long", "terms": [{"coeff": true, "endpoints":'
             ' [["1", "t"], ["1", "h"]]}]}', "coeff must be an integer"),
            (["eval", "--code", RIGHT_TREFOIL, "--kind", "long", "--arrow-poly"],
             '{"kind": "long", "terms": [{"coeff": 1, "endpoints":'
             ' [["1", "t"], ["1", "h"]], "signs": {"1": true}}]}', "sign must be"),
            (["f-sum", "--code", VIRTUAL_TREFOIL, "--kind", "long", "--families"],
             '{"mode": "F", "families": [[{"slots": [1000, 1001], "kind": "Fo"}]]}',
             "not a Fo triangle"),
            (["ntrivial", "--code", VIRTUAL_TREFOIL, "--families"],
             '{"mode": "F", "families": [[{"slots": [1000, 1001], "kind": "Fo"}]]}',
             "not a Fo triangle"),
            (["eval", "--code", RIGHT_TREFOIL, "--kind", "long", "--arrow-poly"],
             '{"kind": "long", "terms": [{"coeff": 1, "endpoints":'
             ' [["1", "t"], ["1", "h"]], "signs": {"1": ["+"]}}]}', "sign must be"),
            (["braid", "--bk", "1", "--gens"], '{"A": 5, "B": "s2"}', "field 'A'"),
            (["braid", "--bk", "1", "--gens"], '{"A": "s1 s1", "B": ["s2"]}', "field 'B'"),
            (["ntrivial", "--code", RIGHT_TREFOIL, "--families"], '{"mode": "GPV"}',
             "family list is empty"),
            (["ntrivial", "--code", RIGHT_TREFOIL, "--families"],
             '{"mode": "GPV", "families": []}', "family list is empty"),
            (["eval", "--code", RIGHT_TREFOIL, "--kind", "long", "--arrow-poly"],
             '{"kind": "long", "terms": [{"coeff": 1, "endpoints":'
             ' [["1", "t"], ["1", "h"]], "signs": {"1": 1.0}}]}', "sign must be"),
            (["f-sum", "--code", VIRTUAL_TREFOIL, "--kind", "long", "--families"],
             '{"mode": "F", "families": [[]]}', "error: a family must be nonempty\n"),
        ],
    )
    def test_wrong_shape_is_exit_1(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err


class TestParserReuse:
    def test_one_parser_serves_every_subcommand(self, capsys, tmp_path):
        families = tmp_path / "fams.json"
        families.write_text('{"mode": "GPV", "families": [[1, 2], [3, 4]]}')
        ntrivial = ["ntrivial", "--code", GPV2_TRIVIAL, "--kind", "long",
                    "--families", str(families)]
        sequence = [
            ["trivialize", "--code", VIRTUAL_TREFOIL, "--depth", "1"],
            ntrivial,
            ["trivialize", "--code", VIRTUAL_TREFOIL],
            ["kh", "--code", RIGHT_TREFOIL],
            ["eval", "--code", RIGHT_TREFOIL, "--kind", "long"],
            ntrivial + ["--budget", "0"],
            ntrivial,
        ]
        shared = [run(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        # the budget shows in the reports: a leaked default would not pass
        assert shared[1] != shared[5] and shared[1] == shared[6]
        assert [code for code, _ in shared] == [2, 0, 0, 0, 0, 2, 0]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def counting_build():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        for _ in range(3):
            run(capsys, "trivialize", "--code", VIRTUAL_TREFOIL)
        cli._parser.cache_clear()
        assert built == [1]


class TestOneParse:
    GPV_SUM = ["gpv-sum", "--code", RIGHT_TREFOIL, "--kind", "long", "--chords", "1,2"]

    def test_a_named_command_is_parsed_once_by_its_subparser(self, capsys, monkeypatch):
        parsed = []
        original = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            parsed.append(parser.prog)
            return original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        given = run(capsys, *self.GPV_SUM)
        assert parsed == ["vknots gpv-sum"]
        # the console script passes no argv and reads sys.argv
        monkeypatch.setattr(sys, "argv", ["vknots", *self.GPV_SUM])
        assert (main(None), capsys.readouterr().out) == given
        assert parsed == ["vknots gpv-sum"] * 2 and given[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--code", RIGHT_TREFOIL],
            ["kh", "--co", RIGHT_TREFOIL, "--format=table"],
            GPV_SUM,
            ["f-sum", "--families", "f.json", "--invariant", "v22"],
            ["ntrivial", "--families", "f.json", "--budget", "5"],
            ["trivialize", "--code", VIRTUAL_TREFOIL, "--depth", "3"],
            ["braid", "--scan", "1:2"],
            ["lemma5", "--code", VIRTUAL_TREFOIL, "--kind", "long"],
            ["selftest", "--seed", "3"],
        ],
    )
    def test_namespace_equals_the_two_pass_parse(self, argv):
        parser, _ = cli._parser()
        assert vars(cli._parse_args(argv)) == vars(parser.parse_args(argv))


class TestBraid:
    def test_word_closure(self, capsys):
        code, (report,) = run_json(capsys, "braid", "--word", "s1 v1 s1 v1")
        assert code == 0 and report["chords"] == 2
        jsonschema.validate(report, schemas.BRAID_REPORT)

    def test_bk(self, capsys):
        code, (report,) = run_json(capsys, "braid", "--bk", "2")
        assert code == 0 and report["chords"] == 8

    @pytest.mark.parametrize(
        "argv, err",
        [
            # --bk 0 is passed, so the family's own index check answers
            (["--bk", "0"], "error: the braid family is indexed from 1\n"),
            ([], "error: braid: pass --word, --bk or --scan\n"),
        ],
    )
    def test_bad_bk_is_exit_1(self, capsys, argv, err):
        code = main(["braid", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", err)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--word", "s1 s1", "--bk", "2"], "argument --bk: not allowed with argument --word"),
            (["--scan", "1:2", "--bk", "3"], "argument --bk: not allowed with argument --scan"),
            (["--word", "s1", "--scan", "1:2"], "argument --scan: not allowed with argument --word"),
        ],
        ids=["word-bk", "scan-bk", "word-scan"],
    )
    def test_conflicting_modes_are_exit_1(self, capsys, argv, err):
        # one mode per call: a second one is refused, not ignored
        code = main(["braid", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("usage: vknots braid ")
        assert captured.err.endswith(f"vknots braid: error: {err}\n")

    def test_scan_with_skips(self, capsys):
        code, (report,) = run_json(capsys, "braid", "--scan", "1:3")
        assert code == 2  # k = 3 exceeds the default cap
        assert [r["k"] for r in report["rows"]] == [1, 2, 3]
        jsonschema.validate(report, schemas.BRAID_REPORT)

    def test_scan_cap_above_ceiling_is_exit_1(self, capsys):
        code = main(["braid", "--scan", "1:2", "--cap-chords", "44"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"between 0 and {MAX_CAP_CHORDS}" in captured.err

    def test_gens_file(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text('{"A": "", "B": ""}')
        code, (report,) = run_json(capsys, "braid", "--bk", "3", "--gens", str(path))
        assert code == 0 and report["chords"] == 0


class TestExtremeBounds:
    """Commands whose work grows without bound in an argument end at once:
    the search stops when its move graph runs out, and the braid family
    refuses a k past its bounds before any row."""

    @staticmethod
    def timed_main(argv, seconds=10):
        def expired(signum, frame):
            # pytest.fail raises past main's handlers, which catch OSError
            # and so TimeoutError
            pytest.fail(f"{argv} ran over {seconds} s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            return main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_unbounded_arguments_end_at_once(self, capsys):
        # the right trefoil alternates O and U: it has no Fo, Fu, R1, R2 or
        # R3 site, so no depth finds a trace
        depth = ["trivialize", "--code", RIGHT_TREFOIL, "--depth"]
        assert self.timed_main(depth + ["100000000"]) == 2
        huge = capsys.readouterr()
        assert main(depth + ["8"]) == 2
        small = capsys.readouterr()
        assert huge.out == small.out
        assert huge.err == small.err.replace("--depth 8 ", "--depth 100000000 ")
        bound = "error: b(k) is capped at k <= 20 and 524288 letters, got k = "
        for argv, k in ((["--bk", "100000000"], "100000000"),
                        (["--scan", "1:1000000000"], "1000000000")):
            assert self.timed_main(["braid", *argv]) == 2
            assert capsys.readouterr() == ("", f"{bound}{k}\n")


class TestLemma5:
    def test_virtual_trefoil_states(self, capsys):
        code, (report,) = run_json(capsys, "lemma5", "--code", VIRTUAL_TREFOIL)
        assert code == 0
        jsonschema.validate(report, schemas.LEMMA5_REPORT)
        off_axis = [s for s in report["states"] if s["off_axis"]]
        assert any(s["i"] == 2 and s["j"] == 6 for s in off_axis)


class TestSkippedRowsNamed:
    """Exit 2 for rows above the chord cap names the cap on one stderr
    line; stdout is the same as without it."""

    @pytest.mark.parametrize("command", ["kh", "lemma5"])
    def test_diagram_commands(self, capsys, tmp_path, command):
        path = tmp_path / "codes.txt"
        path.write_text(f"{RIGHT_TREFOIL}\n{VIRTUAL_TREFOIL}\n")
        code = main([command, "--input", str(path), "--cap-chords", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"{command}: --cap-chords 2 exceeded: skipped 1 of 2 diagrams\n"
        )
        skipped = [json.loads(line) for line in captured.out.splitlines()][0]
        assert skipped["skipped"] is True and skipped["code"] == RIGHT_TREFOIL

    def test_braid_scan(self, capsys):
        code = main(["braid", "--scan", "1:3", "--cap-chords", "8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "braid --scan: --cap-chords 8 exceeded: skipped 1 of 3 rows\n"
        assert [r["skipped"] for r in json.loads(captured.out)["rows"]] == [False, False, True]

    @pytest.mark.parametrize(
        "argv",
        [
            ["kh", "--code", RIGHT_TREFOIL],
            ["lemma5", "--code", VIRTUAL_TREFOIL],
            ["braid", "--scan", "1:2"],
        ],
    )
    def test_exit_0_writes_no_stderr(self, capsys, argv):
        code = main(argv)
        assert code == 0 and capsys.readouterr().err == ""


class TestDeterminism:
    def test_fixed_config_reproduces_bytes(self, capsys):
        _, out1 = run(capsys, "kh", "--code", RIGHT_TREFOIL)
        _, out2 = run(capsys, "kh", "--code", RIGHT_TREFOIL)
        assert out1 == out2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_selftest_refuses_no_samples(self, capsys, samples):
        # with no samples the batteries would check nothing and still PASS
        code = main(["selftest", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"

    def test_selftest_deterministic_and_green(self, capsys):
        code1, out1 = run(capsys, "selftest", "--seed", "11", "--samples", "10")
        code2, out2 = run(capsys, "selftest", "--seed", "11", "--samples", "10")
        assert code1 == code2 == 0 and out1 == out2
        assert all(line.startswith("PASS") for line in out1.strip().splitlines())

    def test_selftest_reports_each_failed_battery(self, capsys, monkeypatch):
        # a v21 that counts its calls is no invariant: every battery that
        # reads v21 fails, the others pass, and the exit status is 1
        calls = iter(range(10**6))
        monkeypatch.setattr(cli, "v21", lambda d, containing=(): next(calls))
        code, out = run(capsys, "selftest", "--seed", "3", "--samples", "20")
        verdicts = [line.split(":")[0] for line in out.strip().splitlines()]
        assert code == 1
        assert verdicts == ["PASS slots", "FAIL v2_invariance", "FAIL gpv", "PASS kh",
                            "FAIL expansion"]

    @pytest.mark.parametrize("name, message", [
        ("homology", "homology changed by "), ("jones_hat", "euler mismatch on ")])
    def test_selftest_reports_a_failed_kh_battery(self, capsys, monkeypatch, name, message):
        # a table that counts its calls differs between a diagram and its
        # move; a Jones polynomial of one term is no table's Euler
        # characteristic
        calls = iter(range(10**6))
        stubs = {"homology": lambda d: GradedDims.from_dict({(0, next(calls)): 1}),
                 "jones_hat": lambda d: LaurentPoly({7: 1})}
        monkeypatch.setattr(cli, name, stubs[name])
        code, out = run(capsys, "selftest", "--seed", "3", "--samples", "20")
        lines = out.strip().splitlines()
        assert code == 1
        assert [line.split(":")[0] for line in lines] == [
            "PASS slots", "PASS v2_invariance", "PASS gpv", "FAIL kh", "PASS expansion"]
        assert lines[3].startswith(f"FAIL kh: {message}")


# Stand-ins for a JSON node of another type: null, booleans, floats (NaN and
# the infinities are JSON to Python's json module), huge and negative ints,
# Unicode digits, and empty or nested containers.
CONFUSED = (None, True, False, 0.5, 1.0, float("nan"), float("inf"), 10**30, -1, 0,
            "", "1", "١", [], [[1]], [[[]]], {}, {"mode": "GPV"})

# Gauss-code tokens a mutation inserts: out-of-range, malformed, lowercase,
# Unicode-digit and overlong labels.
BAD_TOKENS = ("O9+", "U0+", "O-1+", "O1", "X1+", "O1++", "o1+", "O١+", "U１-",
              "O99999999999999999999+", "O1.5+", "+", "O 1+", " ")


def confuse(rng, obj):
    """``obj`` with one node on a random path replaced by a CONFUSED value."""
    if not isinstance(obj, (list, dict)) or not obj or rng.random() < 0.25:
        return rng.choice(CONFUSED)
    if isinstance(obj, list):
        i = rng.randrange(len(obj))
        return obj[:i] + [confuse(rng, obj[i])] + obj[i + 1:]
    key = rng.choice(sorted(obj))
    return {**obj, key: confuse(rng, obj[key])}


def mutate_code(rng, code):
    """``code`` with up to three tokens dropped, inserted, relabelled,
    re-signed or duplicated, or the whole code reversed."""
    tokens = code.split()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        i = rng.randrange(len(tokens) + 1)
        if op == 1 or not tokens:
            tokens.insert(i, rng.choice(BAD_TOKENS))
            continue
        i %= len(tokens)
        if op == 0:
            del tokens[i]
        elif op == 2:
            tokens.reverse()
        elif op == 3:
            tokens[i] = tokens[i][0] + rng.choice(("0", "13", "99", "٣", "１")) + tokens[i][-1]
        elif op == 4:
            tokens[i] = tokens[i][:-1] + rng.choice("+-*")
        else:
            tokens.insert(i, tokens[i])
    return " ".join(tokens)


class TestFuzz:
    """Seeded in-process fuzz of every subcommand with mutated Gauss codes,
    type-confused JSON files and small caps, budgets and depths: the exit
    code is 0, 1 or 2, no exception escapes ``main``, a single ``--code``
    input that exits 1 writes nothing to stdout, and a refusal that names a
    cap exits 2."""

    COMMANDS = ("eval", "kh", "gpv-sum", "f-sum", "ntrivial", "trivialize", "braid",
                "lemma5", "selftest")

    @staticmethod
    def files(rng, tmp_path):
        """Paths of JSON files per flag: valid ones, type-confused ones and a
        few that are not JSON or not UTF-8."""
        valid = {
            "gens": [{"A": "s1 v1 s1 v1", "B": "s2 v2 s2 v2"}, {"A": "s1 s1", "B": "s2 s2"}],
            "arrow": [{"kind": kind, "terms": [{"coeff": 1, "signs": {"1": "+", "2": "free"},
                                                "endpoints": [["1", "t"], ["2", "h"],
                                                              ["1", "h"], ["2", "t"]]}]}
                      for kind in ("long", "closed")],
            "gpv": [{"mode": "GPV", "families": [[1], [2, 3]]}, {"mode": "GPV", "families": [[1]]}],
            "f": [{"mode": "F", "families": [[{"slots": [s, s + 1], "kind": kind}]]}
                  for s in (0, 1, 3) for kind in ("Fo", "Fu")],
        }
        out = {}
        for flag, objs in valid.items():
            texts = [json.dumps(obj) for obj in objs]
            texts += [json.dumps(confuse(rng, rng.choice(objs))) for _ in range(40)]
            texts += ["", "{", "[1, 2", "null"]
            paths = []
            for i, text in enumerate(texts):
                path = tmp_path / f"{flag}-{i}.json"
                path.write_text(text, encoding="utf-8")
                paths.append(str(path))
            path = tmp_path / f"{flag}-latin1.json"
            path.write_bytes(b'{"mode": "\xff"}')
            out[flag] = paths + [str(path), str(tmp_path / "missing.json")]
        return out

    def case(self, rng, files):
        """(argv, whether it reads a single --code input)."""
        command = rng.choice(self.COMMANDS)
        cap = ["--cap-chords", str(rng.randint(-1, 10))] if rng.random() < 0.5 else []
        if command == "selftest":
            return ["selftest", "--seed", str(rng.randint(0, 3)),
                    "--samples", rng.choice(("1", "0", "-2", "x"))], False
        if command == "braid":
            mode = rng.randrange(3)
            if mode == 0:
                word = " ".join(rng.choice(("s1", "S2", "v3", "s0", "x1", "v", "s١"))
                                for _ in range(rng.randint(0, 6)))
                argv = ["braid", "--word", word]
            elif mode == 1:
                argv = ["braid", "--bk", str(rng.randint(-1, 10))]
            else:
                lo = rng.randint(-1, 3)
                argv = ["braid", "--scan", f"{lo}:{rng.randint(lo - 1, 3)}"]
            if rng.random() < 0.5:
                argv += ["--gens", rng.choice(files["gens"])]
            return argv + cap, False
        kind = rng.choice(("closed", "long"))
        code = random_diagram(rng, rng.randint(0, 6), kind).code()
        if rng.random() < 0.7:
            code = mutate_code(rng, code)
        argv = [command, "--code", code, "--kind", kind]
        if command == "trivialize":
            argv += ["--depth", str(rng.randint(-1, 6))]
        else:
            argv += cap
        if command == "eval" and rng.random() < 0.5:
            argv += ["--arrow-poly", rng.choice(files["arrow"])]
        elif command == "gpv-sum":
            argv += ["--chords", rng.choice(("1", "1,2", "2,2", "0", "-1", "99", "1,a", "",
                                              "١"))]
        elif command in ("f-sum", "ntrivial"):
            argv += ["--families", rng.choice(files[rng.choice(("gpv", "f"))])]
            if command == "ntrivial":
                argv += ["--budget", str(rng.randint(-1, 30))]
        if rng.random() < 0.2:
            argv += ["--format", "table"]
        return argv, True

    def test_exit_codes_and_quiet_refusals(self, capsys, tmp_path):
        rng = random.Random(3636)
        files = self.files(rng, tmp_path)
        codes = dict.fromkeys((0, 1, 2), 0)
        for _ in range(1000):
            argv, single = self.case(rng, files)
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{type(exc).__name__} escaped main({argv!r}): {exc}")
            captured = capsys.readouterr()
            assert code in codes, argv
            assert "Traceback" not in captured.err, argv
            if single and code == 1:
                assert captured.out == "", argv
            if "capped at" in captured.err:
                # an exhausted cap exits 2, never as bad input
                assert code == 2, argv
            codes[code] += 1
        # the cases reach every exit code, and most are refused
        assert min(codes.values()) >= 20 and codes[1] > codes[0] + codes[2], codes

    def test_multi_diagram_inputs(self, capsys, tmp_path):
        # --input files of 2-4 codes, a later one sometimes mutated, with
        # families files that are mostly valid: a refusal of any line prints
        # no report, not even the earlier lines' (its own seed, so the test
        # above keeps its draws)
        rng = random.Random(4141)
        files = self.files(rng, tmp_path)
        path = tmp_path / "codes.txt"
        codes = dict.fromkeys((0, 1, 2), 0)
        for _ in range(300):
            count = rng.randint(2, 4)
            mutated = rng.randrange(1, count) if rng.random() < 0.3 else None
            lines = []
            for i in range(count):
                kind = rng.choice(("closed", "long"))
                code = random_diagram(rng, rng.randint(0, 5), kind).code()
                if i == mutated:
                    code = mutate_code(rng, code)
                lines.append(f"long: {code}" if kind == "long" else code)
            path.write_text("\n".join(lines) + "\n")
            command = rng.choice(("eval", "kh", "gpv-sum", "f-sum", "ntrivial", "trivialize",
                                  "lemma5"))
            argv = [command, "--input", str(path)]
            if command == "eval" and rng.random() < 0.5:
                argv += ["--arrow-poly", rng.choice(files["arrow"])]
            elif command == "gpv-sum":
                argv += ["--kind", "long", "--chords", rng.choice(("1", "1,2", "3", "2,4"))]
            elif command in ("f-sum", "ntrivial"):
                argv += ["--families", rng.choice(files[rng.choice(("gpv", "f"))][:4])]
                if command == "ntrivial":
                    argv += ["--budget", "20"]
            elif command == "trivialize":
                argv += ["--depth", str(rng.randint(0, 3))]
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{type(exc).__name__} escaped main({argv!r}) on {lines!r}: {exc}")
            captured = capsys.readouterr()
            assert code in codes, (argv, lines)
            assert "Traceback" not in captured.err, (argv, lines)
            if code == 1:
                assert captured.out == "", (argv, lines, captured)
            codes[code] += 1
        assert min(codes.values()) >= 10, codes

    def test_trivialize_stops_at_its_node_cap(self, capsys):
        # uncapped, this search expands 10,673 nodes up to --depth 20 (and
        # 45 s were not enough for a 16-chord diagram at --depth 24); the
        # capped diagram gets the row of a depth miss
        code = random_diagram(random.Random(2), 12, "closed").code()
        argv = ["trivialize", "--code", code, "--depth", "20", "--max-nodes", "1000"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            f'{{"results":[{{"code":"{code}","found":false,"replayed_empty":null,'
            '"trace":null}]}\n',
            "trivialize capped at 1000 expanded nodes, reached at depth limit 13 of 20 "
            "(--max-nodes): no trace for 1 of 1 diagrams\n")
        assert main(argv[:-2] + ["--max-nodes", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: trivialize node cap must be >= 0\n")

    def test_trivialize_keeps_the_reports_the_node_cap_left(self, capsys, tmp_path):
        # the kink is searched before the capped diagram and keeps its trace
        capped = random_diagram(random.Random(2), 12, "closed").code()
        path = tmp_path / "two.txt"
        path.write_text(f"O1+ U1+\n{capped}\n")
        code = main(["trivialize", "--input", str(path), "--depth", "20",
                     "--max-nodes", "1000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (
            '{"results":[{"code":"O1+ U1+","found":true,"replayed_empty":true,'
            '"trace":[["R1_del",[0,1,"OU"]]]},'
            f'{{"code":"{capped}","found":false,"replayed_empty":null,"trace":null}}]}}\n'
        )
        jsonschema.validate(json.loads(captured.out), schemas.TRIVIALIZE_REPORT)
        assert captured.err == (
            "trivialize capped at 1000 expanded nodes, reached at depth limit 13 of 20 "
            "(--max-nodes): no trace for 1 of 2 diagrams\n")

    @pytest.mark.parametrize(
        "error", [ParseError, ArrowError, BraidError, FamilyError, MoveError, CapExceeded])
    def test_every_refusal_is_a_diagram_error(self, error):
        # main answers DiagramError (CapExceeded first) and no bare ValueError
        assert issubclass(error, DiagramError) and issubclass(error, ValueError)

    def test_a_library_fault_is_not_bad_input(self, monkeypatch):
        def broken(diagram):
            raise ValueError("a fault inside the library")

        monkeypatch.setattr(cli, "bracket", broken)
        with pytest.raises(ValueError, match="a fault inside the library"):
            main(["eval", "--code", RIGHT_TREFOIL])

    READERS = {
        "--families": (["ntrivial", "--code", RIGHT_TREFOIL], "families file"),
        "--arrow-poly": (["eval", "--code", RIGHT_TREFOIL], "arrow polynomial"),
        "--gens": (["braid", "--bk", "1"], "generator file"),
    }

    @pytest.mark.parametrize("flag", sorted(READERS))
    @pytest.mark.parametrize(
        "text, detail",
        [
            ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
            ('{"A": ' + "9" * 5000 + "}", "integer string conversion"),
        ],
        ids=["deep", "long-int"],
    )
    def test_json_past_the_parser_limits(self, capsys, tmp_path, flag, text, detail):
        # nesting past the recursion limit and an int past 4,300 digits are
        # refused as JSON, with one stderr line
        path = tmp_path / "input.json"
        path.write_text(text)
        argv, what = self.READERS[flag]
        assert main(argv + [flag, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {what} is not valid JSON: ") and detail in err

    @pytest.mark.parametrize("source", ["--code", "--input"])
    def test_gauss_label_past_the_int_limit(self, capsys, tmp_path, source):
        label = "9" * 5000
        text = f"O{label}+ U{label}+"
        if source == "--input":
            path = tmp_path / "codes.txt"
            path.write_text(text + "\n")
            text = str(path)
        assert main(["eval", source, text]) == 1
        line = "" if source == "--code" else "line 1: "
        assert capsys.readouterr() == (
            "", f"error: {line}token 'O99999999999...': label of 5000 digits is too long\n")
