import json

import jsonschema
import pytest

from vknots import cli, schemas
from vknots.cli import main
from vknots.corpus import GPV2_TRIVIAL, RIGHT_TREFOIL, VIRTUAL_TREFOIL
from vknots.khovanov import MAX_CAP_CHORDS


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


class TestNTrivial:
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
        # dropping the kink leaves the virtual trefoil, which jones_hat
        # refutes within the cap; above it the subset stays unknown
        path = tmp_path / "fams.json"
        path.write_text('{"mode": "GPV", "families": [[3]]}')
        argv = ["ntrivial", "--code", VIRTUAL_TREFOIL + " O3+ U3+", "--families", str(path)]
        code, (report,) = run_json(capsys, *argv)
        assert code == 0 and report["subsets"][0]["status"] == "refuted"
        assert report["subsets"][0]["witness"][0] == "jones_hat"
        code, (report,) = run_json(capsys, *argv, "--cap-chords", "1")
        assert code == 2 and report["subsets"][0]["status"] == "unknown"
        assert report["subsets"][0]["witness"] is None


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
        ],
    )
    def test_bad_flag_values_name_the_flag(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"argument {flag}:" in captured.err
        assert "Traceback" not in captured.err


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


class TestBraid:
    def test_word_closure(self, capsys):
        code, (report,) = run_json(capsys, "braid", "--word", "s1 v1 s1 v1")
        assert code == 0 and report["chords"] == 2
        jsonschema.validate(report, schemas.BRAID_REPORT)

    def test_bk(self, capsys):
        code, (report,) = run_json(capsys, "braid", "--bk", "2")
        assert code == 0 and report["chords"] == 8

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


class TestLemma5:
    def test_virtual_trefoil_states(self, capsys):
        code, (report,) = run_json(capsys, "lemma5", "--code", VIRTUAL_TREFOIL)
        assert code == 0
        jsonschema.validate(report, schemas.LEMMA5_REPORT)
        off_axis = [s for s in report["states"] if s["off_axis"]]
        assert any(s["i"] == 2 and s["j"] == 6 for s in off_axis)


class TestDeterminism:
    def test_fixed_config_reproduces_bytes(self, capsys):
        _, out1 = run(capsys, "kh", "--code", RIGHT_TREFOIL)
        _, out2 = run(capsys, "kh", "--code", RIGHT_TREFOIL)
        assert out1 == out2

    def test_selftest_deterministic_and_green(self, capsys):
        code1, out1 = run(capsys, "selftest", "--seed", "11", "--samples", "10")
        code2, out2 = run(capsys, "selftest", "--seed", "11", "--samples", "10")
        assert code1 == code2 == 0 and out1 == out2
        assert all(line.startswith("PASS") for line in out1.strip().splitlines())
