"""The benchmark's own tests.

    python3 -m pytest -q bench/check_bench.py

The file name keeps these tests out of the library's suite: they spawn
benchmark passes and take a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import worker

cli = worker._import_vknots()

import checks  # noqa: E402  (needs vknots on the path)
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
STORED = json.loads(run.DIGESTS.read_text())


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    result = _result(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$", out, re.M)
    for name in ("failed_share", "exhausted_share"):
        assert re.search(rf"^{name} \S+ ratio$", out, re.M)


def _golden(workload: str, tmp_path) -> list[tuple]:
    files = workloads.FamiliesFiles(str(tmp_path))
    reqs = workloads.corpus(workload, 0, 0, run.WORKLOADS[workload].golden, files)
    files.write()
    return [(req, *worker._call(cli, req.argv)[:2]) for req in reqs]


def _summaries(golden_runs, tampered_index=None, tamper=None) -> list[dict]:
    digests, statuses = [], []
    for i, (req, rc, out) in enumerate(golden_runs):
        if i == tampered_index:
            out = tamper(out)
        status, _ = checks.check(req, rc, out)
        digests.append(checks.digest(out))
        statuses.append(status)
    return [{"golden": {"digests": digests, "statuses": statuses}, "statuses": [],
             "latencies_s": [0.1], "latencies_ref_s": [0.1], "kernel_s": [0.003],
             "rss_mb": 1.0, "setup_s": 0.1, "setup_ref_s": 0.1,
             "failures": []}]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_default_seed_reports_match_stored_digests(workload, tmp_path):
    result = run.summarize(workload, _summaries(_golden(workload, tmp_path)),
                           STORED[workload], trace=False)
    assert result["failed"] == 0 and result["metrics"]["failed_share"] == 0


def _retable(out: str) -> str:
    report = json.loads(out)
    report["table"][0]["dim"] += 1
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _rejones(out: str) -> str:
    report = json.loads(out)
    report["jones_hat"][0][0] += 1
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("tamper", [
    _retable,  # passes every value check, so only the digest catches it
    _rejones,  # fails the bracket route
    lambda out: out.replace(",", ", ", 1),  # not canonical JSON
    lambda out: out.replace('"writhe"', '"writh"'),  # breaks the schema
])
def test_tampered_report_counts_as_failed(tamper, tmp_path):
    golden_runs = _golden("kh-large", tmp_path)
    result = run.summarize("kh-large", _summaries(golden_runs, 0, tamper),
                           STORED["kh-large"], trace=False)
    assert result["failed"] == 1
    assert result["metrics"]["failed_share"] == 1 / result["attempted"]


def test_tampered_digest_counts_as_failed(tmp_path):
    stored = list(STORED["arrows-long"])
    stored[-1] = "0" * 16
    result = run.summarize("arrows-long", _summaries(_golden("arrows-long", tmp_path)),
                           stored, trace=False)
    assert result["failed"] == 1 and result["metrics"]["failed_share"] > 0


def test_failed_check_is_not_counted_as_done(tmp_path):
    summaries = _summaries(_golden("arrows-long", tmp_path))
    summaries[0]["statuses"] = ["ok", "failed"]
    summaries[0]["latencies_s"] = [0.1, 0.1]
    summaries[0]["latencies_ref_s"] = [0.1, 0.1]
    result = run.summarize("arrows-long", summaries, STORED["arrows-long"], trace=False)
    assert result["failed"] == 1
    assert result["metrics"]["throughput_dps"] == pytest.approx(1 / 0.2)


def _set_value(out: str) -> str:
    report = json.loads(out)
    report["values"] = [1]
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def test_nonzero_three_chord_sum_counts_as_failed(tmp_path):
    golden_runs = _golden("arrows-long", tmp_path)
    assert len(golden_runs[1][0].chords) == 3
    result = run.summarize("arrows-long", _summaries(golden_runs, 1, _set_value),
                           STORED["arrows-long"], trace=False)
    assert result["failed"] == 1


def _drop_last_move(out: str) -> str:
    report = json.loads(out)
    report["results"][0]["trace"].pop()
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def test_trivialize_trace_that_does_not_replay_counts_as_failed(tmp_path):
    golden_runs = _golden("small-batch", tmp_path)
    found = [i for i, (req, rc, out) in enumerate(golden_runs)
             if req.argv[0] == "trivialize" and rc == 0]
    assert found
    result = run.summarize("small-batch", _summaries(golden_runs, found[0], _drop_last_move),
                           STORED["small-batch"], trace=False)
    assert result["failed"] == 1


def test_direct_count_agrees_with_the_pairing():
    import random

    from vknots.arrows import v21, v22
    from vknots.corpus import random_diagram

    rng = random.Random(1)
    for _ in range(200):
        d = random_diagram(rng, rng.randint(0, 9), "long")
        assert checks.reference_v2("v21", d) == v21(d)
        assert checks.reference_v2("v22", d) == v22(d)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kh-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scale_follows_the_kernel_samples_around_a_request():
    import calib

    c = calib.Calibrator()
    # the host runs at reference speed for 100 samples, then at half speed
    c.ends = [float(t) for t in range(200)]
    c.durations = [calib.REFERENCE_S] * 100 + [2 * calib.REFERENCE_S] * 100
    assert c.scale_at(10.5) == pytest.approx(1.0)
    assert c.scale_at(150.5) == pytest.approx(0.5)
    assert c.setup_scale() == pytest.approx(1.0)
    assert calib.kernel() == calib.kernel()
