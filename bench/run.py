"""Seeded benchmark of the vknots CLI.

    python3 bench/run.py --workload kh-large --seed 1 --seconds 34 --trace 0

Runs one workload as a closed loop of one client calling
``vknots.cli.main`` in-process, once per diagram.  Every measured pass runs
in a fresh interpreter (``worker.py``), as a user's CLI invocation does.
With ``--trace 0`` the run is ``PASSES`` passes splitting ``--seconds``,
then ``SETUP_ONLY`` processes that only set up, and the last stdout line
carries the end-to-end metrics; with ``--trace 1`` an
untraced pass over half the time is followed by a traced pass over the same
requests, and the last line carries the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  Every report is checked after its
pass; the first requests of the default seed are also compared with the
digests stored in ``digests.json``.

``--record-digests`` stores this run's default-seed digests instead of
comparing them; use it only when a change is meant to alter report bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

# Each pass stays within this many seconds of the run's start, so a run
# ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170
PASSES = 3
# Set-up is timed in every pass and in this many more fresh interpreters
# that stop after set-up; setup_s is the median of them all.  Set-up time of
# a fresh process spreads by a fifth between runs, three samples were too few.
SETUP_ONLY = 4


@dataclass(frozen=True)
class Workload:
    count: int  # corpus size per pass, several times what a pass gets through
    golden: int  # default-seed requests whose report digests are compared
    tail: float  # fixed latency_tail_ms percentile


# The tail percentile keeps at least ten samples beyond it in a 34 s run on
# a host a fifth slower than this commit's baseline, which times 72
# requests on kh-large (the RSS_AFTER floor), ~950 on small-batch and ~130
# on arrows-long.
WORKLOADS = {
    "kh-large": Workload(count=120, golden=3, tail=0.80),
    "small-batch": Workload(count=3000, golden=24, tail=0.985),
    "arrows-long": Workload(count=400, golden=4, tail=0.90),
}


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def golden_failures(golden: dict, stored: list[str] | None) -> int:
    """Golden requests that failed a check or whose report digest differs
    from the stored one."""
    bad = 0
    for i, (got, status) in enumerate(zip(golden["digests"], golden["statuses"])):
        if status == "failed" or stored is None or i >= len(stored) or stored[i] != got:
            bad += 1
    return bad


def spawn(workload: str, seed: int, pass_index: int, seconds: float, deadline: float, *,
          limit: int = 0, golden: int = 0, trace_out: str = "", setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its summary."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--pass-index", str(pass_index),
           "--count", str(WORKLOADS[workload].count), "--seconds", repr(seconds),
           "--limit", str(limit), "--golden", str(golden), "--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded the run deadline: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: int, trace: bool, record: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = WORKLOADS[workload]
    if trace:
        untraced = spawn(workload, seed, 0, seconds / 2, deadline, golden=spec.golden)
        prefix = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}"
        traced = spawn(workload, seed, 0, 0, deadline, limit=len(untraced["latencies_s"]),
                       trace_out=str(prefix))
        summaries = [untraced, traced]
        setups = []
    else:
        summaries = [spawn(workload, seed, p, seconds / PASSES, deadline,
                           golden=spec.golden if p == 0 else 0)
                     for p in range(PASSES)]
        setups = [spawn(workload, seed, PASSES + p, 0, deadline, setup_only=True)
                  for p in range(SETUP_ONLY)]

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if record:
        golden = summaries[0]["golden"]
        if "failed" in golden["statuses"]:
            raise BenchError("not recording digests: a default-seed report failed its checks")
        stored[workload] = golden["digests"]
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return summarize(workload, summaries, stored.get(workload), trace, setups)


def summarize(workload: str, summaries: list[dict], stored: list[str] | None,
              trace: bool, setup_only: list[dict] = ()) -> dict:
    """Run result from pass summaries and the set-up times of set-up-only
    processes.  The first pass carries the golden requests; with ``trace``
    the second pass is the traced one and only the first is timed."""
    golden = summaries[0]["golden"]
    measured = summaries[:1] if trace else summaries
    statuses = [st for s in summaries for st in s["statuses"]]
    latencies_ms = [dt * 1000 for s in measured for dt in s["latencies_ref_s"]]
    raw_ms = [dt * 1000 for s in measured for dt in s["latencies_s"]]
    done = sum(st != "failed" for s in measured for st in s["statuses"])
    attempted = len(statuses) + len(golden["statuses"])
    bad_golden = golden_failures(golden, stored)
    failed = statuses.count("failed") + bad_golden
    exhausted = statuses.count("exhausted") + golden["statuses"].count("exhausted")

    tail = WORKLOADS[workload].tail
    setups = measured + list(setup_only)
    metrics = {
        "throughput_dps": done * 1000 / sum(latencies_ms),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": percentile(latencies_ms, tail),
        "completed_share": (attempted - failed - exhausted) / attempted,
        "failed_share": failed / attempted,
        "exhausted_share": exhausted / attempted,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in measured),
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
    }
    kernel_ms = [k * 1000 for s in measured for k in s["kernel_s"]]
    raw = {
        "raw.throughput_dps": done * 1000 / sum(raw_ms),
        "raw.latency_p50_ms": statistics.median(raw_ms),
        "raw.latency_tail_ms": percentile(raw_ms, tail),
        "raw.setup_s": statistics.median(s["setup_s"] for s in setups),
        "calib.kernel_p50_ms": statistics.median(kernel_ms),
    }
    if trace:
        metrics.update(summaries[1]["layers"])
        metrics["trace.overhead_ratio"] = (sum(summaries[1]["latencies_ref_s"])
                                           / sum(summaries[0]["latencies_ref_s"]))
    failures = [f for s in summaries for f in s["failures"]]
    if bad_golden:
        failures.append(f"{bad_golden} default-seed reports differ from {DIGESTS.name}")
    return {
        "attempted": attempted,
        "failed": failed,
        "requests": len(latencies_ms),
        "metrics": metrics,
        "raw": raw,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)

    try:
        if not (ROOT / "src" / "vknots" / "__init__.py").is_file():
            raise BenchError(f"no vknots sources under {ROOT / 'src'}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.record_digests)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    for f in result["failures"]:
        print(f"FAILED {f}")
    print(f"workload {args.workload} seed {args.seed} tail percentile "
          f"p{WORKLOADS[args.workload].tail * 100:g} over {result['requests']} timed requests")
    for name in ("failed_share", "exhausted_share"):
        print(f"{name} {metrics[name]:.4f} ratio")
    for name, value in result["raw"].items():
        print(f"{name} {value:.6g} {name.rsplit('_', 1)[-1].replace('dps', '1/s')}")
    for m in section:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
