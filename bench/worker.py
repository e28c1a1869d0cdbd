"""One measured pass of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON summary line on stdout.  The pass
imports vknots from the checkout's ``src``, generates its corpus, then calls
``vknots.cli.main`` once per request in a closed loop (one client, no
threads) until the end of the rotation of request kinds nearest to the
time limit (and at least ``workloads.RSS_AFTER`` requests), or until the
request limit is reached.  The calibration kernel of ``calib.py`` runs after
set-up and between requests, and every time is also reported scaled to the
reference host speed.  Checks run after the timed loop.  A fresh
interpreter per pass keeps the module-global state cache of
``vknots.khovanov`` cold, as it is for every CLI invocation.  With
``--setup-only`` the process reports its set-up time and exits.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_vknots():
    sys.path.insert(0, str(ROOT / "src"))
    import vknots
    from vknots import cli

    if not Path(vknots.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"vknots imported from {vknots.__file__}, not from the checkout")
    return cli


def _call(cli, argv) -> tuple[object, str, float, float]:
    """(exit status or exception text, stdout text, seconds, perf_counter at
    the middle) of one request."""
    out = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    t = time.perf_counter()
    try:
        rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # counted as a failed request
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), dt, t + dt / 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(opts) -> dict:
    cli = _import_vknots()
    import calib
    import workloads

    tracer = None
    if opts.trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install(extra_modules=[workloads])

    workdir = ROOT / ".bench_out" / f"pass-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        files = workloads.FamiliesFiles(str(workdir))
        requests = workloads.corpus(opts.workload, opts.seed, opts.pass_index, opts.count, files)
        limit = opts.limit or len(requests)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - opts.t0
        calibrator = calib.Calibrator()
        for _ in range(calib.SETUP_SAMPLES):
            calibrator.sample()
        if opts.setup_only:
            return {"setup_s": setup_s, "setup_ref_s": setup_s * calibrator.setup_scale()}
        # Outside set-up time: creating a few hundred small files took from
        # 0.03 s to 0.3 s depending on the state of the host's disk, and the
        # program does none of it.
        files.write()

        cycle = workloads.CYCLE[opts.workload]
        rss_after = workloads.RSS_AFTER[opts.workload]
        rss_mb = None
        results = []
        begin = time.perf_counter()
        for i, req in enumerate(requests[:limit]):
            if tracer is not None:
                tracer.current_request = i
            results.append(_call(cli, req.argv))
            calibrator.maybe_sample()
            if i + 1 == rss_after:
                rss_mb = _peak_rss_mb()
            if not opts.limit and (i + 1) % cycle == 0 and i + 1 >= rss_after:
                # stop at the rotation boundary nearest to the time limit
                elapsed = time.perf_counter() - begin
                if elapsed * (1 + 0.5 * cycle / (i + 1)) >= opts.seconds:
                    break
        calibrator.sample()  # so the last requests have samples after them
        if rss_mb is None:
            rss_mb = _peak_rss_mb()
        layers = None
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.metrics()
            tracer.write(opts.trace_out)

        import checks

        statuses, failures = [], []
        for i, (req, (rc, out, _, _)) in enumerate(zip(requests, results)):
            status, reason = checks.check(req, rc, out)
            statuses.append(status)
            if reason and len(failures) < 5:
                failures.append({"request": i, "argv": list(req.argv), "reason": reason})

        golden = None
        if opts.golden:
            gold = workloads.corpus(opts.workload, 0, 0, opts.golden, files)
            files.write()
            golden = {"digests": [], "statuses": []}
            for req in gold:
                rc, out, _, _ = _call(cli, req.argv)
                status, reason = checks.check(req, rc, out)
                golden["digests"].append(checks.digest(out))
                golden["statuses"].append(status)
                if reason and len(failures) < 5:
                    failures.append({"golden": True, "argv": list(req.argv), "reason": reason})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * calibrator.setup_scale(),
        "rss_mb": rss_mb,
        "latencies_s": [dt for _, _, dt, _ in results],
        "latencies_ref_s": [dt * calibrator.scale_at(mid) for _, _, dt, mid in results],
        "kernel_s": calibrator.durations,
        "statuses": statuses,
        "failures": failures,
        "golden": golden,
        "layers": layers,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, required=True)
    p.add_argument("--count", type=int, required=True, help="corpus size")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--limit", type=int, default=0,
                   help="run exactly this many requests, ignoring --seconds")
    p.add_argument("--golden", type=int, default=0,
                   help="also run this many default-seed requests for the digest check")
    p.add_argument("--trace-out", default="", help="trace the pass; write spans to this prefix")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report only its time")
    p.add_argument("--t0", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which the parent started this process")
    opts = p.parse_args()
    print(json.dumps(run_pass(opts)))


if __name__ == "__main__":
    main()
