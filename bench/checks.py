"""Output checks for benchmark requests, run outside the timed region.

Every report must be one line of canonical JSON (sorted keys, compact
separators) that validates against ``vknots.schemas``.  On top of that each
subcommand's values are re-derived by a route independent of the one the
CLI took:

- ``kh`` and ``eval``: the Jones polynomial from the bracket by the change
  of variable, compared with the state-sum ``jones_hat``; ``kh`` also needs
  ``euler_check == "ok"`` and the writhe as the sum of chord signs;
- ``eval`` and ``gpv-sum``: ``v21``/``v22`` by a direct O(n^2) count of the
  two interleaved chord pairs, and every 3-chord GPV sum is 0 because both
  invariants have GPV order 2;
- ``trivialize``: a found trace replays to the empty diagram;
- ``ntrivial``: exit status and aggregate agree with the subset verdicts.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import jsonschema

from vknots import schemas
from vknots.diagram import parse_gauss_code, reclose
from vknots.khovanov import jones_from_bracket
from vknots.laurent import LaurentPoly
from vknots.moves import MoveEvent, apply_trace

OK, EXHAUSTED, FAILED = "ok", "exhausted", "failed"

VALIDATORS = {
    command: jsonschema.validators.validator_for(schema)(schema)
    for command, schema in (
        ("kh", schemas.KH_REPORT),
        ("eval", schemas.EVAL_REPORT),
        ("gpv-sum", schemas.SUM_REPORT),
        ("ntrivial", schemas.NTRIVIAL_REPORT),
        ("trivialize", schemas.TRIVIALIZE_REPORT),
    )
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()[:16]


def _poly(pairs) -> LaurentPoly:
    return LaurentPoly({exp: coeff for coeff, exp in pairs})


def _writhe(d) -> int:
    return sum(c.sign for c in d.chords)


def _bracket_route(bracket_pairs, jones_pairs, w: int) -> None:
    _require(
        jones_from_bracket(_poly(bracket_pairs), w) == _poly(jones_pairs),
        "jones_hat differs from the bracket route",
    )


def reference_v2(invariant: str, d, dropped=()) -> int:
    """v21 (t1 h2 h1 t2) or v22 (h1 t2 t1 h2) of a long diagram with the
    ``dropped`` chords deleted, counted over ordered chord pairs."""
    chords = [c for c in d.chords if c.id not in dropped]
    total = 0
    for a in chords:
        for b in chords:
            if a is b:
                continue
            if invariant == "v21":
                hit = a.tail < b.head < a.head < b.tail
            else:
                hit = a.head < b.tail < a.tail < b.head
            if hit:
                total += a.sign * b.sign
    return total


def reference_gpv_sum(invariant: str, d, chords) -> int:
    return sum(
        (-1) ** r * reference_v2(invariant, d, set(drop))
        for r in range(len(chords) + 1)
        for drop in itertools.combinations(chords, r)
    )


def _check_kh(req, rc, report) -> None:
    if report.get("skipped"):
        _require(rc == 2, "skipped kh report without exit 2")
        return
    d = parse_gauss_code(req.code, req.kind)
    closed = d if d.kind == "closed" else reclose(d)
    _require(report["euler_check"] == "ok", "euler_check is not ok")
    _require(report["writhe"] == _writhe(closed), "writhe is not the sum of chord signs")
    _bracket_route(report["bracket"], report["jones_hat"], report["writhe"])


def _check_eval(req, rc, report) -> None:
    d = parse_gauss_code(req.code, req.kind)
    (row,) = report["diagrams"]
    _require(row["code"] == d.code(), "eval row code differs from the input")
    closed = d if d.kind == "closed" else reclose(d)
    _bracket_route(row["bracket"], row["jones_hat"], _writhe(closed))
    for name in ("v21", "v22"):
        want = reference_v2(name, d) if d.kind == "long" else None
        _require(row[name] == want, f"{name} differs from the direct pair count")


def _check_gpv_sum(req, rc, report) -> None:
    d = parse_gauss_code(req.code, req.kind)
    invariant = report["invariant"]
    (value,) = report["values"]
    _require(value == reference_gpv_sum(invariant, d, req.chords),
             f"{invariant} sum differs from the direct pair count")
    if len(req.chords) == 3:
        _require(value == 0, f"3-chord {invariant} sum is {value}, not 0")


def _check_trivialize(req, rc, report) -> None:
    (result,) = report["results"]
    if not result["found"]:
        _require(rc == 2, "trivialize found nothing but did not exit 2")
        return
    d = parse_gauss_code(req.code, req.kind)
    events = [MoveEvent(kind, tuple(data)) for kind, data in result["trace"]]
    _require(apply_trace(d, events).n == 0, "trivialize trace does not replay to empty")
    _require(result["replayed_empty"] is True, "replayed_empty is not true")


def _check_ntrivial(req, rc, report) -> None:
    statuses = [s["status"] for s in report["subsets"]]
    _require(bool(statuses), "ntrivial reported no subsets")
    _require((rc == 2) == ("unknown" in statuses), "exit status disagrees with verdicts")
    _require(report["aggregate"] == all(s == "certified" for s in statuses),
             "aggregate disagrees with verdicts")
    for s in report["subsets"]:
        if s["status"] == "certified":
            _require(isinstance(s["trace_length"], int), "certified subset without trace")
        if s["status"] == "refuted":
            _require(isinstance(s["witness"], list) and len(s["witness"]) == 3,
                     "refuted subset without witness")


CHECKS = {
    "kh": _check_kh,
    "eval": _check_eval,
    "gpv-sum": _check_gpv_sum,
    "trivialize": _check_trivialize,
    "ntrivial": _check_ntrivial,
}


def check(req, rc, out: str) -> tuple[str, str | None]:
    """(status, reason): status is ok, exhausted or failed; the reason names
    the first check that failed."""
    command = req.argv[0]
    try:
        _require(rc in (0, 2), f"exit status {rc!r}")
        _require(out.endswith("\n") and out.count("\n") == 1, "report is not one line")
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report is not JSON: {exc}") from None
        _require(isinstance(report, dict), "report is not a JSON object")
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        _require(out == canonical, "report is not canonical JSON")
        if not (command == "kh" and report.get("skipped")):
            error = jsonschema.exceptions.best_match(VALIDATORS[command].iter_errors(report))
            _require(error is None, f"schema: {error and error.message}")
        CHECKS[command](req, rc, report)
    except CheckFailed as exc:
        return FAILED, str(exc)
    except (KeyError, TypeError, ValueError) as exc:  # report shape the schema let through
        return FAILED, f"{type(exc).__name__}: {exc}"
    return (OK if rc == 0 else EXHAUSTED), None
