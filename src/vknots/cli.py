"""Command-line interface.

Subcommands: eval, kh, gpv-sum, f-sum, ntrivial, trivialize, braid,
lemma5, selftest.  Exit status: 0 on success, 1 on input errors (argparse
usage errors included), 2 when a cap or search budget was exhausted (a
partial report is still printed).
JSON output is deterministic (sorted keys) for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import NoReturn

from .arrows import (
    ArrowError,
    gpv_alt_sum,
    load_arrow_polynomial,
    pairing,
    v21,
    v22,
)
from .braids import (
    BraidError,
    EXAMPLE_GENS,
    b_family,
    closure,
    load_generator_def,
    parse_braid_word,
    scan_family,
)
from .corpus import random_diagram
from .diagram import (
    DiagramError,
    GaussDiagram,
    ParseError,
    parse_gauss_code,
    read_diagram_file,
    reclose,
)
from .forbidden import (
    Family,
    FamilyError,
    check_n_trivial,
    expand_semivirtual,
    f_alt_sum,
    load_families,
    site_at,
    trivialize_forbidden,
)
from .khovanov import (
    CapExceeded,
    DEFAULT_HOMOLOGY_CAP,
    MAX_CAP_CHORDS,
    bracket,
    homology,
    jones_hat,
    lemma5_scan,
    writhe,
)
from .moves import MoveError, apply_trace, enumerate_moves, apply_move

OK, INPUT_ERROR, EXHAUSTED = 0, 1, 2

INVARIANTS = {"v21": v21, "v22": v22}


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return
    _print_table(obj)


def _print_table(obj: dict, indent: str = "") -> None:
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for row in value:
                cells = "  ".join(f"{k}={row[k]}" for k in sorted(row))
                print(f"{indent}  {cells}")
        else:
            print(f"{indent}{key}: {value}")


def _load_diagrams(args) -> list[GaussDiagram]:
    if getattr(args, "code", None) is not None:
        return [parse_gauss_code(args.code, args.kind)]
    if not getattr(args, "input", None):
        raise ParseError("no input: pass --input FILE or --code 'O1+ ...'")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return read_diagram_file(text, args.kind)


# -- subcommands -----------------------------------------------------------------


def cmd_eval(args) -> int:
    diagrams = _load_diagrams(args)
    poly = None
    if args.arrow_poly:
        with open(args.arrow_poly, "rb") as fh:
            poly = load_arrow_polynomial(fh.read())
    for d in diagrams:
        if d.n > args.cap_chords:
            raise CapExceeded(f"eval capped at {args.cap_chords} chords, got {d.n}")
    rows = []
    for d in diagrams:
        closed = d if d.kind == "closed" else reclose(d)
        row = {
            "kind": d.kind,
            "code": d.code(),
            "bracket": bracket(closed).pairs(),
            "jones_hat": jones_hat(closed).pairs(),
            "v21": v21(d) if d.kind == "long" else None,
            "v22": v22(d) if d.kind == "long" else None,
            "arrow_pairing": None,
        }
        if poly is not None and (poly.kind is None or poly.kind == d.kind):
            row["arrow_pairing"] = pairing(poly, d)
        rows.append(row)
    _emit({"diagrams": rows}, args.format)
    return OK


def cmd_kh(args) -> int:
    diagrams = _load_diagrams(args)
    status = OK
    for d in diagrams:
        closed = d if d.kind == "closed" else reclose(d)
        if closed.n > args.cap_chords:
            _emit({"code": d.code(), "skipped": True, "chords": closed.n}, args.format)
            status = EXHAUSTED
            continue
        table = homology(closed, args.cap_chords)
        jh = jones_hat(closed)
        report = {
            "writhe": writhe(closed),
            "table": [
                {"i": i, "j": j, "dim": dim} for (i, j), dim in table.dims
            ],
            "jones_hat": jh.pairs(),
            "bracket": bracket(closed).pairs(),
            "euler_check": "ok" if table.euler() == jh else "mismatch",
        }
        _emit(report, args.format)
    return status


def cmd_gpv_sum(args) -> int:
    fn = INVARIANTS[args.invariant]
    values = []
    for d in _load_diagrams(args):
        values.append(gpv_alt_sum(fn, d, args.chords))
    _emit({"invariant": args.invariant, "values": values}, args.format)
    return OK


def cmd_f_sum(args) -> int:
    fn = INVARIANTS[args.invariant]
    with open(args.families, "r", encoding="utf-8") as fh:
        mode, families = load_families(fh.read())
    if mode != "F" or len(families) != 1:
        raise FamilyError("f-sum expects a families file with mode 'F' and one family")
    values = []
    for d in _load_diagrams(args):
        sites = [site_at(d, s.slot, s.kind) for s in families[0].members]
        values.append(f_alt_sum(fn, d, sites))
    _emit({"invariant": args.invariant, "values": values}, args.format)
    return OK


def cmd_ntrivial(args) -> int:
    with open(args.families, "r", encoding="utf-8") as fh:
        mode, families = load_families(fh.read())
    status = OK
    for d in _load_diagrams(args):
        if mode == "F":
            families = [
                Family(tuple(site_at(d, s.slot, s.kind) for s in fam.members))
                for fam in families
            ]
        verdicts, aggregate = check_n_trivial(
            d, families, mode, budget=args.budget, cap=args.cap_chords
        )
        subsets = []
        for subset in sorted(verdicts):
            v = verdicts[subset]
            subsets.append(
                {
                    "families": list(subset),
                    "status": v.status,
                    "trace_length": len(v.trace) if v.certified else None,
                    "witness": list(v.witness) if v.witness else None,
                }
            )
            if v.status == "unknown":
                status = EXHAUSTED
        _emit({"mode": mode, "subsets": subsets, "aggregate": aggregate}, args.format)
    return status


def cmd_trivialize(args) -> int:
    status = OK
    results = []
    for d in _load_diagrams(args):
        trace = trivialize_forbidden(d, args.budget)
        if trace is None:
            results.append({"code": d.code(), "found": False, "trace": None,
                            "replayed_empty": None})
            status = EXHAUSTED
        else:
            replay = apply_trace(d, trace)
            results.append(
                {
                    "code": d.code(),
                    "found": True,
                    "trace": [[e.kind, list(e.data)] for e in trace],
                    "replayed_empty": replay.n == 0,
                }
            )
    _emit({"results": results}, args.format)
    return status


def cmd_braid(args) -> int:
    gens = EXAMPLE_GENS
    if args.gens:
        with open(args.gens, "r", encoding="utf-8") as fh:
            gens = load_generator_def(fh.read())
    if args.scan:
        lo, hi = args.scan
        rows = scan_family(range(lo, hi + 1), gens, args.cap_chords)
        _emit({"rows": rows}, args.format)
        return EXHAUSTED if any(r["skipped"] for r in rows) else OK
    if args.bk:
        word = b_family(args.bk, gens)
    elif args.word is not None:
        word = parse_braid_word(args.word)
    else:
        raise BraidError("braid: pass --word, --bk or --scan")
    d = closure(word)
    _emit(
        {"word": word.token_str(), "code": d.code(), "chords": d.n}, args.format
    )
    return OK


def cmd_lemma5(args) -> int:
    status = OK
    for d in _load_diagrams(args):
        closed = d if d.kind == "closed" else reclose(d)
        if closed.n > args.cap_chords:
            _emit({"code": d.code(), "skipped": True}, args.format)
            status = EXHAUSTED
            continue
        states = [
            {"markers": list(markers), "i": i, "j": j, "off_axis": abs(j) != 1}
            for markers, i, j in lemma5_scan(closed, args.cap_chords)
        ]
        _emit({"states": states}, args.format)
    return status


# -- randomized self-test ------------------------------------------------------------


def _selftest_batteries(seed: int, samples: int):
    rng = random.Random(seed)

    def battery_slots():
        for _ in range(samples):
            d = random_diagram(rng, rng.randint(0, 6), rng.choice(("closed", "long")))
            for _ in range(4):
                events = enumerate_moves(
                    d, ["R1_del", "R2_del", "R3", "R1_add", "R2_add", "Fo", "Fu"]
                )
                if not events:
                    break
                d = apply_move(d, rng.choice(events))
                d = GaussDiagram(d.kind, d.chords)  # revalidates the slot partition
        return "slot partition after random move sequences"

    def battery_v2_invariance():
        for _ in range(samples):
            d = random_diagram(rng, rng.randint(0, 6), "long")
            events = enumerate_moves(d, ["R1_del", "R2_del", "R3", "R1_add", "R2_add"])
            if not events:
                continue
            e = rng.choice(events)
            d2 = apply_move(d, e)
            if (v21(d), v22(d)) != (v21(d2), v22(d2)):
                raise AssertionError(f"v21/v22 changed by {e.kind} on {d.code()!r}")
        return "v21/v22 invariance under random Reidemeister moves"

    def battery_gpv():
        for _ in range(samples):
            d = random_diagram(rng, rng.randint(3, 6), "long")
            ids = list(d.chord_ids())
            rng.shuffle(ids)
            if gpv_alt_sum(v21, d, ids[:3]) != 0:
                raise AssertionError(f"3-fold sum nonzero on {d.code()!r}")
        return "triple virtualization sums vanish for v21"

    def battery_kh():
        for _ in range(max(2, samples // 10)):
            d = random_diagram(rng, rng.randint(0, 5), "closed")
            events = enumerate_moves(d, ["R1_del", "R2_del", "R3", "R1_add", "R2_add"])
            if not events:
                continue
            e = rng.choice(events)
            d2 = apply_move(d, e)
            t1, t2 = homology(d), homology(d2)
            if t1.as_dict() != t2.as_dict():
                raise AssertionError(f"homology changed by {e.kind} on {d.code()!r}")
            if t1.euler() != jones_hat(d):
                raise AssertionError(f"euler mismatch on {d.code()!r}")
        return "Z2 homology invariance and Euler identity"

    def battery_expansion():
        for _ in range(samples):
            d = random_diagram(rng, rng.randint(2, 5), "long")
            ids = list(d.chord_ids())
            rng.shuffle(ids)
            marks = ids[: rng.randint(1, 3)]
            if expand_semivirtual(d, marks).evaluate(v21) != gpv_alt_sum(v21, d, marks):
                raise AssertionError(f"semi-virtual expansion mismatch on {d.code()!r}")
        return "semi-virtual expansion matches alternating sums"

    return [battery_slots, battery_v2_invariance, battery_gpv, battery_kh, battery_expansion]


def cmd_selftest(args) -> int:
    failures = 0
    for battery in _selftest_batteries(args.seed, args.samples):
        try:
            detail = battery()
            print(f"PASS {battery.__name__[8:]}: {detail}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {battery.__name__[8:]}: {exc}")
    return OK if failures == 0 else 1


# -- parser ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A command line argparse rejects; the message is argparse's usage
    text and error line."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises :class:`_UsageError` where argparse
    would exit with status 2, the status that means an exhausted budget
    here.  ``--help`` still exits 0."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _chord_ids(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated chord ids, got {text!r}"
        ) from None


def _scan_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vknots",
        description="Gauss-diagram invariants of classical and virtual knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, caps=True):
        p.add_argument("--input", help="diagram file (one Gauss code per line, '-' for stdin)")
        p.add_argument("--code", help="inline Gauss code (may be empty for the unknot)")
        p.add_argument("--kind", choices=("closed", "long"), default="closed",
                       help="kind for --code and unprefixed file lines")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if caps:
            p.add_argument("--cap-chords", type=int, default=DEFAULT_HOMOLOGY_CAP)
            p.add_argument("--budget", type=int, default=2000)

    p = sub.add_parser("eval", help="bracket, unnormalized Jones, v21/v22, arrow pairing")
    common(p)
    p.add_argument("--arrow-poly", help="arrow polynomial JSON file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kh", help="Z2 Khovanov homology table with Euler check")
    common(p)
    p.set_defaults(func=cmd_kh)

    p = sub.add_parser("gpv-sum", help="alternating sum over virtualizations")
    common(p)
    p.add_argument("--invariant", choices=sorted(INVARIANTS), default="v21")
    p.add_argument("--chords", required=True, type=_chord_ids,
                   help="comma-separated chord ids")
    p.set_defaults(func=cmd_gpv_sum)

    p = sub.add_parser("f-sum", help="alternating sum over forbidden-move toggles")
    common(p)
    p.add_argument("--invariant", choices=sorted(INVARIANTS), default="v21")
    p.add_argument("--families", required=True, help="families JSON (mode F, one family)")
    p.set_defaults(func=cmd_f_sum)

    p = sub.add_parser("ntrivial", help="certify triviality of subfamily toggles")
    common(p)
    p.add_argument("--families", required=True, help="families JSON")
    p.set_defaults(func=cmd_ntrivial)

    p = sub.add_parser("trivialize", help="unknotting search over forbidden + R moves")
    common(p)
    p.set_defaults(func=cmd_trivialize, budget=10)
    p.add_argument("--depth", dest="budget", type=int, default=10,
                   help="maximum trace length")

    p = sub.add_parser("braid", help="build/close braid words, scan the commutator family")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--gens", help="generator JSON {'A': word, 'B': word}")
    p.add_argument("--word", help="braid word, e.g. 's1 v1 s1 v1'")
    p.add_argument("--bk", type=int, help="build family member b(k)")
    p.add_argument("--scan", type=_scan_range, help="scan family members, e.g. 1:4")
    p.add_argument("--cap-chords", type=int, default=DEFAULT_HOMOLOGY_CAP)
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("lemma5", help="scan states passing the fast nontriviality certificate")
    common(p)
    p.set_defaults(func=cmd_lemma5)

    p = sub.add_parser("selftest", help="seeded randomized property batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on the first :func:`main`
    call of the process and reused: parsing keeps no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return INPUT_ERROR
    cap = getattr(args, "cap_chords", None)
    if cap is not None and not 0 <= cap <= MAX_CAP_CHORDS:
        print(
            f"error: --cap-chords must be between 0 and {MAX_CAP_CHORDS}, got {cap}",
            file=sys.stderr,
        )
        return INPUT_ERROR
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 0:
        flag = "--depth/--budget" if args.command == "trivialize" else "--budget"
        print(f"error: {flag} must be at least 0, got {budget}", file=sys.stderr)
        return INPUT_ERROR
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXHAUSTED
    except (
        ParseError,
        ArrowError,
        FamilyError,
        BraidError,
        MoveError,
        DiagramError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
