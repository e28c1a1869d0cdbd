"""Command-line interface.

Subcommands: eval, kh, gpv-sum, f-sum, ntrivial, trivialize, braid,
lemma5, selftest.  Exit status: 0 on success, 1 on input errors (argparse
usage errors included; every refusal of input derives from
:class:`~vknots.diagram.DiagramError`), 2 when a cap or search budget was
exhausted.  On exit 2 a report is still printed for the skipped rows of
``kh``, ``lemma5`` and ``braid --scan``, the unknown subsets of
``ntrivial``, and ``trivialize`` when a diagram gets no trace (its
``--depth``, its move graph or its ``--max-nodes`` ran out; a diagram
whose search hit the node cap gets the row of a depth miss).  No report
is printed when a cap is raised as
:class:`~vknots.khovanov.CapExceeded`: the chord cap of ``eval``, the
subset caps of ``gpv-sum``, ``f-sum`` and ``ntrivial``, and the
``braid`` bounds.  No report is printed on exit 1 either: a command
that refuses any diagram of its input prints nothing on stdout,
``ntrivial`` included.
JSON output is deterministic (sorted keys) for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import NoReturn

from .arrows import gpv_alt_sum, load_arrow_polynomial, pairing, v21, v22
from .braids import (
    BraidError,
    EXAMPLE_GENS,
    _family_counts,
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
    DEFAULT_NODE_CAP,
    FamilyError,
    check_n_trivial,
    f_alt_sum,
    load_families,
    trivialize_forbidden,
)
from .khovanov import (
    CapExceeded,
    DEFAULT_HOMOLOGY_CAP,
    MAX_CAP_CHORDS,
    bracket,
    homology,
    homology_and_bracket,
    jones_from_bracket,
    jones_hat,
    lemma5_scan,
    reduce_for_state_sums,
    writhe,
)
from .moves import SearchStats, apply_move, apply_trace, enumerate_moves

OK, INPUT_ERROR, EXHAUSTED = 0, 1, 2

INVARIANTS = {"v21": v21, "v22": v22}


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return
    _print_table(obj)


def _print_table(obj: dict) -> None:
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for row in value:
                cells = "  ".join(f"{k}={row[k]}" for k in sorted(row))
                print(f"  {cells}")
        else:
            print(f"{key}: {value}")


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
    diagrams = read_diagram_file(text, args.kind)
    if not diagrams:
        raise ParseError("no diagrams in input")
    return diagrams


# -- subcommands -----------------------------------------------------------------


def _check_subset_cap(command: str, what: str, count: int, cap: int) -> None:
    """Refuse an alternating sum over more than ``cap`` members before any
    evaluation.  ``f-sum`` evaluates its invariant 2**count times per
    diagram and ``ntrivial`` certifies 2**count - 1 subsets; ``gpv-sum``
    counts the chord pairs that contain its chords in one pass, and
    keeps the same cap so its exit codes stay those of the 2**count sum."""
    if count > cap:
        raise CapExceeded(f"{command} capped at {cap} {what}, got {count}")


def _report_skipped(command: str, cap: int, skipped: int, total: int, what: str) -> int:
    """Exit status of a run that skipped ``skipped`` of ``total`` items
    above the chord cap; when it skipped any, one stderr line names the cap."""
    if not skipped:
        return OK
    print(f"{command}: --cap-chords {cap} exceeded: skipped {skipped} of {total} {what}",
          file=sys.stderr)
    return EXHAUSTED


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
        br = bracket(closed)
        row = {
            "kind": d.kind,
            "code": d.code(),
            "bracket": br.pairs(),
            "jones_hat": jones_from_bracket(br, writhe(closed)).pairs(),
            "v21": v21(d) if d.kind == "long" else None,
            "v22": v22(d) if d.kind == "long" else None,
            "arrow_pairing": None,
        }
        if poly is not None and poly.kind == d.kind:
            row["arrow_pairing"] = pairing(poly, d)
        rows.append(row)
    _emit({"diagrams": rows}, args.format)
    return OK


def cmd_kh(args) -> int:
    diagrams = _load_diagrams(args)
    skipped = 0
    for d in diagrams:
        closed = d if d.kind == "closed" else reclose(d)
        if closed.n > args.cap_chords:
            _emit({"code": d.code(), "skipped": True, "chords": closed.n}, args.format)
            skipped += 1
            continue
        # One walk of the reduced diagram gives the table and the bracket,
        # and the Jones polynomial is read off that bracket.  Removing a kink
        # of sign e divides the bracket by -A**(3e), so
        # <D> = (-A^3)**(w(D) - w(D')) <D'>.
        reduced, dw = reduce_for_state_sums(closed)
        table, br = homology_and_bracket(reduced, args.cap_chords)
        jh = jones_from_bracket(br, writhe(reduced))
        br = br.shift(3 * dw) * (-1) ** (dw % 2)
        report = {
            "writhe": writhe(closed),
            "table": [
                {"i": i, "j": j, "dim": dim} for (i, j), dim in table.dims
            ],
            "jones_hat": jh.pairs(),
            "bracket": br.pairs(),
            "euler_check": "ok" if table.euler() == jh else "mismatch",
        }
        _emit(report, args.format)
    return _report_skipped("kh", args.cap_chords, skipped, len(diagrams), "diagrams")


def cmd_gpv_sum(args) -> int:
    fn = INVARIANTS[args.invariant]
    chords = sorted(set(args.chords))
    _check_subset_cap("gpv-sum", "chords", len(chords), args.cap_chords)
    values = []
    for d in _load_diagrams(args):
        # checked before the invariant refuses a closed diagram, in the order
        # gpv_alt_sum checks them; v21/v22 then count the chord pairs
        # containing them, which is their alternating sum over the deletions
        for cid in chords:
            d.chord(cid)
        values.append(fn(d, containing=chords))
    _emit({"invariant": args.invariant, "values": values}, args.format)
    return OK


def cmd_f_sum(args) -> int:
    fn = INVARIANTS[args.invariant]
    with open(args.families, "r", encoding="utf-8") as fh:
        mode, families = load_families(fh.read())
    if mode != "F" or len(families) != 1:
        raise FamilyError("f-sum expects a families file with mode 'F' and one family")
    (sites,) = families
    _check_subset_cap("f-sum", "sites", len(set(sites)), args.cap_chords)
    values = []
    for d in _load_diagrams(args):
        values.append(f_alt_sum(fn, d, sites))
    _emit({"invariant": args.invariant, "values": values}, args.format)
    return OK


def cmd_ntrivial(args) -> int:
    with open(args.families, "r", encoding="utf-8") as fh:
        mode, families = load_families(fh.read())
    _check_subset_cap("ntrivial", "families", len(families), args.cap_chords)
    total = 0
    reasons = {"budget": 0, "cap": 0, "search": 0}
    reports = []
    for d in _load_diagrams(args):
        verdicts, aggregate = check_n_trivial(d, families, args.budget, args.cap_chords)
        total += len(verdicts)
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
                reasons[v.reason] += 1
        reports.append({"mode": mode, "subsets": subsets, "aggregate": aggregate})
    for report in reports:
        _emit(report, args.format)
    unknown = sum(reasons.values())
    if not unknown:
        return OK
    said = {
        "budget": f"--budget {args.budget} spent",
        "cap": f"the Jones and Khovanov rows skipped above --cap-chords {args.cap_chords}",
        "search": "the R-move search ended and every battery row matching the unknot's",
    }
    why = ", ".join(f"{count} with {said[r]}" for r, count in reasons.items() if count)
    print(f"ntrivial: {unknown} of {total} subsets unknown "
          f"(neither emptied by the R-move search nor refuted): {why}", file=sys.stderr)
    return EXHAUSTED


def cmd_trivialize(args) -> int:
    results = []
    depth_cut = graph_out = 0
    capped: dict[str, int] = {}  # stop message -> diagrams it stopped
    for d in _load_diagrams(args):
        stats = SearchStats()
        try:
            trace = trivialize_forbidden(d, args.budget, stats=stats, node_cap=args.max_nodes)
        except CapExceeded as exc:
            capped[str(exc)] = capped.get(str(exc), 0) + 1
            trace = stats = None
        if trace is None:
            results.append({"code": d.code(), "found": False, "trace": None,
                            "replayed_empty": None})
            # budget_spent is False when the search walked the whole move
            # graph: no depth would have found a trace
            if stats is not None:
                depth_cut += stats.budget_spent
                graph_out += not stats.budget_spent
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
    if depth_cut:
        print(f"trivialize: --depth {args.budget} exhausted: no trace for {depth_cut} "
              f"of {len(results)} diagrams", file=sys.stderr)
    if graph_out:
        print(f"trivialize: the move graph ran out with --depth {args.budget} unspent: no "
              f"trace at any depth for {graph_out} of {len(results)} diagrams", file=sys.stderr)
    for stop, count in capped.items():
        print(f"{stop} (--max-nodes): no trace for {count} of {len(results)} diagrams",
              file=sys.stderr)
    return EXHAUSTED if depth_cut or graph_out or capped else OK


def cmd_braid(args) -> int:
    gens = EXAMPLE_GENS
    if args.gens:
        with open(args.gens, "r", encoding="utf-8") as fh:
            gens = load_generator_def(fh.read())
    if args.scan:
        lo, hi = args.scan
        _family_counts(hi, gens)  # refuses a k past the bounds before any row
        rows = scan_family(range(lo, hi + 1), gens, args.cap_chords)
        _emit({"rows": rows}, args.format)
        skipped = sum(1 for r in rows if r["skipped"])
        return _report_skipped("braid --scan", args.cap_chords, skipped, len(rows), "rows")
    if args.bk is not None:
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
    diagrams = _load_diagrams(args)
    skipped = 0
    for d in diagrams:
        closed = d if d.kind == "closed" else reclose(d)
        if closed.n > args.cap_chords:
            _emit({"code": d.code(), "skipped": True}, args.format)
            skipped += 1
            continue
        states = [
            {"markers": list(markers), "i": i, "j": j, "off_axis": abs(j) != 1}
            for markers, i, j in lemma5_scan(closed, args.cap_chords)
        ]
        _emit({"states": states}, args.format)
    return _report_skipped("lemma5", args.cap_chords, skipped, len(diagrams), "diagrams")


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
        # The sum over subsets V of S of (-1)**|V| <A, D - V> is the signed
        # count of the matches of A whose chords contain S, which v21 counts
        # directly; the alternating sum never uses this identity.
        for _ in range(samples):
            d = random_diagram(rng, rng.randint(3, 8), "long")
            ids = list(d.chord_ids())
            rng.shuffle(ids)
            marks = set(ids[: rng.randint(1, 3)])
            if gpv_alt_sum(v21, d, marks) != v21(d, marks):
                raise AssertionError(f"semi-virtual expansion mismatch on {d.code()!r}")
        return "semi-virtual expansion counts the v21 matches containing the marks"

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
    if lo > hi:
        raise argparse.ArgumentTypeError(f"LO must not exceed HI, got {text!r}")
    return lo, hi


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    parser = _Parser(
        prog="vknots",
        description="Gauss-diagram invariants of classical and virtual knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=True):
        p.add_argument("--input", help="diagram file (one Gauss code per line, '-' for stdin)")
        p.add_argument("--code", help="inline Gauss code (may be empty for the unknot)")
        p.add_argument("--kind", choices=("closed", "long"), default="closed",
                       help="kind for --code and unprefixed file lines")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if cap:
            p.add_argument("--cap-chords", type=int, default=DEFAULT_HOMOLOGY_CAP)

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
    p.add_argument("--budget", type=int, default=2000,
                   help="nodes the R-move search expands per subset")
    p.set_defaults(func=cmd_ntrivial)

    p = sub.add_parser("trivialize", help="unknotting search over forbidden + R moves")
    common(p, cap=False)
    p.set_defaults(func=cmd_trivialize)
    p.add_argument("--depth", "--budget", dest="budget", type=int, default=10,
                   help="maximum trace length")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_CAP,
                   help="search nodes expanded, over all depths, before exit 2")

    p = sub.add_parser("braid", help="build/close braid words, scan the commutator family")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--gens", help="generator JSON {'A': word, 'B': word}")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--word", help="braid word, e.g. 's1 v1 s1 v1'")
    mode.add_argument("--bk", type=int, help="build family member b(k)")
    mode.add_argument("--scan", type=_scan_range, help="scan family members, e.g. 1:4")
    p.add_argument("--cap-chords", type=int, default=DEFAULT_HOMOLOGY_CAP)
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("lemma5", help="scan states passing the fast nontriviality certificate")
    common(p)
    p.set_defaults(func=cmd_lemma5)

    p = sub.add_parser("selftest", help="seeded randomized property batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_selftest)

    return parser, sub.choices


@functools.lru_cache(maxsize=1)
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and subparsers of :func:`build_parser`, built on the first
    :func:`main` call of the process and reused: parsing keeps no state in
    them."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parse_args`` of the top-level parser, in one pass when ``argv[0]``
    names a subcommand: its subparser reads ``argv[1:]`` directly, and
    anything it leaves is refused with the top-level usage line, as the
    two-pass parse does.  Anything else (no arguments, a leading ``-h``,
    an unknown command) takes the top-level parse."""
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        print(f"error: --samples must be at least 1, got {samples}", file=sys.stderr)
        return INPUT_ERROR
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXHAUSTED
    except (DiagramError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
