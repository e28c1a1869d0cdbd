"""Seeded request corpora for the benchmark workloads.

A corpus is a list of CLI requests, each an argv for ``vknots.cli.main``
plus the Gauss code it carries.  Every request is drawn from one
``random.Random`` stream in a fixed order, so the first k requests of a
corpus do not depend on how many are drawn; the golden digests rely on that.

Input sizes and subcommands follow a fixed rotation and only the diagrams
themselves are random, so a pass that ends on a whole rotation sees the same
mix of request kinds whatever the seed, and the run-to-run spread is the
host's and the diagrams', not the mix's.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from vknots.braids import (
    REAL_NEG,
    REAL_POS,
    STRANDS,
    VIRTUAL,
    BraidError,
    BraidLetter,
    BraidWord,
    closure,
)
from vknots.corpus import random_diagram
from vknots.forbidden import disjoint_sites

# Fixed trivialize depth: deep enough that about half the small diagrams
# are unknotted within it, shallow enough that a miss costs under 0.1 s.
TRIVIALIZE_DEPTH = 6


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    code: str
    kind: str
    chords: tuple[int, ...] = ()  # gpv-sum only


class FamiliesFiles:
    """Gives each distinct families JSON a file in ``directory``.  The files
    are created by ``write``, so that corpus generation does no disk I/O."""

    def __init__(self, directory: str):
        self.directory = directory
        self._paths: dict[str, str] = {}
        self._pending: list[tuple[str, str]] = []

    def path_for(self, obj: dict) -> str:
        text = json.dumps(obj, sort_keys=True)
        path = self._paths.get(text)
        if path is None:
            path = os.path.join(self.directory, f"families-{len(self._paths)}.json")
            self._paths[text] = path
            self._pending.append((path, text))
        return path

    def write(self) -> None:
        """Create the files handed out since the last call."""
        for path, text in self._pending:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self._pending.clear()


def random_braid_closure(rng: random.Random, real: int):
    """Closure of a random 4-strand word with ``real`` real letters and up to
    four virtual ones; words whose closure is not a knot are redrawn."""
    while True:
        kinds = [rng.choice((REAL_POS, REAL_NEG)) for _ in range(real)]
        kinds += [VIRTUAL] * rng.randint(0, 4)
        rng.shuffle(kinds)
        word = BraidWord(tuple(BraidLetter(rng.randint(1, STRANDS - 1), k) for k in kinds))
        try:
            return closure(word)
        except BraidError:  # more than one component
            continue


def _code_args(d) -> tuple[str, ...]:
    return ("--code", d.code(), "--kind", d.kind)


# Braid closures carry 2-3x the homology basis of random diagrams at the same
# chord count, so both sources are kept at every size, four requests each
# per rotation.  Sorted by cost the strata are in the order listed, and the
# doubled 11-chord braid stratum holds the middle of the rotation, so the
# median latency falls inside one cost class rather than on the gap
# between two, where it would hang on the extremes of both.
KH_STRATA = (
    (10, "random"), (10, "braid"),
    (11, "random"), (11, "braid"), (11, "braid"),
    (12, "random"), (12, "random"), (12, "braid"),
)

# Median homology basis size (the sum over the 2^n smoothings of
# 2^circles) per stratum, from 80 diagrams each.  The basis size sets a kh
# request's time and memory and is heavy-tailed (over 4x the median for
# 12-chord braid closures), so kh-large keeps diagrams whose estimated basis
# is within KH_BAND of their stratum's median: a run sees ~80 requests, and
# a handful of outliers would otherwise decide its throughput and peak memory.
KH_TYPICAL_BASIS = {
    (10, "random"): 7500, (10, "braid"): 11000,
    (11, "random"): 14800, (11, "braid"): 21500,
    (12, "random"): 33000, (12, "braid"): 58000,
}
KH_BAND = (0.8, 1.25)
BASIS_SAMPLES = 96


def _circle_count(d, mask: int) -> int:
    """Circles of the smoothing of ``d`` in which chord k takes its negative
    marker when bit k of ``mask`` is set."""
    m = 2 * d.n
    # arc i runs from slot i to slot i+1; its ends are 2i and 2i+1
    partner = [0] * (2 * m)
    for k, c in enumerate(d.chords):
        in_t, in_h = 2 * ((c.tail - 1) % m) + 1, 2 * ((c.head - 1) % m) + 1
        out_t, out_h = 2 * c.tail, 2 * c.head
        if (c.sign > 0) != bool(mask >> k & 1):
            pairs = ((in_t, out_h), (in_h, out_t))
        else:
            pairs = ((in_t, in_h), (out_t, out_h))
        for a, b in pairs:
            partner[a], partner[b] = b, a
    seen = [False] * (2 * m)
    count = 0
    for start in range(0, 2 * m, 2):
        if seen[start]:
            continue
        count += 1
        end = start
        while not seen[end]:
            seen[end] = seen[end ^ 1] = True
            end = partner[end ^ 1]
    return count


def estimated_basis(d, rng: random.Random) -> float:
    """Monte Carlo estimate of the homology basis size of a closed diagram."""
    total = sum(2 ** _circle_count(d, rng.getrandbits(d.n)) for _ in range(BASIS_SAMPLES))
    return total / BASIS_SAMPLES * 2 ** d.n


def kh_large(rng: random.Random, count: int, files: FamiliesFiles) -> list[Request]:
    out = []
    lo, hi = KH_BAND
    for i in range(count):
        n, source = KH_STRATA[i % len(KH_STRATA)]
        while True:
            if source == "random":
                d = random_diagram(rng, n, "closed")
            else:
                d = random_braid_closure(rng, n)
            if lo <= estimated_basis(d, rng) / KH_TYPICAL_BASIS[n, source] <= hi:
                break
        out.append(Request(("kh",) + _code_args(d), d.code(), d.kind))
    return out


SMALL_OPS = ("ntrivial-gpv", "ntrivial-f", "trivialize", "eval")


def small_batch(rng: random.Random, count: int, files: FamiliesFiles) -> list[Request]:
    out = []
    for i in range(count):
        n = 4 + i % 6
        op = SMALL_OPS[(i // 6) % len(SMALL_OPS)]
        kind = rng.choice(("closed", "long"))
        d = random_diagram(rng, n, kind)
        if op == "ntrivial-gpv":
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            families = [sorted(ids[:a]), sorted(ids[a:a + b])]
            path = files.path_for({"mode": "GPV", "families": families})
            argv = ("ntrivial",) + _code_args(d) + ("--families", path)
        elif op == "ntrivial-f":
            sites = disjoint_sites(d, 2)
            while sites is None:
                d = random_diagram(rng, n, kind)
                sites = disjoint_sites(d, 2)
            families = [[{"slots": [s.slot, s.slot + 1], "kind": s.kind}] for s in sites]
            path = files.path_for({"mode": "F", "families": families})
            argv = ("ntrivial",) + _code_args(d) + ("--families", path)
        elif op == "trivialize":
            argv = ("trivialize",) + _code_args(d) + ("--depth", str(TRIVIALIZE_DEPTH))
        else:
            argv = ("eval",) + _code_args(d)
        out.append(Request(argv, d.code(), d.kind))
    return out


# Chord-count bands rather than fixed sizes: a request's time is set by n
# and the number of chosen chords alone, and with fixed sizes the median
# latency would sit on a gap between two cost classes.  Within a band, n
# steps through ARROW_OFFSETS, one per rotation, centred so that the first r
# rotations of any pass average near the band's middle.  Only the diagrams
# and chosen chords come from the seed, so the seed barely moves the cost.
ARROW_BANDS = ((30, 37), (38, 45), (46, 53), (54, 60))
ARROW_OFFSETS = (4, 3, 5, 2, 6, 1, 7, 0)


def arrows_long(rng: random.Random, count: int, files: FamiliesFiles) -> list[Request]:
    out = []
    for i in range(count):
        k = 2 + i % 2
        invariant = ("v21", "v22")[(i // 2) % 2]
        lo, hi = ARROW_BANDS[(i // 4) % len(ARROW_BANDS)]
        step = ARROW_OFFSETS[(i // CYCLE["arrows-long"]) % len(ARROW_OFFSETS)]
        n = lo + step % (hi - lo + 1)
        d = random_diagram(rng, n, "long")
        chords = tuple(rng.sample(range(1, n + 1), k))
        argv = ("gpv-sum",) + _code_args(d) + (
            "--invariant", invariant, "--chords", ",".join(map(str, chords)))
        out.append(Request(argv, d.code(), d.kind, chords))
    return out


GENERATORS = {"kh-large": kh_large, "small-batch": small_batch, "arrows-long": arrows_long}

# Requests per full rotation of sizes and subcommands.  A timed pass stops
# only after a whole rotation, so every run has the same mix of requests.
CYCLE = {
    "kh-large": len(KH_STRATA),
    "small-batch": 6 * len(SMALL_OPS),
    "arrows-long": 4 * len(ARROW_BANDS),
}

# Peak memory is read after this many requests of a pass, and a pass serves
# at least this many, so the figure covers the same work at any speed:
# khovanov._spaces keeps each diagram's state space until 64 are cached, so
# memory grows with the number of requests served.
RSS_AFTER = {
    "kh-large": 3 * CYCLE["kh-large"],
    "small-batch": 12 * CYCLE["small-batch"],
    "arrows-long": 2 * CYCLE["arrows-long"],
}


def corpus(workload: str, seed: int, pass_index: int, count: int, files: FamiliesFiles) -> list[Request]:
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return GENERATORS[workload](rng, count, files)
