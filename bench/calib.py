"""Host-speed calibration for the timed passes.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes: in one 90 s stretch the same pure-Python
loop went from 17 ms to 27 ms, and the arrows-long requests slowed by 35%
with it.  Wall times taken minutes apart therefore differ more than any
program change the benchmark is meant to resolve.

A pass interleaves a fixed kernel with its requests: pure Python with the
operation mix of vknots (method calls on slotted objects, tuple keys in
dicts and sets, sorting, big-int XOR elimination), but none of its code, so
no program change can move it.  Each request time is then scaled by
``REFERENCE_S`` over the median kernel time around it, which reads as the
time that request takes on a host where the kernel takes ``REFERENCE_S``.
Raw wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# About the median kernel time on the host the baseline was measured on
# (2 vCPU Xeon at 2.1 GHz, Python 3.11), where runs saw 3.4-3.7 ms.
REFERENCE_S = 0.0034

# Run the kernel after a request once this much time has passed since it
# last ran: about a tenth of the time on small-batch, whose requests take
# ~15 ms, and once per request on the other workloads.
EVERY_S = 0.05

# Kernel samples on each side of a request that set its scale.
WINDOW = 12

# Kernel runs right after set-up; they warm the kernel and scale set-up time.
SETUP_SAMPLES = 7


class _Node:
    __slots__ = ("key", "sign", "link")

    def __init__(self, key: int, sign: int):
        self.key = key
        self.sign = sign
        self.link = None

    def step(self, x: int) -> int:
        return (self.key * x + self.sign) & 0xFFFF


_rng = random.Random(20200806)
_NODES = [_Node(i, _rng.choice((-1, 1))) for i in range(160)]
_ROWS = tuple(_rng.getrandbits(240) for _ in range(120))


def kernel() -> int:
    """A fixed piece of pure-Python work of a few milliseconds."""
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    for rep in range(4):
        for node in _NODES:
            acc ^= node.step(rep)
            key = (acc & 0xFF, node.sign)
            seen[key] = seen.get(key, 0) + 1
        order = sorted((node.step(acc), node.key) for node in _NODES)
        acc += len({a for a, _ in order}) + len(seen)
    rows = list(_ROWS)
    rank = 0
    for bit in range(240):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= top
        rank += 1
    return acc + rank


class Calibrator:
    """Kernel samples of one pass, as (time taken, perf_counter at the end)."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - t)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """REFERENCE_S over the median of the WINDOW samples on each side
        of time ``t``."""
        i = bisect.bisect_left(self.ends, t)
        lo, hi = max(0, i - WINDOW), min(len(self.ends), i + WINDOW)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def setup_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.durations[:SETUP_SAMPLES])
