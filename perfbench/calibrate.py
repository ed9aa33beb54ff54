"""Machine-speed calibration.

The shared machines this benchmark runs on change speed by ±25% over
seconds to minutes as neighbours come and go, and the slowdown shows in
process CPU time as much as in wall time. A fixed kernel, timed right
before and right after each op, measures the machine's current speed; the
benchmark rescales each op's wall time by ``NOMINAL_S / kernel time`` so
that the reported times read as if the machine ran at its nominal speed.
The kernel mixes the kinds of work locmax does: dict deduplication of
integer pairs, text parsing, and numpy sorts and scatter-max.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# Median time of one kernel run on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4). Only ratios to it matter: it fixes the unit of the rescaled
# times, the same for every commit measured.
NOMINAL_S = 0.090


class Kernel:
    """A fixed kernel and its inputs, built once.

    Its two halves differ in working set: one fits in a core's private
    caches, the other (a dict of ~60k pairs, as ``build_graph`` keeps) does
    not, so it also slows when neighbours compete for the shared cache.
    Together they track the slowdowns of every workload better than either
    alone.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.pairs = list(zip(rng.integers(0, 3000, 8_500).tolist(),
                              rng.integers(0, 3000, 8_500).tolist()))
        self.lines = [f"{u} {v} {w!r}"
                      for (u, v), w in zip(self.pairs[:2000], rng.random(2000).tolist())]
        self.keys = rng.random(50_000)
        self.ids = rng.integers(0, 10_000, 50_000)
        # kept as arrays and turned into Python objects per run, so that the
        # large half adds to the process's memory only while it runs
        self.big_u = rng.integers(0, 1 << 18, 60_000)
        self.big_v = rng.integers(0, 1 << 18, 60_000)
        self.big_lines = [f"{u} {v} {w!r}" for u, v, w in zip(
            self.big_u[:9000].tolist(), self.big_v[:9000].tolist(), rng.random(9000).tolist())]

    @staticmethod
    def _dedup_and_parse(pairs, lines) -> int:
        kept: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            pair = (u, v) if u < v else (v, u)
            if pair not in kept:
                kept[pair] = len(kept)
        parsed = 0.0
        for line in lines:
            a, b, c = line.split()
            parsed += int(a) - int(b) + float(c)
        return len(kept) + int(parsed > 0)

    def _run(self) -> int:
        total = self._dedup_and_parse(zip(self.big_u.tolist(), self.big_v.tolist()),
                                      self.big_lines)
        for _ in range(2):
            total += self._dedup_and_parse(self.pairs, self.lines)
            order = np.lexsort((self.ids, self.keys))
            best = np.zeros(10_000)
            np.maximum.at(best, self.ids, self.keys)
            total += int(order[0]) + int(best.argmax()) + int(np.unique(self.ids).size)
        return total

    def measure(self) -> float:
        """Seconds one kernel run takes now.

        Collects garbage first, so that the op that follows starts from a
        heap without the previous op's garbage, as a fresh ``locmax``
        process would. The cyclic collector is off while the kernel runs:
        its full collections walk every live object, so with it on the
        kernel slows when an op leaves a larger heap behind, and the
        rescaling would hide part of that op's own cost.
        """
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            self._run()
            return perf_counter() - t0
        finally:
            gc.enable()

    def rescale(self, seconds: float, cal_before: float, cal_after: float) -> float:
        """``seconds`` measured between two kernel runs, at nominal speed."""
        return seconds * NOMINAL_S * 2.0 / (cal_before + cal_after)


def heap_check(pairs: int = 25, live: int = 250_000) -> None:
    """Print how much a heap left full of live objects slows the kernel:
    the median, over ``pairs`` tries, of the kernel time with ``live``
    fragmented containers held, over the mean of clean runs on either side.
    Run as ``python3 perfbench/calibrate.py [pairs] [live]``."""
    import statistics
    k = Kernel()
    k.measure()
    ratios = []
    for _ in range(pairs):
        before = k.measure()
        # allocate 2 * live small containers and keep every other one
        held = [(i, [i], {"k": i}) for i in range(2 * live)][::2]
        loaded = k.measure()
        del held
        after = k.measure()
        ratios.append(2.0 * loaded / (before + after))
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"kernel slowdown with {live} live containers: median "
          f"{statistics.median(ratios):.4f} (q1 {q1:.4f}, q3 {q3:.4f})")


if __name__ == "__main__":
    import sys
    heap_check(*map(int, sys.argv[1:3]))
