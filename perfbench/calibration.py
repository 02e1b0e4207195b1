"""Host-speed calibration for the time metrics.

On a shared virtual machine the speed of the CPU the benchmark gets drifts
by tens of percent over seconds to minutes, with no steal time reported:
a fixed pure-Python loop took 12.9 to 18.4 ms in consecutive 2-second
windows on the 2-vCPU host this benchmark was built on, and whole runs of
unchanged code differed by up to 1.5x.  Every measured time is therefore
scaled by how fast the host ran at that moment: between requests, outside
the timed regions, the benchmark times a fixed kernel that shares no code
with the program under test, and a request's latency is multiplied by the
kernel's reference time over its time in the samples around the request.
Each workload names the kernel whose slowdowns track its own: interpreter
work for the small-data workloads, NumPy on two threads for the analytic
one.  The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

#: loop time between two kernel samples
INTERVAL_S = 0.1

#: samples within this many seconds of a request set its factor
WINDOW_S = 1.0

_VECTOR = np.arange(20_000, dtype=np.float64)
_VALUES = np.random.default_rng(0).random(50_000)
_CODES = (_VALUES * 1_000).astype(np.int64) % 64


def interpreter_kernel() -> None:
    """Interpreter work (dict updates, loops) plus small NumPy sums."""
    table: dict = {}
    for i in range(3_000):
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(20):
        float((_VECTOR * 1.5).sum())


def _numpy_part(_: int) -> float:
    keep = _VALUES > 0.3
    return float(np.bincount(_CODES[keep], _VALUES[keep], minlength=64).sum())


def threaded_numpy_kernel() -> None:
    """Filter-and-group NumPy work on two pool threads, like a morsel run."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_numpy_part, range(2)))


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    #: the kernel's median time on the reference host (2 vCPUs, Python
    #: 3.11, NumPy 2.4); scaled times read as times on that host
    reference_s: float

    def measure(self) -> float:
        started = time.perf_counter()
        self.run()
        return time.perf_counter() - started


KERNELS = {
    "interpreter": Kernel(interpreter_kernel, 0.00055),
    "threaded_numpy": Kernel(threaded_numpy_kernel, 0.0019),
}


class HostSpeed:
    """Kernel samples taken along one timed loop."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.at: List[float] = []
        self.seconds: List[float] = []
        #: loop time spent in the kernel, excluded from the loop's wall time
        self.spent = 0.0

    def sample(self, at: float) -> None:
        seconds = self.kernel.measure()
        self.at.append(at)
        self.seconds.append(seconds)
        self.spent += seconds

    def factor_at(self, at: float) -> float:
        """``reference / kernel time`` from the samples near *at*."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return self.kernel.reference_s / statistics.median(near)

    def slowdown(self) -> float:
        """Mean kernel time over the loop relative to the reference; each
        sample stands for an equal slice of loop time."""
        return statistics.fmean(self.seconds) / self.kernel.reference_s


def burst_factor(kernel: Kernel, samples: int = 15) -> float:
    """``reference / kernel time`` from a quick burst, for set-up phases."""
    return kernel.reference_s / statistics.median(kernel.measure() for _ in range(samples))
