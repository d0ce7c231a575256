"""Reference kernel that measures how fast the machine runs right now.

On a shared 2-vCPU Xeon VM the machine's speed swings by up to ~1.9x over
seconds (measured: the same simulate op took 4.2 ms in one second and 7.9 ms
in the next).  Every timed span is therefore bracketed by this
kernel, and reported times are scaled to the speed at which the kernel takes
REFERENCE_NS.  The kernel is the benchmark's own code, never the program's,
so a change to the program moves the scaled times but not the kernel.  It
mixes the kinds of work the program does (dict copies, 2x2 complex numpy
algebra, small array construction, math calls) so that it slows down the
way the program does; with it, the ratio op/kernel held within about +-6%
per second while raw op times moved by 1.9x.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: kernel time (ns) that defines reference speed: about its time on an idle 2-vCPU Xeon VM
REFERENCE_NS = 1_000_000
_STEPS = 80


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(_STEPS)]
        self._state = {(k, "H"): 0j for k in range(200)}

    def _kernel(self) -> complex:
        amps = self._state
        vec = np.array([1.0 + 0j, 0.0])
        for step, m in enumerate(self._mats):
            amps = dict(amps)
            vec = m @ np.array([vec[0], vec[1]])
            vec = vec / np.linalg.norm(vec)
            amps[(step, "H")] = complex(vec[0])
            c = math.cos(step * 0.1)
            x = np.array([[c, -c], [c, c]], dtype=complex)
            amps[(step, "V")] = complex(np.max(np.abs(x - x.conj().T)))
        return amps[(0, "H")]

    def sample(self) -> int:
        """Wall time (ns) of one kernel run."""
        t0 = time.perf_counter_ns()
        self._kernel()
        return time.perf_counter_ns() - t0


class Timeline:
    """Ops run back to back with a kernel run between each two.  Op i is scaled by
    the median of the kernel runs around it (two before, two after), which
    follows the machine's speed while ignoring a single interrupted kernel run."""

    def __init__(self, gauge: SpeedGauge):
        self._gauge = gauge
        self.kernels = [gauge.sample()]
        self.raw: list[int] = []

    def run(self, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.raw.append(time.perf_counter_ns() - t0)
        self.kernels.append(self._gauge.sample())
        return result

    def factor(self, i: int) -> float:
        """Scale from raw time to reference-speed time for span i."""
        return REFERENCE_NS / statistics.median(self.kernels[max(0, i - 1) : i + 3])

    def scaled(self) -> list[float]:
        return [raw * self.factor(i) for i, raw in enumerate(self.raw)]
