"""Machine-speed references that end-to-end times are scaled by.

The effective speed of a small shared machine changes by up to a factor of
two from one second to the next, so raw wall times of identical runs
disagree by far more than any useful regression bound. The measured loops
therefore sample a reference right after their own work, and every raw time
is scaled by the sample that follows it: ``scaled = raw * NOMINAL / sample``.
A reference never touches qparity, so a change to qparity moves the scaled
times as much as the raw ones, and the scaled times read as times on a
machine where the reference takes its nominal time.

* ``CpuReference`` times a small fixed mix of numpy and interpreter work,
  once per ``CPU_CADENCE_S`` of loop time; it tracks in-process work.
* ``ProcessReference`` times ``python -c "import numpy"`` after every op;
  process start-up drifts apart from in-process speed, so it tracks the
  ``cli`` ops and every set-up.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

CPU_NOMINAL_S = 0.0005
PROCESS_NOMINAL_S = 0.2
CPU_CADENCE_S = 0.02


def cpu_unit() -> float:
    import numpy as np

    m = np.eye(4, dtype=np.complex128) * (1.0 / np.sqrt(2.0))
    v = np.zeros(4, dtype=np.complex128)
    v[0] = 1.0
    acc = 0.0
    for _ in range(40):
        w = m @ v
        acc += float(np.sum(np.abs(w) ** 2))
        acc += sum({j: j * 0.5 for j in range(8)}.values())
        acc += len(tuple(format(k, "02b") for k in range(4)))
    return acc


class CpuReference:
    def __init__(self) -> None:
        self._last = float("-inf")

    def due(self) -> bool:
        return perf_counter() - self._last >= CPU_CADENCE_S

    def factor(self) -> float:
        """Scale for the raw times measured since the previous sample."""
        t0 = perf_counter()
        cpu_unit()
        self._last = perf_counter()
        return CPU_NOMINAL_S / (self._last - t0)


class ProcessReference:
    def __init__(self, cwd: str) -> None:
        self.cwd = cwd

    def due(self) -> bool:
        return True

    def factor(self) -> float:
        """Scale for the raw time measured just before this sample."""
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"], cwd=self.cwd, check=True, capture_output=True, timeout=60
        )
        return PROCESS_NOMINAL_S / (perf_counter() - t0)
