"""Machine-speed calibration for timings on a shared host.

Shared hosts switch between a quick state and one up to ~1.7x slower
every few seconds, which no run length averages out. A fixed
interpreted loop (the spin) is timed before and after every timed step.
The step's slowdown is the mean of those two spin times over
CAL_NOMINAL_S, raised to SLOWDOWN_EXPONENT, and its corrected time is
the raw time divided by that factor. Corrected times are therefore
seconds at the spin's quiet-state speed. The spin runs outside every
timed interval and calls no program code, so a change to the program
cannot move it.

Both constants were measured on an Intel Xeon model 143 KVM guest with
Python 3.11: CAL_NOMINAL_S is the spin's quick-state time, and 1.2 is
the exponent that best fitted ~2800 jobs of the three workloads (their
larger working sets slow down more than the register-only spin does).
With it, the run-to-run spread of median job latency fell from 0.01-0.09
to 0.01-0.02 of the median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

CAL_LOOPS = 100_000
CAL_NOMINAL_S = 0.0037
SLOWDOWN_EXPONENT = 1.2


def spin() -> float:
    """Seconds for CAL_LOOPS iterations of an interpreted loop."""
    t0 = perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x += i
    return perf_counter() - t0


@dataclass
class Stopwatch:
    """Times steps one after another; consecutive steps share the spin between them."""

    steps: list[tuple[float, float]] = field(default_factory=list)  # (raw seconds, slowdown)
    _before: float | None = None

    def time(self, fn, *args):
        before = spin() if self._before is None else self._before
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            raw = perf_counter() - t0
            self._before = spin()
            slowdown = ((before + self._before) / 2 / CAL_NOMINAL_S) ** SLOWDOWN_EXPONENT
            self.steps.append((raw, slowdown))

    def pause(self) -> None:
        """Untimed work follows: the next step takes a fresh spin first."""
        self._before = None

    def totals(self, start: int = 0) -> tuple[float, float]:
        """(raw seconds, corrected seconds) of the steps from index `start` on."""
        steps = self.steps[start:]
        return sum(r for r, _ in steps), sum(r / f for r, f in steps)
