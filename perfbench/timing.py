"""Operation timing rescaled to a reference machine speed.

The shared 2-core box this benchmark was built on changes speed by up to a
quarter within seconds: a fixed pure-Python loop took 11 to 20 ms per
one-second window, and the 20-second medians of a fixed chunk of suite cases
ranged over 41 % of their median.  Raw times therefore spread more between
runs than the changes the benchmark must resolve.  A calibration loop that
shares no code with torsionlab runs at least every CAL_EVERY_S between
operations; each operation's time is multiplied by CAL_REF_S over the mean
of the two calibrations around it.  Rescaled, the same 20-second medians
ranged over 9 %.  The result reads as seconds on the reference box (Python
3.11.7) at its median speed.
"""

from __future__ import annotations

import time

CAL_ITERS = 50_000
CAL_REF_S = 0.0032  # median time of the calibration loop on the reference box
CAL_EVERY_S = 0.1
clock = time.perf_counter


def _calibration_loop() -> int:
    s = 0
    for i in range(CAL_ITERS):
        s += i * i
    return s


class SpeedClock:
    """Calibration samples of one process, in order."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def calibrate(self) -> None:
        t0 = clock()
        _calibration_loop()
        self._last = clock()
        self.samples.append(self._last - t0)

    def maybe_calibrate(self) -> None:
        if clock() - self._last >= CAL_EVERY_S:
            self.calibrate()

    def scale(self, raw: float, mark: int) -> float:
        """raw seconds measured between samples mark - 1 and mark."""
        return raw * 2 * CAL_REF_S / (self.samples[mark - 1] + self.samples[mark])


class OpTimer:
    """Latencies of a sequence of operations: start() and stop() around each;
    scaled() closes the sequence with one more calibration."""

    def __init__(self, speed: SpeedClock):
        self.speed = speed
        self.raw: list[float] = []
        self.marks: list[int] = []
        self._t0 = 0.0
        speed.calibrate()

    def start(self) -> None:
        self.speed.maybe_calibrate()
        self._t0 = clock()

    def stop(self) -> None:
        self.raw.append(clock() - self._t0)
        self.marks.append(len(self.speed.samples))

    def scaled(self) -> list[float]:
        self.speed.calibrate()
        return [self.speed.scale(r, m) for r, m in zip(self.raw, self.marks)]
