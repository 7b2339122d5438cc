"""Wall-clock timing rescaled to a nominal machine speed.

The benchmark runs on shared virtual machines whose speed changes by up
to 1.7x, for anything from a fraction of a second to minutes at a time,
as neighbours come and go. The library slows down with the rest of the
process: a validator suite and a fixed loop of small numpy calls timed
side by side keep a steady ratio while both change speed. So a raw
wall-clock time mostly measures the machine state, and ten runs of the
same code spread by a third.

``Clock`` therefore times each interval twice: as wall-clock seconds and
as *nominal* seconds. Every ``SAMPLE_EVERY_S`` or so, between timed
intervals, it runs a fixed reference loop (small numpy calls of the kind
the library makes, on fixed arrays, no library code) and takes the
machine's speed factor as that loop's time over ``REF_NOMINAL_S``. An
interval's nominal time is its wall time divided by the mean factor of
the two reference samples around it: the time it would have taken on a
machine on which the reference loop takes exactly ``REF_NOMINAL_S``. A
change to the program moves nominal time as it moves wall time; a change
of machine speed moves only wall time. The reference loop never runs
inside a timed interval.

``REF_ITERATIONS``, the reference arrays and ``REF_NOMINAL_S`` fix the
scale of every nominal figure the benchmark has reported; changing any
of them makes new figures incomparable with old ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_ITERATIONS = 300
REF_NOMINAL_S = 2.5e-3  # about the loop's time on an idle 2-vCPU Xeon VM, numpy 2.4
SAMPLE_EVERY_S = 0.05
_REF_MATRIX = np.random.default_rng(0).standard_normal((16, 256))
_REF_VECTOR = np.random.default_rng(1).standard_normal(16)


def speed_factor() -> float:
    """Time of one reference loop over its nominal time (> 1: slow machine)."""
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        p = _REF_VECTOR @ _REF_MATRIX
        int(np.argmax(np.abs(p)))
        np.sort(p[:8])
    return (time.perf_counter() - t0) / REF_NOMINAL_S


class Clock:
    """Times intervals in wall and nominal seconds, listed per key.

    ``start()`` opens an interval and ``stop(key)`` closes it, so an
    interval may span code the benchmark does not call directly (one
    simulator round between two ``on_round`` hooks). A reference sample
    runs before the first interval, after any interval that ends at
    least ``SAMPLE_EVERY_S`` after the previous sample, and at
    ``flush()``; ``nominal`` is complete only after ``flush()``. With
    ``calibrate=False`` no reference loop runs and nominal time equals
    wall time, for passes whose wall time is compared with itself.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.wall: dict[str, list[float]] = {}
        self.nominal: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []  # intervals since the last sample
        self._factor: float | None = None
        self._sampled_at = 0.0
        self._t0 = 0.0

    def _sample(self) -> None:
        f = speed_factor() if self.calibrate else 1.0
        if self._pending:
            scale = 0.5 * (self._factor + f)
            for key, wall in self._pending:
                self.nominal.setdefault(key, []).append(wall / scale)
            self._pending.clear()
        self._factor = f
        self._sampled_at = time.perf_counter()

    def start(self) -> None:
        if self._factor is None:
            self._sample()
        self._t0 = time.perf_counter()

    def stop(self, key: str) -> None:
        """Close the open interval under ``key``."""
        now = time.perf_counter()
        wall = now - self._t0
        self.wall.setdefault(key, []).append(wall)
        self._pending.append((key, wall))
        if now - self._sampled_at >= SAMPLE_EVERY_S:
            self._sample()

    def flush(self) -> None:
        if self._pending:
            self._sample()

    def time(self, key: str, fn, *args):
        """Call ``fn(*args)`` as one interval under ``key``; return its result."""
        self.start()
        result = fn(*args)
        self.stop(key)
        return result

    def total(self, *keys: str, nominal: bool = True) -> float:
        table = self.nominal if nominal else self.wall
        return sum(sum(table.get(k, ())) for k in keys)

    def all_wall(self) -> float:
        return sum(sum(v) for v in self.wall.values())
