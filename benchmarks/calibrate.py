"""Host-speed calibration for the timing metrics.

On a host whose cores are shared with other tenants, speed can drift by up
to 2x within seconds while CPU time stays equal to wall time (measured on a
2-CPU Xeon virtual machine). Raw timings then measure the neighbours as much
as qchan. Every timed segment is bracketed by a fixed calibration load that
shares no code with qchan, and its time is scaled to a reference host on
which that load takes REFERENCE_S. A change to qchan moves the timed
segments and not the load, so it still shows in full.

The load mixes the two kinds of work qchan does: scalar numpy calls from a
Python loop (the probe refine stage) and arithmetic over complex arrays (the
all-pairs grid and the brute-force oracle).
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
REPEATS = 3

_rng = np.random.default_rng(0)
_U, _V = _rng.normal(size=(2, 3))
_LEFT = _rng.normal(size=(16, 2, 2)) + 1j * _rng.normal(size=(16, 2, 2))
_RIGHT = _rng.normal(size=(576, 2, 2)) + 1j * _rng.normal(size=(576, 2, 2))


def _load() -> float:
    total = 0.0
    for _ in range(100):
        total += float(np.sum(np.cross(_U, _V) ** 2))
    prod = np.einsum("aij,bjk->abik", _LEFT, _RIGHT)
    return total + float(np.sum(np.abs(prod - prod.conj()) ** 2))


def load_seconds() -> list[float]:
    """Times of REPEATS runs of the calibration load."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _load()
        samples.append(time.perf_counter() - start)
    return samples


class Timer:
    """Times the segments of work in one pass at reference host speed.

    Each segment runs between two calibrations, the first shared with the
    previous segment, and its time is multiplied by REFERENCE_S over the
    median calibration time around it. Short segments track a drifting host
    more closely than one bracket around a long pass.
    """

    def __init__(self):
        self._last: list[float] = []
        self._segments: list[tuple[float, float, float]] = []  # start, end, scale

    def segment(self, fn, *args):
        before = self._last or load_seconds()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self._last = load_seconds()
        self._segments.append((start, end, REFERENCE_S / statistics.median(before + self._last)))
        return result

    @property
    def raw_seconds(self) -> float:
        return sum(end - start for start, end, _ in self._segments)

    @property
    def seconds(self) -> float:
        """Total segment time at reference speed."""
        return sum((end - start) * scale for start, end, scale in self._segments)

    def scale_at(self, t: float) -> float:
        """Scale of the segment running at perf_counter time ``t``."""
        scale = self._segments[0][2]
        for start, _, k in self._segments:
            if start <= t:
                scale = k
        return scale
