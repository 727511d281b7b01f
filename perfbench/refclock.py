"""A fixed reference loop that tracks the speed of a shared host.

Other tenants share the host's cores, so its speed moves by up to 1.7x over
minutes and switches between states within seconds; no run length averages
that out. ``RefClock`` times a fixed loop of the workloads' own kind of work:
Python calls that build small numpy arrays (3x3 rotations, box corners,
norms), a stream and a gather over 8 MB, and a plain interpreter loop. The
loop lives here and uses nothing of ``mvbox3d``, so no change to the library
moves it. An item's wall-clock time times ``REF_MS`` over the loop's time next
to it is the item's time at the reference speed: the speed at which the loop
takes ``REF_MS``, about its median on a 2-core Xeon VM (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_MS = 10.0
_CORNERS = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])


def _rotation(a: float, b: float, c: float) -> np.ndarray:
    ca, sa, cb, sb, cc, sc = (math.cos(a), math.sin(a), math.cos(b), math.sin(b),
                              math.cos(c), math.sin(c))
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


class RefClock:
    """Times of the reference loop; ``scale`` turns wall-clock time into time
    at the reference speed."""

    def __init__(self):
        self.big = np.arange(1_000_000, dtype=np.float64)
        self.gather = (np.arange(100_000, dtype=np.int64) * 7919) % self.big.size
        self.samples: list[float] = []

    def loop(self) -> float:
        acc = 0.0
        params = np.array([0.1, 0.2, 0.3, 1.0, 1.5, 0.7, 0.1, 0.2, 0.3])
        for _ in range(100):
            params = params + 1e-3
            rot = _rotation(*params[6:9])
            corners = (_CORNERS * params[3:6]) @ rot.T + params[0:3]
            dist = np.linalg.norm(corners - corners.mean(axis=0), axis=1)
            acc += float(dist.max()) - float(np.abs(rot).sum())
        acc += float(self.big.sum()) + float(self.big[self.gather].sum())
        total = 0
        for i in range(30_000):
            total += i * i
        return acc + total

    def sample(self) -> float:
        """Runs the loop once; returns and records its wall-clock seconds."""
        t = time.perf_counter()
        self.loop()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(seconds: float) -> float:
        """Factor from wall-clock time to time at the reference speed, for a
        stretch next to which the loop took ``seconds``."""
        return REF_MS / (1000.0 * seconds)

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples)
