"""How fast is the host right now? A fixed piece of work answers.

On the shared two-core host this benchmark was written on, identical
work runs up to 1.5 times slower for seconds or minutes at a time,
whatever the program does: raw timings of one commit differ between
runs by a quarter of their median, more than any regression bound. The
interference also slows this module's kernel, which no change to the
program can touch. So the runner takes a *reading* of the kernel beside
the measured operations, and every timing is divided by the slowdown in
force around it: timings are reported in milliseconds of the undisturbed
baseline host. The mean slowdown of a run is printed beside its metrics.

The kernel mixes what the deployments spend their time in: table
gathers and XORs over a candidate set's worth of bytes, HMAC tags,
zlib both ways, plain interpreter work and the allocation of many small
objects. The shares are chosen so that interference slows the kernel
as much as it slows a k-NN query; small-object work is slowed most and
hashing least.
"""

from __future__ import annotations

import hashlib
import hmac
import statistics
import time
import zlib

import numpy as np

#: one undisturbed kernel pass on the baseline host (2-core Xeon 2.1 GHz
#: VM, Python 3.11, NumPy 2.4); on another host every timing is scaled by
#: one constant factor, which comparisons on that host do not see
REFERENCE_MS = 9.0
#: a reading is due when this much time has passed since the last one
INTERVAL_S = 0.4

_rng = np.random.default_rng(0)
_TABLES = _rng.integers(0, 256, size=(4, 256), dtype=np.uint8)
_STATE = _rng.integers(0, 256, size=(450, 272), dtype=np.uint8)
_BLOB = _rng.integers(0, 64, size=49152, dtype=np.uint8).tobytes()
_KEY = bytes(32)
_BYTES = bytes(range(256)) * 2


def kernel() -> float:
    """Run the fixed work once; seconds taken."""
    start = time.perf_counter()
    state = _STATE
    for round_ in range(10):
        state = _TABLES[round_ & 3][state] ^ np.roll(state, 1, axis=1)
    for row in state:
        hmac.new(_KEY, bytes(row), hashlib.sha256).digest()
    zlib.decompress(zlib.compress(_BLOB, 6))
    value = 0
    for step in range(11000):
        value = (value * 31 + step) & 0xFFFF
    found = {}
    items = []
    for step in range(4000):
        low = step & 255
        item = (step * 7919 % 10007, _BYTES[low:low + 200], step * 31 % 977)
        found[item[0]] = item
        items.append(item)
    items.sort(key=lambda item: (item[2], item[0]))
    [item[:2] for item in items[:600] if item[0] in found]
    return time.perf_counter() - start


class Pacer:
    """Slowdown readings along a run's timeline."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0  # seconds spent reading, to take out of walls
        kernel()  # warm

    def read(self) -> float:
        start = time.perf_counter()
        value = statistics.median(kernel() for _ in range(3))
        end = time.perf_counter()
        self.times.append((start + end) / 2.0)
        self.values.append(value * 1e3 / REFERENCE_MS)
        self.spent += end - start
        return self.values[-1]

    def read_if_due(self) -> None:
        if time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.read()

    def slowdown(self, when) -> np.ndarray:
        """The slowdown in force at time(s) ``when``, interpolated."""
        return np.interp(when, self.times, self.values)
