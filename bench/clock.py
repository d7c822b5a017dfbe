"""Timing in reference units, steady on a machine shared with other work.

On a 2-core Intel Xeon VM (Python 3.11) shared with other tenants, the
same work took up to twice as long for stretches of tens of seconds while other tenants were
busy, so raw timings of identical runs spread by 20-40%.  ``Clock`` runs a
fixed reference task next to the measured work and scales every timing by
the reference's current speed:

    scaled = raw * REFERENCE_NS / median(last nine reference times)

A stretch in which everything runs 1.5x slower leaves scaled times
unchanged, while a change that makes lcakit itself slower shows in full,
since the reference does not call lcakit.  Scaled times read as the raw
times of a machine on which the reference task takes ``REFERENCE_NS``.

Raw times are the thread's CPU time, which leaves out the time the thread
waits for a core.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import deque

_ns = time.thread_time_ns

# Nominal reference time: about the task's uncontended time on a 2-core
# Intel Xeon VM with Python 3.11, so scaled times read close to raw ones
# there.
REFERENCE_NS = 3_000_000
_KEY = b"reference-task".ljust(32, b".")


def reference_task(n: int = 2000) -> int:
    """Fixed stdlib-only work with the library's mix of operations: keyed
    BLAKE2b hashes, dict and set traffic, a deque walk and a keyed sort."""
    keys = {}
    for i in range(n):
        h = hashlib.blake2b(key=_KEY, digest_size=8)
        h.update(i.to_bytes(8, "big"))
        keys[i] = (int.from_bytes(h.digest(), "big"), i)
    queue = deque([0])
    seen = {0}
    while queue:
        v = queue.popleft()
        for w in ((v * 7 + 1) % n, (v * 13 + 5) % n, (v * 31 + 3) % n):
            if w not in seen and keys[w] > keys[v]:
                seen.add(w)
                queue.append(w)
    return len(sorted(keys, key=keys.__getitem__)) + len(seen)


class Clock:
    """Scales CPU timings by the speed of the reference task.

    The reference is rerun before a timing whenever ``every_ns`` of timed
    work has passed since its last run, which costs a few percent.
    """

    def __init__(self, every_ns: int = 50_000_000):
        self.every_ns = every_ns
        self.refs: deque[int] = deque(maxlen=9)
        self.history: list[int] = []  # every raw reference time
        self._since = 0
        for _ in range(self.refs.maxlen):
            self._reference()
        self._scale = REFERENCE_NS / statistics.median(self.refs)

    def _reference(self) -> None:
        t0 = _ns()
        reference_task()
        self.refs.append(_ns() - t0)
        self.history.append(self.refs[-1])

    def time(self, fn, *args):
        """(fn(*args), its CPU time in scaled nanoseconds)."""
        if self._since >= self.every_ns:
            self._reference()
            self._since = 0
            self._scale = REFERENCE_NS / statistics.median(self.refs)
        t0 = _ns()
        out = fn(*args)
        dt = _ns() - t0
        self._since += dt
        return out, dt * self._scale
