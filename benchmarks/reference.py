"""A fixed piece of plain Python that measures how fast the host runs the
interpreter right now, so that timings taken at different speeds of a
shared host can be compared.

On a shared host the package's speed moves by up to 1.7x within seconds
and by 20-30% from one run to the next, and plain Python code timed next
to it moves with it: the ratio of a package call to ``sample()``, both
timed in the same two seconds, stays within about 5% while either alone
moves by 70%.  ``Probe`` times ``sample()`` from a timer signal
every ``INTERVAL_S`` while the operations run, and ``Probe.factor``
turns the wall time of an operation into the time it would have taken
at the nominal speed, at which ``sample()`` takes ``NOMINAL_S``.

``sample()`` uses none of the package and mixes the work the package
does: sorting tuples by key, dict updates, slicing, small Fractions,
string building, integer arithmetic, and many tiny calls on tiny
objects.  It only reads module-level data, so that a change to the
package cannot change its cost.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# sample() at the nominal speed; it took 1.0 to 2.2 ms on the 2-CPU cloud host it was built on
NOMINAL_S = 1.0e-3
INTERVAL_S = 0.025
NEAREST = 8  # samples that set the speed of an operation too short to hold that many

_KEYS = tuple((i % 13, i % 7, -i) for i in range(200))
_TABLE = {i: i * 7 for i in range(1024)}
_WORDS = tuple(tuple(((i * 7 + j * 3) % 5) - 2 or 1 for j in range(6)) for i in range(240))


class _Word:
    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple) -> None:
        self.n = n
        self.letters = letters


def _push(out: list, y: int) -> None:
    if out and out[-1] == -y:
        out.pop()
    else:
        out.append(y)


def sample() -> int:
    """About half bulk work (sorting, dicts, Fractions, a tight loop) and
    half many tiny calls on tiny objects, as in the free-group oracle's
    short words.  In slow stretches of the host the bulk half slowed less
    than the package did and the call half more; together they track it."""
    s = 0
    for r in range(2):
        ordered = sorted(_KEYS, key=lambda t: (t[1], t[0]))
        groups: dict = {}
        for k in ordered:
            groups[k[:2]] = groups.get(k[:2], 0) + k[2]
        f = Fraction(0)
        for i in range(1, 17):
            f += Fraction(r + 1, i)
        s += len(groups) + f.numerator % 7 + len("".join(str(k[0]) for k in ordered))
    table = _TABLE
    for i in range(3000):
        s += table[i & 1023] ^ i
    for letters in _WORDS:
        word = _Word(3, letters)
        out: list = []
        for l in word.letters:
            _push(out, l)
            _push(out, -l if l & 1 else l)
        s += len(tuple(out))
    return s


class Probe:
    """Times ``sample()`` from SIGALRM every ``INTERVAL_S`` while running."""

    def __init__(self) -> None:
        self.mids: list[float] = []  # midpoints of the samples, in order
        self.durations: list[float] = []
        self._inside = False

    def _tick(self, signum, frame) -> None:
        if self._inside:
            return
        self._inside = True
        start = time.perf_counter()
        sample()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.durations.append(end - start)
        self._inside = False

    def spent_within(self, start: float, end: float) -> float:
        """Time that samples took between ``start`` and ``end``: the part of
        a call's wall time that is not the call's.  A signal handler runs
        between bytecodes, so a sample lies wholly inside the span or
        wholly outside it."""
        lo, hi = bisect.bisect_right(self.mids, start), bisect.bisect_left(self.mids, end)
        return sum(self.durations[lo:hi])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean sample taken from ``start`` to ``end``,
        or of the ``NEAREST`` samples nearest the middle of that span when
        it holds fewer.  The mean weighs fast and slow stretches of a long
        operation by their length; the slowest and fastest tenth of the
        samples, mostly ones that a context switch or cache misses hit, are
        left out of it."""
        lo = bisect.bisect_left(self.mids, start)
        hi = bisect.bisect_right(self.mids, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.mids, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.mids) - NEAREST))
            hi = lo + NEAREST
        durations = sorted(self.durations[lo:hi])
        cut = len(durations) // 10
        return NOMINAL_S / statistics.fmean(durations[cut:len(durations) - cut])
