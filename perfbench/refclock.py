"""Times at reference speed: wall time over the time of a fixed probe.

The baseline host's speed drifts by up to 2x for stretches of seconds,
and potbench's numpy-bound code slows more than pure Python does.  So the
probe is a small numpy elimination of about 2 ms, and a timed part is
divided by the mean probe around and inside it.  ``BOUNDARY`` probes run
between two parts.  A part is also interrupted every ``PERIOD_S`` by a
timer signal that runs one probe, and the probes' own time is taken out
of the part's time.

A part that runs in a child process is sampled inside that child: run it
as ``python3 perfbench/refclock.py PROBES (-m MODULE | PATH) [ARGS...]``,
which runs the module or script under the timer and writes its probes to
the file ``PROBES``.  The clock must not probe in the parent meanwhile:
both would run on the one CPU.
"""

from __future__ import annotations

import json
import runpy
import signal
import statistics
import sys
import time

import numpy as np

ROUNDS = 25
PROBE_SECONDS = 0.002  # the probe's back-to-back time on the 2-CPU baseline host, running fast
BOUNDARY = 5
PERIOD_S = 0.1

_MATRIX = np.random.default_rng(0).uniform(0.1, 1.0, size=(12, 24))


def probe() -> float:
    """Seconds of the reference probe: the host's speed now.

    Rounds of row elimination on a 12 x 24 matrix, the small-array numpy
    work that potbench's LPs do.  A pure-Python loop, alone or mixed in,
    tracked the ops worse (see README.md).
    """
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        x = _MATRIX.copy()
        for r in range(len(x)):
            j = int(np.argmax(x[r]))
            x = x - np.outer(x[:, j] / x[r, j], x[r])
            x[r] = _MATRIX[r]
    return time.perf_counter() - t0


class Sampler:
    """Runs a probe every ``PERIOD_S`` from a timer signal while entered.

    ``samples`` holds the seconds of each probe that started before the
    sampler was left; ``end`` is when it was left.
    """

    def __enter__(self):
        self._ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        self._ticks.append((time.perf_counter(), probe()))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        # a probe that started before ``end`` ran wholly before it
        self.samples = [seconds for start, seconds in self._ticks if start < self.end]
        return False


class RefClock:
    """Times the parts of a run at reference speed; ``probes`` keeps every probe."""

    def __init__(self):
        self.probes = []
        self.edge = self._boundary()

    def _boundary(self) -> float:
        values = [probe() for _ in range(BOUNDARY)]
        self.probes.extend(values)
        return statistics.mean(values)

    def time(self, fn, probes_file=None):
        """``(wall seconds, seconds at reference speed, fn())``.

        Without ``probes_file`` the part is sampled in this process; with
        it, ``fn`` runs a child under this module, which writes its probes
        to that file.
        """
        if probes_file is None:
            with Sampler() as sampler:
                t0 = time.perf_counter()
                result = fn()
            wall, samples = sampler.end - t0, sampler.samples
        else:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
            try:
                with open(probes_file, encoding="utf-8") as fh:
                    samples = json.load(fh)
            except FileNotFoundError:  # the child was killed; its op fails
                samples = []
        own = wall - sum(samples)
        self.probes.extend(samples)
        before, after = self.edge, self._boundary()
        self.edge = after
        speed = statistics.mean([before, *samples, after]) / PROBE_SECONDS
        return own, own / speed, result


def main(argv) -> int:
    probes_file, target = argv[0], argv[1:]
    sys.argv = target[1:] if target[0] == "-m" else target
    sampler = Sampler()
    try:
        with sampler:
            if target[0] == "-m":
                runpy.run_module(target[1], run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        with open(probes_file, "w", encoding="utf-8") as fh:
            json.dump(sampler.samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
