"""Check that scaled times pass a slower program through in full.

    python3 perfbench/fidelity.py

Run from the root of a source checkout; it takes about a minute.

Every ``s`` and ``ms`` metric is raw time multiplied by the speed of a
calibration loop that runs inside the program's process (see ScaledClock
in run.py).  If a program that runs slower also made that loop run slower,
part of the slowdown would be scaled away.  This check slows the first
CHECKS checks of a ``catalogue-numeric`` pass on purpose, with one of two
loads run after every check:

* ``cpu``: pure interpreter work, about 2 ms;
* ``memory``: the load keeps a heap of 100,000 container objects, adds
  500 more on every call, and writes one byte in every 64 across an 8 MiB
  buffer, which evicts the CPU caches.

Raw times cannot show the effect: the host's speed flips between levels
within a second, so raw pass times spread far more than the effect to be
found.  The check therefore makes two comparisons that the flips do not
blur:

1. The loop right after program work.  PAIRS times, a block of BLOCK
   checks runs plain, with ``cpu`` and with ``memory``, in rotating order,
   and ScaledClock takes one sample right after each block.  Blocks next
   to each other see the same host speed, so the median ratio of the
   loop's time after a loaded block to its time after the plain block is
   the loop's slowdown caused by the program's state.  It must be within
   TOLERANCE of 1.
2. A slowdown of known size.  Over ROUNDS rounds, it times a plain pass,
   and for each load a loaded pass and the load alone, CHECKS times, all
   scaled.  A loaded pass costs the plain pass plus the load alone, plus
   whatever the load adds to the program's own work through the caches
   and the heap.  So the scaled loaded pass must not come out below that
   sum by more than TOLERANCE of the loaded pass: if it did, part of the
   slowdown would have been scaled away.

It exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import statistics
import sys

import run
from workloads import WORKLOADS

SEED = 1
CHECKS = 400  # the first checks of a catalogue-numeric pass, about 0.5 s
BLOCK = 20
PAIRS = 150
ROUNDS = 12
TOLERANCE = 0.02


def _cpu_load():
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class _MemoryLoad:
    def __init__(self):
        self.kept = [[k, (k,)] for k in range(50000)]
        self.buffer = bytearray(8 << 20)
        self.stripe = bytes(len(self.buffer[::64]))

    def __call__(self):
        self.kept += [[k, (k,)] for k in range(250)]
        self.buffer[::64] = self.stripe


# each kind's maker gives a fresh load, so every block or pass starts its own heap
LOADS = {"plain": None, "cpu": lambda: _cpu_load, "memory": _MemoryLoad}


def _loaded(call, load):
    def check():
        rec = call()
        load()
        return rec
    return check


def loop_after_program(calls):
    """Median ratio of the loop's time after a loaded block to after a plain one."""
    kinds = tuple(LOADS)
    clock = run.ScaledClock()
    speeds = {kind: [] for kind in kinds}
    for rep in range(PAIRS):
        start = rep * BLOCK % len(calls)
        for kind in kinds[rep % 3:] + kinds[:rep % 3]:
            load = LOADS[kind]() if LOADS[kind] else None
            for call in calls[start:start + BLOCK]:
                call()
                if load:
                    load()
            clock._sample()
            speeds[kind].append(clock.speeds[-1])
            del load
    return {kind: statistics.median(a / b for a, b in zip(speeds["plain"], speeds[kind]))
            for kind in kinds[1:]}


def known_slowdown(pkg, workload, inputs):
    """Median scaled seconds of plain and loaded passes, and of each load alone."""
    def loaded(kind):
        load = LOADS[kind]()
        return dataclasses.replace(workload, checks=lambda pkg, inp: [
            (label, known, _loaded(call, load)) for label, known, call in workload.checks(pkg, inp)])

    def alone(kind):
        load = LOADS[kind]()
        gc.collect()
        with run.ScaledClock() as clock:
            start = clock.mark()
            for _ in range(CHECKS):
                load()
            end = clock.mark()
        return clock.scaled(start, end)

    def timed(w):
        p = run.run_pass(w, pkg, inputs, SEED)
        if p["wrong"] or p["errors"]:
            raise RuntimeError("a slowed pass got a wrong verdict")
        return p["wall"]

    times = {key: [] for key in ("plain", "cpu", "cpu alone", "memory", "memory alone")}
    for _ in range(ROUNDS):
        times["plain"].append(timed(workload))
        for kind in ("cpu", "memory"):
            times[kind].append(timed(loaded(kind)))
            times[kind + " alone"].append(alone(kind))
    return {key: statistics.median(v) for key, v in times.items()}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run.import_program()
    full = WORKLOADS["catalogue-numeric"]
    workload = dataclasses.replace(
        full, checks=lambda pkg, inp: list(itertools.islice(full.checks(pkg, inp), CHECKS)))
    inputs = workload.inputs(pkg, SEED)
    run.run_pass(workload, pkg, inputs, SEED)  # warm-up
    ok = True

    print(f"1. calibration loop time after a loaded block / after a plain block, "
          f"median of {PAIRS} pairs of {BLOCK}-check blocks")
    for kind, ratio in loop_after_program([c for _, _, c in workload.checks(pkg, inputs)]).items():
        good = abs(ratio - 1) <= TOLERANCE
        ok &= good
        print(f"   {kind:8s} {ratio:.4f}  {'ok' if good else 'FAILED'}")

    t = known_slowdown(pkg, workload, inputs)
    print(f"2. scaled seconds, median of {ROUNDS} rounds of {CHECKS}-check passes")
    for key, value in t.items():
        print(f"   {key:13s} {value:.4f}")
    for kind in ("cpu", "memory"):
        share = (t[kind] - t["plain"] - t[kind + " alone"]) / t[kind]
        good = share >= -TOLERANCE
        ok &= good
        print(f"   {kind} pass - plain pass - {kind} alone = {share:+.4f} of the {kind} pass"
              f"  {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
