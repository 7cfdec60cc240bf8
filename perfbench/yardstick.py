"""A fixed reference job that reads the host's current speed.

The benchmark's host is a shared virtual machine whose cores switch,
several times a second, between a fast state and a slow one that takes up
to twice as long; how much of a run falls in the slow state differs from
run to run. So one unit of this job, which does not touch ionflow, runs
just before and one just after each timed call, and the call's time is
scaled by how fast the two ran: a call that ran while the core was slow
sits between slow units. This only holds for calls short enough that the
two units see the state the call ran in.

One unit mixes the kinds of work ionflow does: dict and set work as in
register allocation, plain integer arithmetic, and a walk over a list of
tuples that updates a small numpy state through index arrays with a seeded
generator, as in the emulator. The garbage collector is off during a unit,
so its time does not depend on how large ionflow's heap is.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

# a run reports its times as if every unit had taken this long: the median
# unit on the host of the baseline (p5 4.3 ms, p95 6.3 ms)
UNIT_S = 0.0050

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_RNG = random.Random(7)
_EDGES = [tuple(_RNG.sample(range(400), 2)) for _ in range(1200)]
_ITEMS = []
for _k in range(300):
    _q = _k % 5
    _idx = np.arange(32).reshape(2 ** (4 - _q), 2, 2**_q)
    _ITEMS.append((_k % 3, _idx[:, 0, :].ravel(), _idx[:, 1, :].ravel(), _k % 7))


def unit() -> int:
    """One unit of reference work; always computes the same result."""
    adj: dict[int, set[int]] = {i: set() for i in range(400)}
    for a, b in _EDGES:
        adj[a].add(b)
        adj[b].add(a)
    color: dict[int, int] = {}
    for v in sorted(adj, key=lambda v: -len(adj[v])):
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    x = 0
    for i in range(15000):
        x = (x * 31 + i) % 1000003
    rng = np.random.Generator(np.random.PCG64(11))
    state = np.zeros(32, dtype=complex)
    state[0] = 1.0
    flips = 0
    for tag, i0, i1, r in _ITEMS:
        if tag == 0:
            a0 = state[i0]
            a1 = state[i1]
            state[i0] = _H[0, 0] * a0 + _H[0, 1] * a1
            state[i1] = _H[1, 0] * a0 + _H[1, 1] * a1
        elif tag == 1:
            tmp = state[i0].copy()
            state[i0] = state[i1]
            state[i1] = tmp
        elif rng.random() < 0.5:
            flips += r
    return max(color.values()) + x + flips


class Yardstick:
    """Runs single units and keeps their times."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.expected = unit()

    def unit_s(self) -> float:
        """Seconds one unit takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            got = unit()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if got != self.expected:
            raise RuntimeError("the yardstick unit changed its result")
        self.times.append(dt)
        return dt

    def scale(self, before: float) -> float:
        """Factor to the baseline host for an operation that ran just after a unit of ``before`` seconds.

        Runs the unit after the operation; the operation ran at the mean
        speed of the two.
        """
        return UNIT_S / ((before + self.unit_s()) / 2.0)
