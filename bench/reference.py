"""A fixed reference kernel that measures the host's speed, not tessera's.

The host this benchmark runs on is shared: its speed swings by tens of
percent for a minute at a time, whatever runs on it. The worker runs this
kernel after every op, and the gated timings are the program's medians
divided by this kernel's median over the same run, so a swing that slows
both cancels out. The kernel mixes what tessera spends its time on: small
matmuls with a nonlinearity (MLP training), float formatting and parsing
(CSV save and load), and elementwise passes over an array too big for L2
(metrics and MC-dropout inference). Keep it unchanged: a change here moves
every gated timing.
"""

from __future__ import annotations

import time

import numpy as np


def reference_seconds() -> float:
    """Wall time of one run of the kernel, about 0.1 s on a 2.1 GHz Xeon."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    a = rng.standard_normal((256, 32))
    w = rng.standard_normal((32, 32)) * 0.1
    for _ in range(1500):
        a = np.tanh(a @ w)
    text = ",".join(f"{x:.6f}" for x in rng.standard_normal(40000))
    total = sum(float(v) for v in text.split(","))
    big = rng.standard_normal(500_000)
    for _ in range(40):
        big = big * 1.0001 + 0.5
    elapsed = time.perf_counter() - t0
    if not np.isfinite(total + a.sum() + big.sum()):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed
