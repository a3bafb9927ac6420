"""Speed probes: fixed work, independent of necklace-kit, timed next to the ops.

On a shared 2-core x86-64 virtual machine, whose physical cores other
tenants also use, the speed of the same code was measured drifting by up to
a factor of two within minutes, which no run length averages out.  A probe
is a small, fixed piece of work of the same kind as a workload's ops; the
benchmark times one before the first op and then one after every
PROBE_INTERVAL_S of op time, and scales each op's latency by the probe's
reference time over the mean of the two probes around it.  Latencies are
therefore reported at the reference speed, the speed at which a probe takes
its reference time, and a change to the library moves them while a change
in the host's load does not.  The probes call no library code, and they
run with the cyclic garbage collector off, so that a collection over the
library's live heap cannot land inside one either.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction


def python_probe() -> None:
    """Interpreter-bound work like the exact layers': Fractions, tuples, dicts."""
    acc: dict = {}
    for i in range(400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)


# Seconds a python_probe takes at the reference speed (the quiet 2-core
# x86-64 virtual machine above, with Python 3.11).
PYTHON_PROBE_S = 0.0012


def moment_probe_factory():
    """The python probe followed by small-matrix numpy work like the moment
    solver's (many tiny arrays, a 40 x 40 complex solve, an SVD).  Host load
    slows interpreter-bound and BLAS-bound code by different factors, and a
    moment op does both: small cases are mostly interpreter, large ones
    mostly BLAS.  On the machine above, in sets of five to ten seeded runs,
    moment's op_p90_ms spread (IQR / median) was 2-4% with this probe and
    2-13%, median 8%, with the python probe alone."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    gram = g.conj().T @ g + 1e-3 * np.eye(40)
    v = rng.standard_normal(40) + 0j

    def moment_probe() -> None:
        python_probe()
        columns = []
        for _ in range(40):
            block = np.zeros((6, 6), dtype=complex)
            block += a @ a
            block -= a.T @ a
            columns.append(np.concatenate([block.reshape(-1), block.reshape(-1)]))
        np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
        np.linalg.solve(gram, v)

    return moment_probe


# Seconds a moment_probe takes at the reference speed.
MOMENT_PROBE_S = 0.0037


# A fresh interpreter that imports numpy and the standard modules a worker
# imports, then prints the CPU seconds it has used: start-up work of the
# same kind as a worker's set-up, with no library code in it.  Set-up times
# are scaled by it as op times are by the probes above; the python probe,
# timed inside the worker right after its set-up, tracked set-up's speed
# poorly.  On the machine above, in eight groups of ten moment start-ups
# spread over four minutes, the medians of the raw set-up times varied by a
# factor of 1.63 and those of the scaled ones by 1.05.
STARTUP_PROBE = (
    "import argparse, fractions, json, random, tempfile, time, numpy; "
    "print(time.process_time())"
)

# CPU seconds a STARTUP_PROBE takes at the reference speed.
STARTUP_PROBE_S = 0.10


# Op time between two probes: short against the minutes over which the
# host's speed drifts, long against a probe, so probes cost little.
PROBE_INTERVAL_S = 0.02


def timed(probe) -> float:
    """Seconds one call of probe takes, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        probe()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scaled(latencies, probes, probe_before, reference: float) -> list[float]:
    """Each latency at the reference speed: op i ran between the probes
    probe_before[i] and probe_before[i] + 1."""
    return [
        latency * 2 * reference / (probes[j] + probes[j + 1])
        for latency, j in zip(latencies, probe_before)
    ]
