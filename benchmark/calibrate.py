"""Host-speed probe: a fixed piece of work that shares no code with polysym.

The benchmark's host is a shared virtual machine whose speed drifts by up
to 2x over seconds to minutes, for every process on it alike.  Timing this
probe right before and right after each job measures how fast the host ran
the job; the benchmark scales each job's seconds by ``REF_S`` over the
probe's time (see README.md).  Its mix follows where polysym spends its
time: permutation tuples composed and hashed into a set, and small dense
linear algebra in numpy.  It keeps under 300 kB alive and runs with the
garbage collector off, so what polysym leaves on the heap cannot slow it.
"""

import gc
import time

import numpy as np

# The probe's seconds on an unloaded 2-vCPU x86-64 Xeon host (README.md);
# scaled times read as seconds on that host.
REF_S = 0.045

_N = 24
_CYCLE = tuple((i + 1) % _N for i in range(_N))
_SWAP = (1, 0) + tuple(range(2, _N))
_MATS = np.random.default_rng(0).standard_normal((800, 6, 6)) + 6 * np.eye(6)


def calibrate() -> float:
    """Seconds the fixed probe work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        p, seen = tuple(range(_N)), set()
        for _ in range(16000):
            g = _SWAP if p[0] % 3 == 0 else _CYCLE
            p = tuple(p[g[i]] for i in range(_N))
            seen.add(p)
            if len(seen) >= 512:
                seen.clear()
        for m in _MATS:
            np.linalg.solve(m, np.linalg.svd(m, compute_uv=False))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
