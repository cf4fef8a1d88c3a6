"""Core-speed probe used to normalise every timing the benchmark reports."""

import hashlib
from time import perf_counter

# Mean core_probe() seconds on a typical core of the machine the benchmark
# was defined on (a 2-vCPU VM); timings are reported at this core speed.
REFERENCE_PROBE_S = 0.0019


def core_probe() -> float:
    """Seconds one core takes for a fixed piece of pure-Python work.

    The speed of a core on a shared VM changes from moment to moment; the
    benchmark runs this probe just before and just after every timed call
    and scales the call's time by the mean of the two (see README,
    "Core-speed normalisation").
    """
    t0 = perf_counter()
    h = hashlib.sha256()
    seen = {}
    for i in range(1500):
        text = f"{i * 0.1:.17e}"
        seen[text] = i
        h.update(text.encode())
    return perf_counter() - t0
