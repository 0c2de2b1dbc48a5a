"""Machine-speed calibration: a fixed kernel that does not touch the library.

The benchmark was written on a 2-core machine shared with other tenants,
where the speed of the same Python and numpy code moved by up to 1.7x
between runs, in phases that lasted from seconds to minutes.  The eval
workers run this kernel every half second between the timed calls and scale
each call's time by ``NOMINAL_S / kernel time``.  The scaled time reads as
seconds at the machine's nominal speed.  A change in the library's own cost
passes through unchanged, since the kernel never calls the library.

Only in-process timing is scaled.  A kernel timed in another process ran on
whichever core that process got, and did not track the speed of the child
it was meant to describe, so verify-all and setup_s stay wall times.

The kernel mixes what the workloads do: an interpreter loop over 0-d numpy
operations, as the scalar calls are, and a pass over a 1e5-value complex
array, as the batched calls make.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel seconds at the nominal speed: about its median in the eval workers
# on the 2-core machine the benchmark was written on
NOMINAL_S = 0.025

_SMALL = np.asarray(0.7)
_BIG = np.linspace(0.1, 2.0, 100_000) + 0.3j


def kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = perf_counter()
    total = 0.0
    for i in range(1500):
        total += float(np.exp(_SMALL) * np.log(_SMALL + i) + np.sqrt(_SMALL))
    np.exp(_BIG) * np.log(_BIG) + np.sqrt(_BIG)
    return perf_counter() - start


