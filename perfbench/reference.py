"""Fixed reference computations that measure how fast the machine runs a given
kind of code at a given moment.

On a shared virtual machine the same round of work can take 1.5 times
longer in one minute than in the next, on both cores at once. ``worker.py``
therefore runs short slices of a reference computation between a round's
timed segments, and reports the round's time as a multiple of one slice's
time (``round_vs_ref``). A slowdown of the machine slows both alike and
largely cancels out; a change to the package moves only the round.

A slowdown does not hit every kind of code alike: interpreted Python and
numpy's kernels speed up and slow down apart. So a slice is made of the kinds
of code the workload spends its time in, picked from three kernels:

- ``scan``: a scalar L-inf scan over tuples with a call per pair, like the
  streaming scan and the per-element loops around numpy;
- ``bigint``: modular big-integer arithmetic, like the sketches;
- ``array``: numpy pairwise L-inf distances, like ``Metric.pairwise``.

Pure-Python workloads use ``scan`` and ``bigint`` only; with ``array`` in
their slice the ratio was less steady, not more. The numpy-heavy workloads
use all three. The kernels use numpy and the standard library only, never the
package, and they must stay the same for as long as figures are compared.
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(20230224)
_POINTS = [tuple(row) for row in _rng.random((300, 2)).tolist()]
_INTS = [int(x) | 1 for x in _rng.integers(1, 2 ** 62, 120)]
_PRIME = 2 ** 89 - 1
_A, _B = _rng.random((160, 2)), _rng.random((240, 2))


def _linf(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def scan():
    best = float("inf")
    for q in _POINTS[:3]:
        for p in _POINTS:
            d = _linf(p, q)
            if 0 < d < best:
                best = d
    return best


def bigint():
    acc = 1
    for _ in range(4):
        for b in _INTS:
            acc = (acc * b + (b << 40)) % _PRIME
    return acc


def array():
    return sum(float(np.abs(_A[:, None, :] - _B[None, :, :]).max(axis=2).min())
               for _ in range(2))


KERNELS = {"scan": scan, "bigint": bigint, "array": array}
PYTHON = ("scan", "bigint")
NUMPY = ("scan", "bigint", "array")

# A slice's time in seconds on the 2-vCPU virtual machine the benchmark was
# written on (about the median over its ten-seed runs). Multiplying a ratio to
# the slice by it gives seconds at that machine's usual speed, which is how
# ``setup_s`` is reported. Like the kernels, it must not change for as long as
# figures are compared.
NOMINAL_SLICE_S = {PYTHON: 0.0005, NUMPY: 0.0065}
