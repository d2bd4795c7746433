"""Speed probe: a fixed NumPy/Python kernel that never calls the package.

The benchmark runs on shared hosts whose per-core speed drifts by 20-50%
over tens of seconds (other tenants on the same cores and caches), which
would swamp any regression bound.  ``probe`` is a fixed kernel that mixes
the three workloads' kinds of work.  ``run.py`` times it between tasks and
reports every time as it would read on a core where the probe takes
``NOMINAL_S``: a time is multiplied by ``NOMINAL_S / probe_s``, where
``probe_s`` is the probe time of the same moment, and a rate is divided by
it.  The probe imports nothing from ``balancelab``, so a change to the
package cannot move it; the raw, unscaled figures are kept in the run's
record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.005

_rng = np.random.default_rng(20240625)
_A = _rng.normal(size=(64, 16))
_B = _rng.normal(size=(64, 16))
_X = _rng.normal(size=(128, 16))
_W = _rng.normal(size=(16, 16))
_T = _rng.random((2,) * 6)
_CODES = _rng.integers(0, 4, size=30_000)
_VALUES = _rng.random(30_000)


def probe() -> float:
    """Small dense layers and RBF kernels (like an MMD training step), sums
    and reshapes of a small tensor in a Python loop (like an exact
    independence sweep), and counting, sorting and gathering over arrays of
    30,000 entries (like balancing a batch)."""
    s = 0.0
    for _ in range(8):
        d = ((_A[:, None, :] - _B[None, :, :]) ** 2).sum(-1)
        s += float(np.exp(-d / 8.0).sum())
        s += float(np.maximum(_X @ _W, 0.0).sum())
    for k in range(40):
        arr = np.transpose(_T.sum(axis=k % 6), (4, 3, 2, 1, 0)).reshape(4, 2, 4)
        for g in range(4):
            pab = arr[:, :, g] / float(arr[:, :, g].sum())
            s += float(np.abs(pab - pab.sum(1, keepdims=True) * pab.sum(0, keepdims=True)).max())
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    s += float(np.bincount(_CODES, weights=_VALUES, minlength=4).sum())
    s += float(_VALUES[np.argsort(_CODES, kind="stable")].sum())
    s += float((_CODES[:, None] == np.arange(4)).sum())
    return s + float(np.cumsum(_VALUES).sum()) + sum(counts.values())


def time_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def median_probe_s(repeats: int) -> float:
    return statistics.median(time_probe() for _ in range(repeats))
