"""Seeded, splittable random streams.

Every stochastic operation in the package takes an explicit integer seed and
derives a counter-based Philox generator from it.  Sub-streams are named by an
integer path, so parallel work (grid cells, replicate indices, per-epoch
shuffles) can derive independent generators without coordination:

    spawn(seed)            # the root stream for `seed`
    spawn(seed, 3)         # e.g. replicate 3
    spawn(seed, 3, 1)      # e.g. replicate 3, epoch 1
"""

from __future__ import annotations

from math import isfinite
from numbers import Real

import numpy as np

from .errors import ArgumentError


def is_int(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one, nor an int beyond the floats."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and isfinite(value)
    except OverflowError:
        return False


def spawn(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for ``seed`` at sub-stream ``path``.

    The same (seed, path) always yields a bit-identical stream; distinct
    paths yield statistically independent streams.  A seed or path entry
    that is not a non-negative integer raises ``ArgumentError``.
    """
    if not (is_int(seed) and seed >= 0):
        raise ArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    if not all(is_int(p) and p >= 0 for p in path):
        raise ArgumentError(f"stream path must hold non-negative integers, got {path!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
