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

import numpy as np

from .errors import ArgumentError


def spawn(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for ``seed`` at sub-stream ``path``.

    The same (seed, path) always yields a bit-identical stream; distinct
    paths yield statistically independent streams.
    """
    if seed < 0:
        raise ArgumentError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
