"""Trained acceptance cells, memoized for the test session.

Several tests need the 3-seed mean final metric of the same cell:
criteria 6 and 8 both train char_lm 4/4/4 without noise, and criterion
10 and the bit-width monotonicity test both train har 4/4/4.  All
randomness is derived from the seed, so a cell's mean is the same
whichever test asks first; the cache trains it once and hands every
caller that same float.  `seed_metrics` holds the per-seed values
the mean is taken over.
"""

from functools import lru_cache

import numpy as np

from xbarlstm.experiment import _train_cell

SEEDS = (1, 2, 3)


@lru_cache(maxsize=None)
def seed_metrics(task, bits, noise=None) -> tuple[float, ...]:
    """The final metric at each of SEEDS of `task` trained at `bits` (None
    for full precision) with the task defaults and `noise` if given, each
    cell trained as a sweep trains it.  The cache keys on the arguments as
    passed, so every caller passes them by position."""
    overrides = {"bitwidths": bits, **({"noise": noise} if noise is not None else {})}
    return tuple(_train_cell(task, overrides, seed).metric for seed in SEEDS)


def mean_metric(task, bits, noise=None) -> float:
    """The mean of `seed_metrics` of that cell."""
    return float(np.mean(seed_metrics(task, bits, noise)))
