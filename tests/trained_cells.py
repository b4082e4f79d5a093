"""Trained acceptance cells, memoized for the test session.

Several tests need the 3-seed mean final metric of the same cell:
criteria 6 and 8 both train char_lm 4/4/4 without noise, and criterion
10 and the bit-width monotonicity test both train har 4/4/4.  All
randomness is derived from the seed, so a cell's mean is the same
whichever test asks first; the cache trains it once and hands every
caller that same float.
"""

from functools import lru_cache

import numpy as np

from xbarlstm.experiment import _train_cell

SEEDS = (1, 2, 3)


@lru_cache(maxsize=None)
def mean_metric(task, bits, noise=None, seeds=SEEDS) -> float:
    """Mean final metric over `seeds` of `task` trained at `bits` (None for
    full precision) with the task defaults and `noise` if given, each cell
    trained as a sweep trains it."""
    overrides = {"bitwidths": bits, **({"noise": noise} if noise is not None else {})}
    return float(np.mean([_train_cell(task, overrides, seed).metric for seed in seeds]))
