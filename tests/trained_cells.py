"""Trained acceptance cells, memoized for the test session.

Several tests need the 3-seed mean final metric of the same cell:
criteria 6 and 8 both train char_lm 4/4/4 without noise, and criterion
10 and the bit-width monotonicity test both train har 4/4/4.  All
randomness is derived from the seed, so a cell's mean is the same
whichever test asks first; the cache trains it once and hands every
caller that same float.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from xbarlstm.tasks import build_network, build_task
from xbarlstm.training import train

SEEDS = (1, 2, 3)


@lru_cache(maxsize=None)
def mean_metric(task, bits, noise=None, seeds=SEEDS) -> float:
    """Mean final metric over `seeds` of `task` trained at `bits` (None for
    full precision) with the task defaults and `noise` if given."""
    vals = []
    for seed in seeds:
        bundle = build_task(task, seed=seed)
        cfg = replace(bundle.defaults, bitwidths=bits, seed=seed,
                      **({"noise": noise} if noise is not None else {}))
        model = build_network(bundle, cfg)
        _, rep = train(model, bundle.train, cfg, valid_dataset=bundle.valid)
        vals.append(rep.metric)
    return float(np.mean(vals))
