"""Sample statistics: the Gini coefficient that characterizes
traffic-matrix sparsity (Fig. 3).  Numpy only."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = uniform, →1 = skewed).

    Used to characterize traffic-matrix sparsity: the paper's TMs are sparse
    with a handful of hotspots, i.e. a high Gini coefficient.
    """
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot compute gini of an empty sample")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    cum = np.cumsum(arr)
    return float((n + 1 - 2 * (cum / total).sum()) / n)
