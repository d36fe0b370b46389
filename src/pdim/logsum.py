"""Overflow-safe log of a sum of exponentials."""

from __future__ import annotations

import math

import numpy as np


def logsumexp(values) -> float:
    """log(sum(exp(values))); -inf for no values or only -inf values.

    The maxima contribute log(count) and the rest a log1p term, the same
    formula as ``scipy.special.logsumexp``, so the two agree bit for bit.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -math.inf
    amax = a.max()
    if not np.isfinite(amax):
        return float(amax)
    top = a == amax
    count = np.count_nonzero(top)
    s = np.where(top, 0.0, np.exp(a - amax)).sum() / count
    return float(np.log1p(s) + np.log(count) + amax)
