"""Overflow-safe log of a sum of exponentials."""

from __future__ import annotations

import math

import numpy as np


def logsumexp(values):
    """log(sum(exp(values))); -inf for no values or only -inf values.  A 2-D
    input gives a list of one value per row, each the float of a call on
    that row alone.

    The maxima contribute log(count) and the rest a log1p term, the same
    formula as ``scipy.special.logsumexp``, so the two agree bit for bit.
    """
    a = np.asarray(values, dtype=float)
    rows = a.ndim == 2
    if a.size == 0:
        return [-math.inf] * len(a) if rows else -math.inf
    # one row's reductions are scalars, which numpy computes at less cost
    axis = 1 if rows else None
    amax = a.max(axis, keepdims=rows)
    if not np.isfinite(amax).all():
        return [logsumexp(row) for row in a] if rows else float(amax)
    top = a == amax
    count = np.count_nonzero(top, axis, keepdims=rows)
    s = np.where(top, 0.0, np.exp(a - amax)).sum(axis, keepdims=rows) / count
    out = np.log1p(s) + np.log(count) + amax
    return out[:, 0].tolist() if rows else float(out)
