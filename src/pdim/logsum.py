"""Overflow-safe log of a sum of exponentials."""

from __future__ import annotations

import itertools
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


def logsumexp_segments(values: np.ndarray, lengths: list[int]) -> list[float]:
    """Per consecutive segment of ``values`` of the given nonempty lengths,
    the float of a ``logsumexp`` call on that segment alone.

    The max, the count and the exp are one pass each over every segment;
    each segment keeps its own ``.sum()``, since ``np.add.reduceat`` adds in
    another order and so gives other bits.
    """
    if len(lengths) == 1:
        return [logsumexp(values)]
    values = np.asarray(values, dtype=float)
    cuts = [0, *itertools.accumulate(lengths)]
    heads = cuts[:-1]
    amax = shift = np.maximum.reduceat(values, heads)
    finite = np.isfinite(amax)
    some = not finite.all()
    if some:  # there the value is the max; zeros keep the arithmetic finite
        values = np.where(finite.repeat(lengths), values, 0.0)
        shift = np.where(finite, amax, 0.0)
    own = shift.repeat(lengths)
    top = values == own
    count = np.add.reduceat(top, heads)
    terms = np.where(top, 0.0, np.exp(values - own))
    sums = np.array([terms[a:b].sum() for a, b in zip(heads, cuts[1:])])
    out = np.log1p(sums / count) + np.log(count) + shift
    return (np.where(finite, out, amax) if some else out).tolist()
