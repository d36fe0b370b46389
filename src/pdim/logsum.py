"""Overflow-safe log of a sum of exponentials.

The formula lives once, in ``logsumexp_segments``; ``logsumexp`` is its
one-segment case.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def logsumexp(values) -> float:
    """log(sum(exp(values))); -inf for no values or only -inf values."""
    if len(values) == 0:
        return -math.inf
    return logsumexp_segments(values, [len(values)])[0]


def logsumexp_segments(values: np.ndarray, lengths: list[int]) -> list[float]:
    """Per consecutive segment of ``values`` of the given nonempty lengths,
    log(sum(exp(segment))), -inf where the segment holds only -inf.

    The maxima contribute log(count) and the rest a log1p term, the same
    formula as ``scipy.special.logsumexp``, so the two agree bit for bit.
    The max, the count and the exp are one pass each over every segment;
    each segment keeps its own ``.sum()``, since ``np.add.reduceat`` adds in
    another order and so gives other bits.
    """
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
