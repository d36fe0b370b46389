"""Exact cylinder calculus on shift spaces.

Joining an m-cylinder cover along n steps of the shift produces the
(n+m-1)-cylinder cover, so for locally constant potentials every cover,
spanning and separated quantity reduces to a weighted sum over admissible
words.  Those sums are evaluated by a transfer-operator dynamic program in
log space; nothing here enumerates points unless explicitly asked to.
"""

from __future__ import annotations

import math

import numpy as np

from .logsum import logsumexp
from .partition import Estimator, GrowthSample
from .potentials import MatrixWeights, Potential, ScalarWindow
from .systems import FullShift, ShiftSystem, word_total


class NotLocallyConstantError(ValueError):
    pass


def required_length(potential: Potential, n: int) -> int:
    """Shortest word length on which phi_n is constant per cylinder."""
    profile = potential.shift_profile()
    if profile is None:
        raise NotLocallyConstantError(
            f"{potential.label} has no locally constant structure on shifts"
        )
    if isinstance(profile, MatrixWeights):
        return n
    ends = [n - 1 + profile.reach]
    for b in profile.boundary:
        ends.append((n if b.at_end else 0) + b.reach)
    return max(ends)


def log_weighted_word_sum(
    system: ShiftSystem,
    potential: Potential,
    n: int,
    length: int,
    enumeration_cap: int = 1 << 22,
) -> float:
    """log of the sum over admissible words w of |w| = length of e^(phi_n on [w]).

    Requires phi_n to be constant on length-cylinders.  Scalar window
    profiles and plain matrix cocycles run as transfer-operator DPs; scaled
    matrix cocycles fall back to exact enumeration under a size cap.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    profile = potential.shift_profile()
    if profile is None:
        raise NotLocallyConstantError(
            f"{potential.label} has no locally constant structure on shifts"
        )
    need = required_length(potential, n)
    if length < need:
        raise NotLocallyConstantError(
            f"phi_{n} for {potential.label} needs word length >= {need}, got {length}"
        )
    if isinstance(profile, ScalarWindow):
        return _scalar_window_sum(system, profile, n, length)
    if profile.power == 1.0:
        return _matrix_sum(system, profile, n, length)
    return _enumerated_sum(system, potential, n, length, enumeration_cap)


def _scalar_window_sum(system: ShiftSystem, prof: ScalarWindow, n: int, length: int) -> float:
    W = prof.max_reach
    p = max(W - 1, 1)
    k = system.k

    def contributions(j: int, window: tuple[int, ...]) -> float:
        # window = symbols at positions j-len+1 .. j; evaluate everything that
        # completes exactly at position j
        total = 0.0
        start = j - prof.reach + 1
        if 0 <= start < n and len(window) >= prof.reach:
            total += prof.step(window[-prof.reach:])
        for b in prof.boundary:
            pos = n if b.at_end else 0
            if j == pos + b.reach - 1 and len(window) >= b.reach:
                total += b.scale * b.fn(window[-b.reach:])
        return total

    if length <= p:
        # degenerate: enumerate the handful of short words directly
        vals = []
        for w in system.admissible_words(length):
            acc = 0.0
            for j in range(length):
                acc += contributions(j, w[: j + 1])
            vals.append(acc)
        return logsumexp(vals)

    state_vals: dict[tuple[int, ...], float] = {}
    for w in system.admissible_words(p):
        acc = 0.0
        for j in range(p):
            acc += contributions(j, w[: j + 1])
        state_vals[w] = _logaddexp(state_vals.get(w), acc)

    for j in range(p, length):
        nxt: dict[tuple[int, ...], float] = {}
        for state, v in state_vals.items():
            for s in range(k):
                if not system.is_admissible_pair(state[-1], s):
                    continue
                w = state + (s,)
                nv = v + contributions(j, w)
                key = w[1:]
                nxt[key] = _logaddexp(nxt.get(key), nv)
        state_vals = nxt

    return logsumexp(list(state_vals.values()))


def _logaddexp(a: float | None, b: float) -> float:
    if a is None:
        return b
    return float(np.logaddexp(a, b))


def _matrix_sum(system: ShiftSystem, prof: MatrixWeights, n: int, length: int) -> float:
    """Sum of entry-sum norms of symbol-matrix products, via one joint DP.

    The entry-sum norm is linear on nonnegative matrices, so summing norms
    over words equals the norm of the summed products.
    """
    k = system.k
    acc = {s: prof.mats[s].copy() for s in range(k)}  # position 0 consumed
    logshift = 0.0
    for j in range(1, length):
        nxt = {}
        for t in range(k):
            block = None
            for s in range(k):
                if s in acc and system.is_admissible_pair(s, t):
                    block = acc[s] if block is None else block + acc[s]
            if block is None:
                continue
            nxt[t] = block @ prof.mats[t] if j < n else block
        acc = nxt
        total = sum(m.sum() for m in acc.values())
        if total > 1e250:
            logshift += math.log(total)
            acc = {t: m / total for t, m in acc.items()}
    total = sum(float(m.sum()) for m in acc.values())
    return logshift + math.log(total)


def _enumerated_sum(
    system: ShiftSystem, potential: Potential, n: int, length: int, cap: int
) -> float:
    total = word_total(system, length)
    if total > cap:
        raise NotLocallyConstantError(
            f"enumeration fallback over {total} words exceeds cap {cap}"
        )
    vals = [potential.eval(n, system.representative(w)) for w in system.admissible_words(length)]
    return logsumexp(vals)


def deflated_scale(k: int) -> float:
    """Scale eps_k just under 2^-k; distinct (n+k)-cylinders separate at it."""
    return 2.0 ** (-k) * (1.0 - 1e-6)


def exact_growth_table(
    system: ShiftSystem,
    potential: Potential,
    scale_k: int,
    n_range,
) -> list[GrowthSample]:
    """Exact separated and spanning growth samples at dyadic scale index k.

    For each n the canonical family picks one representative per admissible
    (n+k)-word.  Distinct representatives are (n, eps_k)-separated, and the
    family spans the space at radius 2^-k, hence at the coarser 2^-(k-1).
    The separated sample is a certified lower bound for the full separated
    optimum, the spanning sample a certified upper bound at its scale.
    """
    if scale_k < 0:
        raise ValueError("scale index must be >= 0")
    eps = deflated_scale(scale_k)
    span_scale = 2.0 ** (-(scale_k - 1))
    out: list[GrowthSample] = []
    for n in n_range:
        v = log_weighted_word_sum(system, potential, n, n + scale_k)
        out.append(GrowthSample(Estimator.SEPARATED, n, eps, v, exact=True))
        out.append(GrowthSample(Estimator.SPANNING, n, span_scale, v, exact=True))
    return out


def log_word_count(system: ShiftSystem, length: int) -> float:
    """log of the exact admissible word count."""
    if isinstance(system, FullShift):
        return length * math.log(system.k)
    return math.log(word_total(system, length))
