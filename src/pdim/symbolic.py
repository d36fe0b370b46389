"""Exact cylinder calculus on shift spaces.

Joining an m-cylinder cover along n steps of the shift produces the
(n+m-1)-cylinder cover, so for locally constant potentials every cover,
spanning and separated quantity reduces to a weighted sum over admissible
words.  Each sum is a start vector times powers of two stationary
Ruelle-Bowen transfer matrices over S states, one for the n weighted steps
and one for the free trailing symbols.  One ``Window`` profile describes
every such potential, and its states are the admissible words of length
max(reach-1, 1) times the window's matrix dim: a scalar window has dim 1, a
d x d matrix cocycle is a reach-1 window of dim d.  Each power comes from
repeated squaring in log space in O(S^3 log n), so exact tables at
n = 10^5-10^6 are cheap.  A table over many
n shares one setup, one start vector and one ladder of squares M, M^2, M^4,
... per matrix, so it costs O(S^3 log n_max + |ns| S^2 log n) rather than
O(|ns| S^3 log n) plus |ns| setups; a single sum costs what one chain
costs.  S is counted before any state is listed, and a chain over more than
TRANSFER_STATE_CAP states raises BudgetExceededError.  Only scaled matrix
cocycles with dim > 1 (a norm power other than 1) enumerate words, under a
size cap; a window sums words no longer than one state directly.
"""

from __future__ import annotations

import math

import numpy as np

from .logsum import logsumexp
from .partition import Estimator, GrowthSample
from .potentials import Potential, Window
from .systems import BudgetExceededError, FullShift, ShiftSystem, word_total


class NotLocallyConstantError(ValueError):
    pass


class EnumerationCapError(BudgetExceededError):
    """The enumeration fallback would walk more words than ENUMERATION_CAP."""


# most words a scaled cocycle's sum may enumerate
ENUMERATION_CAP = 1 << 22
# most transfer states S a chain may have: one log-space product costs O(S^3),
# 0.3-0.45 s at S = 256 on a 2-vCPU Xeon
TRANSFER_STATE_CAP = 256


def required_length(potential: Potential, n: int) -> int:
    """Shortest word length on which phi_n is constant per cylinder."""
    return n - 1 + _profile(potential).reach


def _profile(potential: Potential) -> Window:
    profile = potential.shift_profile()
    if profile is None:
        raise NotLocallyConstantError(
            f"{potential.label} has no locally constant structure on shifts"
        )
    return profile


def log_weighted_word_sum(
    system: ShiftSystem,
    potential: Potential,
    n: int,
    length: int,
) -> float:
    """log of the sum over admissible words w of |w| = length of e^(phi_n on [w]).

    The one-n case of :func:`log_weighted_word_sums`, at the same cost as a
    single transfer chain: O(S^3 log n) for S states.
    """
    return log_weighted_word_sums(system, potential, [n], length - n)[0]


def log_weighted_word_sums(
    system: ShiftSystem,
    potential: Potential,
    ns,
    k: int,
) -> list[float]:
    """log of the sum over admissible words w of |w| = n + k of e^(phi_n on [w]), per n in ns.

    Requires phi_n to be constant on (n + k)-cylinders; every n is checked
    before any sum is computed.  A window of norm power 1 shares one transfer
    setup across ns: one start vector and two matrices, each built once and
    squared once, M, M^2, M^4, ..., as far as the largest n needs, and each n
    multiplies the start vector by the powers its bits select.  A table costs
    O(S^3 log n_max + |ns| S^2 log n) for S states, where separate single
    calls cost O(|ns| S^3 log n) plus |ns| setups.
    Every value is the same float as the single call's.  A scaled cocycle
    with dim > 1 enumerates words for each n and raises EnumerationCapError
    (a budget error) past ENUMERATION_CAP words.  An empty ns gives [].
    """
    ns = list(ns)
    if not ns:
        return []
    profile = _profile(potential)
    scaled = profile.power != 1.0
    for n in ns:
        if n < 1:
            raise ValueError("need n >= 1")
        need = n - 1 + profile.reach
        if n + k < need:
            raise NotLocallyConstantError(
                f"phi_{n} for {potential.label} needs word length >= {need}, got {n + k}"
            )
        if scaled and word_total(system, n + k, cap=ENUMERATION_CAP) > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"enumeration fallback over the words of length {n + k} "
                f"exceeds cap {ENUMERATION_CAP}"
            )
    if scaled:
        def chain(n: int):  # one start entry per word, no transfer steps
            return potential.eval_array(n, [system.representative(w)
                                            for w in system.admissible_words(n + k)]), None
    else:
        chain = _window_chain(system, profile, k)
    out = []
    for n in ns:
        start, factors = chain(n)
        if factors is None:
            out.append(logsumexp(start))
            continue
        # v exp(M)^m for each factor: ladder[j] is M^(2^j), squared only as
        # far as some n has needed, and m's bits apply from the lowest up
        v = start[None, :]
        for ladder, m in factors:
            while len(ladder) < m.bit_length():
                ladder.append(_log_matmul(ladder[-1], ladder[-1]))
            for j in range(m.bit_length()):
                if m >> j & 1:
                    v = _log_matmul(v, ladder[j])
        out.append(float(np.logaddexp.reduce(v[0])))
    return out


def _window_chain(system: ShiftSystem, prof: Window, k: int):
    """n -> (log start vector, [(ladder, power), ...]) for a window of power 1.

    States are the admissible words of length p = max(reach - 1, 1), each
    times the window's dim, and every n shares one start vector and two
    stationary matrices of (S, d, S, d) blocks: "on" holds the log-matrix of
    the window that ends at a position, "free" the identity.  The start
    vector is the row logsumexp of the first window's matrix when reach = 1,
    where a window completes at the first position, and zero otherwise.
    "on" takes one step call over the (m, reach) int64 array of all windows,
    and the start vector at most one more.  The chain for n is start,
    on^(n + reach - 1 - p), free^(k - reach + 1).  A valid length n + k is at
    least n - 1 + reach, so it equals p only at n = 1, k = 0 with reach 1;
    such words give (start, None).
    """
    p, d = max(prof.reach - 1, 1), prof.dim
    _check_states(word_total(system, p, cap=TRANSFER_STATE_CAP) * d, system)
    states = list(system.admissible_words(p))
    index = {w: i for i, w in enumerate(states)}
    windows = [w + (s,) for w in states for s in range(system.k)
               if system.is_admissible_pair(w[-1], s)]
    rows = np.array([index[w[:-1]] for w in windows], dtype=np.intp)
    cols = np.array([index[w[1:]] for w in windows], dtype=np.intp)
    S = len(states)
    free = np.full((S, d, S, d), -np.inf)
    for i in range(d):
        free[rows, i, cols, i] = 0.0
    on = free.copy()
    on[rows, :, cols, :] = prof.step(
        np.array(windows, dtype=np.int64)[:, -prof.reach:]).reshape(-1, d, d)
    start = np.zeros(S * d)
    if prof.reach == 1:
        first = prof.step(np.array(states, dtype=np.int64))
        start += first if d == 1 else np.logaddexp.reduce(first, axis=1).reshape(-1)
    on_ladder, free_ladder = [on.reshape(S * d, S * d)], [free.reshape(S * d, S * d)]

    def chain(n: int):
        if p == n + k:
            return start, None
        return start, [(on_ladder, n + prof.reach - 1 - p), (free_ladder, k - prof.reach + 1)]

    return chain


def _check_states(count: int, system: ShiftSystem) -> None:
    """Raise BudgetExceededError, before any state is listed, past TRANSFER_STATE_CAP."""
    if count > TRANSFER_STATE_CAP:
        raise BudgetExceededError(
            f"transfer operator on {system.label} needs more than "
            f"{TRANSFER_STATE_CAP} states"
        )


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) @ exp(b)) for log-domain matrices; -inf marks a zero entry."""
    rows = max(1, (1 << 20) // b.size)
    if len(a) > rows:  # bound the rows x S x T temporary
        return np.concatenate([_log_matmul(a[i : i + rows], b) for i in range(0, len(a), rows)])
    return np.logaddexp.reduce(a[:, :, None] + b, axis=1)


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
    ns = list(n_range)
    out: list[GrowthSample] = []
    for n, v in zip(ns, log_weighted_word_sums(system, potential, ns, scale_k)):
        out.append(GrowthSample(Estimator.SEPARATED, n, eps, v, exact=True))
        out.append(GrowthSample(Estimator.SPANNING, n, span_scale, v, exact=True))
    return out


def log_word_count(system: ShiftSystem, length: int) -> float:
    """log of the exact admissible word count."""
    if isinstance(system, FullShift):
        return length * math.log(system.k)
    return math.log(word_total(system, length))
