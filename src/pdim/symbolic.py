"""Exact cylinder calculus on shift spaces.

Joining an m-cylinder cover along n steps of the shift produces the
(n+m-1)-cylinder cover, so for locally constant potentials every cover,
spanning and separated quantity reduces to a weighted sum over admissible
words.  Each sum is a product of Ruelle-Bowen transfer matrices over S
states: the admissible words of length max_reach-1 for a scalar window, the
symbol x d blocks for a matrix cocycle.  Between a few breakpoints (where the
window switches off or a boundary term fires) the matrix is stationary, so
its power comes from repeated squaring in log space in O(S^3 log n), and exact
tables at n = 10^5-10^6 are cheap.  Only scaled matrix cocycles (a norm power
other than 1) enumerate words, under a size cap; a scalar window sums words
no longer than one state directly.
"""

from __future__ import annotations

import math

import numpy as np

from .logsum import logsumexp
from .partition import Estimator, GrowthSample
from .potentials import MatrixWeights, Potential, ScalarWindow
from .systems import BudgetExceededError, FullShift, ShiftSystem, word_total


class NotLocallyConstantError(ValueError):
    pass


class EnumerationCapError(NotLocallyConstantError, BudgetExceededError):
    """The enumeration fallback would walk more words than its cap."""


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
    profiles and plain matrix cocycles apply a start vector to a chain of
    transfer-matrix powers, O(S^3 log n) for S states, so n = 10^5-10^6 is
    cheap.  Scaled matrix cocycles fall back to exact enumeration, which
    raises EnumerationCapError (a budget error) past enumeration_cap words.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    need = required_length(potential, n)
    if length < need:
        raise NotLocallyConstantError(
            f"phi_{n} for {potential.label} needs word length >= {need}, got {length}"
        )
    profile = potential.shift_profile()
    if isinstance(profile, ScalarWindow):
        return _scalar_window_sum(system, profile, n, length)
    if profile.power == 1.0:
        return _matrix_sum(system, profile, n, length)
    return _enumerated_sum(system, potential, n, length, enumeration_cap)


def _position_weight(prof: ScalarWindow, n: int, j: int, window: tuple[int, ...]) -> float:
    """Every term of phi_n that completes at position j; window ends at position j."""
    total = 0.0
    if prof.reach - 1 <= j < n + prof.reach - 1:
        total += prof.step(window[-prof.reach:])
    for b in prof.boundary:
        if j == (n if b.at_end else 0) + b.reach - 1:
            total += b.scale * b.fn(window[-b.reach:])
    return total


def _scalar_window_sum(system: ShiftSystem, prof: ScalarWindow, n: int, length: int) -> float:
    # states are the admissible words of length p; start holds their first p positions
    p = min(max(prof.max_reach - 1, 1), length)
    states = list(system.admissible_words(p))
    start = [sum(_position_weight(prof, n, j, w[: j + 1]) for j in range(p)) for w in states]
    if p == length:
        return logsumexp(start)
    # a position's weight depends on j only through these cuts, so between
    # them the transfer matrix is stationary
    cuts = {prof.reach - 1, n + prof.reach - 1}
    for b in prof.boundary:
        pos = (n if b.at_end else 0) + b.reach - 1
        cuts.update((pos, pos + 1))
    cuts = sorted({p, length} | {c for c in cuts if p < c < length})
    index = {w: i for i, w in enumerate(states)}
    rows, cols, weights = [], [], []
    for i, w in enumerate(states):
        for s in range(system.k):
            if system.is_admissible_pair(w[-1], s):
                rows.append(i)
                cols.append(index[w[1:] + (s,)])
                weights.append([_position_weight(prof, n, a, w + (s,)) for a in cuts[:-1]])
    logs = np.full((len(cuts) - 1, len(states), len(states)), -np.inf)
    logs[:, rows, cols] = np.array(weights).T
    return _log_chain(np.array(start), zip(logs, [b - a for a, b in zip(cuts, cuts[1:])]))


def _matrix_sum(system: ShiftSystem, prof: MatrixWeights, n: int, length: int) -> float:
    """Sum of entry-sum norms of symbol-matrix products, as one block transfer matrix.

    The entry-sum norm is linear on nonnegative matrices, so summing norms
    over words equals the norm of the summed products:
    B[(s,i),(t,j)] = A[s,t] M_t[i,j] for the n-1 weighted steps, then
    kron(A, I_d) for the free trailing symbols.
    """
    k = system.k
    adj = np.array([[float(system.is_admissible_pair(s, t)) for t in range(k)] for s in range(k)])
    d = prof.mats[0].shape[0]
    mats = np.stack(prof.mats).transpose(1, 0, 2)  # [i, t, j]
    block = (adj[:, None, :, None] * mats[None]).reshape(k * d, k * d)
    start = np.concatenate([m.sum(axis=0) for m in prof.mats])
    with np.errstate(divide="ignore"):
        factors = [(np.log(block), n - 1), (np.log(np.kron(adj, np.eye(d))), length - n)]
        return _log_chain(np.log(start), factors)


def _log_chain(v: np.ndarray, factors) -> float:
    """log of the entry sum of exp(v) exp(M_1)^m_1 exp(M_2)^m_2 ... (exp entrywise).

    v is a log-domain row and each factor (M, m) a log-domain square matrix
    raised to the power m by repeated squaring: O(S^3 log m) per factor.
    Every product adds in log space, so entries any distance apart add
    without underflow.
    """
    v = v[None, :]
    for M, m in factors:
        while m:
            if m & 1:
                v = _log_matmul(v, M)
            m >>= 1
            if m:
                M = _log_matmul(M, M)
    return float(np.logaddexp.reduce(v[0]))


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) @ exp(b)) for log-domain matrices; -inf marks a zero entry."""
    rows = max(1, (1 << 20) // b.size)
    if len(a) > rows:  # bound the rows x S x T temporary
        return np.concatenate([_log_matmul(a[i : i + rows], b) for i in range(0, len(a), rows)])
    return np.logaddexp.reduce(a[:, :, None] + b, axis=1)


def _enumerated_sum(
    system: ShiftSystem, potential: Potential, n: int, length: int, cap: int
) -> float:
    total = word_total(system, length)
    if total > cap:
        raise EnumerationCapError(
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
