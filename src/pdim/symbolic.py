"""Exact cylinder calculus on shift spaces.

Joining an m-cylinder cover along n steps of the shift produces the
(n+m-1)-cylinder cover, so for locally constant potentials every cover,
spanning and separated quantity reduces to a weighted sum over admissible
words.  Each sum is a product of Ruelle-Bowen transfer matrices over S
states: the admissible words of length max_reach-1 for a scalar window, the
symbol x d blocks for a matrix cocycle.  Between a few breakpoints (where the
window switches off or a boundary term fires) the matrix is stationary, so
its power comes from repeated squaring in log space in O(S^3 log n), and exact
tables at n = 10^5-10^6 are cheap.  A table over many n shares one setup and
one ladder of squares M, M^2, M^4, ... per stationary matrix, so it costs
O(S^3 log n_max + |ns| S^2 log n) rather than O(|ns| S^3 log n) plus |ns|
setups; a single sum costs what one chain costs.  S is counted before any
state is listed, and a chain over more than TRANSFER_STATE_CAP states raises
BudgetExceededError.  Only scaled matrix cocycles (a norm power other than 1)
enumerate words, under a size cap; a scalar window sums words no longer than
one state directly.
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


class EnumerationCapError(BudgetExceededError):
    """The enumeration fallback would walk more words than ENUMERATION_CAP."""


# most words a scaled matrix cocycle's sum may enumerate
ENUMERATION_CAP = 1 << 22
# most transfer states S a chain may have: one log-space product costs O(S^3),
# about 0.16 s at S = 256 and 1.3 s at S = 512 on a 2-vCPU Xeon
TRANSFER_STATE_CAP = 256


def required_length(potential: Potential, n: int) -> int:
    """Shortest word length on which phi_n is constant per cylinder."""
    return _required_length(potential, potential.shift_profile(), n)


def _required_length(potential: Potential, profile, n: int) -> int:
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
    before any sum is computed.  Scalar window profiles and plain matrix
    cocycles share one transfer setup across ns: each distinct segment matrix
    is built once and squared once, M, M^2, M^4, ..., as far as the largest n
    needs, and each n multiplies its start vector by the powers its bits
    select.  A table costs O(S^3 log n_max + |ns| S^2 log n) for S states,
    where separate single calls cost O(|ns| S^3 log n) plus |ns| setups.
    Every value is the same float as the single call's.  Scaled matrix
    cocycles enumerate words for each n and raise EnumerationCapError (a
    budget error) past ENUMERATION_CAP words.  An empty ns gives [].
    """
    ns = list(ns)
    if not ns:
        return []
    profile = potential.shift_profile()
    scaled = isinstance(profile, MatrixWeights) and profile.power != 1.0
    for n in ns:
        if n < 1:
            raise ValueError("need n >= 1")
        need = _required_length(potential, profile, n)
        if n + k < need:
            raise NotLocallyConstantError(
                f"phi_{n} for {potential.label} needs word length >= {need}, got {n + k}"
            )
        if scaled and word_total(system, n + k, cap=ENUMERATION_CAP) > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"enumeration fallback over the words of length {n + k} "
                f"exceeds cap {ENUMERATION_CAP}"
            )
    if isinstance(profile, ScalarWindow):
        chain = _window_chain(system, profile, k)
    elif not scaled:
        chain = _cocycle_chain(system, profile, k)
    else:
        def chain(n: int):  # one start entry per word, no transfer steps
            return potential.eval_array(n, [system.representative(w)
                                            for w in system.admissible_words(n + k)]), None
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


def _window_chain(system: ShiftSystem, prof: ScalarWindow, k: int):
    """n -> (log start vector, [(ladder, power), ...]) for a scalar window.

    States are the admissible words of length p; the start vector holds their
    first p positions.  A position's weight depends on it only through its
    signature (is the step window on, which boundary terms fire), so between
    the cuts where the signature changes the transfer matrix is stationary.
    Matrices, ladders and start vectors are cached by signature.  A valid
    length is at least max_reach, so it is below p only when it equals
    p = 1; such words give (start, None).
    """
    p = max(prof.max_reach - 1, 1)
    _check_states(word_total(system, p, cap=TRANSFER_STATE_CAP), system)
    states = list(system.admissible_words(p))
    starts: dict[tuple, np.ndarray] = {}
    ladders: dict[tuple, list] = {}
    index = {w: i for i, w in enumerate(states)}
    windows = [w + (s,) for w in states for s in range(system.k)
               if system.is_admissible_pair(w[-1], s)]
    rows = np.array([index[w[:-1]] for w in windows], dtype=np.intp)
    cols = np.array([index[w[1:]] for w in windows], dtype=np.intp)

    def signature(n: int, j: int) -> tuple:
        return (prof.reach - 1 <= j < n + prof.reach - 1,
                tuple(j == (n if b.at_end else 0) + b.reach - 1 for b in prof.boundary))

    def weight(sig: tuple, window: tuple[int, ...]) -> float:
        """Every term of phi_n that completes where the window ends."""
        total = 0.0
        if sig[0]:
            total += prof.step(window[-prof.reach:])
        for b, fires in zip(prof.boundary, sig[1]):
            if fires:
                total += b.scale * b.fn(window[-b.reach:])
        return total

    def ladder(sig: tuple) -> list:
        if sig not in ladders:
            m = np.full((len(states), len(states)), -np.inf)
            m[rows, cols] = [weight(sig, w) for w in windows]
            ladders[sig] = [m]
        return ladders[sig]

    def chain(n: int):
        length = n + k
        sigs = tuple(signature(n, j) for j in range(p))
        if sigs not in starts:
            starts[sigs] = np.array([sum(weight(sig, w[: j + 1]) for j, sig in enumerate(sigs))
                                     for w in states])
        if p == length:
            return starts[sigs], None
        cuts = {prof.reach - 1, n + prof.reach - 1}
        for b in prof.boundary:
            pos = (n if b.at_end else 0) + b.reach - 1
            cuts.update((pos, pos + 1))
        cuts = sorted({p, length} | {c for c in cuts if p < c < length})
        return starts[sigs], [(ladder(signature(n, a)), b - a) for a, b in zip(cuts, cuts[1:])]

    return chain


def _cocycle_chain(system: ShiftSystem, prof: MatrixWeights, k: int):
    """n -> (log start vector, [(ladder, power), ...]) for a plain matrix cocycle.

    The entry-sum norm is linear on nonnegative matrices, so summing norms
    over words equals the norm of the summed products:
    B[(s,i),(t,j)] = A[s,t] M_t[i,j] for the n-1 weighted steps, then
    kron(A, I_d) for the k free trailing symbols.
    """
    d = prof.mats[0].shape[0]
    _check_states(system.k * d, system)
    adj = np.array([[float(system.is_admissible_pair(s, t)) for t in range(system.k)]
                    for s in range(system.k)])
    mats = np.stack(prof.mats).transpose(1, 0, 2)  # [i, t, j]
    block = (adj[:, None, :, None] * mats[None]).reshape(system.k * d, system.k * d)
    start = np.concatenate([m.sum(axis=0) for m in prof.mats])
    with np.errstate(divide="ignore"):
        v = np.log(start)
        steps = [np.log(block)]
        free = [np.log(np.kron(adj, np.eye(d)))]
    return lambda n: (v, [(steps, n - 1), (free, k)])


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
