"""Exact cylinder calculus on shift spaces.

Joining an m-cylinder cover along n steps of the shift produces the
(n+m-1)-cylinder cover, so for locally constant potentials every cover,
spanning and separated quantity reduces to a weighted sum over admissible
words.  Each sum is a start vector times powers of two stationary
Ruelle-Bowen transfer matrices over S states, "on" for the n weighted steps
and "free" for the trailing symbols.  One ``Window`` profile describes
every such potential, and its states are the admissible words of length
max(reach-1, 1) times the window's matrix dim: a scalar window has dim 1, a
d x d matrix cocycle dim d, and a sum the product of its terms' dims.

Powers come from repeated squaring in log space.  Potentials of one profile
shape (reach, dim) share one state space: their "on" matrices stack on a
leading batch axis, each n is one row of a stacked vector, and each square
M^(2^j) multiplies the rows whose exponent has bit j.  T tables over ns
cost O(T S^3 log n_max + T |ns| S^2 log n_max) in O(log n_max) products,
and each row meets its single sum's products in the same order, so every
value is the same float.  More than TRANSFER_STATE_CAP states raise
BudgetExceededError before any state is listed.  Only a scaled matrix
window (a norm power other than 1), or a sum with one, enumerates words,
under a size cap.
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
# most entries in a log-space product's temporary or a stacked "on" matrix
_ENTRIES = 1 << 20


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

    The one-potential case of :func:`log_weighted_word_tables`.
    """
    return log_weighted_word_tables(system, [potential], ns, k)[0]


def log_weighted_word_tables(
    system: ShiftSystem,
    potentials,
    ns,
    k: int,
) -> list[list[float]]:
    """Per potential, its table over ns, the same floats as a one-member call.

    Requires every phi_n to be constant on (n + k)-cylinders.  Every member
    and n is checked, then the state cap once per profile shape, before any
    state is listed or sum computed.  A scaled cocycle, or a sum with one,
    enumerates words and raises EnumerationCapError (a budget error) past
    ENUMERATION_CAP words.  An empty ns gives one [] per potential.
    """
    ns = list(ns)
    if not ns:
        return [[] for _ in potentials]
    profiles = [_checked_profile(system, pot, ns, k) for pot in potentials]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, prof in enumerate(profiles):
        if prof.step is not None:
            groups.setdefault((prof.reach, prof.dim), []).append(i)
    sizes = {shape: word_total(system, max(shape[0] - 1, 1), cap=TRANSFER_STATE_CAP) * shape[1]
             for shape in groups}
    for size in sizes.values():
        _check_states(size, system)
    out: list[list[float]] = [[] for _ in potentials]
    for i, (pot, prof) in enumerate(zip(potentials, profiles)):
        if prof.step is None:
            out[i] = [logsumexp(pot.eval_array(n, [system.representative(w)
                                                   for w in system.admissible_words(n + k)]))
                      for n in ns]
    for (reach, d), members in groups.items():
        # each stacked matrix holds at most _ENTRIES entries
        batch = max(1, _ENTRIES // sizes[reach, d] ** 2)
        for lo in range(0, len(members), batch):
            part = members[lo:lo + batch]
            tables = _group_tables(system, reach, d, [profiles[i].step for i in part], ns, k)
            for i, table in zip(part, tables):
                out[i] = table
    return out


def _checked_profile(system: ShiftSystem, potential: Potential, ns: list, k: int) -> Window:
    """The potential's profile, once every n of its table is checked."""
    profile = _profile(potential)
    for n in ns:
        if n < 1:
            raise ValueError("need n >= 1")
        need = n - 1 + profile.reach
        if n + k < need:
            raise NotLocallyConstantError(
                f"phi_{n} for {potential.label} needs word length >= {need}, got {n + k}"
            )
        if (profile.step is None
                and word_total(system, n + k, cap=ENUMERATION_CAP) > ENUMERATION_CAP):
            raise EnumerationCapError(
                f"enumeration fallback over the words of length {n + k} "
                f"exceeds cap {ENUMERATION_CAP}"
            )
    return profile


def _group_tables(system: ShiftSystem, reach: int, d: int, steps: list, ns: list,
                  k: int) -> list[list[float]]:
    """One table over ns per step of a (reach, d) window with a step.

    States are the admissible p-words, p = max(reach - 1, 1), times d.
    "free" holds identity blocks on the admissible transitions, member t's
    "on" the log-matrix of the window that ends at a position (one step
    call), and its start vector, at reach 1, the row logsumexp of the first
    window's matrix (one more).  Row (t, n) is start on^(n + reach - 1 - p)
    free^(k - reach + 1); n + k = p only at n = 1, k = 0 with reach 1, where
    the value is the start vector's sum.
    """
    p = max(reach - 1, 1)
    states = list(system.admissible_words(p))
    index = {w: i for i, w in enumerate(states)}
    windows = [w + (s,) for w in states for s in range(system.k)
               if system.is_admissible_pair(w[-1], s)]
    rows = np.array([index[w[:-1]] for w in windows], dtype=np.intp)
    cols = np.array([index[w[1:]] for w in windows], dtype=np.intp)
    S, T = len(states), len(steps)
    free = np.full((S, d, S, d), -np.inf)
    for i in range(d):
        free[rows, i, cols, i] = 0.0
    on = np.full((T, S, d, S, d), -np.inf)
    start = np.zeros((T, S * d))
    win = np.array(windows, dtype=np.int64)[:, -reach:]
    for t, step in enumerate(steps):
        on[t, rows, :, cols, :] = step(win).reshape(-1, d, d)
        if reach == 1:
            first = step(np.array(states, dtype=np.int64))
            start[t] += first if d == 1 else np.logaddexp.reduce(first, axis=1).reshape(-1)
    values = {}
    if p - k in ns:
        values[p - k] = [logsumexp(v) for v in start]
    chained = [n for n in dict.fromkeys(ns) if n not in values]
    if chained:
        # v exp(M)^m per row, squaring M as far as the largest m needs
        v = np.repeat(start[:, None, :], len(chained), axis=1)
        for power, ms in ((on.reshape(T, S * d, S * d), [n + reach - 1 - p for n in chained]),
                          (free.reshape(S * d, S * d), [k - reach + 1] * len(chained))):
            for j in range(max(ms).bit_length()):
                if j:
                    power = _log_matmul(power, power)
                bits = [m >> j & 1 for m in ms]
                if all(bits):
                    v = _log_matmul(v, power)
                elif any(bits):
                    picked = np.flatnonzero(bits)
                    v[:, picked] = _log_matmul(v[:, picked], power)
        values.update(zip(chained, np.logaddexp.reduce(v, axis=2).T.tolist()))
    return [list(table) for table in zip(*(values[n] for n in ns))]


def _check_states(count: int, system: ShiftSystem) -> None:
    """Raise BudgetExceededError, before any state is listed, past TRANSFER_STATE_CAP."""
    if count > TRANSFER_STATE_CAP:
        raise BudgetExceededError(
            f"transfer operator on {system.label} needs more than "
            f"{TRANSFER_STATE_CAP} states"
        )


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) @ exp(b)) for log-domain matrices; -inf marks a zero entry.

    A 3-d a is a stack, times b's own stack or one b for all.  Past _ENTRIES
    entries (stack x rows x S x U) the temporary is cut by stack, then rows.
    """
    if a.size * b.shape[-1] > _ENTRIES:
        per_row = b.shape[-2] * b.shape[-1]
        batch = max(1, _ENTRIES // (a.shape[-2] * per_row))
        if a.ndim == 3 and len(a) > batch:
            return np.concatenate([_log_matmul(a[i:i + batch], b if b.ndim == 2 else b[i:i + batch])
                                   for i in range(0, len(a), batch)])
        rows = max(1, _ENTRIES // per_row)
        return np.concatenate([_log_matmul(a[..., i:i + rows, :], b)
                               for i in range(0, a.shape[-2], rows)], axis=-2)
    return np.logaddexp.reduce(a[..., None] + b[..., None, :, :], axis=-2)


# largest k with 0 < deflated_scale(k) < 2^-k: from 1056 it rounds up to
# 2^-k among the subnormals, and from 1075 it is 0.0
MAX_SCALE_INDEX = 1055


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
    if not 0 <= scale_k <= MAX_SCALE_INDEX:
        raise ValueError(f"scale index must be in [0, {MAX_SCALE_INDEX}], got {scale_k}")
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
