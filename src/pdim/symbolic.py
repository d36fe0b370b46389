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
M^(2^j) multiplies the rows whose exponent has bit j.  One call serves
every scale index k it is given: the states, the "on" ladder and each n
row's products are built once, and only the free tail free^(k - reach + 1),
from one shared ladder of "free" squares, is applied per k.  T tables over
ns and K scale indices cost O(T S^3 log n_max + T K |ns| S^2 log n_max) in
O(log n_max + K log k_max) products, and each row meets its single sum's
products in the same order, so every value is the same float.  More than
TRANSFER_STATE_CAP states raise BudgetExceededError before any state is
listed.  Only a scaled matrix window (a norm power other than 1), or a sum
with one, enumerates words, under a size cap, as one ``WordGrid`` array per
(n, k).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .logsum import logsumexp, logsumexp_segments
from .partition import Estimator, GrowthSample
from .potentials import Potential, Window
from .systems import BudgetExceededError, FullShift, ShiftSystem, WordGrid, word_total


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

    The one-n case of :func:`log_weighted_word_tables`, at the same cost as
    a single transfer chain: O(S^3 log n) for S states.
    """
    return log_weighted_word_tables(system, [potential], [n], [length - n])[0][0][0]


def log_weighted_word_tables(
    system: ShiftSystem,
    potentials,
    ns,
    ks,
) -> list[list[list[float]]]:
    """Per potential, one table over ns per scale index in ks, the same
    floats as a one-member, one-k call.

    Requires every phi_n to be constant on (n + k)-cylinders.  Every member,
    k and n is checked, then the state cap once per profile shape, before
    any state is listed or sum computed.  A scaled cocycle, or a sum with
    one, enumerates words and raises EnumerationCapError (a budget error)
    past ENUMERATION_CAP words.  An empty ns gives one [] per potential and k.
    Every n and k is read through ``operator.index``, so numpy integers give
    the same floats as Python ints; a float raises TypeError.
    """
    ns, ks = [_integer(n, "n") for n in ns], [_integer(k, "scale index k") for k in ks]
    if not ns or not ks:
        return [[[] for _ in ks] for _ in potentials]
    profiles = [_checked_profile(system, pot, ns, ks) for pot in potentials]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, prof in enumerate(profiles):
        if prof.step is not None:
            groups.setdefault((prof.reach, prof.dim), []).append(i)
    sizes = {shape: word_total(system, max(shape[0] - 1, 1), cap=TRANSFER_STATE_CAP) * shape[1]
             for shape in groups}
    for size in sizes.values():
        _check_states(size, system)
    out: list[list[list[float]]] = [[] for _ in potentials]
    for i, (pot, prof) in enumerate(zip(potentials, profiles)):
        if prof.step is None:
            out[i] = [[logsumexp(pot.eval_array(n, WordGrid(system, system.word_rows(n + k))))
                       for n in ns] for k in ks]
    for (reach, d), members in groups.items():
        # each stacked matrix holds at most _ENTRIES entries
        batch = max(1, _ENTRIES // sizes[reach, d] ** 2)
        for lo in range(0, len(members), batch):
            part = members[lo:lo + batch]
            tables = _group_tables(system, reach, d, [profiles[i].step for i in part], ns, ks)
            for i, table in zip(part, tables):
                out[i] = table
    return out


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _checked_profile(system: ShiftSystem, potential: Potential, ns: list, ks: list) -> Window:
    """The potential's profile, once every (k, n) of its tables is checked."""
    profile = _profile(potential)
    for k in ks:
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
                  ks: list) -> list[list[list[float]]]:
    """Per step of a (reach, d) window with a step, one table over ns per k in ks.

    States are the admissible p-words, p = max(reach - 1, 1), times d.
    "free" holds identity blocks on the admissible transitions, member t's
    "on" the log-matrix of the window that ends at a position (one step
    call), and its start vector, at reach 1, the row logsumexp of the first
    window's matrix (one more).  Row (t, k, n) is start on^(n + reach - 1 - p)
    free^(k - reach + 1): one ladder of "on" squares and products serves
    every k, and only the free tail, from one shared ladder of "free"
    squares, is applied per k.  n + k = p only at n = 1, k = 0 with reach 1,
    where the value is the start vector's sum: one ``logsumexp_segments``
    call over the stacked start vectors gives every member's.
    """
    p = max(reach - 1, 1)
    states = system.word_rows(p)
    rows, windows = system.extend_words(states)
    index = {w: i for i, w in enumerate(map(tuple, states.tolist()))}
    cols = np.array([index[w] for w in map(tuple, windows[:, 1:].tolist())], dtype=np.intp)
    S, T = len(states), len(steps)
    free = np.full((S, d, S, d), -np.inf)
    for i in range(d):
        free[rows, i, cols, i] = 0.0
    on = np.full((T, S, d, S, d), -np.inf)
    start = np.zeros((T, S * d))
    win = windows[:, -reach:]
    for t, step in enumerate(steps):
        on[t, rows, :, cols, :] = step(win).reshape(-1, d, d)
        if reach == 1:
            first = step(states)
            start[t] += first if d == 1 else np.logaddexp.reduce(first, axis=1).reshape(-1)
    n_at = {n: j for j, n in enumerate(dict.fromkeys(ns))}
    v = np.repeat(start[:, None, :], len(n_at), axis=1)
    v = _log_power_rows(v, [on.reshape(T, S * d, S * d)], [n + reach - 1 - p for n in n_at])
    free_squares = [free.reshape(S * d, S * d)]
    tables = {}
    for k in dict.fromkeys(ks):
        # every row takes the same free power, so v itself is never written
        tail = _log_power_rows(v, free_squares, [k - reach + 1] * len(n_at))
        sums = np.logaddexp.reduce(tail, axis=2).tolist()
        if p - k in n_at:
            for t, value in enumerate(logsumexp_segments(start.ravel(), [S * d] * T)):
                sums[t][n_at[p - k]] = value
        tables[k] = sums
    return [[[tables[k][t][n_at[n]] for n in ns] for k in ks] for t in range(T)]


def _log_power_rows(v: np.ndarray, squares: list, ms: list[int]) -> np.ndarray:
    """Row r of the stack v times exp(M)^ms[r], in log space, where squares[j] is M^(2^j).

    squares grows only as far as the largest m needs, so one list serves
    several calls, and each square multiplies the rows whose exponent has
    bit j: every row meets its single chain's products in the same order.
    Rows of v are written in place when only some of them take a product.
    """
    for j in range(max(ms).bit_length()):
        if j == len(squares):
            squares.append(_log_matmul(squares[-1], squares[-1]))
        bits = [m >> j & 1 for m in ms]
        if all(bits):
            v = _log_matmul(v, squares[j])
        elif any(bits):
            picked = np.flatnonzero(bits)
            v[:, picked] = _log_matmul(v[:, picked], squares[j])
    return v


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
    scale_k: int | Sequence[int],
    n_range,
) -> list[GrowthSample]:
    """Exact separated and spanning growth samples at dyadic scale index k.

    For each n the canonical family picks one representative per admissible
    (n+k)-word.  Distinct representatives are (n, eps_k)-separated, and the
    family spans the space at radius 2^-k, hence at the coarser 2^-(k-1).
    The separated sample is a certified lower bound for the full separated
    optimum, the spanning sample a certified upper bound at its scale.
    A sequence of scale indices gives each index's samples in its order,
    from one table call.
    """
    ks = [_integer(k, "scale index k") for k in (scale_k if np.iterable(scale_k) else [scale_k])]
    for k in ks:
        if not 0 <= k <= MAX_SCALE_INDEX:
            raise ValueError(f"scale index must be in [0, {MAX_SCALE_INDEX}], got {k}")
    ns = [_integer(n, "n") for n in n_range]
    out: list[GrowthSample] = []
    for k, table in zip(ks, log_weighted_word_tables(system, [potential], ns, ks)[0]):
        eps = deflated_scale(k)
        span_scale = 2.0 ** (-(k - 1))
        for n, v in zip(ns, table):
            out.append(GrowthSample(Estimator.SEPARATED, n, eps, v, exact=True))
            out.append(GrowthSample(Estimator.SPANNING, n, span_scale, v, exact=True))
    return out


def log_word_count(system: ShiftSystem, length: int) -> float:
    """log of the exact admissible word count."""
    if isinstance(system, FullShift):
        return length * math.log(system.k)
    return math.log(word_total(system, length))
