"""Separated and spanning set estimators on finite candidate sets.

Separated means pairwise Bowen distance strictly above eps; a set spans a
candidate when their Bowen distance is strictly below eps.  Greedy routines
give certified one-sided bounds; the brute-force routines are exact oracles
for small instances and anchor every greedy result in the tests.

Cost for m candidates at time n: the Bowen distance matrix takes O(n m^2)
time and O(m^2) memory (the m x m float64 matrix plus a few cache-sized row
blocks), and it equals ``System.bowen_metric`` bit for bit.  A matrix over
``systems.ARRAY_BUDGET_BYTES`` (m > 16384) raises BudgetExceededError, which
the CLI turns into exit code 3.  Greedy separated and greedy spanning are O(m^2) in total.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .logsum import logsumexp
from .potentials import Potential
from .systems import (
    Point,
    RealPoint,
    System,
    Word,
    check_distance_budget,
    orbit_array,
    shift_step,
    word_array,
)

# Entries per row block of the distance kernels (256 KiB of float64), so the
# block's running max stays in cache across time steps.
_BLOCK_ENTRIES = 1 << 15
# Longest word the bit-plane kernel takes: its disagreement sums are exact.
_WORD_BITS = 53
# Most candidates the exact (exponential-time) oracles take.
ORACLE_CAP = 20


class Estimator(IntEnum):
    LOWER_COVER = 1   # infimum weights over minimal subcovers
    SPANNING = 2      # minimal weighted spanning sets
    SEPARATED = 3     # maximal weighted separated sets
    UPPER_COVER = 4   # supremum weights over minimal subcovers


@dataclass(frozen=True)
class GrowthSample:
    estimator: int
    n: int
    scale: float
    log_value: float
    exact: bool
    note: str = ""


class EmptyInstanceError(ValueError):
    pass


class InstanceTooLargeError(ValueError):
    pass


@dataclass
class SeparationInstance:
    """Candidates with weights w_i = phi_n(x_i) at one (n, eps)."""

    system: System
    n: int
    eps: float
    points: list
    weights: np.ndarray
    _dists: np.ndarray | None = field(default=None, repr=False, init=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise EmptyInstanceError("no candidates after filtering")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.points),):
            raise ValueError("need one weight per candidate")

    @property
    def size(self) -> int:
        return len(self.points)

    def distances(self) -> np.ndarray:
        if self._dists is None:
            self._dists = bowen_distance_matrix(self.system, self.n, self.points)
        return self._dists


def make_instance(
    system: System,
    n: int,
    eps: float,
    points: Sequence[Point],
    potential: Potential | None = None,
) -> SeparationInstance:
    pts = list(points)
    if potential is None:
        w = np.zeros(len(pts))
    else:
        w = potential.eval_array(n, pts)
    return SeparationInstance(system, n, eps, pts, w)


def bowen_distance_matrix(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    """Symmetric matrix of ``system.bowen_metric(n, x, y)`` over the points, bit for bit.

    Calls ``check_distance_budget`` before allocating.
    """
    m = len(points)
    check_distance_budget(m)
    if m and isinstance(points[0], RealPoint):
        return _real_distance_matrix(system, n, points)
    step = shift_step(system)
    if (
        m
        and step is not None
        and len({p.tail for p in points}) == 1
        and max(len(p.symbols) for p in points) <= _WORD_BITS
    ):
        return _word_distance_matrix(n, points, step)
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = system.bowen_metric(n, points[i], points[j])
    return d


def _running_max(m: int, step_distances, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the max over time steps of per-step distances, by row block.

    ``step_distances(lo, hi)`` yields at least one step's distances from rows
    ``lo:hi`` to every point.  Blocks are cache-sized, so memory is the m x m
    result plus a few blocks.
    """
    out = np.empty((m, m))
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))
    for lo in range(0, m, rows):
        steps = step_distances(lo, lo + rows)
        best = np.array(next(steps))  # a copy: a step may reuse its buffer
        for d in steps:
            np.maximum(best, d, out=best)
        np.multiply(best, scale, out=out[lo:lo + rows])
    return out


def _real_distance_matrix(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    orbit = orbit_array(system, n, points)
    return _running_max(len(points), lambda lo, hi: (
        system.metric_array(row[lo:hi, None], row) for row in orbit))


def _word_distance_matrix(n: int, points: Sequence[Word], step: int = 1) -> np.ndarray:
    """Exact Bowen distance of the ``step``-symbol shift for same-tail words.

    Padding every word with the common tail to length L changes no distance.
    Bit-plane b of a word is the integer whose bit L-1-i is bit b of symbol
    i, so two words disagree exactly on the bits of D, the OR over planes of
    their XOR.  After j shifts the distance sum_{i>=j} [x_i != y_i] 2^(j-i)
    is (D & (2^(L-j) - 1)) * 2^(j+1-L), exact because D < 2^L <= 2^53.
    The running max is taken on the integers (D & (2^(L-j) - 1)) << j,
    which stay below 2^L, and scaled once.
    """
    m = len(points)
    L = max(len(p.symbols) for p in points)
    arr = word_array(points, L)
    place = np.int64(1) << np.arange(L - 1, -1, -1, dtype=np.int64)
    planes = [(arr >> b & 1) @ place for b in range(max(1, int(arr.max(initial=0)).bit_length()))]
    shifts = range(0, max(1, min(n * step, L)), step)

    def step_distances(lo, hi):
        diff = planes[0][lo:hi, None] ^ planes[0]
        for plane in planes[1:]:
            diff |= plane[lo:hi, None] ^ plane
        shifted = np.empty_like(diff)
        for j in shifts:
            # the step-j distance in units of 2^(1-L), an integer below 2^L
            np.bitwise_and(diff, (1 << (L - j)) - 1, out=shifted)
            yield np.left_shift(shifted, j, out=shifted)

    return _running_max(m, step_distances, 2.0 ** (1 - L))


def _greedy_separated_indices(inst: SeparationInstance) -> list[int]:
    idx = sorted(range(inst.size), key=lambda i: (-inst.weights[i], i))
    # row j marks the points within eps of j (the matrix is symmetric)
    close = ~(inst.distances() > inst.eps)
    blocked = np.zeros(inst.size, dtype=bool)
    kept: list[int] = []
    for i in idx:
        if not blocked[i]:
            kept.append(i)
            blocked |= close[i]
    return kept


def greedy_separated(inst: SeparationInstance) -> list:
    """Maximal (n, eps)-separated subset of the candidates, greedily grown.

    Candidates are taken by decreasing weight, ties by lower index.
    """
    return [inst.points[i] for i in _greedy_separated_indices(inst)]


def separated_lower_bound(inst: SeparationInstance, note: str = "") -> GrowthSample:
    """Certified lower bound for the separated-set optimum (estimator 3)."""
    kept = _greedy_separated_indices(inst)
    val = logsumexp(inst.weights[kept])
    return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=False, note=note)


def _bitmasks(rel: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as the int whose bit j is rel[i, j]."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _greedy_spanning_indices(inst: SeparationInstance) -> list[int]:
    # gain[i] counts the uncovered points within eps of i; each pick
    # subtracts the columns it covers, so the whole run is O(m^2)
    near = inst.distances() < inst.eps  # symmetric, and every point covers itself
    gain = near.sum(axis=1)
    uncovered = np.ones(inst.size, dtype=bool)
    chosen: list[int] = []
    while (top := gain.max()) > 0:
        ties = np.flatnonzero(gain == top)
        best = int(ties[np.argmin(inst.weights[ties])])
        chosen.append(best)
        newly = near[best] & uncovered
        uncovered &= ~newly
        gain -= near[newly].sum(axis=0)
    return chosen


def spanning_upper_bound(inst: SeparationInstance, note: str = "") -> GrowthSample:
    """Greedy weighted dominating set of the strict-eps graph (estimator 2).

    Picks the candidate covering the most uncovered points, ties broken by
    lower weight then lower index.  The selected family spans every
    candidate, so its weight sum upper-bounds the spanning optimum.
    """
    val = logsumexp(inst.weights[_greedy_spanning_indices(inst)])
    return GrowthSample(Estimator.SPANNING, inst.n, inst.eps, val, exact=False, note=note)


def _check_size(inst: SeparationInstance) -> None:
    if inst.size > ORACLE_CAP:
        raise InstanceTooLargeError(
            f"{inst.size} candidates exceed the exact-oracle cap {ORACLE_CAP}"
        )


def exact_separated_value(inst: SeparationInstance) -> GrowthSample:
    """Exact separated-set optimum by weighted independent-set search."""
    m = inst.size
    close = inst.distances() <= inst.eps
    np.fill_diagonal(close, False)
    if not close.any():
        # everything is pairwise separated; the optimum keeps all candidates
        val = logsumexp(inst.weights)
        return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=True)
    _check_size(inst)
    conflict = _bitmasks(close)
    wmax = float(inst.weights.max())
    shifted = np.exp(inst.weights - wmax)
    memo: dict[int, float] = {}

    def best(avail: int) -> float:
        if avail == 0:
            return 0.0
        if avail in memo:
            return memo[avail]
        v = (avail & -avail).bit_length() - 1
        out = best(avail & ~(1 << v))
        out = max(out, shifted[v] + best(avail & ~(1 << v) & ~conflict[v]))
        memo[avail] = out
        return out

    val = wmax + math.log(best((1 << m) - 1))
    return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, float(val), exact=True)


def exact_min_cover(masks: list[int], costs: np.ndarray, full: int | None = None) -> float:
    """Minimum total cost over subsets whose cover masks reach ``full``.

    ``full`` defaults to one bit per mask, which matches the square case
    where every candidate point contributes its own cover element.
    """
    m = len(masks)
    if full is None:
        full = (1 << m) - 1
    memo: dict[int, float] = {}

    def best(covered: int) -> float:
        if covered == full:
            return 0.0
        if covered in memo:
            return memo[covered]
        rem = ~covered & full
        j = (rem & -rem).bit_length() - 1
        out = math.inf
        for v in range(m):
            if masks[v] >> j & 1:
                out = min(out, costs[v] + best(covered | masks[v]))
        memo[covered] = out
        return out

    return best(0)


def exact_spanning_value(inst: SeparationInstance) -> GrowthSample:
    """Exact spanning-set optimum by weighted set-cover search."""
    _check_size(inst)
    masks = _bitmasks(inst.distances() < inst.eps)
    wmax = float(inst.weights.max())
    costs = np.exp(inst.weights - wmax)
    val = wmax + math.log(exact_min_cover(masks, costs))
    return GrowthSample(Estimator.SPANNING, inst.n, inst.eps, float(val), exact=True)


def count_spanning_separated(
    system: System,
    n: int,
    eps: float,
    points: Sequence[Point],
) -> tuple[int, int]:
    """Exact (min spanning count, max separated count): the zero-weight optima."""
    inst = make_instance(system, n, eps, points)
    _check_size(inst)
    span = exact_spanning_value(inst).log_value
    sep = exact_separated_value(inst).log_value
    return round(math.exp(span)), round(math.exp(sep))
