"""Separated and spanning set estimators on finite candidate sets.

Separated means pairwise Bowen distance strictly above eps; a set spans a
candidate when their Bowen distance is strictly below eps.  Greedy routines
give certified one-sided bounds; the brute-force routines are exact oracles
for small instances and anchor every greedy result in the tests.

Cost for m candidates at time n: the Bowen distance matrix takes
n m (m + 1) / 2 metric evaluations, on its upper triangle, which is mirrored
below the diagonal, and O(m^2) memory (the m x m float64 matrix plus
cache-sized blocks, each spanning as many time steps as fit).  One kernel
serves shifts and real maps alike, through each system's array form
(``System.coordinates``, ``apply_array``, ``metric_array``); the scalar
``System.bowen_metric`` stays as its reference, equal bit for bit, and as
the only path for points with no array form.  A matrix over
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
    System,
    check_distance_budget,
    orbit_array,
)

# Entries per block of the distance kernel (256 KiB of float64), rows times
# columns times time steps, so a block's running max stays in cache.
_BLOCK_ENTRIES = 1 << 15
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

    Calls ``check_distance_budget`` before allocating.  Points with an array
    form go through ``system.metric_array`` on rows of their orbit array.
    Each row block takes as many rows, and then as many time steps, as fit
    in _BLOCK_ENTRIES, so memory is the m x m result plus a few blocks; the
    block's columns past its rows are mirrored below the diagonal, which is
    exact because every metric is symmetric bit for bit.  Points with no
    array form are compared pair by pair.
    """
    if n < 1:
        raise ValueError("bowen_distance_matrix needs n >= 1")
    m = len(points)
    check_distance_budget(m)
    try:
        orbit = orbit_array(system, n, points)
    except NotImplementedError:
        d = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                d[i, j] = d[j, i] = system.bowen_metric(n, points[i], points[j])
        return d
    out = np.empty((m, m))
    lo = 0
    while lo < m:
        hi = min(m, lo + max(1, _BLOCK_ENTRIES // (m - lo)))
        chunk = max(1, _BLOCK_ENTRIES // ((hi - lo) * (m - lo)))
        best = None
        for t0 in range(0, n, chunk):
            d = system.metric_array(orbit[t0:t0 + chunk, lo:hi, None],
                                    orbit[t0:t0 + chunk, None, lo:])
            d = d[0] if len(d) == 1 else np.maximum.reduce(d, axis=0)
            best = d if best is None else np.maximum(best, d, out=best)
        out[lo:hi, lo:] = best
        out[hi:, lo:hi] = out[lo:hi, hi:].T
        lo = hi
    return out


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
