"""Separated and spanning set estimators on finite candidate sets.

Separated means pairwise Bowen distance strictly above eps; a set spans a
candidate when their Bowen distance is strictly below eps.  Greedy routines
give certified one-sided bounds; the brute-force routines are exact oracles
for small instances and anchor every greedy result in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .logsum import logsumexp
from .potentials import Potential
from .systems import Point, RealPoint, System, Word


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
        w = np.array([potential.eval(n, p) for p in pts], dtype=float)
    return SeparationInstance(system, n, eps, pts, w)


def bowen_distance_matrix(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    m = len(points)
    if m and isinstance(points[0], RealPoint):
        return _real_distance_matrix(system, n, points)
    if m and isinstance(points[0], Word):
        same_shape = (
            len({len(p.symbols) for p in points}) == 1
            and len({p.tail for p in points}) == 1
        )
        if same_shape and m > 64:
            return _word_distance_matrix(n, points)
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = system.bowen_metric(n, points[i], points[j])
    return d


def _real_distance_matrix(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    orbit = np.array([[p.x for p in points]])
    rows = [orbit[0]]
    for _ in range(n - 1):
        rows.append(np.array([system.apply(RealPoint((v,))).x for v in rows[-1]]))
    arr = np.stack(rows)  # (n, m)
    diff = np.abs(arr[:, :, None] - arr[:, None, :])
    # circle systems fold distances; the contraction uses plain |x - y|
    probe = system.metric(RealPoint((0.0,)), RealPoint((0.9,)))
    if abs(probe - 0.1) < 1e-12:
        diff = np.minimum(diff, 1.0 - diff)
    return diff.max(axis=0)


def _word_distance_matrix(n: int, points: Sequence[Word]) -> np.ndarray:
    """Exact pairwise Bowen distance for same-length, same-tail words."""
    arr = np.array([p.symbols for p in points], dtype=np.int16)
    m, L = arr.shape
    pow2 = 2.0 ** (-np.arange(L))
    out = np.zeros((m, m))
    chunk = max(1, int(4e6 // (m * L)))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        diff = (arr[lo:hi, None, :] != arr[None, :, :])  # (c, m, L)
        weighted = diff * pow2
        # distance after j shifts is 2^j * (total - prefix_j); maximize over j < n
        totals = weighted.sum(axis=2)
        best = np.array(totals)
        prefix = np.zeros_like(totals)
        for j in range(1, min(n, L)):
            prefix = prefix + weighted[:, :, j - 1]
            best = np.maximum(best, (2.0**j) * (totals - prefix))
        out[lo:hi] = best
    return out


def _greedy_separated_indices(inst: SeparationInstance, order: str) -> list[int]:
    if order == "weight":
        idx = sorted(range(inst.size), key=lambda i: (-inst.weights[i], i))
    elif order == "index":
        idx = list(range(inst.size))
    else:
        raise ValueError(f"unknown greedy order {order!r}")
    d = inst.distances()
    kept: list[int] = []
    for i in idx:
        if all(d[i, j] > inst.eps for j in kept):
            kept.append(i)
    return kept


def greedy_separated(inst: SeparationInstance, order: str = "weight") -> list:
    """Maximal (n, eps)-separated subset of the candidates, greedily grown."""
    return [inst.points[i] for i in _greedy_separated_indices(inst, order)]


def separated_lower_bound(inst: SeparationInstance, note: str = "") -> GrowthSample:
    """Certified lower bound for the separated-set optimum (estimator 3)."""
    kept = _greedy_separated_indices(inst, "weight")
    val = logsumexp(inst.weights[kept])
    return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=False, note=note)


def _bitmasks(rel: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as the int whose bit j is rel[i, j]."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def spanning_upper_bound(inst: SeparationInstance, note: str = "") -> GrowthSample:
    """Greedy weighted dominating set of the strict-eps graph (estimator 2).

    Picks the candidate covering the most uncovered points, ties broken by
    lower weight then lower index.  The selected family spans every
    candidate, so its weight sum upper-bounds the spanning optimum.
    """
    masks = _bitmasks(inst.distances() < inst.eps)
    full = (1 << inst.size) - 1
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best = None
        key = None
        for i in range(inst.size):
            gain = bin(masks[i] & ~covered).count("1")
            if gain == 0:
                continue
            cand_key = (-gain, inst.weights[i], i)
            if key is None or cand_key < key:
                key = cand_key
                best = i
        chosen.append(best)
        covered |= masks[best]
    val = logsumexp(inst.weights[chosen])
    return GrowthSample(Estimator.SPANNING, inst.n, inst.eps, val, exact=False, note=note)


def _check_size(inst: SeparationInstance, cap: int) -> None:
    if inst.size > cap:
        raise InstanceTooLargeError(
            f"{inst.size} candidates exceed the exact-oracle cap {cap}"
        )


def exact_separated_value(inst: SeparationInstance, cap: int = 20) -> GrowthSample:
    """Exact separated-set optimum by weighted independent-set search."""
    m = inst.size
    close = inst.distances() <= inst.eps
    np.fill_diagonal(close, False)
    if not close.any():
        # everything is pairwise separated; the optimum keeps all candidates
        val = logsumexp(inst.weights)
        return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=True)
    _check_size(inst, cap)
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


def exact_spanning_value(inst: SeparationInstance, cap: int = 20) -> GrowthSample:
    """Exact spanning-set optimum by weighted set-cover search."""
    _check_size(inst, cap)
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
    cap: int = 20,
) -> tuple[int, int]:
    """Exact (min spanning count, max separated count): the zero-weight optima."""
    inst = make_instance(system, n, eps, points)
    _check_size(inst, cap)
    span = exact_spanning_value(inst, cap).log_value
    sep = exact_separated_value(inst, cap).log_value
    return round(math.exp(span)), round(math.exp(sep))
