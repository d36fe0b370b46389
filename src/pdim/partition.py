"""Separated and spanning set estimators on finite candidate sets.

Separated means pairwise Bowen distance strictly above eps; a set spans a
candidate when their Bowen distance is strictly below eps.  Greedy routines
give certified one-sided bounds; the brute-force routines are exact oracles
for small instances and anchor every greedy result in the tests.

Cost for m candidates at time n: every greedy and exact reader takes only
the Bowen relation, the pairs with d_n <= eps (``bowen_relation``).  The
instances of one point set form a family (``make_instances``): one orbit,
at the largest n, and one walk through time serve all their (n, eps)
requests (``bowen_relations``), reading each relation off the running max
at its n.  A chunk of time steps that ends after step t keeps the pairs
within the largest min(eps, ``System.bowen_radius(n - t + 1, eps)``) over
the requests still open.  On the doubling map below eps = 1/4, and on
shifts below eps = 1, that radius halves with each step still to come.
Past one block of _BLOCK_ENTRIES pairs, the points are sorted once by
``System.sweep_key`` (circle and interval maps, shifts), and each point is
stepped, from t = 0, only against the points whose keys lie within that
reach at t = 1: C candidate pairs in all, close to the E
pairs of the relation where the radius halves, for O(m log m + C n) time
and no broadcast blocks.  A triangle within one block is one metric call,
and one whose windows hold over a quarter of its pairs (a radius that does
not shrink, such as eps = 0.3 on the doubling map) goes by row blocks: the
first time chunk visits all m (m + 1) / 2 pairs in cache-sized blocks,
O(m^2), and later chunks step only the pairs still kept.  Memory is
O(m + E) plus the blocks.  One kernel serves shifts and real maps alike,
through each system's array form (``System.coordinates``, ``apply_array``,
``metric_array``); the scalar ``System.bowen_metric`` stays as its
reference, equal bit for bit, and as the only path for points with no
array form.  Kept pairs past ``systems.ARRAY_BUDGET_BYTES`` (16 bytes
each), counted over all the requests of a walk, raise BudgetExceededError,
which the CLI turns into exit code 3; a family whose relations fit the
budget only one at a time walks each request alone, holding one relation.
Greedy separated is O(m + E) in total; greedy spanning takes one argmax
over m packed keys per pick, plus O(m + E) in total for its key updates.
The exact oracles build their bit masks in one pass over the relation and
search, with a memo, only the states they reach: the cover search branches
on the sets that cover the lowest uncovered element, the separated search
on keeping or skipping the lowest candidate.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .logsum import logsumexp
from .potentials import Potential
from .systems import (
    BudgetExceededError,
    Point,
    System,
    _check_array_budget,
    check_distance_budget,
    orbit_array,
)

# Entries per block of the distance kernel (256 KiB of float64), rows times
# columns times time steps, so a block's running max stays in cache.
_BLOCK_ENTRIES = 1 << 15
# Most candidates the exact (exponential-time) oracles take.
ORACLE_CAP = 20
# The first part of every relation: no pairs, in the relation's dtypes.
_NO_PAIRS = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))


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
    """Candidates with weights w_i = phi_n(x_i) at one (n, eps); the instances
    of one ``make_instances`` family share one walk for their relations."""

    system: System
    n: int
    eps: float
    points: list
    weights: np.ndarray
    _relations: _Relations | None = field(default=None, repr=False, compare=False, init=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise EmptyInstanceError("no candidates after filtering")
        if not self.eps > 0:  # NaN included
            raise ValueError("eps must be positive")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.points),):
            raise ValueError("need one weight per candidate")

    @property
    def size(self) -> int:
        return len(self.points)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``bowen_relation`` of the candidates at (n, eps): pairs i < j with d_n <= eps."""
        if self._relations is None:
            self._relations = _Relations(self.system, self.points, [(self.n, self.eps)])
        return self._relations[self.n, self.eps]


class _Relations:
    """The Bowen relations of one point set at a family's (n, eps) requests,
    from one ``bowen_relations`` walk on first use.  Where their pairs
    together pass ARRAY_BUDGET_BYTES, each request walks alone when used,
    and only the relation in use is held, so a family holds no more pairs
    than the budget allows one relation."""

    def __init__(self, system: System, points: list, requests: list):
        self.system, self.points = system, points
        self.requests: list | None = list(dict.fromkeys(requests))
        self.found: dict = {}

    def __getitem__(self, request: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if request not in self.found:
            self.found = {}
            requests = self.requests or [request]  # None once the family went over
            try:
                found = bowen_relations(self.system, self.points, requests)
            except BudgetExceededError:
                if len(requests) == 1:
                    raise
                self.requests = None
                return self[request]
            self.found = dict(zip(requests, found))
        return self.found[request]


def make_instances(
    system: System,
    points: Sequence[Point],
    requests: Sequence[tuple[int, float]],
    potentials: Sequence[Potential | None],
) -> list[list[SeparationInstance]]:
    """Per potential, one instance per (n, eps) request on the points.

    Each potential's weights come from one ``eval_arrays`` pass over the
    requested n (None weighs zero), and all the instances form one family,
    whose relations one ``bowen_relations`` walk computes on first use.
    """
    pts, requests = list(points), list(requests)
    ns = [n for n, _ in requests]
    relations = _Relations(system, pts, requests)
    out = []
    for pot in potentials:
        weights = [np.zeros(len(pts)) for _ in ns] if pot is None else pot.eval_arrays(ns, pts)
        out.append([SeparationInstance(system, n, eps, pts, w)
                    for (n, eps), w in zip(requests, weights)])
        for inst in out[-1]:
            inst._relations = relations
    return out


def make_instance(
    system: System,
    n: int,
    eps: float,
    points: Sequence[Point],
    potential: Potential | None = None,
) -> SeparationInstance:
    """The one-request, one-potential case of ``make_instances``."""
    return make_instances(system, points, [(n, eps)], [potential])[0][0]


def bowen_relation(system: System, n: int, points: Sequence[Point],
                   eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j with d_n(x_i, x_j) <= eps, as arrays (i, j, d) sorted by (i, j):
    the one-request case of ``bowen_relations``."""
    return bowen_relations(system, points, [(n, eps)])[0]


def bowen_relations(system: System, points: Sequence[Point],
                    requests: Sequence[tuple[int, float]]) -> list[tuple]:
    """Per (n, eps) request, the pairs i < j with d_n(x_i, x_j) <= eps, as
    arrays (i, j, d) (int32, int32, float64) sorted by (i, j).

    Each d is ``system.bowen_metric(n, x_i, x_j)`` bit for bit.  Points with
    an array form share one orbit, at the largest n, and one walk through
    time that keeps each pair's running max of ``system.metric_array`` and
    reads a request's relation off at its n; no time chunk runs past a
    requested n.  A triangle past one block (m^2 > _BLOCK_ENTRIES) whose
    ``System.sweep_key`` windows hold at most a quarter of its pairs takes
    the sweep (``_Walk.sweep``): only the pairs whose keys lie within reach
    are stepped, from t = 0.  Every other triangle goes by row blocks: each
    takes as many rows, then as many time steps, as fit in _BLOCK_ENTRIES,
    so a small orbit is one call, and past that first chunk only the pairs
    still kept are stepped, gathered from the orbit.  In both, after each
    chunk, ending after step t, a pair drops out once its running max
    passes the reach, the largest min(eps, system.bowen_radius(n - t + 1,
    eps)) over the requests with n >= t; that is exact, as by the radius's
    contract a dropped pair has d_n > eps for each of them.  Points with no
    array form go through the filter at eps on ``bowen_metric`` values.
    Raises ValueError for n < 1 or an eps that is not positive (NaN
    included), and BudgetExceededError before the pairs kept for all the
    requests together pass ARRAY_BUDGET_BYTES.  Repeated requests share
    one result.
    """
    requests = list(requests)
    for n, eps in requests:
        if n < 1:
            raise ValueError("bowen_relation needs n >= 1")
        if not eps > 0:
            raise ValueError("eps must be positive")
    if not requests:
        return []
    distinct = list(dict.fromkeys(requests))
    found = dict(zip(distinct, _Walk(system, points, distinct).relations()))
    return [found[r] for r in requests]


class _Walk:
    """One pass through time for distinct (n, eps) requests on one point set.

    Each request collects its pairs in ``parts``; ``kept`` counts them over
    all the requests, against the budget as they come (16 bytes a pair:
    int32 i and j, float64 d).
    """

    def __init__(self, system: System, points: Sequence[Point], requests: list):
        self.system, self.points, self.requests = system, points, requests
        self.stops = sorted({n for n, _ in requests})
        self.parts = [[_NO_PAIRS] for _ in requests]
        self.kept = 0
        self.order = None
        try:
            self.orbit = orbit_array(system, self.stops[-1], points)
        except NotImplementedError:
            self.orbit = None

    def relations(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        m = len(self.points)
        if self.orbit is None or m * m <= _BLOCK_ENTRIES or not self.sweep():
            self.row_blocks()
        out = []
        for parts in self.parts:
            # one part, as from one row block (every small orbit), needs no copy
            i, j, d = parts[1] if len(parts) == 2 else (np.concatenate(col) for col in zip(*parts))
            if self.order is not None:
                s = np.lexsort((j, i))
                i, j, d = i[s], j[s], d[s]
            out.append((i, j, d))
        return out

    def reach(self, t: int) -> float:
        """The largest min(eps, bowen_radius(n - t + 1, eps)) over the requests with n >= t."""
        return max(min(eps, self.system.bowen_radius(n - t + 1, eps))
                   for n, eps in self.requests if n >= t)

    def keep(self, r: int, i: np.ndarray, j: np.ndarray, d: np.ndarray) -> None:
        """Appends the pairs to request r's parts after the budget check."""
        _check_array_budget(self.kept + len(i), 2, f"Bowen relation of {len(self.points)} points")
        self.parts[r].append((i.astype(np.int32), j.astype(np.int32), d))
        self.kept += len(i)

    def walk(self, i: np.ndarray, j: np.ndarray, d: np.ndarray, t: int, reach: float) -> None:
        """Takes the pairs (i, j), whose running max over the steps before t
        is d, at most reach, reads off each request whose n is t, and steps
        the pairs through the last requested n, as many steps per call as fit
        in _BLOCK_ENTRIES and none past a requested n, pruning at the reach
        and reading off after each call."""
        stops, orbit = self.stops, self.orbit
        while True:
            for r, (n, eps) in enumerate(self.requests):
                if n == t and eps >= reach:  # every pair is within eps
                    self.keep(r, i, j, d)
                elif n == t:
                    close = d <= eps
                    self.keep(r, i[close], j[close], d[close])
            if t == stops[-1] or not len(i):
                return
            k = min(max(1, _BLOCK_ENTRIES // len(i)), stops[bisect.bisect_right(stops, t)] - t)
            step = self.system.metric_array(orbit[t:t + k, i], orbit[t:t + k, j])
            d = np.maximum(d, step.max(axis=0))
            t += k
            reach = self.reach(t)
            close = d <= reach
            i, j, d = i[close], j[close], d[close]

    def row_blocks(self) -> None:
        system, points, orbit, m = self.system, self.points, self.orbit, len(self.points)
        lo = 0
        while lo < m:
            if orbit is None:
                hi = lo + 1
                for r, (n, eps) in enumerate(self.requests):
                    d = np.array([system.bowen_metric(n, points[lo], q) for q in points[hi:]],
                                 dtype=float)
                    (c,) = np.nonzero(d <= eps)
                    self.keep(r, np.full(len(c), lo), c + hi, d[c])
            else:
                hi = min(m, lo + max(1, _BLOCK_ENTRIES // (m - lo)))
                t = min(max(1, _BLOCK_ENTRIES // ((hi - lo) * (m - lo))), self.stops[0])
                d = system.metric_array(orbit[:t, lo:hi, None], orbit[:t, None, lo:])
                d = d[0] if len(d) == 1 else np.maximum.reduce(d, axis=0)
                reach = self.reach(t)
                r, c = np.nonzero(d <= reach)
                upper = c > r
                r, c = r[upper], c[upper]
                self.walk(r + lo, c + lo, d[r, c], t, reach)
            lo = hi

    def sweep(self) -> bool:
        """The relations by sort and sweep on ``system.sweep_key``; False,
        with nothing done, where the system has no key or the windows hold
        over a quarter of the m (m - 1) / 2 pairs, where the row blocks are
        faster.

        By the radius's contract at t = 1 a pair of a relation has d_0 <=
        d_1 <= reach(1), so by the key's contract its keys lie within
        reach(1).  Points sorted by key, a point's candidates are a forward
        run of the keys past its own and, on the circle, a wrap run from the
        far end; no window (eps = inf, or a reach of half the period or
        more) counts every pair.  The candidates go, in runs of whole rows
        of at most _BLOCK_ENTRIES pairs (or one row), through ``walk`` from
        t = 0.
        """
        orbit, m = self.orbit, len(self.points)
        swept = self.system.sweep_key(orbit[0])
        if swept is None:
            return False
        key, period = swept
        # The windows are conservative.  A pair within reach at t = 0 has float
        # |key_q - key_p| <= reach, so exactly key_q - key_p <= reach·(1 + 2^-52)
        # < window, and fl(key_p + window) >= key_q, rounding being monotone and
        # key_q a float.  Past the wrap the float 1 - |key_q - key_p| <= reach
        # instead: the inner difference rounds by up to 2^-53 absolute, so
        # exactly key_p <= key_q - 1 + reach·(1 + 2^-52) + 2^-53, while
        # fl(fl(key_q - 1) + window) rounds twice, by up to 2^-53 absolute
        # each time (keys lie in [0, 1] on the circle of length 1).  The
        # relative 1e-9 covers the relative errors and the absolute 2^-50 the
        # absolute ones, with room.
        window = self.reach(1) * (1 + 1e-9) + 2.0 ** -50
        order = None
        if not (key[1:] >= key[:-1]).all():  # every circle and interval grid comes sorted
            order = np.argsort(key, kind="stable")
            key = key[order]
        rows = np.arange(m)
        hi = np.searchsorted(key, key + window, side="right")  # forward run: rows + 1 to hi
        wrap = np.full(m, m)  # wrap run: wrap to m
        if period is not None:
            # q's wrap partners are the p below lo[q]; lo rises with q
            lo = np.searchsorted(key, key - period + window, side="right")
            wrap = np.maximum(np.searchsorted(lo, rows, side="right"), hi)
        count = hi - rows - 1 + m - wrap
        if 8 * int(count.sum()) > m * (m - 1):
            return False
        runs = np.stack([hi - rows - 1, m - wrap], axis=1)
        firsts = np.stack([rows + 1, wrap], axis=1)
        ends = np.concatenate([[0], np.cumsum(count)])
        a = 0
        while a < m:
            b = max(a + 1, int(np.searchsorted(ends, ends[a] + _BLOCK_ENTRIES, side="right")) - 1)
            length = runs[a:b].ravel()
            p = np.repeat(rows[a:b], count[a:b])
            q = np.repeat(firsts[a:b].ravel() - np.cumsum(length) + length, length)
            q += np.arange(len(q))
            if order is not None:
                p, q = order[p], order[q]
                p, q = np.minimum(p, q), np.maximum(p, q)
            self.walk(p, q, np.zeros(len(p)), 0, math.inf)
            a = b
        self.order = order
        return True


def bowen_distance_matrix(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    """Symmetric matrix of ``system.bowen_metric(n, x, y)`` over the points, bit for bit.

    The eps = inf case of ``bowen_relation``, written into a matrix; calls
    ``check_distance_budget`` before any work.
    """
    m = len(points)
    check_distance_budget(m)
    i, j, d = bowen_relation(system, n, points, math.inf)
    out = np.zeros((m, m))
    out[i, j] = out[j, i] = d
    return out


def _edges(inst: SeparationInstance, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """The pairs with d_n < eps (strict: the spanning relation) or d_n <= eps (separated)."""
    i, j, d = inst.pairs()
    if not strict:
        return i, j
    near = d < inst.eps
    return i[near], j[near]


def _neighbours(inst: SeparationInstance, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """CSR lists of ``_edges``, both ways: v's neighbours are nbrs[indptr[v]:indptr[v + 1]]."""
    i, j = _edges(inst, strict)
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])
    indptr = np.zeros(inst.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=inst.size), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def _masks(inst: SeparationInstance, strict: bool) -> list[int]:
    """Bit v of masks[u] is set for u = v and each pair {u, v} of ``_edges``,
    in one pass over the relation."""
    i, j, d = inst.pairs()
    masks = [1 << u for u in range(inst.size)]
    eps = inst.eps
    for u, v, duv in zip(i.tolist(), j.tolist(), d.tolist()):
        if not strict or duv < eps:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def _greedy_separated_indices(inst: SeparationInstance) -> list[int]:
    indptr, nbrs = _neighbours(inst, strict=False)
    bounds = indptr.tolist()
    blocked = [False] * inst.size
    kept: list[int] = []
    for i in np.argsort(-inst.weights, kind="stable").tolist():
        if not blocked[i]:
            kept.append(i)
            for j in nbrs[bounds[i]:bounds[i + 1]].tolist():
                blocked[j] = True
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


def _greedy_spanning_indices(inst: SeparationInstance) -> list[int]:
    # key[i] = gain[i] * m + (m - 1 - rank[i]): gain[i] counts the uncovered
    # points within eps of i, itself included, and rank[i] is the place of i
    # in the stable weight order, so the top key has the most gain, then the
    # lower weight, then the lower index.  Each newly covered point lowers by
    # m the key of itself and of each of its neighbours.
    m = inst.size
    indptr, nbrs = _neighbours(inst, strict=True)
    bounds = indptr.tolist()
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(inst.weights, kind="stable")] = np.arange(m)
    key = (np.diff(indptr) + 1) * m + (m - 1 - rank)
    uncovered = np.ones(m, dtype=bool)
    chosen: list[int] = []
    while key[best := int(key.argmax())] >= m:  # below m every gain is 0
        chosen.append(best)
        ball = np.append(nbrs[bounds[best]:bounds[best + 1]], best)
        newly = ball[uncovered[ball]]
        uncovered[newly] = False
        lowered = [nbrs[bounds[v]:bounds[v + 1]] for v in newly.tolist()]
        np.subtract.at(key, np.concatenate(lowered + [newly]), m)
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


def _best_independent(avail: int, conflict: list[int], shifted: list[float],
                      memo: dict[int, float]) -> float:
    """Largest weight sum of an independent subset of ``avail``: the lowest
    candidate v left out, or kept with its conflicts (v among them) removed."""
    if avail == 0:
        return 0.0
    out = memo.get(avail)
    if out is None:
        low = avail & -avail
        v = low.bit_length() - 1
        out = _best_independent(avail ^ low, conflict, shifted, memo)
        kept = shifted[v] + _best_independent(avail & ~conflict[v], conflict, shifted, memo)
        if kept > out:  # max(out, kept)
            out = kept
        memo[avail] = out
    return out


def exact_separated_value(inst: SeparationInstance) -> GrowthSample:
    """Exact separated-set optimum by weighted independent-set search."""
    m = inst.size
    if not len(inst.pairs()[0]):
        # everything is pairwise separated; the optimum keeps all candidates
        val = logsumexp(inst.weights)
        return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=True)
    _check_size(inst)
    conflict = _masks(inst, strict=False)
    wmax = float(inst.weights.max())
    shifted = np.exp(inst.weights - wmax).tolist()
    val = wmax + math.log(_best_independent((1 << m) - 1, conflict, shifted, {}))
    return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, float(val), exact=True)


def _min_cover(covered: int, full: int, covering: list[list[tuple[int, float]]],
               memo: dict[int, float]) -> float:
    """Least cost to cover ``full`` from ``covered``, branching on the sets
    that cover the lowest uncovered element."""
    if covered == full:
        return 0.0
    out = memo.get(covered)
    if out is None:
        rem = full & ~covered
        out = math.inf
        for mask, cost in covering[(rem & -rem).bit_length() - 1]:
            total = cost + _min_cover(covered | mask, full, covering, memo)
            if total < out:  # min(out, total)
                out = total
        memo[covered] = out
    return out


def exact_min_cover(masks: list[int], costs: np.ndarray, full: int | None = None) -> float:
    """Minimum total cost over subsets whose cover masks reach ``full``, or
    inf where some element of ``full`` lies in no mask.

    ``full`` defaults to one bit per mask, which matches the square case
    where every candidate point contributes its own cover element.  Bits
    of a mask outside ``full`` are ignored.
    """
    if full is None:
        full = (1 << len(masks)) - 1
    covering: list[list[tuple[int, float]]] = [[] for _ in range(full.bit_length())]
    for mask, cost in zip(masks, np.asarray(costs, dtype=float).tolist()):
        mask &= full
        rest = mask
        while rest:
            low = rest & -rest
            covering[low.bit_length() - 1].append((mask, cost))
            rest ^= low
    return _min_cover(0, full, covering, {})


def exact_spanning_value(inst: SeparationInstance) -> GrowthSample:
    """Exact spanning-set optimum by weighted set-cover search."""
    _check_size(inst)
    masks = _masks(inst, strict=True)
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
