"""Separated and spanning set estimators on finite candidate sets.

Separated means pairwise Bowen distance strictly above eps; a set spans a
candidate when their Bowen distance is strictly below eps.  Greedy routines
give certified one-sided bounds; the brute-force routines are exact oracles
for small instances and anchor every greedy result in the tests.

Every greedy and exact reader takes only the Bowen relation of its
instance, the pairs with d_n <= eps (``bowen_relations``).  The instances
of one point set at its (n, eps) requests form a family, and
``make_families`` builds many families at once: each point set is stepped
once per base system, and its instances' points carry that orbit
(``systems.OrbitPoints``) for the weights and the relations.  The small
families of one call, n m^2 <= _BLOCK_ENTRIES, get their relations there,
in batches of one metric call per time chunk (``_stacked``); any other
family walks through time once for all its requests, on first use
(``_Walk``): it steps only the pairs whose ``System.sweep_key`` keys lie
within reach, every pair where the key leaves no window, in runs of at most
_BLOCK_ENTRIES pairs, so in O(m + E) memory plus one run for E kept pairs.
A walk keeps pairs against ``systems.ARRAY_BUDGET_BYTES`` at 16 bytes each,
over all its requests, and before its first step it bounds its work: the
pairs it would step from t = 0 may number at most as many as that budget
keeps (2^27).  Past either it raises BudgetExceededError, which the CLI
turns into exit code 3; no point set is refused for its size alone.  A
family whose relations fit the budget only one at a time walks each request
alone, holding one relation.

The greedy bounds are set up once per batch, in one array pass, and
picked once per instance (``greedy_optima``): the pass builds every
instance's neighbour CSR and weight order, the picks run on each instance's
slice, and one segmented logsumexp gives the values.  Greedy separated is
O(m + E) in total.  Greedy spanning reads an instance's closed-ball CSR
(each candidate's strict-eps neighbours, then itself) and chooses its loop
by the largest closed ball.  Where every ball holds at
most _LEVEL_BALL_CAP points, the level loop walks the weight order once per
gain level, from the largest ball down, picking each point whose gain still
equals the level: at most _LEVEL_BALL_CAP passes, O(m + E) Python steps in
all.  Otherwise each pick is one argmax over m packed keys, a scan of the
picked ball for its uncovered points, and one subtract.at over the newly
covered points' balls: O(m) per pick, and O(m + E) in total for the scans
and decrements.  Both give the same picks in the same order.  The exact
optima are set up once per batch, in one array pass, and searched once per
instance (``exact_optima``): each search, with a memo, visits only the
states it reaches.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from enum import IntEnum

import numpy as np

from .logsum import logsumexp, logsumexp_segments
from . import systems
from .potentials import Potential
from .systems import (
    BudgetExceededError,
    OrbitPoints,
    Point,
    System,
    _check_array_budget,
    orbit_array,
    power_base,
    with_orbit,
)

# Entries per metric call (256 KiB of float64), so its running max stays in
# cache: time steps times pairs on a walk, and time steps times point sets
# times rows times columns on the stacked path.
_BLOCK_ENTRIES = 1 << 15
# Most candidates the exact (exponential-time) oracles take.
ORACLE_CAP = 20
# Largest closed ball at which greedy spanning takes the level loop.  On the
# doubling map at n = 1, 1280 points, it took 0.71x (even grid) and 0.88x
# (random points) the argmax loop's time at a mean closed ball of 8 points,
# and crossed it at a mean of 11 (even) and 9 (random).
_LEVEL_BALL_CAP = 8
# The first part of every relation: no pairs, in the relation's dtypes.
_NO_PAIRS = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))


class Estimator(IntEnum):
    LOWER_COVER = 1   # infimum weights over minimal subcovers
    SPANNING = 2      # minimal weighted spanning sets
    SEPARATED = 3     # maximal weighted separated sets
    UPPER_COVER = 4   # supremum weights over minimal subcovers


class GrowthSample:
    def __init__(self, estimator: int, n: int, scale: float, log_value: float, exact: bool,
                 note: str = ""):
        self.estimator, self.n, self.scale = estimator, n, scale
        self.log_value, self.exact, self.note = log_value, exact, note

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is GrowthSample else NotImplemented

    def __hash__(self) -> int:
        return hash((self.estimator, self.n, self.scale, self.log_value, self.exact, self.note))


class EmptyInstanceError(ValueError):
    pass


class InstanceTooLargeError(ValueError):
    pass


class SeparationInstance:
    """Candidates with weights w_i = phi_n(x_i) at one (n, eps); the instances
    of one ``make_families`` family share one walk for their relations."""

    def __init__(self, system: System, n: int, eps: float, points: Sequence[Point],
                 weights: np.ndarray):
        if len(points) == 0:
            raise EmptyInstanceError("no candidates after filtering")
        if not eps > 0:  # NaN included
            raise ValueError("eps must be positive")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(points),):
            raise ValueError("need one weight per candidate")
        self.system, self.n, self.eps, self.points, self.weights = system, n, eps, points, weights
        self._relations: _Relations | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Bowen relation of the candidates at (n, eps): pairs i < j with d_n <= eps."""
        if self._relations is None:
            self._relations = _Relations(self.system, self.points, [(self.n, self.eps)])
        return self._relations[self.n, self.eps]


class _Relations:
    """The Bowen relations of one point set at a family's (n, eps) requests,
    from one ``bowen_relations`` walk on first use.  Where their pairs
    together pass ARRAY_BUDGET_BYTES, each request walks alone when used,
    and only the relation in use is held, so a family holds no more pairs
    than the budget allows one relation."""

    def __init__(self, system: System, points: Sequence[Point], requests: list):
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


def make_families(
    families: Sequence[tuple[System, Sequence[Point], Sequence[tuple[int, float]],
                             Sequence[Potential | None]]],
) -> list[list[list[SeparationInstance]]]:
    """Per family (system, points, requests, potentials), per potential, one
    instance per (n, eps) request on the points.

    Each point set is stepped once per base system, as far as its families
    and weights read (``systems.with_orbit``), and its instances' points
    carry that orbit.  Each potential's weights come from one
    ``eval_arrays`` pass over the requested n (None weighs zero).  Families
    that ``_stacks`` and whose pairs cannot pass ARRAY_BUDGET_BYTES get
    their relations here, from one ``_stacked`` call; any other family walks
    on first use.
    """
    families = [(system, points, list(requests), list(potentials))
                for system, points, requests, potentials in families]
    steps: dict = {}  # (id(points), base system) -> [points, steps of the base]
    for system, points, requests, _ in families:
        base, k = power_base(system)
        held = steps.setdefault((id(points), base), [points, 0])
        held[1] = max([held[1]] + [n * k for n, _ in requests])
    carried = {key: with_orbit(key[1], n, points) for key, (points, n) in steps.items()}
    out, jobs, filled = [], [], []
    for system, points, requests, potentials in families:
        points = carried[id(points), power_base(system)[0]]
        relations = _Relations(system, points, requests)
        ns = [n for n, _ in requests]
        out.append([])
        for pot in potentials:
            weights = [np.zeros(len(points)) for _ in ns] if pot is None else pot.eval_arrays(ns, points)
            out[-1].append([SeparationInstance(system, n, eps, points, w)
                            for (n, eps), w in zip(requests, weights)])
            for inst in out[-1][-1]:
                inst._relations = relations
        if not potentials or not isinstance(points, OrbitPoints) or min(ns, default=0) < 1:
            continue
        orbit = orbit_array(system, max(ns), points)
        m = len(points)
        try:  # a family whose pairs could pass the budget walks, as it falls back there
            _check_array_budget(len(relations.requests) * m * (m - 1) // 2, 2, "")
        except BudgetExceededError:
            continue
        if _stacks(orbit):
            jobs.append((system, orbit, relations.requests))
            filled.append(relations)
    for relations, found in zip(filled, _stacked(jobs)):
        relations.found = dict(zip(relations.requests, found))
    return out


def make_instance(
    system: System,
    n: int,
    eps: float,
    points: Sequence[Point],
    potential: Potential | None = None,
) -> SeparationInstance:
    """The one-request, one-potential case of ``make_families``."""
    return make_families([(system, points, [(n, eps)], [potential])])[0][0][0]


def bowen_relations(system: System, points: Sequence[Point],
                    requests: Sequence[tuple[int, float]]) -> list[tuple]:
    """Per (n, eps) request, the pairs i < j with d_n(x_i, x_j) <= eps, as
    arrays (i, j, d) (int32, int32, float64) sorted by (i, j).

    Each d is ``system.bowen_metric(n, x_i, x_j)`` bit for bit.  Points with
    an array form share one orbit, at the largest n.  A triangle that fits
    one block over that whole time range (n m^2 <= _BLOCK_ENTRIES) takes the
    stacked path, as a batch of one (``_stacked``).  Any other takes one
    walk through time, the sweep (``_Walk.sweep``): only the pairs whose
    ``System.sweep_key`` keys lie within reach at t = 1 are stepped, from
    t = 0, each keeping its running max of ``system.metric_array``, and a
    request's relation is read off at its n; no time chunk runs past a
    requested n.  After each chunk, ending after step t, a pair drops out
    once its running max passes the reach, the largest min(eps,
    system.bowen_radius(n - t + 1, eps)) over the requests with n >= t; that
    is exact, as by the radius's contract a dropped pair has d_n > eps for
    each of them.  Points with no array form go through the filter at eps
    on ``bowen_metric`` values, pair by pair.
    Raises ValueError for n < 1 or an eps that is not positive (NaN
    included), and BudgetExceededError before the first step where a walk
    would step more pairs from t = 0 (the sweep's window pairs, or every
    pair with no array form) than ARRAY_BUDGET_BYTES keeps at 16 bytes a
    pair, and before the pairs kept for all the requests together pass it.
    Repeated requests share one result.
    """
    requests = list(requests)
    for n, eps in requests:
        if n < 1:
            raise ValueError("bowen_relations needs n >= 1")
        if not eps > 0:
            raise ValueError("eps must be positive")
    if not requests:
        return []
    distinct = list(dict.fromkeys(requests))
    try:
        orbit = orbit_array(system, max(n for n, _ in distinct), points)
    except NotImplementedError:
        orbit = None
    if _stacks(orbit):
        [found] = _stacked([(system, orbit, distinct)])
    else:
        found = _Walk(system, points, orbit, distinct).relations()
    found = dict(zip(distinct, found))
    return [found[r] for r in requests]


def _stacks(orbit: np.ndarray | None) -> bool:
    """Whether an (n, m, ...) orbit's triangle over its whole time range fits one block."""
    return orbit is not None and 0 < len(orbit) * orbit.shape[1] ** 2 <= _BLOCK_ENTRIES


def _stacked(jobs: list) -> list[list]:
    """Per job (system, orbit, distinct requests), with an orbit that
    ``_stacks``, its relations at the requests; raises BudgetExceededError
    where a job's pairs together pass ARRAY_BUDGET_BYTES.
    Jobs whose base systems share a type, and so a metric, go in batches of
    K point sets with K M^2 <= _BLOCK_ENTRIES, M the most points in a batch.
    """
    out: list = [None] * len(jobs)
    groups: dict = {}
    for x, (system, orbit, _) in enumerate(jobs):
        key = (type(power_base(system)[0]).metric_array, orbit.shape[2:], orbit.dtype)
        groups.setdefault(key, []).append(x)
    for xs in groups.values():
        batch, width = [], 0
        for x in xs:
            m = jobs[x][1].shape[1]
            if batch and (len(batch) + 1) * max(width, m) ** 2 > _BLOCK_ENTRIES:
                _stack_batch(jobs, batch, out)
                batch, width = [], 0
            batch.append(x)
            width = max(width, m)
        _stack_batch(jobs, batch, out)
    return out


def _stack_batch(jobs: list, xs: list[int], out: list) -> None:
    """The relations of the jobs xs from one (T, K, M, ...) orbit.

    A point set's missing points are copies of its point 0, and its steps
    past its own largest n copies of its last step; neither is read.  Each
    time chunk of at most _BLOCK_ENTRIES entries is one metric call, whose
    running max over time carries into the next; each request reads it
    after step n of its own set.  A request's pairs are the i < j < m with
    d <= eps, found for every request at once, sorted by (request, i, j).
    """
    orbits = [jobs[x][1] for x in xs]
    ns, ms = np.array([o.shape[:2] for o in orbits]).T
    K, M, T = len(xs), int(ms.max()), int(ns.max())
    tail = orbits[0].shape[2:]
    starts = np.cumsum(ns * ms) - ns * ms
    steps = np.minimum(np.arange(T)[:, None], ns - 1)  # (T, K)
    cols = np.arange(M)
    own = np.where(cols < ms[:, None], cols, 0)  # (K, M)
    flat = np.concatenate([o.reshape((-1,) + tail) for o in orbits])
    stack = flat[starts[:, None] + steps[:, :, None] * ms[:, None] + own]
    reqs = [(k, n, eps) for k, x in enumerate(xs) for n, eps in jobs[x][2]]
    req_k, req_n, eps = (np.array(v) for v in zip(*reqs))
    size, eps = ms[req_k], eps[:, None, None]
    dist = np.empty((len(reqs), M, M))
    metric = jobs[xs[0]][0].metric_array
    chunk = max(1, _BLOCK_ENTRIES // (K * M * M))
    for t in range(0, T, chunk):
        run = np.maximum.accumulate(metric(stack[t:t + chunk, :, :, None],
                                           stack[t:t + chunk, :, None]), axis=0)
        if t:
            np.maximum(run, top, out=run)
        top = run[-1]
        (read,) = np.nonzero((t < req_n) & (req_n <= t + chunk))
        dist[read] = run[req_n[read] - 1 - t, req_k[read]]
    valid = (cols[:, None] < cols) & (cols < size[:, None, None])  # i < j < m
    q, i, j = np.nonzero((dist <= eps) & valid)
    i, j, d = i.astype(np.int32), j.astype(np.int32), dist[q, i, j]
    cuts = np.searchsorted(q, np.arange(len(reqs) + 1)).tolist()
    r = 0
    for k, x in enumerate(xs):
        bounds = cuts[r:r + len(jobs[x][2]) + 1]
        _check_array_budget(bounds[-1] - bounds[0], 2, f"Bowen relation of {int(ms[k])} points")
        out[x] = [(i[a:b], j[a:b], d[a:b]) for a, b in zip(bounds, bounds[1:])]
        r += len(bounds) - 1


class _Walk:
    """One pass through time for distinct (n, eps) requests on one point set.

    Each request collects its pairs in ``parts``; ``kept`` counts them over
    all the requests, against the budget as they come (16 bytes a pair:
    int32 i and j, float64 d).  Before the first step, the pairs it would
    step from t = 0 may number no more than that budget keeps
    (``check_stepped``).
    """

    def __init__(self, system: System, points: Sequence[Point], orbit: np.ndarray | None,
                 requests: list):
        self.system, self.points, self.orbit, self.requests = system, points, orbit, requests
        self.stops = sorted({n for n, _ in requests})
        self.parts = [[_NO_PAIRS] for _ in requests]
        self.kept = 0
        self.order = None

    def relations(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if self.orbit is None:
            self.pairwise()
        else:
            self.sweep()
        out = []
        for parts in self.parts:
            # one part, as from one run of rows (every small orbit), needs no copy
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

    def check_stepped(self, pairs: int) -> None:
        # a bound on work, not memory: the pairs are stepped in blocks, but
        # no more of them than the kept-pair budget could hold
        if pairs > (budget := systems.ARRAY_BUDGET_BYTES // 16):
            raise BudgetExceededError(f"Bowen walk would step {pairs} pairs of "
                                      f"{len(self.points)} points, over the {budget}-pair budget")

    def keep(self, r: int, i: np.ndarray, j: np.ndarray, d: np.ndarray) -> None:
        """Appends the pairs to request r's parts after the budget check."""
        _check_array_budget(self.kept + len(i), 2, f"Bowen relation of {len(self.points)} points")
        self.parts[r].append((i.astype(np.int32), j.astype(np.int32), d))
        self.kept += len(i)

    def walk(self, i: np.ndarray, j: np.ndarray) -> None:
        """Steps the pairs (i, j) from t = 0 through the last requested n, as
        many steps per call as fit in _BLOCK_ENTRIES and none past a
        requested n; after each call it drops the pairs past the reach and
        reads off each request whose n it has reached."""
        stops, orbit = self.stops, self.orbit
        d, t = np.zeros(len(i)), 0
        while len(i) and t < stops[-1]:
            k = min(max(1, _BLOCK_ENTRIES // len(i)), stops[bisect.bisect_right(stops, t)] - t)
            step = self.system.metric_array(orbit[t:t + k, i], orbit[t:t + k, j])
            d = np.maximum(d, step.max(axis=0))
            t += k
            reach = self.reach(t)
            close = d <= reach
            i, j, d = i[close], j[close], d[close]
            for r, (n, eps) in enumerate(self.requests):
                if n == t and eps >= reach:  # every pair is within eps
                    self.keep(r, i, j, d)
                elif n == t:
                    close = d <= eps
                    self.keep(r, i[close], j[close], d[close])

    def pairwise(self) -> None:
        """The relations of points with no array form, from ``bowen_metric``
        one row at a time, every pair stepped."""
        system, points, m = self.system, self.points, len(self.points)
        self.check_stepped(m * (m - 1) // 2)
        for lo in range(m):
            for r, (n, eps) in enumerate(self.requests):
                d = np.array([system.bowen_metric(n, points[lo], q) for q in points[lo + 1:]],
                             dtype=float)
                (c,) = np.nonzero(d <= eps)
                self.keep(r, np.full(len(c), lo), c + lo + 1, d[c])

    def sweep(self) -> None:
        """The relations by sort and sweep on ``system.sweep_key``.

        By the radius's contract at t = 1 a pair of a relation has d_0 <=
        d_1 <= reach(1), so by the key's contract its keys lie within
        reach(1).  Points sorted by key, a point's candidates are a forward
        run of the keys past its own and, on the circle, a wrap run from the
        far end; no window (eps = inf, a reach of half the period or more,
        or the default key) counts every pair, and those go in the points'
        own order, with no permutation or sort.  The candidates go, in runs
        of whole rows of at most _BLOCK_ENTRIES pairs (or one row), through
        ``walk``, once all of them together pass ``check_stepped``.
        """
        orbit, m = self.orbit, len(self.points)
        key, period = self.system.sweep_key(orbit[0])
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
        pairs = int(count.sum())
        self.check_stepped(pairs)
        if pairs == m * (m - 1) // 2:  # every pair, so in the points' own order
            order, hi, wrap, count = None, np.full(m, m), np.full(m, m), m - rows - 1
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
            self.walk(p, q)
            a = b
        self.order = order


def bowen_distance_matrix(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    """Symmetric matrix of ``system.bowen_metric(n, x, y)`` over the points, bit for bit.

    The eps = inf case of ``bowen_relations``, written into a matrix; checks
    the matrix's 8·m^2 bytes against ARRAY_BUDGET_BYTES before any work.
    """
    m = len(points)
    _check_array_budget(m, m, f"Bowen distance matrix for {m} points")
    [(i, j, d)] = bowen_relations(system, points, [(n, math.inf)])
    out = np.zeros((m, m))
    out[i, j] = out[j, i] = d
    return out


def _greedy_setup(instances: Sequence[SeparationInstance], separated: bool) -> tuple:
    """(starts, indptr, nbrs, order, weights) of a batch, in one array pass.

    Points are numbered across the batch, instance k's from starts[k].  For
    point p, nbrs[indptr[p]:indptr[p + 1]] lists its neighbours at
    d_n <= eps (separated), or at d_n < eps and then itself, its closed ball
    (spanning).  order lists each instance's points, instance by instance,
    in the stable order of their weights, descending (separated) or
    ascending (spanning).
    """
    relations = [inst.pairs() for inst in instances]
    sizes = [len(inst.weights) for inst in instances]  # one weight per candidate
    counts = [len(r[0]) for r in relations]
    starts = np.array([0, *itertools.accumulate(sizes)][:-1], dtype=relations[0][0].dtype)
    if len(instances) == 1:  # numbered in its instance already: nothing to copy or shift
        [(i, j, d)] = relations
        weights, eps, keys = instances[0].weights, instances[0].eps, ()
    else:
        base = starts.repeat(counts)
        i, j, d = (np.concatenate(col) for col in zip(*relations))
        i, j = i + base, j + base
        weights = np.concatenate([inst.weights for inst in instances])
        eps = np.array([inst.eps for inst in instances]).repeat(counts)
        keys = (starts.repeat(sizes),)  # by instance, as each point's instance start
    order = np.lexsort((-weights if separated else weights, *keys))
    own = []
    if not separated:
        near = d < eps
        i, j = i[near], j[near]
        own = [np.arange(len(weights), dtype=i.dtype)]
    src, dst = np.concatenate([i, j, *own]), np.concatenate([j, i, *own])
    indptr = np.zeros(len(weights) + 1, dtype=np.intp)
    np.bincount(src, minlength=len(weights)).cumsum(out=indptr[1:])
    return starts, indptr, dst[src.argsort(kind="stable")], order, weights


def _greedy_picks(instances: Sequence[SeparationInstance],
                  separated: bool) -> tuple[list[list[int]], np.ndarray]:
    """(picks, weights): per instance its greedy picks in pick order,
    numbered across the batch, and the batch's weights.

    ``_greedy_setup`` sets the batch up, and then only the picks run per
    instance, on its slice.  Separated takes the candidates by decreasing
    weight, ties by lower index, keeping each that no kept one is within
    eps of; spanning is ``_greedy_spanning_picks``, on the slice numbered
    in the instance.
    """
    starts, indptr, nbrs, order, weights = _greedy_setup(instances, separated)
    cuts, picks = [*starts.tolist(), len(order)], []
    if separated:
        bounds, order, blocked = indptr.tolist(), order.tolist(), [False] * len(order)
        for s, e in zip(cuts, cuts[1:]):
            kept: list[int] = []
            for v in order[s:e]:
                if not blocked[v]:
                    kept.append(v)
                    for u in nbrs[bounds[v]:bounds[v + 1]].tolist():
                        blocked[u] = True
            picks.append(kept)
        return picks, weights
    for s, e in zip(cuts, cuts[1:]):
        lo, hi = indptr[s], indptr[e]
        if s:
            chosen = _greedy_spanning_picks(indptr[s:e + 1] - lo, nbrs[lo:hi] - s, order[s:e] - s)
            chosen = [v + s for v in chosen]
        else:  # the first instance's slice is numbered in it already
            chosen = _greedy_spanning_picks(indptr[:e + 1], nbrs[:hi], order[:e])
        picks.append(chosen)
    return picks, weights


def greedy_optima(instances: Sequence[SeparationInstance], estimator: Estimator) -> list[float]:
    """Per instance, the log of its greedy separated (a lower bound on the
    optimum) or spanning (an upper bound) weight sum.

    The instances go in consecutive batches whose points, and whose pairs,
    together number at most _BLOCK_ENTRIES, an instance past that in a batch
    of its own, so that a batch's set-up holds no more than one instance's
    would past that size.  Each batch is set up once and picked per
    instance (``_greedy_picks``), and one ``logsumexp_segments`` gives its
    values, each the float of a ``logsumexp`` call on the instance's picked
    weights alone.
    """
    separated = estimator == Estimator.SEPARATED
    batches, points, pairs = [], math.inf, 0
    for inst in instances:
        m, e = inst.size, len(inst.pairs()[0])
        if points + m > _BLOCK_ENTRIES or pairs + e > _BLOCK_ENTRIES:
            batches.append([])
            points = pairs = 0
        batches[-1].append(inst)
        points, pairs = points + m, pairs + e
    out: list[float] = []
    for batch in batches:
        picks, weights = _greedy_picks(batch, separated)
        lengths = [len(p) for p in picks]
        flat = np.fromiter(itertools.chain.from_iterable(picks), dtype=np.intp, count=sum(lengths))
        out += logsumexp_segments(weights[flat], lengths)
    return out


def greedy_separated(inst: SeparationInstance) -> list:
    """Maximal (n, eps)-separated subset of the candidates, greedily grown.

    Candidates are taken by decreasing weight, ties by lower index.
    """
    [kept], _ = _greedy_picks([inst], separated=True)
    return [inst.points[i] for i in kept]


def separated_lower_bound(inst: SeparationInstance, note: str = "") -> GrowthSample:
    """Certified lower bound for the separated-set optimum (estimator 3):
    ``greedy_optima`` on a batch of one."""
    [val] = greedy_optima([inst], Estimator.SEPARATED)
    return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=False, note=note)


def _greedy_spanning_picks(indptr: np.ndarray, balls: np.ndarray, order: np.ndarray) -> list[int]:
    """One instance's spanning picks, from its closed-ball CSR and the
    stable ascending order of its weights: the level loop where every ball
    holds at most _LEVEL_BALL_CAP points, the argmax loop otherwise."""
    # Both loops pick the point of most gain, the number of uncovered points
    # in its closed ball (within eps of it, itself included), then of lower
    # weight, then of lower index: the earliest in the stable weight order.
    if int(np.diff(indptr).max()) <= _LEVEL_BALL_CAP:
        return _greedy_spanning_levels(indptr, balls, order)
    return _greedy_spanning_argmax(indptr, balls, order)


def _greedy_spanning_levels(indptr: np.ndarray, balls: np.ndarray, order: np.ndarray) -> list[int]:
    # Gains only fall, so at the top level every gain is at most the level,
    # and a point met in the weight order with gain equal to the level is the
    # argmax pick; one walk leaves every gain below the level.  The relation
    # is symmetric, so a newly covered point lowers by one the gain of each
    # point of its own closed ball.
    bounds, balls, order = indptr.tolist(), balls.tolist(), order.tolist()
    gain = np.diff(indptr).tolist()
    uncovered = bytearray(b"\x01") * len(order)
    chosen: list[int] = []
    for level in range(max(gain), 0, -1):
        for v in order:
            if gain[v] == level:
                chosen.append(v)
                for u in balls[bounds[v]:bounds[v + 1]]:
                    if uncovered[u]:
                        uncovered[u] = 0
                        for w in balls[bounds[u]:bounds[u + 1]]:
                            gain[w] -= 1
    return chosen


def _greedy_spanning_argmax(indptr: np.ndarray, balls: np.ndarray, order: np.ndarray) -> list[int]:
    # key[i] = gain[i] * m + (m - 1 - rank[i]), where rank[i] is the place of
    # i in the weight order, so the top key is the pick.  A newly covered
    # point lowers by m the key of each point of its own closed ball: one
    # subtract.at over the balls of the newly covered points counts a point
    # in several balls once per ball.
    m = len(order)
    bounds = indptr.tolist()
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    key = np.diff(indptr) * m + (m - 1 - rank)
    uncovered = bytearray(b"\x01") * m
    chosen: list[int] = []
    while key[best := int(key.argmax())] >= m:  # below m every gain is 0
        chosen.append(best)
        newly = [v for v in balls[bounds[best]:bounds[best + 1]].tolist() if uncovered[v]]
        for v in newly:
            uncovered[v] = 0
        np.subtract.at(key, np.concatenate([balls[bounds[v]:bounds[v + 1]] for v in newly]), m)
    return chosen


def spanning_upper_bound(inst: SeparationInstance, note: str = "") -> GrowthSample:
    """Greedy weighted dominating set of the strict-eps graph (estimator 2):
    ``greedy_optima`` on a batch of one.

    Picks the candidate covering the most uncovered points, ties broken by
    lower weight then lower index.  The selected family spans every
    candidate, so its weight sum upper-bounds the spanning optimum.
    """
    [val] = greedy_optima([inst], Estimator.SPANNING)
    return GrowthSample(Estimator.SPANNING, inst.n, inst.eps, val, exact=False, note=note)


def _check_cap(sizes: list[int]) -> None:
    for m in sizes:
        if m > ORACLE_CAP:
            raise InstanceTooLargeError(f"{m} candidates exceed the exact-oracle cap {ORACLE_CAP}")


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


def _min_cover(uncovered: int, masks: list[int], costs: list[float],
               covering: list[list[int]], memo: dict[int, float]) -> float:
    """Least cost to cover the nonzero ``uncovered``, branching on the sets
    covering[e] (indices into ``masks`` and ``costs``) that cover its lowest
    element e; each branch looks its state up in the memo before it recurses."""
    out = math.inf
    for u in covering[(uncovered & -uncovered).bit_length() - 1]:
        rest = 0.0
        if left := uncovered & ~masks[u]:
            rest = memo.get(left)
            if rest is None:
                rest = _min_cover(left, masks, costs, covering, memo)
        total = costs[u] + rest
        if total < out:  # min(out, total)
            out = total
    memo[uncovered] = out
    return out


def unshifted_log(wmax: float, total: float) -> float:
    """wmax + log(total), the log of a sum of weights shifted by their largest,
    wmax: -inf where the total is 0, as when points of weight -inf alone make
    the optimum."""
    return wmax + math.log(total) if total > 0 else -math.inf


def _stacked_balls(instances: Sequence[SeparationInstance], sizes: list[int],
                   relations: list, strict: bool) -> tuple:
    """(tops, masks, costs, bounds, balls) of instances of at most ORACLE_CAP
    points, in one array pass; bounds and balls are arrays, the rest lists.

    Points are numbered across the batch.  For point p of instance k,
    balls[bounds[p]:bounds[p + 1]] is its closed ball at d_n < eps (strict)
    or d_n <= eps, as ascending indices in k, and masks[p] its bits.
    costs[p] is exp(w_p - tops[k]), tops[k] being k's largest weight, or
    0.0 where every weight is -inf, so that no -inf - -inf is taken.
    """
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    counts = [len(i) for i, _, _ in relations]
    i, j, d = (np.concatenate(col) for col in zip(*relations))
    base = np.repeat(starts, counts)
    if strict:
        near = d < np.repeat([inst.eps for inst in instances], counts)
        i, j, base = i[near], j[near], base[near]
    own = np.arange(int(sizes.sum()))
    # one key per ball entry, its point's number times ORACLE_CAP plus the
    # member's index: sorted, by ball, then ascending in it
    key = np.concatenate([(i + base) * ORACLE_CAP + j, (j + base) * ORACLE_CAP + i,
                          own * ORACLE_CAP + own - np.repeat(starts, sizes)])
    key.sort()
    bounds = np.searchsorted(key, np.arange(len(own) + 1) * ORACLE_CAP)
    local = key % ORACLE_CAP
    masks = np.bitwise_or.reduceat(np.int64(1) << local, bounds[:-1])
    weights = np.concatenate([inst.weights for inst in instances])
    tops = np.maximum.reduceat(weights, starts)
    tops[tops == -np.inf] = 0.0
    costs = np.exp(weights - np.repeat(tops, sizes))
    return tops.tolist(), masks.tolist(), costs.tolist(), bounds, local


def exact_optima(instances: Sequence[SeparationInstance], estimator: Estimator) -> list[float]:
    """Per instance, the log of its exact separated or spanning optimum.

    A separated instance with no pairs keeps every candidate: its value is
    the logsumexp of its weights, at any size.  Every other instance is
    searched and raises InstanceTooLargeError past ORACLE_CAP candidates,
    before any search runs (a spanning one before its relation is read).
    One ``_stacked_balls`` pass sets the batch up; the separated search
    keeps or skips the lowest candidate, the spanning search branches on
    the balls that hold the lowest uncovered point, the sets that cover it.
    """
    separated = estimator == Estimator.SEPARATED
    sizes = [len(inst.weights) for inst in instances]  # one weight per candidate
    if not separated:
        _check_cap(sizes)
    relations = [inst.pairs() for inst in instances]
    keeps_all = [separated and not len(i) for i, _, _ in relations]
    searched = [x for x, keep in enumerate(keeps_all) if not keep]
    sizes = [sizes[x] for x in searched]
    if separated:
        _check_cap(sizes)
    out = [logsumexp(inst.weights) if keep else math.nan
           for inst, keep in zip(instances, keeps_all)]
    if not searched:
        return out
    tops, masks, costs, bounds, balls = _stacked_balls(
        [instances[x] for x in searched], sizes, [relations[x] for x in searched], not separated)
    if not separated:  # each point's ball as a list
        members, cuts = balls.tolist(), bounds.tolist()
        balls = [members[b:e] for b, e in zip(cuts, cuts[1:])]
    a = 0
    for x, m, top in zip(searched, sizes, tops):
        b = a + m
        if separated:
            total = _best_independent((1 << m) - 1, masks[a:b], costs[a:b], {})
        else:
            total = _min_cover((1 << m) - 1, masks[a:b], costs[a:b], balls[a:b], {})
        out[x] = unshifted_log(top, total)
        a = b
    return out


def exact_separated_value(inst: SeparationInstance) -> GrowthSample:
    """Exact separated-set optimum by weighted independent-set search."""
    [val] = exact_optima([inst], Estimator.SEPARATED)
    return GrowthSample(Estimator.SEPARATED, inst.n, inst.eps, val, exact=True)


def exact_spanning_value(inst: SeparationInstance) -> GrowthSample:
    """Exact spanning-set optimum by weighted set-cover search."""
    [val] = exact_optima([inst], Estimator.SPANNING)
    return GrowthSample(Estimator.SPANNING, inst.n, inst.eps, val, exact=True)


def exact_min_cover(masks: list[int], costs: np.ndarray, full: int | None = None) -> float:
    """Minimum total cost over subsets whose cover masks reach ``full``, or
    inf where some element of ``full`` lies in no mask.

    ``full`` defaults to one bit per mask, which matches the square case
    where every candidate point contributes its own cover element.  Bits
    of a mask outside ``full`` are ignored.
    """
    if full is None:
        full = (1 << len(masks)) - 1
    if not full:
        return 0.0
    covering: list[list[int]] = [[] for _ in range(full.bit_length())]
    for u, mask in enumerate(masks):
        mask &= full
        while mask:
            low = mask & -mask
            covering[low.bit_length() - 1].append(u)
            mask ^= low
    return _min_cover(full, masks, np.asarray(costs, dtype=float).tolist(), covering, {})


def count_spanning_separated(
    system: System,
    n: int,
    eps: float,
    points: Sequence[Point],
) -> tuple[int, int]:
    """Exact (min spanning count, max separated count): the zero-weight optima."""
    inst = make_instance(system, n, eps, points)
    [span] = exact_optima([inst], Estimator.SPANNING)
    [sep] = exact_optima([inst], Estimator.SEPARATED)
    return round(math.exp(span)), round(math.exp(sep))
