"""Growth tables and the critical-exponent (dimension) extraction.

The s-weighted pressure of a growth table is the limsup of
log_value(n) / n^s; at the critical exponent s0 that quantity jumps from
+inf to 0, so s0 is read off either by bracketing the jump over an s grid
or by fitting the power law log_value ~ c n^s0 directly.

There is one path from a (system, potential) pair to s0.
:func:`growth_tables` builds one table per (estimator, scale): exact word
sums at dyadic scale indices on shifts, greedy separated and spanning bounds
on candidate grids otherwise.  :func:`pressure_curve` (or
:func:`pressure_curves`, one per estimator), :func:`largest_dimension` and
:func:`classify_jump` read s0 off those tables.  Each table makes its
series, its trailing window and the window's log-log fit once, and all three
readers share them: the curve's window statistics and trend, and the
estimate's fit.  A pressure curve is one array pass per table over the whole
s grid, then the first largest table per s.  ``pdim estimate`` and ``pdim
sweep`` take this path, and :func:`entropy_dimension` is the zero potential
through it with the separated estimator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .partition import Estimator, GrowthSample, greedy_optima, make_families
from .potentials import Potential, zero_potential
from .symbolic import exact_growth_table
from .systems import ShiftSystem, System

# The s grid used when a caller gives none: 0.2, 0.4, ..., 2.0.
DEFAULT_S_GRID = tuple(round(0.2 * i, 2) for i in range(1, 11))
# classify_jump: a statistic at least JUMP_BIG in size diverges, one at most
# JUMP_SMALL vanishes; a fitted exponent at least JUMP_TREND_MARGIN above
# (below) s marks growth (decay) when the magnitudes do not decide.
JUMP_BIG = 1e3
JUMP_SMALL = 1e-3
JUMP_TREND_MARGIN = 0.05


class GrowthTable:
    """Samples of one growth series.  Its series, windows and fits are made once
    and kept for every later reader, so the samples must not change once read."""

    def __init__(self, samples: list[GrowthSample]):
        self.samples = samples
        self._series, self._windows, self._fits = None, {}, {}

    def filter(self, estimator: int | None = None, scale: float | None = None) -> "GrowthTable":
        out = [
            s
            for s in self.samples
            if (estimator is None or s.estimator == estimator)
            and (scale is None or s.scale == scale)
        ]
        return GrowthTable(out)

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, log_value) arrays, read-only; requires a single homogeneous series."""
        if self._series is None:
            if not self.samples:
                raise ValueError("empty growth table")
            keys = {(s.estimator, s.scale) for s in self.samples}
            if len(keys) != 1:
                raise ValueError(f"table mixes {len(keys)} (estimator, scale) series; "
                                 "filter first")
            ordered = sorted(self.samples, key=lambda s: s.n)
            ns = np.array([s.n for s in ordered], dtype=float)
            if np.any(np.diff(ns) <= 0):
                raise ValueError("sample indices n must be strictly increasing")
            vals = np.array([s.log_value for s in ordered])
            ns.flags.writeable = vals.flags.writeable = False
            self._series = ns, vals
        return self._series

    def window(self, frac: float) -> tuple[np.ndarray, np.ndarray]:
        """The trailing ``frac`` of the series."""
        if frac not in self._windows:
            ns, vals = self.series()
            if not 0 < frac <= 1:
                raise ValueError("window fraction must lie in (0, 1]")
            count = max(1, int(math.ceil(frac * len(ns))))
            self._windows[frac] = ns[-count:], vals[-count:]
        return self._windows[frac]

    def fit(self, frac: float) -> tuple[float, float]:
        """Exponent sigma of |log_value| ~ c n^sigma over the nonzero values of
        the ``frac`` window, and its stderr: the least-squares slope of
        log|log_value| on log n."""
        if frac not in self._fits:
            wn, wv = self.window(frac)
            mask = np.abs(wv) > 0
            self._fits[frac] = _least_squares(np.log(wn[mask]), np.log(np.abs(wv[mask])))
        return self._fits[frac]


def growth_tables(
    system: System,
    potential: Potential,
    n_range: Sequence[int],
    mode: str,
    scales: Sequence[float],
    estimators: Sequence[int],
    budget: int,
) -> list[GrowthTable]:
    """Spanning (2) and separated (3) growth tables, one per (estimator, scale).

    ``mode`` ``"k"`` reads ``scales`` as dyadic scale indices and takes the
    exact word sums of one :func:`exact_growth_table` call; it needs a ShiftSystem
    and a potential with a shift profile.  ``mode`` ``"eps"`` reads them as
    radii and takes the greedy bounds on candidate grids of at most
    ``budget`` points; samples from an uncertified grid carry the note
    ``"uncertified-candidates"``.  Consecutive n whose grids are equal share
    one instance family (``make_families``): one orbit, one Bowen walk and
    one weight pass, each sample keeping its own grid's note.  Each family's
    greedy bounds are set up once per estimator and picked per instance
    (``greedy_optima``); a family whose relations pass the pair budget
    together walks one request at a time, so it goes one instance at a time,
    with both estimators.  Tables come in the order their first sample is
    made.
    """
    samples: list[GrowthSample] = []
    if mode == "k":
        samples = [s for s in exact_growth_table(system, potential, scales, n_range)
                   if s.estimator in estimators]
    elif mode == "eps":
        ests = [Estimator(e) for e in dict.fromkeys(estimators)
                if e in (Estimator.SPANNING, Estimator.SEPARATED)]  # the only greedy bounds
        for eps in scales:
            for points, run in _grid_runs(system, n_range, eps, budget):
                requests = [(n, eps) for n, _ in run]
                [[insts]] = make_families([(system, points, requests, [potential])])
                insts[0].pairs()  # the family's walk: all its requests, or the first alone
                alone = insts[0]._relations.requests is None  # past the pair budget
                # batches of indices: no instance, nor its relation, outlives
                # its family into the next run's walk
                for xs in [[x] for x in range(len(insts))] if alone else [range(len(insts))]:
                    values = [greedy_optima([insts[x] for x in xs], e) for e in ests]
                    for x, row in zip(xs, zip(*values)):
                        samples.extend(GrowthSample(e, insts[x].n, eps, v, exact=False,
                                                    note=run[x][1]) for e, v in zip(ests, row))
    else:
        raise ValueError(f"scale mode must be 'k' or 'eps', got {mode!r}")
    groups: dict[tuple, list[GrowthSample]] = {}
    for s in samples:
        groups.setdefault((s.estimator, s.scale), []).append(s)
    return [GrowthTable(v) for v in groups.values()]


def _grid_runs(system: System, n_range: Sequence[int], eps: float, budget: int):
    """Runs of consecutive n whose candidate grids are equal, as (points, [(n, note)])."""
    points, run = None, []
    for n in n_range:
        cand = system.candidate_set(n, eps, budget=budget)
        if run and cand.points != points:
            yield points, run
            run = []
        if not run:
            points = cand.points
        run.append((n, "" if cand.certified else "uncertified-candidates"))
    if run:
        yield points, run


def s_pressure(table: GrowthTable, s: float, window_frac: float = 0.5) -> float:
    """Window statistic for limsup log_value / n^s.

    Uses the trailing-window maximum; if the whole window is negative the
    mirrored rule (window minimum) tracks the -inf branch instead.  This is
    :func:`pressure_curve` at the one exponent ``s``.
    """
    return pressure_curve(table, [s], window_frac).values[0]


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope of the least-squares line through (x, y) and its standard error.

    Same steps as ``scipy.stats.linregress``, so the two agree bit for bit:
    NaN for fewer than 2 points or a NaN input, and otherwise stderr 0 for
    exactly 2.
    """
    n = len(x)
    if n < 2:
        return math.nan, math.nan
    # np.cov(x, y, bias=1)'s own steps: its bits, without its argument handling
    xy = np.array([x, y], dtype=float)
    xy -= xy.mean(axis=1)[:, None]
    cov = np.dot(xy, xy.T.conj())
    cov *= np.true_divide(1, n)
    ssxm, ssxym, _, ssym = cov.flat
    slope = float(ssxym / ssxm)
    if n == 2:
        return slope, math.nan if np.isnan(x).any() or np.isnan(y).any() else 0.0
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return slope, float(np.sqrt((1 - r**2) * ssym / ssxm / (n - 2)))


class PressureCurve:
    def __init__(self, s_grid: tuple[float, ...], values: tuple[float, ...],
                 trends: tuple[float | None, ...], estimator: int | None = None):
        self.s_grid, self.values, self.trends, self.estimator = s_grid, values, trends, estimator


def pressure_curve(
    tables: GrowthTable | Sequence[GrowthTable],
    s_grid: Sequence[float],
    window_frac: float = 0.5,
) -> PressureCurve:
    """Pressure statistics over an s grid, maximized over the scale ladder.

    The vanishing scale limit is monotone for these estimators, so the max
    over provided scales realizes it; each s also records the growth trend
    (power-law exponent minus s) of the table achieving the max.
    """
    if isinstance(tables, GrowthTable):
        tables = [tables]
    if not tables:
        return PressureCurve(tuple(s_grid), (None,) * len(s_grid), (None,) * len(s_grid))
    windows = [t.window(window_frac) for t in tables]
    # n^s of every window at once, one ``array ** s`` per s as for a single
    # window: a broadcast column of s can reach numpy's vector pow, or miss
    # its sqrt and square paths, and move last bits
    wns = np.concatenate([wn for wn, _ in windows])
    ends = np.cumsum([len(wn) for wn, _ in windows]).tolist()
    powers = np.empty((len(s_grid), len(wns)))
    stats = []
    with np.errstate(over="ignore"):  # n^s past float range: the ratio is 0
        for i, s in enumerate(s_grid):
            powers[i] = wns**s
    for (wn, wv), end in zip(windows, ends):
        ratios = wv / powers[:, end - len(wn):end]
        stats.append(ratios.min(axis=1) if np.all(wv < 0) else ratios.max(axis=1))
    # the first table with the largest statistic, by strict > in table order
    best, pick = stats[0].copy(), np.zeros(len(s_grid), dtype=np.intp)
    for i, stat in enumerate(stats[1:], 1):
        better = stat > best
        best[better] = stat[better]
        pick[better] = i
    values = best.tolist()
    slopes = [t.fit(window_frac) if (np.abs(wv) > 0).sum() >= 4 else None
              for t, (_, wv) in zip(tables, windows)]
    trends = [None if slopes[i] is None else slopes[i][0] - s
              for i, s in zip(pick.tolist(), s_grid)]
    est = None
    ests = {s.estimator for t in tables for s in t.samples}
    if len(ests) == 1:
        est = ests.pop()
    return PressureCurve(tuple(s_grid), tuple(values), tuple(trends), est)


def pressure_curves(
    tables: Sequence[GrowthTable],
    s_grid: Sequence[float],
    window_frac: float,
) -> list[PressureCurve]:
    """One :func:`pressure_curve` per estimator, in estimator order."""
    by_est: dict[int, list[GrowthTable]] = {}
    for t in tables:
        by_est.setdefault(int(t.samples[0].estimator), []).append(t)
    return [pressure_curve(ts, s_grid, window_frac) for _, ts in sorted(by_est.items())]


class JumpClassification:
    def __init__(self, labels: tuple[str, ...], bracket: tuple[float, float], monotone: bool):
        self.labels, self.bracket, self.monotone = labels, bracket, monotone


def classify_jump(curve: PressureCurve) -> JumpClassification:
    """Label each s as diverging / vanishing / indeterminate and bracket the jump.

    Magnitude thresholds alone cannot separate power laws at desk-scale n,
    so a growth-trend test (sign of the fitted exponent minus s) backs them
    up whenever a trend is available.
    """
    labels = []
    for v, t in zip(curve.values, curve.trends):
        a = abs(v)
        if a >= JUMP_BIG or (t is not None and t >= JUMP_TREND_MARGIN):
            labels.append("diverging")
        elif a <= JUMP_SMALL or (t is not None and t <= -JUMP_TREND_MARGIN):
            labels.append("vanishing")
        else:
            labels.append("indeterminate")
    s_lo = 0.0
    s_hi = math.inf
    for s, lab in zip(curve.s_grid, labels):
        if lab == "diverging":
            s_lo = s
    for s, lab in zip(curve.s_grid, labels):
        if lab == "vanishing":
            s_hi = s
            break
    order = {"diverging": 0, "indeterminate": 1, "vanishing": 2}
    ranks = [order[lab] for lab in labels]
    monotone = all(a <= b for a, b in zip(ranks, ranks[1:]))
    return JumpClassification(tuple(labels), (s_lo, s_hi), monotone)


class DimensionEstimate:
    def __init__(self, s0_hat: float, window: tuple[int, int], stderr: float, method: str):
        self.s0_hat, self.window, self.stderr, self.method = s0_hat, window, stderr, method

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is DimensionEstimate else NotImplemented


def dimension_estimate(table: GrowthTable, window_frac: float = 0.5) -> DimensionEstimate:
    """Critical exponent from the power law |log_value| ~ c n^s0.

    A trailing window wholly below -1 is fitted on -log_value, the mirrored
    branch of :func:`s_pressure`.  Any other window not uniformly above 1 is
    classified as bounded growth and gets exponent 0 outright.  A window of
    fewer than 2 samples raises ValueError.
    """
    count = len(table.series()[0])
    if count < 4:
        raise ValueError("need at least 4 samples for a dimension estimate")
    wn, wv = table.window(window_frac)
    if len(wn) < 2:
        raise ValueError(f"window fraction {window_frac!r} leaves 1 of {count} samples "
                         "to fit; need at least 2")
    window = (int(wn[0]), int(wn[-1]))
    if not (wv < -1.0).all() and (wv <= 1.0).any():
        return DimensionEstimate(0.0, window, 0.0, "bounded-growth")
    # every |wv| > 1 here, so the table's one fit is log|wv| on log wn
    slope, err = table.fit(window_frac)
    return DimensionEstimate(max(0.0, slope), window, err if np.isfinite(err) else 0.0,
                             "power-fit")


def largest_dimension(tables: Sequence[GrowthTable],
                      window_frac: float = 0.5) -> DimensionEstimate | None:
    """The estimate with the largest s0 over tables of at least 4 samples."""
    best: DimensionEstimate | None = None
    for t in tables:
        if len(t.samples) < 4:
            continue
        est = dimension_estimate(t, window_frac)
        if best is None or est.s0_hat > best.s0_hat:
            best = est
    return best


def entropy_dimension(
    system: System,
    n_range: Sequence[int],
    scales: Sequence[float],
    s_grid: Sequence[float] = DEFAULT_S_GRID,
    window_frac: float = 0.5,
    budget: int = 4096,
) -> tuple[PressureCurve, DimensionEstimate]:
    """The pressure dimension of the zero potential, from separated samples.

    This is :func:`growth_tables` with the zero potential and estimator 3:
    exact word counts at the dyadic scale indices ``scales`` on shift
    systems, greedy separated sets on candidate grids of at most ``budget``
    points at the scales ``scales`` otherwise.
    """
    mode = "k" if isinstance(system, ShiftSystem) else "eps"
    tables = growth_tables(system, zero_potential(system), list(n_range), mode, scales,
                           [Estimator.SEPARATED], budget)
    curve = pressure_curve(tables, s_grid, window_frac)
    best = largest_dimension(tables, window_frac)
    if best is None:
        raise ValueError("need at least 4 samples for a dimension estimate")
    return curve, best
