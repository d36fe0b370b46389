"""Growth tables and the critical-exponent (dimension) extraction.

The s-weighted pressure of a growth table is the limsup of
log_value(n) / n^s; at the critical exponent s0 that quantity jumps from
+inf to 0, so s0 is read off either by bracketing the jump over an s grid
or by fitting the power law log_value ~ c n^s0 directly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .partition import Estimator, GrowthSample, greedy_separated, make_instance
from .symbolic import deflated_scale, log_word_count
from .systems import ShiftSystem, System


@dataclass
class GrowthTable:
    """Samples of one growth series plus provenance metadata."""

    samples: list[GrowthSample]
    meta: dict = field(default_factory=dict)

    def filter(self, estimator: int | None = None, scale: float | None = None) -> "GrowthTable":
        out = [
            s
            for s in self.samples
            if (estimator is None or s.estimator == estimator)
            and (scale is None or s.scale == scale)
        ]
        return GrowthTable(out, dict(self.meta))

    def scales(self, estimator: int | None = None) -> list[float]:
        seen = []
        for s in self.samples:
            if estimator is not None and s.estimator != estimator:
                continue
            if s.scale not in seen:
                seen.append(s.scale)
        return seen

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, log_value) arrays; requires a single homogeneous series."""
        keys = {(s.estimator, s.scale) for s in self.samples}
        if len(keys) != 1:
            raise ValueError(
                f"table mixes {len(keys)} (estimator, scale) series; filter first"
            )
        ordered = sorted(self.samples, key=lambda s: s.n)
        ns = np.array([s.n for s in ordered], dtype=float)
        if len(ns) == 0:
            raise ValueError("empty growth table")
        if np.any(np.diff(ns) <= 0):
            raise ValueError("sample indices n must be strictly increasing")
        vals = np.array([s.log_value for s in ordered])
        return ns, vals


def _window(ns: np.ndarray, vals: np.ndarray, frac: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0 < frac <= 1:
        raise ValueError("window fraction must lie in (0, 1]")
    count = max(1, int(math.ceil(frac * len(ns))))
    return ns[-count:], vals[-count:]


def _window_stat(wn: np.ndarray, wv: np.ndarray, s: float) -> float:
    ratios = wv / wn**s
    if np.all(wv < 0):
        return float(ratios.min())
    return float(ratios.max())


def s_pressure(table: GrowthTable, s: float, window_frac: float = 0.5) -> float:
    """Window statistic for limsup log_value / n^s.

    Uses the trailing-window maximum; if the whole window is negative the
    mirrored rule (window minimum) tracks the -inf branch instead.
    """
    ns, vals = table.series()
    return _window_stat(*_window(ns, vals, window_frac), s)


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope of the least-squares line through (x, y) and its standard error.

    Same steps as ``scipy.stats.linregress``, so the two agree bit for bit:
    NaN for fewer than 2 points or a NaN input, stderr 0 for exactly 2.
    """
    n = len(x)
    if n < 2:
        return math.nan, math.nan
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = float(ssxym / ssxm)
    if n == 2:
        return slope, 0.0
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return slope, float(np.sqrt((1 - r**2) * ssym / ssxm / (n - 2)))


def power_slope(ns: np.ndarray, vals: np.ndarray) -> tuple[float, float] | None:
    """Least-squares exponent of |log_value| ~ c n^sigma, with its stderr."""
    mask = np.abs(vals) > 0
    if mask.sum() < 4:
        return None
    return _least_squares(np.log(ns[mask]), np.log(np.abs(vals[mask])))


@dataclass
class PressureCurve:
    s_grid: tuple[float, ...]
    values: tuple[float, ...]
    trends: tuple[float | None, ...]
    estimator: int | None = None
    meta: dict = field(default_factory=dict)


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
    prepared = []
    for t in tables:
        ns, vals = t.series()
        wn, wv = _window(ns, vals, window_frac)
        prepared.append((t, wn, wv, power_slope(wn, wv)))
    values = []
    trends = []
    for s in s_grid:
        best = None
        best_trend: float | None = None
        for _t, wn, wv, slope in prepared:
            v = _window_stat(wn, wv, s)
            if best is None or v > best:
                best = v
                best_trend = None if slope is None else slope[0] - s
        values.append(best)
        trends.append(best_trend)
    est = None
    ests = {s.estimator for t in tables for s in t.samples}
    if len(ests) == 1:
        est = ests.pop()
    return PressureCurve(tuple(s_grid), tuple(values), tuple(trends), est)


@dataclass
class JumpClassification:
    labels: tuple[str, ...]
    bracket: tuple[float, float]
    monotone: bool


def classify_jump(
    curve: PressureCurve,
    big: float = 1e3,
    small: float = 1e-3,
    trend_margin: float = 0.05,
) -> JumpClassification:
    """Label each s as diverging / vanishing / indeterminate and bracket the jump.

    Magnitude thresholds alone cannot separate power laws at desk-scale n,
    so a growth-trend test (sign of the fitted exponent minus s) backs them
    up whenever a trend is available.
    """
    labels = []
    for v, t in zip(curve.values, curve.trends):
        a = abs(v)
        if a >= big or (t is not None and t >= trend_margin):
            labels.append("diverging")
        elif a <= small or (t is not None and t <= -trend_margin):
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


@dataclass
class DimensionEstimate:
    s0_hat: float
    window: tuple[int, int]
    stderr: float
    method: str


def dimension_estimate(table: GrowthTable, window_frac: float = 0.5) -> DimensionEstimate:
    """Critical exponent from the power law |log_value| ~ c n^s0.

    A trailing window wholly below -1 is fitted on -log_value, the mirrored
    branch of :func:`s_pressure`.  Any other window not uniformly above 1 is
    classified as bounded growth and gets exponent 0 outright.
    """
    ns, vals = table.series()
    if len(ns) < 4:
        raise ValueError("need at least 4 samples for a dimension estimate")
    wn, wv = _window(ns, vals, window_frac)
    window = (int(wn[0]), int(wn[-1]))
    if np.all(wv < -1.0):
        wv = -wv
    elif np.any(wv <= 1.0):
        return DimensionEstimate(0.0, window, 0.0, "bounded-growth")
    slope, err = _least_squares(np.log(wn), np.log(wv))
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


def _count_tables_shift(system: ShiftSystem, n_range, scales) -> list[GrowthTable]:
    tables = []
    for k in scales:
        k = int(k)
        eps = deflated_scale(k)
        samples = [
            GrowthSample(Estimator.SEPARATED, n, eps, log_word_count(system, n + k), True)
            for n in n_range
        ]
        tables.append(GrowthTable(samples, {"system": system.label, "scale_k": k}))
    return tables


def _count_tables_metric(system: System, n_range, scales, budget: int) -> list[GrowthTable]:
    tables = []
    for eps in scales:
        samples = []
        for n in n_range:
            cand = system.candidate_set(n, eps, budget=budget)
            inst = make_instance(system, n, eps, cand.points)
            count = len(greedy_separated(inst, order="index"))
            note = "" if cand.certified else "candidate density not certified"
            samples.append(
                GrowthSample(Estimator.SEPARATED, n, eps, math.log(count), False, note)
            )
        tables.append(GrowthTable(samples, {"system": system.label, "eps": eps}))
    return tables


def entropy_dimension(
    system: System,
    n_range: Sequence[int],
    scales: Sequence[float],
    s_grid: Sequence[float] | None = None,
    window_frac: float = 0.5,
    budget: int = 4096,
) -> tuple[PressureCurve, DimensionEstimate]:
    """Zero-potential pipeline: separated-orbit counting and its exponent.

    Shift systems use exact cylinder counts at dyadic scale indices; metric
    systems count greedy separated sets on candidate grids at each eps.
    """
    n_range = list(n_range)
    if isinstance(system, ShiftSystem):
        tables = _count_tables_shift(system, n_range, scales)
    else:
        tables = _count_tables_metric(system, n_range, scales, budget)
    if s_grid is None:
        s_grid = [round(0.2 * i, 2) for i in range(1, 11)]
    curve = pressure_curve(tables, s_grid, window_frac)
    best = largest_dimension(tables, window_frac)
    if best is None:
        raise ValueError("need at least 4 samples for a dimension estimate")
    return curve, best
