"""Pressure statistics, jump bracketing, and the critical-exponent fit."""

import inspect
import json
import math
import textwrap

import numpy as np
import pytest

from pdim import cli, dimension, partition, systems
from pdim.dimension import (
    DEFAULT_S_GRID,
    DimensionEstimate,
    GrowthTable,
    classify_jump,
    dimension_estimate,
    entropy_dimension,
    growth_tables,
    largest_dimension,
    pressure_curve,
    pressure_curves,
    s_pressure,
)
from pdim.dimension import _least_squares
from pdim.partition import (
    Estimator,
    GrowthSample,
    make_instance,
    separated_lower_bound,
    spanning_upper_bound,
)
from pdim.potentials import Birkhoff, ConstantDrift, zero_potential
from pdim.symbolic import exact_growth_table
from pdim.systems import (
    CandidateSet,
    Contraction,
    DoublingMap,
    FullShift,
    Rotation,
    golden_mean_sft,
    real,
)

from oneshot import bowen_relation
from test_golden import CONFIGS


def power_table(sigma, c=1.0, n_range=range(10, 201, 10), noise=None, seed=0):
    """Synthetic series log_value = c * n^sigma, optionally with 1% jitter."""
    gen = np.random.default_rng(seed)
    rows = []
    for n in n_range:
        v = c * n**sigma
        if noise:
            v *= 1.0 + float(gen.uniform(-noise, noise))
        rows.append(GrowthSample(Estimator.SEPARATED, n, 0.5, v, False))
    return GrowthTable(rows)


def series_table(ns, vals):
    return GrowthTable([GrowthSample(Estimator.SEPARATED, n, 0.5, float(v), True)
                        for n, v in zip(ns, vals)])


class TestGrowthTable:
    def test_series_orders_by_n(self):
        t = GrowthTable([
            GrowthSample(Estimator.SEPARATED, 3, 0.5, 3.0, True),
            GrowthSample(Estimator.SEPARATED, 1, 0.5, 1.0, True),
            GrowthSample(Estimator.SEPARATED, 2, 0.5, 2.0, True),
        ])
        ns, vals = t.series()
        assert list(ns) == [1.0, 2.0, 3.0]
        assert list(vals) == [1.0, 2.0, 3.0]

    def test_series_rejects_mixed_estimators(self):
        t = GrowthTable([
            GrowthSample(Estimator.SEPARATED, 1, 0.5, 1.0, True),
            GrowthSample(Estimator.SPANNING, 2, 0.5, 2.0, True),
        ])
        with pytest.raises(ValueError):
            t.series()

    def test_series_rejects_duplicate_n(self):
        t = GrowthTable([
            GrowthSample(Estimator.SEPARATED, 1, 0.5, 1.0, True),
            GrowthSample(Estimator.SEPARATED, 1, 0.5, 2.0, True),
        ])
        with pytest.raises(ValueError):
            t.series()

    def test_series_names_an_empty_table(self):
        # the key count was checked first, so this read "mixes 0 series"
        with pytest.raises(ValueError, match="^empty growth table$"):
            GrowthTable([]).series()

    def test_filter_by_estimator_and_scale(self):
        rows = exact_growth_table(FullShift(2), zero_potential(), 1, range(1, 5))
        t = GrowthTable(rows)
        sep = t.filter(estimator=Estimator.SEPARATED)
        assert {s.estimator for s in sep.samples} == {Estimator.SEPARATED}
        # k = 1 spans at radius 2^0
        assert len(t.filter(estimator=Estimator.SPANNING, scale=1.0).samples) == 4


class TestSPressure:
    def test_exact_value_on_pure_power(self):
        t = power_table(1.0, c=math.log(2), n_range=range(20, 65))
        # log_value / n^1 is constant, so any window statistic returns it
        assert s_pressure(t, 1.0, window_frac=1.0) == pytest.approx(math.log(2))

    def test_supercritical_s_decays(self):
        t = power_table(1.0, n_range=range(10, 201, 10))
        assert s_pressure(t, 1.5) < s_pressure(t, 1.0)
        # ratio n^-0.5 decreases, so the window max sits at its first n
        assert s_pressure(t, 1.5) == pytest.approx(110.0 / 110**1.5)

    def test_window_takes_trailing_max(self):
        rows = [GrowthSample(Estimator.SEPARATED, n, 0.5, float(v), False)
                for n, v in [(1, 50.0), (2, 2.0), (3, 9.0), (4, 4.0)]]
        # half window is n in {3, 4}; max ratio at s=0 is 9
        assert s_pressure(GrowthTable(rows), 0.0) == pytest.approx(9.0)

    def test_negative_branch_uses_min(self):
        rows = [GrowthSample(Estimator.SEPARATED, n, 0.5, -float(n), False)
                for n in range(1, 9)]
        assert s_pressure(GrowthTable(rows), 1.0, 1.0) == pytest.approx(-1.0)

    def test_bad_window_frac(self):
        t = power_table(1.0)
        with pytest.raises(ValueError):
            s_pressure(t, 1.0, window_frac=0.0)


class TestPowerSlope:
    def test_recovers_exponent_exactly(self):
        ns = np.arange(10.0, 101.0, 10.0)
        slope, err = series_table(ns, 3.0 * ns**0.7).fit(1.0)
        assert slope == pytest.approx(0.7, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_trend_needs_four_nonzero_values(self):
        def trend(vals):
            return pressure_curve(series_table(range(1, 6), vals), [1.0], 1.0).trends[0]

        assert trend([5.0, 0.0, 0.0, 3.0, 4.0]) is None
        assert trend([5.0, 0.0, 2.0, 3.0, 4.0]) is not None


class TestLeastSquares:
    def test_known_slope_and_stderr(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        # residuals orthogonal to x leave the slope at 2.5
        y = 2.5 * x - 1.0 + np.array([0.1, -0.1, -0.1, 0.1])
        slope, err = _least_squares(x, y)
        assert slope == pytest.approx(2.5, abs=1e-12)
        # sqrt(sum r^2 / (n - 2) / sum (x - mean x)^2) = sqrt(0.04 / 2 / 5)
        assert err == pytest.approx(math.sqrt(0.004), rel=1e-9)

    def test_two_points_have_zero_stderr(self):
        assert _least_squares(np.array([1.0, 2.0]), np.array([3.0, 7.0])) == (4.0, 0.0)

    def test_one_point_is_nan(self):
        slope, err = _least_squares(np.array([1.0]), np.array([2.0]))
        assert math.isnan(slope) and math.isnan(err)

    def test_two_points_with_a_nan_are_nan(self):
        # as linregress, whose NaN policy makes every output NaN
        for x, y in (([1.0, math.nan], [3.0, 7.0]), ([1.0, 2.0], [math.nan, 7.0])):
            slope, err = _least_squares(np.array(x), np.array(y))
            assert math.isnan(slope) and math.isnan(err)

    def test_random_fits_match_np_cov_bit_for_bit(self):
        cases = least_squares_cases()
        assert agreement(_least_squares, cases) == [True] * len(cases)

    def test_random_fits_match_scipy_linregress(self):
        stats = pytest.importorskip("scipy.stats")
        checked = 0
        for x, y in least_squares_cases():
            # linregress raises on a constant x
            if np.all(x == x[0]):
                continue
            fit = stats.linregress(x, y)
            assert bits(_least_squares(x, y)) == bits((fit.slope, fit.stderr)), (x, y)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("find, replace", [
        ("", ""),
        ("cov *= np.true_divide(1, n)", "cov /= n"),
        ("np.dot(xy, xy.T.conj())", "np.einsum('ij,kj->ik', xy, xy)"),
    ], ids=["as-is", "divide-by-n", "einsum-product"])
    def test_copied_fit_with_fault_fails(self, find, replace):
        agree = agreement(function_copy(dimension._least_squares, find, replace),
                          least_squares_cases())
        assert all(agree) if not find else not all(agree)


def reference_least_squares(x, y):
    """The least-squares fit through np.cov(x, y, bias=1) and np.clip, whose
    bits _least_squares must give."""
    n = len(x)
    if n < 2:
        return math.nan, math.nan
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = float(ssxym / ssxm)
    if n == 2:
        return slope, math.nan if np.isnan([x, y]).any() else 0.0
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return slope, float(np.sqrt((1 - r**2) * ssym / ssxm / (n - 2)))


def least_squares_cases():
    """(x, y) pairs for n = 2..40: log n against log log_value, as the s0 fit
    takes them, and plain normal draws over wide scales; then a constant x,
    a constant y and a NaN in either."""
    gen = np.random.default_rng(11)
    cases = []
    for n in range(2, 41):
        ns = np.cumsum(gen.integers(1, 400, size=n)).astype(float)
        x = np.log(ns)
        cases.append((x, gen.uniform(0.1, 1.5) * x + gen.uniform(-1, 1) + gen.normal(0, 0.01, n)))
        for _ in range(3):
            scale = 10.0 ** gen.integers(-6, 7, size=2)
            cases.append((gen.normal(0, scale[0], n), gen.normal(0, scale[1], n)))
    for n in (2, 3, 7):
        x, y = gen.normal(size=n), gen.normal(size=n)
        cases += [(np.full(n, 1.5), y), (x, np.full(n, -0.25)), (np.full(n, 2.0), np.full(n, 3.0))]
        cases += [(np.where(np.arange(n) == 1, np.nan, x), y),
                  (x, np.where(np.arange(n) == 0, np.nan, y))]
    return cases


def agreement(fit, cases):
    """Per case, whether ``fit`` gives reference_least_squares's bits."""
    with np.errstate(divide="ignore", invalid="ignore"):  # constant x: 0 / 0
        return [bits(fit(x, y)) == bits(reference_least_squares(x, y)) for x, y in cases]


class TestPressureCurveAndJump:
    def test_max_over_scale_ladder(self):
        lo = power_table(1.0, c=0.5)
        hi = power_table(1.0, c=2.0)
        curve = pressure_curve([lo, hi], [1.0], window_frac=1.0)
        assert curve.values[0] == pytest.approx(2.0)

    def test_classify_power_law_bracket(self):
        t = power_table(0.7, n_range=range(10, 201, 10))
        curve = pressure_curve(t, [0.5, 0.9])
        jump = classify_jump(curve)
        assert jump.labels == ("diverging", "vanishing")
        assert jump.bracket == (0.5, 0.9)
        assert jump.monotone

    def test_constant_table_vanishes_for_positive_s(self):
        rows = [GrowthSample(Estimator.SEPARATED, n, 0.5, 2.0, False)
                for n in range(10, 201, 10)]
        curve = pressure_curve(GrowthTable(rows), [0.5, 1.0])
        jump = classify_jump(curve)
        assert jump.labels == ("vanishing", "vanishing")
        assert jump.bracket[1] == 0.5

    def test_full_shift_bracket_contains_one(self):
        rows = exact_growth_table(FullShift(2), zero_potential(), 0, range(10, 201, 10))
        t = GrowthTable(rows).filter(estimator=Estimator.SEPARATED)
        curve = pressure_curve(t, [0.6, 0.8, 1.0, 1.2, 1.4])
        jump = classify_jump(curve)
        lo, hi = jump.bracket
        assert lo < 1.0 <= hi
        assert jump.monotone

    def test_estimator_recorded_when_uniform(self):
        t = power_table(1.0)
        assert pressure_curve(t, [1.0]).estimator == Estimator.SEPARATED


def window_stat(wn, wv, s):
    """The pressure statistic of one window at one s, the rule pressure_curve
    applies to every s at once."""
    ratios = wv / wn**s
    return float(ratios.min() if np.all(wv < 0) else ratios.max())


def reference_curve(tables, s_grid, window_frac):
    """Values and trends of the per-s loop: one window_stat per (s, table),
    the first table with the largest statistic by strict >."""
    prepared = []
    for t in tables:
        wn, wv = t.window(window_frac)
        # a table of its own, so its fit is not the one pressure_curve made
        slope = GrowthTable(t.samples).fit(window_frac) if np.count_nonzero(wv) >= 4 else None
        prepared.append((wn, wv, slope))
    values, trends = [], []
    with np.errstate(over="ignore"):
        for s in s_grid:
            best, best_trend = None, None
            for wn, wv, slope in prepared:
                v = window_stat(wn, wv, s)
                if best is None or v > best:
                    best, best_trend = v, None if slope is None else slope[0] - s
            values.append(best)
            trends.append(best_trend)
    return values, trends


def bits(values):
    return [None if v is None else float(v).hex() for v in values]


def random_tables(gen, sign, count, huge=False):
    """Random tables of one window sign ("+", "-" or mixed); ``huge`` puts n
    near 1e200, so n^s overflows for s > 1.5 and the ratio is 0."""
    tables = []
    for _ in range(count):
        size = int(gen.integers(4, 12))
        start = 10.0 ** 200 if huge else 1
        ns = start + np.cumsum(gen.integers(1, 50, size=size)) * (1e190 if huge else 1)
        vals = gen.uniform(0.01, 50.0, size=size) * gen.choice([1e-3, 1.0, 1e6])
        if sign == "-":
            vals = -vals
        elif sign == "mixed":
            vals = vals * gen.choice([-1.0, 1.0], size=size)
        rows = [GrowthSample(Estimator.SEPARATED, float(n) if huge else int(n), 0.5, float(v),
                             True) for n, v in zip(ns, vals)]
        tables.append(GrowthTable(rows))
    return tables


def tied_tables():
    """Two tables whose window statistic is 1e12 at n = 1 for every s > 0, with
    different power-law slopes, so only the trend tells which one is picked."""
    rows = ([1e12, 1.0, 2.0, 3.0, 4.0], [1e12, 9.0, 7.0, 5.0, 3.0])
    return [GrowthTable([GrowthSample(Estimator.SEPARATED, n, 0.5, v, True)
                         for n, v in enumerate(vals, 1)]) for vals in rows]


def function_copy(fn, find: str, replace: str):
    """A copy of the ``pdim.dimension`` function ``fn`` with ``find`` replaced
    once in its source."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert not find or source.count(find) == 1
    scope = dict(vars(dimension))
    exec(compile(source.replace(find, replace), dimension.__file__, "exec"), scope)
    return scope[fn.__name__]


S_GRIDS = [list(DEFAULT_S_GRID), [0.05, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], [1.0], []]


class TestSGridPass:
    """pressure_curve's one array pass per table agrees with the per-s loop
    bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("sign", ["+", "-", "mixed"])
    def test_random_tables_match_the_per_s_loop(self, sign, seed):
        gen = np.random.default_rng(seed)
        tables = random_tables(gen, sign, int(gen.integers(1, 6)), huge=seed % 4 == 3)
        # one table read twice ties with itself: the first keeps the max
        tables.insert(int(gen.integers(0, len(tables) + 1)), tables[0])
        for s_grid in S_GRIDS:
            for frac in (0.5, 1.0):
                curve = pressure_curve(tables, s_grid, frac)
                values, trends = reference_curve(tables, s_grid, frac)
                assert bits(curve.values) == bits(values)
                assert bits(curve.trends) == bits(trends)

    def test_overflow_gives_zero_ratios(self):
        gen = np.random.default_rng(3)
        tables = random_tables(gen, "mixed", 3, huge=True) + random_tables(gen, "-", 2, huge=True)
        curve = pressure_curve(tables, [0.5, 1.6, 2.0, 3.0], 1.0)
        assert curve.values[2:] == (0.0, 0.0)
        assert bits(curve.values) == bits(reference_curve(tables, [0.5, 1.6, 2.0, 3.0], 1.0)[0])

    def test_ties_pick_the_first_table_and_its_trend(self):
        for order in (tied_tables(), tied_tables()[::-1]):
            curve = pressure_curve(order, [0.5, 1.0, 2.0], 1.0)
            values, trends = reference_curve(order, [0.5, 1.0, 2.0], 1.0)
            assert curve.values == (1e12, 1e12, 1e12)
            assert bits(curve.values) == bits(values)
            assert bits(curve.trends) == bits(trends)
        assert bits(pressure_curve(tied_tables(), [1.0], 1.0).trends) != \
            bits(pressure_curve(tied_tables()[::-1], [1.0], 1.0).trends)

    @pytest.mark.parametrize("find, replace", [
        ("", ""),
        ("ratios.min(axis=1) if np.all(wv < 0) else ratios.max(axis=1)", "ratios.max(axis=1)"),
        ("better = stat > best", "better = stat >= best"),
    ], ids=["as-is", "max-on-negative-window", "ties-to-the-last-table"])
    def test_copied_pass_with_fault_fails(self, find, replace):
        curve_of = function_copy(dimension.pressure_curve, find, replace)
        cases = [(random_tables(np.random.default_rng(seed), ("-", "mixed")[seed % 2], 3), 0.5)
                 for seed in range(8)]
        cases += [(tied_tables(), 1.0), (tied_tables()[::-1], 1.0)]
        agree = []
        for tables, frac in cases:
            curve = curve_of(tables, DEFAULT_S_GRID, frac)
            values, trends = reference_curve(tables, DEFAULT_S_GRID, frac)
            agree.append(bits(curve.values) == bits(values) and bits(curve.trends) == bits(trends))
        assert all(agree) if not find else not all(agree)


class TestDimensionEstimate:
    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.5])
    def test_recovers_exponent_with_noise(self, sigma):
        t = power_table(sigma, c=2.0, n_range=range(10, 201, 10),
                        noise=0.01, seed=int(sigma * 100))
        est = dimension_estimate(t)
        assert est.s0_hat == pytest.approx(sigma, abs=0.05)
        assert est.method == "power-fit"

    def test_bounded_growth_rule(self):
        rows = [GrowthSample(Estimator.SEPARATED, n, 0.5, 0.9, False)
                for n in range(10, 101, 10)]
        est = dimension_estimate(GrowthTable(rows))
        assert est == DimensionEstimate(0.0, (60, 100), 0.0, "bounded-growth")

    def test_needs_four_samples(self):
        rows = [GrowthSample(Estimator.SEPARATED, n, 0.5, float(n), False)
                for n in (1, 2, 3)]
        with pytest.raises(ValueError):
            dimension_estimate(GrowthTable(rows))

    def test_needs_two_samples_in_the_window(self):
        # one point once fitted a NaN slope, reported as exponent 0.0
        fs = FullShift(2)
        rows = exact_growth_table(fs, ConstantDrift(0.5, fs), 0, range(4, 25, 4))
        t = GrowthTable(rows).filter(estimator=Estimator.SEPARATED)
        with pytest.raises(ValueError, match="window fraction 0.1 leaves 1 of 6"):
            dimension_estimate(t, window_frac=0.1)
        assert dimension_estimate(t, window_frac=0.2).window == (20, 24)

    @pytest.mark.parametrize("drift", [-2.0, 0.5])
    def test_estimate_inside_jump_bracket(self, drift):
        # at drift -2 the 2-shift log values fall like -1.3 n: mirrored branch
        fs = FullShift(2)
        rows = exact_growth_table(fs, ConstantDrift(drift, fs), 0, range(10, 201, 10))
        t = GrowthTable(rows).filter(estimator=Estimator.SEPARATED)
        est = dimension_estimate(t)
        lo, hi = classify_jump(pressure_curve(t, [0.2 * i for i in range(1, 11)])).bracket
        assert lo <= est.s0_hat <= hi
        assert est.s0_hat == pytest.approx(1.0, abs=1e-9)
        assert est.method == "power-fit"

    def test_negative_slope_clamped(self):
        rows = [GrowthSample(Estimator.SEPARATED, n, 0.5, 100.0 / n, False)
                for n in range(2, 20)]
        assert dimension_estimate(GrowthTable(rows)).s0_hat == 0.0


def assert_inside_jump_bracket(curve, est):
    lo, hi = classify_jump(curve).bracket
    assert lo <= est.s0_hat <= hi


class TestEntropyDimension:
    def test_full_shift_is_one(self):
        curve, est = entropy_dimension(FullShift(2), range(10, 201, 10), [0, 1, 2])
        assert est.s0_hat == pytest.approx(1.0, abs=0.05)
        lo, hi = classify_jump(curve).bracket
        assert lo < 1.0 <= hi
        assert_inside_jump_bracket(curve, est)

    def test_golden_mean_is_one(self):
        curve, est = entropy_dimension(golden_mean_sft(), range(10, 201, 10), [0, 1])
        assert est.s0_hat == pytest.approx(1.0, abs=0.05)
        assert_inside_jump_bracket(curve, est)

    def test_contraction_is_zero(self):
        curve, est = entropy_dimension(Contraction(0.5, 0.0), range(2, 41, 2),
                                       [0.2, 0.1, 0.05])
        assert est.s0_hat == pytest.approx(0.0, abs=0.05)
        assert_inside_jump_bracket(curve, est)

    def test_rotation_is_zero(self):
        curve, est = entropy_dimension(Rotation(math.sqrt(2) - 1), range(2, 41, 2),
                                       [0.2, 0.1, 0.05])
        assert est.s0_hat == pytest.approx(0.0, abs=0.05)
        assert_inside_jump_bracket(curve, est)


class SteppedGridRotation(Rotation):
    """A rotation whose candidate grid changes only at n = 4 and 7, and whose
    certification alternates with n, so equal grids carry different notes."""

    def candidate_set(self, n, eps, budget=2_000_000):
        size = 12 + 5 * ((n - 1) // 3)
        return CandidateSet([real(i / size) for i in range(size)], certified=n % 2 == 1)


class TestGridRuns:
    """growth_tables on the eps path: consecutive n with equal grids share one
    instance family, each sample keeping its own grid's note."""

    def test_runs_share_a_walk_and_keep_each_note(self, monkeypatch):
        system = SteppedGridRotation(0.21)
        pot = Birkhoff(phi=lambda x: np.cos(2 * np.pi * x), system=system, name="cos")
        ns = [1, 2, 3, 4, 5, 6, 7, 9]
        ests = [Estimator.SPANNING, Estimator.SEPARATED]
        calls = []
        families = dimension.make_families
        monkeypatch.setattr(dimension, "make_families",
                            lambda f: calls.append([n for n, _ in f[0][2]]) or families(f))
        tables = growth_tables(system, pot, ns, "eps", [0.1, 0.2], ests, 4096)
        # per scale, one family per run of equal grids: n = 1-3, 4-6 and 7-9
        assert calls == [[1, 2, 3], [4, 5, 6], [7, 9]] * 2
        monkeypatch.setattr(dimension, "make_families", families)
        assert len(tables) == 4
        for table in tables:
            for s in table.samples:
                assert s.note == ("" if s.n % 2 else "uncertified-candidates"), s
                inst = make_instance(system, s.n, s.scale,
                                     system.candidate_set(s.n, s.scale).points, pot)
                bound = (spanning_upper_bound if s.estimator == Estimator.SPANNING
                         else separated_lower_bound)(inst, note=s.note)
                assert s == bound

    def test_grids_that_differ_run_alone(self, monkeypatch):
        calls = []
        families = dimension.make_families
        monkeypatch.setattr(dimension, "make_families",
                            lambda f: calls.append([n for n, _ in f[0][2]]) or families(f))
        growth_tables(DoublingMap(), zero_potential(), [1, 2, 3], "eps", [0.2],
                      [Estimator.SEPARATED], 4096)
        assert calls == [[1], [2], [3]]

    def test_a_run_over_the_budget_gives_the_same_samples(self, monkeypatch):
        # the least budget the grid admits (its 8 m^2-byte distance matrix)
        # fits each relation of the run, all pairs at eps = 0.45, but not all
        # three: the run walks each n alone, and every sample is as without it
        system, ns = Rotation(0.21), [1, 2, 3]
        ests = [Estimator.SPANNING, Estimator.SEPARATED]
        pts = system.candidate_set(1, 0.45, 4096).points
        sizes = [len(bowen_relation(system, n, pts, 0.45)[0]) for n in ns]
        want = growth_tables(system, zero_potential(), ns, "eps", [0.45], ests, 4096)
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 8 * len(pts) ** 2)
        assert 16 * sum(sizes) > systems.ARRAY_BUDGET_BYTES >= 16 * max(sizes)
        calls = []
        relations = partition.bowen_relations
        monkeypatch.setattr(partition, "bowen_relations",
                            lambda *a: calls.append([n for n, _ in a[2]]) or relations(*a))
        got = growth_tables(system, zero_potential(), ns, "eps", [0.45], ests, 4096)
        assert calls == [ns, [1], [2], [3]]
        assert [t.samples for t in got] == [t.samples for t in want]


@pytest.fixture
def made(monkeypatch):
    """The series, windows and fits that growth tables make, as they make them."""
    made = {"series": [], "windows": [], "fits": 0}
    series, window, fit = GrowthTable.series, GrowthTable.window, dimension._least_squares

    def spy_series(table):
        if table._series is None:
            made["series"].append(table)
        return series(table)

    def spy_window(table, frac):
        if frac not in table._windows:
            made["windows"].append((table, frac))
        return window(table, frac)

    def spy_fit(x, y):
        made["fits"] += 1
        return fit(x, y)

    monkeypatch.setattr(GrowthTable, "series", spy_series)
    monkeypatch.setattr(GrowthTable, "window", spy_window)
    monkeypatch.setattr(dimension, "_least_squares", spy_fit)
    return made


def assert_read_once(made, tables, fits):
    """One series per table, one window per (table, fraction), and ``fits``
    fits in all, each kept on its table, so none is made twice."""
    assert sorted(map(id, made["series"])) == sorted(map(id, tables))
    windows = [(id(t), frac) for t, frac in made["windows"]]
    assert len(set(windows)) == len(windows)
    assert made["fits"] == sum(len(t._fits) for t in tables) == fits


def counts(made):
    return len(made["series"]), len(made["windows"]), made["fits"]


class TestSharedReads:
    """pressure_curve, dimension_estimate and largest_dimension read one
    series, one window and one fit per table."""

    @pytest.mark.parametrize("name, tables", [("zero", 6), ("doubling", 2)])
    def test_estimate_reads_each_table_once(self, tmp_path, monkeypatch, capsys, made,
                                            name, tables):
        # zero: full_shift(2) at k = 0, 1, 2 with both estimators, 5-sample
        # windows whose trend fit is the power fit; doubling: 3-sample windows
        # that only the power fit reads
        collected = []
        collect = cli._collect_tables
        monkeypatch.setattr(cli, "_collect_tables",
                            lambda cfg: collected.append(collect(cfg)) or collected[-1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIGS[name]))
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert "method=power-fit" in capsys.readouterr().out
        [(_, _, got)] = collected
        assert len(got) == tables
        assert_read_once(made, got, fits=tables)

    @pytest.mark.parametrize("ns, new_fits", [(range(4, 40, 4), 0), (range(1, 6), 6)])
    def test_largest_dimension_after_the_curves_refits_nothing(self, made, ns, new_fits):
        system = FullShift(2)
        tables = growth_tables(system, zero_potential(system), list(ns), "k", [0, 1, 2],
                               [Estimator.SEPARATED, Estimator.SPANNING], 4096)
        curves = pressure_curves(tables, DEFAULT_S_GRID, 0.5)
        before = counts(made)
        assert before == (6, 6, 6 - new_fits)
        bests = [largest_dimension([t for t in tables if t.samples[0].estimator == c.estimator])
                 for c in curves]
        assert [b.method for b in bests] == ["power-fit"] * 2
        # the 3-sample windows of n = 1..5 have no trend: their power fits are new
        assert counts(made) == (6, 6, 6)
        assert_read_once(made, tables, fits=6)

    @pytest.mark.parametrize("system, ns, scales", [
        (FullShift(2), range(10, 201, 10), [0, 1, 2]),
        (Rotation(0.41421356237309515), range(2, 21, 2), [0.2, 0.1]),
    ], ids=["shift", "rotation"])
    def test_entropy_dimension_reads_each_table_once(self, monkeypatch, made, system, ns,
                                                     scales):
        built = []
        tables_of = dimension.growth_tables
        monkeypatch.setattr(dimension, "growth_tables",
                            lambda *a: built.extend(tables_of(*a)) or built)
        _, est = entropy_dimension(system, ns, scales)
        assert len(built) == len(scales)
        fitted = sum(len(t._fits) for t in built)
        assert 1 <= fitted <= len(built)
        assert_read_once(made, built, fits=fitted)
