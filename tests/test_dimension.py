"""Pressure statistics, jump bracketing, and the critical-exponent fit."""

import math

import numpy as np
import pytest

from pdim import partition, systems
from pdim.dimension import (
    DimensionEstimate,
    GrowthTable,
    classify_jump,
    dimension_estimate,
    entropy_dimension,
    growth_tables,
    power_slope,
    pressure_curve,
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
        slope, err = power_slope(ns, 3.0 * ns**0.7)
        assert slope == pytest.approx(0.7, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_too_few_points(self):
        ns = np.array([1.0, 2.0, 3.0])
        assert power_slope(ns, ns) is None


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
        relations = partition.bowen_relations
        monkeypatch.setattr(partition, "bowen_relations",
                            lambda *a: calls.append([n for n, _ in a[2]]) or relations(*a))
        tables = growth_tables(system, pot, ns, "eps", [0.1, 0.2], ests, 4096)
        # per scale, one walk per run of equal grids: n = 1-3, 4-6 and 7-9
        assert calls == [[1, 2, 3], [4, 5, 6], [7, 9]] * 2
        monkeypatch.setattr(partition, "bowen_relations", relations)
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
        relations = partition.bowen_relations
        monkeypatch.setattr(partition, "bowen_relations",
                            lambda *a: calls.append([n for n, _ in a[2]]) or relations(*a))
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
        sizes = [len(partition.bowen_relation(system, n, pts, 0.45)[0]) for n in ns]
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
