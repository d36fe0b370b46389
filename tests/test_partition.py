"""Separated/spanning machinery against independent brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest

from pdim.logsum import logsumexp
from pdim.partition import (
    Estimator,
    InstanceTooLargeError,
    bowen_distance_matrix,
    count_spanning_separated,
    exact_min_cover,
    exact_separated_value,
    exact_spanning_value,
    greedy_separated,
    make_instance,
    separated_lower_bound,
    spanning_upper_bound,
)
from pdim.partition import _bitmasks, _word_distance_matrix
from pdim.potentials import Birkhoff, symbol_weights
from pdim.symbolic import deflated_scale
from pdim.systems import FullShift, Rotation, golden_mean_sft, real


def log_sum(weights) -> float:
    return math.log(math.fsum(math.exp(w) for w in weights))


def brute_separated(inst) -> float:
    """Reference optimum: scan every subset (2^m)."""
    d = inst.distances()
    best = -math.inf
    for r in range(1, inst.size + 1):
        for sub in itertools.combinations(range(inst.size), r):
            if all(d[i, j] > inst.eps for i, j in itertools.combinations(sub, 2)):
                best = max(best, log_sum(inst.weights[list(sub)]))
    return float(best)


def brute_spanning(inst) -> float:
    d = inst.distances()
    best = math.inf
    idx = range(inst.size)
    for r in range(1, inst.size + 1):
        for sub in itertools.combinations(idx, r):
            if all(any(d[i, j] < inst.eps for j in sub) for i in idx):
                best = min(best, log_sum(inst.weights[list(sub)]))
    return float(best)


def random_rotation_instance(seed, size=8):
    gen = np.random.default_rng(seed)
    rot = Rotation(float(gen.uniform(0.05, 0.45)))
    pts = [real(float(v)) for v in gen.random(size)]
    a, b = gen.normal(scale=0.5, size=2)
    pot = Birkhoff(phi=lambda p: a * math.sin(2 * math.pi * p.x) + b, system=rot,
                   name="sin")
    n = int(gen.integers(1, 4))
    eps = float(gen.uniform(0.05, 0.45))
    return make_instance(rot, n, eps, pts, pot)


class TestDistances:
    def test_word_matrix_matches_generic_loop(self):
        fs = FullShift(2)
        pts = [fs.representative(w) for w in fs.admissible_words(6)]
        for n in (1, 3, 5):
            fast = _word_distance_matrix(n, pts)
            slow = np.zeros_like(fast)
            for i in range(len(pts)):
                for j in range(len(pts)):
                    slow[i, j] = fs.bowen_metric(n, pts[i], pts[j])
            assert np.allclose(fast, slow, atol=1e-14)

    def test_rotation_matrix_matches_metric(self):
        rot = Rotation(0.3)
        pts = [real(v) for v in (0.0, 0.2, 0.55, 0.9)]
        d = bowen_distance_matrix(rot, 3, pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert d[i, j] == pytest.approx(rot.bowen_metric(3, x, y), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 70])
    def test_bitmasks_match_bit_loop(self, m):
        rel = np.random.default_rng(m).random((m, m)) < 0.4
        loop = [sum(1 << j for j in range(m) if rel[i, j]) for i in range(m)]
        assert _bitmasks(rel) == loop

    def test_distances_cached(self):
        inst = random_rotation_instance(0)
        assert inst.distances() is inst.distances()


class TestGreedy:
    @pytest.mark.parametrize("seed", range(8))
    def test_kept_points_pairwise_separated(self, seed):
        inst = random_rotation_instance(seed)
        kept = greedy_separated(inst)
        for x, y in itertools.combinations(kept, 2):
            assert inst.system.bowen_metric(inst.n, x, y) > inst.eps

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_is_maximal(self, seed):
        inst = random_rotation_instance(seed)
        kept = greedy_separated(inst)
        for p in inst.points:
            near = any(inst.system.bowen_metric(inst.n, p, q) <= inst.eps for q in kept)
            assert near or p in kept

    def test_weight_order_prefers_heavy_points(self):
        rot = Rotation(0.1)
        pts = [real(0.0), real(0.01)]  # conflict at eps=0.1; only one survives
        pot = Birkhoff(phi=lambda p: p.x, system=rot, name="x")
        inst = make_instance(rot, 1, 0.1, pts, pot)
        kept = greedy_separated(inst, order="weight")
        assert kept == [pts[1]]


class TestExactOracles:
    @pytest.mark.parametrize("seed", range(30))
    def test_separated_matches_subset_scan(self, seed):
        inst = random_rotation_instance(seed, size=8)
        assert exact_separated_value(inst).log_value == pytest.approx(
            brute_separated(inst), abs=1e-10)

    @pytest.mark.parametrize("seed", range(30))
    def test_spanning_matches_subset_scan(self, seed):
        inst = random_rotation_instance(seed, size=7)
        assert exact_spanning_value(inst).log_value == pytest.approx(
            brute_spanning(inst), abs=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_sandwich(self, seed):
        inst = random_rotation_instance(seed, size=9)
        lo = separated_lower_bound(inst).log_value
        sep = exact_separated_value(inst).log_value
        span = exact_spanning_value(inst).log_value
        hi = spanning_upper_bound(inst).log_value
        assert lo <= sep + 1e-12
        assert span <= sep + 1e-12
        assert span <= hi + 1e-12

    def test_fast_path_skips_cap_when_all_separated(self):
        fs = FullShift(2)
        pts = [fs.representative(w) for w in fs.admissible_words(5)]  # 32 > cap
        inst = make_instance(fs, 5, deflated_scale(0), pts)
        val = exact_separated_value(inst).log_value
        assert val == pytest.approx(5 * math.log(2))

    def test_cap_enforced_when_conflicts_exist(self):
        rot = Rotation(0.3)
        pts = [real(v / 50.0) for v in range(25)]
        inst = make_instance(rot, 1, 0.4, pts)
        with pytest.raises(InstanceTooLargeError):
            exact_separated_value(inst)
        with pytest.raises(InstanceTooLargeError):
            exact_spanning_value(inst)

    def test_estimator_tags(self):
        inst = random_rotation_instance(1)
        assert exact_separated_value(inst).estimator == Estimator.SEPARATED
        assert exact_spanning_value(inst).estimator == Estimator.SPANNING
        assert exact_separated_value(inst).exact is True
        assert separated_lower_bound(inst).exact is False


class TestLogSumExp:
    def test_empty_and_all_minus_inf(self):
        assert logsumexp([]) == -math.inf
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_ties_count_once_each(self):
        assert logsumexp([0.5, 0.5, 0.5]) == pytest.approx(0.5 + math.log(3), abs=1e-15)
        assert logsumexp([-math.inf, 2.0, 2.0]) == pytest.approx(2.0 + math.log(2), abs=1e-15)

    def test_large_values_do_not_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_sum(self, seed):
        w = np.random.default_rng(seed).normal(scale=3.0, size=12)
        assert logsumexp(w) == pytest.approx(log_sum(w), abs=1e-12)


class TestCounts:
    def test_frozen_rotation_counts(self):
        rot = Rotation(0.125)
        pts = [real(v) for v in (0.0, 0.3, 0.6)]
        assert count_spanning_separated(rot, 1, 0.25, pts) == (3, 3)
        assert count_spanning_separated(rot, 1, 0.5, pts) == (1, 1)

    def test_spanning_value_zero_for_single_cover(self):
        rot = Rotation(0.125)
        pts = [real(v) for v in (0.0, 0.3, 0.6)]
        inst = make_instance(rot, 1, 0.5, pts)
        assert exact_spanning_value(inst).log_value == pytest.approx(0.0)

    def test_count_cap_checked_first(self):
        # all 32 words are separated, which lets exact_separated_value skip its cap
        fs = FullShift(2)
        pts = [fs.representative(w) for w in fs.admissible_words(5)]
        with pytest.raises(InstanceTooLargeError):
            count_spanning_separated(fs, 5, deflated_scale(0), pts)

    def test_min_cover_with_explicit_universe(self):
        # two cells cover {0, 1, 2}; the cheap pair beats the single full cell
        masks = [0b011, 0b100, 0b111]
        assert exact_min_cover(masks, np.array([1.0, 1.0, 3.0]), full=0b111) == 2.0
        assert exact_min_cover(masks, np.array([1.0, 1.0, 1.5])) == 1.5

    @pytest.mark.parametrize("seed", range(10))
    def test_count_chain_s_r_shalf(self, seed):
        gen = np.random.default_rng(seed)
        rot = Rotation(float(gen.uniform(0.05, 0.45)))
        pts = [real(float(v)) for v in gen.random(9)]
        n = int(gen.integers(1, 4))
        eps = float(gen.uniform(0.1, 0.4))
        s_eps, r_eps = count_spanning_separated(rot, n, eps, pts)
        s_half, _ = count_spanning_separated(rot, n, eps / 2.0, pts)
        assert s_eps <= r_eps <= s_half


def test_make_instance_weights_follow_potential():
    fs = FullShift(2)
    pot = symbol_weights(fs, [1.0, -1.0])
    pts = [fs.representative(w) for w in ((0, 0), (0, 1), (1, 1))]
    inst = make_instance(fs, 2, 0.5, pts, pot)
    assert inst.weights == pytest.approx([2.0, 0.0, -2.0])


def test_make_instance_rejects_empty():
    with pytest.raises(Exception):
        make_instance(FullShift(2), 1, 0.5, [])
