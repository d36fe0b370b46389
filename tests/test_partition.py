"""Separated/spanning machinery against independent brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest

from pdim import partition, systems
from pdim.logsum import logsumexp
from pdim.partition import (
    Estimator,
    SeparationInstance,
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
from pdim.partition import (
    _bitmasks,
    _greedy_separated_indices,
    _greedy_spanning_indices,
    _word_distance_matrix,
)
from pdim.potentials import Birkhoff, symbol_weights
from pdim.symbolic import deflated_scale
from pdim.systems import (
    SFT,
    BudgetExceededError,
    Contraction,
    DoublingMap,
    FullShift,
    PowerSystem,
    Rotation,
    Word,
    golden_mean_sft,
    real,
)


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
    pot = Birkhoff(phi=lambda x: a * np.sin(2 * np.pi * x) + b, system=rot,
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


def pairwise_bowen(system, n, pts):
    return np.array([[system.bowen_metric(n, x, y) for y in pts] for x in pts])


def random_sft(rng, k):
    """A random SFT on k symbols; retries matrices the SFT constructor rejects."""
    while True:
        try:
            return SFT([[int(rng.random() < 0.6) for _ in range(k)] for _ in range(k)])
        except ValueError:
            pass


def scalar_apply(system, x: float) -> float:
    """T x by each real map's formula on Python floats."""
    if isinstance(system, PowerSystem):
        for _ in range(system.power):
            x = scalar_apply(system.base, x)
        return x
    if isinstance(system, DoublingMap):
        return (2.0 * x) % 1.0
    if isinstance(system, Rotation):
        return (x + system.theta) % 1.0
    return system.fixed + system.c * (x - system.fixed)


def scalar_metric(system, x: float, y: float) -> float:
    """d(x, y) by each real system's formula on Python floats."""
    if isinstance(system, PowerSystem):
        return scalar_metric(system.base, x, y)
    d = abs(x - y)
    return d if isinstance(system, Contraction) else min(d, 1 - d)


REAL_SYSTEMS = {
    "doubling": lambda rng: DoublingMap(),
    "rotation": lambda rng: Rotation(float(rng.uniform(0.05, 0.95))),
    "contraction": lambda rng: Contraction(float(rng.uniform(0.1, 0.9)),
                                           float(rng.uniform(0.0, 1.0))),
    "power-rotation": lambda rng: PowerSystem(Rotation(float(rng.uniform(0.05, 0.95))),
                                              int(rng.integers(2, 4))),
    "power-doubling": lambda rng: PowerSystem(DoublingMap(), 2),
    "power-contraction": lambda rng: PowerSystem(
        Contraction(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 1.0))),
        int(rng.integers(2, 4))),
}


class TestKernelsMatchBowenMetric:
    """The array kernels against System.bowen_metric, with ==.

    ``block`` 100 cuts every matrix into row blocks of 100 // m rows, so
    several blocks and a partial last one are exercised; None keeps the
    module's block size.
    """

    @pytest.fixture(params=[None, 100], ids=["block-default", "block-100"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", request.param)

    @pytest.mark.parametrize("kind", sorted(REAL_SYSTEMS))
    def test_array_forms_match_scalar(self, kind):
        # a contraction's Bowen distance is read at time 0, so check apply directly
        rng = np.random.default_rng(len(kind))
        system = REAL_SYSTEMS[kind](rng)
        xs = np.concatenate([rng.random(200), [0.0, 0.5, 0.999999]])
        images = [scalar_apply(system, float(v)) for v in xs]
        assert (system.apply_array(xs) == images).all()
        assert [system.apply(real(v)).x for v in xs] == images
        dists = [[scalar_metric(system, float(u), float(v)) for v in xs] for u in xs]
        assert (system.metric_array(xs[:, None], xs) == dists).all()
        assert [[system.metric(real(u), real(v)) for v in xs] for u in xs] == dists

    @pytest.mark.parametrize("m", [1, 31, 70])
    @pytest.mark.parametrize("kind", sorted(REAL_SYSTEMS))
    def test_real_systems(self, kind, m, block):
        rng = np.random.default_rng([m, len(kind)])
        system = REAL_SYSTEMS[kind](rng)
        # random points, plus a duplicate, the ends and a near-wrap pair
        xs = list(rng.random(m))
        xs[-min(m, 4):] = [0.0, 0.999, xs[0], 0.5][:min(m, 4)]
        pts = [real(float(v)) for v in xs]
        for n in (1, 6):
            d = bowen_distance_matrix(system, n, pts)
            assert (d == pairwise_bowen(system, n, pts)).all()

    @pytest.mark.parametrize("m", [1, 31, 70])
    @pytest.mark.parametrize("kind", ["full_shift(2)", "full_shift(3)", "golden", "sft(3)", "power"])
    def test_words(self, kind, m, block):
        rng = np.random.default_rng([m, len(kind), 7])
        system = {
            "full_shift(2)": FullShift(2),
            "full_shift(3)": FullShift(3),
            "golden": golden_mean_sft(),
            "sft(3)": random_sft(rng, 3),
            "power": PowerSystem(FullShift(2), 2),
        }[kind]
        shift = system.base if kind == "power" else system
        # representatives of mixed lengths: SFT bridges and two word lengths
        words = [shift.representative(w) for length in (4, 6)
                 for w in shift.admissible_words(length)]
        pts = [words[i] for i in rng.choice(len(words), size=min(m, len(words)), replace=False)]
        for n in (1, 3, 9):
            d = bowen_distance_matrix(system, n, pts)
            assert (d == pairwise_bowen(system, n, pts)).all()

    def test_word_kernel_at_its_length_limit(self):
        fs = FullShift(2)
        rng = np.random.default_rng(53)
        pts = [Word(tuple(int(v) for v in rng.integers(0, 2, size=53))) for _ in range(12)]
        pts.append(Word(pts[0].symbols[:50]))  # differs from pts[0] far down only
        for n in (1, 20, 60):
            assert (_word_distance_matrix(n, pts) == pairwise_bowen(fs, n, pts)).all()

    @pytest.mark.parametrize("pts", [
        # over 53 symbols; the last word's float sum 1 + 2^-53 + 2^-54 rounds
        # to 1 term by term, to 1 + 2^-52 in one step
        [Word((0, 1) * 30), Word((1,) * 60), Word(()), Word((1,) + (0,) * 52 + (1, 1))],
        [Word((0, 1), tail=0), Word((0, 1), tail=1), Word((1,), tail=1)],  # mixed tails
    ], ids=["long", "mixed-tails"])
    def test_pairwise_fallback(self, pts):
        fs = FullShift(2)
        for n in (1, 2, 5):
            assert (bowen_distance_matrix(fs, n, pts) == pairwise_bowen(fs, n, pts)).all()


class TestDistanceBudget:
    def test_over_budget_raises_before_work(self, monkeypatch):
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 8 * 99 * 99)
        pts = [real(i / 100) for i in range(100)]
        with pytest.raises(BudgetExceededError, match="100 points needs 80000 bytes"):
            bowen_distance_matrix(Rotation(0.3), 10**9, pts)  # an orbit this long never starts
        assert bowen_distance_matrix(Rotation(0.3), 2, pts[:99]).shape == (99, 99)

    def test_budget_admits_8192_points(self):
        assert 8 * 8192**2 <= systems.ARRAY_BUDGET_BYTES


def reference_greedy_separated(inst, order):
    """Slow reference for the greedy separated picks: an all() scan per candidate."""
    if order == "weight":
        idx = sorted(range(inst.size), key=lambda i: (-inst.weights[i], i))
    else:
        idx = list(range(inst.size))
    d = inst.distances()
    kept = []
    for i in idx:
        if all(d[i, j] > inst.eps for j in kept):
            kept.append(i)
    return kept


def reference_greedy_spanning(inst):
    """Slow reference for the greedy spanning picks: bigint masks rescanned per pick."""
    masks = _bitmasks(inst.distances() < inst.eps)
    full = (1 << inst.size) - 1
    covered = 0
    chosen = []
    while covered != full:
        best = key = None
        for i in range(inst.size):
            gain = bin(masks[i] & ~covered).count("1")
            if gain == 0:
                continue
            cand_key = (-gain, inst.weights[i], i)
            if key is None or cand_key < key:
                key, best = cand_key, i
        chosen.append(best)
        covered |= masks[best]
    return chosen


def random_greedy_instance(seed, m):
    """Rotation points or 2-shift words, with weights in {0, 1, 2} so ties occur."""
    rng = np.random.default_rng([seed, m])
    if seed % 2:
        system = Rotation(float(rng.uniform(0.05, 0.45)))
        pts = [real(float(v)) for v in rng.random(m)]
        eps = float(rng.uniform(0.02, 0.3))
    else:
        system = FullShift(2)
        words = [system.representative(w) for w in system.admissible_words(8)]
        pts = [words[i] for i in sorted(rng.choice(len(words), size=m, replace=False))]
        eps = deflated_scale(int(rng.integers(0, 3)))
    weights = rng.integers(0, 3, size=m).astype(float)
    return SeparationInstance(system, int(rng.integers(1, 4)), eps, pts, weights)


class TestGreedyMatchesScan:
    @pytest.mark.parametrize("m", [1, 2, 40, 64, 65, 150])
    @pytest.mark.parametrize("seed", range(16))
    def test_spanning_picks(self, seed, m):
        inst = random_greedy_instance(seed, m)
        assert _greedy_spanning_indices(inst) == reference_greedy_spanning(inst)

    @pytest.mark.parametrize("order", ["weight", "index"])
    @pytest.mark.parametrize("m", [1, 2, 40, 64, 65, 150])
    @pytest.mark.parametrize("seed", range(16))
    def test_separated_picks(self, seed, m, order):
        inst = random_greedy_instance(seed, m)
        if order == "index":
            # with zero weights the weight order is the index order
            inst.weights = np.zeros(m)
        assert _greedy_separated_indices(inst) == reference_greedy_separated(inst, order)

    def test_ties_go_to_lower_weight_then_lower_index(self):
        # three mutually close points: each covers all, so weight then index decides
        pts = [real(v) for v in (0.0, 0.01, 0.02)]
        inst = SeparationInstance(Rotation(0.1), 1, 0.1, pts, np.array([1.0, 0.0, 0.0]))
        assert _greedy_spanning_indices(inst) == [1]


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
        pot = Birkhoff(phi=lambda x: x, system=rot, name="x")
        inst = make_instance(rot, 1, 0.1, pts, pot)
        kept = greedy_separated(inst)
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
