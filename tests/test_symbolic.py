"""Exact shift-space backend: transfer sums versus literal enumeration."""

import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest

from pdim.partition import Estimator
from pdim.potentials import (
    Birkhoff,
    ConstantDrift,
    MatrixCocycle,
    add,
    coboundary_perturb,
    scale,
    symbol_weights,
    zero_potential,
)
from pdim import symbolic
from pdim.symbolic import (
    TRANSFER_STATE_CAP,
    EnumerationCapError,
    NotLocallyConstantError,
    _log_matmul,
    deflated_scale,
    exact_growth_table,
    log_weighted_word_sum,
    log_weighted_word_sums,
    log_word_count,
    required_length,
)
from pdim.systems import SFT, BudgetExceededError, FullShift, golden_mean_sft, word_total


def enumerate_sum(system, potential, n, length):
    """Reference value: walk every admissible word explicitly."""
    vals = [potential.eval(n, system.representative(w))
            for w in system.admissible_words(length)]
    top = max(vals)
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


def golden_weight_closed_form(length, w):
    """log sum over golden-mean words of e^(w * number of ones): words of
    length L with m ones, no two adjacent, number C(L - m + 1, m)."""
    def log_comb(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    terms = [log_comb(length - m + 1, m) + w * m for m in range((length + 1) // 2 + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


FS = FullShift(2)
GM = golden_mean_sft()


def random_sft(rng, k):
    """A random SFT on k symbols; retries matrices the SFT constructor rejects."""
    while True:
        try:
            return SFT([[int(rng.random() < 0.6) for _ in range(k)] for _ in range(k)])
        except ValueError:
            pass


def random_table(rng, system, reach, spread):
    """Birkhoff potential reading a random weight off the first `reach` symbols."""
    table = {w: rng.uniform(-2.0 * spread, 2.0 * spread)
             for w in itertools.product(range(system.k), repeat=reach)}
    return Birkhoff(phi=lambda w: np.array([table[tuple(row)] for row in w.tolist()]),
                    system=system, reach=reach, name=f"table{reach}")


KINDS = ("table", "coboundary", "add", "scale", "cocycle")


def random_case(seed, spread=1.0):
    """Seeds 0..29 pair every profile kind with every k in {2, 3, 4}, once on
    the full shift (seeds < 15) and once on a random SFT.  Table weights
    scale with spread; at spread > 1 cocycle entries are e^u with |u| <= 100."""
    rng = random.Random(seed)
    kind, k = KINDS[seed % 5], (2, 3, 4)[seed % 3]
    system = FullShift(k) if seed < 15 else random_sft(rng, k)

    def table(*reaches):
        return random_table(rng, system, rng.choice(reaches), spread)

    if kind == "table":
        return system, table(1, 2, 3)
    if kind == "coboundary":
        return system, coboundary_perturb(table(1, 2), table(1, 2))
    if kind == "add":
        return system, add(table(1, 2), ConstantDrift(rng.uniform(-spread, spread), system))
    if kind == "scale":
        return system, scale(rng.uniform(-2.0, 2.0), table(1, 2))
    d = rng.choice((1, 2, 3))

    def entry():
        if spread == 1.0:
            return rng.uniform(0.1, 3.0)
        return math.exp(rng.uniform(-100.0, 100.0))

    mats = [np.array([[entry() for _ in range(d)] for _ in range(d)]) for _ in range(k)]
    return system, MatrixCocycle(mats, system)


def scenarios():
    yield FS, zero_potential(FS)
    yield FS, ConstantDrift(0.7, FS)
    yield FS, symbol_weights(FS, [0.3, -0.9])
    yield GM, symbol_weights(GM, [0.5, 0.2])
    yield FS, MatrixCocycle([np.array([[1.0, 1.0], [0.5, 1.0]]),
                             np.array([[2.0, 0.1], [0.1, 0.3]])], FS)
    yield FS, add(symbol_weights(FS, [0.4, 0.0]), ConstantDrift(-0.2, FS))
    yield FS, scale(1.5, symbol_weights(FS, [0.1, 0.6]))


class TestWordSums:
    @pytest.mark.parametrize("case", list(scenarios()),
                             ids=lambda c: c[1].label)
    def test_transfer_matches_enumeration(self, case):
        system, pot = case
        for n in (1, 2, 4, 6):
            for extra in (0, 1, 3):
                length = required_length(pot, n) + extra
                assert log_weighted_word_sum(system, pot, n, length) == (
                    pytest.approx(enumerate_sum(system, pot, n, length), abs=1e-10))

    def test_coboundary_boundary_terms_exact(self):
        phi = symbol_weights(FS, [0.2, -0.4])
        psi = symbol_weights(FS, [1.0, 3.0])
        pert = coboundary_perturb(phi, psi)
        for n in (1, 3, 5):
            length = required_length(pert, n)
            assert log_weighted_word_sum(FS, pert, n, length) == pytest.approx(
                enumerate_sum(FS, pert, n, length), abs=1e-10)

    # at spread 500 the entries of one transfer matrix lie up to e^2000 apart,
    # far beyond the range of a float
    @pytest.mark.parametrize("spread", [1.0, 500.0])
    @pytest.mark.parametrize("seed", range(30))
    def test_kernel_matches_enumeration_on_random_cases(self, seed, spread):
        system, pot = random_case(seed, spread)
        checked = 0
        for n in (1, 2, 3, 5):
            for extra in (0, 1, 2):
                length = required_length(pot, n) + extra
                if word_total(system, length) > 4096:
                    continue  # keeps the enumeration reference quick
                assert log_weighted_word_sum(system, pot, n, length) == pytest.approx(
                    enumerate_sum(system, pot, n, length), rel=1e-12, abs=1e-12 * spread)
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("pot", [
        symbol_weights(GM, [0.0, 1000.0]),
        scale(800.0, symbol_weights(GM, [0.0, 1.25])),
    ], ids=["weights", "scale"])
    def test_weights_far_apart_on_golden_mean(self, pot):
        # a 1 must be followed by a 0, so every heavy word also steps into 0,
        # whose transfer entries are e^-1000 times the largest one
        for n in (1, 2, 3, 6, 11):
            for length in (n, n + 1, n + 3):
                assert log_weighted_word_sum(GM, pot, n, length) == pytest.approx(
                    enumerate_sum(GM, pot, n, length), rel=1e-12)
        for n in (10**3, 10**3 + 1, 10**4):
            assert log_weighted_word_sum(GM, pot, n, n) == pytest.approx(
                golden_weight_closed_form(n, 1000.0), rel=1e-12)

    def test_log_matmul_matches_linear_product(self):
        # 130 x 130 factors run in three row chunks
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(130, 130)), rng.normal(size=(130, 130))
        b[:, 3] = -np.inf
        with np.errstate(divide="ignore"):
            expected = np.log(np.exp(a) @ np.exp(b))
        got = _log_matmul(a, b)
        assert np.all(got[:, 3] == -np.inf)
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_large_n_closed_forms(self):
        n = 10**6
        assert log_weighted_word_sum(FS, ConstantDrift(0.5, FS), n, n + 2) == (
            pytest.approx((n + 2) * math.log(2) + 0.5 * n, rel=1e-12))
        coc = MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS)
        n = 10**5
        assert log_weighted_word_sum(FS, coc, n, n) == pytest.approx(n * math.log(5), rel=1e-12)
        n = 10**4
        assert log_weighted_word_sum(GM, zero_potential(GM), n, n + 2) == (
            pytest.approx(math.log(word_total(GM, n + 2)), rel=1e-12))

    def test_zero_potential_gives_counts(self):
        for length in range(1, 9):
            assert log_weighted_word_sum(GM, zero_potential(GM), 1, length) == (
                pytest.approx(math.log(word_total(GM, length))))

    def test_scaled_cocycle_falls_back_to_enumeration(self):
        coc = MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS)
        lam = scale(0.5, coc)
        assert log_weighted_word_sum(FS, lam, 3, 3) == pytest.approx(
            enumerate_sum(FS, lam, 3, 3), abs=1e-12)
        # 2^23 words exceed ENUMERATION_CAP = 2^22: a budget error, not a profile error
        with pytest.raises(EnumerationCapError) as err:
            log_weighted_word_sum(FS, lam, 3, 23)
        assert isinstance(err.value, BudgetExceededError)
        assert not isinstance(err.value, NotLocallyConstantError)

    def test_short_length_rejected(self):
        pot = symbol_weights(FS, [0.0, 1.0])
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sum(FS, pot, 5, 3)

    def test_boundary_terms_need_longer_words(self):
        # the coboundary's end term reaches past position n, so length n is short
        pert = coboundary_perturb(symbol_weights(FS, [0.0, 1.0]),
                                  symbol_weights(FS, [2.0, 0.5]))
        assert required_length(pert, 1) > 1
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sum(FS, pert, 1, 1)

    def test_metric_potential_rejected(self):
        from pdim.systems import Rotation, real

        rot = Rotation(0.3)
        pot = Birkhoff(phi=lambda x: x, system=rot, name="x")
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sum(FS, pot, 2, 4)

    def test_frozen_values(self):
        assert log_weighted_word_sum(FS, zero_potential(FS), 8, 8) == (
            pytest.approx(8 * math.log(2)))
        assert log_weighted_word_sum(FS, ConstantDrift(0.5, FS), 4, 4) == (
            pytest.approx(4 * 0.5 + 4 * math.log(2)))
        coc = MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS)
        assert log_weighted_word_sum(FS, coc, 3, 3) == pytest.approx(math.log(125.0))


def table_cases():
    """(system, potential, ns) for every profile kind on full_shift(2),
    full_shift(3) and a random 3-symbol SFT: Birkhoff tables of reach 1-3,
    coboundaries, add, scale, plain cocycles with d = 1, 2, 3
    and a scaled cocycle, which enumerates words."""
    rng = random.Random(11)
    for system in (FullShift(2), FullShift(3), random_sft(rng, 3)):
        def table(reach):
            return random_table(rng, system, reach, 1.0)

        def cocycle(d):
            return MatrixCocycle([np.array([[rng.uniform(0.1, 3.0) for _ in range(d)]
                                            for _ in range(d)]) for _ in range(system.k)], system)

        # unsorted and repeated; 1 with k = 0 on a reach-1 window is the
        # start vector alone
        ns = [5, 1, 3, 3, 9, 2, 17, 1]
        for reach in (1, 2, 3):
            yield system, table(reach), ns
        # boundary terms; with reaches 3 and 1 the end term fires inside the
        # start vector at n = 1, and with 1 and 3 the step window starts late
        for reaches in ((2, 1), (3, 1), (1, 3)):
            yield system, coboundary_perturb(*map(table, reaches)), ns
        yield system, add(table(1), ConstantDrift(rng.uniform(-1.0, 1.0), system)), ns
        yield system, scale(rng.uniform(-2.0, 2.0), table(2)), ns
        for d in (1, 2, 3):
            yield system, cocycle(d), ns
        yield system, scale(0.5, cocycle(2)), [3, 1, 2, 3]  # walks every word


TABLE_CASES = list(table_cases())
# sha256 over float.hex of every valid table value, as the per-n
# repeated-squaring kernel computed them before the table form existed
TABLE_SHA256 = "69d72e3fb7aa92885fdc99224f4a570b9109db441dc75fe2f8a87085de1d7062"


class TestTableForm:
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: f"{c[0].label}-{c[1].label}")
    def test_table_equals_single_calls(self, case, k):
        system, pot, ns = case
        try:
            expected = [log_weighted_word_sum(system, pot, n, n + k) for n in ns]
        except NotLocallyConstantError as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                log_weighted_word_sums(system, pot, ns, k)
        else:
            assert log_weighted_word_sums(system, pot, ns, k) == expected

    def test_table_values_are_the_recorded_kernel_floats(self):
        digest = hashlib.sha256()
        for system, pot, ns in TABLE_CASES:
            for k in range(4):
                try:
                    values = log_weighted_word_sums(system, pot, ns, k)
                except NotLocallyConstantError:
                    continue
                digest.update(",".join(v.hex() for v in values).encode() + b";")
        assert digest.hexdigest() == TABLE_SHA256

    @pytest.fixture
    def no_sums(self, monkeypatch):
        """Any word sum that starts fails the test."""
        def boom(*args, **kwargs):
            raise AssertionError("a word sum was computed before the checks")

        monkeypatch.setattr("pdim.symbolic._log_matmul", boom)
        monkeypatch.setattr("pdim.symbolic.logsumexp", boom)
        monkeypatch.setattr(FullShift, "representative", boom)

    def test_nonpositive_n_raises_before_any_sum(self, no_sums):
        with pytest.raises(ValueError, match="need n >= 1"):
            log_weighted_word_sums(FS, symbol_weights(FS, [0.1, 0.2]), [4, 2, 0], 1)

    def test_short_length_raises_before_any_sum(self, no_sums):
        pert = coboundary_perturb(symbol_weights(FS, [0.0, 1.0]), symbol_weights(FS, [2.0, 0.5]))
        with pytest.raises(NotLocallyConstantError, match="needs word length >= 5, got 4"):
            log_weighted_word_sums(FS, pert, [4, 6], 0)

    def test_cap_raises_before_any_sum(self, no_sums):
        lam = scale(0.5, MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS))
        with pytest.raises(EnumerationCapError, match="words of length 23 exceeds cap 4194304"):
            log_weighted_word_sums(FS, lam, [3, 4, 23], 0)

    def test_cap_message_names_the_length_not_the_count(self, no_sums):
        # 2^20000 words: the count itself has more digits than int -> str allows
        lam = scale(0.5, MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS))
        with pytest.raises(EnumerationCapError) as err:
            log_weighted_word_sums(FS, lam, [20000], 0)
        assert str(err.value) == ("enumeration fallback over the words of length 20000 "
                                  "exceeds cap 4194304")

    @pytest.mark.parametrize("system, pot", [
        (FullShift(10**9), zero_potential()),
        (FullShift(TRANSFER_STATE_CAP + 1), symbol_weights(
            FullShift(TRANSFER_STATE_CAP + 1), [0.0] * (TRANSFER_STATE_CAP + 1))),
        (FS, MatrixCocycle([np.ones((129, 129)), np.ones((129, 129))], FS)),
    ], ids=["zero", "weights", "cocycle"])
    def test_state_cap_raises_before_states_are_listed(self, no_sums, monkeypatch,
                                                       system, pot):
        def boom(*args, **kwargs):
            raise AssertionError("transfer states were listed before the cap check")

        monkeypatch.setattr(FullShift, "admissible_words", boom)
        with pytest.raises(BudgetExceededError, match=f"more than {TRANSFER_STATE_CAP} states"):
            log_weighted_word_sums(system, pot, [2, 3], 1)

    def test_state_cap_boundary(self, monkeypatch):
        # 3 states on the 3-shift, 2 * 2 on a 2-shift cocycle of 2 x 2 matrices
        weights = symbol_weights(FullShift(3), [0.1, 0.2, 0.3])
        cocycle = MatrixCocycle([np.eye(2) + 1.0, np.eye(2) + 2.0], FS)
        monkeypatch.setattr(symbolic, "TRANSFER_STATE_CAP", 4)
        log_weighted_word_sums(FullShift(3), weights, [2], 1)
        log_weighted_word_sums(FS, cocycle, [2], 1)
        monkeypatch.setattr(symbolic, "TRANSFER_STATE_CAP", 3)
        log_weighted_word_sums(FullShift(3), weights, [2], 1)
        with pytest.raises(BudgetExceededError):
            log_weighted_word_sums(FS, cocycle, [2], 1)
        monkeypatch.setattr(symbolic, "TRANSFER_STATE_CAP", 2)
        with pytest.raises(BudgetExceededError):
            log_weighted_word_sums(FullShift(3), weights, [2], 1)

    def test_empty_table_is_empty(self, no_sums):
        from pdim.systems import Rotation

        no_profile = Birkhoff(phi=lambda x: x, system=Rotation(0.3), name="x")
        for pot in (no_profile, symbol_weights(FS, [0.1, 0.2])):
            assert log_weighted_word_sums(FS, pot, [], 2) == []
            assert exact_growth_table(FS, pot, 2, []) == []

    def test_large_n_table_matches_closed_form(self):
        ns = [10**4, 1, 10**6, 777]
        got = log_weighted_word_sums(FS, ConstantDrift(0.5, FS), ns, 2)
        assert got == [log_weighted_word_sum(FS, ConstantDrift(0.5, FS), n, n + 2) for n in ns]
        assert got == pytest.approx([(n + 2) * math.log(2) + 0.5 * n for n in ns], rel=1e-12)


class TestGrowthTables:
    def test_deflated_scale_sits_under_dyadic(self):
        for k in range(5):
            assert 0 < deflated_scale(k) < 2.0 ** (-k)
            assert deflated_scale(k) == pytest.approx(2.0 ** (-k), rel=1e-5)

    def test_table_structure(self):
        rows = exact_growth_table(FS, zero_potential(FS), 2, range(1, 5))
        assert len(rows) == 8
        seps = [r for r in rows if r.estimator == Estimator.SEPARATED]
        spans = [r for r in rows if r.estimator == Estimator.SPANNING]
        assert [r.n for r in seps] == [1, 2, 3, 4]
        for s, sp in zip(seps, spans):
            assert s.log_value == sp.log_value  # same family, both exact
            assert s.scale == pytest.approx(deflated_scale(2))
            assert sp.scale == pytest.approx(0.5)  # one dyadic level coarser
            assert s.exact and sp.exact
            assert s.log_value == pytest.approx((s.n + 2) * math.log(2))

    def test_negative_scale_index_rejected(self):
        with pytest.raises(ValueError):
            exact_growth_table(FS, zero_potential(FS), -1, range(1, 3))


class TestWordCounts:
    def test_full_shift_closed_form(self):
        assert log_word_count(FullShift(3), 10) == pytest.approx(10 * math.log(3))

    def test_golden_mean_fibonacci(self):
        assert log_word_count(GM, 6) == pytest.approx(math.log(21.0))

    def test_three_state_sft(self):
        m = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        sys3 = SFT(m)
        a = np.array(m)
        for length in range(1, 7):
            assert word_total(sys3, length) == int((np.linalg.matrix_power(a, length - 1)).sum())

    def test_word_total_matches_step_loop(self):
        rng = random.Random(3)
        for _ in range(20):
            system = random_sft(rng, rng.choice((2, 3, 4)))
            counts = [1] * system.k
            for length in range(1, 41):
                assert word_total(system, length) == sum(counts)
                counts = [sum(counts[b] for b in range(system.k)
                              if system.is_admissible_pair(a, b)) for a in range(system.k)]

    def test_capped_word_total_saturates(self):
        rng = random.Random(5)
        systems = [FS, FullShift(3), GM] + [random_sft(rng, rng.choice((2, 3, 4)))
                                            for _ in range(10)]
        for system in systems:
            for length in range(0, 30):
                total = word_total(system, length)
                for cap in (1, 2, 7, 100, 4096):
                    assert word_total(system, length, cap=cap) == min(total, cap + 1)

    def test_capped_word_total_at_huge_length(self):
        # saturated counts stay small, so no 2^(10^18) integer is ever built
        assert word_total(GM, 10**18, cap=1000) == 1001
        assert word_total(FS, 10**18, cap=1000) == 1001
        assert word_total(FullShift(10**30), 1, cap=5) == 6

    def test_word_total_fibonacci_at_large_length(self):
        length = 10**4
        fib = [0, 1]
        while len(fib) < length + 3:
            fib.append(fib[-1] + fib[-2])
        assert word_total(GM, length) == fib[length + 2]
