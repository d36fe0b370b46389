"""Exact shift-space backend: transfer sums versus literal enumeration."""

import functools
import hashlib
import inspect
import itertools
import math
import random
import re
import textwrap

import numpy as np
import pytest

from pdim.partition import Estimator
from pdim.potentials import (
    Birkhoff,
    CoboundaryPotential,
    ConstantDrift,
    MatrixCocycle,
    add,
    coboundary_perturb,
    scale,
    symbol_weights,
    zero_potential,
)
from pdim import symbolic
from pdim.logsum import logsumexp
from pdim.symbolic import (
    MAX_SCALE_INDEX,
    TRANSFER_STATE_CAP,
    EnumerationCapError,
    NotLocallyConstantError,
    _log_matmul,
    deflated_scale,
    exact_growth_table,
    log_weighted_word_sum,
    log_weighted_word_tables,
    log_word_count,
)
from pdim.systems import SFT, BudgetExceededError, FullShift, golden_mean_sft, word_total

from oneshot import admissible_words, log_weighted_word_sums, required_length


def enumerate_sum(system, potential, n, length):
    """Reference value: walk every admissible word explicitly."""
    vals = [potential.eval(n, system.representative(w))
            for w in admissible_words(system, length)]
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
# a scaled cocycle enumerates words only when its matrices are at least 2 x 2:
# a 1 x 1 cocycle is a scalar window, exact at any scale
COCYCLE_2X2 = [np.array([[2.0, 1.0], [0.5, 1.0]]), np.array([[3.0, 0.2], [1.0, 1.5]])]


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
    # a reach-1 window added to a cocycle's log-matrices, one term per symbol
    cocycle = [np.array([[1.0, 0.4], [0.7, 1.2]]), np.array([[0.3, 2.0], [1.1, 0.5]])]
    yield FS, add(symbol_weights(FS, [0.4, -0.3]), MatrixCocycle(cocycle, FS))
    yield GM, add(MatrixCocycle(cocycle, GM), symbol_weights(GM, [-0.2, 0.9]))


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

    def test_coboundary_window_exact(self):
        phi = symbol_weights(FS, [0.2, -0.4])
        psi = symbol_weights(FS, [1.0, 3.0])
        pert = coboundary_perturb(phi, psi)
        for n in (1, 3, 5):
            length = required_length(pert, n)
            assert log_weighted_word_sum(FS, pert, n, length) == pytest.approx(
                enumerate_sum(FS, pert, n, length), abs=1e-10)

    @pytest.mark.parametrize("K", [2, 3])
    def test_coboundary_closed_form_at_large_n(self, K):
        # phi_n = sum_{i<n} a(x_i) + b(x_n) - b(x_0): position 0 weighs a - b,
        # positions 1..n-1 weigh a, position n weighs b, the rest are free
        def lse(v):
            return float(np.logaddexp.reduce(np.asarray(v)))

        system = FullShift(K)
        rng = np.random.default_rng(K)
        a, b = rng.normal(scale=1.5, size=K), rng.normal(scale=1.5, size=K)
        pert = coboundary_perturb(symbol_weights(system, a), symbol_weights(system, b))
        ns = [1, 2, 3, 10, 777, 4096, 10**4]
        for k in (1, 2, 3):
            got = log_weighted_word_sums(system, pert, ns, k)
            want = [(n - 1) * lse(a) + lse(a - b) + lse(b) + (k - 1) * math.log(K) for n in ns]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        # the window reaches x_n, one symbol past the first n
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sums(system, pert, ns, 0)

    @pytest.mark.parametrize("system", [FS, GM, FullShift(3)], ids=lambda s: s.label)
    def test_coboundary_of_a_coboundary_matches_enumeration(self, system):
        rng = random.Random(system.k + len(system.label))
        checked = 0
        for reaches in ((1, 1, 1), (2, 1, 2), (1, 2, 1)):
            phi, psi, chi = (random_table(rng, system, r, 1.0) for r in reaches)
            pert = coboundary_perturb(phi, coboundary_perturb(psi, chi))
            ns = [1, 2, 3, 4]
            # the inner window has reach max(r_psi, r_chi + 1) and the outer
            # max(r_phi, inner + 1); k starts at the outer reach - 1
            for k in range(max(reaches[0], reaches[1] + 1, reaches[2] + 2) - 1, 4):
                if word_total(system, max(ns) + k) > 4096:
                    continue  # keeps the enumeration reference quick
                got = log_weighted_word_sums(system, pert, ns, k)
                assert got == [log_weighted_word_sum(system, pert, n, n + k) for n in ns]
                assert got == pytest.approx(
                    [enumerate_sum(system, pert, n, n + k) for n in ns], rel=1e-12, abs=1e-12)
                checked += 1
        assert checked >= 3

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
        lam = scale(0.5, MatrixCocycle(COCYCLE_2X2, FS))
        assert log_weighted_word_sum(FS, lam, 3, 3) == pytest.approx(
            enumerate_sum(FS, lam, 3, 3), abs=1e-12)
        # 2^23 words exceed ENUMERATION_CAP = 2^22: a budget error, not a profile error
        with pytest.raises(EnumerationCapError) as err:
            log_weighted_word_sum(FS, lam, 3, 23)
        assert isinstance(err.value, BudgetExceededError)
        assert not isinstance(err.value, NotLocallyConstantError)

    @pytest.mark.parametrize("reach", (1, 2, 3))
    def test_a_table_makes_at_most_two_step_calls(self, reach):
        # the "on" matrix takes one call over every window; a reach-1 start
        # vector takes one more
        for system in (FS, FullShift(3), GM):
            table = random_table(random.Random(reach), system, reach, 1.0)
            calls = []
            pot = Birkhoff(phi=lambda w: calls.append(w.shape) or table.phi(w),
                           system=system, reach=reach)
            for k in range(reach - 1, reach + 2):
                calls.clear()
                log_weighted_word_sums(system, pot, [1, 2, 9, 17], k)
                assert len(calls) == (2 if reach == 1 else 1), (system.label, k)
                assert all(shape[1] == reach for shape in calls)

    def test_short_length_rejected(self):
        pot = symbol_weights(FS, [0.0, 1.0])
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sum(FS, pot, 5, 3)

    def test_coboundary_window_needs_longer_words(self):
        # the coboundary's step window reaches one symbol past psi's, so the
        # last one ends past position n and length n is short
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
        # coboundaries: one step window each, of reach max(r_phi, r_psi + 1),
        # here 2, 3 and 4, so its states hold 1, 2 and 3 symbols
        for reaches in ((2, 1), (3, 1), (1, 3)):
            yield system, coboundary_perturb(*map(table, reaches)), ns
        yield system, add(table(1), ConstantDrift(rng.uniform(-1.0, 1.0), system)), ns
        yield system, scale(rng.uniform(-2.0, 2.0), table(2)), ns
        for d in (1, 2, 3):
            yield system, cocycle(d), ns
        yield system, scale(0.5, cocycle(2)), [3, 1, 2, 3]  # walks every word


TABLE_CASES = list(table_cases())
# sha256 over float.hex of every valid table value, one digest without the
# coboundary cases and one over them alone.  The first holds the floats of
# the per-n repeated-squaring kernel from before the table form existed,
# except the cocycle sums, re-pinned when a matrix cocycle became a reach-1
# window of log-matrices, which moved them in the last digits only; the
# second was recorded when a coboundary became one step window of reach
# max(r_phi, r_psi + 1), which moved its sums in the last digits only
TABLE_SHA256 = {
    False: "a5c5cd23f3ab4d4509a89ee7162e71393c69b383939be02211ad92032ff022b1",
    True: "eb413f75f545c1dbaa481442f8350a1523756f3510901b25492e3b447a854cf2",
}


@pytest.fixture
def no_sums(monkeypatch):
    """Any word sum that starts fails the test."""
    def boom(*args, **kwargs):
        raise AssertionError("a word sum was computed before the checks")

    monkeypatch.setattr("pdim.symbolic._log_matmul", boom)
    monkeypatch.setattr("pdim.symbolic.logsumexp", boom)
    monkeypatch.setattr("pdim.symbolic.logsumexp_segments", boom)
    monkeypatch.setattr(FullShift, "word_rows", boom)


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

    @pytest.mark.parametrize("coboundary", [False, True], ids=["plain", "coboundary"])
    def test_table_values_are_the_recorded_kernel_floats(self, coboundary):
        digest = hashlib.sha256()
        for system, pot, ns in TABLE_CASES:
            if isinstance(pot, CoboundaryPotential) != coboundary:
                continue
            for k in range(4):
                try:
                    values = log_weighted_word_sums(system, pot, ns, k)
                except NotLocallyConstantError:
                    continue
                digest.update(",".join(v.hex() for v in values).encode() + b";")
        assert digest.hexdigest() == TABLE_SHA256[coboundary]

    def test_nonpositive_n_raises_before_any_sum(self, no_sums):
        with pytest.raises(ValueError, match="need n >= 1"):
            log_weighted_word_sums(FS, symbol_weights(FS, [0.1, 0.2]), [4, 2, 0], 1)

    def test_short_length_raises_before_any_sum(self, no_sums):
        pert = coboundary_perturb(symbol_weights(FS, [0.0, 1.0]), symbol_weights(FS, [2.0, 0.5]))
        with pytest.raises(NotLocallyConstantError, match="needs word length >= 5, got 4"):
            log_weighted_word_sums(FS, pert, [4, 6], 0)

    def test_cap_raises_before_any_sum(self, no_sums):
        lam = scale(0.5, MatrixCocycle(COCYCLE_2X2, FS))
        with pytest.raises(EnumerationCapError, match="words of length 23 exceeds cap 4194304"):
            log_weighted_word_sums(FS, lam, [3, 4, 23], 0)

    def test_cap_message_names_the_length_not_the_count(self, no_sums):
        # 2^20000 words: the count itself has more digits than int -> str allows
        lam = scale(0.5, MatrixCocycle(COCYCLE_2X2, FS))
        with pytest.raises(EnumerationCapError) as err:
            log_weighted_word_sums(FS, lam, [20000], 0)
        assert str(err.value) == ("enumeration fallback over the words of length 20000 "
                                  "exceeds cap 4194304")

    @pytest.mark.parametrize("system, pot", [
        (FullShift(10**9), zero_potential()),
        (FullShift(TRANSFER_STATE_CAP + 1), symbol_weights(
            FullShift(TRANSFER_STATE_CAP + 1), [0.0] * (TRANSFER_STATE_CAP + 1))),
        (FS, MatrixCocycle([np.ones((129, 129)), np.ones((129, 129))], FS)),
        # 4 states of a reach-3 window times dim 65: each term alone fits the
        # cap, with 4 and 2 * 65 states, and only the dim takes the sum past it
        (FS, add(random_table(random.Random(0), FS, 3, 1.0),
                 MatrixCocycle([np.ones((65, 65))] * 2, FS))),
    ], ids=["zero", "weights", "cocycle", "window+cocycle"])
    def test_state_cap_raises_before_states_are_listed(self, no_sums, monkeypatch,
                                                       system, pot):
        def boom(*args, **kwargs):
            raise AssertionError("transfer states were listed before the cap check")

        monkeypatch.setattr(FullShift, "word_rows", boom)
        with pytest.raises(BudgetExceededError, match=f"more than {TRANSFER_STATE_CAP} states"):
            log_weighted_word_sums(system, pot, [2, 3], 2)

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


def enumerate_table(system, pot, ns, k):
    """Reference: logsumexp of eval_array over every admissible word of length n + k."""
    return [logsumexp(pot.eval_array(n, [system.representative(w)
                                         for w in admissible_words(system, n + k)]))
            for n in ns]


def random_cocycle(rng, system, d):
    return MatrixCocycle([np.array([[rng.uniform(0.1, 3.0) for _ in range(d)]
                                    for _ in range(d)]) for _ in range(system.k)], system)


def check_against_enumeration(system, pot):
    """The profile's step shape, and its tables at k = reach - 1 to reach + 1
    against enumeration for n up to 5, at most 4096 words each."""
    prof = pot.shift_profile()
    windows = np.array(list(admissible_words(system, prof.reach)), dtype=np.int64)
    m, d = len(windows), prof.dim
    assert prof.step(windows).shape == ((m,) if d == 1 else (m, d, d)), pot.label
    checked = 0
    for k in range(prof.reach - 1, prof.reach + 2):
        ns = [n for n in range(1, 6) if word_total(system, n + k) <= 4096]
        assert log_weighted_word_sums(system, pot, ns, k) == pytest.approx(
            enumerate_table(system, pot, ns, k), rel=1e-12, abs=0.0), (pot.label, k)
        checked += len(ns)
    assert checked >= 6


MERGE_SYSTEMS = [FS, FullShift(3), GM]


class TestMergedWindow:
    """A d x d matrix cocycle is a reach-1 window of log-matrices, and the
    window of a sum is the Kronecker product of its terms' matrices, so sums
    of cocycles and windows, their coboundaries, and every scale, sum and
    coboundary of a 1 x 1 cocycle run through the one transfer chain."""

    @pytest.mark.parametrize("cocycle_first", [True, False],
                             ids=["cocycle+window", "window+cocycle"])
    @pytest.mark.parametrize("reach", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("system", MERGE_SYSTEMS, ids=lambda s: s.label)
    def test_cocycle_plus_window_matches_enumeration(self, system, d, reach, cocycle_first):
        rng = random.Random(f"{system.label}-{d}-{reach}-{cocycle_first}")
        cocycle, window = random_cocycle(rng, system, d), random_table(rng, system, reach, 1.0)
        pot = add(cocycle, window) if cocycle_first else add(window, cocycle)
        assert pot.shift_profile().dim == d
        check_against_enumeration(system, pot)

    @pytest.mark.parametrize("system", MERGE_SYSTEMS, ids=lambda s: s.label)
    def test_one_by_one_cocycles_are_exact_scalar_windows(self, system):
        rng = random.Random(system.label)
        window = random_table(rng, system, 2, 1.0)
        for pot in (scale(rng.uniform(-2.0, 2.0), random_cocycle(rng, system, 1)),
                    add(random_cocycle(rng, system, 1), random_cocycle(rng, system, 1)),
                    coboundary_perturb(window, random_cocycle(rng, system, 1)),
                    coboundary_perturb(random_cocycle(rng, system, 1), window)):
            prof = pot.shift_profile()
            assert prof.dim == 1 and prof.step is not None, pot.label
            check_against_enumeration(system, pot)

    @pytest.mark.parametrize("window_first", [False, True],
                             ids=["cocycles+window", "window+cocycles"])
    @pytest.mark.parametrize("reach", [1, 2, 3])
    @pytest.mark.parametrize("terms", [2, 3])
    @pytest.mark.parametrize("system", MERGE_SYSTEMS, ids=lambda s: s.label)
    def test_sums_of_cocycles_match_enumeration(self, system, terms, reach, window_first):
        rng = random.Random(f"{system.label}-{terms}-{reach}-{window_first}")
        dims = [rng.randint(1, 3) for _ in range(terms)]
        pots = [random_cocycle(rng, system, d) for d in dims]
        window = random_table(rng, system, reach, 1.0)
        pots = [window] + pots if window_first else pots + [window]
        pot = functools.reduce(add, pots)
        prof = pot.shift_profile()
        assert (prof.dim, prof.reach) == (math.prod(dims), reach)
        check_against_enumeration(system, pot)

    @pytest.mark.parametrize("system", MERGE_SYSTEMS, ids=lambda s: s.label)
    def test_coboundaries_over_cocycles_match_enumeration(self, system):
        rng = random.Random(f"coboundary-{system.label}")

        def window():
            return random_table(rng, system, rng.randint(1, 2), 1.0)

        def cocycles():
            return add(random_cocycle(rng, system, 2), random_cocycle(rng, system, 3))

        for dim, pot in (
                (3, coboundary_perturb(random_cocycle(rng, system, 3), window())),
                (6, coboundary_perturb(cocycles(), window())),
                (6, coboundary_perturb(cocycles(), coboundary_perturb(window(), window()))),
                (6, coboundary_perturb(coboundary_perturb(cocycles(), window()), window())),
                (2, add(window(), coboundary_perturb(random_cocycle(rng, system, 2), window())))):
            assert pot.shift_profile().dim == dim, pot.label
            check_against_enumeration(system, pot)

    def test_two_matrix_terms_have_a_kronecker_profile(self):
        # the sum's log-matrix at row (i, k), column (j, l) is x[i, j] + y[k, l]
        a, b = MatrixCocycle(COCYCLE_2X2, FS), MatrixCocycle(COCYCLE_2X2[::-1], FS)
        prof = add(a, b).shift_profile()
        assert (prof.reach, prof.dim) == (1, 4) and prof.step is not None
        logs = prof.step(np.array([[0], [1]], dtype=np.int64))
        for s in (0, 1):
            want = np.kron(COCYCLE_2X2[s], COCYCLE_2X2[1 - s])
            assert np.exp(logs[s]) == pytest.approx(want, rel=1e-15)
        check_against_enumeration(FS, add(a, b))

    def test_a_scaled_matrix_term_enumerates(self):
        # a norm power other than 1 does not add in log space: a sum with such
        # a term has a window of no step, whose tables enumerate words; sums,
        # scales and coboundaries of it keep the marker
        weights = symbol_weights(FS, [0.1, 0.2])
        scaled = add(scale(0.5, MatrixCocycle(COCYCLE_2X2, FS)), weights)
        cases = [(scaled, 1),
                 (coboundary_perturb(weights, MatrixCocycle(COCYCLE_2X2, FS)), 2),
                 (scale(-1.5, scaled), 1), (add(weights, scaled), 1),
                 (coboundary_perturb(weights, scaled), 2),
                 (add(scaled, coboundary_perturb(weights, weights)), 2)]
        for pot, reach in cases:
            prof = pot.shift_profile()
            assert (prof.reach, prof.step) == (reach, None), pot.label
            for k in range(reach - 1, reach + 2):
                ns = list(range(1, 6))
                assert log_weighted_word_sums(FS, pot, ns, k) == \
                    enumerate_table(FS, pot, ns, k), (pot.label, k)
        # sum over the words w of e^(0.5 log 1^T A_w 1 + weights), by per-word products
        assert log_weighted_word_sums(FS, scaled, [2, 3], 0) == pytest.approx(
            [3.002396812962586, 4.35529581698792], rel=1e-12, abs=0.0)
        with pytest.raises(EnumerationCapError, match="words of length 23 exceeds cap"):
            log_weighted_word_sums(FS, scaled, [23], 0)
        # a norm power of 1 keeps the chain
        assert scale(1.0, MatrixCocycle(COCYCLE_2X2, FS)).shift_profile().dim == 2


def batch_members(rng, system):
    """A mixed batch on one system: symbol weights, drift, a sum, scales,
    coboundaries of reach 2 and 3, cocycles with d = 1, 2, 3 and one scaled
    cocycle, which enumerates words."""
    def weights():
        return symbol_weights(system, [rng.uniform(-1.5, 1.5) for _ in range(system.k)])

    return [
        weights(), weights(),
        ConstantDrift(rng.uniform(-1.0, 1.0), system),
        add(weights(), ConstantDrift(rng.uniform(-1.0, 1.0), system)),
        scale(rng.uniform(-2.0, 2.0), weights()),
        scale(rng.uniform(-2.0, 2.0), random_table(rng, system, 2, 1.0)),
        coboundary_perturb(weights(), weights()),
        coboundary_perturb(random_table(rng, system, 2, 1.0), weights()),
        coboundary_perturb(weights(), random_table(rng, system, 2, 1.0)),
        random_cocycle(rng, system, 1), random_cocycle(rng, system, 2),
        random_cocycle(rng, system, 3), random_cocycle(rng, system, 2),
        add(random_cocycle(rng, system, 2), weights()),
        scale(0.5, random_cocycle(rng, system, 2)),
    ]


BATCH_SYSTEMS = [FS, FullShift(3), GM, SFT(((1, 1, 0), (0, 1, 1), (1, 0, 1)))]


def single_tables(system, pots, ns, k):
    """Reference: one log_weighted_word_sums call per potential, as hex floats."""
    return [[v.hex() for v in log_weighted_word_sums(system, pot, ns, k)] for pot in pots]


def batched_tables(system, pots, ns, k):
    return [[v.hex() for v in table]
            for [table] in log_weighted_word_tables(system, pots, ns, [k])]


def valid_members(system, pots, ns, k):
    """The members whose single table exists at this k."""
    out = []
    for pot in pots:
        try:
            log_weighted_word_sums(system, pot, ns, k)
        except NotLocallyConstantError:
            continue
        out.append(pot)
    return out


class TestBatchedTables:
    """log_weighted_word_tables stacks the members of one profile shape and
    must give each member its single table, bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("system", BATCH_SYSTEMS, ids=lambda s: s.label)
    def test_batch_equals_single_calls_bit_for_bit(self, system, seed):
        rng = random.Random(f"{system.label}-{seed}")
        pots = batch_members(rng, system)
        checked = 0
        for k in range(4):
            members = valid_members(system, pots, [1, 2], k)
            rng.shuffle(members)
            # unsorted, with repeats; the enumerating member keeps n + k small
            ns = [rng.randint(1, 9 - k) for _ in range(rng.randint(1, 7))]
            ns += ns[:2]
            assert batched_tables(system, members, ns, k) == single_tables(system, members, ns, k)
            checked += len(members)
        assert checked >= 40

    @pytest.mark.parametrize("system", BATCH_SYSTEMS + [FullShift(4)], ids=lambda s: s.label)
    def test_start_sums_are_the_start_rows_logsumexp(self, system):
        # n = 1, k = 0 is each member's start-vector sum, from one segmented
        # pass over the stacked start vectors: each equals logsumexp of its own
        # start row, bit for bit.  The equal weights and the cocycle whose
        # matrices are all one tie every state at the maximum; 3 x 3
        # cocycles on 4 symbols give rows of 12 states
        rng = random.Random(f"start-{system.label}")
        tied = np.array([[1.0, 2.0], [2.0, 0.5]])
        pots = [symbol_weights(system, [0.5] * system.k),
                symbol_weights(system, [0.7] * 2 + [rng.uniform(-1.0, 0.7) for _ in range(system.k - 2)]),
                symbol_weights(system, [rng.uniform(-1.0, 1.0) for _ in range(system.k)]),
                MatrixCocycle([tied] * system.k, system),
                random_cocycle(rng, system, 2), random_cocycle(rng, system, 3),
                random_cocycle(rng, system, 3)]
        states = system.word_rows(1)
        tables = log_weighted_word_tables(system, pots, [1, 2], [0, 1])
        for pot, [[value, _], _] in zip(pots, tables):
            first = pot.shift_profile().step(states)
            start = first if first.ndim == 1 else np.logaddexp.reduce(first, axis=1).reshape(-1)
            assert value == logsumexp(start), pot.label

    def test_batches_on_long_tables(self):
        # a shared ladder squared past n = 10^4, rows that need different bits
        rng = random.Random(4)
        pots = valid_members(GM, batch_members(rng, GM)[:-1], [1], 2)
        ns = [10**4, 3, 777, 1, 10**4, 4096]
        assert batched_tables(GM, pots, ns, 2) == single_tables(GM, pots, ns, 2)

    @staticmethod
    def faulty_group(monkeypatch, fault):
        """Run every group through ``fault(steps)``, which rewires the members'
        step calls; the "on" block comes from each member's first call and a
        reach-1 start vector from its second."""
        real = symbolic._group_tables

        def group(system, reach, d, steps, ns, ks):
            return real(system, reach, d, fault(steps) if len(steps) > 1 else steps, ns, ks)

        monkeypatch.setattr(symbolic, "_group_tables", group)

    @staticmethod
    def nth_call(first, later):
        calls = []

        def step(w):
            calls.append(None)
            return first(w) if len(calls) == 1 else later(w)

        return step

    @pytest.mark.parametrize("fault", ["borrowed on block", "dropped start vector"])
    def test_property_catches_a_miswired_batch(self, monkeypatch, fault):
        rng = random.Random(9)
        pots = [symbol_weights(FS, [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
                for _ in range(3)]
        ns, k = [3, 1, 5, 3], 1
        assert batched_tables(FS, pots, ns, k) == single_tables(FS, pots, ns, k)
        if fault == "borrowed on block":
            def rewire(steps):
                return [steps[0], self.nth_call(steps[0], steps[1]), *steps[2:]]
        else:
            def rewire(steps):
                return [steps[0], self.nth_call(steps[1], lambda w: 0.0 * steps[1](w)),
                        *steps[2:]]
        self.faulty_group(monkeypatch, rewire)
        assert batched_tables(FS, pots, ns, k) != single_tables(FS, pots, ns, k)

    def test_empty_batch_and_empty_ns(self, no_sums):
        from pdim.systems import Rotation

        no_profile = Birkhoff(phi=lambda x: x, system=Rotation(0.3), name="x")
        assert log_weighted_word_tables(FS, [], [1, 2], [0]) == []
        pots = [symbol_weights(FS, [0.1, 0.2]), no_profile, MatrixCocycle(COCYCLE_2X2, FS)]
        assert log_weighted_word_tables(FS, pots, [], [2]) == [[[]], [[]], [[]]]

    @pytest.mark.parametrize("bad", ["not locally constant", "too short", "n < 1", "enumeration"])
    def test_a_bad_member_raises_its_single_error_before_any_sum(self, no_sums, bad):
        from pdim.systems import Rotation

        pert = coboundary_perturb(symbol_weights(FS, [0.0, 1.0]), symbol_weights(FS, [2.0, 0.5]))
        ns, k = [4, 2, 6], 0
        pot = {
            "not locally constant": Birkhoff(phi=lambda x: x, system=Rotation(0.3), name="x"),
            "too short": pert,
            "n < 1": symbol_weights(FS, [0.1, 0.2]),
            "enumeration": scale(0.5, MatrixCocycle(COCYCLE_2X2, FS)),
        }[bad]
        if bad == "n < 1":
            ns = [4, 0]
        if bad == "enumeration":
            ns = [3, 23]
        with pytest.raises(Exception) as single:
            log_weighted_word_sums(FS, pot, ns, k)
        batch = [symbol_weights(FS, [0.3, 0.4]), MatrixCocycle(COCYCLE_2X2, FS), pot,
                 symbol_weights(FS, [0.5, 0.6])]
        with pytest.raises(type(single.value)) as batched:
            log_weighted_word_tables(FS, batch, ns, [k])
        assert type(batched.value) is type(single.value)
        assert str(batched.value) == str(single.value)

    def test_state_cap_is_checked_once_per_group_before_states_are_listed(
            self, no_sums, monkeypatch):
        events = []
        real_check, real_words = symbolic._check_states, FullShift.word_rows

        def check(count, system):
            events.append(("cap", count))
            real_check(count, system)

        def words(self, length):
            events.append(("states", length))
            return real_words(self, length)

        monkeypatch.setattr(symbolic, "_check_states", check)
        monkeypatch.setattr(FullShift, "word_rows", words)
        rng = random.Random(2)
        # three groups: (reach 1, dim 1) twice, (reach 3, dim 1) twice, (reach 1, dim 2)
        batch = [symbol_weights(FS, [0.1, 0.2]), random_table(rng, FS, 3, 1.0),
                 MatrixCocycle(COCYCLE_2X2, FS), ConstantDrift(0.3, FS),
                 random_table(rng, FS, 3, 1.0)]
        # the no_sums fixture stops the first product, after every group is built
        with pytest.raises(AssertionError, match="before the checks"):
            log_weighted_word_tables(FS, batch, [2, 3], [2])
        caps = [e for e in events if e[0] == "cap"]
        assert sorted(caps) == [("cap", 2), ("cap", 4), ("cap", 4)]
        assert events[:3] == caps
        # one group past the cap stops the batch before any state is listed
        events.clear()
        monkeypatch.setattr(symbolic, "TRANSFER_STATE_CAP", 3)
        with pytest.raises(BudgetExceededError, match="more than 3 states"):
            log_weighted_word_tables(FS, batch, [2, 3], [2])
        assert all(e[0] == "cap" for e in events)

    def test_temporaries_stay_within_the_entry_bound(self, monkeypatch):
        """Every product's temporary, batch x rows x S x U, stays within
        _ENTRIES, cut along the batch axis and the rows, and the values do
        not move."""
        rng = random.Random(6)
        pots = ([random_table(rng, FS, 3, 1.0) for _ in range(20)]
                + [random_cocycle(rng, FS, 3) for _ in range(5)])
        ns, k = [1, 17, 5, 300, 2], 3
        want = batched_tables(FS, pots, ns, k)
        sizes = []

        class Reduce:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def reduce(self, x, axis):
                if axis == -2:  # a product's temporary
                    sizes.append(x.size)
                return self.ufunc.reduce(x, axis=axis)

        class Numpy:
            logaddexp = Reduce(np.logaddexp)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(symbolic, "np", Numpy())
        monkeypatch.setattr(symbolic, "_ENTRIES", 64)
        assert batched_tables(FS, pots, ns, k) == want
        assert sizes and max(sizes) <= 64
        # a 16-row stack of 4 x 4 squarings: 1024 entries at once, cut in 16
        sizes.clear()
        a = np.log(np.random.default_rng(0).uniform(0.1, 2.0, size=(16, 4, 4)))
        a[3, :, 1] = -np.inf
        got = symbolic._log_matmul(a, a)
        assert len(sizes) == 16 and max(sizes) == 64
        assert got.tobytes() == np.stack([symbolic._log_matmul(m, m) for m in a]).tobytes()
        # one member over the bound: its rows are cut
        sizes.clear()
        big = np.zeros((2, 9, 5))
        assert symbolic._log_matmul(big, np.zeros((5, 5))).shape == (2, 9, 5)
        assert max(sizes) <= 64


def multi_k_tables(system, pots, ns, ks):
    """Per potential, one table per k as hex floats, from one call over every k."""
    return [[[v.hex() for v in table] for table in per_k]
            for per_k in log_weighted_word_tables(system, pots, ns, ks)]


def one_k_tables(system, pots, ns, ks):
    """Reference: one log_weighted_word_sums call per (potential, k), as hex floats."""
    return [[[v.hex() for v in log_weighted_word_sums(system, pot, ns, k)] for k in ks]
            for pot in pots]


def ladder_members(rng, system):
    """Scalar windows of reach 1 and 3, a 3 x 3 cocycle, a Kronecker sum of two
    cocycles and a coboundary of reach 3."""
    def weights():
        return symbol_weights(system, [rng.uniform(-1.5, 1.5) for _ in range(system.k)])

    return [
        weights(),
        random_table(rng, system, 3, 1.0),
        random_cocycle(rng, system, 3),
        add(random_cocycle(rng, system, 2), random_cocycle(rng, system, 2)),
        coboundary_perturb(weights(), random_table(rng, system, 2, 1.0)),
    ]


def group_tables_copy(find: str, replace: str):
    """A copy of ``_group_tables`` with ``find`` replaced once in its source."""
    source = textwrap.dedent(inspect.getsource(symbolic._group_tables))
    assert not find or source.count(find) == 1
    scope = dict(vars(symbolic))
    exec(compile(source.replace(find, replace), symbolic.__file__, "exec"), scope)
    return scope["_group_tables"]


class TestScaleLadder:
    """One call over several scale indices shares the states, the "on" ladder
    and the free squares, and must give each k its one-k table, bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("system", [FS, FullShift(3), GM], ids=lambda s: s.label)
    def test_every_k_equals_its_one_k_call(self, system, seed):
        rng = random.Random(f"ladder-{system.label}-{seed}")
        pots = ladder_members(rng, system)
        # reach 3 needs k >= 2; unsorted, with repeats, past the largest k's
        # first free square
        ks = [rng.randint(2, 9) for _ in range(4)] + [2, 5]
        rng.shuffle(ks)
        ns = [rng.randint(1, 60) for _ in range(5)] + [1]
        assert multi_k_tables(system, pots, ns, ks) == one_k_tables(system, pots, ns, ks)

    @pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
    def test_ks_in_any_order(self, order):
        rng = random.Random(order)
        pots = ladder_members(rng, FS)[:1] + [ConstantDrift(0.3, FS),
                                              MatrixCocycle(COCYCLE_2X2, FS)]
        ks = {"ascending": [0, 1, 2, 3, 7], "descending": [7, 3, 2, 1, 0],
              "repeated": [3, 0, 3, 1, 0, 3]}[order]
        ns = [1, 2, 9, 1, 300]
        got = log_weighted_word_tables(FS, pots, ns, ks)
        assert [[[v.hex() for v in t] for t in per_k] for per_k in got] == \
            one_k_tables(FS, pots, ns, ks)
        assert all(len(per_k) == len(ks) for per_k in got)

    @pytest.mark.parametrize("system", [FS, GM], ids=lambda s: s.label)
    def test_start_vector_case_at_n_1_k_0(self, system):
        # reach 1 at n = 1, k = 0 takes the start vector's sum, beside rows
        # that chain at other k
        cocycle = [np.array(m) for m in COCYCLE_2X2]
        pots = [symbol_weights(system, [0.3, -0.7]), MatrixCocycle(cocycle, system),
                add(MatrixCocycle(cocycle, system), symbol_weights(system, [0.1, 0.2]))]
        ns = [1, 2, 5]
        for ks in ([0], [0, 1, 4], [4, 0]):
            assert multi_k_tables(system, pots, ns, ks) == one_k_tables(system, pots, ns, ks)
        for pot in pots:
            [[[at_1]]] = log_weighted_word_tables(system, [pot], [1], [0])
            assert at_1 == pytest.approx(enumerate_table(system, pot, [1], 0)[0], rel=1e-14)

    def test_long_tables_share_one_ladder(self):
        rng = random.Random(11)
        pots = ladder_members(rng, GM)
        ns, ks = [10**4, 3, 777, 1, 4096], [2, 40, 3, 1055]
        assert multi_k_tables(GM, pots, ns, ks) == one_k_tables(GM, pots, ns, ks)

    def test_k_below_reach_minus_one_raises_before_any_table(self, no_sums, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a table was built before the checks")

        monkeypatch.setattr(symbolic, "_group_tables", boom)
        pots = [symbol_weights(FS, [0.1, 0.2]), random_table(random.Random(1), FS, 3, 1.0)]
        # the reach-3 window needs k >= 2; k = 1 comes after k = 4 and 2
        with pytest.raises(NotLocallyConstantError, match="needs word length >= 4, got 3"):
            log_weighted_word_tables(FS, pots, [2, 1], [4, 2, 1, 3])

    def test_growth_table_is_k_major_in_scales_order(self):
        pot = add(random_table(random.Random(2), FS, 2, 1.0), ConstantDrift(0.4, FS))
        ks, ns = [3, 1, 2, 1], range(2, 9, 3)
        want = [row for k in ks for row in exact_growth_table(FS, pot, k, ns)]
        assert exact_growth_table(FS, pot, ks, ns) == want
        with pytest.raises(ValueError, match="scale index must be in"):
            exact_growth_table(FS, pot, [1, MAX_SCALE_INDEX + 1], ns)

    @pytest.mark.parametrize("find, replace", [
        ("", ""),
        ("[k - reach + 1] * len(n_at)", "[ks[0] - reach + 1] * len(n_at)"),
        ("for k in ks] for t in range(T)]", "for k in ks[::-1]] for t in range(T)]"),
    ], ids=["as-is", "first-k-free-tail-for-every-k", "swapped-ks"])
    def test_copied_ladder_with_fault_fails(self, monkeypatch, find, replace):
        # a copy of the ladder, with the fault put into its source, fails the
        # one-k comparison on several ks
        rng = random.Random(5)
        pots = ladder_members(rng, FS)
        ns, ks = [1, 4, 17], [2, 5, 3]
        want = one_k_tables(FS, pots, ns, ks)
        monkeypatch.setattr(symbolic, "_group_tables", group_tables_copy(find, replace))
        got = multi_k_tables(FS, pots, ns, ks)
        assert (got == want) if not find else (got != want)


class TestEnumerationGrid:
    """A window with no step enumerates its words as one WordGrid per (n, k)."""

    def test_no_word_objects_and_enumerated_values(self, monkeypatch):
        from pdim.systems import Word

        pot = add(scale(0.5, MatrixCocycle(COCYCLE_2X2, FS)), symbol_weights(FS, [0.1, -0.3]))
        assert pot.shift_profile().step is None
        ns, ks = [1, 6, 3], [0, 2]
        want = [enumerate_table(FS, pot, ns, k) for k in ks]
        built = []
        real_init = Word.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Word, "__init__", counting)
        [got] = log_weighted_word_tables(FS, [pot], ns, ks)
        assert built == []
        assert got == want

    def test_golden_mean_enumeration(self):
        pot = scale(0.5, MatrixCocycle(COCYCLE_2X2, GM))
        ns = [1, 2, 7]
        for k in (0, 1, 3):
            assert log_weighted_word_sums(GM, pot, ns, k) == enumerate_table(GM, pot, ns, k)


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

    def test_scale_index_past_float_range_rejected(self):
        # from k = 1056 the deflated scale rounds up to 2^-k, from 1075 to 0.0
        assert 0 < deflated_scale(MAX_SCALE_INDEX) < 2.0 ** -MAX_SCALE_INDEX
        assert not deflated_scale(MAX_SCALE_INDEX + 1) < 2.0 ** -(MAX_SCALE_INDEX + 1)
        rows = exact_growth_table(FS, zero_potential(FS), MAX_SCALE_INDEX, [1, 2])
        assert rows[0].log_value == pytest.approx((1 + MAX_SCALE_INDEX) * math.log(2))
        for k in (MAX_SCALE_INDEX + 1, 1075, 1200):
            with pytest.raises(ValueError, match="scale index must be in"):
                exact_growth_table(FS, zero_potential(FS), k, [1, 2])


class TestIntegerIndices:
    # every n and k is read through operator.index, so no numpy integer
    # reaches the int.bit_length of _log_power_rows
    CASES = [
        (FullShift(2), zero_potential()),
        (golden_mean_sft(), symbol_weights(golden_mean_sft(), [0.3, -0.2])),
        (FullShift(3), Birkhoff(phi=lambda w: 0.1 * w[:, 0] - 0.2 * w[:, 1], system=FullShift(3),
                                reach=2, name="pair")),
        (FullShift(2), MatrixCocycle([np.array([[1.0, 0.5], [0.2, 1.0]]),
                                      np.array([[0.7, 0.1], [0.3, 1.2]])], FullShift(2))),
    ]

    @pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_numpy_integers_give_the_same_floats(self, case, numpy_int):
        system, pot = self.CASES[case]
        ns, ks = [1, 2, 5, 9], [1, 2, 3]
        as_numpy = ([numpy_int(n) for n in ns], [numpy_int(k) for k in ks])
        assert (log_weighted_word_tables(system, [pot], *as_numpy)
                == log_weighted_word_tables(system, [pot], ns, ks))
        assert (log_weighted_word_sums(system, pot, as_numpy[0], numpy_int(2))
                == log_weighted_word_sums(system, pot, ns, 2))
        assert (exact_growth_table(system, pot, numpy_int(2), np.array(ns, dtype=numpy_int))
                == exact_growth_table(system, pot, 2, ns))
        assert (exact_growth_table(system, pot, np.array(ks, dtype=numpy_int), ns)
                == exact_growth_table(system, pot, ks, ns))

    @pytest.mark.parametrize("call, value", [
        (lambda: log_weighted_word_tables(FullShift(2), [zero_potential()], [3], [1.0]), "1.0"),
        (lambda: log_weighted_word_tables(FullShift(2), [zero_potential()], [2.0], [1]), "2.0"),
        (lambda: log_weighted_word_sums(FullShift(2), zero_potential(), [3], np.float64(2.0)),
         "2.0"),
        (lambda: exact_growth_table(FullShift(2), zero_potential(), 2.0, [1, 2]), "2.0"),
        (lambda: exact_growth_table(FullShift(2), zero_potential(), 1, [1, 2.5]), "2.5"),
    ])
    def test_float_indices_raise_type_error_naming_the_value(self, call, value):
        with pytest.raises(TypeError, match=f"must be an integer, got .*{re.escape(value)}"):
            call()


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
