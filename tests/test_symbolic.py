"""Exact shift-space backend: transfer sums versus literal enumeration."""

import math

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
from pdim.symbolic import (
    NotLocallyConstantError,
    deflated_scale,
    exact_growth_table,
    log_weighted_word_sum,
    log_word_count,
    required_length,
)
from pdim.systems import SFT, FullShift, golden_mean_sft, word_total


def enumerate_sum(system, potential, n, length):
    """Reference value: walk every admissible word explicitly."""
    vals = [potential.eval(n, system.representative(w))
            for w in system.admissible_words(length)]
    return math.log(math.fsum(math.exp(v) for v in vals))


FS = FullShift(2)
GM = golden_mean_sft()


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

    def test_zero_potential_gives_counts(self):
        for length in range(1, 9):
            assert log_weighted_word_sum(GM, zero_potential(GM), 1, length) == (
                pytest.approx(math.log(word_total(GM, length))))

    def test_scaled_cocycle_falls_back_to_enumeration(self):
        coc = MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS)
        lam = scale(0.5, coc)
        assert log_weighted_word_sum(FS, lam, 3, 3) == pytest.approx(
            enumerate_sum(FS, lam, 3, 3), abs=1e-12)
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sum(FS, lam, 3, 3, enumeration_cap=4)

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
        pot = Birkhoff(phi=lambda p: p.x, system=rot, name="x")
        with pytest.raises(NotLocallyConstantError):
            log_weighted_word_sum(FS, pot, 2, 4)

    def test_frozen_values(self):
        assert log_weighted_word_sum(FS, zero_potential(FS), 8, 8) == (
            pytest.approx(8 * math.log(2)))
        assert log_weighted_word_sum(FS, ConstantDrift(0.5, FS), 4, 4) == (
            pytest.approx(4 * 0.5 + 4 * math.log(2)))
        coc = MatrixCocycle([np.array([[2.0]]), np.array([[3.0]])], FS)
        assert log_weighted_word_sum(FS, coc, 3, 3) == pytest.approx(math.log(125.0))


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
