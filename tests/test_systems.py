"""Model systems: metrics, word machinery, candidate generation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pdim import systems
from pdim.systems import (
    WORD_BITS,
    BudgetExceededError,
    Contraction,
    DoublingMap,
    FullShift,
    PowerSystem,
    Rotation,
    SFT,
    RealGrid,
    ShiftSystem,
    Word,
    WordGrid,
    binary_expansion_map,
    golden_mean_sft,
    orbit_array,
    real,
    scale_index,
    shift_metric,
    shift_step,
    word_array,
    word_total,
)

from oneshot import admissible_words, identity_factor

rng = np.random.default_rng(12345)


def series_metric(x: Word, y: Word, terms: int = 80) -> float:
    # independent route: truncated series instead of the closed form
    return sum(2.0 ** (-i) for i in range(terms) if x.coord(i) != y.coord(i))


def random_word(system, length) -> Word:
    return system.sample_points(1, np.random.default_rng(int(rng.integers(1 << 30))),
                                length=length)[0]


class TestShiftMetric:
    def test_matches_series(self):
        fs = FullShift(2)
        for _ in range(200):
            x = random_word(fs, 12)
            y = random_word(fs, 12)
            assert shift_metric(x, y) == pytest.approx(series_metric(x, y), abs=1e-12)

    def test_tail_mismatch_closed_form(self):
        x = Word((0, 1), tail=0)
        y = Word((0, 1), tail=1)
        # coordinates 2, 3, ... all differ: sum 2^-i from i=2 is 2^-1
        assert shift_metric(x, y) == pytest.approx(0.5, abs=0)

    def test_axioms(self):
        fs = FullShift(3)
        pts = [random_word(fs, 10) for _ in range(12)]
        for x in pts:
            assert shift_metric(x, x) == 0.0
            for y in pts:
                assert shift_metric(x, y) == shift_metric(y, x)
                for z in pts:
                    assert shift_metric(x, z) <= shift_metric(x, y) + shift_metric(y, z) + 1e-12

    def test_bounded_by_two(self):
        x = Word((1, 1, 1), tail=1)
        y = Word((0, 0, 0), tail=0)
        assert shift_metric(x, y) == pytest.approx(2.0)


class TestWord:
    def test_coord_and_tail(self):
        w = Word((2, 0, 1), tail=1)
        assert [w.coord(i) for i in range(6)] == [2, 0, 1, 1, 1, 1]

    def test_shift(self):
        w = Word((2, 0, 1), tail=1)
        assert w.shift() == Word((0, 1), tail=1)
        assert Word((), 1).shift() == Word((), 1)

    def test_prefix(self):
        assert Word((1, 0), tail=1).prefix(4) == (1, 0, 1, 1)


def test_circle_metric_folds():
    rot = Rotation(0.2)
    assert rot.metric(real(0.1), real(0.9)) == pytest.approx(0.2)
    assert rot.metric(real(0.0), real(0.5)) == pytest.approx(0.5)
    assert rot.metric(real(0.25), real(0.3)) == pytest.approx(0.05)


class TestShiftSystems:
    def test_full_shift_counts(self):
        fs = FullShift(2)
        assert [word_total(fs, L) for L in range(1, 6)] == [2, 4, 8, 16, 32]
        assert word_total(FullShift(3), 4) == 81

    def test_golden_mean_counts_are_fibonacci(self):
        gm = golden_mean_sft()
        assert [word_total(gm, L) for L in range(1, 8)] == [2, 3, 5, 8, 13, 21, 34]

    def test_golden_mean_forbids_11(self):
        gm = golden_mean_sft()
        words = list(map(tuple, gm.word_rows(5).tolist()))
        assert len(words) == 13
        for w in words:
            assert (1, 1) not in zip(w, w[1:])

    def test_enumeration_matches_transfer_count(self):
        gm = golden_mean_sft()
        for L in range(1, 9):
            assert len(gm.word_rows(L)) == word_total(gm, L)

    def test_representatives_admissible(self):
        gm = golden_mean_sft()
        for w in map(tuple, gm.word_rows(5).tolist()):
            rep = gm.representative(w)
            assert rep.symbols[:5] == w
            full = rep.symbols + (rep.tail, rep.tail)
            assert all(gm.is_admissible_pair(a, b) for a, b in zip(full, full[1:]))

    def test_sft_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            SFT(((1, 1),))  # not square
        with pytest.raises(ValueError):
            SFT(((0, 0), (1, 1)))  # dead state
        with pytest.raises(ValueError):
            SFT(((0, 1), (1, 0)))  # no self-loop anywhere

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 0)), ((1, 1), (-1, 0)),
                                        ((1, 0.5), (1, 0)), ((1, 1), (1, 1.5))], ids=repr)
    def test_sft_entries_are_zero_or_one(self, matrix):
        # any nonzero entry once read as an allowed transition
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            SFT(matrix)


class TestScaleIndex:
    @pytest.mark.parametrize("eps,expect", [(2.0, 1), (1.0, 1), (0.5, 2),
                                            (0.3, 3), (0.25, 3), (0.125, 4)])
    def test_values(self, eps, expect):
        assert scale_index(eps) == expect

    @pytest.mark.parametrize("eps", [
        5e-324, 1e-310, 2.0 ** -1022, 1e-300, 0.1, math.nextafter(0.25, 0.0), 0.25,
        math.nextafter(0.25, 1.0), math.nextafter(1.0, 0.0), 1e308])
    def test_exact_for_every_positive_float(self, eps):
        # against exact rationals: the least c >= 0 with 2^-c <= eps, plus 1.
        # Just below 0.25, 1/eps rounds to 4 and log2 of it read c = 2; at a
        # subnormal eps the quotient is inf
        c = next(c for c in itertools.count() if Fraction(1, 2**c) <= Fraction(eps))
        assert scale_index(eps) == c + 1
    @pytest.mark.parametrize("eps", [0.0, -0.5, math.inf, math.nan])
    def test_needs_a_positive_finite_eps(self, eps):
        with pytest.raises(ValueError, match="positive finite"):
            scale_index(eps)


class TestBowenRadius:
    @pytest.mark.parametrize("system", [Rotation(0.3), Contraction(0.5, 0.2),
                                        PowerSystem(DoublingMap(), 2),
                                        PowerSystem(FullShift(2), 1)], ids=repr)
    def test_default_is_eps(self, system):
        for k in (1, 2, 7):
            for eps in (1e-3, 0.1, 0.5, math.inf):
                assert system.bowen_radius(k, eps) == eps

    def test_doubling_halves_per_step_below_a_quarter(self):
        dbl = DoublingMap()
        for k in (1, 2, 5, 40):
            r = dbl.bowen_radius(k, 0.1)
            assert 0.1 * 2.0 ** (1 - k) < r <= 0.1 * 2.0 ** (1 - k) * (1 + 2e-9) + 2.0 ** -50
        assert dbl.bowen_radius(10**6, 0.1) == 2.0 ** -50  # no overflow, the slack stays
        for eps in (0.25, 0.3, math.inf):
            assert dbl.bowen_radius(5, eps) == eps

    @pytest.mark.parametrize("system", [FullShift(2), FullShift(3), golden_mean_sft()],
                             ids=repr)
    def test_shift_radius_is_the_shared_prefix(self, system):
        # eps = 0.25 needs 2 more shared symbols: 2^(1 - p), p = k - 1 + 2
        assert [system.bowen_radius(k, 0.25) for k in (1, 2, 3)] == [0.5, 0.25, 0.125]
        assert system.bowen_radius(1, 0.3) == 0.5
        # eps = 2^-1074 needs 1074 more: the radius reaches 0 at k = 3
        assert [system.bowen_radius(k, 5e-324) for k in (1, 2, 3)] == [2.0 ** -1073, 5e-324, 0.0]
        assert system.bowen_radius(3000, 0.1) == 0.0
        for eps in (1.0, 2.0, math.inf):
            assert system.bowen_radius(4, eps) == eps


def coordinates_53(points) -> np.ndarray:
    """The bit planes by the 53-column formula: each word padded with its tail to WORD_BITS."""
    arr = systems.word_array(points, WORD_BITS)
    place = np.int64(1) << np.arange(WORD_BITS - 1, -1, -1, dtype=np.int64)
    planes = max(1, int(arr.max(initial=0)).bit_length())
    return np.stack([(arr >> b & 1) @ place for b in range(planes)], axis=-1)


def words_of(system, lengths, seed):
    """The empty word's representative and a random representative of each length,
    bridges included, up to WORD_BITS symbols."""
    gen = np.random.default_rng(seed)
    words = [system.representative(())] + [system.sample_points(1, gen, length=n)[0]
                                            for n in lengths]
    return [w for w in words if len(w.symbols) <= WORD_BITS]


WORD_SETS = {
    "mixed-lengths": [Word((1, 0, 1)), Word(()), Word((1,) * 52), Word((0, 1) * 26 + (1,)),
                      Word((1,))],
    "tail-1": [Word((0, 1, 0), tail=1), Word((), tail=1), Word((0,) * 20, tail=1)],
    "tail-2": [Word((0, 1, 0), tail=2), Word((), tail=2), Word((2, 2, 1, 0), tail=2)],
    "full_shift(3)": words_of(FullShift(3), [1, 4, 9, 30, 53], 3),
    "golden": words_of(golden_mean_sft(), [1, 2, 5, 12, 40, 52], 5),
    "empty-symbols": [Word(()), Word(())],
    "empty-symbols-tail-2": [Word((), tail=2)] * 3,
    # the tail enters only through the shorter word's padding
    "53-and-shorter": [Word((0, 1) * 26 + (0,), tail=2), Word((1,), tail=2)],
    "all-53-tail-2": [Word((0, 1) * 26 + (0,), tail=2), Word((1,) * 53, tail=2)],
    "none": [],
}


@pytest.mark.parametrize("name", sorted(WORD_SETS))
def test_word_coordinates_match_53_column_formula(name):
    words = WORD_SETS[name]
    assert len(words) >= 2 or name == "none"
    got, want = FullShift(3).coordinates(words), coordinates_53(words)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and (got == want).all()


def circle_distance(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


class TestSweepKey:
    """``System.sweep_key``: the metric is at least the distance of the keys."""

    @pytest.mark.parametrize("system", [DoublingMap(), Rotation(0.3), Contraction(0.5, 0.2),
                                        PowerSystem(DoublingMap(), 2),
                                        PowerSystem(Contraction(0.3, 0.9), 3)], ids=repr)
    def test_real_contract(self, system):
        gen = np.random.default_rng(4)
        xs = np.concatenate([gen.random(300), [0.0, 1.0, 0.5, 1e-17, 1 - 1e-16, 0.25]])
        key, period = system.sweep_key(xs)
        assert key.tolist() == xs.tolist()
        apart = circle_distance if period == 1.0 else lambda a, b: np.abs(a - b)
        assert period in (1.0, None)
        assert (system.metric_array(xs[:, None], xs) >= apart(key[:, None], key)).all()

    @pytest.mark.parametrize("system", [FullShift(2), FullShift(3), golden_mean_sft(),
                                        PowerSystem(FullShift(3), 2)], ids=repr)
    def test_word_contract(self, system):
        shift = system.base if isinstance(system, PowerSystem) else system
        words = words_of(shift, list(range(1, 54, 3)) * 8, 9)
        x = system.coordinates(words)
        for _ in range(4):  # the key holds at every time, not only at t = 0
            key, period = system.sweep_key(x)
            assert period is None
            assert (system.metric_array(x[:, None], x) >= np.abs(key[:, None] - key)).all()
            x = system.apply_array(x)

    def test_no_window_key(self):
        # a circle key must lie in [0, 1]; past it, and on the base system,
        # every point gets the default key 0 with no period: no window
        for system, xs in ((DoublingMap(), [0.2, 1.5]), (Rotation(0.3), [-0.1, 0.2]),
                           (Rotation(0.3), [np.nan, 0.2]), (systems.System(), [0.2])):
            key, period = system.sweep_key(np.array(xs))
            assert key.tolist() == [0.0] * len(xs) and period is None


class TestCandidateSets:
    def test_shift_candidates(self):
        fs = FullShift(2)
        cand = fs.candidate_set(2, 0.5)
        assert len(cand.points) == 2 ** (2 + scale_index(0.5))
        assert cand.certified

    def test_shift_budget_raises(self):
        with pytest.raises(BudgetExceededError):
            FullShift(2).candidate_set(40, 0.25, budget=1000)

    def test_shift_budget_message_names_the_length(self):
        # 2^20002 words: the count has more digits than int -> str allows
        with pytest.raises(BudgetExceededError,
                           match="^admissible words of length 20002 exceed budget 10$"):
            FullShift(2).candidate_set(20000, 0.5, budget=10)

    @pytest.mark.parametrize("n", [1024, 1025, 1026, 10**6])
    def test_doubling_grid_past_float_range_is_capped(self, n):
        # the mesh eps / (2 * 2^(n-1)) underflows or 2^(n-1) overflows
        cand = DoublingMap().candidate_set(n, 0.1, budget=50)
        assert not cand.certified
        assert len(cand.points) == 50

    def test_circle_grid_density(self):
        rot = Rotation(0.3)
        cand = rot.candidate_set(3, 0.1)
        assert cand.certified
        xs = sorted(p.x for p in cand.points)
        gaps = np.diff(xs + [xs[0] + 1.0])
        assert gaps.max() <= 0.05 + 1e-12  # mesh eps/2 for an isometry

    def test_circle_cap_flags_uncertified(self):
        cand = Rotation(0.3).candidate_set(2, 1e-7, budget=50)
        assert not cand.certified
        assert len(cand.points) == 50

    def test_doubling_mesh_shrinks_with_n(self):
        dbl = DoublingMap()
        c2 = dbl.candidate_set(2, 0.25)
        c5 = dbl.candidate_set(5, 0.25)
        assert len(c5.points) > len(c2.points)

    @pytest.mark.parametrize("eps", [5e-324, 1e-310])
    def test_contraction_grid_past_float_range_is_capped(self, eps):
        # the mesh eps / 2 underflows to 0, or 1 / mesh overflows
        cand = Contraction(0.5, 0.0).candidate_set(3, eps, budget=50)
        assert not cand.certified
        assert len(cand.points) == 51

    def test_contraction_grid_includes_endpoints(self):
        xs = [p.x for p in Contraction(0.5, 0.0).candidate_set(3, 0.5).points]
        assert 0.0 in xs and 1.0 in xs


def reference_points(system, cand):
    """The candidate list as built point by point before grids became arrays,
    for the grid size of ``cand``."""
    if isinstance(system, PowerSystem):
        return reference_points(system.base, cand)
    if isinstance(system, ShiftSystem):
        length = len(cand.points.rows[0])
        return [system.representative(w) for w in admissible_words(system, length)]
    if isinstance(system, Contraction):
        m = len(cand.points) - 1
        achieved = 1.0 / m
        return [real(min(1.0, i * achieved)) for i in range(m + 1)]
    m = len(cand.points)
    return [real(i / m) for i in range(m)]


GRID_SYSTEMS = {
    "rotation": Rotation(0.3),
    "doubling": DoublingMap(),
    "contraction": Contraction(0.45, 0.8),
    "full_shift(2)": FullShift(2),
    "full_shift(3)": FullShift(3),
    "full_shift(4)": FullShift(4),
    "golden": golden_mean_sft(),
    "sft(3)": SFT(((0, 1, 0), (0, 1, 1), (1, 0, 1))),
}
GRID_SYSTEMS |= {f"power2-{name}": PowerSystem(system, 2) for name, system in GRID_SYSTEMS.items()}
# (n, eps, budget): the last two cap the real grids (uncertified) below their mesh
GRID_CASES = [(1, 0.5, 2_000_000), (2, 0.25, 2_000_000), (3, 0.1, 2_000_000),
              (4, 0.003, 500), (1, 0.01, 37)]


class TestGridArrays:
    """Array grids against the point-by-point lists they replace, point for point."""

    @pytest.mark.parametrize("n, eps, budget", GRID_CASES)
    @pytest.mark.parametrize("name", GRID_SYSTEMS)
    def test_grid_equals_the_point_list(self, name, n, eps, budget):
        system = GRID_SYSTEMS[name]
        try:
            cand = system.candidate_set(n, eps, budget=budget)
        except BudgetExceededError:  # only word sets grow past the budgets here
            assert shift_step(system) is not None
            return
        points, ref = cand.points, reference_points(system, cand)
        assert isinstance(points, WordGrid if isinstance(ref[0], Word) else RealGrid)
        assert list(points) == ref and [points[i] for i in range(len(ref))] == ref
        assert points[-1] == ref[-1] and points[1:4] == ref[1:4]
        if isinstance(ref[0], Word):
            for length in (1, len(ref[0].symbols), len(ref[0].symbols) + 3):
                assert np.array_equal(word_array(points, length), word_array(ref, length))
        else:
            assert [p.x.hex() for p in points] == [p.x.hex() for p in ref]
        coords = system.coordinates(points)
        assert coords.dtype == system.coordinates(ref).dtype
        assert np.array_equal(coords, system.coordinates(ref))
        assert np.array_equal(orbit_array(system, 3, points), orbit_array(system, 3, ref))

    @pytest.mark.parametrize("name", ["full_shift(2)", "full_shift(3)", "full_shift(4)",
                                      "golden", "sft(3)"])
    def test_word_rows_follow_admissible_words(self, name):
        system = GRID_SYSTEMS[name]
        for length in range(1, 8):
            rows = system.word_rows(length)
            assert rows.dtype == np.int64 and rows.shape[1] == length
            assert list(map(tuple, rows.tolist())) == list(admissible_words(system, length))

    @pytest.mark.parametrize("m", [1, 3, 1000, 16383])
    def test_circle_floats_match_the_quotients(self, m):
        cand = Rotation(0.3).candidate_set(1, 2.0 / m)
        assert len(cand.points) == m
        assert [x.hex() for x in cand.points.rows.tolist()] == [(i / m).hex() for i in range(m)]

    def test_capped_grids_are_uncertified(self):
        assert not Rotation(0.3).candidate_set(1, 0.01, budget=37).certified
        assert not Contraction(0.45, 0.8).candidate_set(4, 0.003, budget=500).certified

    def test_grids_compare_by_array_and_system(self):
        fs, golden = FullShift(2), golden_mean_sft()
        assert fs.candidate_set(2, 0.25).points == fs.candidate_set(2, 0.25).points
        assert fs.candidate_set(2, 0.25).points != fs.candidate_set(3, 0.25).points
        assert WordGrid(fs, np.array([[0, 0], [1, 0]])) != WordGrid(golden, np.array([[0, 0], [1, 0]]))
        assert RealGrid(np.arange(4) / 4) == RealGrid(np.arange(4) / 4) != RealGrid(np.arange(5) / 5)
        assert RealGrid(np.arange(4) / 4) != WordGrid(fs, np.zeros((4, 1), dtype=np.int64))

    def test_grid_arrays_are_read_only(self):
        cand = FullShift(3).candidate_set(1, 0.5)
        for arr in (cand.points.rows, cand.points.symbols, Rotation(0.3).candidate_set(1, 0.1).points.rows):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestOrbitArray:
    def test_budget_is_checked_before_allocating(self, monkeypatch):
        pts = [real(v) for v in (0.1, 0.2, 0.3, 0.4)]
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 8 * 3 * 4)
        assert orbit_array(Rotation(0.3), 3, pts).shape == (3, 4)
        with pytest.raises(BudgetExceededError, match="4 points over 4 steps"):
            orbit_array(Rotation(0.3), 4, pts)

    def test_words_give_bit_planes(self, monkeypatch):
        # two planes for 3 symbols; the budget counts every plane entry
        words = [Word((2, 1)), Word((0,)), Word(())]
        orbit = orbit_array(PowerSystem(FullShift(3), 2), 2, words)
        assert orbit.shape == (2, 3, 2) and orbit.dtype == np.int64
        assert orbit[0, 0].tolist() == [1 << 51, 1 << 52] and not orbit[1].any()
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 8 * 2 * 5)
        with pytest.raises(BudgetExceededError, match="3 points over 2 steps"):
            orbit_array(FullShift(3), 2, words)

    @pytest.mark.parametrize("n", [10**12, 10**30])
    def test_huge_orbit_is_a_budget_error(self, n):
        with pytest.raises(BudgetExceededError, match="over the 2147483648-byte budget"):
            orbit_array(Rotation(0.3), n, [real(0.5)] * 20)


class TestDynamics:
    def test_bowen_monotone_in_n(self):
        for system in (DoublingMap(), Rotation(0.37)):
            pts = system.sample_points(8, np.random.default_rng(5))
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    prev = 0.0
                    for n in range(1, 6):
                        d = system.bowen_metric(n, pts[i], pts[j])
                        assert d >= prev - 1e-15
                        prev = d

    def test_doubling_expands(self):
        dbl = DoublingMap()
        assert dbl.apply(real(0.3)).x == pytest.approx(0.6)
        assert dbl.apply(real(0.7)).x == pytest.approx(0.4)

    def test_rotation_inverse_roundtrip(self):
        rot = Rotation(0.3)
        inv = rot.inverse()
        x = real(0.11)
        assert inv.apply(rot.apply(x)).x == pytest.approx(x.x, abs=1e-15)

    def test_rotation_is_isometry_in_bowen_metric(self):
        rot = Rotation(math.sqrt(2) - 1)
        x, y = real(0.2), real(0.55)
        for n in (1, 3, 7):
            assert rot.bowen_metric(n, x, y) == pytest.approx(rot.metric(x, y))

    def test_contraction_bowen_equals_base(self):
        con = Contraction(0.5, 0.25)
        x, y = real(0.1), real(0.9)
        assert con.bowen_metric(6, x, y) == pytest.approx(con.metric(x, y))

    def test_power_system(self):
        rot = Rotation(0.1)
        sq = PowerSystem(rot, 3)
        assert sq.apply(real(0.2)).x == pytest.approx(0.5)
        # candidate generation defers to the base system at the unrolled depth
        assert len(sq.candidate_set(2, 0.2).points) == len(rot.candidate_set(4, 0.2).points)

    def test_sample_points_deterministic(self):
        fs = FullShift(2)
        a = fs.sample_points(5, np.random.default_rng(9))
        b = fs.sample_points(5, np.random.default_rng(9))
        assert a == b


class TestFactorMaps:
    def test_binary_value(self):
        pi = binary_expansion_map()
        assert pi.apply(Word((1, 0, 1), tail=0)).x == pytest.approx(0.625)
        assert pi.apply(Word((0,), tail=0)).x == pytest.approx(0.0)

    def test_semiconjugacy_exact_on_words(self):
        pi = binary_expansion_map()
        # pi(T x) == S(pi x) exactly on every 6-word
        for w in admissible_words(pi.source, 6):
            x = pi.source.representative(w)
            a = pi.apply(pi.source.apply(x))
            b = pi.target.apply(pi.apply(x))
            assert pi.target.metric(a, b) == 0.0

    def test_modulus_contracts(self):
        pi = binary_expansion_map()
        assert pi.modulus(0.5) == pytest.approx(0.25)
        # points closer than delta in the shift land closer than eps below
        fs = pi.source
        for _ in range(50):
            x = random_word(fs, 10)
            y = random_word(fs, 10)
            for eps in (0.5, 0.25):
                if shift_metric(x, y) < pi.modulus(eps):
                    d = pi.target.metric(pi.apply(x), pi.apply(y))
                    assert d < eps

    def test_identity_factor(self):
        rot = Rotation(0.2)
        pi = identity_factor(rot)
        x = real(0.4)
        assert pi.apply(x) == x
        assert pi.modulus(0.125) == pytest.approx(0.125)
