"""Potential sequences: evaluation, composition algebra, additivity defects."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from pdim import potentials
from pdim.cli import build_potential, build_system
from pdim.partition import make_instance
from pdim.potentials import (
    Birkhoff,
    CoboundaryPotential,
    ConstantDrift,
    InverseTwistPotential,
    MatrixCocycle,
    Potential,
    PullbackPotential,
    ScaledPotential,
    SumPotential,
    TimePowerPotential,
    add,
    coboundary_perturb,
    inverse_twist,
    pullback,
    scale,
    sup_inf_norm,
    symbol_weights,
    time_power,
    verify_almost_additive,
    zero_potential,
)
from pdim.systems import (
    SFT,
    Contraction,
    DoublingMap,
    FullShift,
    PowerSystem,
    RealPoint,
    Rotation,
    Word,
    binary_expansion_map,
    golden_mean_sft,
    identity_factor,
    real,
)

FS = FullShift(2)


def test_constant_drift_eval():
    d = ConstantDrift(0.7, FS)
    assert d.eval(5, Word((0, 1), 0)) == pytest.approx(3.5)
    assert d.C == 0.0


def test_zero_potential_is_zero():
    z = zero_potential(FS)
    assert z.eval(9, Word((1,), 0)) == 0.0


def test_birkhoff_is_exactly_additive():
    dbl = DoublingMap()
    phi = Birkhoff(phi=lambda x: x, system=dbl, name="x")
    x = real(0.137)
    for n in (1, 2, 4):
        for m in (1, 3):
            whole = phi.eval(n + m, x)
            split = phi.eval(n, x) + phi.eval(m, dbl.iterate(x, n))
            assert whole == pytest.approx(split, abs=1e-12)
    assert verify_almost_additive(phi, dbl) <= 1e-12


def test_symbol_weights_eval():
    pot = symbol_weights(FS, [0.25, -1.0])
    w = Word((1, 0, 1, 1), 0)
    # phi_3 reads symbols 1, 0, 1
    assert pot.eval(3, w) == pytest.approx(-1.0 + 0.25 - 1.0)
    with pytest.raises(ValueError):
        symbol_weights(FS, [0.1])


class TestMatrixCocycle:
    def test_constant_matches_for_1x1(self):
        mc = MatrixCocycle(([[2.0]], [[3.0]]), FS)
        assert mc.C == pytest.approx(math.log(3.0 / 2.0))

    def test_eval_vs_direct_product(self):
        mats = (np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([[3.0, 1.0], [1.0, 2.0]]))
        mc = MatrixCocycle(tuple(m.tolist() for m in mats), FS)
        gen = np.random.default_rng(3)
        for _ in range(20):
            w = tuple(int(v) for v in gen.integers(0, 2, size=6))
            prod = np.eye(2)
            for s in w:
                prod = prod @ mats[s]
            assert mc.eval(6, Word(w, 0)) == pytest.approx(math.log(prod.sum()), rel=1e-12)

    def test_rescaling_survives_overflow(self):
        mc = MatrixCocycle(([[1e200]], [[1e200]]), FS)
        v = mc.eval(4, Word((0, 1, 0, 1), 0))
        assert math.isfinite(v)
        assert v == pytest.approx(4 * math.log(1e200))

    def test_almost_additive_within_constant(self):
        gen = np.random.default_rng(11)
        mats = tuple((gen.uniform(0.5, 4.0, size=(3, 3))).tolist() for _ in range(2))
        mc = MatrixCocycle(mats, FS)
        assert verify_almost_additive(mc, FS, sample_count=25) <= 1e-12

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            MatrixCocycle(([[1.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]), FS)

    @staticmethod
    def per_word_loop(mc, n, points):
        """Reference: one normalized product per word, step by step."""
        out = np.zeros(len(points))
        for row, x in enumerate(points if n >= 1 else []):
            logshift = 0.0
            prod = mc.mats[x.coord(0)].copy()
            for i in range(1, n):
                s = prod.sum()
                logshift += math.log(s)
                prod = (prod / s) @ mc.mats[x.coord(i)]
            out[row] = logshift + math.log(prod.sum())
        return out

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("system", [FS, FullShift(3), golden_mean_sft()],
                             ids=lambda s: s.label)
    def test_eval_array_is_the_per_word_loop_bit_for_bit(self, system, d):
        # random words of random lengths with their own tails, entries e^u
        # with |u| <= 30, so the normalization carries most of each weight
        gen = np.random.default_rng(d * 10 + system.k)
        mats = [np.exp(gen.uniform(-30.0, 30.0, size=(d, d))) for _ in range(system.k)]
        mc = MatrixCocycle(mats, system)
        words = [Word(tuple(int(s) for s in gen.integers(0, system.k, size=gen.integers(0, 12))),
                      int(gen.integers(0, system.k))) for _ in range(200)]
        for n in (0, 1, 2, 5, 11, 14):
            assert mc.eval_array(n, words).tobytes() == self.per_word_loop(mc, n, words).tobytes()
        assert mc.eval_array(3, []).shape == (0,)


class TestAlgebra:
    def test_add_and_scale_eval(self):
        a = symbol_weights(FS, [0.2, -0.3])
        b = ConstantDrift(1.0, FS)
        w = Word((0, 1, 1), 0)
        assert add(a, b).eval(3, w) == pytest.approx(a.eval(3, w) + 3.0)
        assert scale(-2.0, a).eval(3, w) == pytest.approx(-2.0 * a.eval(3, w))
        assert scale(-2.0, a).C == pytest.approx(2.0 * a.C)
        assert add(a, b).C == pytest.approx(a.C + b.C)

    def test_pullback_evaluates_downstairs(self):
        pi = binary_expansion_map()
        pot = Birkhoff(phi=lambda x: x, system=pi.target, name="x")
        lifted = pullback(pot, pi)
        w = pi.source.representative((1, 0, 1, 0))
        assert lifted.eval(3, w) == pytest.approx(pot.eval(3, pi.apply(w)))
        assert lifted.system is pi.source

    def test_time_power_reads_nk_steps(self):
        pot = symbol_weights(FS, [0.5, 2.0])
        pk = time_power(pot, 3)
        w = Word((0, 1, 1, 0, 1, 0), 0)
        assert pk.eval(2, w) == pytest.approx(pot.eval(6, w))
        assert pk.C == pytest.approx(pot.C * 4)

    def test_inverse_twist_on_rotation(self):
        rot = Rotation(0.125)
        pot = Birkhoff(phi=lambda x: x, system=rot, name="x")
        tw = inverse_twist(pot)
        inv = rot.inverse()
        x = real(0.5)
        # phi'_2(x) = phi(T^-1 x) + phi(T^-1 (T^-1 x) shifted back) = phi_2 at T^-(n-1)
        expect = pot.eval(2, inv.iterate(x, 1))
        assert tw.eval(2, x) == pytest.approx(expect)
        assert tw.system.theta == pytest.approx(0.875)

    def test_coboundary_telescopes_for_additive_psi(self):
        phi = symbol_weights(FS, [0.3, -0.1])
        psi = symbol_weights(FS, [0.2, 0.4])
        pert = coboundary_perturb(phi, psi)
        w = Word((1, 0, 0, 1, 1, 0), 0)
        n = 4
        shifted = FS.apply(w)
        expect = phi.eval(n, w) + psi.eval(n, shifted) - psi.eval(n, w)
        assert pert.eval(n, w) == pytest.approx(expect)
        assert pert.C == pytest.approx(phi.C + 2 * psi.C)


class TestVerifyAlmostAdditive:
    def test_flags_a_false_claim(self):
        class Superlinear(Potential):
            system = FS
            C = 0.0
            label = "n_squared"

            def eval_array(self, n, points):
                return np.full(len(points), 0.01 * n * n)

        assert verify_almost_additive(Superlinear(), FS) > 0.0

    def test_golden_mean_sampling(self):
        gm = golden_mean_sft()
        pot = symbol_weights(gm, [0.1, 0.7])
        assert verify_almost_additive(pot, gm) <= 1e-12


def test_sup_inf_norm_and_modulus():
    dbl = DoublingMap()
    phi = Birkhoff(phi=lambda x: x, system=dbl, name="x")
    # keep the sample inside one arc: phi(x) = x wraps discontinuously at 0
    pts = [real(v) for v in np.linspace(0.0, 0.6, 25)]
    report = sup_inf_norm(phi, dbl, pts)
    assert report.sup == pytest.approx(0.6)
    assert report.inf == pytest.approx(0.0)
    assert report.modulus(0.05) <= 0.05 * (1 + 1e-9)
    assert report.modulus(0.3) <= 0.3 * (1 + 1e-9)
    assert report.modulus(0.05) <= report.modulus(0.3)


# ---------------------------------------------------------------------------
# array form: eval_array is the one formula, eval its one-point case


def reference(pot, n, x):
    """phi_n(x) by the per-point formulas that eval_array replaced."""
    if isinstance(pot, ConstantDrift):
        return n * pot.A
    if isinstance(pot, Birkhoff):
        total, z = 0.0, x
        for _ in range(n):
            row = [z.x] if isinstance(z, RealPoint) else [z.prefix(pot.reach)]
            total += float(pot.phi(np.array(row))[0])
            z = pot.system.apply(z)
        return total
    if isinstance(pot, MatrixCocycle):
        if n < 1:
            return 0.0
        logshift = 0.0
        prod = pot.mats[x.coord(0)].copy()
        for i in range(1, n):
            s = prod.sum()
            logshift += math.log(s)
            prod = (prod / s) @ pot.mats[x.coord(i)]
        return logshift + math.log(prod.sum())
    if isinstance(pot, SumPotential):
        return reference(pot.left, n, x) + reference(pot.right, n, x)
    if isinstance(pot, ScaledPotential):
        return pot.lam * reference(pot.inner, n, x)
    if isinstance(pot, PullbackPotential):
        return reference(pot.inner, n, pot.factor.apply(x))
    if isinstance(pot, TimePowerPotential):
        return reference(pot.inner, n * pot.k, x)
    if isinstance(pot, InverseTwistPotential):
        return reference(pot.inner, n, pot.system.iterate(x, n - 1) if n > 1 else x)
    if isinstance(pot, CoboundaryPotential):
        return (reference(pot.base, n, x) + reference(pot.psi, n, pot.system.apply(x))
                - reference(pot.psi, n, x))
    raise TypeError(pot)


def real_cases(system, rng):
    """Every potential kind a real system takes, plain and nested."""
    cos = build_potential({"kind": "birkhoff", "fn": "cos2pi"}, system)
    ident = build_potential({"kind": "birkhoff", "fn": "x"}, system)
    ind = build_potential({"kind": "birkhoff", "fn": "indicator", "lo": 0.2, "hi": 0.6}, system)
    trig = Birkhoff(phi=lambda x: 0.3 * np.sin(2 * np.pi * x) - 0.1, system=system, name="sin")
    drift = ConstantDrift(float(rng.normal()), system)
    pots = [cos, ident, ind, trig, drift, add(cos, drift), scale(-1.7, ind),
            coboundary_perturb(trig, ident), time_power(cos, 2),
            pullback(add(trig, ind), identity_factor(system)),
            scale(0.5, add(coboundary_perturb(ind, cos), scale(2.0, ident))),
            coboundary_perturb(time_power(add(cos, drift), 3), time_power(ident, 3))]
    if isinstance(system, Rotation):
        pots += [inverse_twist(cos), inverse_twist(add(ind, scale(-0.5, trig))),
                 coboundary_perturb(inverse_twist(trig), inverse_twist(cos)),
                 time_power(inverse_twist(scale(1.5, ident)), 2)]
    return pots


def real_points(system, rng):
    # random points, a grid, and the endpoints the indicator and contraction meet
    xs = list(rng.random(30)) + [i / 16 for i in range(16)] + [0.2, 0.6]
    if isinstance(system, Contraction) or (
            isinstance(system, PowerSystem) and isinstance(system.base, Contraction)):
        xs.append(1.0)
    return [real(float(v)) for v in xs]


REAL_SYSTEMS = {
    "rotation": Rotation(0.3),
    "doubling": DoublingMap(),
    "contraction": Contraction(0.6, 0.2),
    "power-rotation": PowerSystem(Rotation(0.17), 3),
    "power-doubling": PowerSystem(DoublingMap(), 2),
    "power-contraction": PowerSystem(Contraction(0.4, 0.7), 2),
}


def mixed_words(system, rng, count=40):
    """Admissible words of lengths 0..9 whose tails are self-loop symbols."""
    loops = [s for s in range(system.k) if system.is_admissible_pair(s, s)]
    out = []
    for _ in range(count):
        tail = int(rng.choice(loops))
        w = [tail]
        for _ in range(int(rng.integers(0, 10))):  # grow leftward into the tail
            w.insert(0, int(rng.choice([s for s in range(system.k)
                                        if system.is_admissible_pair(s, w[0])])))
        out.append(Word(tuple(w[:-1]), tail))
    return out


def window_table(system, reach, rng):
    table = {w: float(rng.normal()) for w in itertools.product(range(system.k), repeat=reach)}
    return Birkhoff(phi=lambda w: np.array([table[tuple(row)] for row in w.tolist()]),
                    system=system, reach=reach, name=f"table{reach}")


def shift_cases(system, rng):
    sw = symbol_weights(system, rng.normal(size=system.k))
    t2 = window_table(system, 2, rng)
    t3 = window_table(system, 3, rng)
    mats = tuple(rng.uniform(0.3, 2.0, size=(2, 2)).tolist() for _ in range(system.k))
    mc = MatrixCocycle(mats, system)
    drift = ConstantDrift(0.25, system)
    return [sw, t2, t3, mc, add(sw, mc), scale(-0.5, t3), coboundary_perturb(sw, t2),
            time_power(t2, 2), add(ConstantDrift(-0.5), time_power(mc, 3)),
            scale(1.5, coboundary_perturb(add(t3, drift), scale(2.0, sw))),
            coboundary_perturb(time_power(sw, 2), time_power(t3, 2))]


SHIFT_SYSTEMS = {
    "full-2": FullShift(2),
    "full-3": FullShift(3),
    "golden": golden_mean_sft(),
    "sft-3": SFT(((1, 1, 0), (0, 1, 1), (1, 0, 1))),
}


def assert_one_formula(pot, pts):
    for n in range(-1, 7):
        got = pot.eval_array(n, pts)
        assert got.dtype == np.float64 and got.shape == (len(pts),)
        assert got.tolist() == [pot.eval(n, p) for p in pts], (pot.label, n)
        assert got.tolist() == [reference(pot, n, p) for p in pts], (pot.label, n)


@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
def test_eval_array_is_eval_on_real_systems(name):
    system = REAL_SYSTEMS[name]
    rng = np.random.default_rng(sorted(REAL_SYSTEMS).index(name))
    pts = real_points(system, rng)
    for pot in real_cases(system, rng):
        assert_one_formula(pot, pts)


@pytest.mark.parametrize("name", sorted(SHIFT_SYSTEMS))
def test_eval_array_is_eval_on_words(name):
    system = SHIFT_SYSTEMS[name]
    rng = np.random.default_rng(10 + sorted(SHIFT_SYSTEMS).index(name))
    pts = mixed_words(system, rng)
    assert len({len(p.symbols) for p in pts}) > 5 and len({p.tail for p in pts}) > 1 \
        or name == "golden"
    for pot in shift_cases(system, rng):
        assert_one_formula(pot, pts)


def assert_one_pass(pot, pts):
    """eval_arrays over unsorted, repeated and non-positive n is eval_array per n,
    bytes included (so signed zeros too), and the per-point reference."""
    ns = [5, -1, 3, 0, 3, 6, 1, 2]
    got = pot.eval_arrays(ns, pts)
    assert len(got) == len(ns)
    for n, w in zip(ns, got):
        one = pot.eval_array(n, pts)
        assert w.dtype == one.dtype == np.float64 and w.tobytes() == one.tobytes(), (pot.label, n)
        assert w.tolist() == [reference(pot, n, p) for p in pts], (pot.label, n)
    assert pot.eval_arrays([], pts) == []


@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
def test_eval_arrays_is_eval_array_per_n_on_real_systems(name):
    system = REAL_SYSTEMS[name]
    rng = np.random.default_rng(30 + sorted(REAL_SYSTEMS).index(name))
    pts = real_points(system, rng)
    negative_zero = scale(-1.0, Birkhoff(phi=lambda x: 0.0 * x, system=system, name="zero"))
    assert np.signbit(negative_zero.eval_arrays([0, 2], pts)).all()
    for pot in real_cases(system, rng) + [negative_zero]:
        assert_one_pass(pot, pts)


@pytest.mark.parametrize("name", sorted(SHIFT_SYSTEMS))
def test_eval_arrays_is_eval_array_per_n_on_words(name):
    system = SHIFT_SYSTEMS[name]
    rng = np.random.default_rng(40 + sorted(SHIFT_SYSTEMS).index(name))
    pts = mixed_words(system, rng)
    for pot in shift_cases(system, rng) + [scale(-1.0, zero_potential(system))]:
        assert_one_pass(pot, pts)


def test_eval_array_on_powers_of_a_shift_and_through_factors():
    rng = np.random.default_rng(20)
    sq = PowerSystem(FS, 2)
    pot = Birkhoff(phi=window_table(FS, 3, rng).phi, system=sq, reach=3, name="table3")
    pts = mixed_words(FS, rng)
    assert_one_formula(pot, pts)
    assert_one_formula(time_power(pot, 2), pts)
    pi = binary_expansion_map()
    down = build_potential({"kind": "birkhoff", "fn": "cos2pi"}, pi.target)
    for lifted in (pullback(down, pi), pullback(add(down, scale(2.0, down)), pi)):
        assert_one_formula(lifted, pts)


def test_eval_array_of_no_points_is_empty():
    rot = Rotation(0.2)
    for pot in real_cases(rot, np.random.default_rng(0)):
        assert pot.eval_array(3, []).shape == (0,)
    for pot in shift_cases(FS, np.random.default_rng(0)):
        assert pot.eval_array(3, []).shape == (0,)


def test_builtin_potentials_have_one_array_formula():
    kinds = [c for c in vars(potentials).values()
             if isinstance(c, type) and issubclass(c, Potential) and c is not Potential]
    assert len(kinds) == 9
    for kind in kinds:
        # the one formula is eval_arrays; eval_array and eval are its one-n and one-point cases
        assert "eval_arrays" in vars(kind), kind.__name__
        assert "eval_array" not in vars(kind) and "eval" not in vars(kind), kind.__name__


def test_eval_is_the_one_point_case_of_eval_array():
    class Square(Potential):
        def eval_array(self, n, points):
            return np.full(len(points), float(n * n))

    pts = [real(0.1), real(0.2)]
    assert Square().eval_array(3, pts).tolist() == [9.0, 9.0]
    assert Square().eval(3, pts[0]) == 9.0
    with pytest.raises(NotImplementedError):
        Potential().eval(1, pts[0])


def test_shift_birkhoff_needs_reach():
    with pytest.raises(ValueError, match="needs reach"):
        Birkhoff(phi=lambda w: w[:, 0] * 1.0, system=FS)
    with pytest.raises(ValueError, match="needs reach"):
        Birkhoff(phi=lambda w: w[:, 0] * 1.0, system=PowerSystem(golden_mean_sft(), 2))


def profile_cases(system, rng):
    """Every window profile kind on ``system``: Birkhoff tables of reach 1-3, a
    drift, sums of unequal reaches, a scale, a coboundary and a coboundary of
    a coboundary."""
    t1, t2, t3 = (window_table(system, reach, rng) for reach in (1, 2, 3))
    drift = ConstantDrift(float(rng.normal()), system)
    return [t1, t2, t3, drift, add(t1, t3), add(t3, drift), scale(-0.7, t2),
            coboundary_perturb(t1, t2), coboundary_perturb(coboundary_perturb(t2, t1), t2)]


@pytest.mark.parametrize("name", sorted(SHIFT_SYSTEMS))
def test_window_step_reads_every_window_at_once(name):
    system = SHIFT_SYSTEMS[name]
    for pot in profile_cases(system, np.random.default_rng(3)):
        prof = pot.shift_profile()
        words = list(system.admissible_words(prof.reach))
        got = prof.step(np.array(words, dtype=np.int64))
        assert got.shape == (len(words),), pot.label
        expect = pot.eval_array(1, [system.representative(w) for w in words])
        assert got.tolist() == expect.tolist(), pot.label


def reference_sup_inf_norm(phi, system, points):
    """The pair loop that sup_inf_norm replaced."""
    vals = [phi.eval(1, p) for p in points]
    table = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = system.metric(points[i], points[j])
            table.append((d, abs(vals[i] - vals[j])))
    table.sort()
    return max(vals), min(vals), table


@pytest.mark.parametrize("seed", range(4))
def test_sup_inf_norm_matches_the_pair_loop(seed):
    rng = np.random.default_rng(seed)
    rot = Rotation(float(rng.uniform(0.05, 0.45)))
    a, b = rng.normal(size=2)
    trig = Birkhoff(phi=lambda x: a * np.cos(2 * np.pi * x) + b, system=rot, name="trig")
    ext = [rot.iterate(real(float(v)), j) for v in rng.random(9) for j in range(6)]
    ind = build_potential({"kind": "birkhoff", "fn": "indicator", "lo": 0.1, "hi": 0.5},
                          DoublingMap())
    words = mixed_words(FS, rng, 30)
    cases = [(trig, rot, ext), (ind, DoublingMap(), rot.sample_points(40, rng)),
             (add(symbol_weights(FS, rng.normal(size=2)), window_table(FS, 2, rng)), FS, words),
             (trig, rot, None)]
    for phi, system, pts in cases:
        report = sup_inf_norm(phi, system, pts)
        if pts is None:
            pts = system.sample_points(64, np.random.default_rng(7))
        sup, inf, table = reference_sup_inf_norm(phi, system, pts)
        assert (report.sup, report.inf, report.table) == (sup, inf, table)
        assert all(type(d) is float and type(g) is float for d, g in report.table)
        for eps in (1e-3, 0.01, 0.05, 0.1, 0.3, 1.0):
            expect = max([g for d, g in table if d < eps], default=0.0)
            assert report.modulus(eps) == expect * (1.0 + 1e-12) + 1e-15


def reference_almost_additive(phi, system, n_max=5, m_max=5, sample_count=40, seed=0):
    """The triple loop that verify_almost_additive replaced."""
    pts = system.sample_points(sample_count, np.random.default_rng(seed))
    worst = -math.inf
    for x in pts:
        for n in range(1, n_max + 1):
            tn = system.iterate(x, n)
            for m in range(1, m_max + 1):
                whole = phi.eval(n + m, x)
                split = phi.eval(n, x) + phi.eval(m, tn)
                worst = max(worst, whole - split - phi.C, split - whole - phi.C)
    return worst


def test_verify_almost_additive_matches_the_triple_loop():
    rng = np.random.default_rng(5)
    rot = Rotation(0.3)
    gm = golden_mean_sft()
    cases = [(p, rot) for p in real_cases(rot, rng)[:8]]
    cases += [(p, FS) for p in shift_cases(FS, rng)]
    cases += [(symbol_weights(gm, [0.1, 0.7]), gm)]
    for pot, system in cases:
        got = verify_almost_additive(pot, system, n_max=3, m_max=3, sample_count=12, seed=2)
        assert got == reference_almost_additive(pot, system, 3, 3, 12, 2), pot.label


# make_instance weights on the four metric-greedy grids of config seed 1, each
# weight as float.hex; recorded from the per-point implementation
METRIC_GREEDY_SEED_1 = {
    "doubling": ({"kind": "doubling"},
                 {"kind": "birkhoff", "fn": "indicator", "lo": 0.314366, "hi": 0.593647},
                 [1, 2, 3, 4, 5, 6, 7], 0.1,
                 "0ff1eeb2b2db11b012493d66812f9ef3d2ed91eaa840d7a28f6d64e04b6b19d9"),
    "words-2": ({"kind": "full_shift", "k": 2},
                {"kind": "symbol_weights", "table": [-0.745104, 0.459621]},
                [2, 3, 4, 5, 6, 7], 0.25,
                "98f3be74f8175c8834f4a270f765f255699673b6512c33dad911567c29179af4"),
    "rotation": ({"kind": "rotation", "theta": 0.129236},
                 {"kind": "scale", "lam": 0.926943,
                  "inner": {"kind": "birkhoff", "fn": "cos2pi"}},
                 [20, 40, 60, 80], 0.004,
                 "6038492d748b23e8424efda4bb21a72506944a67345dda6be4b30e1b12e364ad"),
    "contraction": ({"kind": "contraction", "c": 0.501481, "fixed": 0.77213},
                    {"kind": "scale", "lam": 1.010675,
                     "inner": {"kind": "birkhoff", "fn": "x"}},
                    [20, 40, 60, 80], 0.004,
                    "ed1413ac824110776f549b116e7e3d49e5d110896ef1ddcbf591806bf0b5a8e8"),
}


@pytest.mark.parametrize("name", sorted(METRIC_GREEDY_SEED_1))
def test_metric_greedy_weights_bit_exact(name):
    system_spec, potential_spec, ns, eps, digest = METRIC_GREEDY_SEED_1[name]
    system = build_system(system_spec)
    pot = build_potential(potential_spec, system)
    h = hashlib.sha256()
    for n in ns:
        cand = system.candidate_set(n, eps)
        w = make_instance(system, n, eps, cand.points, pot).weights
        h.update(",".join(float(v).hex() for v in w).encode() + b";")
    assert h.hexdigest() == digest
