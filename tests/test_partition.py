"""Separated/spanning machinery against independent brute-force enumeration."""

import gc
import inspect
import itertools
import math
import signal
import textwrap
import warnings

import numpy as np
import pytest

from pdim import logsum, partition, potentials, systems
from pdim.logsum import logsumexp, logsumexp_segments
from pdim.partition import (
    Estimator,
    SeparationInstance,
    InstanceTooLargeError,
    bowen_distance_matrix,
    bowen_relations,
    count_spanning_separated,
    exact_min_cover,
    exact_optima,
    exact_separated_value,
    exact_spanning_value,
    greedy_optima,
    greedy_separated,
    make_instance,
    separated_lower_bound,
    spanning_upper_bound,
)
from pdim.partition import _batch_balls, _greedy_spanning_argmax, _greedy_spanning_levels
from pdim.potentials import Birkhoff, symbol_weights, time_power
from pdim.symbolic import deflated_scale
from pdim.systems import (
    SFT,
    WORD_BITS,
    BudgetExceededError,
    Contraction,
    DoublingMap,
    FullShift,
    PowerSystem,
    Rotation,
    System,
    Word,
    golden_mean_sft,
    real,
    shift_metric,
)

from oneshot import admissible_words, bowen_relation, edges, greedy_picks, make_instances


def log_sum(weights) -> float:
    return math.log(math.fsum(math.exp(w) for w in weights))


def dense(inst) -> np.ndarray:
    """The instance's Bowen distance matrix."""
    return bowen_distance_matrix(inst.system, inst.n, inst.points)


def brute_separated(inst) -> float:
    """Reference optimum: scan every subset (2^m)."""
    d = dense(inst)
    best = -math.inf
    for r in range(1, inst.size + 1):
        for sub in itertools.combinations(range(inst.size), r):
            if all(d[i, j] > inst.eps for i, j in itertools.combinations(sub, 2)):
                best = max(best, log_sum(inst.weights[list(sub)]))
    return float(best)


def brute_spanning(inst) -> float:
    d = dense(inst)
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
        pts = [fs.representative(w) for w in admissible_words(fs, 6)]
        for n in (1, 3, 5):
            fast = bowen_distance_matrix(fs, n, pts)
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

    def test_pairs_cached(self):
        inst = random_rotation_instance(0)
        assert inst.pairs() is inst.pairs()


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


SHIFT_SYSTEMS = {
    "full_shift(2)": lambda rng: FullShift(2),
    "full_shift(3)": lambda rng: FullShift(3),
    "golden": lambda rng: golden_mean_sft(),
    "sft(3)": lambda rng: random_sft(rng, 3),
    "power": lambda rng: PowerSystem(FullShift(2), 2),
}


def real_case(kind, m):
    """A real system and m random points, plus a duplicate, the ends and a near-wrap pair."""
    rng = np.random.default_rng([m, len(kind)])
    system = REAL_SYSTEMS[kind](rng)
    xs = list(rng.random(m))
    xs[-min(m, 4):] = [0.0, 0.999, xs[0], 0.5][:min(m, 4)]
    return system, [real(float(v)) for v in xs]


def word_case(kind, m):
    """A shift system and up to m of its representatives of lengths 4 and 6, SFT bridges included."""
    rng = np.random.default_rng([m, len(kind), 7])
    system = SHIFT_SYSTEMS[kind](rng)
    shift = system.base if kind == "power" else system
    words = [shift.representative(w) for length in (4, 6)
             for w in admissible_words(shift, length)]
    return system, [words[i] for i in rng.choice(len(words), size=min(m, len(words)),
                                                   replace=False)]


def triangle_case(kind, n):
    """23 points of a real or shift system, with a duplicate point."""
    m = 23
    rng = np.random.default_rng([n, len(kind), 23])
    if kind in REAL_SYSTEMS:
        system = REAL_SYSTEMS[kind](rng)
        xs = list(rng.random(m))
        xs[-4:] = [0.0, 0.999, xs[0], 0.5]
        return system, [real(float(v)) for v in xs]
    system = SHIFT_SYSTEMS[kind](rng)
    shift = system.base if kind == "power" else system
    words = [shift.representative(w) for length in (3, 5)
             for w in admissible_words(shift, length)]
    pts = [words[i] for i in rng.choice(len(words), size=m, replace=False)]
    pts[-1] = pts[0]
    return system, pts


def length_limit_words():
    """Twelve 53-symbol words and one that differs from the first far down only."""
    rng = np.random.default_rng(53)
    pts = [Word(tuple(int(v) for v in rng.integers(0, 2, size=53))) for _ in range(12)]
    pts.append(Word(pts[0].symbols[:50]))
    return pts


# words with no array form
FALLBACK_WORDS = {
    # over 53 symbols; the last word's float sum 1 + 2^-53 + 2^-54 rounds
    # to 1 term by term, to 1 + 2^-52 in one step
    "long": [Word((0, 1) * 30), Word((1,) * 60), Word(()), Word((1,) + (0,) * 52 + (1, 1))],
    "mixed-tails": [Word((0, 1), tail=0), Word((0, 1), tail=1), Word((1,), tail=1)],
    "54-symbols": [Word((0, 1) * 27), Word((0, 1) * 26), Word((1,) * 53), Word(())],
}


def record_metric_calls(monkeypatch, system) -> list:
    """Patch the system's metric_array to append each result's shape to the returned list."""
    shapes = []
    metric_array = type(system).metric_array

    def recorded(self, x, y):
        d = metric_array(self, x, y)
        shapes.append(np.shape(d))
        return d

    monkeypatch.setattr(type(system), "metric_array", recorded)
    return shapes


def chunks(n, k):
    """Lengths of range(0, n, k)'s chunks: k each, then a partial last one."""
    return [k] * (n // k) + [n % k] * (n % k > 0)


# _BLOCK_ENTRIES values for 23 points, each forcing one cut of the triangle's
# 253 pairs into the sweep's runs of whole rows, in key order: one row per run
# and one time step per call; runs of 100, 98 and a partial 55 pairs; one run
# of every pair, 7 time steps per call with a partial last chunk.
TRIANGLE_BLOCKS = {"rows-1": 1, "runs-100-98-55": 100, "steps-7": 2000}


class TestKernelsMatchBowenMetric:
    """The array kernels against System.bowen_metric, with ==.

    ``block`` 100 cuts every triangle into several runs of whole rows, with
    a partial last one; 2000 gives the small triangles calls of several
    time steps, with a partial last chunk; None keeps the module's block
    size.
    """

    @pytest.fixture(params=[None, 100, 2000], ids=["block-default", "block-100", "block-2000"])
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

    @pytest.mark.parametrize("kind", sorted(SHIFT_SYSTEMS))
    def test_shift_array_forms_match_scalar(self, kind):
        # after j applications of apply_array, metric_array on the bit planes
        # is shift_metric of the j-times-shifted words, for words of mixed
        # lengths up to WORD_BITS symbols (SFT bridges included)
        rng = np.random.default_rng([len(kind), 53])
        system = SHIFT_SYSTEMS[kind](rng)
        shift = system.base if kind == "power" else system
        lengths = [WORD_BITS, WORD_BITS - 1, WORD_BITS - 2, 1] + [
            int(v) for v in rng.integers(1, WORD_BITS, size=12)]
        words = [Word((), shift.tail_symbol)] + [
            w for length in lengths for w in shift.sample_points(1, rng, length=length)
            if len(w.symbols) <= WORD_BITS]
        assert max(len(w.symbols) for w in words) >= WORD_BITS - 2
        x = system.coordinates(words)
        for _ in range(WORD_BITS + 1):
            dists = [[shift_metric(u, v) for v in words] for u in words]
            assert (system.metric_array(x[:, None], x) == dists).all()
            x = system.apply_array(x)
            words = [system.apply(w) for w in words]
        assert not x.any()

    @pytest.mark.parametrize("m", [1, 31, 70])
    @pytest.mark.parametrize("kind", sorted(REAL_SYSTEMS))
    def test_real_systems(self, kind, m, block):
        system, pts = real_case(kind, m)
        for n in (1, 6):
            d = bowen_distance_matrix(system, n, pts)
            assert (d == pairwise_bowen(system, n, pts)).all()

    @pytest.mark.parametrize("m", [1, 31, 70])
    @pytest.mark.parametrize("kind", sorted(SHIFT_SYSTEMS))
    def test_words(self, kind, m, block):
        system, pts = word_case(kind, m)
        for n in (1, 3, 9):
            d = bowen_distance_matrix(system, n, pts)
            assert (d == pairwise_bowen(system, n, pts)).all()

    @pytest.mark.parametrize("n", [1, 6, 13])
    @pytest.mark.parametrize("kind", ["rotation", "power-rotation", "doubling", "contraction",
                                      "full_shift(3)", "power"])
    def test_triangle_blocks(self, monkeypatch, kind, n):
        system, pts = triangle_case(kind, n)
        m = len(pts)
        expect = pairwise_bowen(system, n, pts)
        shapes = record_metric_calls(monkeypatch, system)
        for name, block in dict(TRIANGLE_BLOCKS, default=partition._BLOCK_ENTRIES).items():
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block)
            shapes.clear()
            d = bowen_distance_matrix(system, n, pts)
            assert (d == expect).all(), name
            assert (d == d.T).all(), name
            assert not np.diagonal(d).any() and not np.signbit(np.diagonal(d)).any(), name
            # the memory bound: no metric block over max(_BLOCK_ENTRIES, m) entries
            assert max(math.prod(shape) for shape in shapes) <= max(block, m), name
            # eps = inf leaves the sweep no window, so it steps every pair, in
            # runs of whole rows of at most block pairs, as (time steps, pairs)
            if name == "rows-1":
                assert shapes == [(1, m - 1 - row) for row in range(m - 1) for _ in range(n)]
            if name == "runs-100-98-55":
                assert shapes == [(1, run) for run in (100, 98, 55) for _ in range(n)]
            # a triangle that fits one block over its whole time range is
            # stacked: one (time steps, sets, rows, columns) call, here one set
            if name == "steps-7" and n * m * m <= block:
                assert shapes == [(n, 1, m, m)]
            elif name == "steps-7":
                assert shapes == [(k, 253) for k in chunks(n, 7)]
            if name == "default":  # a small orbit's whole time range in one call
                assert shapes == [(n, 1, m, m)]

    def test_word_kernel_at_its_length_limit(self):
        fs = FullShift(2)
        pts = length_limit_words()
        assert fs.coordinates(pts).shape == (13, 1)  # the array form, not the fallback
        for n in (1, 20, 60):
            assert (bowen_distance_matrix(fs, n, pts) == pairwise_bowen(fs, n, pts)).all()

    @pytest.mark.parametrize("name", sorted(FALLBACK_WORDS))
    def test_pairwise_fallback(self, name):
        fs, pts = FullShift(2), FALLBACK_WORDS[name]
        with pytest.raises(NotImplementedError):
            fs.coordinates(pts)
        for n in (1, 2, 5):
            assert (bowen_distance_matrix(fs, n, pts) == pairwise_bowen(fs, n, pts)).all()

    @pytest.mark.parametrize("system, pts", [
        (Rotation(0.3), [real(0.1), real(0.2)]),
        (FullShift(2), [Word((1,)), Word(())]),
        (FullShift(2), [Word((1,)), Word((), tail=1)]),  # no array form
    ], ids=["real", "words", "mixed-tails"])
    def test_time_zero_is_an_error(self, system, pts):
        # as for System.bowen_metric: d_0 is the max over no time steps
        with pytest.raises(ValueError, match="needs n >= 1"):
            bowen_distance_matrix(system, 0, pts)
        with pytest.raises(ValueError, match="needs n >= 1"):
            bowen_relation(system, 0, pts, 0.5)


DEFAULT_BLOCK = partition._BLOCK_ENTRIES


def check_relation(monkeypatch, system, n, pts):
    """bowen_relation against pairwise_bowen thresholded at <= eps, and its strict
    edges at < eps, with == on the kept values, at each _BLOCK_ENTRIES of 1, 100,
    2000 and the default, and at eps values that include one distance itself."""
    d = pairwise_bowen(system, n, pts)
    upper = np.triu(np.ones(d.shape, dtype=bool), 1)
    values = np.unique(d[upper])
    eps_values = [1e-3, 0.1, 0.3, 1.0] + [float(v) for v in values[len(values) // 2:][:1] if v]
    shapes = record_metric_calls(monkeypatch, system)
    for block in (1, 100, 2000, DEFAULT_BLOCK):
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block)
        for eps in eps_values:
            shapes.clear()
            inst = SeparationInstance(system, n, eps, pts, np.zeros(len(pts)))
            i, j, dist = inst.pairs()
            ei, ej = np.nonzero(upper & (d <= eps))
            assert (i.tolist(), j.tolist()) == (ei.tolist(), ej.tolist()), (block, eps)
            assert (dist == d[ei, ej]).all(), (block, eps)
            si, sj = edges(inst, strict=True)
            ei, ej = np.nonzero(upper & (d < eps))
            assert (si.tolist(), sj.tolist()) == (ei.tolist(), ej.tolist()), (block, eps)
            # the greedy closed balls: the strict neighbours and the point itself, ascending
            indptr, balls, _ = spanning_inputs(inst)
            near = (d < eps) | np.eye(len(pts), dtype=bool)
            assert [balls[a:b].tolist() for a, b in zip(indptr, indptr[1:])] \
                == [np.flatnonzero(row).tolist() for row in near], (block, eps)
            # the memory bound: no metric block over max(_BLOCK_ENTRIES, m) entries
            assert max(map(math.prod, shapes), default=0) <= max(block, len(pts)), (block, eps)


def sweep_case(name):
    """Point sets for the sweep: keys unsorted, tied, near the wrap, at the
    radius, and m either side of one default block (181^2 <= _BLOCK_ENTRIES)."""
    rng = np.random.default_rng([len(name), 17])
    if name.startswith("m-"):
        return DoublingMap(), 2, [real(float(v)) for v in rng.random(int(name[2:]))]
    if name.startswith("dfs-"):  # plane-0 keys come unsorted, several words to a key
        system = FullShift(3) if name == "dfs-full_shift(3)" else golden_mean_sft()
        return system, 3, [system.representative(w) for w in admissible_words(system, 5)]
    if name == "tied-keys-real":
        xs = rng.random(30)
        xs = np.concatenate([xs, xs, xs[:10]])
    elif name == "near-wrap":  # among spread points, so the windows stay sparse
        xs = np.concatenate([1.0 - 10.0 ** rng.uniform(-12, -3, 8), 10.0 ** rng.uniform(-14, -3, 8),
                             NEAR_WRAP_PAIR[:2], (np.arange(60) + 0.5) / 60])
    else:  # grids: a doubling pair at d_0 = 1/40 reaches eps = 0.1 at n = 3
        xs = np.arange(40) / 40
    system = {"shuffled-rotation-grid": Rotation(0.3),
              "shuffled-contraction-grid": Contraction(0.6, 0.4)}.get(name, DoublingMap())
    return system, 3, [real(float(v)) for v in rng.permutation(xs)]


SWEEP_SETS = ["shuffled-doubling-grid", "shuffled-rotation-grid", "shuffled-contraction-grid",
              "dfs-full_shift(3)", "dfs-golden", "tied-keys-real", "near-wrap", "m-181", "m-182"]


def record_runs(monkeypatch, shapes) -> list:
    """Patch ``_Walk.walk`` to append, per sweep run, its pairs and then the
    shapes of its metric calls, read off ``record_metric_calls``'s list."""
    runs = []
    walk = partition._Walk.walk

    def recorded(self, i, j):
        start = len(shapes)
        walk(self, i, j)
        runs.append((len(i), shapes[start:]))

    monkeypatch.setattr(partition._Walk, "walk", recorded)
    return runs


class KeylessRotation(System):
    """A rotation with an array form and no sweep key of its own: the
    default key, so each pair's partners include those across the wrap."""

    label = "keyless-rotation"

    def apply_array(self, x):
        return np.mod(x + 0.3, 1.0)

    def metric_array(self, x, y):
        d = np.abs(x - y)
        return np.minimum(d, 1.0 - d)


class TestBowenRelation:
    """bowen_relation against the thresholded pairwise_bowen on the point sets of
    TestKernelsMatchBowenMetric, at every block size."""

    @pytest.mark.parametrize("m", [1, 31, 70])
    @pytest.mark.parametrize("kind", sorted(REAL_SYSTEMS))
    def test_real_systems(self, monkeypatch, kind, m):
        system, pts = real_case(kind, m)
        for n in (1, 6):
            check_relation(monkeypatch, system, n, pts)

    @pytest.mark.parametrize("m", [1, 31, 70])
    @pytest.mark.parametrize("kind", sorted(SHIFT_SYSTEMS))
    def test_words(self, monkeypatch, kind, m):
        system, pts = word_case(kind, m)
        for n in (1, 3, 9):
            check_relation(monkeypatch, system, n, pts)

    @pytest.mark.parametrize("n", [1, 6, 13])
    @pytest.mark.parametrize("kind", ["rotation", "power-rotation", "doubling", "contraction",
                                      "full_shift(3)", "power"])
    def test_triangle_sets(self, monkeypatch, kind, n):
        system, pts = triangle_case(kind, n)
        check_relation(monkeypatch, system, n, pts)

    def test_words_at_the_length_limit(self, monkeypatch):
        for n in (1, 20, 60):
            check_relation(monkeypatch, FullShift(2), n, length_limit_words())

    @pytest.mark.parametrize("name", sorted(FALLBACK_WORDS))
    def test_words_with_no_array_form(self, monkeypatch, name):
        for n in (1, 2, 5):
            check_relation(monkeypatch, FullShift(2), n, FALLBACK_WORDS[name])

    @pytest.mark.parametrize("name", SWEEP_SETS)
    def test_sweep_sets(self, monkeypatch, name):
        system, n, pts = sweep_case(name)
        check_relation(monkeypatch, system, n, pts)

    @pytest.mark.parametrize("m", [181, 182])
    def test_one_block_is_one_metric_call(self, monkeypatch, m):
        # at the default block a triangle of m^2 <= _BLOCK_ENTRIES entries is
        # one stacked call at n = 1; one more point, and only the candidates
        # within the window (each point's next neighbour, the wrap included)
        # are stepped
        system, pts = DoublingMap(), [real(i / m) for i in range(m)]
        shapes = record_metric_calls(monkeypatch, system)
        i, j, _ = bowen_relation(system, 1, pts, 0.01)
        assert len(i) == m
        assert shapes == ([(1, 1, m, m)] if m == 181 else [(1, m)])

    @pytest.mark.parametrize("system, n, eps", [(DoublingMap(), 6, 0.3), (FullShift(2), 8, 1.0)],
                             ids=["doubling", "words"])
    def test_loose_windows_sweep(self, monkeypatch, system, n, eps):
        # past one block (214 and 512 points) the radius does not shrink at
        # these eps, and the windows hold over a quarter of the pairs: the
        # sweep steps exactly the pairs whose keys lie within eps (no key
        # distance falls between eps and the window's slack past it); at
        # eps / 2 the radius shrinks, and the same points step fewer
        pts = system.candidate_set(n, eps).points
        m = len(pts)
        assert n * m * m > DEFAULT_BLOCK
        key, period = system.sweep_key(system.coordinates(pts))
        apart = np.abs(key[:, None] - key)
        if period is not None:
            apart = np.minimum(apart, period - apart)
        candidates = np.count_nonzero(np.triu(apart <= eps, 1))
        assert 4 * candidates > m * (m - 1) // 2
        shapes = record_metric_calls(monkeypatch, system)
        runs = record_runs(monkeypatch, shapes)
        i, j, d = bowen_relation(system, n, pts, eps)
        ri, rj, rd = reference_relation(system, n, pts, eps)
        assert len(i) > 0 and (i.tolist(), j.tolist()) == (ri.tolist(), rj.tolist())
        assert (d == rd).all()
        assert sum(pairs for pairs, _ in runs) == candidates
        assert all(calls[0][1] == pairs for pairs, calls in runs if pairs)  # from t = 0
        runs.clear()
        bowen_relation(system, n, pts, eps / 2)
        assert 0 < sum(pairs for pairs, _ in runs) < candidates

    def test_pairs_drop_out_in_later_chunks(self, monkeypatch):
        # one row per run and one time step per call, on the doubling map as
        # a power system, which keeps the default radius eps, so at eps = 0.15
        # the windows are loose.  The window holds the pairs within the reach
        # at t = 0, so none drops at a run's first step.  Distances grow: some
        # pairs within eps at t = 1 pass it later, and some runs lose every
        # pair at their second step, so no call follows it
        system = PowerSystem(DoublingMap(), 1)
        pts = [real(float(v)) for v in np.random.default_rng(5).random(40)]
        n, eps = 6, 0.15
        shapes = record_metric_calls(monkeypatch, system)
        runs = record_runs(monkeypatch, shapes)
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 1)
        i, _, _ = bowen_relation(system, n, pts, eps)
        d = pairwise_bowen(system, n, pts)
        assert len(i) == np.count_nonzero(np.triu(d <= eps, 1)) > 0
        assert all(len(shape) == 2 and shape[0] == 1 for shape in shapes)
        assert all(calls[0] == calls[1] for _, calls in runs if len(calls) > 1)
        assert any(len(calls) == 2 for _, calls in runs)
        assert any(a[1] > b[1] for _, calls in runs for a, b in zip(calls[1:], calls[2:]))
        # pairs stepped at t = 2 (each run's third call) outnumber the kept ones
        assert sum(calls[2][1] for _, calls in runs if len(calls) > 2) > len(i)

    def test_default_key_steps_every_pair(self, monkeypatch):
        # a system with an array form and no key of its own gets the default,
        # one key for every point: no window, so every pair is a candidate,
        # those across the wrap of the circle included
        system = KeylessRotation()
        rng = np.random.default_rng(31)
        xs = np.concatenate([rng.random(60), 1.0 - 10.0 ** rng.uniform(-9, -2, 5),
                             10.0 ** rng.uniform(-9, -2, 5)])
        pts = [real(float(v)) for v in xs]
        key, period = system.sweep_key(system.coordinates(pts))
        assert key.tolist() == [0.0] * len(pts) and period is None
        for n in (1, 7):
            check_relation(monkeypatch, system, n, pts)

    def test_loose_windows_run_where_every_pair_would_not(self, monkeypatch):
        # doubling at eps = 0.3, where the radius does not shrink: a budget
        # that holds the sweep's window pairs, and not all m (m - 1) / 2, lets
        # the walk run to the reference relation; one byte less and it stops
        # before its first step.  The window pairs are those with d_0 <= eps,
        # as no grid distance lies between eps and the window's slack past it
        system, n, eps = DoublingMap(), 6, 0.3
        pts = system.candidate_set(n, eps).points
        m = len(pts)
        window = len(reference_relation(system, 1, pts, eps)[0])
        assert 0 < window < m * (m - 1) // 2
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * window)
        i, j, d = bowen_relation(system, n, pts, eps)
        ri, rj, rd = reference_relation(system, n, pts, eps)
        assert len(i) > 0 and (i.tolist(), j.tolist()) == (ri.tolist(), rj.tolist())
        assert (d == rd).all()
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * window - 1)
        with pytest.raises(BudgetExceededError,
                           match=f"^Bowen walk would step {window} pairs of {m} points"):
            bowen_relation(system, n, pts, eps)

    def test_radius_drops_pairs_at_the_first_chunk(self, monkeypatch):
        # the same points at eps = 0.05, where both systems sweep: on
        # DoublingMap itself the window is the radius at t = 1, eps·2^-(n-1),
        # so it steps fewer candidates than the power system, whose window
        # is eps; one step per call, so each call's size is its pairs
        pts = [real(float(v)) for v in np.random.default_rng(5).random(40)]
        n, eps = 6, 0.05
        d = pairwise_bowen(DoublingMap(), n, pts)
        shapes = record_metric_calls(monkeypatch, DoublingMap())
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 1)
        stepped = []
        for system in (DoublingMap(), PowerSystem(DoublingMap(), 1)):
            shapes.clear()
            i, _, _ = bowen_relation(system, n, pts, eps)
            assert len(i) == np.count_nonzero(np.triu(d <= eps, 1)) > 0
            assert {len(shape) for shape in shapes} == {2}  # no stacked call
            stepped.append(sum(shape[1] for shape in shapes))
        # the kept pairs are stepped n times each; the power system steps more
        assert n * len(i) <= stepped[0] < stepped[1]

    @pytest.mark.parametrize("name", ["array", "no-array-form"])
    def test_pair_budget_raises_before_keeping(self, monkeypatch, name):
        # 16 bytes per kept pair, counted over a family of two requests that
        # each keep every pair.  The budget holds the pairs stepped from t = 0
        # (every pair once, eps = 4 leaving no window) and the 1600-byte orbit,
        # so the kept pairs are what pass it, in the sweep run where their
        # count first does
        if name == "array":
            system, pts = Rotation(0.3), [real(v / 100) for v in range(100)]
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 100)  # one row per run to row 48
        else:
            system, pts = FullShift(2), FALLBACK_WORDS["mixed-tails"] * 3
        m, requests = len(pts), [(1, 4.0), (2, 4.0)]
        pairs = m * (m - 1) // 2
        found = bowen_relations(system, pts, requests)
        assert [len(i) for i, _, _ in found] == [pairs, pairs]
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * pairs)
        for request, want in zip(requests, found):  # each request alone fits
            assert same_arrays(bowen_relations(system, pts, [request])[0], want)
        # row lo keeps its m - 1 - lo pairs for the first request, then the second
        kept = np.cumsum([m - 1 - lo for lo in range(m - 1) for _ in requests])
        crossing = int(np.argmax(kept > pairs))
        assert crossing // 2 < 49
        shapes = record_metric_calls(monkeypatch, system)
        with pytest.raises(BudgetExceededError,
                           match=f"Bowen relation of {m} points needs {16 * kept[crossing]} bytes"):
            bowen_relations(system, pts, requests)
        # it stopped in that row's run, at the step whose request passed it:
        # one call per row and time step before
        steps = [(1, m - 1 - lo) for lo in range(m - 1) for _ in requests]
        assert shapes == steps[:crossing + 1] * (name == "array")

    @pytest.mark.parametrize("name", ["sweep", "no-window", "no-array-form"])
    def test_stepped_pair_budget_raises_before_any_step(self, monkeypatch, name):
        # 16 bytes per pair stepped from t = 0: on an even contraction grid at
        # eps = 1.5 / m the sweep's windows hold each point's next one only;
        # at eps = 4 on the circle the sweep has no window, and it and the
        # points with no array form step every pair
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 100)  # no stacked batch
        if name == "sweep":
            system, m, eps = Contraction(0.5), 200, 1.5 / 200
        elif name == "no-window":
            system, m, eps = Rotation(0.3), 100, 4.0
        if name == "no-array-form":
            system, pts, eps = FullShift(2), FALLBACK_WORDS["mixed-tails"] * 3, 4.0
            m = len(pts)
        else:
            pts = [real(v / m) for v in range(m)]
        stepped = m - 1 if name == "sweep" else m * (m - 1) // 2
        want = bowen_relation(system, 1, pts, eps)
        assert len(want[0]) == stepped
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * stepped)
        assert same_arrays(bowen_relation(system, 1, pts, eps), want)
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * stepped - 1)
        shapes = record_metric_calls(monkeypatch, system)
        monkeypatch.setattr(type(system), "bowen_metric", lambda *args: shapes.append(args))
        with pytest.raises(BudgetExceededError,
                           match=f"^Bowen walk would step {stepped} pairs of {m} points, "
                                 f"over the {stepped - 1}-pair budget$"):
            bowen_relation(system, 1, pts, eps)
        assert shapes == []  # no metric_array or bowen_metric call


# the near-wrap doubling pair that a relative-only slack on the radius dropped
NEAR_WRAP_PAIR = (0.9999999994881784, 1.4415961271963372e-12, 5)


class TestBowenRadius:
    """``System.bowen_radius`` against its contract, and bowen_relation where
    the radius is tight: on grids, and near the wrap of the circle."""

    @pytest.mark.parametrize("kind", sorted(REAL_SYSTEMS) + sorted(SHIFT_SYSTEMS))
    def test_contract(self, kind):
        # d_n <= eps implies d_t <= bowen_radius(n - t + 1, eps) at each t <= n;
        # most eps are the pairs' own distances, so some pairs sit on eps
        for m, n in ((31, 1), (70, 3), (70, 6)):
            system, pts = (real_case if kind in REAL_SYSTEMS else word_case)(kind, m)
            rng = np.random.default_rng([m, n, len(kind), 8])
            d = [bowen_distance_matrix(system, t, pts) for t in range(1, n + 1)]
            upper = np.triu(np.ones(d[0].shape, dtype=bool), 1)
            own = np.unique(d[-1][upper])
            for eps in [0.05, 0.1, 0.24, 0.25, 0.5] + rng.choice(own, 12).tolist():
                close = upper & (d[-1] <= eps)
                for t in range(1, n + 1):
                    radius = system.bowen_radius(n - t + 1, eps)
                    assert (d[t - 1][close] <= radius).all(), (m, n, eps, t)

    @pytest.mark.parametrize("kind", ["doubling", "power-doubling", "rotation"])
    def test_relation_on_grids(self, monkeypatch, kind):
        # grid distances fall on eps and on the radius, or one rounding above
        # them: at n = 1 the doubling radius exceeds eps, which caps it
        system = REAL_SYSTEMS[kind](np.random.default_rng(3))
        for size in (20, 40):
            for n in (1, 2, 4):
                check_relation(monkeypatch, system, n, [real(i / size) for i in range(size)])

    def test_near_wrap_pairs_at_their_own_distance(self, monkeypatch):
        # past the wrap, 1 - |x - y| rounds to 2^-54 absolute, far more than a
        # relative 1e-9 of a small distance: the radius's absolute slack keeps
        # each pair at eps = its own d_n
        system = DoublingMap()
        rng = np.random.default_rng(2024)
        cases = [NEAR_WRAP_PAIR] + [
            (1.0 - 10.0 ** rng.uniform(-12, -3), 10.0 ** rng.uniform(-14, -3),
             int(rng.integers(1, 9))) for _ in range(3000)]
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 1)
        # the pair alone, and among 16 spread points, where the windows cut
        spread = [real((v + 0.5) / 16) for v in range(16)]
        dropped = []
        for x, y, n in cases:
            pts = [real(x), real(y)]
            eps = system.bowen_metric(n, *pts)
            for found in (bowen_relation(system, n, pts, eps)[:2],
                          bowen_relation(system, n, pts + spread, eps)[:2]):
                if (0, 1) not in zip(*(v.tolist() for v in found)):
                    dropped.append((x, y, n))
        assert not dropped, dropped[:5]
        for n in (1, 3, 5, 8):
            pts = [real(1.0 - v) for v in 10.0 ** rng.uniform(-12, -4, size=12)]
            pts += [real(v) for v in 10.0 ** rng.uniform(-14, -4, size=12)]
            check_relation(monkeypatch, system, n, pts + [real(x) for x in NEAR_WRAP_PAIR[:2]])


def reference_relation(system, n, pts, eps):
    """Pairs i < j with d_n <= eps from full metric matrices along the orbit, by numpy alone."""
    x = system.coordinates(pts)
    d = np.zeros((len(pts), len(pts)))
    for _ in range(n):
        d = np.maximum(d, system.metric_array(x[:, None], x[None, :]))
        x = system.apply_array(x)
    i, j = np.nonzero(np.triu(d <= eps, 1))
    return i, j, d[i, j]


def same_arrays(a, b) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


FAMILY_KINDS = ["rotation", "doubling", "contraction", "power-rotation",
                "full_shift(2)", "full_shift(3)", "golden"]


def family_requests(rng, path, pts_d):
    """Seven (n, eps) requests, unsorted, one n repeated and one request twice;
    small eps, where the sweep's windows cut, or loose ones and eps = inf,
    where they leave every pair."""
    ns = [int(v) for v in rng.integers(1, 9, size=5)]
    ns += [ns[0], ns[1]]
    if path == "sweep":
        eps = [float(v) for v in rng.uniform(0.002, 0.02, size=3)] + [0.01]
    else:
        own = pts_d[np.triu_indices(len(pts_d), 1)]
        eps = [float(rng.choice(own)), 0.05, 0.25, 1.0, math.inf]
    out = [(n, float(rng.choice(eps))) for n in ns]
    out.append(out[2])
    if path == "no-window":
        out[3] = (out[3][0], math.inf)
    return out


class TestBowenRelations:
    """bowen_relations against one bowen_relation per request, byte and dtype
    equal, and both against a numpy reference, on every path of the walk."""

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_family_equals_its_requests(self, monkeypatch, kind):
        m = 40
        system, pts = (real_case if kind in REAL_SYSTEMS else word_case)(kind, m)
        m = len(pts)
        d1 = reference_relation(system, 1, pts, math.inf)
        pts_d = np.zeros((m, m))
        pts_d[d1[0], d1[1]] = d1[2]
        shapes = record_metric_calls(monkeypatch, system)
        seen = set()
        for path, block in (("stacked", DEFAULT_BLOCK), ("sweep", 100), ("no-window", 100),
                            ("no-window", 1), ("sweep", 2000)):
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block)
            rng = np.random.default_rng([len(kind), block, len(path)])
            for _ in range(3):
                requests = family_requests(rng, path, pts_d)
                shapes.clear()
                family = bowen_relations(system, pts, requests)
                calls = list(shapes)
                assert len(family) == len(requests)
                for (n, eps), found in zip(requests, family):
                    assert same_arrays(found, bowen_relation(system, n, pts, eps)), (path, n, eps)
                    i, j, d = reference_relation(system, n, pts, eps)
                    assert (found[0].tolist(), found[1].tolist()) == (i.tolist(), j.tolist())
                    assert (found[2] == d).all()
                # the memory bound of check_relation holds for the family's calls
                assert max(map(math.prod, calls), default=0) <= max(block, m), (path, block)
                dims = {len(shape) for shape in calls}
                if max(n for n, _ in requests) * m * m <= block:
                    seen.add("stacked")
                    assert dims == {4} and calls[0][-2:] == (m, m)
                elif dims:
                    seen.add("sweep")
                    assert dims == {2}
        assert seen == {"stacked", "sweep"}

    def test_a_family_walks_one_orbit(self, monkeypatch):
        # 16 requests on 8 points cost one orbit at the largest n and one
        # stacked metric call over all 8 steps
        system = Rotation(0.125)
        grid = [real(i / 8.0) for i in range(8)]
        requests = [(n, eps) for n in range(1, 9) for eps in (0.2, 0.3)]
        built = []
        orbit = partition.orbit_array
        monkeypatch.setattr(partition, "orbit_array",
                            lambda s, n, p: built.append(n) or orbit(s, n, p))
        shapes = record_metric_calls(monkeypatch, system)
        family = bowen_relations(system, grid, requests)
        assert built == [8] and shapes == [(8, 1, 8, 8)]
        for (n, eps), found in zip(requests, family):
            assert same_arrays(found, bowen_relation(system, n, grid, eps))

    def test_sweep_reach_is_the_largest_open_radius(self, monkeypatch):
        # doubling at eps = 0.01 and 0.2: the radius of the n = 8 request at
        # eps = 0.01 falls far below the reach of the n = 2 request at 0.2,
        # which must keep its pairs through the shared walk
        system = DoublingMap()
        pts = [real(float(v)) for v in np.random.default_rng(11).random(300)]
        requests = [(8, 0.01), (2, 0.2), (8, 0.2), (5, 0.05)]
        family = bowen_relations(system, pts, requests)
        for (n, eps), found in zip(requests, family):
            i, j, d = reference_relation(system, n, pts, eps)
            assert len(i) > 0 and found[0].tolist() == i.tolist() and (found[2] == d).all()

    @pytest.mark.parametrize("name", sorted(FALLBACK_WORDS))
    def test_points_with_no_array_form(self, name):
        fs, pts = FullShift(2), FALLBACK_WORDS[name]
        requests = [(5, 0.6), (1, math.inf), (2, 0.3), (5, 0.6)]
        for (n, eps), found in zip(requests, bowen_relations(fs, pts, requests)):
            assert same_arrays(found, bowen_relation(fs, n, pts, eps))
            d = pairwise_bowen(fs, n, pts)
            ei, ej = np.nonzero(np.triu(d <= eps, 1))
            assert found[0].tolist() == ei.tolist() and found[1].tolist() == ej.tolist()

    def test_no_requests(self):
        assert bowen_relations(Rotation(0.3), [real(0.1)], []) == []

    @pytest.mark.parametrize("eps", [math.nan, -0.5, 0.0])
    def test_eps_must_be_positive(self, eps):
        pts = [real(i / 10) for i in range(10)]
        with pytest.raises(ValueError, match="eps must be positive"):
            bowen_relation(Rotation(0.2), 3, pts, eps)
        with pytest.raises(ValueError, match="eps must be positive"):
            bowen_relations(Rotation(0.2), pts, [(3, 0.1), (2, eps)])
        with pytest.raises(ValueError, match="eps must be positive"):
            make_instance(Rotation(0.2), 3, eps, pts)
        with pytest.raises(ValueError, match="eps must be positive"):
            SeparationInstance(Rotation(0.2), 3, eps, pts, np.zeros(10))
        # eps = inf is every pair
        assert len(bowen_relation(Rotation(0.2), 3, pts, math.inf)[0]) == 45
        assert make_instance(Rotation(0.2), 3, math.inf, pts).eps == math.inf


class TestInstanceFamilies:
    def test_one_walk_serves_every_member(self, monkeypatch):
        # two potentials, four requests, and members with one (n, eps) share
        # their arrays: at the default block the stacked pass fills the
        # family as it is made, and no walk follows; past one block, one
        # bowen_relations call on first use
        system = Rotation(0.3)
        pts = [real(float(v)) for v in np.random.default_rng(4).random(12)]
        pot = Birkhoff(phi=lambda x: np.sin(2 * np.pi * x), system=system, name="sin")
        requests = [(3, 0.2), (1, 0.1), (3, 0.1), (2, 0.4)]
        expect = [bowen_relation(system, n, pts, eps) for n, eps in requests]
        relations = partition.bowen_relations
        for block, walks in ((DEFAULT_BLOCK, []), (100, [requests])):
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block)
            calls = []
            monkeypatch.setattr(partition, "bowen_relations",
                                lambda *a: calls.append(a[2]) or relations(*a))
            plain, weighted = make_instances(system, pts, requests, [None, pot])
            assert calls == []
            for inst, (n, eps), want in zip(weighted, requests, expect):
                assert (inst.n, inst.eps) == (n, eps)
                assert inst.weights.tobytes() == pot.eval_array(n, pts).tobytes()
                assert same_arrays(inst.pairs(), want)
            assert not any(inst.weights.any() for inst in plain)
            for a, b in zip(plain, weighted):
                assert a.pairs() is b.pairs()
            assert calls == walks, block

    def test_a_family_over_the_budget_walks_each_request_alone(self, monkeypatch):
        # each relation fits the budget, the two together do not: the walk of
        # both raises, and the family walks each request alone when used,
        # holding one relation at a time
        system = Rotation(0.3)
        pts = [real(i / 20) for i in range(20)]
        requests = [(1, 0.27), (2, 0.27)]
        expect = [bowen_relation(system, n, pts, eps) for n, eps in requests]
        sizes = [len(i) for i, _, _ in expect]
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * max(sizes))
        assert 16 * min(sizes) > 8 * 2 * len(pts) and 16 * sum(sizes) > 16 * max(sizes)
        with pytest.raises(BudgetExceededError, match="Bowen relation of 20 points"):
            bowen_relations(system, pts, requests)
        walks = []
        relations = partition.bowen_relations

        def walk(*args):
            # each walk starts with no relation held
            walks.append((args[2], len(insts[0]._relations.found)))
            return relations(*args)

        monkeypatch.setattr(partition, "bowen_relations", walk)
        [insts] = make_instances(system, pts, requests, [None])
        for inst, want in zip(insts, expect):
            assert same_arrays(inst.pairs(), want)
            assert list(inst._relations.found) == [(inst.n, inst.eps)]
        assert walks == [(requests, 0), (requests[:1], 0), (requests[1:], 0)]
        # a request over the budget alone raises as bowen_relation does
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * sizes[1] - 1)
        [[_, over]] = make_instances(system, pts, requests, [None])
        with pytest.raises(BudgetExceededError, match=f"needs {16 * sizes[1]} bytes"):
            over.pairs()

    def test_make_instance_is_the_one_request_case(self):
        inst = random_rotation_instance(3)
        [[again]] = make_instances(inst.system, inst.points, [(inst.n, inst.eps)],
                                   [Birkhoff(phi=lambda x: x, system=inst.system)])
        assert same_arrays(inst.pairs(), again.pairs())


def stacked_case(rng, kind):
    """One family for the stacked pass: 3 to 20 points of one system, one to
    four requests of mixed n and eps, among them eps = inf and eps equal to
    a pair's own Bowen distance, so that pairs lie on eps."""
    m = int(rng.integers(3, 21))
    if kind in ("rotation", "power-rotation", "doubling"):
        system = {"rotation": Rotation(float(rng.uniform(0.05, 0.45))),
                  "power-rotation": PowerSystem(Rotation(float(rng.uniform(0.05, 0.45))),
                                                int(rng.integers(2, 4))),
                  "doubling": DoublingMap()}[kind]
        # a dyadic grid with repeats gives distances that tie, exactly
        pts = [real(float(v)) for v in rng.integers(0, 64, size=m) / 64]
    else:
        system = FullShift(2) if kind == "words" else PowerSystem(FullShift(2), 2)
        pts = [Word(tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, 9)))))
               for _ in range(m)]
    requests = []
    for _ in range(int(rng.integers(1, 5))):
        n = int(rng.integers(1, 7))
        i, j, d = reference_relation(system, n, pts, math.inf)
        eps = [float(rng.uniform(0.01, 0.5)), math.inf] + [float(v) for v in d[d > 0][:1]]
        requests.append((n, float(rng.choice(eps))))
    return system, pts, requests


STACKED_KINDS = ["rotation", "power-rotation", "doubling", "words", "power-words"]


def brute_masks(pairs, m, eps, strict):
    """The oracles' masks by a loop over every pair (i, j, d) of d_n: bit v of
    masks[u] for u = v and each pair {u, v} with d < eps (strict) or d <= eps."""
    masks = [1 << u for u in range(m)]
    for u, v, d in zip(*(a.tolist() for a in pairs)):
        if (d < eps) if strict else (d <= eps):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def batch_masks(insts, strict, build=None):
    """Per instance, the masks of its closed balls from one ``_batch_balls``
    pass (or ``build``) over the batch, after a check that the batch's
    points are numbered instance by instance and each ball is ascending, in
    its instance's points."""
    starts, sizes, indptr, balls, _ = (build or partition._batch_balls)(insts, strict)
    assert sizes == [inst.size for inst in insts]
    assert starts.tolist() == np.cumsum([0] + sizes)[:-1].tolist()
    bounds, balls, out = indptr.tolist(), balls.tolist(), []
    for a, m in zip(starts.tolist(), sizes):
        out.append([])
        for p in range(a, a + m):
            ball = balls[bounds[p]:bounds[p + 1]]
            assert ball == sorted(set(ball)) and a <= ball[0] and ball[-1] < a + m
            out[-1].append(sum(1 << (v - a) for v in ball))
    return out


def check_masks(insts, pairs, build=None):
    """The batch's masks of the instances, loose and strict, against
    ``brute_masks`` of each instance's pairs of d_n."""
    for strict in (False, True):
        for inst, got, want in zip(insts, batch_masks(insts, strict, build), pairs):
            assert got == brute_masks(want, inst.size, inst.eps, strict), (inst.n, inst.eps, strict)


def rotation_mask_family(m, n):
    """m rotation points on a dyadic grid at time n, at eps values among them
    one pair's own distance; with every pair of d_n."""
    system = Rotation(0.3)
    pts = [real(float(v)) for v in np.random.default_rng([m, n]).integers(0, 64, size=m) / 64]
    pairs = reference_relation(system, n, pts, math.inf)
    return system, pts, [(n, float(pairs[2][5])), (n, 0.1), (n, 0.3)], pairs


def mixed_tail_family():
    """Twelve words with mixed tails, which have no array form, at n = 2 and
    eps values among them one pair's own distance; with every pair of d_2."""
    rng = np.random.default_rng(21)
    fs, m = FullShift(2), 12
    pts = [Word(tuple(int(b) for b in rng.integers(0, 2, size=3)), tail=int(rng.integers(0, 2)))
           for _ in range(m)]
    i, j = np.triu_indices(m, 1)
    pairs = (i, j, pairwise_bowen(fs, 2, pts)[i, j])
    return fs, pts, [(2, float(pairs[2][7])), (2, 0.3)], pairs


# (family, whether make_families stacks it): ten points at n = 3 fit one
# block; twenty at n = 100 do not (n m^2 > _BLOCK_ENTRIES), nor do words
# with no array form
MASK_FAMILIES = {"stacked": (lambda: rotation_mask_family(10, 3), True),
                 "walked": (lambda: rotation_mask_family(20, 100), False),
                 "mixed-tails": (mixed_tail_family, False)}


class TestStackedFamilies:
    """make_families' stacked pass against the walk of each family alone, and
    the exact oracles' masks on stacked, walked and array-less families
    against a loop over every pair."""

    @pytest.mark.parametrize("seed", range(8))
    def test_stacked_equals_per_family(self, monkeypatch, seed):
        rng = np.random.default_rng([seed, 26])
        families = [stacked_case(rng, kind) for kind in rng.choice(STACKED_KINDS, size=24)]
        batches = []
        stack_batch = partition._stack_batch
        monkeypatch.setattr(partition, "_stack_batch",
                            lambda jobs, xs, *a: batches.append(len(xs)) or stack_batch(jobs, xs, *a))
        built = partition.make_families([(s, p, r, [None]) for s, p, r in families])
        assert max(batches) > 1  # families of one metric share a batch
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 1)  # each family walks alone
        oracle_insts, oracle_pairs = [], []
        for (system, pts, requests), [insts] in zip(families, built):
            assert insts[0]._relations.found  # filled by the stacked pass
            for inst, want in zip(insts, bowen_relations(system, pts, requests)):
                assert same_arrays(inst.pairs(), want), (system, inst.n, inst.eps)
                i, j, d = reference_relation(system, inst.n, pts, inst.eps)
                assert (want[0].tolist(), want[1].tolist()) == (i.tolist(), j.tolist())
                if inst.size <= partition.ORACLE_CAP:
                    oracle_insts.append(inst)
                    oracle_pairs.append(reference_relation(system, inst.n, pts, math.inf))
        check_masks(oracle_insts, oracle_pairs)  # one batch over every family

    @pytest.mark.parametrize("path", sorted(MASK_FAMILIES))
    def test_masks_on_every_path(self, path):
        family, stacks = MASK_FAMILIES[path]
        system, pts, requests, pairs = family()
        [insts] = make_instances(system, pts, requests, [None])
        assert bool(insts[0]._relations.found) == stacks  # else it walks on first use
        check_masks(insts, [pairs] * len(insts))
        # the fault: the strict masks take the pairs at d = eps too, as the
        # loose masks do; the first request has a pair at d = eps
        source = textwrap.dedent(inspect.getsource(partition._batch_balls))
        assert source.count("near = d < ") == 1
        scope = dict(vars(partition))
        exec(compile(source.replace("near = d < ", "near = d <= "), partition.__file__, "exec"),
             scope)
        with pytest.raises(AssertionError):
            check_masks(insts[:1], [pairs], scope["_batch_balls"])

    def test_a_family_past_the_oracle_cap_stacks(self):
        # a 21-point family, past the exact oracles' cap, shares a batch with
        # a small one and gets its relation from the stacked pass
        system, m = Rotation(0.3), partition.ORACLE_CAP + 1
        big, small = [real(i / m) for i in range(m)], [real(i / 7) for i in range(7)]
        [[wide]], [[narrow]] = partition.make_families(
            [(system, big, [(2, 0.2)], [None]), (system, small, [(2, 0.2)], [None])])
        assert wide._relations.found and narrow._relations.found
        assert same_arrays(wide.pairs(), bowen_relation(system, 2, big, 0.2))

    def test_a_point_set_is_stepped_once(self, monkeypatch):
        # two families on one point list, one under a power of the other's
        # system, and potentials that read n k steps: one orbit, at the
        # longest, and the instances' points carry it
        system, pts = Rotation(0.3), [real(i / 9) for i in range(9)]
        pot = Birkhoff(phi=lambda x: np.cos(2 * np.pi * x), system=system, name="cos")
        stepped = []
        orbit = systems.orbit_array

        def spy(s, n, p):
            if not (isinstance(p, systems.OrbitPoints) and p.rows(s, n) is not None):
                stepped.append(n)
            return orbit(s, n, p)

        for module in (systems, partition, potentials):
            monkeypatch.setattr(module, "orbit_array", spy)
        [[left]], [[right]] = partition.make_families(
            [(PowerSystem(system, 3), pts, [(2, 0.2)], [time_power(pot, 3)]),
             (system, pts, [(5, 0.2)], [pot])])
        assert stepped == [6]
        assert left.points is right.points and left.points.orbit.shape == (6, 9)
        assert left.weights.tobytes() == pot.eval_array(6, pts).tobytes()
        assert same_arrays(left.pairs(), bowen_relation(PowerSystem(system, 3), 2, pts, 0.2))
        assert same_arrays(right.pairs(), bowen_relation(system, 5, pts, 0.2))


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
    d = dense(inst)
    kept = []
    for i in idx:
        if all(d[i, j] > inst.eps for j in kept):
            kept.append(i)
    return kept


def reference_greedy_spanning(inst):
    """Slow reference for the greedy spanning picks: bigint masks rescanned per pick."""
    near = dense(inst) < inst.eps
    masks = [sum(1 << j for j in range(inst.size) if near[i, j]) for i in range(inst.size)]
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
        length = max(8, (m - 1).bit_length())  # 2^8 words unless m needs more
        words = [system.representative(w) for w in admissible_words(system, length)]
        pts = [words[i] for i in sorted(rng.choice(len(words), size=m, replace=False))]
        eps = deflated_scale(int(rng.integers(0, 3)))
    weights = rng.integers(0, 3, size=m).astype(float)
    return SeparationInstance(system, int(rng.integers(1, 4)), eps, pts, weights)


def dense_greedy_instance(system, m, eps):
    """m random points at n = 1, where a ball of radius eps >= 0.3 holds most of them."""
    rng = np.random.default_rng([m, round(eps * 100)])
    pts = [real(float(v)) for v in rng.random(m)]
    weights = rng.integers(0, 3, size=m).astype(float)
    return SeparationInstance(system, 1, eps, pts, weights)


def spanning_inputs(inst):
    """The arguments of both greedy spanning loops for one instance: its
    closed-ball CSR, from ``_batch_balls``, and the stable weight order."""
    _, _, indptr, balls, weights = _batch_balls([inst], True)
    return indptr, balls, np.argsort(weights, kind="stable")


def assert_spanning_picks(inst):
    """The picks of the selected loop and of each loop alone are the reference's."""
    want = reference_greedy_spanning(inst)
    assert greedy_picks(inst, Estimator.SPANNING) == want
    assert _greedy_spanning_levels(*spanning_inputs(inst)) == want
    assert _greedy_spanning_argmax(*spanning_inputs(inst)) == want


def partition_copy(find: str, replace: str, *names: str) -> dict:
    """The names of partition, with copies of the functions ``names`` whose
    sources, the first with ``find`` replaced, are run in that scope, so
    that the later ones call the faulty first."""
    scope = dict(vars(partition))
    for name in names:
        source = textwrap.dedent(inspect.getsource(getattr(partition, name)))
        if name == names[0]:
            assert not find or source.count(find) == 1
            source = source.replace(find, replace)
        exec(compile(source, partition.__file__, "exec"), scope)
    return scope


def greedy_spanning_copy(find: str, replace: str, name: str = "_greedy_spanning_levels"):
    """A copy of the function ``name`` of partition with ``find`` replaced in
    its source, as the spanning picks of one instance: a loop called on its
    ``spanning_inputs``, or the ball builder or picks through ``_greedy_picks``."""
    if name in ("_batch_balls", "_greedy_picks"):
        scope = partition_copy(find, replace, *dict.fromkeys([name, "_greedy_picks"]))
        picks = scope["_greedy_picks"]
        return lambda inst: picks([inst], False)[0][0]
    copy = partition_copy(find, replace, name)[name]
    return lambda inst: copy(*spanning_inputs(inst))


class TestGreedyMatchesScan:
    @pytest.fixture(autouse=True)
    def time_limit(self):
        """Fail, rather than hang, if a greedy loop never ends: 30 s per case."""
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            raise TimeoutError("greedy picks did not finish in 30 s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize("m", [1, 2, 40, 64, 65, 150, 400])
    @pytest.mark.parametrize("seed", range(16))
    def test_spanning_picks(self, seed, m):
        assert_spanning_picks(random_greedy_instance(seed, m))

    @pytest.mark.parametrize("order", ["weight", "index"])
    @pytest.mark.parametrize("m", [1, 2, 40, 64, 65, 150, 400])
    @pytest.mark.parametrize("seed", range(16))
    def test_separated_picks(self, seed, m, order):
        inst = random_greedy_instance(seed, m)
        if order == "index":
            # with zero weights the weight order is the index order
            inst.weights = np.zeros(m)
        assert greedy_picks(inst, Estimator.SEPARATED) == reference_greedy_separated(inst, order)

    @pytest.mark.parametrize("eps", [0.3, 0.4, 0.49])
    @pytest.mark.parametrize("system", [Rotation(0.3), DoublingMap()], ids=["rotation", "doubling"])
    @pytest.mark.parametrize("m", [65, 400])
    def test_dense_relation_picks(self, m, system, eps, loop_calls):
        inst = dense_greedy_instance(system, m, eps)
        assert len(edges(inst, strict=True)[0]) > m * (m - 1) / 4  # most pairs are near
        assert_spanning_picks(inst)
        assert loop_calls == ["_greedy_spanning_argmax"]
        assert greedy_picks(inst, Estimator.SEPARATED) == reference_greedy_separated(inst, "weight")

    @pytest.mark.parametrize("m", [40, 150, 400])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_weights_spanning_ties_by_index(self, seed, m):
        inst = random_greedy_instance(seed, m)
        inst.weights = np.full(m, 1.5)
        assert_spanning_picks(inst)

    @pytest.mark.parametrize("m", [40, 150, 400])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zero_weights_tie_by_index(self, seed, m):
        # -0.0 == 0.0, so neither sign may outrank the other
        inst = random_greedy_instance(seed, m)
        inst.weights = np.random.default_rng([seed, m]).choice([-0.0, 0.0], size=m)
        assert np.signbit(inst.weights).any() and not np.signbit(inst.weights).all()
        assert_spanning_picks(inst)
        assert greedy_picks(inst, Estimator.SEPARATED) == reference_greedy_separated(inst, "index")

    @pytest.mark.parametrize("m", [1, 40, 400])
    def test_empty_relation_picks_every_point(self, m):
        # grid points 1/m apart at eps below that: every gain is 1, so the
        # picks are all points by weight, then index
        weights = np.random.default_rng(m).integers(0, 3, size=m).astype(float)
        pts = [real(i / m) for i in range(m)]
        inst = SeparationInstance(Rotation(0.3), 1, 0.5 / m, pts, weights)
        assert not len(edges(inst, strict=False)[0])
        assert_spanning_picks(inst)
        assert greedy_picks(inst, Estimator.SPANNING) == sorted(range(m), key=lambda i: (weights[i], i))

    @pytest.mark.parametrize("name, find, replace", [
        ("_greedy_picks", "", ""),
        ("_batch_balls", "own = np.arange(len(weights), dtype=i.dtype)", "own = i[:0]"),
        ("_greedy_spanning_levels", "", ""),
        ("_greedy_spanning_levels", "for v in order:", "for v in reversed(order):"),
        ("_greedy_spanning_levels", "if uncovered[u]:", "if True:"),
        ("_greedy_spanning_levels", "balls[bounds[u]:bounds[u + 1]]",
         "balls[bounds[v]:bounds[v + 1]]"),
        ("_greedy_spanning_argmax", "", ""),
    ], ids=["as-is", "ball-without-its-centre", "levels-as-is", "levels-weight-order-reversed",
            "levels-covered-twice-lowers-twice", "levels-lower-the-picked-ball", "argmax-as-is"])
    def test_copied_loop_with_fault_changes_picks(self, name, find, replace):
        # a copy of the greedy loop, with the fault put into its source, fails
        # on some instances of test_spanning_picks
        greedy = greedy_spanning_copy(find, replace, name)
        cases = [random_greedy_instance(seed, m) for seed in range(16) for m in (40, 150)]
        follows = [greedy(inst) == reference_greedy_spanning(inst) for inst in cases]
        assert all(follows) if not find else not all(follows)

    def test_ties_go_to_lower_weight_then_lower_index(self):
        # three mutually close points: each covers all, so weight then index decides
        pts = [real(v) for v in (0.0, 0.01, 0.02)]
        inst = SeparationInstance(Rotation(0.1), 1, 0.1, pts, np.array([1.0, 0.0, 0.0]))
        assert greedy_picks(inst, Estimator.SPANNING) == [1]
        assert_spanning_picks(inst)

    @pytest.mark.parametrize("ball, loop", [(8, "_greedy_spanning_levels"),
                                            (9, "_greedy_spanning_argmax")])
    def test_largest_closed_ball_selects_the_loop(self, ball, loop, loop_calls):
        # a cluster of `ball` mutually close points, then a chain of points
        # 0.05 apart, whose closed balls hold at most 3
        pts = [real(0.001 * i) for i in range(ball)] + [real(0.1 + 0.05 * i) for i in range(12)]
        weights = np.random.default_rng(ball).integers(0, 3, size=len(pts)).astype(float)
        inst = SeparationInstance(Rotation(0.3), 1, 0.06, pts, weights)
        assert int(np.diff(spanning_inputs(inst)[0]).max()) == ball
        assert greedy_picks(inst, Estimator.SPANNING) == reference_greedy_spanning(inst)
        assert loop_calls == [loop]


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
        pts = [fs.representative(w) for w in admissible_words(fs, 5)]  # 32 > cap
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


def reference_masks(inst, strict):
    """The masks by one numpy scatter over ``edges``."""
    i, j = edges(inst, strict)
    masks = np.int64(1) << np.arange(inst.size, dtype=np.int64)
    np.bitwise_or.at(masks, np.concatenate([i, j]), np.int64(1) << np.concatenate([j, i]))
    return masks.tolist()


def log_or_minus_inf(wmax, total) -> float:
    """wmax + log(total), or -inf for a zero total: an optimum that points of
    weight -inf alone make."""
    return float(wmax + math.log(total)) if total > 0 else -math.inf


def reference_separated(inst) -> float:
    """The separated search as a recursive closure: skip or keep the lowest candidate."""
    if np.all(inst.weights == -math.inf):
        return -math.inf
    conflict = reference_masks(inst, strict=False)
    wmax = float(inst.weights.max())
    shifted = np.exp(inst.weights - wmax)
    memo = {}

    def best(avail):
        if avail == 0:
            return 0.0
        if avail in memo:
            return memo[avail]
        v = (avail & -avail).bit_length() - 1
        out = best(avail & ~(1 << v))
        out = max(out, shifted[v] + best(avail & ~conflict[v]))
        memo[avail] = out
        return out

    return log_or_minus_inf(wmax, best((1 << inst.size) - 1))


def reference_min_cover(masks, costs, full=None) -> float:
    """The cover search as a recursive closure that scans every mask at each state."""
    m = len(masks)
    if full is None:
        full = (1 << m) - 1
    memo = {}

    def best(covered):
        if covered == full:
            return 0.0
        if covered in memo:
            return memo[covered]
        rem = ~covered & full
        j = (rem & -rem).bit_length() - 1
        out = math.inf
        for v in range(m):
            if masks[v] >> j & 1:
                out = min(out, costs[v] + best(covered | masks[v]))
        memo[covered] = out
        return out

    return best(0)


def reference_spanning(inst) -> float:
    if np.all(inst.weights == -math.inf):
        return -math.inf
    wmax = float(inst.weights.max())
    costs = np.exp(inst.weights - wmax)
    return log_or_minus_inf(wmax, reference_min_cover(reference_masks(inst, True), costs))


ORACLE_SYSTEMS = {
    "rotation": lambda rng: Rotation(float(rng.uniform(0.05, 0.45))),
    "doubling": lambda rng: DoublingMap(),
    "power-rotation": lambda rng: PowerSystem(Rotation(float(rng.uniform(0.05, 0.45))), 2),
    "full_shift(2)": lambda rng: FullShift(2),
    "full_shift(3)": lambda rng: FullShift(3),
}


def random_oracle_instance(kind, seed, m=None):
    """Up to ORACLE_CAP candidates (or m) with normal weights, some of them
    -inf; on odd seeds eps is the distance of the first two, so strict and
    closed differ."""
    rng = np.random.default_rng([seed, len(kind)])
    system = ORACLE_SYSTEMS[kind](rng)
    drawn = int(rng.integers(2, partition.ORACLE_CAP + 1)) if seed else partition.ORACLE_CAP
    m = drawn if m is None else m
    n = int(rng.integers(1, 4))
    if isinstance(system, FullShift):
        length = 5 if system.k == 2 else 3
        words = [system.representative(w) for w in admissible_words(system, length)]
        pts = [words[i] for i in rng.choice(len(words), size=m, replace=False)]
        eps = float(rng.uniform(0.2, 1.5))
    else:
        pts = [real(float(v)) for v in rng.random(m)]
        eps = float(rng.uniform(0.05, 0.3))
    if seed % 2:
        eps = system.bowen_metric(n, pts[0], pts[1])
    weights = rng.normal(scale=1.5, size=m)
    weights[rng.random(m) < 0.1] = -math.inf
    weights[0] = float(rng.normal())
    return SeparationInstance(system, n, eps, pts, weights)


class TestOracleSearch:
    """The oracles against recursive closures that scan every mask, bit for bit."""

    @pytest.mark.parametrize("kind", ORACLE_SYSTEMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_oracles_match_the_closure_searches(self, kind, seed):
        inst = random_oracle_instance(kind, seed)
        for strict in (False, True):
            assert batch_masks([inst], strict) == [reference_masks(inst, strict)]
        if len(inst.pairs()[0]):
            assert exact_separated_value(inst).log_value == reference_separated(inst)
        assert exact_spanning_value(inst).log_value == reference_spanning(inst)

    def test_covers_by_minus_inf_points_alone_are_minus_inf(self):
        # points of weight -inf alone span 7 of the instances above; their
        # cover costs exp(-inf) = 0, and the optimum is log 0 = -inf
        spans = [exact_spanning_value(random_oracle_instance(kind, seed)).log_value
                 for kind in ORACLE_SYSTEMS for seed in range(10)]
        assert spans.count(-math.inf) == 7

    def test_minus_inf_weights_give_minus_inf_without_warnings(self):
        pts = [real(v) for v in (0.0, 0.1, 0.2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the two outer points cover all three at eps = 0.15 for nothing
            inst = SeparationInstance(Rotation(0.3), 1, 0.15, pts,
                                      np.array([-math.inf, 0.0, -math.inf]))
            assert exact_spanning_value(inst).log_value == -math.inf
            assert exact_separated_value(inst).log_value == 0.0
            for eps in (0.05, 0.15, 0.5):  # no pairs, some, all
                inst = SeparationInstance(Rotation(0.3), 1, eps, pts, np.full(3, -math.inf))
                assert exact_spanning_value(inst).log_value == -math.inf
                assert exact_separated_value(inst).log_value == -math.inf

    def test_zero_weights_count_alike(self):
        for seed in range(6):
            inst = random_oracle_instance("rotation", seed)
            inst = SeparationInstance(inst.system, inst.n, inst.eps, inst.points,
                                      np.zeros(inst.size))
            span, sep = count_spanning_separated(inst.system, inst.n, inst.eps, inst.points)
            assert span == round(math.exp(reference_spanning(inst)))
            assert sep == round(math.exp(reference_separated(inst)))

    @pytest.mark.parametrize("seed", range(40))
    def test_min_cover_matches_the_mask_scan(self, seed):
        # non-square: more or fewer sets than elements, repeated sets with
        # their own costs, zero costs, and elements that no set covers
        rng = np.random.default_rng([seed, 91])
        elements = int(rng.integers(1, 13))
        full = (1 << elements) - 1
        masks = [int(v) for v in rng.integers(0, full + 1, size=int(rng.integers(1, 16)))]
        masks += [masks[int(i)] for i in rng.integers(0, len(masks), size=int(rng.integers(0, 5)))]
        costs = rng.exponential(size=len(masks))
        costs[rng.random(len(masks)) < 0.15] = 0.0
        assert exact_min_cover(masks, costs, full) == reference_min_cover(masks, costs, full)
        square, square_costs = masks[:elements], costs[:elements]
        if len(square) == elements:  # one set per element, full by default
            assert exact_min_cover(square, square_costs) == reference_min_cover(
                square, square_costs)

    def test_min_cover_ignores_bits_outside_full(self):
        assert exact_min_cover([0b011, 0b100], np.array([1.0, 2.0]), full=0b101) == 3.0
        assert exact_min_cover([0b1110, 0b0011], np.array([0.5, 1.0]), full=0b0110) == 0.5

    def test_min_cover_is_inf_when_an_element_lies_in_no_set(self):
        assert exact_min_cover([0b001, 0b100], np.array([1.0, 2.0]), full=0b111) == math.inf
        assert exact_min_cover([0b011, 0b000, 0b011], np.array([1.0, 1.0, 0.5])) == math.inf
        assert exact_min_cover([], np.array([]), full=0) == 0.0

    def test_oracles_leave_no_cyclic_garbage(self):
        inst = random_rotation_instance(3, size=9)
        inst.pairs()
        gc.collect()
        gc.disable()
        try:
            exact_separated_value(inst)
            exact_spanning_value(inst)
            exact_min_cover([0b011, 0b110, 0b100], np.array([1.0, 2.0, 0.5]))
            assert gc.collect() == 0
        finally:
            gc.enable()


def mixed_oracle_batch(seed):
    """A batch of every oracle system, m from 1 to ORACLE_CAP, each kind on
    random eps (odd seeds at the distance of a pair), at an eps below every
    distance (no pairs) and above every distance (every pair), with weights
    of -inf among them, in a shuffled order."""
    rng = np.random.default_rng([seed, 31])
    batch = [random_oracle_instance(kind, int(s))
             for kind in ORACLE_SYSTEMS for s in rng.integers(0, 40, size=3)]
    for m in range(1, partition.ORACLE_CAP + 1):
        kind = list(ORACLE_SYSTEMS)[(seed + m) % len(ORACLE_SYSTEMS)]
        base = random_oracle_instance(kind, int(rng.integers(0, 40)) * 2 + (m > 1), m)
        weights = base.weights + rng.normal(scale=20.0)  # maxima far apart across the batch
        for eps in (base.eps, 1e-9, 4.0):
            batch.append(SeparationInstance(base.system, base.n, eps, base.points, weights))
    batch.append(SeparationInstance(Rotation(0.3), 1, 0.15, [real(v) for v in (0.0, 0.1, 0.2)],
                                    np.full(3, -math.inf)))
    return [batch[x] for x in rng.permutation(len(batch))]


class TestOracleBatches:
    """``exact_optima`` on mixed batches against the one-case forms and the
    closure searches, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batches_match_one_case_forms_and_references(self, seed):
        batch = mixed_oracle_batch(seed)
        sizes = {inst.size for inst in batch}
        assert sizes == set(range(1, partition.ORACLE_CAP + 1))
        assert any(not len(inst.pairs()[0]) for inst in batch)
        assert any(len(inst.pairs()[0]) == inst.size * (inst.size - 1) // 2 > 0 for inst in batch)
        assert any(np.isneginf(inst.weights).any() for inst in batch)
        assert any((inst.pairs()[2] == inst.eps).any() for inst in batch)
        seps = exact_optima(batch, Estimator.SEPARATED)
        spans = exact_optima(batch, Estimator.SPANNING)
        for inst, sep, span in zip(batch, seps, spans):
            assert type(sep) is float and type(span) is float
            assert sep == exact_separated_value(inst).log_value
            assert span == exact_spanning_value(inst).log_value
            if len(inst.pairs()[0]):
                assert sep == reference_separated(inst)
            else:
                assert sep == logsumexp(inst.weights)
            assert span == reference_spanning(inst)
        for strict in (False, True):
            assert batch_masks(batch, strict) == [reference_masks(inst, strict) for inst in batch]

    @pytest.mark.parametrize("seed", range(4))
    def test_a_value_does_not_depend_on_its_batch(self, seed):
        batch = mixed_oracle_batch(seed)
        rng = np.random.default_rng([seed, 32])
        for estimator in (Estimator.SEPARATED, Estimator.SPANNING):
            whole = exact_optima(batch, estimator)
            order = rng.permutation(len(batch))[:len(batch) // 2]
            part = exact_optima([batch[x] for x in order], estimator)
            assert part == [whole[x] for x in order]
            assert exact_optima([], estimator) == []

    def test_no_search_runs_in_a_batch_past_the_cap(self, monkeypatch):
        searched = []
        for name in ("_min_cover", "_best_independent"):
            monkeypatch.setattr(partition, name, lambda *a, name=name: searched.append(name))
        small = random_oracle_instance("rotation", 2)
        big = make_instance(Rotation(0.3), 1, 0.4, [real(v / 50.0) for v in range(25)])
        for estimator in (Estimator.SPANNING, Estimator.SEPARATED):
            with pytest.raises(InstanceTooLargeError, match="25 candidates"):
                exact_optima([small, big, small], estimator)
        assert searched == []
        # a spanning instance checks the cap before its relation is read
        fs = FullShift(2)
        words = [fs.representative(w) for w in admissible_words(fs, 5)]
        spread = SeparationInstance(fs, 5, deflated_scale(0), words, np.zeros(len(words)))
        with pytest.raises(InstanceTooLargeError):
            exact_optima([spread], Estimator.SPANNING)
        assert spread._relations is None
        # a separated instance with no pairs is not searched, at any size
        [val] = exact_optima([spread], Estimator.SEPARATED)
        assert val == logsumexp(spread.weights) and searched == []


GREEDY_SYSTEMS = {
    "rotation": lambda rng: Rotation(float(rng.uniform(0.05, 0.45))),
    "contraction": lambda rng: Contraction(float(rng.uniform(0.2, 0.8)), float(rng.random())),
    "doubling": lambda rng: DoublingMap(),
    "full_shift(2)": lambda rng: FullShift(2),
    "full_shift(3)": lambda rng: FullShift(3),
}


def greedy_batch_instance(kind, seed, m):
    """m candidates at a random (n, eps): weights in {0, 1, 2} on even seeds,
    so ties occur, and normal on odd ones, about a tenth of them -inf."""
    rng = np.random.default_rng([seed, m, len(kind)])
    system = GREEDY_SYSTEMS[kind](rng)
    n = int(rng.integers(1, 4))
    if isinstance(system, FullShift):
        length = 6 if system.k == 2 else 4  # 64 and 81 words
        words = [system.representative(w) for w in admissible_words(system, length)]
        pts = [words[i] for i in sorted(rng.choice(len(words), size=m, replace=False))]
        eps = deflated_scale(int(rng.integers(0, 3)))
    else:
        pts = [real(float(v)) for v in rng.random(m)]
        eps = float(rng.uniform(0.02, 0.3))
    if seed % 2:
        weights = rng.normal(scale=1.5, size=m)
    else:
        weights = rng.integers(0, 3, size=m).astype(float)
    weights[rng.random(m) < 0.1] = -math.inf
    return SeparationInstance(system, n, eps, pts, weights)


def mixed_greedy_batch(seed):
    """Every m from 1 to 60, over the five systems, each at its own eps,
    below every distance and above every distance, with three points whose
    weights are all -inf and three whose weights tie, shuffled."""
    rng = np.random.default_rng([seed, 60])
    batch = []
    for m in range(1, 61):
        kind = list(GREEDY_SYSTEMS)[(seed + m) % len(GREEDY_SYSTEMS)]
        base = greedy_batch_instance(kind, int(rng.integers(0, 1000)), m)
        for eps in (base.eps, 1e-9, 4.0):
            batch.append(SeparationInstance(base.system, base.n, eps, base.points, base.weights))
    pts = [real(v) for v in (0.0, 0.1, 0.2)]
    for w in (-math.inf, 0.5):
        batch.append(SeparationInstance(Rotation(0.3), 1, 0.15, pts, np.full(3, w)))
    return [batch[x] for x in rng.permutation(len(batch))]


class TestGreedyBatches:
    """``greedy_optima`` on mixed batches against the one-case forms and the
    reference greedy loops, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batches_match_one_case_forms_and_references(self, seed):
        batch = mixed_greedy_batch(seed)
        assert {inst.size for inst in batch} == set(range(1, 61))
        assert {inst.system.label.split("(")[0] for inst in batch} == {
            "rotation", "contraction", "doubling", "full_shift"}
        assert {inst.system.k for inst in batch if isinstance(inst.system, FullShift)} == {2, 3}
        assert any(inst.size > 1 and not len(inst.pairs()[0]) for inst in batch)
        assert any(len(inst.pairs()[0]) == inst.size * (inst.size - 1) // 2 > 0 for inst in batch)
        assert any(np.isneginf(inst.weights).all() for inst in batch)
        assert any(inst.size > 1 and (inst.weights == inst.weights[0]).all() for inst in batch)
        seps = greedy_optima(batch, Estimator.SEPARATED)
        spans = greedy_optima(batch, Estimator.SPANNING)
        for inst, sep, span in zip(batch, seps, spans):
            assert type(sep) is float and type(span) is float
            assert sep == separated_lower_bound(inst).log_value
            assert span == spanning_upper_bound(inst).log_value
            kept = reference_greedy_separated(inst, "weight")
            assert greedy_picks(inst, Estimator.SEPARATED) == kept
            assert [inst.points[i] for i in kept] == greedy_separated(inst)
            assert sep == logsumexp(inst.weights[kept])
            assert span == logsumexp(inst.weights[reference_greedy_spanning(inst)])
        # the balls, past ORACLE_CAP, of the batch and of its largest instances alone
        pairs = [reference_relation(inst.system, inst.n, inst.points, math.inf) for inst in batch]
        check_masks(batch, pairs)
        for x in np.argsort([inst.size for inst in batch])[-6:]:
            check_masks([batch[x]], [pairs[x]])

    @pytest.mark.parametrize("seed", range(4))
    def test_a_value_does_not_depend_on_its_batch_or_place(self, seed):
        batch = mixed_greedy_batch(seed)
        rng = np.random.default_rng([seed, 61])
        for estimator in (Estimator.SEPARATED, Estimator.SPANNING):
            whole = greedy_optima(batch, estimator)
            order = rng.permutation(len(batch))
            assert greedy_optima([batch[x] for x in order], estimator) == [whole[x] for x in order]
            part = order[:len(batch) // 3]
            assert greedy_optima([batch[x] for x in part], estimator) == [whole[x] for x in part]
            assert greedy_optima(batch[::-1] + batch, estimator) == whole[::-1] + whole
            assert greedy_optima([], estimator) == []

    @pytest.mark.parametrize("block", [1, 59, 60, 61, 500, DEFAULT_BLOCK])
    def test_cutting_at_the_block_changes_no_value(self, monkeypatch, block):
        batch = mixed_greedy_batch(1)
        want = [greedy_optima(batch, e) for e in (Estimator.SEPARATED, Estimator.SPANNING)]
        batches = []
        picks = partition._greedy_picks
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block)
        monkeypatch.setattr(partition, "_greedy_picks",
                            lambda insts, sep: batches.append(list(insts)) or picks(insts, sep))
        size = {id(inst): np.array([inst.size, len(inst.pairs()[0])]) for inst in batch}
        for estimator, values in zip((Estimator.SEPARATED, Estimator.SPANNING), want):
            batches.clear()
            assert greedy_optima(batch, estimator) == values
            # consecutive instances, each batch within the block in points and
            # in pairs or one instance past it, cut only where the next
            # instance would pass the block in one or the other
            assert [id(inst) for part in batches for inst in part] == [id(inst) for inst in batch]
            totals = [sum(size[id(inst)] for inst in part) for part in batches]
            assert all(total.max() <= block or len(part) == 1
                       for total, part in zip(totals, batches))
            grown = [total + size[id(part[0])] for total, part in zip(totals, batches[1:])]
            assert all(total.max() > block for total in grown)
        if block == 1:
            assert len(batches) == len(batch)
        else:  # some cut by pairs where the points would fit
            assert any(total[0] <= block < total[1] for total in grown)


def segment_cases(seed):
    """Random (values, lengths) cases: segments of 1 to 300 values cross the
    pairwise sum's blocks, with ties, -inf, inf and NaN."""
    rng = np.random.default_rng([seed, 300])
    cases = []
    for trial in range(200):
        lengths = rng.integers(1, 300, size=int(rng.integers(1, 9))).tolist()
        values = rng.normal(scale=5.0, size=sum(lengths))
        if trial % 3 == 0:
            values = rng.integers(0, 3, size=len(values)).astype(float)
        values[rng.random(len(values)) < 0.05] = -math.inf
        cuts = np.cumsum([0] + lengths)
        edit = rng.integers(0, len(lengths))
        if trial % 4 == 1:
            values[cuts[edit]:cuts[edit + 1]] = -math.inf
        elif trial % 4 == 2:
            values[cuts[edit]] = math.inf if trial % 8 == 2 else math.nan
        cases.append((values, lengths))
    return cases


def row_cases():
    """Six equal-length segments per case: plain, all tied, half -inf, all
    -inf, one inf, one NaN; widths of 8 and 128 values and past them cross
    the sum's block sizes."""
    rng = np.random.default_rng(11)
    cases = []
    for width in (1, 3, 8, 9, 128, 130):
        rows = rng.normal(scale=3.0, size=(6, width))
        rows[1] = rows[1].max()
        rows[2, : width // 2 + 1] = -math.inf
        rows[3] = -math.inf
        rows[4, 0] = math.inf
        rows[5, -1] = math.nan
        cases.append((rows.ravel(), [width] * 6))
    return cases


def segments(values, lengths):
    cuts = np.cumsum([0] + lengths)
    return [values[a:b] for a, b in zip(cuts, cuts[1:])]


def hexes(values):
    return [float(v).hex() for v in values]


def scipy_agreement(segmented, one, cases):
    """Per case, whether each segment's float from ``segmented`` over the
    case, and from ``one`` on that segment alone, is scipy.special.logsumexp's."""
    special = pytest.importorskip("scipy.special")
    agree = []
    for values, lengths in cases:
        parts = segments(values, lengths)
        want = hexes(special.logsumexp(part) for part in parts)
        agree.append(hexes(segmented(values, lengths)) == want
                     and hexes(map(one, parts)) == want)
    return agree


def logsumexp_segments_copy(find: str, replace: str):
    """A copy of ``logsumexp_segments`` with ``find`` replaced once in its source."""
    source = textwrap.dedent(inspect.getsource(logsum.logsumexp_segments))
    assert not find or source.count(find) == 1
    scope = dict(vars(logsum))
    exec(compile(source.replace(find, replace), logsum.__file__, "exec"), scope)
    return scope["logsumexp_segments"]


CASE_SETS = [0, 1, 2, 3, "rows"]


def cases_of(which):
    """The cases of one entry of CASE_SETS: a seed's random cases, or the rows."""
    return row_cases() if which == "rows" else segment_cases(which)


def every_case():
    return [case for which in CASE_SETS for case in cases_of(which)]


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

    @pytest.mark.parametrize("which", CASE_SETS)
    def test_segments_are_one_segment_calls(self, which):
        # every segment's float is that of a call on it alone, whatever the
        # segments around it hold
        for values, lengths in cases_of(which):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = logsumexp_segments(values, lengths)
                want = [logsumexp(part) for part in segments(values, lengths)]
            assert hexes(got) == hexes(want)

    def test_matches_scipy_bit_for_bit(self):
        # the one implementation against an independent one: segmented and
        # one-dimensional inputs, with ties, -inf, inf and NaN
        cases = every_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agree = scipy_agreement(logsumexp_segments, logsumexp, cases)
        assert agree == [True] * len(cases)

    @pytest.mark.parametrize("find, replace", [
        ("", ""),
        ("np.array([terms[a:b].sum() for a, b in zip(heads, cuts[1:])])",
         "np.add.reduceat(terms, heads)"),
    ], ids=["as-is", "reduceat-sum"])
    def test_copied_segments_with_fault_fail(self, find, replace):
        # a running np.add.reduceat sum is consistent with itself, one
        # segment or many, so only the scipy reference sees its other bits
        copy = logsumexp_segments_copy(find, replace)
        cases = every_case()
        agree = scipy_agreement(copy, lambda part: copy(part, [len(part)])[0], cases)
        assert all(agree) if not find else not all(agree)


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
        pts = [fs.representative(w) for w in admissible_words(fs, 5)]
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
