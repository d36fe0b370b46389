"""Separated/spanning machinery against independent brute-force enumeration."""

import gc
import itertools
import math
import signal

import numpy as np
import pytest

from pdim import partition, systems
from pdim.logsum import logsumexp
from pdim.partition import (
    Estimator,
    SeparationInstance,
    InstanceTooLargeError,
    bowen_distance_matrix,
    bowen_relation,
    bowen_relations,
    count_spanning_separated,
    exact_min_cover,
    exact_separated_value,
    exact_spanning_value,
    greedy_separated,
    make_instance,
    make_instances,
    separated_lower_bound,
    spanning_upper_bound,
)
from pdim.partition import (
    _edges,
    _greedy_separated_indices,
    _greedy_spanning_indices,
)
from pdim.potentials import Birkhoff, symbol_weights
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
    Word,
    golden_mean_sft,
    real,
    shift_metric,
)


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
        pts = [fs.representative(w) for w in fs.admissible_words(6)]
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
             for w in shift.admissible_words(length)]
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
             for w in shift.admissible_words(length)]
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


# _BLOCK_ENTRIES values for 23 points, each forcing one blocking of the triangle:
# one row and one time step per call; row blocks of 4, 5, 7 and a partial 7
# rows, the last one taking 2 time steps in its first chunk; one block whose
# first chunk takes 3 time steps.  Past its first chunk a block steps its
# surviving pairs, as many time steps per call as fit.
TRIANGLE_BLOCKS = {"rows-1": 1, "rows-4-5-7-7": 100, "steps-3": 2000}


class TestKernelsMatchBowenMetric:
    """The array kernels against System.bowen_metric, with ==.

    ``block`` 100 cuts every matrix into triangle row blocks of changing
    width, so several blocks and a partial last one are exercised; 2000
    gives the small matrices blocks of several time steps, with a partial
    last chunk; None keeps the module's block size.
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
            # a block's first chunk is (time steps, rows, columns); then each
            # call steps the pairs still within eps (here all) as (time steps, pairs)
            if name == "rows-1":
                assert shapes == [call for lo in range(m) for call in
                                  [(1, 1, m - lo)] + [(1, m - lo - 1)] * (n - 1) * (lo < m - 1)]
            if name == "rows-4-5-7-7":
                assert shapes == [(1, 4, 23)] + [(1, 82)] * (n - 1) + \
                    [(1, 5, 19)] + [(1, 80)] * (n - 1) + [(1, 7, 14)] + [(1, 70)] * (n - 1) + \
                    [(min(n, 2), 7, 7)] + [(k, 21) for k in chunks(max(0, n - 2), 4)]
            if name == "steps-3":
                assert shapes == [(min(n, 3), m, m)] + \
                    [(k, 253) for k in chunks(max(0, n - 3), 7)]
            if name == "default":  # a small orbit's whole time range in one call
                assert shapes == [(n, m, m)]

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
            si, sj = _edges(inst, strict=True)
            ei, ej = np.nonzero(upper & (d < eps))
            assert (si.tolist(), sj.tolist()) == (ei.tolist(), ej.tolist()), (block, eps)
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
        return system, 3, [system.representative(w) for w in system.admissible_words(5)]
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


def stepped_after_first_chunks(shapes) -> int:
    """Pairs gathered by the call after each row block's first chunk, from its
    ``record_metric_calls`` shapes: the pairs a block steps past its first chunk."""
    firsts = [k for k, shape in enumerate(shapes) if len(shape) == 3]
    return sum(shapes[k + 1][1] for k in firsts if k + 1 < len(shapes)
               and len(shapes[k + 1]) == 2)


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
        # one 3-D row-block call; one more point, and only the candidates
        # within the window (each point's next neighbour, the wrap included)
        # are stepped
        system, pts = DoublingMap(), [real(i / m) for i in range(m)]
        shapes = record_metric_calls(monkeypatch, system)
        i, j, _ = bowen_relation(system, 1, pts, 0.01)
        assert len(i) == m
        assert shapes == ([(1, m, m)] if m == 181 else [(1, m)])

    @pytest.mark.parametrize("system, n, eps", [(DoublingMap(), 6, 0.3), (FullShift(2), 8, 1.0)],
                             ids=["doubling", "words"])
    def test_loose_windows_keep_the_row_blocks(self, monkeypatch, system, n, eps):
        # past one block (214 and 512 points) the radius does not shrink at
        # these eps, the windows hold over a quarter of the pairs, and the row
        # blocks run; at eps / 2 the radius shrinks, and the same points sweep
        pts = system.candidate_set(n, eps).points
        assert len(pts) ** 2 > DEFAULT_BLOCK
        shapes = record_metric_calls(monkeypatch, system)
        assert len(bowen_relation(system, n, pts, eps)[0]) > 0
        assert len(shapes[0]) == 3
        shapes.clear()
        bowen_relation(system, n, pts, eps / 2)
        assert {len(shape) for shape in shapes} == {2}

    def test_pairs_drop_out_in_later_chunks(self, monkeypatch):
        # one row and one time step per call, on the doubling map as a power
        # system, which keeps the default radius eps; at eps = 0.15 the sweep
        # windows hold 27% of the pairs, over a quarter, so the row blocks
        # run.  Distances grow: some pairs within eps at t = 0 pass it later,
        # and some row blocks keep no pair past t = 0, so no gather follows them
        system = PowerSystem(DoublingMap(), 1)
        pts = [real(float(v)) for v in np.random.default_rng(5).random(40)]
        n, eps = 6, 0.15
        shapes = record_metric_calls(monkeypatch, system)
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 1)
        i, _, _ = bowen_relation(system, n, pts, eps)
        d = pairwise_bowen(system, n, pts)
        assert len(i) == np.count_nonzero(np.triu(d <= eps, 1)) > 0
        firsts = [k for k, shape in enumerate(shapes) if len(shape) == 3]
        assert len(firsts) == len(pts)
        # a block's first chunk followed at once by the next block's
        assert any(b == a + 1 for a, b in zip(firsts[:-2], firsts[1:-1]))
        # pairs stepped at t = 1 (each block's first gather) outnumber the kept ones
        assert stepped_after_first_chunks(shapes) > len(i)

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
            assert {len(shape) for shape in shapes} == {2}  # no row block
            stepped.append(sum(shape[1] for shape in shapes))
        # the kept pairs are stepped n times each; the power system steps more
        assert n * len(i) <= stepped[0] < stepped[1]

    @pytest.mark.parametrize("name", ["array", "no-array-form"])
    def test_pair_budget_raises_before_keeping(self, monkeypatch, name):
        # 16 bytes per kept pair; the first row block alone goes over the
        # budget, which still holds the 800-byte orbit
        if name == "array":
            system, pts = Rotation(0.3), [real(v / 100) for v in range(100)]
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 100)  # one row per block
        else:
            system, pts = FullShift(2), FALLBACK_WORDS["mixed-tails"] * 3
        i, j, _ = bowen_relation(system, 1, pts, 0.5)
        first = np.count_nonzero(i == 0)
        assert 0 < first < len(i)
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * len(i))
        assert len(bowen_relation(system, 1, pts, 0.5)[0]) == len(i)
        monkeypatch.setattr(systems, "ARRAY_BUDGET_BYTES", 16 * first - 1)
        shapes = record_metric_calls(monkeypatch, system)
        with pytest.raises(BudgetExceededError,
                           match=f"Bowen relation of {len(pts)} points needs {16 * first} bytes"):
            bowen_relation(system, 1, pts, 0.5)
        # it stopped in the first row block
        assert sum(len(shape) == 3 for shape in shapes) == (name == "array")


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
        # the pair alone goes by row blocks; among 16 spread points, by the sweep
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
    small eps where the sweep should run, eps = inf where the row blocks must."""
    ns = [int(v) for v in rng.integers(1, 9, size=5)]
    ns += [ns[0], ns[1]]
    if path == "sweep":
        eps = [float(v) for v in rng.uniform(0.002, 0.02, size=3)] + [0.01]
    else:
        own = pts_d[np.triu_indices(len(pts_d), 1)]
        eps = [float(rng.choice(own)), 0.05, 0.25, 1.0, math.inf]
    out = [(n, float(rng.choice(eps))) for n in ns]
    out.append(out[2])
    if path == "row-blocks":
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
        for path, block in (("one-block", DEFAULT_BLOCK), ("sweep", 100), ("row-blocks", 100),
                            ("row-blocks", 1), ("sweep", 2000)):
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
                if m * m <= block:
                    seen.add("one-block")
                    assert calls[0][1:] == (m, m)
                elif dims == {2}:
                    seen.add("sweep")
                elif dims:
                    seen.add("row-blocks")
                    assert len(calls[0]) == 3
        assert seen == {"one-block", "sweep", "row-blocks"}

    def test_a_family_walks_one_orbit(self, monkeypatch):
        # 16 requests on 8 points cost one orbit at the largest n and one
        # row-block call per requested n
        system = Rotation(0.125)
        grid = [real(i / 8.0) for i in range(8)]
        requests = [(n, eps) for n in range(1, 9) for eps in (0.2, 0.3)]
        built = []
        orbit = partition.orbit_array
        monkeypatch.setattr(partition, "orbit_array",
                            lambda s, n, p: built.append(n) or orbit(s, n, p))
        shapes = record_metric_calls(monkeypatch, system)
        family = bowen_relations(system, grid, requests)
        assert built == [8] and shapes[0] == (1, 8, 8) and len(shapes) == 8
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
        # two potentials, four requests: one bowen_relations call on first use,
        # and members with one (n, eps) share its arrays
        system = Rotation(0.3)
        pts = [real(float(v)) for v in np.random.default_rng(4).random(12)]
        pot = Birkhoff(phi=lambda x: np.sin(2 * np.pi * x), system=system, name="sin")
        requests = [(3, 0.2), (1, 0.1), (3, 0.1), (2, 0.4)]
        expect = [bowen_relation(system, n, pts, eps) for n, eps in requests]
        calls = []
        relations = partition.bowen_relations
        monkeypatch.setattr(partition, "bowen_relations",
                            lambda *a: calls.append(a[2]) or relations(*a))
        plain, weighted = make_instances(system, pts, requests, [None, pot])
        assert calls == []
        for inst, (n, eps), want in zip(weighted, requests, expect):
            assert (inst.n, inst.eps) == (n, eps)
            assert inst.weights.tobytes() == pot.eval_array(n, pts).tobytes()
            assert same_arrays(inst.pairs(), want)
        assert not any(inst.weights.any() for inst in plain)
        assert calls == [requests]
        for a, b in zip(plain, weighted):
            assert a.pairs() is b.pairs()
        assert len(calls) == 1

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
        words = [system.representative(w) for w in system.admissible_words(length)]
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
        inst = random_greedy_instance(seed, m)
        assert _greedy_spanning_indices(inst) == reference_greedy_spanning(inst)

    @pytest.mark.parametrize("order", ["weight", "index"])
    @pytest.mark.parametrize("m", [1, 2, 40, 64, 65, 150, 400])
    @pytest.mark.parametrize("seed", range(16))
    def test_separated_picks(self, seed, m, order):
        inst = random_greedy_instance(seed, m)
        if order == "index":
            # with zero weights the weight order is the index order
            inst.weights = np.zeros(m)
        assert _greedy_separated_indices(inst) == reference_greedy_separated(inst, order)

    @pytest.mark.parametrize("eps", [0.3, 0.4, 0.49])
    @pytest.mark.parametrize("system", [Rotation(0.3), DoublingMap()], ids=["rotation", "doubling"])
    @pytest.mark.parametrize("m", [65, 400])
    def test_dense_relation_picks(self, m, system, eps):
        inst = dense_greedy_instance(system, m, eps)
        assert len(_edges(inst, strict=True)[0]) > m * (m - 1) / 4  # most pairs are near
        assert _greedy_spanning_indices(inst) == reference_greedy_spanning(inst)
        assert _greedy_separated_indices(inst) == reference_greedy_separated(inst, "weight")

    @pytest.mark.parametrize("m", [40, 150, 400])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_weights_spanning_ties_by_index(self, seed, m):
        inst = random_greedy_instance(seed, m)
        inst.weights = np.full(m, 1.5)
        assert _greedy_spanning_indices(inst) == reference_greedy_spanning(inst)

    @pytest.mark.parametrize("m", [40, 150, 400])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zero_weights_tie_by_index(self, seed, m):
        # -0.0 == 0.0, so neither sign may outrank the other
        inst = random_greedy_instance(seed, m)
        inst.weights = np.random.default_rng([seed, m]).choice([-0.0, 0.0], size=m)
        assert np.signbit(inst.weights).any() and not np.signbit(inst.weights).all()
        assert _greedy_spanning_indices(inst) == reference_greedy_spanning(inst)
        assert _greedy_separated_indices(inst) == reference_greedy_separated(inst, "index")

    @pytest.mark.parametrize("m", [1, 40, 400])
    def test_empty_relation_picks_every_point(self, m):
        # grid points 1/m apart at eps below that: every gain is 1, so the
        # picks are all points by weight, then index
        weights = np.random.default_rng(m).integers(0, 3, size=m).astype(float)
        pts = [real(i / m) for i in range(m)]
        inst = SeparationInstance(Rotation(0.3), 1, 0.5 / m, pts, weights)
        assert not len(_edges(inst, strict=False)[0])
        picks = _greedy_spanning_indices(inst)
        assert picks == reference_greedy_spanning(inst)
        assert picks == sorted(range(m), key=lambda i: (weights[i], i))

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


def reference_masks(inst, strict):
    """The masks by one numpy scatter over ``_edges``."""
    i, j = _edges(inst, strict)
    masks = np.int64(1) << np.arange(inst.size, dtype=np.int64)
    np.bitwise_or.at(masks, np.concatenate([i, j]), np.int64(1) << np.concatenate([j, i]))
    return masks.tolist()


def reference_separated(inst) -> float:
    """The separated search as a recursive closure: skip or keep the lowest candidate."""
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

    return float(wmax + math.log(best((1 << inst.size) - 1)))


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
    wmax = float(inst.weights.max())
    costs = np.exp(inst.weights - wmax)
    return float(wmax + math.log(reference_min_cover(reference_masks(inst, True), costs)))


def outcome(f):
    """f's value, or the type of the error it raises."""
    try:
        return f()
    except ValueError as err:
        return type(err)


ORACLE_SYSTEMS = {
    "rotation": lambda rng: Rotation(float(rng.uniform(0.05, 0.45))),
    "doubling": lambda rng: DoublingMap(),
    "power-rotation": lambda rng: PowerSystem(Rotation(float(rng.uniform(0.05, 0.45))), 2),
    "full_shift(2)": lambda rng: FullShift(2),
    "full_shift(3)": lambda rng: FullShift(3),
}


def random_oracle_instance(kind, seed):
    """Up to ORACLE_CAP candidates with normal weights, some of them -inf; on
    odd seeds eps is the distance of the first two, so strict and closed differ."""
    rng = np.random.default_rng([seed, len(kind)])
    system = ORACLE_SYSTEMS[kind](rng)
    m = int(rng.integers(2, partition.ORACLE_CAP + 1)) if seed else partition.ORACLE_CAP
    n = int(rng.integers(1, 4))
    if isinstance(system, FullShift):
        words = [system.representative(w) for w in system.admissible_words(5 if system.k == 2 else 3)]
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
            assert partition._masks(inst, strict) == reference_masks(inst, strict)
        if len(inst.pairs()[0]):
            assert exact_separated_value(inst).log_value == reference_separated(inst)
        # a zero-cost cover (by -inf weights) takes log 0, which both refuse
        assert outcome(lambda: exact_spanning_value(inst).log_value) == outcome(
            lambda: reference_spanning(inst))

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
