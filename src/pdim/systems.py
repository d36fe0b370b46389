"""Model dynamical systems: symbolic shifts and interval/circle maps.

Points are either eventually-constant symbol sequences (``Word``) or real
numbers (``RealPoint``).  Every system knows its map, its base metric, the
induced orbit (Bowen) metric, and how to generate a finite candidate set
that is dense enough for scale-``eps`` estimates.

Every system has one array form: ``coordinates`` turns a point list into
an array, ``apply_array`` maps it and ``metric_array`` compares two of them
by broadcasting.  A real point's coordinate is its x value; ``apply`` and
``metric`` on RealPoints are the one-point cases, defined once on
``System``.  A word's coordinates are its bit planes (``ShiftSystem``), so a
shift's array form is exact integer arithmetic.  ``Word.shift``,
``shift_metric`` and ``System.bowen_metric`` stay as the scalar references
that the array forms are tested against.

A candidate set's points are a ``Grid``: one array, built by numpy, with a
row per candidate (``RealGrid``: the x values; ``WordGrid``: the symbols of
the admissible words, in ``ShiftSystem.word_rows`` order).  ``coordinates``
and ``word_array`` read that array, so the estimators build no point object;
a ``RealPoint`` or ``representative`` word is built only when a row is read.
Points that carry their orbit (``OrbitPoints``, from ``with_orbit``) give
``orbit_array`` its rows back, for their system and every power of it, so
a point set is stepped once however many weights and relations read it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np


class BudgetExceededError(RuntimeError):
    """Candidate generation would exceed the point budget."""


# Most symbols a word may have in a shift's array form: its distances are
# integers below 2^53 times 2^-52, so float64 holds them exactly.
WORD_BITS = 53
# Largest array built from a candidate set: orbit_array here, and in
# pdim.partition the Bowen distance matrix (8·m^2 bytes) and the pairs a Bowen
# relation walk keeps (16 bytes a pair).  Before its first step a walk also
# bounds the pairs it would step from t = 0 (every pair, m(m-1)/2, on row
# blocks) by the 2^27 pairs the budget keeps.
ARRAY_BUDGET_BYTES = 2 * 1024**3


def _check_array_budget(rows: int, cols: int, what: str) -> None:
    nbytes = 8 * rows * cols
    if nbytes > ARRAY_BUDGET_BYTES:
        raise BudgetExceededError(
            f"{what} needs {nbytes} bytes, over the {ARRAY_BUDGET_BYTES}-byte budget")


class Word:
    """Eventually-constant symbol sequence: explicit prefix, then ``tail`` forever."""

    def __init__(self, symbols: tuple[int, ...], tail: int = 0):
        self.symbols, self.tail = symbols, tail

    def __eq__(self, other):
        if type(other) is not Word:
            return NotImplemented
        return (self.symbols, self.tail) == (other.symbols, other.tail)

    def __hash__(self) -> int:
        return hash((self.symbols, self.tail))

    def coord(self, i: int) -> int:
        return self.symbols[i] if i < len(self.symbols) else self.tail

    def shift(self) -> "Word":
        if not self.symbols:
            return self
        return Word(self.symbols[1:], self.tail)

    def prefix(self, length: int) -> tuple[int, ...]:
        return tuple(self.coord(i) for i in range(length))


class RealPoint:
    def __init__(self, x: float):
        self.x = x

    def __eq__(self, other):
        return (self.x,) == (other.x,) if type(other) is RealPoint else NotImplemented

    def __hash__(self) -> int:
        return hash((self.x,))


def real(x: float) -> RealPoint:
    """Build a RealPoint from a number."""
    return RealPoint(float(x))


Point = Word | RealPoint


def shift_metric(x: Word, y: Word) -> float:
    """Distance sum(d(x_i, y_i) / 2^i); exact because terms are dyadic."""
    L = max(len(x.symbols), len(y.symbols))
    d = 0.0
    for i in range(L):
        if x.coord(i) != y.coord(i):
            d += 2.0 ** (-i)
    if x.tail != y.tail:
        # all coordinates from L on disagree: geometric tail sums to 2^-(L-1)
        d += 2.0 ** (-(L - 1))
    return d


class Grid(Sequence):
    """A candidate grid held as one read-only array, row i for candidate i;
    a row is made a point object only when read.  Two grids of one type and
    system are equal when their arrays are."""

    system: System | None = None

    def __init__(self, rows: np.ndarray):
        rows.setflags(write=False)
        self.rows = rows

    def point(self, row: np.ndarray) -> Point:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(self.point, self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self.point(self.rows[index])

    def __eq__(self, other) -> bool:
        if type(other) is type(self) and other.system == self.system:
            return np.array_equal(self.rows, other.rows)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class RealGrid(Grid):
    """Real candidates as their (m,) float64 x values."""

    def point(self, row: np.ndarray) -> RealPoint:
        return RealPoint(float(row))


class WordGrid(Grid):
    """A shift's candidates as an (m, length) int64 array of admissible
    words; row w reads as ``system.representative(w)``."""

    def __init__(self, system: ShiftSystem, words: np.ndarray):
        super().__init__(words)
        self.system = system

    def point(self, row: np.ndarray) -> Word:
        return self.system.representative(tuple(row.tolist()))

    @functools.cached_property
    def symbols(self) -> np.ndarray:
        """(m, held) int64 array of each representative's symbols, the
        word then its bridge to the tail, padded with the tail: held is
        the longest representative's length."""
        last, system = self.rows[:, -1], self.system
        bridges = [system.bridge_to_tail(s) for s in range(system.k)]
        present = np.flatnonzero(np.bincount(last, minlength=system.k)).tolist()
        width = max(len(bridges[s]) for s in present)
        if not width:  # every word is its own representative, as on a full shift
            return self.rows
        pad = (system.tail_symbol,) * width
        table = np.array([(b + pad)[:width] for b in bridges], dtype=np.int64)
        out = np.concatenate([self.rows, table[last]], axis=1)
        out.setflags(write=False)
        return out


class OrbitPoints(Sequence):
    """Points with their orbit under ``system``, an ``orbit_array`` of them.

    A sequence of the same points, in the same order.  ``orbit_array`` reads
    the orbit for ``system`` and every-k-th row of it for a k-th power of
    ``system`` (``PowerSystem``), which steps k times per row, so both are
    bit for bit the rows it would step.
    """

    def __init__(self, points: Sequence[Point], system: System, orbit: np.ndarray):
        self.points, self.system, self.orbit = points, system, orbit

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def rows(self, system: System, n: int) -> np.ndarray | None:
        """The first n rows of the orbit under ``system``, or None where the
        orbit does not hold them."""
        base, k = power_base(system)
        rows = self.orbit[:n * k:k]
        return rows if base == self.system and len(rows) == n else None


def with_orbit(system: System, n: int, points: Sequence[Point]) -> Sequence[Point]:
    """The points as ``OrbitPoints`` with their orbit under S to n·k steps,
    for ``system`` = S^k: n steps of ``system``, and of a potential that
    reads n·k steps of S.  The points themselves where they have no array
    form or that orbit is over ARRAY_BUDGET_BYTES; ``orbit_array`` raises
    those errors again where the orbit is asked for."""
    base, k = power_base(system)
    try:
        orbit = orbit_array(base, n * k, points)
    except (NotImplementedError, BudgetExceededError):
        return points
    if isinstance(points, OrbitPoints):
        points = points.points
    orbit.setflags(write=False)  # every reader shares it
    return OrbitPoints(points, base, orbit)


def power_base(system: System) -> tuple[System, int]:
    """(S, k) for ``system`` = S^k through nested PowerSystems; (system, 1) for any other."""
    k = 1
    while isinstance(system, PowerSystem):
        k *= system.power
        system = system.base
    return system, k


class CandidateSet:
    """Finite point family used by the estimators, with density bookkeeping."""

    def __init__(self, points: Sequence[Point], certified: bool = True):
        self.points, self.certified = points, certified


class System:
    """Base interface shared by all model systems."""

    label: str = "system"
    _key: tuple = ()  # the parameters: systems of one class are equal when their keys are

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def apply(self, x: Point) -> Point:
        """T x on a RealPoint: the one-point case of ``apply_array``."""
        return real(self.apply_array(np.float64(x.x)))

    def metric(self, x: Point, y: Point) -> float:
        """d(x, y) on RealPoints: the one-point case of ``metric_array``."""
        return float(self.metric_array(np.float64(x.x), np.float64(y.x)))

    def coordinates(self, points: Sequence[Point]) -> np.ndarray:
        """Array of the points' coordinates, one leading entry per point: here the x values.

        Raises NotImplementedError for points with no array form.
        """
        if isinstance(points, RealGrid):
            return points.rows
        return np.array([p.x for p in points], dtype=float)

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """T on an array of coordinates: the map's one formula."""
        raise NotImplementedError(f"{self.label} has no array form")

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d on broadcast arrays of coordinates: the metric's one formula.

        It reads no field of the system (a ``PowerSystem`` reads its base's),
        so ``partition`` compares the points of systems of one type in one call.
        """
        raise NotImplementedError(f"{self.label} has no array form")

    def iterate(self, x: Point, j: int) -> Point:
        for _ in range(j):
            x = self.apply(x)
        return x

    def bowen_metric(self, n: int, x: Point, y: Point) -> float:
        """max of metric(T^j x, T^j y) over 0 <= j < n."""
        if n < 1:
            raise ValueError("bowen_metric needs n >= 1")
        best = 0.0
        for _ in range(n):
            d = self.metric(x, y)
            if d > best:
                best = d
            x = self.apply(x)
            y = self.apply(y)
        return best

    def bowen_radius(self, k: int, eps: float) -> float:
        """A bound on d_t(x, y) for every pair with d_n(x, y) <= eps, at each
        1 <= t <= n, where k = n - t + 1.

        ``partition.bowen_relations`` drops a pair from the relation once its
        running max at time t passes min(eps, bowen_radius(n - t + 1, eps)),
        so a radius that is too small drops true pairs.  The default, eps,
        holds for every system, as d_t <= d_n.
        """
        return eps

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, float | None]:
        """A float key per point of ``coordinates``, with its period.

        The contract: for every two points, ``metric_array`` of their
        coordinates is at least the distance of their keys, |key_i - key_j|
        as computed in float, or on the circle of length ``period`` (the
        smaller of that and period minus it, every key within [0, period])
        when period is not None.  ``partition.bowen_relations`` then looks
        for a point's partners only among the points whose keys lie within
        the radius of its own.  The default, one key 0 for every point and
        no period, holds for every metric and leaves no window: every pair
        is a candidate.
        """
        return np.zeros(len(coords)), None

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        """Points dense enough for scale eps at time n.  The candidate
        ``budget`` bounds their count (a shift raises BudgetExceededError past
        it, a grid thins and is not certified); no set is refused for its size
        alone.  The work on it has its own budgets: a Bowen relation walk
        refuses before its first step when the pairs it would step, those
        whose ``sweep_key`` keys lie within reach, pass what
        ARRAY_BUDGET_BYTES keeps at 16 bytes each (2^27)."""
        raise NotImplementedError

    def sample_points(self, count: int, rng: np.random.Generator) -> list[Point]:
        """``count`` uniform RealPoints of [0, 1)."""
        return [real(float(v)) for v in rng.random(count)]

    def inverse(self) -> "System":
        raise NotImplementedError(f"{self.label} is not invertible here")


def word_array(points: Sequence[Word], length: int) -> np.ndarray:
    """(m, length) int array of the words' first ``length`` symbols, each padded with its own tail."""
    if isinstance(points, OrbitPoints):
        points = points.points
    if isinstance(points, WordGrid):
        arr = points.symbols
        if length <= arr.shape[1]:
            return arr[:, :length]
        pad = np.full((len(arr), length - arr.shape[1]), points.system.tail_symbol, dtype=np.int64)
        return np.concatenate([arr, pad], axis=1)
    rows = [p.symbols[:length] + (p.tail,) * (length - len(p.symbols)) for p in points]
    return np.array(rows, dtype=np.int64).reshape(len(rows), length)


def orbit_array(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    """(n, m, ...) array whose row t holds ``system.coordinates`` of T^t x over the points.

    ``OrbitPoints`` give their own rows where they hold the n steps, with no
    step taken.  Raises BudgetExceededError, before allocating the orbit,
    when it would exceed ARRAY_BUDGET_BYTES, and NotImplementedError for
    points with no array form.
    """
    if isinstance(points, OrbitPoints):
        rows = points.rows(system, n)
        if rows is not None:
            return rows
        points = points.points
    start = system.coordinates(points)
    _check_array_budget(n, start.size, f"orbit array for {len(points)} points over {n} steps")
    orbit = np.empty((n,) + start.shape, dtype=start.dtype)
    for t in range(n):
        orbit[t] = system.apply_array(orbit[t - 1]) if t else start
    return orbit


def scale_index(eps: float) -> int:
    """Number of extra symbol coordinates needed to resolve scale eps:
    max(0, ceil(log2(1/eps))) + 1, exact for every positive finite float.

    With eps = f·2^e and 1/2 <= f < 1, log2(1/eps) lies in [-e, 1 - e) and
    ceil(log2(1/eps)) = 1 - e, so no rounded log or quotient is read.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("scale_index needs a positive finite eps")
    return max(0, 1 - math.frexp(eps)[1]) + 1


class ShiftSystem(System):
    """Common machinery for the full shift and subshifts of finite type."""

    k: int  # alphabet size

    def is_admissible_pair(self, a: int, b: int) -> bool:
        raise NotImplementedError

    @functools.cached_property
    def transitions(self) -> np.ndarray:
        """k x k bool transition matrix, read from ``is_admissible_pair`` once."""
        k = range(self.k)
        out = np.array([[self.is_admissible_pair(a, b) for b in k] for a in k])
        out.setflags(write=False)
        return out

    def word_rows(self, length: int) -> np.ndarray:
        """(count, length) int64 array of the admissible words of a length
        of at least 1: first symbol descending, each later place ascending
        under its prefix, as each place expands every word by its successors
        in the transition matrix (``extend_words``)."""
        words = np.arange(self.k - 1, -1, -1, dtype=np.int64)[:, None]
        for _ in range(1, length):
            words = self.extend_words(words)[1]
        return words

    def extend_words(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each word's admissible one-symbol extensions, ascending under it,
        as (the row of each extension's prefix, the extensions)."""
        parent, symbol = np.nonzero(self.transitions[words[:, -1]])
        return parent, np.column_stack([words[parent], symbol])

    @property
    def tail_symbol(self) -> int:
        raise NotImplementedError

    def bridge_to_tail(self, last: int) -> tuple[int, ...]:
        """Shortest admissible path from ``last`` into the constant tail symbol."""
        raise NotImplementedError

    def representative(self, word: Sequence[int]) -> Word:
        """Canonical point of the cylinder [word]: bridge to the tail, then constant."""
        w = tuple(word)
        t = self.tail_symbol
        if not w:
            return Word((), t)
        bridge = self.bridge_to_tail(w[-1])
        return Word(w + bridge, t)

    def apply(self, x: Word) -> Word:
        return x.shift()

    def metric(self, x: Word, y: Word) -> float:
        return shift_metric(x, y)

    def coordinates(self, points: Sequence[Word]) -> np.ndarray:
        """(m, planes) int64 array: plane b of a word has bit WORD_BITS-1-i set
        to bit b of symbol i, the word padded with its own tail.

        Two words disagree exactly at the set bits of the OR over planes of
        their XOR.  Only words that share one tail and have at most WORD_BITS
        symbols have this form.
        """
        if isinstance(points, WordGrid):
            held, tails = points.symbols.shape[1], {points.system.tail_symbol}
        else:
            held = max((len(p.symbols) for p in points), default=0)
            tails = {p.tail for p in points}
        if len(tails) > 1 or held > WORD_BITS:
            raise NotImplementedError("words with mixed tails or over WORD_BITS symbols")
        # only the first ``held`` symbols differ between words; the shared
        # tail fills bits WORD_BITS-1-held down to 0, worth 2^(WORD_BITS-held) - 1
        tail = tails.pop() if held < WORD_BITS and tails else 0
        arr = word_array(points, held)
        place = np.int64(1) << np.arange(WORD_BITS - 1, WORD_BITS - 1 - held, -1, dtype=np.int64)
        fill = (1 << (WORD_BITS - held)) - 1
        planes = max(1, int(arr.max(initial=tail)).bit_length())
        return np.stack([(arr >> b & 1) @ place + (tail >> b & 1) * fill
                         for b in range(planes)], axis=-1)

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        # the vacated low bit reads 0 in every word; the words share their
        # tail, so that symbol agrees anyway
        return (x << 1) & ((1 << WORD_BITS) - 1)

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # one plane at a time: reducing a trailing plane axis is much slower
        d = x[..., 0] ^ y[..., 0]
        for b in range(1, np.shape(x)[-1]):
            d |= x[..., b] ^ y[..., b]
        return d * 2.0 ** (1 - WORD_BITS)

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, None]:
        # XOR is at least the absolute difference on non-negative ints, and
        # the OR over planes at least plane 0; both scale by the same power of
        # two, exactly
        return coords[:, 0] * 2.0 ** (1 - WORD_BITS), None

    def bowen_radius(self, k: int, eps: float) -> float:
        # d_n <= eps < 1 makes the words agree on their first n - 2 +
        # scale_index(eps) symbols (a disagreement at i reads at least
        # 2^-(i - j) at time j <= i), so shifted to time t - 1 they share
        # their first p symbols and d_t <= 2^(1 - p): a power of two, exact
        # in float, so no slack
        if 0.0 < eps < 1.0:
            p = k - 2 + scale_index(eps)
            return 2.0 ** (1 - p)
        return eps

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        length = n + scale_index(eps)
        if word_total(self, length, cap=budget) > budget:
            raise BudgetExceededError(f"admissible words of length {length} exceed budget {budget}")
        return CandidateSet(points=WordGrid(self, self.word_rows(length)), certified=True)

    def sample_points(self, count: int, rng: np.random.Generator, length: int = 24) -> list[Point]:
        out = []
        for _ in range(count):
            w = [int(rng.integers(self.k))]
            while len(w) < length:
                options = [s for s in range(self.k) if self.is_admissible_pair(w[-1], s)]
                w.append(int(options[rng.integers(len(options))]))
            out.append(self.representative(tuple(w)))
        return out


class FullShift(ShiftSystem):
    def __init__(self, k: int = 2):
        if k < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        self.k, self._key = k, (k,)

    def __repr__(self) -> str:
        return f"FullShift(k={self.k!r})"

    @property
    def label(self) -> str:
        return f"full_shift({self.k})"

    def is_admissible_pair(self, a: int, b: int) -> bool:
        return True

    @property
    def tail_symbol(self) -> int:
        return 0

    def bridge_to_tail(self, last: int) -> tuple[int, ...]:
        return ()


class SFT(ShiftSystem):
    """Subshift of finite type given by a 0/1 transition matrix."""

    def __init__(self, matrix: Sequence[Sequence[int]]):
        if any(v not in (0, 1) for row in matrix for v in row):
            raise ValueError("transition matrix entries must be 0 or 1")
        m = tuple(tuple(int(v) for v in row) for row in matrix)
        self.matrix, self._key = m, (m,)
        size = len(m)
        if size == 0 or any(len(row) != size for row in m):
            raise ValueError("transition matrix must be square")
        if any(not any(row) for row in m):
            raise ValueError("transition matrix has a dead state (all-zero row)")
        loops = [s for s in range(size) if m[s][s]]
        if not loops:
            raise ValueError("need at least one symbol with a self-loop for constant tails")
        tail = loops[0]
        # BFS from every symbol toward the tail symbol; shortest admissible bridge.
        bridges: list[tuple[int, ...] | None] = [None] * size
        bridges[tail] = ()
        frontier = [tail]
        while frontier:
            nxt = []
            for t in frontier:
                for s in range(size):
                    if bridges[s] is None and m[s][t]:
                        bridges[s] = (t,) + bridges[t]
                        nxt.append(s)
            frontier = nxt
        if any(b is None for b in bridges):
            raise ValueError("some symbol cannot reach the tail symbol")
        self._tail, self._bridges = tail, tuple(bridges)

    def __repr__(self) -> str:
        return f"SFT(matrix={self.matrix!r})"

    @property
    def k(self) -> int:
        return len(self.matrix)

    @property
    def label(self) -> str:
        return f"sft({self.k})"

    def is_admissible_pair(self, a: int, b: int) -> bool:
        return bool(self.matrix[a][b])

    @property
    def tail_symbol(self) -> int:
        return self._tail

    def bridge_to_tail(self, last: int) -> tuple[int, ...]:
        return self._bridges[last]


def golden_mean_sft() -> SFT:
    """Two symbols, the pair 11 forbidden."""
    return SFT(((1, 1), (1, 0)))


def word_total(system: ShiftSystem, length: int, cap: int | None = None) -> int:
    """Exact number of admissible words: 1^T A^(length-1) 1 by repeated squaring
    of the 0/1 transition matrix on Python ints, so nothing overflows.

    With a ``cap`` every partial count saturates at cap + 1, which commutes
    with the sums and products, so the result is min(total, cap + 1) and no
    integer grows past the cap, whatever the length.
    """
    if length == 0:
        return 1
    top = math.inf if cap is None else cap + 1
    if isinstance(system, FullShift):  # k >= 2: k^b > cap at b = cap's bit length
        return min(system.k ** (length if cap is None else min(length, cap.bit_length())), top)
    k = range(system.k)
    a = system.transitions.astype(int).tolist()
    counts = [1] * system.k
    m = length - 1
    while m:
        if m & 1:
            counts = [min(sum(counts[s] * a[s][t] for s in k), top) for t in k]
        m >>= 1
        if m:
            a = [[min(sum(a[s][r] * a[r][t] for r in k), top) for t in k] for s in k]
    return min(sum(counts), top)


def shift_step(system: System) -> int | None:
    """Symbols one step of ``system`` shifts by, or None if it is no power of a shift."""
    base, step = power_base(system)
    return step if isinstance(base, ShiftSystem) else None


class CircleSystem(System):
    """Maps of the circle R/Z with the arc-length metric."""

    lipschitz: float = 1.0

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = np.abs(x - y)
        return np.minimum(d, 1.0 - d)

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, float | None]:
        # the metric is the circle distance of the x values, for x in [0, 1]
        if ((coords >= 0.0) & (coords <= 1.0)).all():
            return coords, 1.0
        return super().sweep_key(coords)

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        # Uniform grid; mesh eps / (2 Lip^(n-1)) keeps the orbit error under eps/2.
        try:
            target = eps / (2.0 * self.lipschitz ** (n - 1))
            m = max(1, math.ceil(1.0 / target))
        except (OverflowError, ZeroDivisionError):  # mesh below float range
            target, m = 0.0, budget + 1
        capped, m = m > budget, min(m, budget)
        achieved = 1.0 / m
        return CandidateSet(points=RealGrid(np.arange(m) / m),
                            certified=not capped or achieved <= target)


class DoublingMap(CircleSystem):
    lipschitz = 2.0

    def __repr__(self) -> str:
        return "DoublingMap()"

    @property
    def label(self) -> str:
        return "doubling"

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        return np.mod(2.0 * x, 1.0)

    def bowen_radius(self, k: int, eps: float) -> float:
        # Below 1/4 the arc distance doubles exactly at each step, so a pair
        # with d_n <= eps has true distance a <= a_(n-1)·2^-(k-1) at every
        # step before t.  Only the metric rounds (doubling and mod 1 are exact
        # on floats): |x - y| to 2^-53 relative, and 1 - |x - y| past the wrap
        # to 2^-54 absolute.  So a_(n-1) <= (eps + 2^-54) / (1 - 2^-53), and
        # the computed distance at each step before t is at most
        # (1 + 2^-53)·a + 2^-54.  The relative 1e-9 and absolute 2^-50 cover
        # both errors, and this expression's own rounding, with room to spare.
        if eps < 0.25:
            return eps * 2.0 ** (1 - k) * (1 + 1e-9) + 2.0 ** -50
        return eps


class Rotation(CircleSystem):
    def __init__(self, theta: float = 0.125):
        self.theta, self._key = theta, (theta,)

    def __repr__(self) -> str:
        return f"Rotation(theta={self.theta!r})"

    @property
    def label(self) -> str:
        return f"rotation({self.theta})"

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        return np.mod(x + self.theta, 1.0)

    def inverse(self) -> "Rotation":
        return Rotation((-self.theta) % 1.0)


class Contraction(System):
    """x -> fixed + c (x - fixed) on the interval [0, 1]."""

    def __init__(self, c: float = 0.5, fixed: float = 0.0):
        if not 0.0 < c < 1.0:
            raise ValueError("contraction factor must lie in (0, 1)")
        self.c, self.fixed, self._key = c, fixed, (c, fixed)

    def __repr__(self) -> str:
        return f"Contraction(c={self.c!r}, fixed={self.fixed!r})"

    @property
    def label(self) -> str:
        return f"contraction({self.c})"

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        return self.fixed + self.c * (x - self.fixed)

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.abs(x - y)

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, None]:
        return coords, None

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        try:
            m = math.ceil(1.0 / (eps / 2.0))
        except (OverflowError, ZeroDivisionError):  # mesh below float range
            m = budget + 1
        capped, m = m > budget, min(m, budget)
        achieved = 1.0 / m
        return CandidateSet(points=RealGrid(np.minimum(1.0, np.arange(m + 1) * achieved)),
                            certified=not capped)


class PowerSystem(System):
    """Same space, map iterated ``power`` times."""

    def __init__(self, base: System, power: int):
        if power < 1:
            raise ValueError("power must be >= 1")
        self.base, self.power, self._key = base, power, (base, power)

    def __repr__(self) -> str:
        return f"PowerSystem(base={self.base!r}, power={self.power!r})"

    @property
    def label(self) -> str:
        return f"{self.base.label}^({self.power})"

    def apply(self, x: Point) -> Point:
        return self.base.iterate(x, self.power)

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        for _ in range(self.power):
            x = self.base.apply_array(x)
        return x

    def metric(self, x: Point, y: Point) -> float:
        return self.base.metric(x, y)

    def coordinates(self, points: Sequence[Point]) -> np.ndarray:
        return self.base.coordinates(points)

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.base.metric_array(x, y)

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, float | None]:
        return self.base.sweep_key(coords)

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        # n steps of T^power read at most (n-1) power + 1 steps of T.
        return self.base.candidate_set((n - 1) * self.power + 1, eps, budget)

    def sample_points(self, count: int, rng: np.random.Generator) -> list[Point]:
        return self.base.sample_points(count, rng)


class FactorMap:
    """Semi-conjugacy pi: source -> target with a uniform continuity modulus.

    ``modulus(eps)`` returns delta such that d(x, y) < delta forces
    d(pi x, pi y) < eps; checked empirically by the verification suites.
    """

    def __init__(self, source: System, target: System, transform: Callable[[Point], Point],
                 modulus: Callable[[float], float], label: str = "factor"):
        self.source, self.target, self.transform = source, target, transform
        self.modulus, self.label = modulus, label
        self._key = (source, target, transform, modulus, label)

    def __eq__(self, other):
        return self._key == other._key if type(other) is FactorMap else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def apply(self, x: Point) -> Point:
        return self.transform(x)


def _binary_value(x: Word) -> float:
    L = len(x.symbols)
    v = 0.0
    for i, s in enumerate(x.symbols):
        if s:
            v += 2.0 ** (-(i + 1))
    if x.tail:
        v += 2.0 ** (-L)
    return v % 1.0


def binary_expansion_map(source: FullShift | None = None) -> FactorMap:
    """Binary-digit reading map from the 2-shift onto the doubling map."""
    src = source or FullShift(2)
    if src.k != 2:
        raise ValueError("binary expansion needs a 2-symbol shift")
    return FactorMap(
        source=src,
        target=DoublingMap(),
        transform=lambda w: real(_binary_value(w)),
        modulus=lambda eps: eps / 2.0,
        label="binary_expansion",
    )
