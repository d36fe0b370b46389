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
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np


class BudgetExceededError(RuntimeError):
    """Candidate generation would exceed the point budget."""


# Most symbols a word may have in a shift's array form: its distances are
# integers below 2^53 times 2^-52, so float64 holds them exactly.
WORD_BITS = 53
# Largest array built from a candidate set: orbit_array here, the Bowen distance
# matrix (8·m^2 bytes) and the Bowen relation of pdim.partition (16 bytes a kept
# pair, 16·m(m-1)/2 with every pair kept); both pass it just past m = 16384.
ARRAY_BUDGET_BYTES = 2 * 1024**3


def _check_array_budget(rows: int, cols: int, what: str) -> None:
    nbytes = 8 * rows * cols
    if nbytes > ARRAY_BUDGET_BYTES:
        raise BudgetExceededError(
            f"{what} needs {nbytes} bytes, over the {ARRAY_BUDGET_BYTES}-byte budget")


def check_distance_budget(m: int) -> None:
    """Raise BudgetExceededError past m = 16384 points, where an m x m Bowen
    distance matrix and a Bowen relation keeping all pairs are over budget."""
    _check_array_budget(m, m, f"Bowen distance matrix for {m} points")


@dataclass(frozen=True)
class Word:
    """Eventually-constant symbol sequence: explicit prefix, then ``tail`` forever."""

    symbols: tuple[int, ...]
    tail: int = 0

    def coord(self, i: int) -> int:
        return self.symbols[i] if i < len(self.symbols) else self.tail

    def shift(self) -> "Word":
        if not self.symbols:
            return self
        return Word(self.symbols[1:], self.tail)

    def prefix(self, length: int) -> tuple[int, ...]:
        return tuple(self.coord(i) for i in range(length))


@dataclass(frozen=True)
class RealPoint:
    x: float


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


@dataclass
class CandidateSet:
    """Finite point family used by the estimators, with density bookkeeping."""

    points: list
    certified: bool = True


class System:
    """Base interface shared by all model systems."""

    label: str = "system"

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
        return np.array([p.x for p in points], dtype=float)

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """T on an array of coordinates: the map's one formula."""
        raise NotImplementedError(f"{self.label} has no array form")

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d on broadcast arrays of coordinates: the metric's one formula."""
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

        ``partition.bowen_relation`` drops a pair from the relation once its
        running max at time t passes min(eps, bowen_radius(n - t + 1, eps)),
        so a radius that is too small drops true pairs.  The default, eps,
        holds for every system, as d_t <= d_n.
        """
        return eps

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, float | None] | None:
        """A float key per point of ``coordinates``, with its period, or None.

        The contract: for every two points, ``metric_array`` of their
        coordinates is at least the distance of their keys, |key_i - key_j|
        as computed in float, or on the circle of length ``period`` (the
        smaller of that and period minus it, every key within [0, period])
        when period is not None.  ``partition.bowen_relation`` then looks
        for a point's partners only among the points whose keys lie within
        the radius of its own.  The default, None, gives no key.
        """
        return None

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        """Points dense enough for scale eps at time n; raises BudgetExceededError
        before building a set of over 16384 points, whose Bowen relation at eps
        = inf (16·m(m-1)/2 bytes) or distance matrix would be over budget."""
        raise NotImplementedError

    def sample_points(self, count: int, rng: np.random.Generator) -> list[Point]:
        """``count`` uniform RealPoints of [0, 1)."""
        return [real(float(v)) for v in rng.random(count)]

    def inverse(self) -> "System":
        raise NotImplementedError(f"{self.label} is not invertible here")


def word_array(points: Sequence[Word], length: int) -> np.ndarray:
    """(m, length) int array of the words' first ``length`` symbols, each padded with its own tail."""
    rows = [p.symbols[:length] + (p.tail,) * (length - len(p.symbols)) for p in points]
    return np.array(rows, dtype=np.int64).reshape(len(rows), length)


def orbit_array(system: System, n: int, points: Sequence[Point]) -> np.ndarray:
    """(n, m, ...) array whose row t holds ``system.coordinates`` of T^t x over the points.

    Raises BudgetExceededError, before allocating the orbit, when it would
    exceed ARRAY_BUDGET_BYTES, and NotImplementedError for points with no
    array form.
    """
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

    def admissible_words(self, length: int) -> Iterator[tuple[int, ...]]:
        if length == 0:
            yield ()
            return
        stack: list[tuple[int, ...]] = [(s,) for s in range(self.k)]
        while stack:
            w = stack.pop()
            if len(w) == length:
                yield w
                continue
            for s in range(self.k - 1, -1, -1):
                if self.is_admissible_pair(w[-1], s):
                    stack.append(w + (s,))

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
        if len({p.tail for p in points}) > 1 or any(len(p.symbols) > WORD_BITS for p in points):
            raise NotImplementedError("words with mixed tails or over WORD_BITS symbols")
        # only the first ``held`` symbols differ between words; the shared
        # tail fills bits WORD_BITS-1-held down to 0, worth 2^(WORD_BITS-held) - 1
        held = max((len(p.symbols) for p in points), default=0)
        tail = points[0].tail if held < WORD_BITS and len(points) else 0
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
        count = word_total(self, length, cap=budget)
        if count > budget:
            raise BudgetExceededError(
                f"admissible words of length {length} exceed budget {budget}"
            )
        check_distance_budget(count)
        pts = [self.representative(w) for w in self.admissible_words(length)]
        return CandidateSet(points=pts, certified=True)

    def sample_points(self, count: int, rng: np.random.Generator, length: int = 24) -> list[Point]:
        out = []
        for _ in range(count):
            w = [int(rng.integers(self.k))]
            while len(w) < length:
                options = [s for s in range(self.k) if self.is_admissible_pair(w[-1], s)]
                w.append(int(options[rng.integers(len(options))]))
            out.append(self.representative(tuple(w)))
        return out


@dataclass(frozen=True)
class FullShift(ShiftSystem):
    k: int = 2

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("alphabet needs at least 2 symbols")

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


@dataclass(frozen=True)
class SFT(ShiftSystem):
    """Subshift of finite type given by a 0/1 transition matrix."""

    matrix: tuple[tuple[int, ...], ...]
    _tail: int = field(init=False, repr=False, compare=False, default=0)
    _bridges: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if any(v not in (0, 1) for row in self.matrix for v in row):
            raise ValueError("transition matrix entries must be 0 or 1")
        m = tuple(tuple(int(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
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
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_bridges", tuple(bridges))

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
    a = [[int(system.is_admissible_pair(s, t)) for t in k] for s in k]
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
    step = 1
    while isinstance(system, PowerSystem):
        step *= system.power
        system = system.base
    return step if isinstance(system, ShiftSystem) else None


class CircleSystem(System):
    """Maps of the circle R/Z with the arc-length metric."""

    lipschitz: float = 1.0

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = np.abs(x - y)
        return np.minimum(d, 1.0 - d)

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, float] | None:
        # the metric is the circle distance of the x values, for x in [0, 1]
        return (coords, 1.0) if ((coords >= 0.0) & (coords <= 1.0)).all() else None

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        # Uniform grid; mesh eps / (2 Lip^(n-1)) keeps the orbit error under eps/2.
        try:
            target = eps / (2.0 * self.lipschitz ** (n - 1))
            m = max(1, math.ceil(1.0 / target))
        except (OverflowError, ZeroDivisionError):  # mesh below float range
            target, m = 0.0, budget + 1
        capped = m > budget
        if capped:
            m = budget
        check_distance_budget(m)
        achieved = 1.0 / m
        pts = [real(i / m) for i in range(m)]
        return CandidateSet(points=pts, certified=not capped or achieved <= target)


@dataclass(frozen=True)
class DoublingMap(CircleSystem):
    lipschitz = 2.0

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


@dataclass(frozen=True)
class Rotation(CircleSystem):
    theta: float = 0.125

    @property
    def label(self) -> str:
        return f"rotation({self.theta})"

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        return np.mod(x + self.theta, 1.0)

    def inverse(self) -> "Rotation":
        return Rotation((-self.theta) % 1.0)


@dataclass(frozen=True)
class Contraction(System):
    """x -> fixed + c (x - fixed) on the interval [0, 1]."""

    c: float = 0.5
    fixed: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError("contraction factor must lie in (0, 1)")

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
        capped = m > budget
        if capped:
            m = budget
        check_distance_budget(m + 1)
        achieved = 1.0 / m
        pts = [real(min(1.0, i * achieved)) for i in range(m + 1)]
        return CandidateSet(points=pts, certified=not capped)


@dataclass(frozen=True)
class PowerSystem(System):
    """Same space, map iterated ``power`` times."""

    base: System
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("power must be >= 1")

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

    def sweep_key(self, coords: np.ndarray) -> tuple[np.ndarray, float | None] | None:
        return self.base.sweep_key(coords)

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        # n steps of T^power read at most (n-1) power + 1 steps of T.
        return self.base.candidate_set((n - 1) * self.power + 1, eps, budget)

    def sample_points(self, count: int, rng: np.random.Generator) -> list[Point]:
        return self.base.sample_points(count, rng)


@dataclass(frozen=True)
class FactorMap:
    """Semi-conjugacy pi: source -> target with a uniform continuity modulus.

    ``modulus(eps)`` returns delta such that d(x, y) < delta forces
    d(pi x, pi y) < eps; checked empirically by the verification suites.
    """

    source: System
    target: System
    transform: Callable[[Point], Point]
    modulus: Callable[[float], float]
    label: str = "factor"

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


def identity_factor(system: System) -> FactorMap:
    return FactorMap(system, system, lambda x: x, lambda eps: eps, label="identity")
