"""Model dynamical systems: symbolic shifts and interval/circle maps.

Points are either eventually-constant symbol sequences (``Word``) or real
numbers (``RealPoint``).  Every system knows its map, its base metric, the
induced orbit (Bowen) metric, and how to generate a finite candidate set
that is dense enough for scale-``eps`` estimates.

Each real map has one formula, ``apply_array`` on an array of coordinates,
and each real system one metric formula, ``metric_array``; ``apply`` and
``metric`` on RealPoints are their one-point cases, defined once on
``System``.  Shifts act on Words through ``Word.shift`` and ``shift_metric``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np


class BudgetExceededError(RuntimeError):
    """Candidate generation would exceed the point budget."""


# Largest float64 array built from a candidate set: orbit_array here, and the
# Bowen distance matrices of pdim.partition.
ARRAY_BUDGET_BYTES = 2 * 1024**3


def _check_array_budget(rows: int, cols: int, what: str) -> None:
    nbytes = 8 * rows * cols
    if nbytes > ARRAY_BUDGET_BYTES:
        raise BudgetExceededError(
            f"{what} needs {nbytes} bytes, over the {ARRAY_BUDGET_BYTES}-byte budget")


def check_distance_budget(m: int) -> None:
    """Raise BudgetExceededError when an m x m Bowen distance matrix is over budget: m > 16384."""
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
    capped: bool = False


class System:
    """Base interface shared by all model systems."""

    label: str = "system"

    def apply(self, x: Point) -> Point:
        """T x on a RealPoint: the one-point case of ``apply_array``."""
        return real(self.apply_array(np.float64(x.x)))

    def metric(self, x: Point, y: Point) -> float:
        """d(x, y) on RealPoints: the one-point case of ``metric_array``."""
        return float(self.metric_array(np.float64(x.x), np.float64(y.x)))

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """T on an array of real coordinates: the map's one formula."""
        raise NotImplementedError(f"{self.label} has no array form")

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d on broadcast arrays of real coordinates: the metric's one formula."""
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

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        """Points dense enough for scale eps at time n; raises BudgetExceededError
        before building a set whose Bowen distance matrix is over budget."""
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


def orbit_array(system: System, n: int, points: Sequence[RealPoint]) -> np.ndarray:
    """(n, m) float array whose row t holds the coordinates of T^t x over the points.

    Raises BudgetExceededError, before allocating, when the array would exceed
    ARRAY_BUDGET_BYTES.
    """
    _check_array_budget(n, len(points), f"orbit array for {len(points)} points over {n} steps")
    orbit = np.empty((n, len(points)))
    for t in range(n):
        orbit[t] = system.apply_array(orbit[t - 1]) if t else [p.x for p in points]
    return orbit


def scale_index(eps: float) -> int:
    """Number of extra symbol coordinates needed to resolve scale eps."""
    return max(0, math.ceil(math.log2(1.0 / eps))) + 1


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

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        length = n + scale_index(eps)
        count = word_total(self, length, cap=budget)
        if count > budget:
            raise BudgetExceededError(
                f"admissible words of length {length} exceed budget {budget}"
            )
        check_distance_budget(count)
        pts = [self.representative(w) for w in self.admissible_words(length)]
        return CandidateSet(points=pts, certified=True, capped=False)

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
        return CandidateSet(points=pts, certified=not capped or achieved <= target,
                            capped=capped)


@dataclass(frozen=True)
class DoublingMap(CircleSystem):
    lipschitz = 2.0

    @property
    def label(self) -> str:
        return "doubling"

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        return np.mod(2.0 * x, 1.0)


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

    def candidate_set(self, n: int, eps: float, budget: int = 2_000_000) -> CandidateSet:
        mesh = eps / 2.0
        m = math.ceil(1.0 / mesh)
        capped = m > budget
        if capped:
            m = budget
        check_distance_budget(m + 1)
        achieved = 1.0 / m
        pts = [real(min(1.0, i * achieved)) for i in range(m + 1)]
        return CandidateSet(points=pts, certified=not capped, capped=capped)


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

    def metric_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.base.metric_array(x, y)

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
