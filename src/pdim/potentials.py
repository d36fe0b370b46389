"""Almost additive potential sequences and their algebra.

A potential here is a sequence ``phi_n`` of orbit aggregates satisfying

    -C + phi_n(x) + phi_m(T^n x) <= phi_{n+m}(x) <= phi_n(x) + phi_m(T^n x) + C

for a declared constant C >= 0.  Each object evaluates ``phi_n``, carries C,
and (when it is locally constant on a shift) exposes a window profile that
the exact symbolic backend can sum without enumerating points.

``eval_array(n, points)`` is the one formula of every potential: it returns
the float64 array of ``phi_n`` over a whole candidate list in one pass, and
``eval(n, x)`` is its one-point case.  A ``Birkhoff`` ``phi`` is a function
of arrays that returns one float per row: on a real system it reads the (m,)
coordinate array, on a shift the (m, reach) int array of each word's first
``reach`` symbols, padded with the word's own tail.  Orbit sums add in time
order from zeros, the same adds as a per-point loop, so every weight is bit
for bit the scalar value.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .systems import (
    FactorMap,
    Point,
    PowerSystem,
    RealPoint,
    ShiftSystem,
    System,
    Word,
    orbit_array,
    shift_step,
    word_array,
)


@dataclass(frozen=True)
class BoundaryTerm:
    """Extra window contribution pinned at a fixed position (0 or n)."""

    at_end: bool  # False: position 0; True: position n
    scale: float
    reach: int
    fn: Callable[[tuple[int, ...]], float]


@dataclass(frozen=True)
class ScalarWindow:
    """phi_n(x) = sum over i < n of step(x_i .. x_{i+reach-1}), plus boundary terms."""

    reach: int
    step: Callable[[tuple[int, ...]], float]
    boundary: tuple[BoundaryTerm, ...] = ()

    @property
    def max_reach(self) -> int:
        extra = max((b.reach for b in self.boundary), default=0)
        return max(self.reach, extra)


@dataclass(frozen=True)
class MatrixWeights:
    """phi_n(x) = power * log || A(x_0) ... A(x_{n-1}) || with the entry-sum norm."""

    mats: tuple
    power: float = 1.0


Profile = ScalarWindow | MatrixWeights


class Potential:
    system: System | None = None
    C: float = 0.0
    label: str = "potential"

    def eval(self, n: int, x: Point) -> float:
        """phi_n(x): the one-point case of ``eval_array``."""
        return float(self.eval_array(n, [x])[0])

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        """phi_n over the points as a float64 array: the potential's one formula."""
        raise NotImplementedError(f"{self.label} has no formula")

    def shift_profile(self) -> Profile | None:
        """Local structure on a shift, or None when not locally constant."""
        return None


def _merge_systems(a: System | None, b: System | None) -> System | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError(f"potentials live on different systems: {a.label} vs {b.label}")


def _require_system(p: Potential) -> System:
    if p.system is None:
        raise ValueError(f"{p.label} is not attached to a system")
    return p.system


@dataclass(frozen=True)
class ConstantDrift(Potential):
    """phi_n = n * A; exactly additive on any system."""

    A: float = 0.0
    system: System | None = None

    @property
    def label(self) -> str:
        return f"drift({self.A})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        return np.full(len(points), n * self.A)

    def shift_profile(self) -> Profile | None:
        a = self.A
        return ScalarWindow(reach=1, step=lambda w: a)


def zero_potential(system: System | None = None) -> ConstantDrift:
    return ConstantDrift(0.0, system)


@dataclass(frozen=True)
class Birkhoff(Potential):
    """phi_n = sum of phi along the orbit; exactly additive (C = 0).

    ``phi`` maps an array of points to one float per row: the (m,) coordinate
    array on a real system, the (m, reach) symbol windows on a shift.  A shift
    needs ``reach``, the number of leading symbols phi reads; it also unlocks
    the exact symbolic backend.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    system: System
    reach: int | None = None
    name: str = "phi"

    def __post_init__(self):
        if shift_step(self.system) is not None and self.reach is None:
            raise ValueError("a Birkhoff potential on a shift needs reach")

    @property
    def label(self) -> str:
        return f"birkhoff({self.name})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        total = np.zeros(len(points))
        step = shift_step(self.system)
        if step is None:
            for row in orbit_array(self.system, max(n, 0), points):
                total += self.phi(row)
            return total
        r = self.reach
        windows = word_array(points, max(n - 1, 0) * step + r)
        for t in range(0, n * step, step):
            total += self.phi(windows[:, t:t + r])
        return total

    def shift_profile(self) -> Profile | None:
        if self.reach is None or not isinstance(self.system, ShiftSystem):
            return None
        phi = self.phi
        r = self.reach

        def step(window: tuple[int, ...]) -> float:
            return float(phi(np.array([window[:r]], dtype=np.int64))[0])

        return ScalarWindow(reach=r, step=step)


def symbol_weights(system: ShiftSystem, table: Sequence[float], name: str = "table") -> Birkhoff:
    """Weight read off the first symbol; the basic locally constant potential."""
    vals = np.array([float(v) for v in table])
    if len(vals) != system.k:
        raise ValueError("need one weight per symbol")
    return Birkhoff(phi=lambda window: vals[window[:, 0]], system=system, reach=1, name=name)


@dataclass(frozen=True, eq=False)
class MatrixCocycle(Potential):
    """phi_n(x) = log of the entry-sum norm of A(x_0) ... A(x_{n-1}).

    All matrices must be strictly positive and finite; then the sequence is
    almost additive with C = log(d * max_entry / min_entry) for d x d matrices.
    """

    mats: tuple
    system: ShiftSystem = None  # type: ignore[assignment]

    def __post_init__(self):
        mats = tuple(np.array(m, dtype=float) for m in self.mats)
        object.__setattr__(self, "mats", mats)
        if self.system is None or not isinstance(self.system, ShiftSystem):
            raise ValueError("matrix cocycles live on shift systems")
        if len(mats) != self.system.k:
            raise ValueError("need one matrix per symbol")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("all matrices must share one square shape")
            if not np.all((m > 0) & (m < np.inf)):
                raise ValueError("matrix entries must be strictly positive and finite")

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    @property
    def C(self) -> float:
        lo = min(float(m.min()) for m in self.mats)
        hi = max(float(m.max()) for m in self.mats)
        return math.log(self.dim * hi / lo)

    @property
    def label(self) -> str:
        return f"cocycle(d={self.dim})"

    def eval_array(self, n: int, points: Sequence[Word]) -> np.ndarray:
        out = np.zeros(len(points))
        if n < 1:
            return out
        for row, x in enumerate(points):
            logshift = 0.0
            prod = self.mats[x.coord(0)].copy()
            for i in range(1, n):
                # normalize before multiplying so huge entries cannot overflow
                s = prod.sum()
                logshift += math.log(s)
                prod = (prod / s) @ self.mats[x.coord(i)]
            out[row] = logshift + math.log(prod.sum())
        return out

    def shift_profile(self) -> Profile | None:
        return MatrixWeights(mats=self.mats, power=1.0)


@dataclass(frozen=True)
class SumPotential(Potential):
    left: Potential
    right: Potential
    system: System | None = field(init=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "system", _merge_systems(self.left.system, self.right.system))

    @property
    def C(self) -> float:
        return self.left.C + self.right.C

    @property
    def label(self) -> str:
        return f"sum({self.left.label},{self.right.label})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        return self.left.eval_array(n, points) + self.right.eval_array(n, points)

    def shift_profile(self) -> Profile | None:
        a = self.left.shift_profile()
        b = self.right.shift_profile()
        if a is None or b is None:
            return None
        if isinstance(a, ScalarWindow) and isinstance(b, ScalarWindow):
            return _add_windows(a, b)
        # matrix + reach-1 scalar: fold the scalar weight into the matrices
        if isinstance(a, ScalarWindow):
            a, b = b, a
        if (
            isinstance(a, MatrixWeights)
            and a.power == 1.0
            and isinstance(b, ScalarWindow)
            and b.reach == 1
            and not b.boundary
        ):
            mats = tuple(m * math.exp(b.step((s,))) for s, m in enumerate(a.mats))
            return MatrixWeights(mats=mats, power=1.0)
        return None


def _add_windows(a: ScalarWindow, b: ScalarWindow) -> ScalarWindow:
    r = max(a.reach, b.reach)

    def step(window: tuple[int, ...]) -> float:
        return a.step(window[: a.reach]) + b.step(window[: b.reach])

    return ScalarWindow(reach=r, step=step, boundary=a.boundary + b.boundary)


@dataclass(frozen=True)
class ScaledPotential(Potential):
    lam: float
    inner: Potential

    @property
    def system(self) -> System | None:  # type: ignore[override]
        return self.inner.system

    @property
    def C(self) -> float:
        return abs(self.lam) * self.inner.C

    @property
    def label(self) -> str:
        return f"scale({self.lam},{self.inner.label})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        return self.lam * self.inner.eval_array(n, points)

    def shift_profile(self) -> Profile | None:
        p = self.inner.shift_profile()
        if p is None:
            return None
        lam = self.lam
        if isinstance(p, ScalarWindow):
            bnd = tuple(
                BoundaryTerm(t.at_end, lam * t.scale, t.reach, t.fn) for t in p.boundary
            )
            return ScalarWindow(p.reach, lambda w: lam * p.step(w), bnd)
        return MatrixWeights(mats=p.mats, power=lam * p.power)


@dataclass(frozen=True)
class PullbackPotential(Potential):
    """phi_n composed with a factor map; defined on the source system."""

    inner: Potential
    factor: FactorMap

    def __post_init__(self):
        if self.inner.system is not None and self.inner.system != self.factor.target:
            raise ValueError("factor map target does not match the potential's system")

    @property
    def system(self) -> System:  # type: ignore[override]
        return self.factor.source

    @property
    def C(self) -> float:
        return self.inner.C

    @property
    def label(self) -> str:
        return f"pullback({self.inner.label},{self.factor.label})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        return self.inner.eval_array(n, [self.factor.apply(p) for p in points])


@dataclass(frozen=True)
class TimePowerPotential(Potential):
    """Phi_k with (phi_k)_n = phi_{nk}, a potential for T^k."""

    inner: Potential
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("time power must be >= 1")
        _require_system(self.inner)

    @property
    def system(self) -> System:  # type: ignore[override]
        return PowerSystem(self.inner.system, self.k)

    @property
    def C(self) -> float:
        # one application of the defining inequality suffices, but keep the
        # conservative chained constant
        return self.inner.C * (self.k + 1)

    @property
    def label(self) -> str:
        return f"time_power({self.inner.label},{self.k})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        return self.inner.eval_array(n * self.k, points)


@dataclass(frozen=True)
class InverseTwistPotential(Potential):
    """phi'_n(x) = phi_n(T^{-(n-1)} x), a potential for the inverse map."""

    inner: Potential

    def __post_init__(self):
        _require_system(self.inner).inverse()  # fail early if not invertible

    @property
    def system(self) -> System:  # type: ignore[override]
        return self.inner.system.inverse()

    @property
    def C(self) -> float:
        return self.inner.C

    @property
    def label(self) -> str:
        return f"inverse_twist({self.inner.label})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        if n > 1:
            points = [self.system.iterate(p, n - 1) for p in points]
        return self.inner.eval_array(n, points)


@dataclass(frozen=True)
class CoboundaryPotential(Potential):
    """Phi + Psi o T - Psi, which shares Phi's growth up to boundary terms."""

    base: Potential
    psi: Potential
    system: System | None = field(init=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "system", _merge_systems(self.base.system, self.psi.system))

    @property
    def C(self) -> float:
        return self.base.C + 2.0 * self.psi.C

    @property
    def label(self) -> str:
        return f"coboundary({self.base.label},{self.psi.label})"

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        sys = _require_system(self)
        return (
            self.base.eval_array(n, points)
            + self.psi.eval_array(n, [sys.apply(p) for p in points])
            - self.psi.eval_array(n, points)
        )

    def shift_profile(self) -> Profile | None:
        a = self.base.shift_profile()
        b = self.psi.shift_profile()
        if not (isinstance(a, ScalarWindow) and isinstance(b, ScalarWindow)):
            return None
        if b.boundary:
            return None
        # window sums telescope: psi_n(Tx) - psi_n(x) = window(n) - window(0)
        extra = (
            BoundaryTerm(at_end=False, scale=-1.0, reach=b.reach, fn=b.step),
            BoundaryTerm(at_end=True, scale=1.0, reach=b.reach, fn=b.step),
        )
        return ScalarWindow(a.reach, a.step, a.boundary + extra)


def add(phi: Potential, psi: Potential) -> SumPotential:
    return SumPotential(phi, psi)


def scale(lam: float, phi: Potential) -> ScaledPotential:
    return ScaledPotential(lam, phi)


def pullback(phi: Potential, factor: FactorMap) -> PullbackPotential:
    return PullbackPotential(phi, factor)


def time_power(phi: Potential, k: int) -> TimePowerPotential:
    return TimePowerPotential(phi, k)


def inverse_twist(phi: Potential) -> InverseTwistPotential:
    return InverseTwistPotential(phi)


def coboundary_perturb(phi: Potential, psi: Potential) -> CoboundaryPotential:
    return CoboundaryPotential(phi, psi)


def verify_almost_additive(
    phi: Potential,
    system: System | None = None,
    n_max: int = 5,
    m_max: int = 5,
    sample_count: int = 40,
    seed: int = 0,
) -> float:
    """Worst signed violation of the defining inequality over sampled (n, m, x).

    Non-positive return means the declared constant C is honored on the sample.
    """
    sys_ = system or _require_system(phi)
    rng = np.random.default_rng(seed)
    pts = sys_.sample_points(sample_count, rng)
    at_x = {j: phi.eval_array(j, pts) for j in range(1, n_max + m_max + 1)}
    worst = -math.inf
    C = phi.C
    tn = pts
    for n in range(1, n_max + 1):
        tn = [sys_.apply(z) for z in tn]
        for m in range(1, m_max + 1):
            whole = at_x[n + m]
            split = at_x[n] + phi.eval_array(m, tn)
            worst = max(worst, float(np.max(whole - split - C, initial=-math.inf)),
                        float(np.max(split - whole - C, initial=-math.inf)))
    return worst


@dataclass
class SupNormReport:
    sup: float
    inf: float
    table: list[tuple[float, float]]

    def modulus(self, eps: float) -> float:
        """Smallest recorded delta bound for pairs closer than eps."""
        out = 0.0
        for d, gap in self.table:
            if d < eps:
                out = max(out, gap)
        return out * (1.0 + 1e-12) + 1e-15


def sup_inf_norm(phi: Potential, system: System | None = None,
                 points: Sequence[Point] | None = None) -> SupNormReport:
    """Range of phi_1 over the sample plus an empirical continuity modulus."""
    sys_ = system or _require_system(phi)
    if points is None:
        rng = np.random.default_rng(7)
        points = sys_.sample_points(64, rng)
    vals = phi.eval_array(1, points)
    i, j = np.triu_indices(len(points), 1)
    if points and isinstance(points[0], RealPoint):
        x = np.array([p.x for p in points], dtype=float)
        d = sys_.metric_array(x[i], x[j])
    else:
        d = np.array([sys_.metric(points[a], points[b]) for a, b in zip(i, j)], dtype=float)
    gap = np.abs(vals[i] - vals[j])
    order = np.lexsort((gap, d))
    table = list(zip(d[order].tolist(), gap[order].tolist()))
    return SupNormReport(sup=float(vals.max()), inf=float(vals.min()), table=table)
