"""Almost additive potential sequences and their algebra.

A potential here is a sequence ``phi_n`` of orbit aggregates satisfying

    -C + phi_n(x) + phi_m(T^n x) <= phi_{n+m}(x) <= phi_n(x) + phi_m(T^n x) + C

for a declared constant C >= 0.  Each object evaluates ``phi_n``, carries C,
and (when it is locally constant on a shift) exposes a ``Window`` profile
that the exact symbolic backend can sum without enumerating points.  One
profile type covers every exact kind: phi_n = log 1^T W_0 ... W_{n-1} 1
over the dim x dim matrices W_i = exp(step(x_i .. x_{i+reach-1})): an additive
potential is a dim-1 window of scalar steps, a matrix cocycle a reach-1 window
of log-matrices, a sum the Kronecker product of its terms' matrices.

``eval_arrays(ns, points)`` is the one formula of every potential: it
returns the float64 array of ``phi_n`` over a whole candidate list per n in
ns, in one pass to the largest n; ``eval_array(n, points)`` is its one-n
case and ``eval(n, x)`` the one-point case of that.  A ``Birkhoff`` ``phi``
is a function of arrays that returns one float per row: on a real system it
reads a 1-D coordinate array, the whole orbit flattened in one call; on a
shift the (m, reach) int64 array of each word's first ``reach`` symbols,
padded with the word's own tail: the contract of a dim-1 ``Window`` step,
so that phi is its own step.  Orbit sums add in time order from +0.0, and
each n reads the one running total: the same adds as a per-point loop, so
every weight is bit for bit the scalar value.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .systems import (
    FactorMap,
    Point,
    PowerSystem,
    ShiftSystem,
    System,
    Word,
    orbit_array,
    shift_step,
    with_orbit,
    word_array,
)


class Window:
    """phi_n(x) = log of the entry sum of W(x_0 .. x_{reach-1}) ...
    W(x_{n-1} .. x_{n+reach-2}), where W = exp(step) and ``step`` maps an
    (m, reach) int64 array of windows, one per row, to m floats when dim == 1
    (then phi_n is the sum of the steps) and to (m, dim, dim) log-matrices
    otherwise.  Windows add by ``+``.  A window with no ``step`` (a matrix
    chain under a norm power other than 1, and every sum with one) has no
    transfer chain: it marks a potential constant on (n + reach - 1)-
    cylinders whose word sums enumerate."""

    def __init__(self, reach: int, step: Callable[[np.ndarray], np.ndarray] | None,
                 dim: int = 1):
        self.reach, self.step, self.dim = reach, step, dim

    def __add__(self, other: Window) -> Window:
        """phi + psi: the Kronecker product of the two matrix chains, with
        log-matrix x[i, j] + y[k, l] at row (i, k), column (j, l), whose entry
        sum is the product of theirs; a window with no step if either has none."""
        a, b, d = self, other, self.dim * other.dim
        if a.step is None or b.step is None:
            return Window(max(a.reach, b.reach), None)

        def step(w):
            x = a.step(w[:, :a.reach]).reshape(-1, a.dim, 1, a.dim, 1)
            y = b.step(w[:, :b.reach]).reshape(-1, 1, b.dim, 1, b.dim)
            return (x + y).reshape((-1, d, d) if d > 1 else -1)

        return Window(max(a.reach, b.reach), step, d)

    def scaled(self, lam: float) -> Window:
        """The window of lam * phi: a scaled step at dim 1; otherwise a norm
        power, which has no step unless lam is 1."""
        if self.step is None or lam == 1.0:
            return self
        if self.dim == 1:
            return Window(self.reach, lambda w: lam * self.step(w))
        return Window(self.reach, None)


class Potential:
    system: System | None = None
    C: float = 0.0
    label: str = "potential"

    def eval(self, n: int, x: Point) -> float:
        """phi_n(x): the one-point case of ``eval_array``."""
        return float(self.eval_array(n, [x])[0])

    def eval_array(self, n: int, points: Sequence[Point]) -> np.ndarray:
        """phi_n over the points as a float64 array: the one-n case of ``eval_arrays``."""
        return self.eval_arrays([n], points)[0]

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        """phi_n over the points per n in ns: the potential's one formula.  The
        default reads ``eval_array`` per n, for a potential that defines only that."""
        if type(self).eval_array is Potential.eval_array:
            raise NotImplementedError(f"{self.label} has no formula")
        return [self.eval_array(n, points) for n in ns]

    def shift_profile(self) -> Window | None:
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


class ConstantDrift(Potential):
    """phi_n = n * A; exactly additive on any system."""

    def __init__(self, A: float = 0.0, system: System | None = None):
        self.A, self.system = A, system

    @property
    def label(self) -> str:
        return f"drift({self.A})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        return [np.full(len(points), n * self.A) for n in ns]

    def shift_profile(self) -> Window | None:
        a = self.A
        return Window(reach=1, step=lambda w: np.full(len(w), a))


def zero_potential(system: System | None = None) -> ConstantDrift:
    return ConstantDrift(0.0, system)


class Birkhoff(Potential):
    """phi_n = sum of phi along the orbit; exactly additive (C = 0).

    ``phi`` maps an array of points to one float per row: a 1-D coordinate
    array on a real system (the n m coordinates of the whole orbit, in one
    call), the (m, reach) symbol windows on a shift.  A shift needs
    ``reach``, the number of leading symbols phi reads; it also unlocks the
    exact symbolic backend.
    """

    def __init__(self, phi: Callable[[np.ndarray], np.ndarray], system: System,
                 reach: int | None = None, name: str = "phi"):
        if shift_step(system) is not None and reach is None:
            raise ValueError("a Birkhoff potential on a shift needs reach")
        self.phi, self.system, self.reach, self.name = phi, system, reach, name

    @property
    def label(self) -> str:
        return f"birkhoff({self.name})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        """One running total from +0.0 along the orbit to the largest n, read off at each n."""
        top, wanted = max(ns, default=0), set(ns)
        total = np.zeros(len(points))
        found = {}
        step = shift_step(self.system)
        if step is None:
            # one phi call over the whole orbit, read back one row per step
            orbit = orbit_array(self.system, max(top, 0), points)
            terms = self.phi(orbit.reshape(-1)).reshape(orbit.shape) if top > 0 else []
        else:
            r = self.reach
            windows = word_array(points, max(top - 1, 0) * step + r)
            terms = (self.phi(windows[:, t:t + r]) for t in range(0, top * step, step))
        for t, term in enumerate(terms, 1):
            total += term
            if t in wanted:
                found[t] = total if t == top else total.copy()
        return [found[n] if n > 0 else np.zeros(len(points)) for n in ns]

    def shift_profile(self) -> Window | None:
        if self.reach is None or not isinstance(self.system, ShiftSystem):
            return None
        return Window(self.reach, self.phi)


def symbol_weights(system: ShiftSystem, table: Sequence[float], name: str = "table") -> Birkhoff:
    """Weight read off the first symbol; the basic locally constant potential."""
    vals = np.array([float(v) for v in table])
    if len(vals) != system.k:
        raise ValueError("need one weight per symbol")
    return Birkhoff(phi=lambda window: vals[window[:, 0]], system=system, reach=1, name=name)


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log of each value: numpy's vectorised log may round a last bit
    differently, and each weight stays the float of the per-word product."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


class MatrixCocycle(Potential):
    """phi_n(x) = log of the entry-sum norm of A(x_0) ... A(x_{n-1}).

    All matrices must be strictly positive and finite; then the sequence is
    almost additive with C = log(d * max_entry / min_entry) for d x d matrices.
    """

    def __init__(self, mats: Sequence, system: ShiftSystem | None = None):
        mats = tuple(np.array(m, dtype=float) for m in mats)
        if not isinstance(system, ShiftSystem):
            raise ValueError("matrix cocycles live on shift systems")
        if len(mats) != system.k:
            raise ValueError("need one matrix per symbol")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("all matrices must share one square shape")
            if not np.all((m > 0) & (m < np.inf)):
                raise ValueError("matrix entries must be strictly positive and finite")
        self.mats, self.system = mats, system

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

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Word]) -> list[np.ndarray]:
        """One running product to the largest n, read off at each n."""
        m, top, wanted = len(points), max(ns, default=0), set(ns)
        found = {}
        if top >= 1 and m:
            symbols = word_array(points, top)
            mats = np.stack(self.mats)
            prod, out = mats[symbols[:, 0]], np.zeros(m)
            for i in range(1, top + 1):
                s = prod.reshape(m, -1).sum(axis=1)
                logs = _logs(s)
                if i in wanted:
                    found[i] = out + logs
                if i < top:
                    # normalize before multiplying so huge entries cannot overflow
                    out += logs
                    prod = (prod / s[:, None, None]) @ mats[symbols[:, i]]
        return [found[n] if n in found else np.zeros(m) for n in ns]

    def shift_profile(self) -> Window | None:
        log_mats = np.log(np.stack(self.mats))
        if self.dim == 1:  # a 1 x 1 cocycle is a scalar window, whose step returns m floats
            log_mats = log_mats.reshape(-1)
        return Window(1, lambda w: log_mats[w[:, 0]], dim=self.dim)


class SumPotential(Potential):
    def __init__(self, left: Potential, right: Potential):
        self.left, self.right = left, right
        self.system = _merge_systems(left.system, right.system)

    @property
    def C(self) -> float:
        return self.left.C + self.right.C

    @property
    def label(self) -> str:
        return f"sum({self.left.label},{self.right.label})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        return [a + b for a, b in zip(self.left.eval_arrays(ns, points),
                                      self.right.eval_arrays(ns, points))]

    def shift_profile(self) -> Window | None:
        a, b = self.left.shift_profile(), self.right.shift_profile()
        return None if a is None or b is None else a + b


class ScaledPotential(Potential):
    def __init__(self, lam: float, inner: Potential):
        self.lam, self.inner = lam, inner

    @property
    def system(self) -> System | None:  # type: ignore[override]
        return self.inner.system

    @property
    def C(self) -> float:
        return abs(self.lam) * self.inner.C

    @property
    def label(self) -> str:
        return f"scale({self.lam},{self.inner.label})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        return [self.lam * w for w in self.inner.eval_arrays(ns, points)]

    def shift_profile(self) -> Window | None:
        p = self.inner.shift_profile()
        return None if p is None else p.scaled(self.lam)


class PullbackPotential(Potential):
    """phi_n composed with a factor map; defined on the source system."""

    def __init__(self, inner: Potential, factor: FactorMap):
        if inner.system is not None and inner.system != factor.target:
            raise ValueError("factor map target does not match the potential's system")
        self.inner, self.factor = inner, factor

    @property
    def system(self) -> System:  # type: ignore[override]
        return self.factor.source

    @property
    def C(self) -> float:
        return self.inner.C

    @property
    def label(self) -> str:
        return f"pullback({self.inner.label},{self.factor.label})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        return self.inner.eval_arrays(ns, [self.factor.apply(p) for p in points])


class TimePowerPotential(Potential):
    """Phi_k with (phi_k)_n = phi_{nk}, a potential for T^k."""

    def __init__(self, inner: Potential, k: int):
        if k < 1:
            raise ValueError("time power must be >= 1")
        _require_system(inner)
        self.inner, self.k = inner, k

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

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        return self.inner.eval_arrays([n * self.k for n in ns], points)


class InverseTwistPotential(Potential):
    """phi'_n(x) = phi_n(T^{-(n-1)} x), a potential for the inverse map."""

    def __init__(self, inner: Potential):
        _require_system(inner).inverse()  # fail early if not invertible
        self.inner = inner

    @property
    def system(self) -> System:  # type: ignore[override]
        return self.inner.system.inverse()

    @property
    def C(self) -> float:
        return self.inner.C

    @property
    def label(self) -> str:
        return f"inverse_twist({self.inner.label})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        sys_ = self.system
        return [self.inner.eval_array(n, [sys_.iterate(p, n - 1) for p in points]) for n in ns]


class CoboundaryPotential(Potential):
    """Phi + Psi o T - Psi, the coboundary perturbation of Phi.

    On a shift its window is (phi + psi o T) + (-psi), the adds of phi +
    psi o T - psi, where psi o T is psi's window read one symbol on.
    """

    def __init__(self, base: Potential, psi: Potential):
        self.base, self.psi = base, psi
        self.system = _merge_systems(base.system, psi.system)

    @property
    def C(self) -> float:
        return self.base.C + 2.0 * self.psi.C

    @property
    def label(self) -> str:
        return f"coboundary({self.base.label},{self.psi.label})"

    def eval_arrays(self, ns: Sequence[int], points: Sequence[Point]) -> list[np.ndarray]:
        images = [_require_system(self).apply(p) for p in points]
        return [a + b - c for a, b, c in zip(self.base.eval_arrays(ns, points),
                                             self.psi.eval_arrays(ns, images),
                                             self.psi.eval_arrays(ns, points))]

    def shift_profile(self) -> Window | None:
        a, b = self.base.shift_profile(), self.psi.shift_profile()
        if a is None or b is None:
            return None
        step = None if b.step is None else lambda w: b.step(w[:, 1:])
        return a + Window(b.reach + 1, step, b.dim) + b.scaled(-1.0)


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


class SupNormReport:
    """Range of phi_1 over a sample, and per pair i < j of it its distance d
    and its gap |phi_1(x_i) - phi_1(x_j)|, as arrays."""

    def __init__(self, sup: float, inf: float, d: np.ndarray, gap: np.ndarray):
        self.sup, self.inf, self.d, self.gap = sup, inf, d, gap

    def modulus(self, eps: float) -> float:
        """Smallest recorded delta bound for pairs closer than eps: the largest
        gap among them, NaN gaps skipped, 0 where there is none."""
        out = float(np.fmax.reduce(self.gap[self.d < eps], initial=0.0))
        return out * (1.0 + 1e-12) + 1e-15

    @classmethod
    def of(cls, instance) -> SupNormReport:
        """The report of a ``partition.SeparationInstance`` at n = 1, eps =
        inf, whose weights are phi_1 and whose relation holds every pair."""
        vals = instance.weights
        i, j, d = instance.pairs()
        return cls(sup=float(vals.max()), inf=float(vals.min()), d=d,
                   gap=np.abs(vals[i] - vals[j]))


def sup_inf_norm(phi: Potential, system: System | None = None,
                 points: Sequence[Point] | None = None) -> SupNormReport:
    """Range of phi_1 over the sample plus an empirical continuity modulus,
    from the one instance of ``partition.make_families`` at (1, inf)."""
    from .partition import make_families  # partition imports this module
    sys_ = system or _require_system(phi)
    if points is None:
        rng = np.random.default_rng(7)
        points = sys_.sample_points(64, rng)
    [[[instance]]] = make_families([(sys_, points, [(1, math.inf)], [phi])])
    return SupNormReport.of(instance)
