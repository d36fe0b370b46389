"""The value classes as callers read them: equality and hashing, defaults,
keyword forms, and the errors each constructor raises."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from pdim.dimension import DimensionEstimate
from pdim.partition import EmptyInstanceError, Estimator, GrowthSample, SeparationInstance
from pdim.potentials import (
    Birkhoff,
    CoboundaryPotential,
    ConstantDrift,
    InverseTwistPotential,
    MatrixCocycle,
    PullbackPotential,
    SumPotential,
    TimePowerPotential,
    Window,
)
from pdim.systems import (
    SFT,
    CandidateSet,
    Contraction,
    DoublingMap,
    FactorMap,
    FullShift,
    PowerSystem,
    RealGrid,
    RealPoint,
    Rotation,
    Word,
    binary_expansion_map,
    golden_mean_sft,
    real,
)
from pdim.theorems import CheckReport


def same(a, b):
    """Equal both ways, unequal neither way, with one hash."""
    assert a == b and b == a
    assert not (a != b) and not (b != a)
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def differ(a, b):
    assert a != b and b != a
    assert not (a == b) and not (b == a)


class TestSystems:
    def test_full_shift(self):
        same(FullShift(2), FullShift(2))
        same(FullShift(), FullShift(k=2))
        differ(FullShift(2), FullShift(3))

    def test_sft_normalises_its_matrix(self):
        a = SFT(((1, 1), (1, 0)))
        same(a, golden_mean_sft())
        same(a, SFT([[1, 1], [1, 0]]))
        same(a, SFT([[True, True], [True, False]]))
        same(a, SFT(np.array([[1, 1], [1, 0]])))
        assert a.matrix == ((1, 1), (1, 0))
        assert all(type(v) is int for row in SFT(np.array([[1, 1], [1, 0]])).matrix for v in row)
        differ(a, SFT(((1, 1), (1, 1))))

    def test_sft_caches_do_not_compare(self):
        a, b = SFT(((0, 1), (1, 1))), SFT(((0, 1), (1, 1)))
        assert (a.tail_symbol, a.bridge_to_tail(0)) == (1, (1,))
        a.transitions  # noqa: B018  cached on a only
        same(a, b)
        assert b.transitions.tolist() == [[False, True], [True, True]]
        same(a, b)

    def test_circle_and_interval_maps(self):
        same(DoublingMap(), DoublingMap())
        same(Rotation(0.3), Rotation(theta=0.3))
        same(Rotation(), Rotation(0.125))
        differ(Rotation(0.3), Rotation(0.4))
        same(Contraction(0.5, 0.2), Contraction(c=0.5, fixed=0.2))
        differ(Contraction(0.5, 0.2), Contraction(0.5, 0.3))
        differ(Contraction(0.5, 0.2), Contraction(0.4, 0.2))

    def test_power_system(self):
        same(PowerSystem(Rotation(0.3), 2), PowerSystem(base=Rotation(0.3), power=2))
        same(PowerSystem(PowerSystem(FullShift(2), 2), 3), PowerSystem(PowerSystem(FullShift(2), 2), 3))
        differ(PowerSystem(Rotation(0.3), 2), PowerSystem(Rotation(0.3), 3))
        differ(PowerSystem(Rotation(0.3), 2), PowerSystem(Rotation(0.4), 2))
        differ(PowerSystem(Rotation(0.3), 1), Rotation(0.3))

    def test_kinds_never_equal_each_other(self):
        # the full 2-shift as an SFT is another kind, and so unequal
        kinds = [FullShift(2), SFT(((1, 1), (1, 1))), DoublingMap(), Rotation(0.5),
                 Contraction(0.5, 0.0), PowerSystem(DoublingMap(), 1)]
        for x, a in enumerate(kinds):
            for b in kinds[x + 1:]:
                differ(a, b)
            differ(a, None)
            differ(a, "system")

    def test_factor_map(self):
        src, dst = FullShift(2), DoublingMap()
        f, g = (lambda w: real(0.0)), (lambda eps: eps)
        same(FactorMap(src, dst, f, g), FactorMap(source=FullShift(2), target=DoublingMap(),
                                                  transform=f, modulus=g, label="factor"))
        differ(FactorMap(src, dst, f, g), FactorMap(src, dst, f, g, label="other"))
        differ(FactorMap(src, dst, f, g), FactorMap(src, dst, f, lambda eps: eps))
        differ(FactorMap(src, dst, f, g), FactorMap(FullShift(3), dst, f, g))
        # each call builds new functions
        differ(binary_expansion_map(), binary_expansion_map())
        same(*[binary_expansion_map()] * 2)

    def test_defaults(self):
        assert FullShift().k == 2
        assert Rotation().theta == 0.125
        assert (Contraction().c, Contraction().fixed) == (0.5, 0.0)
        assert FactorMap(FullShift(2), DoublingMap(), None, None).label == "factor"

    def test_construction_errors(self):
        with pytest.raises(ValueError, match="alphabet needs at least 2 symbols"):
            FullShift(1)
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            SFT(((2, 1), (1, 0)))
        with pytest.raises(ValueError, match="must be square"):
            SFT(((1, 1),))
        with pytest.raises(ValueError, match="must be square"):
            SFT(())
        with pytest.raises(ValueError, match="dead state"):
            SFT(((1, 1), (0, 0)))
        with pytest.raises(ValueError, match="self-loop"):
            SFT(((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="cannot reach the tail symbol"):
            SFT(((1, 0), (0, 1)))
        for c in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="contraction factor must lie in"):
                Contraction(c)
        with pytest.raises(ValueError, match="power must be >= 1"):
            PowerSystem(Rotation(0.3), 0)


class TestPoints:
    def test_word(self):
        same(Word((0, 1)), Word((0, 1), 0))
        same(Word((0, 1), tail=1), Word(symbols=(0, 1), tail=1))
        differ(Word((0, 1)), Word((0, 1), 1))
        differ(Word((0, 1)), Word((0, 1, 0)))  # the same sequence, another prefix
        assert Word((1,)).tail == 0
        assert len({Word((0,)), Word((0,), 0), Word((1,))}) == 2

    def test_real_point(self):
        same(real(0.5), RealPoint(0.5))
        same(RealPoint(x=0.25), real(np.float64(0.25)))
        differ(RealPoint(0.5), RealPoint(0.25))
        differ(RealPoint(0.0), Word(()))
        nan = real(math.nan)
        assert nan == nan  # one float object compares equal to itself
        assert list(dict.fromkeys([real(0.1), real(0.1), real(0.2)])) == [real(0.1), real(0.2)]


class TestSamplesAndReports:
    def test_growth_sample(self):
        a = GrowthSample(Estimator.SEPARATED, 4, 0.5, 1.25, True)
        same(a, GrowthSample(3, 4, 0.5, 1.25, exact=True, note=""))
        assert a.note == ""
        differ(a, GrowthSample(Estimator.SEPARATED, 4, 0.5, 1.25, True, note="uncertified-candidates"))
        differ(a, GrowthSample(Estimator.SPANNING, 4, 0.5, 1.25, True))
        differ(a, GrowthSample(Estimator.SEPARATED, 4, 0.5, 1.5, True))
        differ(a, GrowthSample(Estimator.SEPARATED, 4, 0.5, 1.25, False))

    def test_dimension_estimate(self):
        a = DimensionEstimate(1.0, (4, 8), 0.01, "power-fit")
        assert a == DimensionEstimate(s0_hat=1.0, window=(4, 8), stderr=0.01, method="power-fit")
        assert a != DimensionEstimate(1.0, (4, 8), 0.02, "power-fit")

    def test_check_report(self):
        a = CheckReport("chain", "pass", 0.0, "abc")
        assert a.notes == ""
        assert a == CheckReport("chain", "pass", 0.0, "abc", notes="")
        assert a != CheckReport("chain", "pass", 0.0, "abc", notes="n=3")
        assert a.passed and a.line() == "chain      pass   worst_violation=0.000e+00 digest=abc "

    def test_candidate_set(self):
        pts = RealGrid(np.arange(4) / 4)
        assert CandidateSet(pts).certified is True
        cand = CandidateSet(points=pts, certified=False)
        assert cand.points is pts and cand.certified is False


class TestPotentials:
    def test_window_forms(self):
        w = Window(reach=1, step=np.negative)
        assert (w.reach, w.step, w.dim) == (1, np.negative, 1)
        assert Window(2, None, dim=3).dim == 3

    def test_birkhoff_keywords_and_defaults(self):
        phi = Birkhoff(phi=np.cos, system=Rotation(0.3), name="cos")
        assert (phi.phi, phi.system, phi.reach, phi.name) == (np.cos, Rotation(0.3), None, "cos")
        assert Birkhoff(np.cos, Rotation(0.3)).name == "phi"
        assert Birkhoff(np.cos, Rotation(0.3)).label == "birkhoff(phi)"
        with pytest.raises(ValueError, match="on a shift needs reach"):
            Birkhoff(phi=np.cos, system=FullShift(2))
        with pytest.raises(ValueError, match="on a shift needs reach"):
            Birkhoff(np.cos, PowerSystem(FullShift(2), 2))

    def test_constant_drift_defaults(self):
        assert (ConstantDrift().A, ConstantDrift().system) == (0.0, None)
        assert ConstantDrift(0.5, Rotation(0.3)).system == Rotation(0.3)

    def test_matrix_cocycle(self):
        m = MatrixCocycle(([[1.0]], [[2.0]]), FullShift(2))
        assert all(type(a) is np.ndarray and a.dtype == float for a in m.mats)
        assert MatrixCocycle(([[1, 2], [3, 4]],) * 2, system=FullShift(2)).dim == 2
        with pytest.raises(ValueError, match="live on shift systems"):
            MatrixCocycle(([[1.0]], [[2.0]]))
        with pytest.raises(ValueError, match="live on shift systems"):
            MatrixCocycle(([[1.0]], [[2.0]]), Rotation(0.3))
        with pytest.raises(ValueError, match="one matrix per symbol"):
            MatrixCocycle(([[1.0]],), FullShift(2))
        with pytest.raises(ValueError, match="one square shape"):
            MatrixCocycle(([[1.0]], [[1.0, 1.0], [1.0, 1.0]]), FullShift(2))
        with pytest.raises(ValueError, match="one square shape"):
            MatrixCocycle(([[1.0, 1.0]], [[1.0, 1.0]]), FullShift(2))
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="strictly positive and finite"):
                MatrixCocycle(([[1.0]], [[bad]]), FullShift(2))

    def test_combinations_take_one_system(self):
        rot, drift = Rotation(0.3), ConstantDrift(1.0)
        assert SumPotential(drift, ConstantDrift(2.0, rot)).system == rot
        assert SumPotential(drift, ConstantDrift(2.0)).system is None
        assert CoboundaryPotential(ConstantDrift(2.0, rot), drift).system == rot
        with pytest.raises(ValueError, match="different systems"):
            SumPotential(ConstantDrift(1.0, rot), ConstantDrift(1.0, Rotation(0.4)))
        with pytest.raises(ValueError, match="different systems"):
            CoboundaryPotential(ConstantDrift(1.0, rot), ConstantDrift(1.0, DoublingMap()))

    def test_pullback_checks_the_target(self):
        fm = binary_expansion_map()
        assert PullbackPotential(ConstantDrift(1.0, DoublingMap()), fm).system == FullShift(2)
        assert PullbackPotential(ConstantDrift(1.0), fm).system == FullShift(2)
        with pytest.raises(ValueError, match="target does not match"):
            PullbackPotential(ConstantDrift(1.0, Rotation(0.3)), fm)

    def test_time_power_and_inverse_twist_errors(self):
        assert TimePowerPotential(ConstantDrift(1.0, Rotation(0.3)), 2).system == \
            PowerSystem(Rotation(0.3), 2)
        with pytest.raises(ValueError, match="time power must be >= 1"):
            TimePowerPotential(ConstantDrift(1.0, Rotation(0.3)), 0)
        with pytest.raises(ValueError, match="not attached to a system"):
            TimePowerPotential(ConstantDrift(1.0), 2)
        assert InverseTwistPotential(ConstantDrift(1.0, Rotation(0.3))).system == Rotation(0.7)
        with pytest.raises(ValueError, match="not attached to a system"):
            InverseTwistPotential(ConstantDrift(1.0))
        with pytest.raises(NotImplementedError, match="not invertible"):
            InverseTwistPotential(ConstantDrift(1.0, DoublingMap()))


class TestSeparationInstance:
    def test_weights_become_floats(self):
        inst = SeparationInstance(Rotation(0.3), 2, 0.1, [real(0.0), real(0.5)], [1, 2])
        assert inst.weights.dtype == float and inst.weights.tolist() == [1.0, 2.0]
        assert inst.size == 2 and inst._relations is None

    def test_errors(self):
        pts = [real(0.0), real(0.5)]
        with pytest.raises(EmptyInstanceError, match="no candidates"):
            SeparationInstance(Rotation(0.3), 2, -1.0, [], [])
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="eps must be positive"):
                SeparationInstance(Rotation(0.3), 2, eps, pts, [1.0])
        with pytest.raises(ValueError, match="one weight per candidate"):
            SeparationInstance(Rotation(0.3), 2, 0.1, pts, [1.0])
        with pytest.raises(ValueError, match="one weight per candidate"):
            SeparationInstance(Rotation(0.3), 2, 0.1, pts, [[1.0, 2.0]])


def test_import_generates_no_methods():
    # a fresh process: importing the CLI loads no dataclasses, and no pdim
    # class was made by its decorator
    code = textwrap.dedent("""
        import inspect, sys
        import pdim.cli
        made = [f"{name}.{cls.__name__}" for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "pdim"
                for cls in vars(mod).values()
                if inspect.isclass(cls) and hasattr(cls, "__dataclass_fields__")]
        print("dataclasses" in sys.modules, made)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.split() == ["False", "[]"]
