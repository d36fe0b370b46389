"""End-to-end acceptance gate.

Eight criteria, each printed as one ``criterion N: PASS/FAIL (...)`` line
(run with ``pytest -s`` to see the lines on success).  Every criterion
carries its own tolerance and wall-clock budget.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from pdim.cli import main as cli_main
from pdim.dimension import (
    GrowthTable,
    dimension_estimate,
    entropy_dimension,
    s_pressure,
)
from pdim.partition import (
    Estimator,
    GrowthSample,
    count_spanning_separated,
    exact_separated_value,
    exact_spanning_value,
    make_instance,
    separated_lower_bound,
    spanning_upper_bound,
)
from pdim.potentials import (
    Birkhoff,
    ConstantDrift,
    MatrixCocycle,
    symbol_weights,
    verify_almost_additive,
    zero_potential,
)
from pdim.symbolic import exact_growth_table, log_weighted_word_sum
from pdim.systems import Contraction, FullShift, Rotation, golden_mean_sft, real
from pdim.theorems import run_suite

LOG2 = math.log(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def sep_table(system, potential, k, n_range) -> GrowthTable:
    rows = exact_growth_table(system, potential, k, n_range)
    return GrowthTable(rows).filter(estimator=Estimator.SEPARATED)


def span_table(system, potential, k, n_range) -> GrowthTable:
    rows = exact_growth_table(system, potential, k, n_range)
    return GrowthTable(rows).filter(estimator=Estimator.SPANNING)


def power_iteration_log_rho(mat: np.ndarray, iters: int = 200) -> float:
    """Independent spectral-radius oracle for a primitive nonnegative matrix."""
    v = np.ones(mat.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = mat @ v
        lam = float(w @ v / (v @ v))
        v = w / np.linalg.norm(w)
    return math.log(lam)


def test_criterion_1_full_shift_entropy():
    t0 = time.monotonic()
    fs = FullShift(2)
    zero = zero_potential(fs)
    word_err = 0.0
    for k in (0, 1, 2):
        for n in range(1, 33):
            v = log_weighted_word_sum(fs, zero, n, n + k)
            word_err = max(word_err, abs(v - (n + k) * LOG2))
    rel_errs = []
    for k in (0, 1, 2):
        t = sep_table(fs, zero, k, range(20, 65))
        rel_errs.append(abs(s_pressure(t, 1.0, window_frac=1.0) - LOG2) / LOG2)
    # the coarsest scale contributes (n + 2)/n at n = 20, exactly 10 percent
    rel = max(rel_errs)
    est = dimension_estimate(sep_table(fs, zero, 0, range(10, 201, 10)))
    elapsed = time.monotonic() - t0
    ok = (word_err <= 1e-9 and rel <= 0.10 + 1e-9
          and abs(est.s0_hat - 1.0) <= 0.05 and elapsed < 1.0)
    report(1, ok, f"word-sum err {word_err:.1e}, pressure rel err {rel:.4f}, "
                  f"dim {est.s0_hat:.3f}, {elapsed:.2f}s")


def test_criterion_2_constant_drift_pressure():
    t0 = time.monotonic()
    fs = FullShift(2)
    drift = ConstantDrift(0.5, fs)
    t = span_table(fs, drift, 0, range(4, 65, 4))
    v64 = next(r.log_value for r in t.samples if r.n == 64)
    err = abs(v64 / 64.0 - (LOG2 + 0.5))
    est = dimension_estimate(span_table(fs, drift, 0, range(10, 201, 10)))
    elapsed = time.monotonic() - t0
    ok = err <= 1e-2 and abs(est.s0_hat - 1.0) <= 0.05 and elapsed < 1.0
    report(2, ok, f"pressure err {err:.1e}, dim {est.s0_hat:.3f}, {elapsed:.2f}s")


def test_criterion_3_zero_entropy_systems():
    t0 = time.monotonic()
    dims = {}
    drift_dims = {}
    for system in (Contraction(0.5, 0.0), Rotation(math.sqrt(2) - 1)):
        _, est = entropy_dimension(system, range(2, 41, 2), [0.2, 0.1, 0.05])
        dims[system.label] = est.s0_hat
        pot = ConstantDrift(1.0, system)
        samples = []
        for n in range(20, 401, 20):
            cand = system.candidate_set(n, 0.1)
            inst = make_instance(system, n, 0.1, cand.points, pot)
            samples.append(separated_lower_bound(inst))
        drift_dims[system.label] = dimension_estimate(GrowthTable(samples)).s0_hat
    elapsed = time.monotonic() - t0
    ok = (all(abs(v) <= 0.05 for v in dims.values())
          and all(abs(v - 1.0) <= 0.05 for v in drift_dims.values())
          and elapsed < 5.0)
    report(3, ok, f"entropy dims {sorted(round(v, 3) for v in dims.values())}, "
                  f"unit-drift dims {sorted(round(v, 3) for v in drift_dims.values())}, "
                  f"{elapsed:.2f}s")


def test_criterion_4_matrix_cocycle():
    t0 = time.monotonic()
    fs = FullShift(2)
    mats = [np.array([[2.0]]), np.array([[3.0]])]
    coc = MatrixCocycle(mats, fs)
    target = power_iteration_log_rho(mats[0] + mats[1])
    t = span_table(fs, coc, 0, range(2, 15))
    v14 = next(r.log_value for r in t.samples if r.n == 14)
    rel = abs(v14 / 14.0 - target) / target
    aa = verify_almost_additive(coc, fs, n_max=6, m_max=6)
    elapsed = time.monotonic() - t0
    ok = (rel <= 0.02 and aa <= 1e-9
          and coc.C == pytest.approx(math.log(3.0 / 2.0)) and elapsed < 5.0)
    report(4, ok, f"pressure rel err {rel:.2e} vs log rho {target:.6f}, "
                  f"additivity defect {aa:.1e}, {elapsed:.2f}s")


def test_criterion_5_oracle_sandwich():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    gm = golden_mean_sft()
    fs4 = FullShift(2)
    worst = -math.inf
    count_bad = 0
    trials = 0
    for trial in range(200):
        if trial % 2 == 0:
            system = Rotation(float(rng.uniform(0.05, 0.45)))
            pts = [real(float(v)) for v in rng.random(int(rng.integers(6, 17)))]
            a, b = rng.normal(scale=0.5, size=2)
            pot = Birkhoff(
                phi=lambda x, a=a, b=b: a * np.cos(2 * np.pi * x) + b,
                system=system, name="trig")
            n = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.05, 0.45))
        else:
            system = gm if trial % 4 == 1 else fs4
            length = 5 if system is gm else 4
            pts = [system.representative(w) for w in system.admissible_words(length)]
            table = rng.normal(scale=0.6, size=2)
            pot = symbol_weights(system, table)
            n = int(rng.integers(1, length + 1))
            eps = float(rng.uniform(0.05, 0.6))
        assert len(pts) <= 16
        inst = make_instance(system, n, eps, pts, pot)
        sep = exact_separated_value(inst).log_value
        span = exact_spanning_value(inst).log_value
        lo = separated_lower_bound(inst).log_value
        hi = spanning_upper_bound(inst).log_value
        worst = max(worst, span - sep, lo - sep, span - hi)
        s1, r1 = count_spanning_separated(system, n, eps, pts)
        s2, _ = count_spanning_separated(system, n, eps / 2.0, pts)
        if not s1 <= r1 <= s2:
            count_bad += 1
        trials += 1
    elapsed = time.monotonic() - t0
    ok = trials >= 200 and worst <= 1e-9 and count_bad == 0 and elapsed < 30.0
    report(5, ok, f"{trials} instances, worst sandwich gap {worst:.2e}, "
                  f"count-chain failures {count_bad}, {elapsed:.2f}s")


def test_criterion_6_verification_suites():
    t0 = time.monotonic()
    reports = run_suite("all", seed=0)
    elapsed = time.monotonic() - t0
    worst = max(r.worst_violation for r in reports)
    ok = (len(reports) == 8 and all(r.passed for r in reports)
          and worst <= 1e-9 and elapsed < 60.0)
    failing = [r.check_id for r in reports if not r.passed]
    report(6, ok, f"8 suites, worst violation {worst:.2e}, "
                  f"failing {failing or 'none'}, {elapsed:.2f}s")


def test_criterion_7_synthetic_recovery():
    t0 = time.monotonic()
    gen = np.random.default_rng(11)
    errs = {}
    for sigma in (0.3, 0.5, 1.0, 1.5):
        rows = []
        for n in range(10, 201, 10):
            v = 0.8 * n**sigma * (1.0 + float(gen.uniform(-0.01, 0.01)))
            rows.append(GrowthSample(Estimator.SEPARATED, n, 0.5, v, False))
        est = dimension_estimate(GrowthTable(rows), window_frac=1.0)
        errs[sigma] = abs(est.s0_hat - sigma)
    elapsed = time.monotonic() - t0
    ok = max(errs.values()) <= 0.05 and elapsed < 5.0
    report(7, ok, "recovery errors " +
           ", ".join(f"{s}: {e:.3f}" for s, e in errs.items()) + f", {elapsed:.2f}s")


def test_criterion_8_determinism(tmp_path, capsys):
    rc1 = cli_main(["verify", "--suite", "all", "--seed", "7"])
    out1 = capsys.readouterr().out
    rc2 = cli_main(["verify", "--suite", "all", "--seed", "7"])
    out2 = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": {"kind": "sft", "matrix": [[1, 1], [1, 0]]},
        "potential": {"kind": "symbol_weights", "table": [0.25, -0.5]},
        "n_range": {"start": 4, "stop": 40, "step": 4},
        "scales": {"k": [0, 1]},
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = cli_main(["estimate", "--config", str(cfg), "--out", str(a)])
    rb = cli_main(["estimate", "--config", str(cfg), "--out", str(b)])
    capsys.readouterr()
    ok = (rc1 == rc2 == 0 and out1.encode() == out2.encode()
          and ra == rb == 0 and a.read_bytes() == b.read_bytes())
    with capsys.disabled():
        report(8, ok, f"verify bytes {'==' if out1 == out2 else '!='}, "
                      f"estimate bytes {'==' if a.read_bytes() == b.read_bytes() else '!='}")
