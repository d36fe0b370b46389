"""Verification suites: clean passes, fault sensitivity, deterministic digests."""

import collections
import itertools
import math
import warnings

import numpy as np
import pytest

import pdim
from pdim import dimension, partition, systems
from pdim.cli import main
from pdim.partition import exact_min_cover
from pdim.theorems import (
    SUITE_NAMES,
    TOL,
    CheckReport,
    check_chain,
    check_prop22,
    check_section4,
    check_thm31,
    check_thm32,
    check_thm33,
    check_thm34,
    check_thm35,
    run_suite,
)
from pdim.theorems import _cover_values

from oneshot import cover_value

CHECKS = {
    "chain": check_chain,
    "prop22": check_prop22,
    "thm31": check_thm31,
    "thm32": check_thm32,
    "thm33": check_thm33,
    "thm34": check_thm34,
    "thm35": check_thm35,
    "section4": check_section4,
}


class TestCleanRun:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_passes_at_tolerance(self, name):
        report = CHECKS[name](seed=0)
        assert report.passed, report.line()
        assert report.worst_violation <= TOL
        assert report.check_id == name

    def test_suite_names_cover_checks(self):
        assert set(SUITE_NAMES) == set(CHECKS)
        assert len(SUITE_NAMES) == 8


class TestFaultInjection:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_fails_under_perturbation(self, name):
        report = CHECKS[name](seed=0, fault=0.1)
        assert report.status == "fail"
        assert report.worst_violation > TOL


class TestDeterminism:
    @pytest.mark.parametrize("name", ["chain", "thm32", "section4"])
    def test_same_seed_same_report(self, name):
        a = CHECKS[name](seed=3)
        b = CHECKS[name](seed=3)
        assert a == b

    def test_digest_tracks_config(self):
        base = check_thm32(seed=0)
        assert check_thm32(seed=0).digest == base.digest
        assert check_thm32(seed=1).digest != base.digest


class TestRunner:
    def test_single_suite(self):
        reports = run_suite("thm35", seed=0)
        assert len(reports) == 1
        assert reports[0].check_id == "thm35"

    def test_all_runs_everything_in_order(self):
        reports = run_suite("all", seed=0)
        assert [r.check_id for r in reports] == list(SUITE_NAMES)
        assert all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("thm99")

    def test_report_line_format(self):
        r = CheckReport("thm31", "pass", 1.5e-12, "abcdef012345", "ok")
        line = r.line()
        assert line.startswith("thm31")
        assert "pass" in line and "1.500e-12" in line and "abcdef012345" in line


def reference_arc_options(x, G):
    """Open overlapping arcs A_i = (i h - h/4, (i+1) h + h/4) containing x."""
    h = 1.0 / G
    length = 1.5 * h
    out = [i for i in range(G) if 0.0 < (x - (i * h - 0.25 * h)) % 1.0 < length]
    if not out:  # boundary hit; fall back to closed membership
        out = [i for i in range(G) if 0.0 <= (x - (i * h - 0.25 * h)) % 1.0 <= length]
    return out


def reference_cover_value(theta, xs, weights, n_steps, G, pick, step=1):
    """The arc cover value with one cell per arc product of each point, duplicates kept."""
    members = {}
    for p, x in enumerate(xs):
        arcs = [reference_arc_options((x + j * step * theta) % 1.0, G) for j in range(n_steps)]
        for cell in itertools.product(*arcs):
            members[cell] = members.get(cell, 0) | 1 << p
    masks = [members[cell] for cell in sorted(members)]
    if np.all(weights == -math.inf):
        return -math.inf
    wmax = float(weights.max())
    shifted = np.exp(weights - wmax)
    costs = [pick(shifted[p] for p in range(len(xs)) if m >> p & 1) for m in masks]
    total = exact_min_cover(masks, np.array(costs), (1 << len(xs)) - 1)
    return wmax + math.log(total) if total > 0 else -math.inf


def random_cover_case(seed):
    """(theta, xs, weights, n_steps, G, pick, step) with some points on arc ends;
    on even seeds theta is dyadic, so later positions land on arc ends too."""
    rng = np.random.default_rng([seed, 17])
    G = int(rng.integers(1, 10))
    h = 1.0 / G
    size = int(rng.integers(1, 11))
    xs = [float(v) for v in rng.random(size)]
    for p in rng.choice(size, size=int(rng.integers(0, size + 1)), replace=False):
        i = int(rng.integers(0, G))
        xs[p] = (i * h - 0.25 * h if rng.random() < 0.5 else (i + 1) * h + 0.25 * h) % 1.0
    theta = float(rng.choice([0.125, 0.25, 0.375])) if seed % 2 == 0 else float(rng.uniform(0.05, 0.45))
    weights = rng.normal(scale=0.8, size=size)
    return (theta, xs, weights, int(rng.integers(1, 5)), G, (min, max)[seed // 2 % 2],
            int(rng.integers(1, 4)))


class TestCoverValue:
    """Arc covers by distinct cells against one cell per arc product, bit for
    bit, one job at a time and as one padded batch."""

    @pytest.mark.parametrize("seed", range(80))
    def test_matches_the_arc_products(self, seed):
        case = random_cover_case(seed)
        assert cover_value(*case) == reference_cover_value(*case)

    def test_one_mixed_batch_matches_the_arc_products(self):
        # sizes 1-10, G 1-9, 1-4 positions and steps 1-3, both picks, a point
        # only the closed arcs cover and weights of -inf: in the padded pass
        # most jobs have padded points, arcs or positions
        xs = [0.1, 0.35, 0.6, 0.85]
        cases = [random_cover_case(seed) for seed in range(80)] + [
            (0.25, [0.75, 0.5, 0.1], np.array([0.3, -0.2, 0.1]), 3, 1, min, 1),
            (0.25, xs, np.array([-math.inf, 0.2, -math.inf, -math.inf]), 2, 2, min, 1),
            (0.25, xs, np.full(4, -math.inf), 2, 2, max, 1)]
        assert len({(len(c[1]), c[4], c[3]) for c in cases}) > 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cover_values(cases)
        assert got == [reference_cover_value(*case) for case in cases]

    def test_points_in_no_open_arc_take_the_closed_arcs(self):
        # one arc (G = 1) is open at its end, 0.75; the second point reaches it at step 1
        for pick in (min, max):
            case = (0.25, [0.75, 0.5, 0.1], np.array([0.3, -0.2, 0.1]), 3, 1, pick, 1)
            assert reference_arc_options(0.75, 1) == [0]
            assert cover_value(*case) == reference_cover_value(*case) < math.inf

    def test_minus_inf_weights_give_minus_inf(self):
        # with pick=min a cell holding a point of weight -inf costs 0; with
        # every weight -inf each cell does, under either pick
        xs = [0.1, 0.35, 0.6, 0.85]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for weights, picks in ((np.array([-math.inf, 0.2, -math.inf, -math.inf]), (min,)),
                                   (np.full(4, -math.inf), (min, max))):
                for pick in picks:
                    case = (0.25, xs, weights, 2, 2, pick, 1)
                    assert cover_value(*case) == reference_cover_value(*case) == -math.inf


def test_verify_steps_each_point_set_once(monkeypatch, capsys):
    # over every suite, orbit_array steps each point set at most once per base
    # system: the weights, the relations and prop22's orbit-extended sample
    # read the orbit its points carry (systems.OrbitPoints)
    stepped, held = collections.Counter(), []
    orbit_array = systems.orbit_array

    def spy(system, n, points):
        if not (isinstance(points, systems.OrbitPoints) and points.rows(system, n) is not None):
            raw = points.points if isinstance(points, systems.OrbitPoints) else points
            held.append(raw)  # keeps its id unique for the run
            stepped[id(raw), systems.power_base(system)[0]] += 1
        return orbit_array(system, n, points)

    for name in ("systems", "partition", "potentials", "theorems", "dimension"):
        module = getattr(pdim, name)
        if hasattr(module, "orbit_array"):
            monkeypatch.setattr(module, "orbit_array", spy)
    assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    capsys.readouterr()
    # chain 109 sets, prop22 25 and their 25 samples, thm32 10, thm34 23, thm35 3,
    # and section4's grids
    assert len(stepped) > 195
    assert max(stepped.values()) == 1, [k for k, v in stepped.items() if v > 1][:3]


def test_section4_sets_its_greedy_bounds_up_once_per_grid_run(monkeypatch):
    # one greedy set-up per grid run's family, and no instance's value from a
    # logsumexp call of its own: section4 takes separated bounds only
    runs, setups, alone = [], [], []
    families, balls = dimension.make_families, partition._batch_balls
    monkeypatch.setattr(dimension, "make_families",
                        lambda f: runs.append(len(f[0][2])) or families(f))
    monkeypatch.setattr(partition, "_batch_balls",
                        lambda insts, strict: setups.append(len(insts)) or balls(insts, strict))
    monkeypatch.setattr(partition, "logsumexp", lambda *a: alone.append(a))
    assert check_section4(seed=2).passed
    assert setups == runs and max(runs) > 1 and alone == []
