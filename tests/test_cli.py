"""Command line contract: CSV schema, exit codes, determinism."""

import csv
import json
import math
import re

import pytest
from test_golden import CONFIGS as GOLDEN_CONFIGS

from pdim import systems
from pdim.cli import CSV_HEADER, MAX_POTENTIAL_DEPTH, build_system, main
from pdim.dimension import entropy_dimension


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "system": {"kind": "full_shift", "k": 2},
        "potential": {"kind": "constant_drift", "a": 0.5},
        "n_range": {"start": 4, "stop": 24, "step": 4},
        "scales": {"k": [0, 1]},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestEstimate:
    def test_csv_schema_and_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert tuple(rows[0]) == CSV_HEADER
        body = rows[1:]
        assert all(len(r) == len(CSV_HEADER) for r in body)
        sample = [r for r in body if r[3] and r[5] == ""]
        for r in sample:
            assert r[0] == "full_shift(2)"
            assert r[1] == "drift(0.5)"
            assert r[8] in ("true", "false")
            # repr floats round-trip
            assert repr(float(r[6])) == r[6]
        k0_sep = [r for r in sample
                  if r[2] == "3" and math.isclose(float(r[4]), 2.0 ** 0 * (1 - 1e-6))]
        looked = {int(r[3]): float(r[6]) for r in k0_sep}
        assert looked[4] == pytest.approx(4 * (0.5 + math.log(2)))
        pressure = [r for r in body if r[5] != ""]
        assert pressure, "pressure rows present"
        for r in pressure:
            assert r[3] == "" and r[6] == ""

    def test_stdout_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        main(["estimate", "--config", cfg, "--out", str(out)])
        text = capsys.readouterr().out
        assert "dimension" in text
        assert "jump_bracket" in text

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["estimate", "--config", cfg, "--out", str(a)])
        main(["estimate", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_far_apart_weights_on_golden_mean(self, tmp_path):
        # the 16 alternating words with 15 ones carry the sum at n = 30
        cfg = write_config(
            tmp_path,
            system={"kind": "sft", "matrix": [[1, 1], [1, 0]]},
            potential={"kind": "symbol_weights", "table": [0, 1000]},
            n_range=[30],
            scales={"k": [0]},
        )
        out = tmp_path / "out.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        values = [float(r[6]) for r in read_rows(out)[1:] if r[6]]
        assert values == [pytest.approx(15000 + math.log(16), rel=1e-15)] * 2

    def test_metric_path_greedy_bounds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            system={"kind": "rotation", "theta": 0.3},
            potential={"kind": "zero"},
            n_range={"start": 2, "stop": 10, "step": 2},
            scales={"eps": [0.2, 0.1]},
        )
        out = tmp_path / "rot.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        body = read_rows(out)[1:]
        ests = {r[2] for r in body if r[3]}
        assert ests == {"2", "3"}

    def test_max_rows_truncates(self, tmp_path):
        cfg = write_config(tmp_path, max_rows=5)
        out = tmp_path / "trunc.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 5 + 1
        assert rows[-1][0] == "TRUNCATED"


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["estimate", "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["estimate", "--config", str(p),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"system": {"kind": "full_shift", "k": 2}}))
        assert main(["estimate", "--config", str(p),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_system_kind(self, tmp_path):
        cfg = write_config(tmp_path, system={"kind": "horocycle"})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_k_scales_rejected_for_metric_system(self, tmp_path):
        cfg = write_config(tmp_path, system={"kind": "rotation", "theta": 0.3},
                           potential={"kind": "zero"})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_k_scales_need_an_exact_shift_profile(self, tmp_path, capsys):
        # a sum of two cocycles has no shift profile; the eps path still takes it
        cocycle = {"kind": "matrix_cocycle", "mats": [[[1.0]], [[2.0]]]}
        cfg = write_config(tmp_path, potential={"kind": "sum", "terms": [cocycle, cocycle]},
                           n_range=[2, 4], scales={"k": [0]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no locally constant structure" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("option", [
        {"n_range": ["a"]},
        {"scales": {"k": ["x"]}},
        {"s_grid": ["a"]},
        {"s_grid": {"start": "x", "stop": 2, "steps": 3}},
        {"n_range": {"start": 1, "stop": 5, "step": 0}},
    ], ids=repr)
    def test_malformed_numbers_are_config_errors(self, tmp_path, capsys, option):
        cfg = write_config(tmp_path, **option)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("system", [{"kind": "full_shift", "k": 2},
                                        {"kind": "rotation", "theta": 0.3}], ids=repr)
    @pytest.mark.parametrize("raw_eps", ["1e400", '"inf"'])
    def test_infinite_eps_is_a_config_error(self, tmp_path, capsys, system, raw_eps):
        cfg = write_config(tmp_path, system=system, potential={"kind": "zero"},
                           scales={"eps": ["EPS"]})
        with open(cfg) as f:
            text = f.read().replace('"EPS"', raw_eps)
        with open(cfg, "w") as f:
            f.write(text)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: eps scales must be positive and finite\n"

    @pytest.mark.parametrize("option", [
        {"n_range": [4, 4, 8, 12, 16]},
        {"scales": {"k": [0, 0]}},
        {"scales": {"eps": [0.2, 0.2]}},
        {"scales": {"k": [1, True]}},
        {"scales": {"k": [2, 2.5]}},
    ], ids=repr)
    def test_repeated_entries_are_config_errors(self, tmp_path, capsys, option):
        cfg = write_config(tmp_path, **option)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("system, potential", [
        ({"kind": "full_shift", "k": math.inf}, {"kind": "zero"}),
        ({"kind": "sft", "matrix": [[1, math.inf], [1, 0]]}, {"kind": "zero"}),
        ({"kind": "rotation", "theta": "nan"}, {"kind": "zero"}),
        ({"kind": "contraction", "fixed": "nan"}, {"kind": "zero"}),
        ({"kind": "full_shift", "k": 2}, {"kind": "constant_drift", "a": "inf"}),
        ({"kind": "full_shift", "k": 2}, {"kind": "symbol_weights", "table": [0.1, "inf"]}),
        ({"kind": "full_shift", "k": 2}, {"kind": "scale", "lam": -math.inf,
                                          "inner": {"kind": "zero"}}),
        ({"kind": "full_shift", "k": 2}, {"kind": "matrix_cocycle",
                                          "mats": [[[math.inf]], [[1.0]]]}),
    ], ids=repr)
    def test_non_finite_spec_numbers_are_config_errors(self, tmp_path, capsys,
                                                         system, potential):
        # json writes math.inf as Infinity, which reads back as 1e400 does
        cfg = write_config(tmp_path, system=system, potential=potential,
                           n_range=[2, 3, 4, 5], scales={"eps": [0.2]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and err.count("\n") == 1

    @pytest.mark.parametrize("overrides", [
        {"system": {"kind": "full_shift", "k": 2.5}},
        {"system": {"kind": "full_shift", "k": True}},
        {"system": {"kind": "sft", "matrix": [[1, 1], [1, 0.5]]}},
        {"system": {"kind": "sft", "matrix": [[1, True], [1, 0]]}},
        {"n_range": [4, 8.7, 12, 16]},
        {"n_range": [True, 4, 8, 12]},
        {"n_range": {"start": 4, "stop": 12.5}},
        {"n_range": {"start": 4, "stop": 12, "step": True}},
        {"scales": {"k": [True]}},
        {"scales": {"k": [0, 1.5]}},
        {"budget": 2.5}, {"budget": True},
        {"max_rows": 2.5}, {"max_rows": False},
        {"estimators": [3.5]},
        {"s_grid": {"start": 0.5, "stop": 2.0, "steps": 4.5}},
        {"s_grid": {"start": 0.5, "stop": 2.0, "steps": True}},
        {"system": {"kind": "full_shift", "k": 2.5}, "n_range": [4, 8.7, 12, 16],
         "scales": {"k": [True]}},
    ], ids=repr)
    def test_integer_fields_refuse_fractions_and_booleans(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_integral_floats_read_as_integers(self, tmp_path):
        ints, floats = tmp_path / "ints.csv", tmp_path / "floats.csv"
        for number, out in ((int, ints), (float, floats)):
            cfg = write_config(tmp_path, system={"kind": "full_shift", "k": number(2)},
                               n_range=[number(n) for n in (2, 3, 4, 5)],
                               scales={"k": [number(0), number(1)]}, budget=number(1000))
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert floats.read_bytes() == ints.read_bytes()

    @pytest.mark.parametrize("kind", ["scale", "sum"])
    def test_potential_depth_is_bounded(self, tmp_path, capsys, kind):
        def nest(depth):
            pot = {"kind": "symbol_weights", "table": [0.2, -0.6]}
            for _ in range(depth):
                pot = ({"kind": "scale", "lam": 1.0, "inner": pot} if kind == "scale" else
                       {"kind": "sum", "terms": [pot, {"kind": "zero"}]})
            return pot

        for scales in ({"k": [0]}, {"eps": [0.5]}):
            cfg = write_config(tmp_path, potential=nest(MAX_POTENTIAL_DEPTH),
                               n_range=[2, 3, 4, 5], scales=scales)
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        cfg = write_config(tmp_path, potential=nest(MAX_POTENTIAL_DEPTH + 1))
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: potential nests sum and scale over {MAX_POTENTIAL_DEPTH} deep\n")

    def test_a_wide_sum_counts_as_deep(self, tmp_path, capsys):
        # k terms fold left into k - 1 nested sums
        term = {"kind": "constant_drift", "a": 0.0}
        for terms, code in ((MAX_POTENTIAL_DEPTH + 1, 0), (MAX_POTENTIAL_DEPTH + 2, 2)):
            cfg = write_config(tmp_path, potential={"kind": "sum", "terms": [term] * terms},
                               n_range=[2, 3, 4, 5])
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == code
        assert capsys.readouterr().err.count("\n") == 1

    def test_config_too_deep_to_read(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        text = json.dumps({"system": {"kind": "full_shift", "k": 2}, "potential": "@",
                           "n_range": [2, 3, 4, 5], "scales": {"k": [0]}})
        path.write_text(text.replace('"@"', '{"kind": "scale", "lam": 1.0, "inner": ' * 5000
                                     + '{"kind": "zero"}' + "}" * 5000))
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "error: config nests too deeply to read\n"

    def test_cover_estimators_rejected_on_metric_path(self, tmp_path):
        cfg = write_config(tmp_path, system={"kind": "rotation", "theta": 0.3},
                           potential={"kind": "zero"},
                           scales={"eps": [0.2]}, estimators=[1, 4])
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("scales", [{"k": [0]}, {"eps": [0.2]}], ids=["k", "eps"])
    @pytest.mark.parametrize("option", [
        {"estimators": [1]}, {"estimators": [4]}, {"estimators": [7]},
        {"estimators": []}, {"estimators": 3}, {"budget": "abc"}, {"budget": 0},
        {"budget": None},
        {"max_rows": "x"}, {"max_rows": -1}, {"window_frac": 0},
        {"window_frac": 1.5}, {"window_frac": "half"}, {"seed": 3},
    ], ids=repr)
    def test_bad_option_is_config_error(self, tmp_path, capsys, scales, option):
        cfg = write_config(tmp_path, system={"kind": "full_shift", "k": 2},
                           n_range=[2, 3, 4, 5], scales=scales, **option)
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
        assert main(["sweep", "--config", cfg, "--s-min", "0.5", "--s-max", "1.0",
                     "--steps", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("scales", [{"k": [0, 1]}, {"eps": [0.2]}], ids=["k", "eps"])
    def test_estimators_filter_both_paths(self, tmp_path, scales):
        cfg = write_config(tmp_path, n_range=[2, 3, 4, 5], scales=scales, estimators=[3])
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert {r[2] for r in read_rows(out)[1:]} == {"3"}

    @pytest.mark.parametrize("scales", [{"k": [0, 1]}, {"eps": [0.2]}], ids=["k", "eps"])
    def test_repeated_estimator_counts_once(self, tmp_path, scales):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        for estimators, out in (([3, 2], once), ([3, 3, 2], twice)):
            cfg = write_config(tmp_path, n_range=[2, 3, 4, 5], scales=scales,
                               estimators=estimators)
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_eps_tables_follow_estimator_order(self, tmp_path):
        cfg = write_config(tmp_path, n_range=[2, 3, 4, 5], scales={"eps": [0.2]},
                           estimators=[2, 3])
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        sample_ests = [r[2] for r in read_rows(out)[1:] if r[3]]
        assert sample_ests == ["2"] * 4 + ["3"] * 4


def printed_estimates(text):
    """{estimator: (dimension, (bracket low, bracket high))} from estimate's stdout."""
    dims = {int(e): float(v) for e, v in re.findall(r"estimator=(\d) dimension=(\S+)", text)}
    brackets = {int(e): (float(lo), float(hi))
                for e, lo, hi in re.findall(r"estimator=(\d) jump_bracket=\[(\S+), (\S+)\]", text)}
    return {e: (dims[e], brackets[e]) for e in brackets}


class TestSinglePath:
    @pytest.mark.parametrize("system, ns, scales", [
        ({"kind": "full_shift", "k": 3}, range(10, 201, 10), {"k": [0, 1, 2]}),
        ({"kind": "sft", "matrix": [[1, 1], [1, 0]]}, range(10, 201, 10), {"k": [0, 1]}),
        ({"kind": "rotation", "theta": 0.3}, range(2, 41, 2), {"eps": [0.2, 0.1, 0.05]}),
    ], ids=["full_shift(3)", "golden_mean", "rotation(0.3)"])
    def test_entropy_dimension_is_the_zero_potential_estimate(self, tmp_path, capsys,
                                                              system, ns, scales):
        cfg = write_config(tmp_path, system=system, potential={"kind": "zero"},
                           n_range=list(ns), scales=scales, estimators=[3], budget=4096)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        printed, _ = printed_estimates(capsys.readouterr().out)[3]
        [scale_list] = scales.values()
        _, est = entropy_dimension(build_system(system), ns, scale_list, budget=4096)
        assert est.s0_hat == printed

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_estimate_inside_jump_bracket(self, tmp_path, capsys, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOLDEN_CONFIGS[name]))
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        estimates = printed_estimates(capsys.readouterr().out)
        assert sorted(estimates) == [2, 3]
        for s0, (lo, hi) in estimates.values():
            assert lo <= s0 <= hi


class TestBudget:
    def test_exhausted_budget_exits_three(self, tmp_path):
        # shifts refuse to silently thin their candidate words
        cfg = write_config(
            tmp_path,
            potential={"kind": "zero"},
            n_range={"start": 30, "stop": 34, "step": 2},
            scales={"eps": [0.5]},
            budget=1000,
        )
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_enumeration_cap_exits_three(self, tmp_path, capsys):
        # a scaled cocycle is enumerated; 2^30 words exceed the fallback's cap
        cfg = write_config(
            tmp_path,
            potential={"kind": "scale", "lam": 0.5,
                       "inner": {"kind": "matrix_cocycle", "mats": [[[1.0]], [[2.0]]]}},
            n_range=[30],
            scales={"k": [0]},
        )
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and "exceeds cap" in err
        assert err.count("\n") == 1

    def test_enumeration_cap_at_huge_length_exits_three(self, tmp_path, capsys):
        # 2^20000 words: the message names the length, not the count
        cfg = write_config(
            tmp_path,
            potential={"kind": "scale", "lam": 0.5,
                       "inner": {"kind": "matrix_cocycle", "mats": [[[1.0]], [[2.0]]]}},
            n_range=[20000],
            scales={"k": [0]},
        )
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err == ("budget exceeded: enumeration fallback over the words of length "
                       "20000 exceeds cap 4194304\n")

    @pytest.mark.parametrize("system, potential", [
        ({"kind": "full_shift", "k": 257}, {"kind": "zero"}),
        ({"kind": "full_shift", "k": 2},
         {"kind": "matrix_cocycle", "mats": [[[1.0] * 129] * 129] * 2}),
    ], ids=["257 symbols", "2 x 129 cocycle"])
    def test_transfer_state_cap_exits_three(self, tmp_path, capsys, system, potential):
        cfg = write_config(tmp_path, system=system, potential=potential,
                           n_range=[2, 3, 4, 5], scales={"k": [0]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and "more than 256 states" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [10**12, 10**30])
    def test_orbit_array_over_budget_exits_three(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, system={"kind": "rotation", "theta": 0.3},
                           potential={"kind": "zero"}, n_range=[n], scales={"eps": [0.1]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: orbit array for 20 points")
        assert err.count("\n") == 1

    def test_doubling_past_float_range_caps_its_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, system={"kind": "doubling"}, potential={"kind": "zero"},
                           n_range=[1026, 1027], scales={"eps": [0.1]}, budget=50)
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert {r[3] for r in read_rows(out)[1:] if r[3]} == {"1026", "1027"}

    def test_distance_matrix_over_budget_exits_three(self, tmp_path, capsys):
        # 40960 grid points would need a 13 GB Bowen distance matrix
        cfg = write_config(tmp_path, system={"kind": "doubling"}, potential={"kind": "zero"},
                           n_range=[12], scales={"eps": [0.1]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and "40960 points" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("system, n, eps, points", [
        ({"kind": "doubling"}, 1030, 0.1, 2_000_000),
        ({"kind": "full_shift", "k": 2}, 18, 0.5, 2**20),
        ({"kind": "contraction", "c": 0.5}, 3, 1e-4, 20_001),
    ], ids=["doubling", "full_shift", "contraction"])
    def test_distance_budget_exits_before_any_point_is_built(
            self, tmp_path, capsys, monkeypatch, system, n, eps, points):
        def listed(*args, **kwargs):
            raise AssertionError("candidate points were built")

        monkeypatch.setattr(systems, "real", listed)
        monkeypatch.setattr(systems.ShiftSystem, "admissible_words", listed)
        cfg = write_config(tmp_path, system=system, potential={"kind": "zero"},
                           n_range=[n], scales={"eps": [eps]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == (
            f"budget exceeded: Bowen distance matrix for {points} points needs "
            f"{8 * points**2} bytes, over the {systems.ARRAY_BUDGET_BYTES}-byte budget\n")

    def test_circle_systems_cap_instead(self, tmp_path):
        # the circle path thins its grid and flags the rows, exit stays 0
        cfg = write_config(
            tmp_path,
            system={"kind": "rotation", "theta": 0.3},
            potential={"kind": "zero"},
            n_range={"start": 2, "stop": 4, "step": 2},
            scales={"eps": [1e-4]},
            budget=50,
        )
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "thm35", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "thm35" in out and "1/1 checks passed" in out

    def test_report_file(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--suite", "thm31", "--out", str(out)]) == 0
        assert "thm31" in out.read_text()

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "thm99"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSweep:
    def test_rows_cover_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--s-min", "0.5", "--s-max", "1.5",
                     "--steps", "5", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert tuple(rows[0]) == CSV_HEADER
        body = rows[1:]
        s_vals = sorted({float(r[5]) for r in body})
        assert s_vals == pytest.approx([0.5, 0.75, 1.0, 1.25, 1.5])
        for r in body:
            assert r[3] == "" and r[6] == ""

    def test_bad_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--s-min", "1.0", "--s-max", "0.5",
                     "--steps", "3", "--out", str(tmp_path / "s.csv")]) == 2


class TestOracle:
    def test_sandwich_holds(self, capsys):
        assert main(["oracle", "--max-points", "10", "--trials", "20",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "trials" in out

    def test_point_cap(self, capsys):
        assert main(["oracle", "--max-points", "21"]) == 2
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        args = ["oracle", "--max-points", "8", "--trials", "10", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
