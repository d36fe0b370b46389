"""Command line contract: CSV schema, exit codes, determinism."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest
from oneshot import admissible_words
from test_config_mutations import CHILD_ADDRESS_LIMIT, bench_workloads
from test_golden import CONFIGS as GOLDEN_CONFIGS

import pdim
from pdim import cli, systems
from pdim.cli import CSV_HEADER, MAX_POTENTIAL_DEPTH, build_potential, build_system, main
from pdim.dimension import entropy_dimension, growth_tables
from pdim.logsum import logsumexp


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


# a scaled cocycle enumerates words only when its matrices are at least 2 x 2
COCYCLE_2X2 = {"kind": "matrix_cocycle",
               "mats": [[[2.0, 1.0], [0.5, 1.0]], [[3.0, 0.2], [1.0, 1.5]]]}


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# runs ``pdim.cli.main`` on each argv list read from stdin under a soft
# address-space limit, so an over-allocation fails there instead of taking
# the machine's memory; prints [exit code or exception, stderr] per run and
# the child's peak RSS in MB
CHILD = r"""
import contextlib, io, json, resource, sys

_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))

from pdim.cli import main

results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException as e:  # what the command line shows as a traceback
        code = f"{type(e).__name__}: {e}"[:200]
    results.append([code, err.getvalue()])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
json.dump({"results": results, "peak_mb": peak_mb}, sys.stdout)
"""


def run_child(argvs: list) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdim.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(CHILD_ADDRESS_LIMIT)],
        input=json.dumps(argvs), env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout)


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

    @pytest.mark.parametrize("system, potential", [
        ({"kind": "full_shift", "k": 3, "kk": 2}, {"kind": "zero"}),
        ({"kind": "sft", "matrix": [[1, 1], [1, 0]], "matrx": [[1]]}, {"kind": "zero"}),
        ({"kind": "doubling", "theta": 0.3}, {"kind": "zero"}),
        ({"kind": "rotation", "thetta": 0.3}, {"kind": "zero"}),
        ({"kind": "contraction", "c": 0.5, "fixd": 0.2}, {"kind": "zero"}),
        ({"kind": "full_shift", "k": 2}, {"kind": "zero", "a": 0.5}),
        ({"kind": "full_shift", "k": 2}, {"kind": "constant_drift", "a": 0.5, "A": 1.0}),
        ({"kind": "full_shift", "k": 2},
         {"kind": "symbol_weights", "table": [0.1, 0.2], "tabel": [0.3, 0.4]}),
        ({"kind": "doubling"}, {"kind": "birkhoff", "fn": "x", "lo": 0.2}),
        ({"kind": "doubling"}, {"kind": "birkhoff", "lo": 0.2, "hi": 0.5}),
        ({"kind": "doubling"},
         {"kind": "birkhoff", "fn": "indicator", "lo": 0.1, "hi": 0.5, "high": 0.6}),
        ({"kind": "full_shift", "k": 2},
         {"kind": "matrix_cocycle", "mats": [[[1.0]], [[2.0]]], "mat": [[[3.0]]]}),
        ({"kind": "full_shift", "k": 2},
         {"kind": "sum", "terms": [{"kind": "zero"}], "term": [{"kind": "zero"}]}),
        ({"kind": "full_shift", "k": 2},
         {"kind": "scale", "lam": 2.0, "inner": {"kind": "zero"}, "lamda": 1.0}),
        ({"kind": "full_shift", "k": 2},
         {"kind": "scale", "lam": 2.0, "inner": {"kind": "constant_drift", "a": 0.1, "b": 1}}),
    ], ids=repr)
    def test_keys_a_kind_does_not_read_are_config_errors(self, tmp_path, capsys,
                                                         system, potential):
        # each spec ran with the misspelled key dropped and exit 0
        cfg = write_config(tmp_path, system=system, potential=potential,
                           n_range=[2, 3, 4, 5], scales={"eps": [0.2]})
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not read" in err and err.count("\n") == 1

    @pytest.mark.parametrize("ks", [[1100, 1200], [1080], [0, 1056]], ids=repr)
    def test_scale_index_past_float_range(self, tmp_path, capsys, ks):
        # such k once gave scale 0.0, or one not below 2^-k; two of them
        # merged their tables and raised in the fit
        cfg = write_config(tmp_path, scales={"k": ks})
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: scale indices must be in [0, 1055]\n"
        assert not out.exists()
        cfg = write_config(tmp_path, scales={"k": [1055]}, n_range=[1, 2, 3, 4])
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert 0.0 < min(float(r[4]) for r in read_rows(out)[1:] if r[4]) < 2.0 ** -1055

    def test_one_point_fit_window(self, tmp_path, capsys):
        # a window of one sample once printed dimension=0.0 from a NaN slope;
        # sweep reads no fit and keeps taking it
        cfg = write_config(tmp_path, window_frac=0.1, scales={"k": [0]})
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window_frac: ") and err.count("\n") == 1
        assert not out.exists()
        assert main(["sweep", "--config", cfg, "--s-min", "0.5", "--s-max", "1.5",
                     "--steps", "3", "--out", str(out)]) == 0

    def test_k_scales_rejected_for_metric_system(self, tmp_path):
        cfg = write_config(tmp_path, system={"kind": "rotation", "theta": 0.3},
                           potential={"kind": "zero"})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_k_scales_enumerate_a_scaled_cocycle_sum(self, tmp_path, capsys):
        # a scaled 2 x 2 cocycle has a norm power, so its sum with a window
        # enumerates words, exactly, under ENUMERATION_CAP
        scaled = {"kind": "scale", "lam": 0.5, "inner": COCYCLE_2X2}
        cfg = write_config(tmp_path, potential={"kind": "sum", "terms": [
                               scaled, {"kind": "symbol_weights", "table": [0.1, 0.2]}]},
                           n_range=[2, 3, 4, 5], scales={"k": [0]})
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [r for r in read_rows(out)[1:] if r[3] in ("2", "3")]
        assert len(rows) == 4 and {r[8] for r in rows} == {"true"}
        # per-word products of the matrices, summed outside pdim
        want = {"2": 3.002396812962586, "3": 4.35529581698792}
        for r in rows:
            assert float(r[6]) == pytest.approx(want[r[3]], rel=1e-12, abs=0.0)

    def test_k_scales_sum_two_cocycles_exactly(self, tmp_path, capsys):
        # the sum's window is the Kronecker product of the two 2 x 2 chains
        other = {"kind": "matrix_cocycle", "mats": [[[1.0, 0.3], [2.0, 0.7]],
                                                    [[0.4, 1.1], [0.9, 2.5]]]}
        spec = {"kind": "sum", "terms": [COCYCLE_2X2, other]}
        cfg = write_config(tmp_path, potential=spec, n_range=[1, 2, 3, 4, 5, 6],
                           scales={"k": [2]})
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        system = build_system({"kind": "full_shift", "k": 2})
        pot = build_potential(spec, system)
        rows = [r for r in read_rows(out)[1:] if r[3]]
        assert len(rows) == 12 and {r[8] for r in rows} == {"true"}
        for r in rows:
            n = int(r[3])
            words = [system.representative(w) for w in admissible_words(system, n + 2)]
            assert float(r[6]) == pytest.approx(logsumexp(pot.eval_array(n, words)),
                                                rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("n_range, last", [
        ([10**20, 10**20 + 1, 10**20 + 2, 10**20 + 3], 10**20 + 3),
        ({"start": 2**53 - 1, "stop": 2**53 + 1}, 2**53 + 1),
    ], ids=["list", "range"])
    def test_n_past_2_to_the_53_is_a_config_error(self, tmp_path, capsys, n_range, last):
        # the growth tables read n as a float, where adjacent n past 2^53 compare equal
        cfg = write_config(tmp_path, n_range=n_range, scales={"k": [0]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n_range entries must be at most 2^53, got {last}\n"

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

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=repr)
    @pytest.mark.parametrize("overrides", [
        {"system": {"kind": "rotation", "theta": "@"}},
        {"system": {"kind": "contraction", "c": "@"}},
        {"system": {"kind": "contraction", "fixed": "@"}},
        {"potential": {"kind": "constant_drift", "a": "@"}},
        {"potential": {"kind": "symbol_weights", "table": [0.1, "@"]}},
        {"potential": {"kind": "matrix_cocycle", "mats": [[["@"]], [[1.0]]]}},
        {"system": {"kind": "doubling"},
         "potential": {"kind": "birkhoff", "fn": "indicator", "lo": "@", "hi": 0.5}},
        {"system": {"kind": "doubling"},
         "potential": {"kind": "birkhoff", "fn": "indicator", "lo": 0.1, "hi": "@"}},
        {"potential": {"kind": "scale", "lam": "@", "inner": {"kind": "zero"}}},
        {"scales": {"eps": ["@"]}},
        {"s_grid": [0.5, "@"]},
        {"s_grid": {"start": "@", "stop": 2.0, "steps": 3}},
        {"s_grid": {"start": 0.5, "stop": "@", "steps": 3}},
        {"window_frac": "@"},
    ], ids=repr)
    def test_float_fields_refuse_booleans_and_strings(self, tmp_path, capsys, overrides, bad):
        # "@" marks the field; true once read as 1.0 and "0.5" as 0.5, with exit 0
        text = json.dumps(overrides).replace('"@"', json.dumps(bad))
        cfg = write_config(tmp_path, **json.loads(text))
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", [
        {"s_grid": [math.nan, 1.0]},
        {"s_grid": [1.0, math.inf]},
        {"s_grid": {"start": 0.5, "stop": math.inf, "steps": 3}},
        {"window_frac": 10**400},  # past float range: once a traceback
    ], ids=["nan-s", "inf-s", "inf-stop", "huge-window_frac"])
    def test_non_finite_options_are_config_errors(self, tmp_path, capsys, option):
        cfg = write_config(tmp_path, **option)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["estimate"], ["sweep", "--s-min", "0.5", "--s-max", "2", "--steps", "3"]], ids=repr)
    @pytest.mark.parametrize("overrides", [
        {"potential": {"kind": "constant_drift", "a": 1e308}, "scales": {"k": [1]}},
        {"potential": {"kind": "symbol_weights", "table": [0.1, -1e308]}},
        {"system": {"kind": "rotation", "theta": 0.3}, "scales": {"eps": [0.2]},
         "potential": {"kind": "scale", "lam": -1e308,
                       "inner": {"kind": "birkhoff", "fn": "cos2pi"}}},
        # a drift added to a cocycle's log-matrices, past float range only in the sums
        {"potential": {"kind": "sum", "terms": [
            {"kind": "constant_drift", "a": 1e308}, COCYCLE_2X2]}},
    ], ids=["drift", "table", "scaled-cos", "cocycle-drift"])
    def test_weights_past_float_range_are_config_errors(self, tmp_path, capsys,
                                                        command, overrides):
        # these once exited 0 with numpy warnings and inf or nan in the CSV
        cfg = write_config(tmp_path, **overrides)
        argv = command + ["--config", cfg, "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a weight or log value leaves float range")
        assert err.count("\n") == 1

    def test_drift_added_to_a_cocycle_stays_in_log_space(self, tmp_path):
        # folded into the matrices as e^800 this once left float range; the
        # steps now add in log space, so the table is the cocycle's plus 800 n
        cocycle = {"kind": "matrix_cocycle", "mats": [[[1.0]], [[2.0]]]}
        tables = []
        for name, potential in (("sum", {"kind": "sum", "terms": [
                {"kind": "constant_drift", "a": 800}, cocycle]}), ("cocycle", cocycle)):
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, f"{name}.json", potential=potential)
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
            rows = read_rows(out)
            col = rows[0].index("log_value")
            tables.append([(int(r[3]), float(r[col])) for r in rows[1:] if r[col]])
        total, alone = tables
        assert [n for n, _ in total] == [n for n, _ in alone] and len(total) == 24
        for (n, got), (_, base) in zip(total, alone):
            assert got == pytest.approx(800 * n + base, rel=1e-12, abs=0.0)

    def test_float_fields_read_ints_as_floats(self, tmp_path):
        ints, floats = tmp_path / "ints.csv", tmp_path / "floats.csv"
        for number, out in ((int, ints), (float, floats)):
            cfg = write_config(tmp_path, potential={"kind": "constant_drift", "a": number(1)},
                               s_grid=[number(1), number(2)], window_frac=number(1))
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert floats.read_bytes() == ints.read_bytes()

    def test_sft_matrix_entries_are_zero_or_one(self, tmp_path, capsys):
        # a 2 once read as an allowed transition: the golden mean, with exit 0
        cfg = write_config(tmp_path, system={"kind": "sft", "matrix": [[2, 1], [1, 0]]})
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad system spec: transition matrix entries must be 0 or 1\n"

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

    @pytest.mark.parametrize("scales", [{"k": [0]}, {"eps": [0.2]}], ids=["k", "eps"])
    @pytest.mark.parametrize("value", [1, 4, 7])
    def test_estimator_other_than_2_or_3_message(self, tmp_path, capsys, scales, value):
        cfg = write_config(tmp_path, system={"kind": "full_shift", "k": 2},
                           n_range=[2, 3, 4, 5], scales=scales, estimators=[value])
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
        assert main(["sweep", "--config", cfg, "--s-min", "0.5", "--s-max", "1.0",
                     "--steps", "2", "--out", str(out)]) == 2
        message = (f"error: estimators must list 2 (spanning) and/or 3 (separated), got [{value}]; "
                   "the cover estimators 1 and 4 are not computed\n")
        assert capsys.readouterr().err == message * 2

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


class TestGridsBuildNoPoints:
    @pytest.mark.parametrize("seed", [1, 29])
    def test_metric_greedy_estimates_build_no_point_objects(self, tmp_path, monkeypatch,
                                                            capsys, seed):
        # grids, weights, relations and greedy bounds all read coordinate arrays
        made = []
        for cls in (systems.RealPoint, systems.Word):
            def counting_init(self, *args, init=cls.__init__, **kwargs):
                made.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        for name, cfg in bench_workloads().metric_greedy_configs(seed).items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        capsys.readouterr()
        assert made == []
        systems.real(0.5), systems.FullShift(2).representative((1,))
        assert made == ["RealPoint", "Word"]


# the eps-path configs the CI step runs at candidate counts the benchmark leaves out
CI_EPS_CONFIGS = {
    "words2": {"system": {"kind": "full_shift", "k": 2},
               "potential": {"kind": "symbol_weights", "table": [0.3, -0.5]},
               "n_range": [10], "scales": {"eps": [0.25]}},
    "doubling": {"system": {"kind": "doubling"}, "potential": {"kind": "birkhoff", "fn": "x"},
                 "n_range": [10], "scales": {"eps": [0.1]}},
    "words3": {"system": {"kind": "full_shift", "k": 3},
               "potential": {"kind": "symbol_weights", "table": [0.5, -0.5, 0.1]},
               "n_range": [5], "scales": {"eps": [0.25]}},
}


class TestGreedySpanningLoop:
    @pytest.mark.parametrize("source", ["metric-greedy seed 1", "metric-greedy seed 29", "ci"])
    def test_every_call_takes_the_level_loop(self, tmp_path, capsys, loop_calls, source):
        # every closed ball of these relations holds at most 8 points
        if source == "ci":
            configs = CI_EPS_CONFIGS
        else:
            configs = bench_workloads().metric_greedy_configs(int(source.split()[-1]))
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        capsys.readouterr()
        assert len(loop_calls) >= len(configs)
        assert set(loop_calls) == {"_greedy_spanning_levels"}


class TestBudget:
    def test_oversized_grids_exit_three(self, tmp_path):
        # each grid list takes 40 bytes per entry, 10 GB or more before any
        # check ran; at 250000000 entries an 8-byte-per-entry check passed
        # them and building the list raised MemoryError
        budget = systems.ARRAY_BUDGET_BYTES
        cfg = write_config(tmp_path)
        argvs, expected = [], []
        for steps, stop in ((1000000000, 1000000000000), (250000000, 250000000)):
            argvs += [
                ["sweep", "--config", cfg, "--s-min", "0.5", "--s-max", "2",
                 "--steps", str(steps), "--out", str(tmp_path / "s.csv")],
                ["estimate", "--config", write_config(
                    tmp_path, f"grid{steps}.json",
                    s_grid={"start": 0.5, "stop": 2, "steps": steps}),
                 "--out", str(tmp_path / "g.csv")],
                ["estimate", "--config", write_config(
                    tmp_path, f"range{stop}.json", n_range={"start": 1, "stop": stop}),
                 "--out", str(tmp_path / "r.csv")],
            ]
            expected += [
                [3, f"budget exceeded: s grid of {steps} steps needs {40 * steps} bytes, "
                    f"over the {budget}-byte budget\n"],
                [3, f"budget exceeded: s_grid of {steps} steps needs {40 * steps} bytes, "
                    f"over the {budget}-byte budget\n"],
                [3, f"budget exceeded: n_range of {stop} entries needs {40 * stop} "
                    f"bytes, over the {budget}-byte budget\n"],
            ]
        assert run_child(argvs)["results"] == expected
        assert not any(tmp_path.glob("*.csv"))

    def test_large_word_instance_in_small_memory(self, tmp_path):
        # full_shift(2) at n = 10, eps = 0.25 has m = 8192 candidates; the CSV
        # hash was taken when the eps path still built the m x m distance
        # matrix, which peaked at 616 MB
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path, potential=None, n_range=[10], scales={"eps": [0.25]})
        report = run_child([["estimate", "--config", cfg, "--out", str(out)]])
        assert report["results"] == [[0, ""]]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "d88ae65a5cf1e2c87262da4bd0b60ce000adcbb63103df32f9f292a28cd232fe"
        assert report["peak_mb"] < 200

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
            potential={"kind": "scale", "lam": 0.5, "inner": COCYCLE_2X2},
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
            potential={"kind": "scale", "lam": 0.5, "inner": COCYCLE_2X2},
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
        # 129 symbols fit the cap; only the matrix dim takes the states past it
        ({"kind": "full_shift", "k": 129},
         {"kind": "sum", "terms": [{"kind": "symbol_weights", "table": [0.5] * 129},
                                   {"kind": "matrix_cocycle", "mats": [[[1.0] * 2] * 2] * 129}]}),
        # each cocycle fits the cap; their sum's 16 x 17 Kronecker dim does not
        ({"kind": "full_shift", "k": 2},
         {"kind": "sum", "terms": [{"kind": "matrix_cocycle", "mats": [[[1.0] * 16] * 16] * 2},
                                   {"kind": "matrix_cocycle", "mats": [[[1.0] * 17] * 17] * 2}]}),
    ], ids=["257 symbols", "2 x 129 cocycle", "129 x 2 cocycle", "2 x 16 x 17 cocycle sum"])
    def test_transfer_state_cap_exits_three(self, tmp_path, capsys, monkeypatch,
                                            system, potential):
        def boom(*args, **kwargs):
            raise AssertionError("transfer states were listed before the cap check")

        monkeypatch.setattr(systems.FullShift, "word_rows", boom)
        cfg = write_config(tmp_path, system=system, potential=potential,
                           n_range=[2, 3, 4, 5], scales={"k": [0]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and "more than 256 states" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [10**12, 2**53])  # n past 2^53 is a config error
    def test_orbit_array_over_budget_exits_three(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, system={"kind": "rotation", "theta": 0.3},
                           potential={"kind": "zero"}, n_range=[n], scales={"eps": [0.1]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: orbit array for 20 points")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("system, n_range, eps, message", [
        ({"kind": "contraction", "c": 0.5}, [200, 201], 5e-324,
         "orbit array for 2000001 points over 200 steps"),
        ({"kind": "full_shift", "k": 2}, [2, 3], 5e-324, "admissible words of length 1077 exceed"),
        ({"kind": "full_shift", "k": 2}, [2, 3], 1e-310, "admissible words of length 1033 exceed"),
    ], ids=["contraction", "shift-5e-324", "shift-1e-310"])
    def test_subnormal_eps_exits_three(self, tmp_path, capsys, system, n_range, eps, message):
        # the contraction's mesh eps / 2 underflows to 0, so its grid takes
        # the candidate budget's 2000001 points, whose orbit over 200 steps is
        # over budget; a shift needs 1 + ceil(log2(1/eps)) more symbols, read
        # from eps's exponent as 1/eps overflows
        cfg = write_config(tmp_path, system=system, potential={"kind": "zero"},
                           n_range=n_range, scales={"eps": [eps]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"budget exceeded: {message}") and err.count("\n") == 1

    def test_doubling_past_float_range_caps_its_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, system={"kind": "doubling"}, potential={"kind": "zero"},
                           n_range=[1026, 1027], scales={"eps": [0.1]}, budget=50)
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: 2 candidate grids capped at the budget of 50 points are coarser than "
            "their scale (first n=1026 eps=0.1); their samples are not bounds\n")
        assert {r[3] for r in read_rows(out)[1:] if r[3]} == {"1026", "1027"}

    def test_subnormal_eps_contraction_warns_its_grid_is_uncertified(self, tmp_path, capsys):
        # at n = 2, 3 the grid of 2000001 points that the underflowed mesh
        # leaves runs; its samples bound nothing, and one stderr line says so
        cfg = write_config(tmp_path, system={"kind": "contraction", "c": 0.5},
                           potential={"kind": "zero"}, n_range=[2, 3], scales={"eps": [5e-324]})
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: 2 candidate grids capped at the budget of 2000000 points are coarser "
            "than their scale (first n=2 eps=5e-324); their samples are not bounds\n")
        assert {r[3] for r in read_rows(out)[1:] if r[3]} == {"2", "3"}

    def test_doubling_past_16384_points_runs(self, tmp_path, capsys):
        # 40960 grid points, past m = 16384, where all pairs together would
        # pass the pair budget: the sweep steps only the pairs within reach
        cfg = write_config(tmp_path, system={"kind": "doubling"},
                           potential={"kind": "birkhoff", "fn": "x"},
                           n_range=[12], scales={"eps": [0.1]})
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        conf = cli.load_config(cfg)
        system = build_system(conf["system"])
        pot = build_potential(conf["potential"], system)
        assert len(system.candidate_set(12, 0.1).points) == 40960
        tables = growth_tables(system, pot, [12], "eps", [0.1], conf["estimators"], conf["budget"])
        want = [[system.label, pot.label, str(int(s.estimator)), str(s.n), repr(float(s.scale)),
                 "", repr(float(s.log_value)), "", str(bool(s.exact)).lower()]
                for table in tables for s in table.samples]
        assert len(want) == len(conf["estimators"])
        assert [r for r in read_rows(out)[1:] if r[3]] == want

    @pytest.mark.parametrize("system, n, eps, pairs, points", [
        ({"kind": "doubling"}, 14, 0.45, 596525056, 36409),
        ({"kind": "full_shift", "k": 3}, 8, 0.25, 148005315, 177147),
    ], ids=["doubling", "full_shift(3)"])
    def test_stepped_pairs_over_budget_exit_three_before_any_step(
            self, tmp_path, capsys, monkeypatch, system, n, eps, pairs, points):
        # the sweep steps the pairs in its windows: at eps = 0.45 the doubling
        # radius does not shrink, so each grid point's window holds the 16384
        # points on either side, 36409 · 16384 pairs; the 3-symbol words'
        # plane-0 keys put 1.5·10^8 pairs in the windows
        def stepped(*args, **kwargs):
            raise AssertionError("a metric call ran before the stepped-pair check")

        for cls in (systems.CircleSystem, systems.ShiftSystem):
            monkeypatch.setattr(cls, "metric_array", stepped)
        cfg = write_config(tmp_path, system=system, potential={"kind": "zero"},
                           n_range=[n], scales={"eps": [eps]})
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == (
            f"budget exceeded: Bowen walk would step {pairs} pairs of {points} points, "
            f"over the {systems.ARRAY_BUDGET_BYTES // 16}-pair budget\n")

    @pytest.mark.parametrize("system, n, eps, budget, message", [
        ({"kind": "doubling"}, 1030, 0.1, 2_000_000,
         "orbit array for 2000000 points over 1030 steps needs 16480000000 bytes, "
         f"over the {systems.ARRAY_BUDGET_BYTES}-byte budget"),
        ({"kind": "full_shift", "k": 2}, 18, 0.5, 2**20 - 1,
         "admissible words of length 20 exceed budget 1048575"),
        ({"kind": "contraction", "c": 0.5}, 10**6, 1e-4, 2_000_000,
         "orbit array for 20001 points over 1000000 steps needs 160008000000 bytes, "
         f"over the {systems.ARRAY_BUDGET_BYTES}-byte budget"),
    ], ids=["doubling", "full_shift", "contraction"])
    def test_budget_exits_before_any_point_is_built(
            self, tmp_path, capsys, monkeypatch, system, n, eps, budget, message):
        # a grid's orbit, and the words' count against the config's candidate
        # budget, are checked before any point object or word row is built
        def listed(*args, **kwargs):
            raise AssertionError("candidate points were built")

        monkeypatch.setattr(systems, "real", listed)
        monkeypatch.setattr(systems.ShiftSystem, "word_rows", listed)
        cfg = write_config(tmp_path, system=system, potential={"kind": "zero"},
                           n_range=[n], scales={"eps": [eps]}, budget=budget)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == f"budget exceeded: {message}\n"

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


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "chain", "--seed", "-1"],
    ["oracle", "--seed", "-1", "--trials", "2"],
], ids=["verify", "oracle"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    # numpy's generators take only seeds >= 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err


class TestOutputPath:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["estimate", "sweep", "verify"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, command, where):
        # both once raised a traceback with exit 1, the code of a failed check
        out = tmp_path / "no" / "x.csv" if where == "missing-dir" else tmp_path
        argv = {
            "estimate": ["estimate", "--config", write_config(tmp_path)],
            "sweep": ["sweep", "--config", write_config(tmp_path), "--s-min", "0.5",
                      "--s-max", "1.5", "--steps", "3"],
            "verify": ["verify", "--suite", "thm31"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: cannot write output: \[Errno \d+\] [^\n]+\n", captured.err)
        assert str(out) in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["estimate", "sweep", "verify"])
    def test_write_error_is_a_usage_error(self, tmp_path, capsys, command):
        # /dev/full opens but refuses the write; this once ended in a
        # traceback with exit 1, the code of a failed check
        argv = {
            "estimate": ["estimate", "--config", write_config(tmp_path)],
            "sweep": ["sweep", "--config", write_config(tmp_path), "--s-min", "0.5",
                      "--s-max", "1.5", "--steps", "3"],
            "verify": ["verify", "--suite", "thm31"],
        }[command]
        assert main(argv + ["--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: cannot write output: [Errno 28] No space left on device\n")


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

    def test_calls_in_one_process_give_the_bytes_of_each_alone(self, capsys):
        # nothing carries from one main call into the next: a usage error
        # (exit 2) and then a good call give the codes and bytes that each
        # gives when run alone, here in the reverse order
        calls = [["verify", "--suite", "thm99"], ["verify", "--suite", "thm31", "--seed", "3"],
                 ["oracle", "--max-points", "6", "--trials", "3", "--seed", "x"]]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [run(argv) for argv in calls]
        alone = [run(argv) for argv in reversed(calls)][::-1]
        assert shared == alone
        assert [code for code, _, _ in shared] == [2, 0, 2]
        assert "thm31" in shared[1][1] and "invalid choice" in shared[0][2]


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

    def test_bad_config_s_grid(self, tmp_path, capsys):
        # the flags supersede a valid s_grid, but a bad one is still a config error
        cfg = write_config(tmp_path, s_grid="x")
        assert main(["sweep", "--config", cfg, "--s-min", "0.5", "--s-max", "1.5",
                     "--steps", "3", "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: s_grid must be a list or {start, stop, steps}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("s_min, s_max", [("0.5", "inf"), ("nan", "1.0")])
    def test_non_finite_grid(self, tmp_path, capsys, s_min, s_max):
        # an infinite s-max once wrote rows of nan and inf s with exit 0
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--s-min", s_min, "--s-max", s_max,
                     "--steps", "3", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: sweep needs ")
        assert not (tmp_path / "s.csv").exists()


class TestOracle:
    def test_sandwich_holds(self, capsys):
        assert main(["oracle", "--max-points", "10", "--trials", "20",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "trials" in out

    def test_point_cap(self, capsys):
        assert main(["oracle", "--max-points", "21"]) == 2
        assert capsys.readouterr().err == "error: oracle supports at most 20 candidate points\n"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_must_be_positive(self, capsys, trials):
        assert main(["oracle", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: need max-points >= 3 and trials >= 1\n")

    @pytest.mark.parametrize("max_points", ["2", "1", "0"])
    def test_instances_need_three_points(self, capsys, max_points):
        # each instance draws 3 to max-points points; 2 once raised in numpy
        assert main(["oracle", "--max-points", max_points]) == 2
        assert capsys.readouterr().err == "error: need max-points >= 3 and trials >= 1\n"
        assert main(["oracle", "--max-points", "3", "--trials", "4"]) == 0

    def test_deterministic_output(self, capsys):
        args = ["oracle", "--max-points", "8", "--trials", "10", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_trials_are_built_in_batches(self, capsys, monkeypatch):
        # memory stays flat in --trials: make_families never gets more than
        # ORACLE_BATCH trials at once
        sizes = []
        families = cli.make_families
        monkeypatch.setattr(cli, "make_families", lambda f: sizes.append(len(f)) or families(f))
        assert main(["oracle", "--max-points", "6", "--trials", "600", "--seed", "3"]) == 0
        assert sizes == [cli.ORACLE_BATCH] * 2 + [600 - 2 * cli.ORACLE_BATCH]
        capsys.readouterr()

    def test_batch_size_leaves_the_output(self, capsys, monkeypatch):
        args = ["oracle", "--max-points", "12", "--trials", "40", "--seed", "2"]
        assert main(args) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(cli, "ORACLE_BATCH", 7)
        assert main(args) == 0
        assert capsys.readouterr().out == want
