"""Golden outputs: CSV bytes of fixed estimate configs and the verify report lines.

The hashes and lines were recorded from the scipy-based implementation; the
numpy helpers that replaced it must reproduce every byte.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import pdim
from pdim.cli import main

WORDS = {"kind": "full_shift", "k": 2}
K_SCALES = {"k": [0, 1, 2]}
K_RANGE = {"start": 4, "stop": 40, "step": 4}

CONFIGS = {
    "zero": {
        "system": WORDS, "potential": {"kind": "zero"},
        "n_range": K_RANGE, "scales": K_SCALES,
    },
    "drift-negative": {
        "system": WORDS, "potential": {"kind": "constant_drift", "a": -2.0},
        "n_range": K_RANGE, "scales": K_SCALES,
    },
    "weights-golden": {
        "system": {"kind": "sft", "matrix": [[1, 1], [1, 0]]},
        "potential": {"kind": "symbol_weights", "table": [0.4, -0.3]},
        "n_range": K_RANGE, "scales": K_SCALES,
    },
    "cocycle": {
        "system": WORDS,
        "potential": {"kind": "matrix_cocycle",
                      "mats": [[[1.0, 0.5], [0.2, 1.5]], [[0.7, 1.1], [0.3, 0.4]]]},
        "n_range": K_RANGE, "scales": K_SCALES,
    },
    "sum": {
        "system": {"kind": "full_shift", "k": 3},
        "potential": {"kind": "sum", "terms": [
            {"kind": "constant_drift", "a": 0.25},
            {"kind": "symbol_weights", "table": [0.5, -0.5, 0.1]},
        ]},
        "n_range": K_RANGE, "scales": K_SCALES,
    },
    "scale": {
        "system": WORDS,
        "potential": {"kind": "scale", "lam": 1.5,
                      "inner": {"kind": "symbol_weights", "table": [0.2, -0.6]}},
        "n_range": K_RANGE, "scales": K_SCALES,
    },
    "rotation": {
        "system": {"kind": "rotation", "theta": 0.3},
        "potential": {"kind": "birkhoff", "fn": "cos2pi"},
        "n_range": {"start": 2, "stop": 10, "step": 2}, "scales": {"eps": [0.2, 0.1]},
    },
    "doubling": {
        "system": {"kind": "doubling"},
        "potential": {"kind": "birkhoff", "fn": "x"},
        "n_range": [1, 2, 3, 4, 5], "scales": {"eps": [0.1]},
    },
}

CSV_SHA256 = {
    "zero": "123b381a06449e48d63cde2f4365dd88caf918cafbab1339f6d4543c426e57ca",
    "drift-negative": "1d0756476378443065fe936ff33d32d52890e2b665d6ecf1e232275c328287d9",
    "weights-golden": "d6bfb2b893f4bd16a5492db2739b7beee2c617f200d3ed1a2fcab232db229d20",
    "cocycle": "09cc0336b2e31dbe0bb356d437776d78c8028b70c1e0352393f6b7221ed6db35",
    "sum": "258e257681a0f945947f1868fa21d79a323a59442b94187d937d76d6c6ff2dae",
    "scale": "e29b8c083d7481d729d5813baabe2f651d650cd4591ac8094b22923f4f94bf04",
    "rotation": "2c6846adf5b575a4ec50a370746e3b112dad94e1165c3262a94a224c92245bfa",
    "doubling": "052d5ca9d8dbc89b9e72f4a64f42fba897d36ff8ca4d43a0e601ea7184f67494",
}

VERIFY_SEED_0 = [
    "chain      pass   worst_violation=4.441e-16 digest=f481070c4c86 498 inequalities",
    "prop22     pass   worst_violation=-4.266e-04 digest=a9e823f5287d 150 (n, eps) pairs",
    "thm31      pass   worst_violation=8.882e-16 digest=f96f9f7e727e 264 inequalities",
    "thm32      pass   worst_violation=-4.945e-03 digest=7a167756710f 50 exact pairs + 10 oracle instances",
    "thm33      pass   worst_violation=-1.236e-03 digest=18ca5917cd7e 1400 inequalities",
    "thm34      pass   worst_violation=9.990e-10 digest=90577f433f2c 20 oracle instances; inverse identity worst 2.22e-16",
    "thm35      pass   worst_violation=0.000e+00 digest=153dd90ab43e 36 (potential, eps, n) cases",
    "section4   pass   worst_violation=8.882e-16 digest=457f7d0380f2 drift dim 1.000; shift dim 1.000; contraction(0.5) dim 0.000; rotation(0.41421356237309515) dim 0.000",
]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimate_csv_bytes(tmp_path, name, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out.csv"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]


def test_verify_report_lines(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines() == VERIFY_SEED_0


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = "import sys, pdim.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
