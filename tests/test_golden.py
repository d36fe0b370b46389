"""Golden outputs: CSV bytes of fixed estimate configs, the verify report lines
for seeds 0 and 7, and the bits of every suite violation at those seeds.

The rotation and doubling hashes and the verify digests were recorded from
the scipy-based implementation and still hold byte for byte.  The six
shift-config hashes and the thm31 and section4 worst-violation figures were
re-pinned when the log-space repeated-squaring transfer kernel replaced the
step-by-step DP: only last digits moved, and CHANGES.md lists every change.
The thm33 violation digests were re-pinned when a coboundary's shift profile
became one step window: its word sums moved in the last digits only.  The
cocycle hash was re-pinned when a matrix cocycle became a reach-1 window of
log-matrices, whose start vector is a logsumexp of log entries: 22 fields
moved by at most 2.1e-16 relative, and CHANGES.md lists them.  The
four scale and loose configs were recorded with the all-pairs relation
kernel, before the sorted sweep.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import pdim
from pdim import theorems
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
    # greedy bounds at the metric bench scale: m = 2^(n+3) words, 1024 at n = 7
    "words-eps": {
        "system": WORDS,
        "potential": {"kind": "symbol_weights", "table": [0.3, -0.5]},
        "n_range": [2, 3, 4, 5, 6, 7], "scales": {"eps": [0.25]},
    },
}

# CSV pins past the metric bench scale.  Three n values give no s0 fit, so
# these stay out of CONFIGS, each of which the CLI tests also check for an
# estimate inside its jump bracket.
SCALE_CONFIGS = {
    # m up to 10240 grid points and 8192 words: the sorted sweep builds these
    # Bowen relations
    "doubling-scale": {
        "system": {"kind": "doubling"},
        "potential": {"kind": "birkhoff", "fn": "x"},
        "n_range": [8, 9, 10], "scales": {"eps": [0.1]},
    },
    "words-scale": {
        "system": WORDS,
        "potential": {"kind": "symbol_weights", "table": [0.3, -0.5]},
        "n_range": [8, 9, 10], "scales": {"eps": [0.25]},
    },
    # loose windows, where the radius does not shrink: the row blocks build these
    "doubling-loose": {
        "system": {"kind": "doubling"},
        "potential": {"kind": "birkhoff", "fn": "x"},
        "n_range": [7, 8, 9], "scales": {"eps": [0.3]},
    },
    "words-loose": {
        "system": WORDS,
        "potential": {"kind": "symbol_weights", "table": [0.3, -0.5]},
        "n_range": [8, 9, 10], "scales": {"eps": [1.0]},
    },
}

CSV_SHA256 = {
    "zero": "3a10400ca5c0562354616404ca781635c2d334c8b53c93fe5deae2f008398f9a",
    "drift-negative": "ce781cb13b6b2870c6b006e11587550fc5590cfaa86505a022883b2fca79c241",
    "weights-golden": "359b22cdb78e1206dd95adfc87f5af1e609a949dbcc0757a01e2bc030b70be90",
    "cocycle": "e845f09e035fc9be82a48a5f0c91266d662384ae7a62f4988b652609045669ea",
    "sum": "ec5e98f17035fd18907040aa19156f9b096edb5b0b7a9f680db7ffda24360f63",
    "scale": "c44af5f4b029b709b0c6e8eb9b1ae36290e08476a3425d1ae177fc7084e26579",
    "rotation": "2c6846adf5b575a4ec50a370746e3b112dad94e1165c3262a94a224c92245bfa",
    "doubling": "052d5ca9d8dbc89b9e72f4a64f42fba897d36ff8ca4d43a0e601ea7184f67494",
    "words-eps": "bd60de744f6d174ddc0b70aac1d0be4a77c52b543c1ee897078f3e70d3dc23d3",
    "doubling-scale": "51ac04035befb52b84a1114d866ed0b078ba2ee6d791fdaa57c6cd770305fe8a",
    "words-scale": "7baa7380fca6367d6a8c8b37b66d5c5e4a94148ce1a96bf4a90a47a0cfaf605c",
    "doubling-loose": "07d0ddb0ed61e49e2916e90dc58d8948daec0ad69bc897ac2d84f8d993bf4a9c",
    "words-loose": "afae00fe0322d76508303b93ffdc6c807d0bcf133c432f626ee581835726b917",
}

# sha256 of ``pdim oracle --max-points 20 --trials 200 --seed s`` stdout: the
# greedy and exact values of 200 random instances enter its gap figures
ORACLE_SHA256 = {
    0: "9162dc427ff22aa9d41edee0583132868858b9cbb15e0b010056a3713c8f8d35",
    1: "fc57c464a9dd5dda8314a2ced230596542797a110191477ddb535e8b6603c29f",
    2: "ed80356ca0250f978356b8d80c9315e718c69f17652071ac86c7ae2a19e9b26a",
    3: "2a05b1af7b368e273003c1a2ae2cb90e8f00b2aef27db0c42f0583814f613dbc",
}

VERIFY_SEED_0 = [
    "chain      pass   worst_violation=4.441e-16 digest=f481070c4c86 498 inequalities",
    "prop22     pass   worst_violation=-4.266e-04 digest=a9e823f5287d 150 (n, eps) pairs",
    "thm31      pass   worst_violation=1.776e-15 digest=f96f9f7e727e 264 inequalities",
    "thm32      pass   worst_violation=-4.945e-03 digest=7a167756710f 50 exact pairs + 10 oracle instances",
    "thm33      pass   worst_violation=-1.236e-03 digest=18ca5917cd7e 1400 inequalities",
    "thm34      pass   worst_violation=9.990e-10 digest=90577f433f2c 20 oracle instances; inverse identity worst 2.22e-16",
    "thm35      pass   worst_violation=0.000e+00 digest=153dd90ab43e 36 (potential, eps, n) cases",
    "section4   pass   worst_violation=4.441e-16 digest=457f7d0380f2 drift dim 1.000; shift dim 1.000; contraction(0.5) dim 0.000; rotation(0.41421356237309515) dim 0.000",
]

VERIFY_SEED_7 = [
    "chain      pass   worst_violation=4.441e-16 digest=db9a723e7328 498 inequalities",
    "prop22     pass   worst_violation=-5.779e-04 digest=87d893e4776b 150 (n, eps) pairs",
    "thm31      pass   worst_violation=1.776e-15 digest=aeed12f6c242 264 inequalities",
    "thm32      pass   worst_violation=-4.945e-03 digest=4160403047fc 50 exact pairs + 10 oracle instances",
    "thm33      pass   worst_violation=-6.390e-06 digest=2221df757823 1400 inequalities",
    "thm34      pass   worst_violation=9.990e-10 digest=80ba90ed95bd 20 oracle instances; inverse identity worst 2.22e-16",
    "thm35      pass   worst_violation=0.000e+00 digest=3e95738dfd0d 36 (potential, eps, n) cases",
    "section4   pass   worst_violation=4.441e-16 digest=f2e18c49c0f5 drift dim 1.000; shift dim 1.000; contraction(0.5) dim 0.000; rotation(0.41421356237309515) dim 0.000",
]

# sha256 of each suite's full violation list, every entry as float.hex
VIOLATION_SHA256 = {
    (0, "chain"): "7f73aa33fe1c1b91ec1e51d9b3ef63ec7f57e80a63f2520be10a81b099e72cf7",
    (0, "prop22"): "320c2231545733fe026458f7f33682bc95d29e42395f7da65f2e6bce229934e6",
    (0, "thm31"): "b7e9d65e9d262d0437d50b9f5e63f00854e1672bf1fbc341f91c57abe297fe6b",
    (0, "thm32"): "e743ce31acf7584bc884a6faa8bc9bd916a4799b33d76c5e2903174bbc8fabf8",
    (0, "thm33"): "9d0ae4569a579cfc1b387eb963f9d9205d412bad61e42e14db0f86c26e6b0bb3",
    (0, "thm34"): "a17e7ae481b07d85ecd71dd11bb206a7ab57b6ed2fe686ee0ec53c86a5627b21",
    (0, "thm35"): "719328507d0b9ac98414a859d7a7259e48341563f9fe7013b115c70ee44b9a93",
    (0, "section4"): "653118000447f06824b7332f9047c6631c7a6517ff7809e46a1490479036304a",
    (7, "chain"): "2da3f8d32f1ec834932b619f7e3c8e3bacb972a622ad7ee54a87c2dc5315ba09",
    (7, "prop22"): "b6e2045bbddb1695d3d96a5d8d8de42c7f82add5a1b285594e0fa13c0134347b",
    (7, "thm31"): "b7e9d65e9d262d0437d50b9f5e63f00854e1672bf1fbc341f91c57abe297fe6b",
    (7, "thm32"): "a476e4839736b58f3f229b08ba51cad18a6194d18d1f480ce8766bea1f761a96",
    (7, "thm33"): "e734e03d023ef76bfafe683fcb367923de21e1ebc86b0aab1bcffdea3b8e1d8e",
    (7, "thm34"): "c7de18725b93d2d71afb34fb5d43c9e99087edf13849f7de935e27ff2df15556",
    (7, "thm35"): "719328507d0b9ac98414a859d7a7259e48341563f9fe7013b115c70ee44b9a93",
    (7, "section4"): "653118000447f06824b7332f9047c6631c7a6517ff7809e46a1490479036304a",
}


@pytest.mark.parametrize("name", sorted(CONFIGS | SCALE_CONFIGS))
def test_estimate_csv_bytes(tmp_path, name, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps((CONFIGS | SCALE_CONFIGS)[name]))
    out = tmp_path / "out.csv"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]


@pytest.mark.parametrize("seed", sorted(ORACLE_SHA256))
def test_oracle_stdout_bytes(seed, capsys):
    args = ["oracle", "--max-points", "20", "--trials", "200", "--seed", str(seed)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[seed]


def verify_lines(tmp_path, seed):
    out = tmp_path / "report.txt"
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_verify_report_lines(tmp_path, capsys):
    assert verify_lines(tmp_path, 0) == VERIFY_SEED_0
    capsys.readouterr()


def test_verify_report_lines_seed_7(tmp_path, capsys):
    assert verify_lines(tmp_path, 7) == VERIFY_SEED_7
    capsys.readouterr()


@pytest.mark.parametrize("seed, suite", sorted(VIOLATION_SHA256), ids=str)
def test_violation_vectors_bit_exact(monkeypatch, seed, suite):
    # the report line rounds the worst violation; this pins every violation
    seen = []
    finish = theorems._finish

    def recording_finish(check_id, params, violations, fault, notes):
        seen.append(",".join(float(v).hex() for v in violations))
        return finish(check_id, params, violations, fault, notes)

    monkeypatch.setattr(theorems, "_finish", recording_finish)
    theorems.run_suite(suite, seed=seed)
    [blob] = seen
    assert hashlib.sha256(blob.encode()).hexdigest() == VIOLATION_SHA256[seed, suite]


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = "import sys, pdim.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
