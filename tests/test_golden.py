"""Golden outputs: CSV and stdout bytes of fixed estimate configs, the verify
report lines for seeds 0 and 7, and the bits of every suite violation at those
seeds and at the suite seeds the verify benchmark draws (2, 3, 58 and 59).

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
kernel, before the sorted sweep.  The four grid configs were recorded while
candidate sets were lists of point objects, before grids became coordinate
arrays.  The estimate stdout hashes (the dimension, stderr and jump bracket
lines) were recorded before each table's series, window and fit became one
shared reading.
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
    # loose windows, where the radius does not shrink: the sweep steps most
    # pairs of these
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

# CSV pins of the eps path on grids the configs above leave out, recorded
# with per-point candidate lists: the interval grid's floats, certified and
# capped at the budget, golden-mean words with their bridges to the tail, and
# 3-symbol words in the enumeration order that the greedy tie-breaks read.
GRID_CONFIGS = {
    "contraction-eps": {
        "system": {"kind": "contraction", "c": 0.6, "fixed": 0.35},
        "potential": {"kind": "birkhoff", "fn": "x"},
        "n_range": [2, 4, 6, 8, 10], "scales": {"eps": [0.01, 0.003]},
    },
    "contraction-capped": {
        "system": {"kind": "contraction", "c": 0.45, "fixed": 0.8},
        "potential": {"kind": "birkhoff", "fn": "cos2pi"},
        "n_range": [2, 4, 6, 8], "scales": {"eps": [0.003]}, "budget": 250,
    },
    "golden-eps": {
        "system": {"kind": "sft", "matrix": [[1, 1], [1, 0]]},
        "potential": {"kind": "symbol_weights", "table": [0.4, -0.3]},
        "n_range": [2, 3, 4, 5, 6, 7], "scales": {"eps": [0.25, 0.1]},
    },
    "words3-eps": {
        "system": {"kind": "full_shift", "k": 3},
        "potential": {"kind": "symbol_weights", "table": [0.5, -0.5, 0.1]},
        "n_range": [1, 2, 3, 4], "scales": {"eps": [0.25]},
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
    "contraction-eps": "2e5afd12954db13f1d24b5fe3d35f72d4b6dccdd335fae2d8b1a325936edcaa3",
    "contraction-capped": "87fdce69aad940a110d0ffcc8ca369b0c4dbc5ef2f078a441251443a6e76bb42",
    "golden-eps": "2f50a7c73b0b43e1823ac4287b28cb9ca803496aea62934b39470e94d995dbe8",
    "words3-eps": "6df23a5e9b5fa0eda9863a157e47bac707e8986eebf90d8bf722ea8cb1d3ead9",
}

# sha256 of ``pdim estimate`` stdout for the configs above: the s0 fit
# (``dimension=``, ``stderr=``) and the ``jump_bracket=`` line of each estimator
STDOUT_SHA256 = {
    "zero": "c881ba880274ac60aa3bf2a757188d9aa541638783368470ad50ec071aad4131",
    "drift-negative": "457580b13289f8f263a327deb938d78b529a1f7266f5a6abd4724e3c2524b584",
    "weights-golden": "540dcef4a05e02b51faa1cf976c0ee9bdf865b84cf6705b27179ee915fce0b3a",
    "cocycle": "e8922755ff11ee96c0bc7d3aa7171251736d27ffb46c1017c9a44fd1d8e9fe14",
    "sum": "e647864be9122727cc643706dac80f9827a2431b9a1ce2496ca213b3fa32a81d",
    "scale": "0a921213a2ae1749c1e5fc3283b7ad521140d2d5927be9b6ae69d4750f4f42df",
    "rotation": "fb5bcb454480c122c5f4e1c1e9c6ad402f6455e868f24b490b80b331ef884abc",
    "doubling": "85387279afbf7d64a9b975b3f46c770d1d5eaae250dca7953436202c8dc52fe7",
    "words-eps": "46bb65540f40651840711e6094cfddb4e8bdeb130e17c1f4b49c8671ff590b1f",
    "doubling-scale": "042f9f0c4e2c29031bee1a52d808938c0ddf57cc72160f1bdef489587666c5d0",
    "words-scale": "1d7f81cfd38b2f6d7d1632df21b00524a304f5cbdef8193dd8053b789eba46f1",
    "doubling-loose": "042f9f0c4e2c29031bee1a52d808938c0ddf57cc72160f1bdef489587666c5d0",
    "words-loose": "1d7f81cfd38b2f6d7d1632df21b00524a304f5cbdef8193dd8053b789eba46f1",
    "contraction-eps": "b464416219393ffa09d4c0e546cbb0edca1bf192df04f064ad067dc3ff3ee5a6",
    "contraction-capped": "9266b3578f82cc61ead1311d73eb98f64b1b4cf518c1a68883165bc81df59a9e",
    "golden-eps": "f60c7db80ee8aec415c03bb2f2a0f5cf6b549be28162819b738e5c86657e2de7",
    "words3-eps": "cae5d1653ce5cf92cf5f16b6d1b80c8e4e92221d6cd38feb203a8ebed8f1c8d6",
}

# sha256 of ``pdim oracle --max-points 20 --trials 200 --seed s`` stdout, for
# the seeds of the CI loop: the greedy and exact values of 200 random instances
# enter its gap figures
ORACLE_SHA256 = {
    0: "9162dc427ff22aa9d41edee0583132868858b9cbb15e0b010056a3713c8f8d35",
    1: "fc57c464a9dd5dda8314a2ced230596542797a110191477ddb535e8b6603c29f",
    2: "ed80356ca0250f978356b8d80c9315e718c69f17652071ac86c7ae2a19e9b26a",
    3: "2a05b1af7b368e273003c1a2ae2cb90e8f00b2aef27db0c42f0583814f613dbc",
    4: "a3e9ccb6acf89cffd2726e0c51f2f4c43b7dbb9d98593541f3e4bee1fb80c146",
    5: "438ffc96dbc5aadbabe00c523278f61142e132b31b8be152acfc0b23219bf1e2",
    6: "3e9ff9997450786604cf91874b82e2b07392ed7230862babcdd75662cc3a0403",
    7: "c43bd92b66fb0d9b8cb6f0c6acea8eb1af704138beb696ea356e71afb0cb00ea",
    8: "be64ca56d117c8bb69b3e0c52a4dc770c369e7438f019d871b1adcde8072b090",
    9: "ef44dea051a59d21256ba319ed800c3fa204c66021a9f3a653434ef214b73f03",
    10: "2c4966aab4f214e473343bdf6da20287bd2fdc68f5205e7fae157fe4f386575c",
    11: "58f76eb8ec7ab3b173958f225d32d42539c915910404da4d4cb0900a46a14f7a",
    12: "3407e8097c9d46eb3f320d975538d807b10d4596ba00dec0d47462ad0743dd04",
    13: "a5a256006e0c77b45cb7e61ab588c82bfde183710d326d326fe221144836052f",
    14: "8a52d6b5e133b04f958f469cb60c714cdfa8ccba96baf9b6e2f8a085f46e8b30",
    15: "63b8de20f56d9a7558b36e3e954c269f004c67fa3dc87945e06e0bcddd9c08b0",
}

# sha256 of ``pdim oracle --max-points 3 --trials 200 --seed s`` stdout: every
# instance has 3 points, many of them with no pairs or with every pair
ORACLE3_SHA256 = {
    0: "15d359452a14d4452eedd363631b5c3a1edc29daba251570c1f37fc58cbe4f67",
    1: "d32a931a02a09bf94d3cbbb313a19eede4e13cec28edb642095ca5e539a41907",
    2: "a94d68d18a2c0a8236825d9e454809b138ff7ab95f8944a86a32f328307814b4",
    3: "46e0019640113aa0b97f453e7cd82bb9b2f4d38da59fe245579f4e813895419d",
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
    # suite seeds 2, 3, 58 and 59: the draws of the verify benchmark's seeds 1 and 29
    (2, "chain"): "30a26e9ef8fa592ca4d1011e3725f44c34047c600877ad6657e317cf25194872",
    (2, "prop22"): "ed95001e2c96c53f60a32cd7fda54989f536c0441d9e6314ea74c9e51c68e426",
    (2, "thm31"): "b7e9d65e9d262d0437d50b9f5e63f00854e1672bf1fbc341f91c57abe297fe6b",
    (2, "thm32"): "eb3198230992e58ce092545776aa2166223c8229044bf70ec8c30361d1501a44",
    (2, "thm33"): "9630fa9191e32f8c605fd2510b241f6167139f993a637db55926aa4e3c146676",
    (2, "thm34"): "cb3266cd85fad5f9580e1b5b3ef2186f01c8d3db1c67b81cc12ec31aa0c76cb2",
    (2, "thm35"): "719328507d0b9ac98414a859d7a7259e48341563f9fe7013b115c70ee44b9a93",
    (2, "section4"): "653118000447f06824b7332f9047c6631c7a6517ff7809e46a1490479036304a",
    (3, "chain"): "e8a84fe38468df10ca429c88099aa7465d00881f93c7acde0882e9a6b420dded",
    (3, "prop22"): "b441df9cdc9f7b750fa6d9813232a18199475730e726689530b52be0b1e6731f",
    (3, "thm31"): "b7e9d65e9d262d0437d50b9f5e63f00854e1672bf1fbc341f91c57abe297fe6b",
    (3, "thm32"): "72b28e961e338881a16d40bcbba9e6301ed6597c50bcf900766d3490cbff11ed",
    (3, "thm33"): "7d0a40f39d65b0f5d159f4ec3069bec5169eed5fa28aa5042012b90c96a8e4af",
    (3, "thm34"): "bf95df42cb373d091d083f1858604b076e12f8ce76e2ed22f1af16b37f8fda88",
    (3, "thm35"): "719328507d0b9ac98414a859d7a7259e48341563f9fe7013b115c70ee44b9a93",
    (3, "section4"): "653118000447f06824b7332f9047c6631c7a6517ff7809e46a1490479036304a",
    (58, "chain"): "c5ba462101b7fb464c2cdadbe95d07e1a0014ea97e24c1f9e963845ec569ceb2",
    (58, "prop22"): "b705a54c512b8c3608155c96add4df3a68e7ac8d4106b87a6aaca15ac3724b76",
    (58, "thm31"): "b7e9d65e9d262d0437d50b9f5e63f00854e1672bf1fbc341f91c57abe297fe6b",
    (58, "thm32"): "db9ad1de24dde145f51641d4002f465569c4eef092a79fb1cee0a9b799fcca12",
    (58, "thm33"): "5992a076d819ba15d035174ad2d68ccd4e4d69b2b53e34ad28cd726a99284682",
    (58, "thm34"): "c3ccb517bdec29962505c78449d81f98eae8fcc3c49e8b620fd78cac95bf2340",
    (58, "thm35"): "719328507d0b9ac98414a859d7a7259e48341563f9fe7013b115c70ee44b9a93",
    (58, "section4"): "653118000447f06824b7332f9047c6631c7a6517ff7809e46a1490479036304a",
    (59, "chain"): "f452f1b2e0b385f7d98953647cf3dbd0a15e0c9e350b2ddd5cbccf7a0f84b03c",
    (59, "prop22"): "bedb1a3732bba06dcebec7948cf4f0d57ce0de9bfba7f6ca67102e54ab2c1d56",
    (59, "thm31"): "b7e9d65e9d262d0437d50b9f5e63f00854e1672bf1fbc341f91c57abe297fe6b",
    (59, "thm32"): "0795c3fdf9ebcfa1e2768325dfcc73f57c7f3b3b1f10f08f4c51c9e60bc8dc0d",
    (59, "thm33"): "e6519d1a625ebcc8a6606a8be54f0909fcf22914df1a53cf802fb4b76a6eb933",
    (59, "thm34"): "84c783addc64fbb2e957d453ef0d46568785997d9d2882fd1f19a29f5436edb9",
    (59, "thm35"): "719328507d0b9ac98414a859d7a7259e48341563f9fe7013b115c70ee44b9a93",
    (59, "section4"): "653118000447f06824b7332f9047c6631c7a6517ff7809e46a1490479036304a",
}


@pytest.mark.parametrize("name", sorted(CONFIGS | SCALE_CONFIGS | GRID_CONFIGS))
def test_estimate_csv_bytes(tmp_path, name, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps((CONFIGS | SCALE_CONFIGS | GRID_CONFIGS)[name]))
    out = tmp_path / "out.csv"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(CONFIGS | SCALE_CONFIGS | GRID_CONFIGS))
def test_estimate_stdout_bytes(tmp_path, name, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps((CONFIGS | SCALE_CONFIGS | GRID_CONFIGS)[name]))
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name]


@pytest.mark.parametrize("seed", sorted(ORACLE_SHA256))
def test_oracle_stdout_bytes(seed, capsys):
    args = ["oracle", "--max-points", "20", "--trials", "200", "--seed", str(seed)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(ORACLE3_SHA256))
def test_oracle_stdout_bytes_at_three_points(seed, capsys):
    args = ["oracle", "--max-points", "3", "--trials", "200", "--seed", str(seed)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE3_SHA256[seed]


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
