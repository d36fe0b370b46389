"""Seeded workload generation.

A workload is a list of operations, each one call of ``pdim.cli.main`` with
the argv it would get on the command line.  Inputs come only from the
workload seed, through ``random.Random`` seeded with a string, whose stream
is fixed across Python versions.

``shift-exact`` output is checked against an independent oracle, so every
seed gives fresh inputs.  ``metric-greedy`` and ``verify`` are checked
against reference outputs recorded for each input they can generate, so
their inputs come from ``seed % CONFIG_SEEDS``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("shift-exact", "metric-greedy", "verify")
# pdim.theorems.SUITE_NAMES, in the order ``verify --suite all`` reports them
SUITES = ("chain", "prop22", "thm31", "thm32", "thm33", "thm34", "thm35", "section4")
CONFIG_SEEDS = 32
DEFAULT_SEED = 1
# Keep this seed out of tuning, so a later claim can be rechecked on it.
HELDOUT_SEED = 29


def config_seed(workload: str, seed: int) -> int:
    return seed if workload == "shift-exact" else seed % CONFIG_SEEDS


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _geometric(lo: int, hi: int) -> list[int]:
    out = [lo]
    while out[-1] * 2 <= hi:
        out.append(out[-1] * 2)
    return out


def shift_exact_configs(seed: int) -> dict[str, dict]:
    """One config per exact profile the config language reaches.

    The sizes are fixed and only the tables and matrices are seeded, so the
    amount of DP work does not depend on the seed.
    """
    rng = random.Random(f"shift-exact:{seed}")
    long_ns = _geometric(320, 10240)
    scales = {"k": [0, 1, 2]}
    mats = [[[_u(rng, 0.2, 2.0) for _ in range(3)] for _ in range(3)] for _ in range(2)]
    return {
        "drift-2": {
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "constant_drift", "a": _u(rng, -1.0, 1.0)},
            "n_range": long_ns, "scales": scales,
        },
        "weights-4": {
            "system": {"kind": "full_shift", "k": 4},
            "potential": {"kind": "symbol_weights",
                          "table": [_u(rng, -1.0, 1.0) for _ in range(4)]},
            "n_range": _geometric(256, 4096), "scales": scales,
        },
        "weights-golden": {
            "system": {"kind": "sft", "matrix": [[1, 1], [1, 0]]},
            "potential": {"kind": "symbol_weights",
                          "table": [_u(rng, -1.0, 1.0) for _ in range(2)]},
            "n_range": long_ns, "scales": scales,
        },
        "sum-3": {
            "system": {"kind": "full_shift", "k": 3},
            "potential": {"kind": "sum", "terms": [
                {"kind": "constant_drift", "a": _u(rng, -1.0, 1.0)},
                {"kind": "symbol_weights", "table": [_u(rng, -1.0, 1.0) for _ in range(3)]},
            ]},
            "n_range": _geometric(256, 8192), "scales": scales,
        },
        "cocycle-3x3": {
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "matrix_cocycle", "mats": mats},
            "n_range": long_ns, "scales": scales,
        },
    }


def metric_greedy_configs(seed: int) -> dict[str, dict]:
    """The four metric-path configs; candidate counts do not depend on the seed."""
    rng = random.Random(f"metric-greedy:{seed % CONFIG_SEEDS}")
    lo = _u(rng, 0.0, 0.5)
    return {
        # m = 20 * 2^(n-1) grid points, up to 1280 at n = 7
        "doubling": {
            "system": {"kind": "doubling"},
            "potential": {"kind": "birkhoff", "fn": "indicator",
                          "lo": lo, "hi": round(lo + _u(rng, 0.2, 0.5), 6)},
            "n_range": list(range(1, 8)), "scales": {"eps": [0.1]},
        },
        # m = 2^(n+3) words, up to 1024 at n = 7
        "words-2": {
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "symbol_weights",
                          "table": [_u(rng, -1.0, 1.0) for _ in range(2)]},
            "n_range": list(range(2, 8)), "scales": {"eps": [0.25]},
        },
        # m = 500 grid points at every n
        "rotation": {
            "system": {"kind": "rotation", "theta": _u(rng, 0.05, 0.45)},
            "potential": {"kind": "scale", "lam": _u(rng, 0.5, 1.5),
                          "inner": {"kind": "birkhoff", "fn": "cos2pi"}},
            "n_range": [20, 40, 60, 80], "scales": {"eps": [0.004]},
        },
        # m = 501 grid points at every n
        "contraction": {
            "system": {"kind": "contraction", "c": _u(rng, 0.3, 0.8),
                       "fixed": _u(rng, 0.0, 1.0)},
            "potential": {"kind": "scale", "lam": _u(rng, 0.5, 1.5),
                          "inner": {"kind": "birkhoff", "fn": "x"}},
            "n_range": [20, 40, 60, 80], "scales": {"eps": [0.004]},
        },
    }


def verify_seeds(seed: int) -> list[int]:
    c = seed % CONFIG_SEEDS
    return [2 * c, 2 * c + 1]


def build_ops(workload: str, seed: int, config_dir: Path) -> list[dict]:
    """Write the workload's configs under ``config_dir`` and return its operations.

    Each operation has a ``name``, a ``kind`` (``estimate`` or ``verify``)
    and what its check needs: the config, or the suite and its seed, and the
    name of its entry in the recorded reference.  The argv is
    made per run by :func:`argv_for`, because outputs go to a fresh
    directory each time.
    """
    if workload == "verify":
        # one operation per suite: ``--suite all`` runs the same suites with the
        # same seed, and shorter operations give more repetitions per run
        return [{"name": f"verify-{v}-{suite}", "kind": "verify", "suite_seed": v,
                 "suite": suite, "reference": f"verify-{v}"}
                for v in verify_seeds(seed) for suite in SUITES]
    if workload == "shift-exact":
        configs = shift_exact_configs(seed)
    elif workload == "metric-greedy":
        configs = metric_greedy_configs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    config_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, cfg in configs.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        ops.append({"name": name, "kind": "estimate", "config": cfg,
                    "config_path": str(path), "reference": name})
    return ops


def output_path(op: dict, out_dir: Path) -> Path:
    suffix = ".txt" if op["kind"] == "verify" else ".csv"
    return out_dir / f"{op['name']}{suffix}"


def argv_for(op: dict, out_dir: Path) -> list[str]:
    out = str(output_path(op, out_dir))
    if op["kind"] == "verify":
        return ["verify", "--suite", op["suite"], "--seed", str(op["suite_seed"]),
                "--out", out]
    return ["estimate", "--config", op["config_path"], "--out", out]
