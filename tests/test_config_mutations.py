"""Mutated golden and benchmark configs: ``pdim estimate`` exits 0, 2 or 3 on
every one, with at most one stderr line, and with none, and no ``inf`` or
``nan`` in the CSV, when it succeeds.

The configs are the golden ones and the seed-1 configs of the benchmark's
``shift-exact`` and ``metric-greedy`` workloads (read from
``bench/workloads.py``, each ``n_range`` cut to its first two entries so the
file runs in seconds).  Each is mutated at every position it has: a dropped
key, a value of the wrong type, ``"x"``, ``"nan"``, ``"inf"``, ``"0.5"``,
+-1e400, +-1e308, 10^30, the subnormal 5e-324, a negative value, 2.5,
``true``, and a repeated list entry.
2.5, ``true`` and ``"0.5"`` in an integer field, and ``true`` and ``"0.5"``
in a float field, must exit 2.  Each potential is also wrapped in chains of
``scale`` and of two-term ``sum`` objects, 1, 50, 985 and 5000 deep, which
must exit 0 up to MAX_POTENTIAL_DEPTH and 2 past it.  All cases run through
``pdim.cli.main`` in one child process under a soft address-space limit, so
an over-allocation fails there instead of taking the machine's memory.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from test_golden import CONFIGS

import pdim
from pdim.cli import MAX_POTENTIAL_DEPTH

# soft RLIMIT_AS of the child; the array budgets stop at 2 GiB
CHILD_ADDRESS_LIMIT = 3 * 1024**3

CHILD = r"""
import contextlib, csv, io, json, os, resource, sys, tempfile, warnings

_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))
warnings.simplefilter("always")  # every numpy warning reaches stderr, not just the first

from pdim.cli import main

results = []
with tempfile.TemporaryDirectory() as tmp:
    cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out.csv")
    for text in json.load(sys.stdin):
        with open(cfg, "w") as f:
            f.write(text)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["estimate", "--config", cfg, "--out", out])
        except Exception as e:  # what the command line shows as a traceback
            code = f"{type(e).__name__}: {e}"[:200]
        nonfinite = False
        if code == 0:
            with open(out, newline="") as f:
                nonfinite = any(v in ("inf", "-inf", "nan") for row in csv.reader(f) for v in row)
        results.append([code, err.getvalue(), nonfinite])
json.dump(results, sys.stdout)
"""

# values of another JSON type for the wrong-type mutation
WRONG_TYPES = [None, True, [1], {"a": 1}, 1.0, "s"]

# config paths, list indices left out, whose numbers must be integers
INTEGER_FIELDS = {("system", "k"), ("system", "matrix"), ("n_range",), ("n_range", "start"),
                  ("n_range", "stop"), ("n_range", "step"), ("scales", "k")}

# config keys, at any depth below "system" or "potential", and config paths,
# list indices left out, whose numbers are floats
FLOAT_KEYS = {"theta", "c", "fixed", "a", "table", "lo", "hi", "lam", "mats"}
FLOAT_FIELDS = {("scales", "eps"), ("s_grid",), ("s_grid", "start"), ("s_grid", "stop"),
                ("window_frac",)}

NEST_DEPTHS = (1, 50, 985, 5000)

BENCH_SEED = 1


def bench_configs() -> dict:
    """The benchmark's seed-1 estimate configs, each ``n_range`` cut to two entries."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    for name, configs in (("shift-exact", workloads.shift_exact_configs(BENCH_SEED)),
                          ("metric-greedy", workloads.metric_greedy_configs(BENCH_SEED))):
        for key, cfg in configs.items():
            out[f"{name}/{key}"] = dict(cfg, n_range=cfg["n_range"][:2])
    return out


def _positions(node, path=()):
    """Every path below ``node``: dict keys and list indices, depth first."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _replacements(value, rng: random.Random) -> dict:
    other_types = [v for v in WRONG_TYPES if type(v) is not type(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return {"type": rng.choice(other_types), "x": "x", "nan": "nan", "inf": "inf", "0.5": "0.5",
            "+1e400": float("inf"), "-1e400": float("-inf"), "+1e308": 1e308, "-1e308": -1e308,
            "1e30": 10**30, "5e-324": 5e-324,
            "negative": -value if number else -1, "2.5": 2.5, "true": True}


def _parent(config, path):
    for key in path[:-1]:
        config = config[key]
    return config


def _exit_code(path, value, name):
    """The one exit code a mutation must give, or None where 0, 2 and 3 all do."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    field = tuple(key for key in path if isinstance(key, str))
    if isinstance(value, int) and field in INTEGER_FIELDS:
        return 2 if name in ("2.5", "true", "0.5") else None
    floats = field in FLOAT_FIELDS or (field[0] in ("system", "potential")
                                       and field[-1] in FLOAT_KEYS)
    return 2 if floats and name in ("true", "0.5") else None


def mutants(config: dict, rng: random.Random):
    """(label, JSON text, exit code or None) for every position of ``config``
    and every mutation, then for every nesting of its potential."""
    for path in _positions(config):
        parent = _parent(config, path)
        edits = {name: lambda p, k, new=new: p.__setitem__(k, new)
                 for name, new in _replacements(parent[path[-1]], rng).items()}
        if isinstance(parent, dict):
            edits["drop"] = lambda p, k: p.pop(k)
        else:
            edits["repeat"] = lambda p, k: p.insert(k, p[k])
        for name, edit in edits.items():
            cfg = json.loads(json.dumps(config))
            edit(_parent(cfg, path), path[-1])
            yield (f"{'/'.join(map(str, path))}:{name}", json.dumps(cfg),
                   _exit_code(path, parent[path[-1]], name))
    for kind in ("scale", "sum"):
        for depth in NEST_DEPTHS:
            text = json.dumps(dict(config, potential="@"))
            yield (f"potential:{kind}x{depth}",
                   text.replace('"@"', _nested(config["potential"], kind, depth)),
                   0 if depth <= MAX_POTENTIAL_DEPTH else 2)


def _nested(potential: dict, kind: str, depth: int) -> str:
    """JSON text of ``potential`` inside ``depth`` scale or two-term sum objects;
    joined as text, since json.dumps recurses once per level."""
    head, tail = (('{"kind": "scale", "lam": 1.0, "inner": ', "}") if kind == "scale" else
                  ('{"kind": "sum", "terms": [', ', {"kind": "zero"}]}'))
    return head * depth + json.dumps(potential) + tail * depth


def test_every_mutation_exits_cleanly():
    rng = random.Random(0)
    configs = dict(CONFIGS, **bench_configs())
    cases = [(f"{name}@{label}", text, expect) for name, cfg in sorted(configs.items())
             for label, text, expect in mutants(cfg, rng)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdim.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(CHILD_ADDRESS_LIMIT)],
        input=json.dumps([text for _, text, _ in cases]), env=env,
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    results = json.loads(child.stdout)
    assert len(results) == len(cases) > 1000
    bad = []
    for (label, text, expect), (code, err, nonfinite) in zip(cases, results):
        if (code not in (0, 2, 3) or err.count("\n") > 1 or (code == 0 and err)
                or expect not in (None, code) or nonfinite):
            bad.append(f"{label}: exit {code!r}, stderr {err[:200]!r}, "
                       f"non-finite CSV {nonfinite}, config {text[:500]}")
    assert not bad, f"{len(bad)} of {len(cases)} mutations:\n" + "\n".join(bad[:20])
