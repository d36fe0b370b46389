"""Mutated golden configs: ``pdim estimate`` exits 0, 2 or 3 on every one,
with at most one stderr line, and with none when it succeeds.

Each golden config is mutated at every position it has: a dropped key, a
value of the wrong type, ``"x"``, ``"nan"``, ``"inf"``, +-1e400, 10^30, a
negative value, 2.5, and a repeated list entry.  All cases run through
``pdim.cli.main`` in one child process under a soft address-space limit, so
an over-allocation fails there instead of taking the machine's memory.
"""

import json
import os
import random
import subprocess
import sys

from test_golden import CONFIGS

import pdim

# soft RLIMIT_AS of the child; the array budgets stop at 2 GiB
CHILD_ADDRESS_LIMIT = 3 * 1024**3

CHILD = r"""
import contextlib, io, json, os, resource, sys, tempfile, warnings

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
        results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""

# values of another JSON type for the wrong-type mutation
WRONG_TYPES = [None, True, [1], {"a": 1}, 1.0, "s"]


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
    return {"type": rng.choice(other_types), "x": "x", "nan": "nan", "inf": "inf",
            "+1e400": float("inf"), "-1e400": float("-inf"), "1e30": 10**30,
            "negative": -value if number else -1, "2.5": 2.5}


def _parent(config, path):
    for key in path[:-1]:
        config = config[key]
    return config


def mutants(config: dict, rng: random.Random):
    """(label, JSON text) for every position of ``config`` and every mutation."""
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
            yield f"{'/'.join(map(str, path))}:{name}", json.dumps(cfg)


def test_every_mutation_exits_cleanly():
    rng = random.Random(0)
    cases = [(f"{name}@{label}", text) for name, cfg in sorted(CONFIGS.items())
             for label, text in mutants(cfg, rng)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdim.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(CHILD_ADDRESS_LIMIT)],
        input=json.dumps([text for _, text in cases]), env=env,
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    results = json.loads(child.stdout)
    assert len(results) == len(cases) > 1000
    bad = []
    for (label, text), (code, err) in zip(cases, results):
        if code not in (0, 2, 3) or err.count("\n") > 1 or (code == 0 and err):
            bad.append(f"{label}: exit {code!r}, stderr {err[:200]!r}, config {text}")
    assert not bad, f"{len(bad)} of {len(cases)} mutations:\n" + "\n".join(bad[:20])
