"""pdim benchmark: seeded workloads through ``pdim.cli.main``, timed end to end.

Usage::

    python3 bench/run.py --workload shift-exact|metric-greedy|verify
                         [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each operation list runs in fresh child processes, one
after another, until ``--seconds`` is used up (at least three children),
and the run reports the medians of ``setup_s`` and ``peak_rss_mb`` over
the children, and as ``wall_s`` the sum over operations of each one's
median wall time.  Times are scaled to a reference host speed: the child
times a fixed calibration loop before and after each operation, and a time
is multiplied by ``CAL_REF_S`` over the loop's time around it.

With ``--trace 1`` untraced and traced children alternate, twice, after one
``python -X importtime`` launch, and the run reports the per-layer metrics
from the last traced child and, as ``trace.overhead_s``, the traced minus
the untraced median of scaled ``wall_s``.

Every output is checked; the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
sys.path.insert(0, str(BENCH))

from checks import check_op, load_reference  # noqa: E402
from tracing import summarize  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, argv_for, build_ops, config_seed,
)

MIN_CHILDREN = 3
TRACE_PAIRS = 2  # untraced and traced children, alternating, for trace.overhead_s
MAX_CHILDREN = 40
HARD_LIMIT_S = 170.0  # every run must end within 180 s
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
IMPORT_RE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Seconds the calibration loop in child.py takes on the reference host.  A
# shared host's speed moves by up to 2x over seconds and minutes; scaled
# times read as seconds on a host where the loop takes this long.
CAL_REF_S = 0.005


def scaled_seconds(record: dict) -> float:
    """An operation's wall time at reference host speed."""
    return record["seconds"] * CAL_REF_S / ((record["cal_before"] + record["cal_after"]) / 2)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".points", ".max_points")):
        return "count"
    if name.endswith(".us_per_step"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("self_share."):
        return "share"
    return "s"


class Run:
    """One benchmark invocation: its work directory, operations and deadline."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.cseed = config_seed(workload, seed)
        self.dir = work_dir
        self.ops = build_ops(workload, seed, work_dir / "configs")
        self.reference = {} if workload == "shift-exact" else load_reference(workload)
        self.started = time.monotonic()
        self.children = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def launch(self, args: list[str], extra: tuple[str, ...] = ()):
        """Run one child to completion; returns (spawn time, CompletedProcess)."""
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *extra, str(CHILD), *args], cwd=ROOT, env=CHILD_ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, self.remaining()))
        return spawned, proc

    def child(self, trace: bool = False) -> dict:
        """Run every operation in one fresh process and check its outputs."""
        self.children += 1
        out_dir = self.dir / f"child-{self.children}"
        out_dir.mkdir()
        spec = {"argvs": [argv_for(op, out_dir) for op in self.ops],
                "result_out": str(out_dir / "result.json"),
                "spans_out": str(out_dir / "spans.json") if trace else None}
        spec_path = out_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        try:
            spawned, proc = self.launch([str(spec_path)])
        except subprocess.TimeoutExpired:
            return {"errors": ["child timed out"] * len(self.ops), "result": None}
        try:
            result = json.loads((out_dir / "result.json").read_text())
        except (OSError, ValueError):
            reason = f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return {"errors": [reason] * len(self.ops), "result": None}
        errors = [check_op(self.workload, op, rec, out_dir, self.reference, self.cseed)
                  for op, rec in zip(self.ops, result["ops"])]
        result["setup_raw_s"] = result["imported_at"] - spawned
        # the first calibration runs right after the import
        result["setup_s"] = result["setup_raw_s"] * CAL_REF_S / result["ops"][0]["cal_before"]
        result["scaled_wall_s"] = sum(scaled_seconds(r) for r in result["ops"])
        result["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        if trace:
            result["spans"] = json.loads((out_dir / "spans.json").read_text())
        shutil.rmtree(out_dir)
        return {"errors": [e for e in errors if e], "result": result}


def import_times(run: Run) -> dict[str, float]:
    """Self import time of numpy, scipy and pdim modules from ``-X importtime``."""
    _, proc = run.launch(["--import-only"], extra=("-X", "importtime"))
    totals = {"numpy": 0, "scipy": 0, "pdim": 0}
    for line in proc.stderr.splitlines():
        match = IMPORT_RE.match(line)
        if match and match.group(2).split(".")[0] in totals:
            totals[match.group(2).split(".")[0]] += int(match.group(1))
    return {"setup.import.numpy_s": totals["numpy"] / 1e6,
            "setup.import.scipy_s": totals["scipy"] / 1e6,
            "setup.import.pdim_self_s": totals["pdim"] / 1e6}


def timed_run(run: Run, seconds: float) -> tuple[list[dict], dict, dict]:
    children = []
    while len(children) < MAX_CHILDREN and run.remaining() > 0:
        if len(children) >= MIN_CHILDREN:
            per_child = (time.monotonic() - run.started) / len(children)
            if time.monotonic() - run.started + per_child > seconds:
                break
        children.append(run.child())
    done = [c["result"] for c in children if c["result"]]
    if not done:
        return children, {}, {}
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s": sum(statistics.median(scaled_seconds(r["ops"][i]) for r in done)
                      for i in range(len(run.ops))),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    unscaled = {
        "setup_s": statistics.median(r["setup_raw_s"] for r in done),
        "wall_s": sum(statistics.median(r["ops"][i]["seconds"] for r in done)
                      for i in range(len(run.ops))),
        "calibration_loop_s": statistics.median(
            op["cal_before"] for r in done for op in r["ops"]),
    }
    return children, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, unscaled


def traced_run(run: Run) -> tuple[list[dict], dict, dict]:
    imports = import_times(run)
    children = []
    for _ in range(TRACE_PAIRS):
        children += [run.child(), run.child(trace=True)]
    if not all(c["result"] for c in children):
        return children, {}, {}
    plain = [c["result"] for c in children[0::2]]
    traced = [c["result"] for c in children[1::2]]
    layers = summarize(traced[-1]["spans"])
    layers.update(imports)
    layers["trace.overhead_s"] = (statistics.median(r["scaled_wall_s"] for r in traced)
                                  - statistics.median(r["scaled_wall_s"] for r in plain))
    return children, {k: (v, layer_unit(k)) for k, v in layers.items()}, {}


def stamp(workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "workload": workload, "seed": seed, "config_seed": config_seed(workload, seed),
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit, "dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdim" / "cli.py").is_file():
        print(f"error: no pdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        run = Run(args.workload, args.seed, run_dir)
        if args.workload != "shift-exact" and str(run.cseed) not in run.reference:
            print(f"error: no {args.workload} reference for config seed {run.cseed}",
                  file=sys.stderr)
            return 2
        _, warm = run.launch(["--import-only"])  # compiles .pyc; not timed
        if warm.returncode != 0:
            print(f"error: cannot import pdim:\n{warm.stderr}", file=sys.stderr)
            return 1
        if args.trace:
            children, metrics, unscaled = traced_run(run)
        else:
            children, metrics, unscaled = timed_run(run, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not metrics:
        for c in children:
            for e in c["errors"]:
                print(f"FAILED {e}", file=sys.stderr)
        print("error: no child process finished its operations", file=sys.stderr)
        return 1

    attempted = len(run.ops) * len(children)
    failed = sum(len(c["errors"]) for c in children)
    print(f"stamp {json.dumps(stamp(args.workload, args.seed))}")
    for c in children:
        for e in c["errors"]:
            print(f"FAILED {e}")
    print(f"{args.workload}: {len(children)} child processes x {len(run.ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value!r} {unit}")
    print(f"  {'failed_share':<36} {failed / attempted!r} ({failed} of {attempted} operations)")
    for name, value in unscaled.items():
        print(f"  {'unscaled ' + name:<36} {value!r} s")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
