"""Record the reference outputs that the metric-greedy and verify checks compare to.

Usage: ``python3 bench/record_reference.py metric-greedy|verify``

Runs the workload's operations in this process for every config seed
(``0 .. CONFIG_SEEDS - 1``) and writes ``bench/reference/<workload>.json``.
Rerun it only when an intended change of output is accepted; the file
records the commit it was made at.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import REFERENCE_DIR, REL_TOL, read_reports, read_table  # noqa: E402
from child import run_ops  # noqa: E402
from workloads import CONFIG_SEEDS, argv_for, build_ops, output_path  # noqa: E402


def record(workload: str, cseed: int, tmp: Path) -> dict:
    ops = build_ops(workload, cseed, tmp / "configs")
    entry = {}
    for op, rec in zip(ops, run_ops([argv_for(op, tmp) for op in ops])):
        if rec["error"] or rec["rc"] != 0:
            raise SystemExit(f"seed {cseed} {op['name']}: rc={rec['rc']} {rec['error']}")
        path = output_path(op, tmp)
        if workload == "verify":
            reports = read_reports(path)
            if any(status != "pass" for _, status, _, _ in reports):
                raise SystemExit(f"seed {cseed} {op['name']}: a report did not pass")
            entry.setdefault(op["reference"], []).extend(
                [cid, digest, notes] for cid, _, digest, notes in reports)
        else:
            labels, samples, _ = read_table(path)
            entry[op["reference"]] = {"labels": labels, "samples": sorted(map(list, samples))}
    return entry


def main() -> int:
    workload = sys.argv[1]
    if workload not in ("metric-greedy", "verify"):
        raise SystemExit("usage: record_reference.py metric-greedy|verify")
    head = subprocess.run(["git", "-C", str(BENCH), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    out = {"_about": {"commit": head, "rel_tol": REL_TOL, "config_seeds": CONFIG_SEEDS}}
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for cseed in range(CONFIG_SEEDS):
            out[str(cseed)] = record(workload, cseed, Path(tmp))
            print(f"{workload} config seed {cseed} recorded", flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
