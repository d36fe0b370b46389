"""Output checks: each operation either passes or is counted as failed.

* ``shift-exact``: every sample row must match :mod:`oracle` to ``REL_TOL``.
* ``metric-greedy``: every sample row must match the recorded reference for
  the config seed to ``REL_TOL``, so a change to the greedy picks or their
  tie-breaks fails.
* ``verify``: every report must pass, with check id, digest and notes (the
  inequality counts) equal to the recorded reference.

All workloads also need exit code 0, no exception, a complete table with no
duplicate or missing row, and finite pressure rows.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from oracle import log_word_sum
from workloads import output_path

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_HEADER = ["system", "potential", "estimator", "n", "scale", "s",
              "log_value", "pressure_estimate", "exact"]
REPORT_RE = re.compile(r"^(\S+)\s+(\S+)\s+worst_violation=\S+ digest=(\S+) ?(.*)$")


class CheckFailed(Exception):
    pass


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def read_table(path: Path) -> tuple[list[str], list[tuple], dict]:
    """(labels, sample rows as (estimator, n, scale, log_value, exact), pressure rows)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckFailed("missing or wrong CSV header")
    samples, pressure, labels = [], {}, set()
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER) or row[0] == "TRUNCATED":
            raise CheckFailed(f"malformed or truncated row {row!r}")
        system, potential, est, n, scale, s, log_value, p_est, exact = row
        labels.add((system, potential))
        if n:
            samples.append((int(est), int(n), float(scale), float(log_value), exact))
        else:
            key = (int(est), float(s))
            if key in pressure:
                raise CheckFailed(f"duplicate pressure row {key}")
            pressure[key] = float(p_est)
    if len(labels) != 1:
        raise CheckFailed(f"expected one (system, potential) label, got {sorted(labels)}")
    ests = {r[0] for r in samples}
    s_values = {s for _, s in pressure}
    if len(pressure) != len(ests) * len(s_values) or {e for e, _ in pressure} != ests:
        raise CheckFailed("pressure rows do not cover every (estimator, s) pair")
    if not all(math.isfinite(v) for v in pressure.values()):
        raise CheckFailed("non-finite pressure value")
    return list(labels.pop()), samples, pressure


def _keyed(samples: list[tuple], key) -> dict:
    out = {}
    for row in samples:
        k = key(row)
        if k in out:
            raise CheckFailed(f"duplicate sample row {k}")
        out[k] = row
    return out


def _check_shift_exact(config: dict, path: Path) -> None:
    _, samples, _ = read_table(path)

    def scale_index(row):
        est, n, scale = row[:3]
        # separated rows sit just below 2^-k, spanning rows at 2^-(k-1)
        k = round(-math.log2(scale)) + (1 if est == 2 else 0)
        return est, n, k

    got = _keyed(samples, scale_index)
    ns, ks = config["n_range"], config["scales"]["k"]
    want = {(est, n, k) for est in (2, 3) for n in ns for k in ks}
    if set(got) != want:
        raise CheckFailed(f"sample rows {sorted(set(got) ^ want)[:4]} missing or extra")
    oracle = {(n, k): log_word_sum(config, n, k) for n in ns for k in ks}
    for (est, n, k), row in got.items():
        if row[4] != "true":
            raise CheckFailed(f"row {(est, n, k)} not marked exact")
        if not close(row[3], oracle[n, k]):
            raise CheckFailed(f"row {(est, n, k)}: {row[3]!r} != oracle {oracle[n, k]!r}")


def _check_metric_greedy(expected: dict, path: Path) -> None:
    labels, samples, _ = read_table(path)
    if labels != expected["labels"]:
        raise CheckFailed(f"labels {labels} != reference {expected['labels']}")
    got = _keyed(samples, lambda r: r[:3])
    want = _keyed([(e, n, s, v, x) for e, n, s, v, x in expected["samples"]],
                  lambda r: r[:3])
    if set(got) != set(want):
        raise CheckFailed(f"sample rows {sorted(set(got) ^ set(want))[:4]} missing or extra")
    for key, row in got.items():
        ref = want[key]
        if row[4] != ref[4] or not close(row[3], ref[3]):
            raise CheckFailed(f"row {key}: {row[3]!r} != reference {ref[3]!r}")


def read_reports(path: Path) -> list[list[str]]:
    out = []
    for line in path.read_text().splitlines():
        match = REPORT_RE.match(line)
        if not match:
            raise CheckFailed(f"unparsable report line {line!r}")
        out.append(list(match.groups()))
    return out


def _check_verify(expected: list, path: Path) -> None:
    reports = read_reports(path)
    if len(reports) != len(expected):
        raise CheckFailed(f"{len(reports)} reports, reference has {len(expected)}")
    for (check_id, status, digest, notes), ref in zip(reports, expected):
        if status != "pass":
            raise CheckFailed(f"{check_id} reported {status}")
        if [check_id, digest, notes] != ref:
            raise CheckFailed(f"{check_id} {digest} {notes!r} != reference {ref}")


def check_op(workload: str, op: dict, record: dict, out_dir: Path,
             reference: dict, cseed: int) -> str | None:
    """None if the operation succeeded and its output is correct, else why not."""
    if record.get("error"):
        return f"{op['name']}: {record['error']}"
    if record.get("rc") != 0:
        return f"{op['name']}: exit code {record.get('rc')}"
    path = output_path(op, out_dir)
    try:
        if workload == "shift-exact":
            _check_shift_exact(op["config"], path)
        else:
            expected = reference.get(str(cseed), {}).get(op["reference"])
            if expected is None:
                raise CheckFailed(f"no reference recorded for config seed {cseed}")
            if workload == "verify":
                # the reference holds every suite's report, as ``--suite all`` gives them
                _check_verify([r for r in expected if r[0] == op["suite"]], path)
            else:
                _check_metric_greedy(expected, path)
    except (CheckFailed, OSError, ValueError) as e:
        return f"{op['name']}: {e}"
    return None
