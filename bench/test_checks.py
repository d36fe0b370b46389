"""Fault injection for the benchmark's output checks.

Each fault below must turn a passing operation into a failed one: a sample
value moved by 1e-6 relative, a dropped CSV row, and a report flipped to
``fail``.  Run with ``python3 -m pytest bench/test_checks.py``.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_op, load_reference  # noqa: E402
from child import run_ops  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, argv_for, build_ops, config_seed, output_path, verify_seeds,
)


def _run(workload, tmp_path, names=None, n_range=None):
    """Run the named operations of the default seed; returns (ops, records)."""
    ops = build_ops(workload, DEFAULT_SEED, tmp_path / "configs")
    ops = [op for op in ops if names is None or op["name"] in names]
    for op in ops:
        if n_range is not None:
            op["config"]["n_range"] = n_range
            Path(op["config_path"]).write_text(json.dumps(op["config"]))
    return ops, run_ops([argv_for(op, tmp_path) for op in ops])


def _check(workload, op, record, tmp_path):
    return check_op(workload, op, record, tmp_path, load_reference(workload),
                    config_seed(workload, DEFAULT_SEED))


def _rewrite_csv(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(edit(rows))


def _perturb_first_sample(rows):
    row = next(r for r in rows[1:] if r[3])
    row[6] = repr(float(row[6]) * (1.0 + 1e-6))
    return rows


def _drop_last_sample(rows):
    last = max(i for i, r in enumerate(rows) if i and r[3])
    return rows[:last] + rows[last + 1:]


FAULTS = [_perturb_first_sample, _drop_last_sample]


@pytest.mark.parametrize("fault", FAULTS)
def test_shift_exact_fault_fails_every_profile(tmp_path, fault):
    ops, records = _run("shift-exact", tmp_path, n_range=[4, 8, 16, 32])
    for op, rec in zip(ops, records):
        assert _check("shift-exact", op, rec, tmp_path) is None
        _rewrite_csv(output_path(op, tmp_path), fault)
        assert _check("shift-exact", op, rec, tmp_path) is not None, op["name"]


@pytest.mark.parametrize("fault", FAULTS)
def test_metric_greedy_fault_fails(tmp_path, fault):
    (op,), (rec,) = _run("metric-greedy", tmp_path, names={"doubling"})
    assert _check("metric-greedy", op, rec, tmp_path) is None
    _rewrite_csv(output_path(op, tmp_path), fault)
    assert _check("metric-greedy", op, rec, tmp_path) is not None


def test_verify_flipped_report_fails(tmp_path):
    first = f"verify-{verify_seeds(DEFAULT_SEED)[0]}-thm31"
    (op,), (rec,) = _run("verify", tmp_path, names={first})
    assert _check("verify", op, rec, tmp_path) is None
    path = output_path(op, tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace(" pass ", " fail ", 1)
    path.write_text("\n".join(lines) + "\n")
    assert _check("verify", op, rec, tmp_path) is not None


def test_nonzero_exit_fails(tmp_path):
    ops, records = _run("shift-exact", tmp_path, names={"drift-2"}, n_range=[4, 8])
    assert _check("shift-exact", ops[0], {**records[0], "rc": 1}, tmp_path) is not None
