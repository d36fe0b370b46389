"""One fresh benchmark process: import pdim, then run the given operations.

Usage: ``python3 bench/child.py SPEC.json`` or ``python3 bench/child.py
--import-only``.  SPEC names the argv of each operation, the result file,
and, when tracing, the span file.  The first statement after the imports
records when ``pdim.cli`` became usable, so the parent can time set-up from
spawn to import.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import pdim.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

CAL_REPEATS = 2
_CAL_POINTS = np.random.default_rng(0).random((100, 40))
_CAL_BITS = (1 << 2000) - 12345


def _calibration_loop() -> int:
    """Fixed work of the three kinds pdim spends its time on.

    An interpreter loop, a broadcast distance reduction over a few MB of
    floats, and big-integer bit scans: a shared host slows them by different
    factors, so the loop holds one of each.
    """
    total = 0
    for i in range(20000):
        total += i * i % 7
    total += int(np.abs(_CAL_POINTS[:, None, :] - _CAL_POINTS[None, :, :]).max(axis=2).sum())
    for i in range(2000):
        total += ((_CAL_BITS >> (i % 64)) & _CAL_BITS).bit_count()
    return total


def calibrate() -> float:
    """Seconds the calibration loop takes now, the fastest of a few repeats.

    A shared host's speed moves by half again for seconds at a time; the
    loop, run next to an operation in the same process, measures that speed.
    """
    best = float("inf")
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def run_ops(argvs: list[list[str]], tracer=None, calibrated: bool = False) -> list[dict]:
    """Call ``pdim.cli.main`` once per argv; stdout of each call is discarded.

    With ``calibrated``, each record also has ``cal_before`` and
    ``cal_after``: :func:`calibrate` just before and just after the call.
    """
    records = []
    cal = None
    if calibrated:
        _calibration_loop()  # the first call pays page faults for its arrays
        cal = calibrate()
    for argv in argvs:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                rc = pdim.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        record = {"rc": rc, "error": error, "seconds": time.perf_counter() - start}
        if calibrated:
            record["cal_before"], cal = cal, calibrate()
            record["cal_after"] = cal
        records.append(record)
    return records


def main() -> int:
    if sys.argv[1:] == ["--import-only"]:
        return 0
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    tracer = None
    if spec.get("spans_out"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    records = run_ops(spec["argvs"], tracer, calibrated=True)
    result = {
        "imported_at": IMPORTED_AT,
        "ops": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        with open(spec["spans_out"], "w") as f:
            json.dump(tracer.spans, f)
    with open(spec["result_out"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
