"""Command line front end.

Subcommands:

* ``estimate``  growth tables, pressure curves, and dimension estimates for
  one (system, potential) pair described by a JSON config.
* ``verify``    run a named verification suite and report pass/fail lines.
* ``sweep``     pressure values over an explicit grid of s exponents.
* ``oracle``    brute-force cross-checks of the greedy bounds on small
  random instances.

All output is deterministic for a fixed config and seed.  CSV columns are
``system,potential,estimator,n,scale,s,log_value,pressure_estimate,exact``;
floats are written with ``repr`` so values round-trip exactly.

Exit codes: 0 success, 1 verification or sandwich failure, 2 usage or
config error (an unwritable --out among them, and in ``estimate`` and
``sweep`` a weight or log value that leaves float range), 3 candidate,
enumeration, transfer-state, orbit-array, grid or Bowen-relation budget
exceeded.  No config is refused for its candidate count alone: a Bowen
relation walk refuses before its first step when it would step more than
2^27 pairs (what 2 GiB keeps at 16 bytes each), and stops before the pairs
it keeps pass 2 GiB.  An eps grid capped at the candidate budget short of
its scale still runs, with one warning line on stderr: its samples are not
bounds.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import re
import sys
from types import SimpleNamespace

import numpy as np

from .theorems import SUITE_NAMES, run_suite
from .dimension import (
    DEFAULT_S_GRID,
    GrowthTable,
    classify_jump,
    growth_tables,
    largest_dimension,
    pressure_curves,
)
from .partition import (
    ORACLE_CAP,
    Estimator,
    exact_optima,
    greedy_optima,
    make_families,
)
from .potentials import (
    Birkhoff,
    ConstantDrift,
    MatrixCocycle,
    add,
    scale,
    symbol_weights,
    zero_potential,
)
from .symbolic import MAX_SCALE_INDEX, NotLocallyConstantError, deflated_scale
from .systems import (
    BudgetExceededError,
    Contraction,
    DoublingMap,
    FullShift,
    Rotation,
    SFT,
    ShiftSystem,
    System,
    WordGrid,
    _check_array_budget,
    real,
)

CSV_HEADER = ("system", "potential", "estimator", "n", "scale", "s",
              "log_value", "pressure_estimate", "exact")


class ConfigError(Exception):
    pass


# 8-byte words per grid list entry: a pointer and a 32-byte int or float
_LIST_ENTRY_WORDS = 5
# Largest n: growth tables read n as a float, which holds every integer up to 2^53
_MAX_N = 2**53
# Oracle trials drawn and built at a time, so that memory stays flat in --trials
ORACLE_BATCH = 256


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# config parsing


def load_config(path: str) -> dict:
    """Read a config, check its keys, and replace the optional ones by parsed values."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError("config nests too deeply to read")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"system", "potential", "n_range", "scales", "s_grid",
               "budget", "estimators", "max_rows", "window_frac"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("system", "n_range", "scales"):
        if key not in cfg:
            raise ConfigError(f"config key {key!r} is required")
    cfg["budget"] = _int_option(cfg, "budget", 2_000_000, minimum=1)
    cfg["max_rows"] = _int_option(cfg, "max_rows", None, minimum=0)
    cfg["estimators"] = _parse_estimators(cfg.get("estimators", [3, 2]))
    try:
        cfg["window_frac"] = _finite(cfg.get("window_frac", 0.5))
    except (ValueError, OverflowError):
        cfg["window_frac"] = math.nan
    if not 0.0 < cfg["window_frac"] <= 1.0:
        raise ConfigError("window_frac must be a number in (0, 1]")
    cfg["s_grid"] = _parse_s_grid(cfg.get("s_grid"))
    return cfg


def _int_option(cfg: dict, key: str, default: int | None, minimum: int) -> int | None:
    raw = cfg.get(key, default)
    if raw is None and default is None:
        return None
    try:
        value = _integer(raw)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {raw!r}")
    return value


def _parse_estimators(raw) -> list[Estimator]:
    # both scale paths produce spanning (2) and separated (3) samples only
    try:
        ests = [Estimator(_integer(v)) for v in raw] if isinstance(raw, list) else []
    except ValueError:
        ests = []
    if not ests or any(e not in (Estimator.SPANNING, Estimator.SEPARATED) for e in ests):
        raise ConfigError(
            f"estimators must list 2 (spanning) and/or 3 (separated), got {raw!r}; "
            "the cover estimators 1 and 4 are not computed"
        )
    return ests


def _integer(v) -> int:
    """``int(v)`` for an integer or integral float; ValueError for booleans and the rest."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v % 1:
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _finite(v) -> float:
    """``float(v)`` for a finite int or float; ValueError for booleans, strings and the rest."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{v!r} is not a number")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{v!r} is not a finite number")
    return x


def _spec_kind(spec: dict, what: str, keys: dict, extra: frozenset = frozenset()) -> str:
    """The spec's kind; refuses an unknown kind and a key that the kind does not read."""
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    if unread := set(spec) - keys[kind] - extra - {"kind"}:
        raise ConfigError(f"{what} kind {kind!r} does not read {sorted(unread)}")
    return kind


# the keys each system kind reads, besides "kind"
_SYSTEM_KEYS = {"full_shift": {"k"}, "sft": {"matrix"}, "doubling": set(),
                "rotation": {"theta"}, "contraction": {"c", "fixed"}}


def build_system(spec: dict) -> System:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("system must be an object with a 'kind'")
    kind = _spec_kind(spec, "system", _SYSTEM_KEYS)
    try:
        if kind == "full_shift":
            return FullShift(_integer(spec.get("k", 2)))
        if kind == "sft":
            return SFT(tuple(tuple(_integer(v) for v in row) for row in spec["matrix"]))
        if kind == "doubling":
            return DoublingMap()
        if kind == "rotation":
            return Rotation(_finite(spec.get("theta", 0.125)))
        if kind == "contraction":
            return Contraction(_finite(spec.get("c", 0.5)), _finite(spec.get("fixed", 0.0)))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad system spec: {e}")


# deepest sum and scale nesting of a potential spec, well inside the recursion limit
MAX_POTENTIAL_DEPTH = 100


def _check_potential_depth(spec) -> None:
    # a k-term sum folds left, so its first term sits k - 1 sums deep; a stack,
    # not recursion, so that a spec of any depth is measured
    stack = [(spec, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_POTENTIAL_DEPTH:
            raise ConfigError(f"potential nests sum and scale over {MAX_POTENTIAL_DEPTH} deep")
        if isinstance(node, dict) and node.get("kind") in ("sum", "scale"):
            terms = node.get("terms") if node["kind"] == "sum" else [node.get("inner")]
            if isinstance(terms, list):
                stack += [(t, depth + max(1, len(terms) - max(i, 1))) for i, t in enumerate(terms)]


# coordinate functions of arrays: one value per coordinate
_BIRKHOFF_FNS = {
    "x": lambda x: x,
    "cos2pi": lambda x: np.cos(2.0 * np.pi * x),
}


# the keys each potential kind reads, besides "kind"; "lo" and "hi" only
# with "fn": "indicator"
_POTENTIAL_KEYS = {"zero": set(), "constant_drift": {"a"}, "symbol_weights": {"table"},
                   "birkhoff": {"fn"}, "matrix_cocycle": {"mats"}, "sum": {"terms"},
                   "scale": {"lam", "inner"}}


def build_potential(spec: dict | None, system: System):
    if spec is None:
        return zero_potential(system)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("potential must be an object with a 'kind'")
    indicator = spec["kind"] == "birkhoff" and spec.get("fn") == "indicator"
    kind = _spec_kind(spec, "potential", _POTENTIAL_KEYS,
                      frozenset({"lo", "hi"} if indicator else ()))
    try:
        if kind == "zero":
            return zero_potential(system)
        if kind == "constant_drift":
            return ConstantDrift(_finite(spec["a"]), system)
        if kind == "symbol_weights":
            if not isinstance(system, ShiftSystem):
                raise ConfigError("symbol_weights needs a shift system")
            return symbol_weights(system, [_finite(v) for v in spec["table"]])
        if kind == "birkhoff":
            fn_name = spec.get("fn", "x")
            if fn_name == "indicator":
                lo, hi = _finite(spec["lo"]), _finite(spec["hi"])
                fn = lambda x, lo=lo, hi=hi: np.where((lo <= x) & (x < hi), 1.0, 0.0)
            elif fn_name in _BIRKHOFF_FNS:
                fn = _BIRKHOFF_FNS[fn_name]
            else:
                raise ConfigError(f"unknown birkhoff fn {fn_name!r}")
            if isinstance(system, ShiftSystem):
                raise ConfigError("birkhoff coordinate functions need a metric system")
            return Birkhoff(phi=fn, system=system, name=fn_name)
        if kind == "matrix_cocycle":
            if not isinstance(system, ShiftSystem):
                raise ConfigError("matrix_cocycle needs a shift system")
            mats = tuple([[_finite(v) for v in row] for row in m] for m in spec["mats"])
            return MatrixCocycle(mats, system)
        if kind == "sum":
            terms = [build_potential(t, system) for t in spec["terms"]]
            out = terms[0]
            for t in terms[1:]:
                out = add(out, t)
            return out
        if kind == "scale":
            return scale(_finite(spec["lam"]), build_potential(spec["inner"], system))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
        raise ConfigError(f"bad potential spec: {e}")


def _parse_n_range(spec) -> list[int]:
    try:
        if isinstance(spec, list):
            ns = [_integer(v) for v in spec]
        elif isinstance(spec, dict):
            start, stop = _integer(spec["start"]), _integer(spec["stop"])
            span = range(start, stop + 1, _integer(spec.get("step", 1)))  # stop is inclusive
            _check_array_budget(len(span), _LIST_ENTRY_WORDS, f"n_range of {len(span)} entries")
            ns = list(span)
        else:
            raise ConfigError("n_range must be a list or {start, stop, step}")
    except KeyError as e:
        raise ConfigError(f"n_range needs {e} key")
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad n_range: {e}")
    if not ns or ns[0] < 1 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ConfigError("n_range must be strictly increasing positive integers")
    if ns[-1] > _MAX_N:
        raise ConfigError(f"n_range entries must be at most 2^53, got {ns[-1]}")
    return ns


def _parse_scales(spec) -> tuple[str, list]:
    if not isinstance(spec, dict) or set(spec) not in ({"k"}, {"eps"}):
        raise ConfigError("scales must be {'k': [...]} or {'eps': [...]}")
    [(mode, raw)] = spec.items()
    eps_rule = "eps scales must be positive and finite"
    try:
        values = [_integer(v) if mode == "k" else _finite(v) for v in raw]
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(eps_rule if mode == "eps" else f"bad scales.k: {e}")
    if mode == "k" and any(not 0 <= k <= MAX_SCALE_INDEX for k in values):
        # past it the scale of index k is not below 2^-k
        raise ConfigError(f"scale indices must be in [0, {MAX_SCALE_INDEX}]")
    if mode == "eps" and any(e <= 0.0 for e in values):
        raise ConfigError(eps_rule)
    if len(set(values)) != len(values):
        raise ConfigError(f"scales.{mode} must not repeat a value")
    return mode, values


def _parse_s_grid(spec) -> list[float]:
    if spec is None:
        return list(DEFAULT_S_GRID)
    try:
        if isinstance(spec, list):
            out = [_finite(v) for v in spec]
        elif isinstance(spec, dict):
            start, stop = _finite(spec["start"]), _finite(spec["stop"])
            steps = _integer(spec["steps"])
            _check_array_budget(steps, _LIST_ENTRY_WORDS, f"s_grid of {steps} steps")
            out = [float(v) for v in np.linspace(start, stop, steps)]
        else:
            raise ConfigError("s_grid must be a list or {start, stop, steps}")
    except KeyError as e:
        raise ConfigError(f"s_grid needs {e} key")
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad s_grid: {e}")
    if any(s <= 0 for s in out):
        raise ConfigError("s exponents must be positive")
    return out


# ---------------------------------------------------------------------------
# table construction shared by estimate and sweep


def _collect_tables(cfg: dict) -> tuple[System, object, list[GrowthTable]]:
    system = build_system(cfg["system"])
    _check_potential_depth(cfg.get("potential"))
    potential = build_potential(cfg.get("potential"), system)
    ns = _parse_n_range(cfg["n_range"])
    mode, scales = _parse_scales(cfg["scales"])
    if mode == "k" and not isinstance(system, ShiftSystem):
        raise ConfigError("integer scale indices need a shift system")
    try:
        tables = growth_tables(system, potential, ns, mode, scales,
                               cfg["estimators"], cfg["budget"])
    except NotLocallyConstantError as e:
        raise ConfigError(f"the scales.k path needs an exact shift profile: {e}")
    # a sample's one note is "uncertified-candidates"
    if thin := list(dict.fromkeys((s.n, s.scale) for t in tables for s in t.samples if s.note)):
        print(f"warning: {len(thin)} candidate grids capped at the budget of {cfg['budget']} "
              f"points are coarser than their scale (first n={thin[0][0]} eps={thin[0][1]!r}); "
              "their samples are not bounds", file=sys.stderr)
    return system, potential, tables


def _sample_rows(system, potential, tables) -> list[tuple]:
    rows = []
    for table in tables:
        for s in table.samples:
            rows.append((system.label, potential.label, int(s.estimator), s.n,
                         _fmt(float(s.scale)), "", _fmt(float(s.log_value)), "",
                         _fmt(bool(s.exact))))
    return rows


def _pressure_rows(system, potential, curves) -> list[tuple]:
    rows = []
    for curve in curves:
        for s, v in zip(curve.s_grid, curve.values):
            rows.append((system.label, potential.label, int(curve.estimator), "",
                         "", _fmt(float(s)), "", _fmt(float(v)), ""))
    return rows


@contextlib.contextmanager
def _open_out(path: str, newline: str | None = None):
    """Open an output file; one that cannot be opened, written or closed is a usage error."""
    try:
        with open(path, "w", newline=newline) as f:
            yield f
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}")


def _write_csv(path: str, rows: list[tuple], max_rows: int | None) -> None:
    truncated = max_rows is not None and len(rows) > max_rows
    if truncated:
        rows = rows[:max_rows]
    with _open_out(path, newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_HEADER)
        w.writerows(rows)
        if truncated:
            w.writerow(("TRUNCATED", "", "", "", "", "", "", "", ""))


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    window_frac = cfg["window_frac"]
    system, potential, tables = _collect_tables(cfg)
    curves = pressure_curves(tables, cfg["s_grid"], window_frac)
    try:
        bests = [largest_dimension([t for t in tables if t.samples[0].estimator == c.estimator],
                                   window_frac) for c in curves]
    except ValueError as e:
        raise ConfigError(f"window_frac: {e}")

    rows = _sample_rows(system, potential, tables) + _pressure_rows(system, potential, curves)
    _write_csv(args.out, rows, cfg["max_rows"])

    print(f"system={system.label} potential={potential.label} rows={len(rows)}")
    for curve, best in zip(curves, bests):
        if best is not None:
            print(f"estimator={int(curve.estimator)} dimension={best.s0_hat!r} "
                  f"window=[{best.window[0]}..{best.window[1]}] "
                  f"stderr={best.stderr!r} method={best.method}")
        jump = classify_jump(curve)
        lo, hi = jump.bracket
        print(f"estimator={int(curve.estimator)} jump_bracket=[{lo!r}, {hi!r}] "
              f"monotone={str(jump.monotone).lower()}")
    return 0


def cmd_sweep(args) -> int:
    if args.steps < 2 or not 0.0 < args.s_min < args.s_max < math.inf:
        raise ConfigError("sweep needs 0 < s-min < s-max < inf and steps >= 2")
    cfg = load_config(args.config)
    _check_array_budget(args.steps, _LIST_ENTRY_WORDS, f"s grid of {args.steps} steps")
    s_grid = [float(v) for v in np.linspace(args.s_min, args.s_max, args.steps)]
    system, potential, tables = _collect_tables(cfg)
    curves = pressure_curves(tables, s_grid, cfg["window_frac"])
    rows = _pressure_rows(system, potential, curves)
    _write_csv(args.out, rows, cfg["max_rows"])
    print(f"system={system.label} potential={potential.label} rows={len(rows)}")
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed)
    lines = [r.line() for r in reports]
    text = "\n".join(lines) + "\n"
    if args.out:
        with _open_out(args.out) as f:
            f.write(text)
    sys.stdout.write(text)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def cmd_oracle(args) -> int:
    if args.max_points > ORACLE_CAP:
        raise ConfigError(f"oracle supports at most {ORACLE_CAP} candidate points")
    if args.max_points < 3 or args.trials < 1:  # each instance draws 3 to max-points points
        raise ConfigError("need max-points >= 3 and trials >= 1")
    rng = np.random.default_rng(args.seed)
    shift = FullShift(2)
    all_words = WordGrid(shift, shift.word_rows(5))

    def draw():
        for trial in range(args.trials):
            if trial % 2 == 0:
                system = Rotation(float(rng.uniform(0.05, 0.45)))
                size = int(rng.integers(3, args.max_points + 1))
                pts = [real(float(v)) for v in rng.random(size)]
                a, b = rng.normal(scale=0.5, size=2)
                pot = Birkhoff(
                    phi=lambda x, a=a, b=b: a * np.cos(2 * np.pi * x) + b,
                    system=system, name="trig")
                n = int(rng.integers(1, 5))
                eps = float(rng.uniform(0.05, 0.45))
            else:
                system = shift
                size = int(rng.integers(3, min(args.max_points, 16) + 1))
                idx = rng.choice(len(all_words), size=size, replace=False)
                pts = [all_words[i] for i in sorted(idx)]
                table = rng.normal(scale=0.5, size=2)
                pot = symbol_weights(shift, table)
                n = int(rng.integers(1, 4))
                eps = deflated_scale(int(rng.integers(0, 3)))
            yield system, pts, [(n, eps)], [pot]

    sep_gaps, span_gaps = [], []
    worst_sandwich = -math.inf
    trials = draw()
    while drawn := list(itertools.islice(trials, ORACLE_BATCH)):
        insts = [inst for [[inst]] in make_families(drawn)]
        seps = exact_optima(insts, Estimator.SEPARATED)
        spans = exact_optima(insts, Estimator.SPANNING)
        greedy_seps = greedy_optima(insts, Estimator.SEPARATED)
        greedy_spans = greedy_optima(insts, Estimator.SPANNING)
        for exact_sep, exact_span, greedy_val, greedy_span in zip(seps, spans, greedy_seps,
                                                                  greedy_spans):
            sep_gaps.append(exact_sep - greedy_val)
            span_gaps.append(greedy_span - exact_span)
            worst_sandwich = max(
                worst_sandwich,
                greedy_val - exact_sep,       # greedy lower bound must not exceed optimum
                exact_span - exact_sep,       # spanning optimum sits below separated optimum
                exact_span - greedy_span,     # greedy cover must not undercut optimum
            )
    print(f"trials={args.trials} max_points={args.max_points} seed={args.seed}")
    print(f"separated gap: mean={float(np.mean(sep_gaps))!r} max={float(np.max(sep_gaps))!r}")
    print(f"spanning gap: mean={float(np.mean(span_gaps))!r} max={float(np.max(span_gaps))!r}")
    print(f"worst sandwich violation: {float(worst_sandwich)!r}")
    if worst_sandwich > 1e-9:
        print("sandwich violated", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argv


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take only integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(f"must be an integer >= 0, got {text!r}")
    return value


# Each subcommand: its handler, its help line and its options.  Each option:
# (name, type or tuple of choices, default, required, help).
COMMANDS = {
    "estimate": (cmd_estimate, "growth tables and dimension estimates", (
        ("--config", str, None, True, "JSON config path"),
        ("--out", str, None, True, "CSV output path"),
    )),
    "verify": (cmd_verify, "run a verification suite", (
        ("--suite", SUITE_NAMES + ("all",), None, True, "suite to run, or all of them"),
        ("--seed", _seed, 0, False, "seed of the random trials, an integer >= 0"),
        ("--out", str, None, False, "also write the report lines to this file"),
    )),
    "sweep": (cmd_sweep, "pressure values over a grid of s exponents", (
        ("--config", str, None, True, "JSON config path"),
        ("--s-min", float, None, True, "first s exponent"),
        ("--s-max", float, None, True, "last s exponent"),
        ("--steps", int, None, True, "number of s exponents, at least 2"),
        ("--out", str, None, True, "CSV output path"),
    )),
    "oracle": (cmd_oracle, "brute-force cross-checks on small instances", (
        ("--max-points", int, 12, False, f"most candidate points in an instance, 3 to {ORACLE_CAP}"),
        ("--trials", int, 50, False, "number of random instances"),
        ("--seed", _seed, 0, False, "seed of the random instances, an integer >= 0"),
    )),
}

_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: pdim [-h] {" + ",".join(COMMANDS) + "} ..."
    words = ["usage: pdim", command, "[-h]"]
    for name, kind, _, required, _ in COMMANDS[command][2]:
        words.append(f"{name} {_metavar(name, kind)}" if required
                     else f"[{name} {_metavar(name, kind)}]")
    return " ".join(words)


def _metavar(name: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return name[2:].replace("-", "_").upper()


def _help(command: str | None) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        about = "Pressure-dimension estimation for model dynamical systems."
        sections = {"commands": [(name, entry[1]) for name, entry in COMMANDS.items()],
                    "options": rows}
    else:
        _, about, options = COMMANDS[command]
        rows += [(f"{name} {_metavar(name, kind)}",
                  text if default is None else f"{text} (default: {default})")
                 for name, kind, default, _, text in options]
        sections = {"options": rows}
    lines = [_usage(command), "", about]
    for title, section in sections.items():
        lines += ["", f"{title}:"]
        # help text from column 24, on a line of its own past a long left side
        lines += [f"  {left:<20}  {text}" if len(left) <= 20 else f"  {left}\n{'':24}{text}"
                  for left, text in section]
    return "\n".join(lines) + "\n"


def _fail(command: str | None, message: str):
    prog = "pdim" if command is None else f"pdim {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _split(arg: str, names) -> tuple[str | None, str | None] | None:
    """``(name, value)`` for an option string, None for a value.

    ``name`` is None for an option that is not in ``names``, and ``value`` is
    None unless the string gives it after ``=``.  A string is a value if it
    does not start with ``-``, or is ``-`` alone, a negative number, or
    holds a space.
    """
    if arg in names:
        return arg, None
    if len(arg) < 2 or arg[0] != "-":
        return None
    name, eq, value = arg.partition("=")
    if eq and name in names:
        return name, value
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _read(command: str, name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            _fail(command, f"argument {name}: invalid choice: {text!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ConfigError as e:
        _fail(command, f"argument {name}: {e}")
    except (TypeError, ValueError):
        _fail(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _help_exit(command: str | None, value: str | None):
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace the ``cmd_*`` handlers read, from argv past the program name.

    Options are read as ``--name value`` or ``--name=value`` in any order,
    with no prefix abbreviations; the last repeat wins, and a value after a
    space may look like an option only if it is a negative number.  ``--``
    and every string after it are unrecognised.
    ``-h`` prints help and exits 0; a usage error prints a usage line and an
    ``error:`` line on stderr and exits 2.
    """
    unrecognised = []
    for i, arg in enumerate(argv):
        # "--" with anything after it is read as the command, an unknown one
        option = _split(arg, _HELP) if arg != "--" or i + 1 == len(argv) else None
        if option is None:
            command = arg
            break
        if option[0] is not None:
            _help_exit(None, option[1])
        unrecognised.append(arg)
    else:
        _fail(None, "the following arguments are required: command")
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, _, options = COMMANDS[command]
    kinds = {name: kind for name, kind, *_ in options}
    names = set(kinds).union(_HELP)
    values = {name: default for name, _, default, _, _ in options}
    seen = set()
    rest = iter(argv[i + 1:])
    for arg in rest:
        if arg == "--":
            unrecognised += [arg, *rest]
            break
        option = _split(arg, names)
        if option is None or option[0] is None:
            unrecognised.append(arg)
            continue
        name, value = option
        if name in _HELP:
            _help_exit(command, value)
        if value is None:
            value = next(rest, None)
            if value is None or _split(value, names) is not None:
                _fail(command, f"argument {name}: expected one argument")
        values[name] = _read(command, name, kinds[name], value)
        seen.add(name)
    if missing := [name for name, _, _, required, _ in options if required and name not in seen]:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognised:
        _fail(None, f"unrecognized arguments: {' '.join(unrecognised)}")
    return SimpleNamespace(command=command, func=handler,
                           **{name[2:].replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    # a config's numbers can push a weight or log value past float range
    checked = {"over": "raise", "invalid": "raise"} if args.command in ("estimate", "sweep") else {}
    try:
        with np.errstate(**checked):
            return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as e:
        print(f"error: a weight or log value leaves float range ({e})", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
