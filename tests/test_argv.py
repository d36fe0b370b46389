"""argv parsing from ``cli.COMMANDS``, against the argparse parser it replaced."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest
from reference_parser import build_parser

from pdim import cli

REFERENCE = build_parser()
# each subcommand's options as the reference declares them
SUBPARSERS = REFERENCE._subparsers._group_actions[0].choices
OPTIONS = {command: [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
           for command, parser in SUBPARSERS.items()}

# (valid, invalid) values a test argv draws for an option of each type.  None
# is a prefix of an option (argparse reads "--o" as "--out", pdim does not),
# nor "--", which argparse turns into an empty list when given after "="
VALUES = {
    str: (["cfg.json", "o.csv", "x", "-1", "-2.5", "", "a b", "-x y", "-", "é"],
          ["--bogus", "-x", "--out", "-1e3", "-5."]),
    int: (["3", "12", "0", "-2", "+4", " 7", "1_0", "-0"],
          ["x", "1.5", "", "-1e3", "nan", "--bogus"]),
    float: (["0.5", "2", "-1", "-.5", "1e3", "nan", "inf", " 1.5", "1_0.5"],
            ["x", "", "-inf", "-1e3", "1.5.0", "-x"]),
    "seed": (["0", "3", "+2", "-0", "17"], ["-1", "x", "1.5", "-7", ""]),
}
EXTRAS = ["--bogus", "--bogus=1", "-x", "extra", "-1", "-h", "--help", "--", "--help=x",
          "-h=", "--seed=-1", "-"]


def _values(action):
    if action.choices:
        return list(action.choices), ["thm99", "", "ALL", "-1"]
    kind = action.type or str
    return VALUES["seed" if kind.__name__ == "_seed" else kind]


def random_argv(rng: random.Random) -> list[str]:
    command = rng.choice(list(OPTIONS))
    argv = []
    for action in OPTIONS[command]:
        if rng.random() > (0.9 if action.required else 0.6):
            continue
        for _ in range(2 if rng.random() < 0.15 else 1):
            good, bad = _values(action)
            value = rng.choice(bad if rng.random() < 0.15 else good)
            name = action.option_strings[0]
            argv.append([f"{name}={value}"] if rng.random() < 0.4 else [name, value])
    rng.shuffle(argv)
    argv = [arg for group in argv for arg in group]
    for _ in range(2):
        if rng.random() < 0.1:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(EXTRAS))
    if argv and rng.random() < 0.05:
        argv.pop()
    head = [command]
    if rng.random() < 0.04:
        head = [rng.choice(["bogus", "", "Estimate", "-1", "--"])]
    elif rng.random() < 0.04:
        head = []
    if rng.random() < 0.04:
        head.insert(0, rng.choice(["-x", "--bogus", "-h", "--help=x"]))
    return head + argv


def outcome(parse, argv):
    """``(0, namespace reprs)``, ``(0, "help")`` or ``(code, error line)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = parse(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return 0, "help" if out.getvalue() else ""
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: pdim"), err.getvalue()
        return exc.code, lines[-1]
    # reprs, so that a nan value equals itself
    return 0, {key: repr(value) for key, value in vars(namespace).items()}


def mismatches(argvs):
    return [(argv, want, got) for argv in argvs
            if (want := outcome(REFERENCE.parse_args, argv)) != (got := outcome(cli.parse_args, argv))]


ARGVS = [random_argv(random.Random(seed)) for seed in range(6000)]


def test_parse_args_matches_the_reference():
    assert mismatches(ARGVS)[:5] == []


def test_generated_argvs_reach_every_outcome():
    # the draw reaches each success and each kind of usage error
    outcomes = [outcome(REFERENCE.parse_args, argv) for argv in ARGVS]
    parsed = [out for code, out in outcomes if code == 0 and out != "help"]
    assert {out["command"] for out in parsed} == set(map(repr, cli.COMMANDS))
    assert (0, "help") in outcomes
    errors = " ".join(out for code, out in outcomes if code == 2)
    for kind in ["the following arguments are required: --config",
                 "the following arguments are required: command", "invalid choice",
                 "invalid int value", "invalid float value", "must be an integer >= 0",
                 "unrecognized arguments", "expected one argument",
                 "ignored explicit argument"]:
        assert kind in errors


def test_estimate_without_a_required_out_fails_the_comparison(monkeypatch):
    handler, about, options = cli.COMMANDS["estimate"]
    options = tuple((name, kind, default, name != "--out" and required, text)
                    for name, kind, default, required, text in options)
    monkeypatch.setattr(cli, "COMMANDS", dict(cli.COMMANDS, estimate=(handler, about, options)))
    assert mismatches(ARGVS)


def test_abbreviations_are_unrecognised(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--conf", "c.json", "--out", "o.csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "pdim estimate: error: the following arguments are required: --config\n")


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command_and_option(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag] if command is None else [command, flag])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: pdim")
    names = list(cli.COMMANDS) if command is None else [a.option_strings[0]
                                                         for a in OPTIONS[command]]
    for name in names + ["-h, --help"]:
        assert name in captured.out


def test_usage_error_prints_usage_and_error_lines(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", "c.json", "--steps", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: pdim sweep [-h] --config CONFIG --s-min S_MIN --s-max S_MAX --steps STEPS "
        "--out OUT\npdim sweep: error: argument --steps: invalid int value: 'x'\n")


def test_fresh_process_loads_no_parser(tmp_path):
    # one estimate and one verify in a fresh process import neither argparse
    # nor the gettext it loads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"kind": "full_shift", "k": 2},
                               "n_range": [2, 4, 6], "scales": {"k": [0]}}))
    code = textwrap.dedent("""
        import contextlib, io, sys
        from pdim.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["estimate", "--config", sys.argv[1], "--out", sys.argv[2]]),
                     main(["verify", "--suite", "thm35"])]
        print(codes, sorted({"argparse", "gettext"} & set(sys.modules)))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "o.csv")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.split("] ") == ["[0, 0", "[]\n"]
