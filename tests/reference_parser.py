"""The argparse parser that ``pdim`` used before its command table.

Tests read it as the reference for ``pdim.cli.parse_args``: the same exit
code for every argv, the same namespace where both parse, and the same
``error:`` line where argparse refuses.  It keeps argparse's prefix
abbreviations (``--conf`` for ``--config``), which ``pdim`` no longer reads.
"""

import argparse

from pdim.cli import cmd_estimate, cmd_oracle, cmd_sweep, cmd_verify
from pdim.theorems import SUITE_NAMES


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take only integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdim",
        description="Pressure-dimension estimation for model dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="growth tables and dimension estimates")
    p_est.add_argument("--config", required=True, help="JSON config path")
    p_est.add_argument("--out", required=True, help="CSV output path")
    p_est.set_defaults(func=cmd_estimate)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--out", help="also write the report lines to this file")
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="pressure values over a grid of s exponents")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--s-min", type=float, required=True)
    p_swp.add_argument("--s-max", type=float, required=True)
    p_swp.add_argument("--steps", type=int, required=True)
    p_swp.add_argument("--out", required=True)
    p_swp.set_defaults(func=cmd_sweep)

    p_orc = sub.add_parser("oracle", help="brute-force cross-checks on small instances")
    p_orc.add_argument("--max-points", type=int, default=12)
    p_orc.add_argument("--trials", type=int, default=50)
    p_orc.add_argument("--seed", type=_seed, default=0)
    p_orc.set_defaults(func=cmd_oracle)

    return parser
