"""Command-line driver: kernel checks, identity suite, experiments.  The
argparse tree is built once per process, at the first `main` call, so callers
that run `main` many times in one process (tests, scripts) do not rebuild it."""
from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import sys

from . import __version__
from .admissibility import MAX_DEPTH, check_maximal_control
from .experiments import EXPERIMENTS
from .identities import run_identity_suite
from .kernels import KernelError, load_kernel_spec
from .polyalg import ParseError

# the options of `exp` that each experiment takes: its parameters, each the keyword of its option
EXP_OPTIONS = {name: tuple(inspect.signature(fn).parameters) for name, fn in EXPERIMENTS.items()}

# the least value of each integer option, per command
COUNT_FLOORS = {"identities": {"n_max": 2, "N_max": 1}}


def _cmd_check(args: argparse.Namespace) -> int:
    path = args.kernelfile
    try:
        kernel = load_kernel_spec(path)
        report = check_maximal_control(kernel)
    except (OSError, UnicodeDecodeError, KernelError, ParseError) as exc:
        where = f"{path}:{exc.line}" if isinstance(exc, ParseError) else path
        print(f"czkit: {where}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return 2
    print(report.format_text())
    if args.kv:
        print()
        print(report.format_kv())
    if report.verdict == "PASS":
        return 0
    if args.allow_fail and report.verdict.startswith("FAIL"):
        return 0
    return 1


def _cmd_identities(args: argparse.Namespace) -> int:
    total = failures = 0
    for r in run_identity_suite(args.n_max, args.N_max):
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name} [{r.params}]", flush=True)
        total += 1
        failures += not r.ok
    print(f"{total - failures}/{total} identities verified")
    return 0 if failures == 0 else 1


def _cmd_exp(args: argparse.Namespace) -> int:
    kwargs = {opt: getattr(args, opt) for opt in EXP_OPTIONS[args.name] if getattr(args, opt) is not None}
    try:
        os.makedirs(args.out, exist_ok=True)  # before the run, so a bad --out costs no run
        result = EXPERIMENTS[args.name](**kwargs)
        path = os.path.join(args.out, f"{result.name}.csv")
        result.to_csv(path)
    except (OSError, ValueError) as exc:
        print(f"czkit: exp {args.name}: {exc}", file=sys.stderr)
        return 2
    print(result.summary_text())
    print(f"rows written to {path}")
    ok = all(bool(v) for k, v in result.summary.items() if isinstance(v, bool))
    return 0 if ok else 1


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="czkit",
        description="Exact admissibility checks and numerical experiments for "
        "smooth homogeneous singular-integral kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check",
        help="run the divisor/non-vanishing check on a kernel file",
        description="Run the divisor/non-vanishing check on a kernel file.  The cube-sphere tree runs only "
        f"when deg F >= 4 and stops at depth {MAX_DEPTH}.",
    )
    p_check.add_argument("kernelfile")
    p_check.add_argument("--kv", action="store_true", help="also print a key=value block")
    p_check.add_argument("--allow-fail", action="store_true", help="exit 0 on a decisive FAIL verdict")
    p_check.set_defaults(fn=_cmd_check)

    p_id = sub.add_parser("identities", help="verify the exact identity suite")
    p_id.add_argument("--n-max", type=int, default=5)
    p_id.add_argument("--N-max", type=int, default=6)
    p_id.set_defaults(fn=_cmd_identities)

    p_exp = sub.add_parser("exp", help="run a numerical experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--out", default="out", help="output directory for CSV tables")
    p_exp.add_argument("--mesh", type=float, help="grid mesh (pointwise-ratios, beurling-composition)")
    p_exp.add_argument("--kernel", choices=("hilbert", "beurling"), help="operator (pointwise-ratios)")
    p_exp.set_defaults(fn=_cmd_exp)

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(fn=lambda a: (print(f"czkit {__version__}"), 0)[1])
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    for opt, least in COUNT_FLOORS.get(args.command, {}).items():
        value = getattr(args, opt)
        if value < least:
            commands[args.command].error(f"--{opt.replace('_', '-')} must be at least {least}, got {value}")
    if args.command == "exp":
        for opt in ("mesh", "kernel"):
            value = getattr(args, opt)
            if value is None:
                continue
            if opt not in EXP_OPTIONS[args.name]:
                commands["exp"].error(f"{args.name} does not take --{opt}")
            if opt != "kernel" and not 0 < value < math.inf:
                commands["exp"].error(f"--{opt} must be positive and finite, got {value}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
