"""Command-line entry points: ``simulate`` and ``verify``.

Exit codes: 0 success, 2 configuration error, 3 assertion failure under
``--assert`` (and nonzero from ``verify`` when a criterion fails).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError
from .parallel import default_threads


def build_parser():
    parser = argparse.ArgumentParser(
        prog="branchsim",
        description="Monte Carlo experiments on branching Markov processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment from a YAML spec file")
    sim.add_argument("spec_file", help="YAML experiment spec")
    sim.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a spec key (dotted paths, e.g. motion.lambda=2.0)",
    )
    sim.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker process count (default: the spec's threads, 1 if unset)",
    )
    sim.add_argument(
        "--assert",
        dest="do_assert",
        action="store_true",
        help="exit 3 when any built-in consistency check fails",
    )
    sim.add_argument("--out", default=None, help="output directory for CSV + JSON sidecar")

    ver = sub.add_parser("verify", help="run the self-check battery")
    ver.add_argument("--level", choices=("quick", "full"), default="quick")
    ver.add_argument("--threads", type=int, default=None)
    return parser


def _parse_overrides(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value
    return out


def _cmd_simulate(args) -> int:
    from .experiments import load_spec, run_experiment

    spec = load_spec(args.spec_file, _parse_overrides(args.overrides))
    if args.threads is not None:
        from dataclasses import replace

        spec = replace(spec, threads=args.threads)
    out_dir = args.out if args.out is not None else spec.out
    code, csv_text, meta = run_experiment(spec, do_assert=args.do_assert, out_dir=out_dir)
    sys.stdout.write(csv_text)
    for check in meta["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"[{verdict}] {check['name']}: {check['detail']}", file=sys.stderr)
    return code


def _cmd_verify(args) -> int:
    from .verify import run_battery

    threads = args.threads if args.threads is not None else default_threads()
    return run_battery(level=args.level, threads=threads)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_verify(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
