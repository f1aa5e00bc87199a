"""Command line entry point: ``lab <subcommand> --config <path>``.

Exit codes: 0 success; 2 invalid config, including a bad map or observable
parameter and a field the subcommand does not read; 3 experiment failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, LabError
from .runner import EXPERIMENTS, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Numerical laboratory for birational maps of the complex projective plane.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        updates = {"experiment": args.experiment}
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.out is not None:
            updates["output_dir"] = args.out
        config = load_config({**config.model_dump(mode="json", exclude_unset=True), **updates})
        manifest = run(config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"experiment failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    for name, digest in manifest["outputs"].items():
        print(f"{name}  sha256:{digest[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
