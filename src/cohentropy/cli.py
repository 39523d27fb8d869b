"""Command-line scenario runner and acceptance gate.

    cohentropy run <config.json> [--out DIR] [--seed N]
    cohentropy verify [--out DIR] [--perturb CRITERION]

`run` executes one configured scenario and writes a time-series CSV plus a
structured-text summary; exit code 0 on all-pass, 2 on any invariant failure
or numerical failure (a numpy ``LinAlgError`` included), 1 on configuration or
output errors.  Outputs are written only after the computation completes, and
a failed write removes the files this run wrote, so failures never leave
partial files behind.  `verify` runs the
built-in acceptance suite and prints one line per criterion; its `--out`
write fails the same way, as an output error with exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .exceptions import CohentropyError, ConfigError
from .scenarios import config_from_json, run_scenario_config


def _write_outputs(texts: dict[Path, str]) -> bool:
    """Write each text to its path; on OSError remove what was written, report, return False."""
    written: list[Path] = []
    try:
        for path, text in texts.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            written.append(path)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        cfg = config_from_json(path.read_text())
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_scenario_config(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (CohentropyError, np.linalg.LinAlgError) as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    csv_path = out_dir / "timeseries.csv"
    summary_path = out_dir / "summary.txt"
    if not _write_outputs({csv_path: result.csv_text, summary_path: result.summary_text}):
        return 1
    if result.invariant_failures:
        print(f"{result.invariant_failures} invariant failure(s); see {summary_path}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(perturb=args.perturb)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    summary = "\n".join(lines) + "\n"
    if args.out and not _write_outputs({Path(args.out) / "verify_summary.txt": summary}):
        return 1
    return 0 if all(r.passed for r in results) else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohentropy",
        description="Entropy-production decomposition scenarios for degenerate open systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("config", help="path to a JSON scenario configuration")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_run.add_argument("--seed", type=int, default=None, help="base seed override")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the built-in acceptance suite")
    p_verify.add_argument("--out", default=None, help="also write the summary to this directory")
    p_verify.add_argument("--perturb", default=None, metavar="CRITERION",
                          help="poison one criterion's tolerance (self-test; must fail)")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
