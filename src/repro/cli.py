"""Command-line entry point: regenerate the paper's evaluation from the shell.

Examples::

    python -m repro list
    python -m repro figures fig7 fig9b --scale quick --chart
    python -m repro figures --out benchmarks/results
    python -m repro config --nodes 8 > cluster.json
    python -m repro config --load cluster.json
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from typing import List, Optional

from repro.config import ClusterConfig
from repro.harness import ascii_chart, format_table
from repro.harness.figures import FIGURES, SCALES, run_figure


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures from the FW-KV paper (simulated).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the figures, ablations and extensions")

    config = sub.add_parser(
        "config",
        help="print a ClusterConfig as JSON (to_dict/from_dict round-trip)",
    )
    config.add_argument("--nodes", type=int, default=4,
                        help="num_nodes for a freshly defaulted config")
    config.add_argument("--load", type=str, default=None,
                        help="JSON file (full or partial overlay) to "
                             "validate via from_dict and echo back "
                             "normalised; unknown keys fail loudly")

    figures = sub.add_parser(
        "figures", help="run figures through the oracle, check their shapes")
    figures.add_argument("names", nargs="*", metavar="NAME",
                         help="entries to run (default: all; see list)")
    figures.add_argument("--scale", choices=SCALES, default="default")
    figures.add_argument("--seed", type=int, default=1)
    figures.add_argument("--trials", type=int, default=1,
                         help="runs averaged per point (the paper uses 5)")
    figures.add_argument("--out", help="directory for <name>.<scale>.txt and .csv")
    figures.add_argument("--chart", action="store_true", help="also print ASCII charts")
    return parser


def _chart(rows, columns) -> Optional[str]:
    y = next((c for c in ("throughput_ktps", "abort_rate", "mean_antidep",
                          "slowdown_pct") if c in columns), None)
    x = next((c for c in ("nodes", "keys", "w_per_node", "delay_us", "ro", "variant",
                          "distribution", "protocol") if c in columns), None)
    if not (x and y):
        return None
    return ascii_chart(rows, x, y, lambda r: str(r.get("protocol", r.get("figure", ""))),
                       title=f"{y} by {x}")


def run_figures(args: argparse.Namespace) -> int:
    """Run, print and optionally persist each figure; 1 if a shape failed."""
    failed = 0
    for name in args.names or FIGURES:
        figure = FIGURES[name]
        rows = run_figure(name, args.scale, args.seed, args.trials)
        columns = list(figure.columns) + ["oracle"] + ["trials"] * (args.trials > 1)
        try:
            figure.shape(rows)
            verdict = "shape: held"
        except AssertionError as error:  # the failed assert's line says what
            claim = traceback.extract_tb(error.__traceback__)[-1].line
            verdict, failed = f"shape: FAILED -- {claim} {error}".rstrip(), failed + 1
        text = f"{format_table(rows, columns, title=figure.title)}\n{verdict}"
        print(text, end="\n\n")
        chart = _chart(rows, columns) if args.chart else None
        if chart:
            print(chart, end="\n\n")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            stem = os.path.join(args.out, f"{name}.{args.scale}")
            with open(f"{stem}.txt", "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            with open(f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
                writer.writeheader()
                writer.writerows(rows)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name, figure in FIGURES.items():
            print(f"{name:28s} {figure.title}")
        return 0
    if args.command == "config":
        if args.load is not None:
            with open(args.load, encoding="utf-8") as fh:
                config = ClusterConfig.from_dict(json.load(fh))
        else:
            config = ClusterConfig(num_nodes=args.nodes)
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        return 0
    unknown = [name for name in args.names if name not in FIGURES]
    if unknown or args.trials < 1:
        parser.error(f"unknown figures {unknown}" if unknown else "--trials must be >= 1")
    return run_figures(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
