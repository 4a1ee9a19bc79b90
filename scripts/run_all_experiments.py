#!/usr/bin/env python3
"""Run every experiment config in this directory and collect the CSVs.

Usage: python scripts/run_all_experiments.py [output_dir]

Each ``scripts/*.cfg`` runs, in name order, under the subcommand of its
own ``experiment`` key and writes ``<config stem>.csv``.  The full set
takes a while at desk scale (the N = 320 steady solve and the T = 6
initialization study dominate); individual configs can be run directly
with the CLI, e.g.

    stokesproj steady-sweep --config scripts/fig1_linear.cfg --out fig1.csv

Each config's ``exit`` line also gives the process's peak resident set
size so far (``ru_maxrss``, KiB on Linux), the memory to weigh before
adding a config.
"""

import pathlib
import resource
import sys
import time

from stokesproj import cli


def main(argv):
    here = pathlib.Path(__file__).parent
    out_dir = pathlib.Path(argv[1]) if len(argv) > 1 else here.parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for config in sorted(here.glob("*.cfg")):
        try:
            command = cli.parse_config(config).kind.replace("_", "-")
        except cli.ConfigError as exc:
            print(f"config error in {config.name}: {exc}", file=sys.stderr)
            return 2
        out = out_dir / f"{config.stem}.csv"
        print(f"== {command} ({config.name}) -> {out}")
        t0 = time.time()
        code = cli.main([command, "--config", str(config), "--out", str(out)])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"   exit {code} in {time.time() - t0:.1f}s, peak RSS so far {peak:.0f} MB")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
