#!/usr/bin/env python3
"""Reproduce the oscillatory-differentiation error study.

Runs the six headline formulas (plain backward orders 6/10, backward-centered
orders 6/10, interior-centered orders 6/10) on sin(100*pi*x) and
sin(1000*pi*x) at x0 = 0, writes one CSV per formula plus a gnuplot script
per function, and prints the fitted convergence orders.

BC6 and BC10 flatten to the central differences of orders 6 and 10, and IC6
and IC10 to the C6 and C10 stencils, so the BC rows measure central
differences and the IC rows measure the C stencils.

Usage:
    python scripts/run_error_study.py [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from fdcorr.cli import main as fdcorr_main

FORMULAS = "B6,B10,BC6,BC10,IC6,IC10"

CASES = {
    # h grids start where the slowest curve is asymptotic and end past the
    # roundoff plateau of the most accurate one
    "sin100pi": ("1e-3", "2e-6"),
    "sin1000pi": ("1e-4", "2e-7"),
}


def run(out_root: Path) -> int:
    status = 0
    for function, (h_max, h_min) in CASES.items():
        out_dir = out_root / function
        print(f"== {function} -> {out_dir}")
        status |= fdcorr_main(
            [
                "study",
                FORMULAS,
                function,
                "0",
                "--csv-dir",
                str(out_dir),
                "--h-max",
                h_max,
                "--h-min",
                h_min,
                "--gnuplot",
            ]
        )
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="study-output", help="output directory")
    args = parser.parse_args()
    sys.exit(run(Path(args.out)))
