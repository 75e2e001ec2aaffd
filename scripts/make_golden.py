#!/usr/bin/env python3
"""Write tests/golden.json: SHA-256 digests of what fdcorr's commands print and write.

Each entry holds a command line (its arguments joined by spaces; none holds
a space), its exit code, and the SHA-256 of its stdout and of every file it
writes, by path under the directory it ran in.  An entry whose command calls
``math.sin`` or ``math.cos`` also holds, under ``libm``, the SHA-256 of their
arguments and, apart, of their values: the study CSVs hold ``sin`` values, so
their digests hold only where the C library rounds ``sin`` and ``cos`` as it
did where the digests were made, which ``made_on`` names.
The corpus:

- ``commands``: ``stencil`` for the 22 ids the benchmark's ``deep`` workload
  can draw; ``coeffs`` for every family at p = 2, 7 and 20, with and without
  ``--json``; ``verify-all --max-order 40``; the benchmark's ``study``
  requests of seeds 1-3, with ``--gnuplot``; and the two studies of
  ``scripts/run_error_study.py``.  ``tests/test_golden.py`` reruns them in
  one process.
- ``widest``: ``stencil`` F200, C200, IC200 and BC200 (about 10 s), which
  CI's widest-formulas step compares.

A digest may change only in the change whose output moves it, with the
reason stated.

Usage:
    python scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

from fdcorr.cli import main as fdcorr_main
from fdcorr.defcor import FAMILIES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
WIDEST = ("F200", "C200", "IC200", "BC200")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def recording_libm(arguments: list[str], values: list[str]):
    """Append the repr of each ``math.sin`` and ``math.cos`` call's argument and value."""
    originals = math.sin, math.cos

    def recorded(name, f):
        def call(x):
            value = f(x)
            arguments.append(f"{name} {x!r}\n")
            values.append(f"{value!r}\n")
            return value

        return call

    math.sin, math.cos = recorded("sin", math.sin), recorded("cos", math.cos)
    try:
        yield
    finally:
        math.sin, math.cos = originals


def run(command: str) -> dict:
    """``command``'s golden entry, from running it through ``fdcorr.cli.main`` in a fresh directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    arguments: list[str] = []
    values: list[str] = []
    with tempfile.TemporaryDirectory() as tmp, recording_libm(arguments, values):
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = fdcorr_main(command.split())
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        files = {
            path.relative_to(tmp).as_posix(): sha256(path.read_bytes())
            for path in sorted(Path(tmp).rglob("*")) if path.is_file()
        }
    entry = {"command": command, "exit": code, "stdout": sha256(out.getvalue().encode()),
             "files": files}
    if arguments:
        entry["libm"] = {"arguments": sha256("".join(arguments).encode()),
                         "values": sha256("".join(values).encode())}
    return entry


def corpus() -> list[str]:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "scripts")]
    import run_error_study
    import workloads

    commands = [["stencil", f"{family}{order}"]
                for families, order in workloads.DEEP_SLOTS for family in families]
    commands += [["coeffs", family.name, str(p), *json_flag]
                 for family in FAMILIES for p in (2, 7, 20) for json_flag in ([], ["--json"])]
    commands.append(["verify-all", "--max-order", "40"])
    for seed in (1, 2, 3):
        for k, argv in enumerate(workloads.build_inputs("study", seed)["argv"]):
            argv[argv.index("--csv-dir") + 1] = f"study-{seed}-{k}"
            commands.append([*argv, "--gnuplot"])
    for function, (h_max, h_min) in run_error_study.CASES.items():
        commands.append(["study", run_error_study.FORMULAS, function, "0", "--csv-dir", function,
                         "--h-max", h_max, "--h-min", h_min, "--gnuplot"])
    return [" ".join(argv) for argv in commands]


def main() -> None:
    golden = {
        "made_on": f"Python {platform.python_version()}, {' '.join(platform.libc_ver())}, "
                   f"{platform.machine()}",
        "commands": [run(command) for command in corpus()],
        "widest": [run(f"stencil {formula_id}") for formula_id in WIDEST],
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(golden['commands'])} commands, {len(golden['widest'])} widest")


if __name__ == "__main__":
    main()
