"""fdcorr benchmark: three seeded workloads through the public CLI, gated on exactness.

    python3 bench/run.py --workload catalog|deep|study --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere; it measures the fdcorr under ``src/`` of the checkout that
holds this file and refuses any other.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` it repeats the same requests under the
span tracer and prints the per-layer metrics and the tracing overhead.  It
pins itself to one CPU and reports every time at nominal host speed (see
calibrate.py); the measured times are in the record.  Human
readable lines and one ``record:`` line (machine, Python, commit, seed, sizes,
sample counts, median and quartiles) come first; the last line is the result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

See bench/README.md for why each workload exists and what each metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import exactness
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 15
IMPORT_PROBE = "import time, fdcorr; print(time.monotonic_ns(), fdcorr.__file__)"


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "samples": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile with ten samples beyond it; None below 20 samples,
    where that percentile would sit at or below the median."""
    n = len(latencies)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(latencies)[n - 11], "samples": n}


def measure_import(run: workloads.Run) -> tuple[list[float], list[tuple[float, float]]]:
    """Fresh interpreter to ``import fdcorr`` done, several times, checking
    each time that fdcorr resolves to the checkout's sources.  Returns the
    times and the calibration points around each."""
    src = (run.root / "src").resolve()
    times = []
    cal = []
    calibrate.kernel()  # warm-up, untimed
    point = calibrate.measure()
    for probe in range(SETUP_PROBES + 1):
        start = time.monotonic_ns()
        proc = run.python("-c", IMPORT_PROBE, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"import fdcorr failed:\n{proc.stderr}")
        done, path = proc.stdout.split(maxsplit=1)
        resolved = Path(path.strip()).resolve()
        if src not in resolved.parents:
            raise SystemExit(f"fdcorr resolved to {resolved}, not under {src}")
        if probe:  # the first probe only warms the bytecode cache
            times.append((int(done) - start) / 1e9)
            after = calibrate.measure()
            cal.append((point, after))
            point = after
    return times, cal


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def source_identity(root: Path) -> dict:
    """The git commit when the checkout is a repository, and always a hash
    of the measured sources, since the benchmark's checkout may not be one."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fdcorr").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def workload_sizes(run: workloads.Run, samples: list[dict]) -> dict:
    inputs = run.inputs
    if run.workload == "catalog":
        return {"max_order": inputs["max_order"], "formulas_per_request": len(run.reference["catalog"]["labels"]),
                "requests": len(samples)}
    if run.workload == "deep":
        return {"labels": inputs["labels"], "requests": len(samples)}
    return {"ids": len(inputs["ids"]), "spacings_per_grid": inputs["spacings"],
            "functions": [r["function"] for r in inputs["requests"]], "requests": len(samples)}


def normalized(samples: list[dict]) -> list[float]:
    """Each sample's time at nominal host speed (see calibrate.py)."""
    return calibrate.normalize([s["seconds"] for s in samples], [s["cal"] for s in samples])


def raw_times(samples: list[dict]) -> dict:
    """The measured times and kernel speed, before normalization."""
    untraced = [s for s in samples if not s["traced"]] or samples
    seconds = [s["seconds"] for s in untraced]
    kernel = [point for s in untraced for point in s["cal"]]
    return {"formulas_per_s": sum(s["formulas"] for s in untraced) / sum(seconds),
            "latency_p50_s": statistics.median(seconds), "kernel_s": quartiles(kernel),
            "nominal_kernel_s": calibrate.NOMINAL_S}


def end_to_end(result: dict, setup_s: list[float], build_s: float) -> tuple[dict, dict]:
    """Every time is at nominal host speed; the measured times stay in the
    record under ``raw``."""
    samples = result["samples"]
    latencies = [s["norm_seconds"] for s in samples]
    rates = [s["formulas"] / s["norm_seconds"] for s in samples]
    setups = [t + build_s for t in setup_s]
    metrics = {
        "formulas_per_s": (sum(s["formulas"] for s in samples) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    spread = {
        "formulas_per_s": quartiles(rates),
        "latency_p50_s": quartiles(latencies),
        "setup_s": quartiles(setups),
        "peak_rss_mb": quartiles([metrics["peak_rss_mb"][0]]),
    }
    if any("evals" in s for s in samples):
        evals = sum(s["evals"] for s in samples) / sum(latencies)
        spread["evals_per_s"] = {**quartiles([s["evals"] / s["norm_seconds"] for s in samples]), "value": evals}
    spread["latency_tail_s"] = tail(latencies)
    return metrics, spread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the checker and the tracer")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fdcorr" / "__init__.py").is_file():
        print(f"bench: no fdcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    host = machine()  # before pinning, so nproc counts every CPU the run may use
    cpu = calibrate.pin()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = workloads.Run(ROOT, workdir, args.workload, args.seconds, bool(args.trace),
                            exactness.load_reference())
        setup_raw, setup_cal = measure_import(run)
        setup_s = calibrate.normalize(setup_raw, setup_cal)
        start = time.perf_counter()
        run.inputs = workloads.build_inputs(args.workload, args.seed)
        build_s = time.perf_counter() - start
        runner, checker = workloads.WORKLOADS[args.workload]
        result = runner(run)
        attempted, failed, messages = checker(run, result)
        for sample, seconds in zip(result["samples"], normalized(result["samples"])):
            sample["norm_seconds"] = seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        untraced_s = sum(s["norm_seconds"] for s in result["samples"] if not s["traced"])
        traced_s = sum(s["norm_seconds"] for s in result["samples"] if s["traced"])
        metrics = tracing.per_layer(result["trace"], traced_s / untraced_s - 1.0)
        spread = {"spans": result["trace"]["spans"], "untraced_s": untraced_s, "traced_s": traced_s}
    else:
        metrics, spread = end_to_end(result, setup_s, build_s)

    for message in messages[:20]:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        detail = spread.get(name)
        extra = (f"  (q1 {detail['q1']:.6g}, q3 {detail['q3']:.6g}, {detail['samples']} samples)"
                 if detail else "")
        print(f"{name}: {value:.6g} {unit}{extra}")
    if not args.trace:
        if "evals_per_s" in spread:
            print(f"evals_per_s: {spread['evals_per_s']['value']:.6g} 1/s")
        t = spread["latency_tail_s"]
        print(f"latency_tail_s: p{t['percentile']:.1f} = {t['value']:.6g} s over {t['samples']} samples"
              if t else f"latency_tail_s: not reported ({len(result['samples'])} requests, need 20)")
    print(f"failed_share: {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted})")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {**host, "pinned_cpu": cpu}, **source_identity(ROOT),
        "sizes": workload_sizes(run, result["samples"]),
        "setup": {"import_s": setup_s, "import_raw_s": setup_raw, "build_inputs_s": build_s},
        "raw": raw_times(result["samples"]),
        "samples": [[s.get("label", s.get("index")), s["seconds"], s["norm_seconds"], s["cal"]]
                    for s in result["samples"]],
        "metrics": {name: {"value": value, "unit": unit, **(spread.get(name) or {})}
                    for name, (value, unit) in metrics.items()},
        "extra": {k: v for k, v in spread.items() if k not in metrics},
    }
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
