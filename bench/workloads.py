"""The three workloads: inputs built from the seed, timed runs, output checks.

Every workload is a closed loop with one client: the next request starts when
the previous one has returned.  Requests run in whole cycles through the
workload's list until ``--seconds`` have passed, so every run of a workload
measures the same mix of work whatever the machine's speed.  A calibration
point (calibrate.py) is taken before the first request and after each one,
in the process that times the requests.

- ``catalog``: ``verify-all --max-order 16`` in one interpreter.  The 88
  formulas share words heavily (77 distinct words behind 680 series
  expansions), and the oracle takes about a quarter of the time.
- ``deep``: ``fdcorr stencil <id>`` for 14 distinct ids of order 33-42, each
  in a fresh interpreter, so import is paid per request and nothing is
  shared.  No oracle runs.
- ``study``: ``study`` on all 48 ids of order <= 10 over a fine geometric
  spacing grid (1201 points, 641 for the poly), one request per function.  Float evaluation
  dominates; the oracle never runs.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import exactness
import tracing
from worker import repeat

CATALOG_MAX_ORDER = 16

# One slot per deep request: (family choice, order).  The seed picks which
# mirror family fills each one-sided slot (B or F, BC or FC, two of each) and
# the request order.  Orders are chosen so that every request costs about the
# same (0.5-0.9 s at nominal host speed): mirror families cost the same, and the centred
# families reach that cost a few orders higher.  Every seed then measures the
# same amount of work, and the median latency does not hinge on which side of
# a gap in cost a noisy sample lands.
DEEP_SLOTS = (
    (("B", "F"), 33), (("B", "F"), 34), (("B", "F"), 35), (("B", "F"), 36),
    (("BC", "FC"), 33), (("BC", "FC"), 34), (("BC", "FC"), 35), (("BC", "FC"), 36),
    (("C",), 40), (("C",), 42), (("CA",), 40), (("CA",), 42), (("IC",), 36), (("IC",), 38),
)

STUDY_IDS = tuple(
    [f"{prefix}{order}" for prefix in ("B", "F", "BC", "FC") for order in range(2, 11)]
    + [f"{prefix}{order}" for prefix in ("C", "CA", "IC") for order in range(4, 11, 2)]
)
STUDY_OCTAVES = 10
# Per function: the h_max range (resolved for the sines, asymptotic for the
# poly) and points per octave.  A poly sample costs about twice a sine
# sample, so its grid is coarser and every request costs about the same:
# the run's median latency then does not hinge on which requests were slow.
STUDY_GRID = {"sin100pi": (8e-4, 1.25e-3, 120), "sin1000pi": (8e-5, 1.25e-4, 120), "poly": (0.02, 0.05, 64)}

PROCESS_TIMEOUT_S = 170
CLI_LAUNCH = "from fdcorr.cli import console_main; console_main()"
BENCH_DIR = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# inputs


def deep_labels(rng: random.Random) -> list[str]:
    mirrors = {pair: rng.sample([0, 0, 1, 1], 4) for pair in (("B", "F"), ("BC", "FC"))}
    labels = []
    for families, order in DEEP_SLOTS:
        pick = mirrors[families].pop() if len(families) == 2 else 0
        labels.append(f"{families[pick]}{order}")
    rng.shuffle(labels)
    return labels


def study_requests(rng: random.Random) -> list[dict]:
    requests = []
    for function in ("sin100pi", "sin1000pi", "poly"):
        poly = None
        name = function
        if function == "poly":
            degrees = (rng.randint(11, 15), rng.randint(5, 9), rng.randint(1, 3), 0)
            poly = [(d, rng.choice((-1, 1)) * rng.randint(1, 9)) for d in degrees]
            name = "poly:" + "".join(f"{c:+d}x^{d}" if d else f"{c:+d}" for d, c in poly)
        low, high, per_octave = STUDY_GRID[function]
        h_max = rng.uniform(low, high)
        requests.append({
            "function": name,
            "poly": poly,
            "x0": round(rng.uniform(-0.5, 0.5), 6),
            "h_max": h_max,
            "h_min": h_max / 2.0**STUDY_OCTAVES,
            "h_factor": 2.0 ** (1.0 / per_octave),
        })
    return requests


def build_inputs(workload: str, seed: int) -> dict:
    """The workload's requests; the seed is the only source of variation."""
    rng = random.Random(seed)
    if workload == "catalog":
        return {"max_order": CATALOG_MAX_ORDER, "argv": [["verify-all", "--max-order", str(CATALOG_MAX_ORDER)]]}
    if workload == "deep":
        labels = deep_labels(rng)
        return {"labels": labels, "argv": [["stencil", label] for label in labels]}
    requests = study_requests(rng)
    argv = [
        ["study", ",".join(STUDY_IDS), r["function"], repr(r["x0"]),
         "--csv-dir", f"{{workdir}}/study-{{sample}}",
         "--h-max", repr(r["h_max"]), "--h-min", repr(r["h_min"]), "--h-factor", repr(r["h_factor"])]
        for r in requests
    ]
    return {"ids": list(STUDY_IDS), "requests": requests, "argv": argv,
            "spacings": [len(exactness.spacing_grid(r["h_max"], r["h_min"], r["h_factor"])) for r in requests]}


# ---------------------------------------------------------------------------
# running


class Run:
    """One benchmark run's context: where things live and what was asked."""

    def __init__(self, root: Path, workdir: Path, workload: str, seconds: float, trace: bool,
                 reference: dict):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.reference = reference
        self.inputs: dict = {}
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def python(self, *args: str, timeout: float = PROCESS_TIMEOUT_S) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)


def worker(run: Run, templates: list[list[str]], seconds: float, trace: str,
           catalog_max_order: int | None = None) -> dict:
    """One bench/worker.py process: the requests in a single interpreter."""
    job_path = run.workdir / "job.json"
    result_path = run.workdir / "result.json"
    job = {"src": str(run.root / "src"), "workdir": str(run.workdir), "templates": templates,
           "seconds": seconds, "trace": trace, "catalog_max_order": catalog_max_order}
    job_path.write_text(json.dumps(job))
    proc = run.python(str(BENCH_DIR / "worker.py"), str(job_path), str(result_path))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(result_path.read_text())


def _combine(samples: list[dict], peak_rss_kb: int, summaries: list[dict]) -> dict:
    return {"samples": samples, "peak_rss_kb": peak_rss_kb,
            "trace": tracing.merge(summaries) if summaries else None}


def run_catalog(run: Run) -> dict:
    """Each verify-all pass in a fresh worker, so nothing one pass computes
    can serve the next: a user runs the command once per process."""
    results = []

    def cycle(first: int, traced: bool) -> list[dict]:
        results.append(worker(run, run.inputs["argv"], 0.0, "on" if traced else "off"))
        return results[-1]["samples"]

    samples = repeat(cycle, run.seconds, run.trace)
    combined = _combine(samples, max(r["peak_rss_kb"] for r in results),
                        [r["trace"] for r in results if r["trace"]])
    combined["catalog"] = worker(run, [], 0.0, "off", run.inputs["max_order"])["catalog"]
    return combined


def run_study(run: Run) -> dict:
    """All study requests in one worker, as a library user would run them."""
    result = worker(run, run.inputs["argv"], run.seconds, "alternate" if run.trace else "off")
    return _combine(result["samples"], result["peak_rss_kb"], [result["trace"]] if result["trace"] else [])


def run_deep(run: Run) -> dict:
    """Each request is the console command in a fresh interpreter, timed
    from spawn to exit."""
    summaries = []
    calibrate.kernel()  # warm-up, untimed
    point = calibrate.measure()

    def cycle(first: int, traced: bool) -> list[dict]:
        nonlocal point
        samples = []
        for label in run.inputs["labels"]:
            summary = run.workdir / "trace.json"
            args = [str(BENCH_DIR / "traced_cli.py"), str(summary)] if traced else ["-c", CLI_LAUNCH]
            start = time.perf_counter()
            proc = run.python(*args, "stencil", label)
            elapsed = time.perf_counter() - start
            after = calibrate.measure()
            samples.append({"label": label, "seconds": elapsed, "cal": [point, after], "status": proc.returncode,
                            "traced": traced, "stdout": proc.stdout,
                            "error": proc.stderr if proc.returncode else None})
            point = after
            if traced:
                summaries.append(json.loads(summary.read_text()))
        return samples

    samples = repeat(cycle, run.seconds, run.trace)
    return _combine(samples, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, summaries)


# ---------------------------------------------------------------------------
# checking: each returns (attempted, failed, messages) and annotates samples
# with the formulas and evaluations they delivered


def check_catalog(run: Run, result: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages: list[str] = []
    for sample in result["samples"]:
        a, f, m = exactness.check_verify_all(sample["stdout"], sample["status"], run.reference)
        sample["formulas"] = a - f
        attempted, failed, messages = attempted + a, failed + f, messages + m
        if sample["error"]:
            messages.append(sample["error"])
    a, f, m = exactness.check_catalog_exact(result["catalog"], run.reference)
    return attempted + a, failed + f, messages + m


def check_deep(run: Run, result: dict) -> tuple[int, int, list[str]]:
    failed = 0
    messages = []
    for sample in result["samples"]:
        problem = exactness.check_stencil(sample["label"], sample["stdout"], sample["status"], run.reference)
        sample["formulas"] = 0 if problem else 1
        if problem:
            failed += 1
            messages.append(problem + (f"\n{sample['error']}" if sample["error"] else ""))
    return len(result["samples"]), failed, messages


def check_study(run: Run, result: dict) -> tuple[int, int, list[str]]:
    requests = run.inputs["requests"]
    attempted = failed = 0
    messages = []
    for number, sample in enumerate(result["samples"]):
        request = requests[sample["index"]]
        csv_dir = run.workdir / f"study-{number}"
        grid_size = len(exactness.spacing_grid(request["h_max"], request["h_min"], request["h_factor"]))
        good = 0
        for label in STUDY_IDS:
            path = csv_dir / f"{label}.csv"
            if sample["status"] != 0 or not path.is_file():
                a, f, m = grid_size, grid_size, [f"{label}: no CSV (status {sample['status']})"]
            else:
                a, f, m = exactness.check_study_csv(label, path.read_text(), request, run.reference)
            attempted, failed, messages = attempted + a, failed + f, messages + m
            good += a - f
        sample["formulas"] = len(STUDY_IDS) if sample["status"] == 0 else 0
        sample["evals"] = good
        if sample["error"]:
            messages.append(sample["error"])
    return attempted, failed, messages


WORKLOADS = {
    "catalog": (run_catalog, check_catalog),
    "deep": (run_deep, check_deep),
    "study": (run_study, check_study),
}
