"""Run fdcorr CLI requests in this interpreter, timed, and write the results.

    python3 bench/worker.py JOB.json RESULT.json

The job lists the requests as argument-list templates for ``fdcorr.cli.main``
(``{workdir}`` and ``{sample}`` are filled in per request), how many seconds
to spend, and the tracing mode: ``off``, ``on``, or ``alternate`` (every
second cycle traced).  A calibration point (see calibrate.py) is taken
before the first request and after each one; every sample carries the two
around it.  With ``catalog_max_order`` set, every catalogue
formula is regenerated after the timed cycles, untimed, for the exactness
gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate


def repeat(cycle, seconds: float, alternate: bool) -> list[dict]:
    """Whole cycles until ``seconds`` have passed, at least one.

    ``cycle(first_sample_number, traced)`` returns that cycle's samples.  With
    ``alternate``, every second cycle runs traced and the count is kept even,
    so traced and untraced halves measure the same requests, interleaved so
    that drift in machine speed falls on both.
    """
    samples: list[dict] = []
    done = 0
    start = time.perf_counter()
    while done == 0 or (alternate and done % 2) or time.perf_counter() - start < seconds:
        samples.extend(cycle(len(samples), alternate and done % 2 == 1))
        done += 1
    return samples


def check_source(src: Path) -> None:
    """Refuse to measure any fdcorr other than the one under ``src``."""
    import fdcorr
    import fdcorr.cli

    for module in (fdcorr, fdcorr.cli):
        resolved = Path(module.__file__).resolve()
        if src.resolve() not in resolved.parents:
            raise SystemExit(f"worker: {module.__name__} resolved to {resolved}, not under {src}")


def run_request(argv: list[str]) -> dict:
    import fdcorr.cli

    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = fdcorr.cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # reported as a failed request; the run goes on
        status = None
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "status": status, "stdout": out.getvalue(), "error": error}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    check_source(Path(job["src"]))
    tracer = None
    if job["trace"] != "off":
        import tracing

        tracer = tracing.Tracer()
    calibrate.kernel()  # warm-up, untimed
    point = calibrate.measure()

    def cycle(first: int, traced: bool) -> list[dict]:
        nonlocal point
        if traced:
            tracer.install()
        try:
            samples = []
            for index, template in enumerate(job["templates"]):
                number = first + index
                if tracer is not None:
                    tracer.request = number
                argv = [part.replace("{workdir}", job["workdir"]).replace("{sample}", str(number))
                        for part in template]
                sample = run_request(argv)
                after = calibrate.measure()
                samples.append({**sample, "cal": [point, after], "index": index, "traced": traced})
                point = after
            return samples
        finally:
            if traced:
                tracer.uninstall()

    if job["trace"] == "on":
        samples = repeat(lambda first, _: cycle(first, True), job["seconds"], False)
    else:
        samples = repeat(cycle, job["seconds"], job["trace"] == "alternate")
    result = {
        "samples": samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    if job.get("catalog_max_order"):
        import exactness
        import fdcorr

        result["catalog"] = [
            exactness.canonical(formula, fdcorr.flatten(formula))
            for formula in exactness.catalog_formulas(job["catalog_max_order"])
        ]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
