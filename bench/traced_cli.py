"""The ``fdcorr`` console command under the tracer, for one fresh process.

    python3 bench/traced_cli.py SUMMARY.json stencil BC40

Runs exactly what the console script runs (``fdcorr.cli.console_main`` on the
remaining arguments), then writes the trace summary to SUMMARY.json and exits
with the command's status.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    summary_path = Path(sys.argv[1])
    sys.argv = ["fdcorr", *sys.argv[2:]]
    tracer = tracing.Tracer()
    tracer.install()
    import fdcorr.cli

    status = 0
    try:
        fdcorr.cli.console_main()
    except SystemExit as exc:
        status = exc.code
    finally:
        tracer.uninstall()
        summary_path.write_text(json.dumps(tracer.summary()))
    return status


if __name__ == "__main__":
    sys.exit(main())
