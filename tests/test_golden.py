"""Every command of the golden corpus prints and writes the bytes recorded in ``golden.json``.

``scripts/make_golden.py`` writes the digests and describes the corpus.  The
order-200 stencils of its ``widest`` list take about 10 s, and CI's
widest-formulas step compares them instead.
"""

import functools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import make_golden  # noqa: E402

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


@functools.cache
def rerun() -> list[dict]:
    return [make_golden.run(entry["command"]) for entry in GOLDEN["commands"]]


def test_sin_and_cos_round_as_where_the_digests_were_made():
    # The study digests assume it.  Where a study passes libm the recorded
    # arguments, any value that differs is the platform's, not the code's.
    differ = [got["command"] for got, want in zip(rerun(), GOLDEN["commands"]) if "libm" in want
              and got.get("libm", {}).get("arguments") == want["libm"]["arguments"]
              and got["libm"]["values"] != want["libm"]["values"]]
    assert differ == [], f"math.sin or math.cos rounds otherwise than on {GOLDEN['made_on']}"


def test_every_command_prints_and_writes_its_golden_bytes():
    assert [got["command"] for got, want in zip(rerun(), GOLDEN["commands"]) if got != want] == []
