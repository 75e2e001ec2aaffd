"""Write bench/reference.json, the exact outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only to establish a reference from a commit whose outputs are trusted:
every stencil written here is first checked against its own moment
conditions and against the independent moment-system solver.  It covers
every catalogue formula, every id the study workload evaluates, and every id
a deep slot can hold, with one SHA-256 over the catalogue.
"""

from __future__ import annotations

import json
import sys

import exactness
import workloads


def checked(formula) -> dict:
    import fdcorr

    stencil = fdcorr.flatten(formula)
    if not fdcorr.verify(stencil).ok:
        raise SystemExit(f"{formula.label}: fails its own moment conditions")
    if list(stencil.weights) != fdcorr.oracle_weights(stencil.offsets, stencil.m, stencil.order):
        raise SystemExit(f"{formula.label}: disagrees with the moment-system solver")
    return exactness.canonical(formula, stencil)


def main() -> int:
    from fdcorr.cli import formula_from_id

    catalog = [checked(f) for f in exactness.catalog_formulas(workloads.CATALOG_MAX_ORDER)]
    entries = {entry["label"]: entry for entry in catalog}
    deep_ids = [f"{family}{order}" for families, order in workloads.DEEP_SLOTS for family in families]
    for label in [*workloads.STUDY_IDS, *deep_ids]:
        if label not in entries:
            entries[label] = checked(formula_from_id(label))
            print(label, file=sys.stderr, flush=True)
    reference = {
        "catalog": {
            "max_order": workloads.CATALOG_MAX_ORDER,
            "labels": [entry["label"] for entry in catalog],
            "sha256": exactness.digest(catalog),
        },
        "formulas": {label: exactness.reference_entry(entries[label]) for label in sorted(entries)},
    }
    exactness.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
