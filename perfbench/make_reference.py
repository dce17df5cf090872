#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the SHA-256 digest of every case's
canonical output (``json.dumps(..., sort_keys=True)``) for every parameter
value a seed can pick, plus the Jacobi verdict and basis-triple count of
each table.  Refuses to write a reference holding a non-PASS verdict.

    python3 perfbench/make_reference.py

Run it only when an output is meant to change; the digests are the gate
that keeps reports byte-identical across optimisations.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import REFERENCE, load_thinlie


def main() -> int:
    load_thinlie()
    from workloads import WORKLOADS

    reference = {}
    for wname, workload in WORKLOADS.items():
        entries = {}
        for case in workload.cases(lambda options: options):
            verdict, text, triples = case.serialize(case.compute())
            if verdict != "PASS":
                print(f"{case.key}: verdict {verdict}; reference not written", file=sys.stderr)
                return 1
            entry = {"digest": hashlib.sha256(text.encode()).hexdigest(), "verdict": verdict}
            if triples is not None:
                entry["triples"] = triples
            entries[case.key] = entry
            print(f"{wname}: {case.key}", file=sys.stderr, flush=True)
        reference[wname] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
