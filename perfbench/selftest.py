#!/usr/bin/env python3
"""Self-test of the benchmark, meant to run under ``python -O``:

    python3 -O perfbench/selftest.py

For each workload it makes a one-pass smoke run on the smallest case, with
and without tracing, and checks that every metric of BENCHMARK.json prints
by name with its unit.  It then runs each workload against a reference whose
digest for that case is tampered with, and checks that ok_ratio drops below
1 (fail_ratio above 0) and that the command exits non-zero.  Every check is
an explicit comparison, not an ``assert``, so it holds under -O.
Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, trace: int, *extra: str) -> tuple[int, dict | None, str]:
    argv = [sys.executable, "-O", str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reference = json.loads((HERE / "reference.json").read_text())
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, err = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None, f"{label}: exit 0 with a result ({err[-300:]})")
            if result is None:
                continue
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == expected[trace], f"{label}: metrics and units match BENCHMARK.json")
            check(result["correct"] is True and result["failed"] == 0, f"{label}: every case passes")

        tampered = json.loads(json.dumps(reference))
        for entry in tampered[workload].values():
            entry["digest"] = "0" * 64
        path = HERE / "out" / f"tampered-{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(tampered))
        code, result, _ = run_bench(workload, 0, "--reference", str(path))
        check(code != 0, f"{workload} tampered digest: non-zero exit (got {code})")
        check(result is not None and result["metrics"]["ok_ratio"]["value"] < 1
              and result["failed"] > 0 and result["correct"] is False,
              f"{workload} tampered digest: ok_ratio below 1, failed above 0")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
