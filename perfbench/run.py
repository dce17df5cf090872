#!/usr/bin/env python3
"""thinlie benchmark: time until a verify verdict or a validated table.

    python3 perfbench/run.py --workload {toral,mixed,jacobi} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  One
process, one thread, closed loop: each pass runs the workload's case list
once, in an order shuffled by the seed, and the next pass starts when the
previous one has finished.  Every case output is checked against the digests
in perfbench/reference.json.

--trace 0 prints the end-to-end metrics:
    setup_s         median over fresh processes of start to ready
                    (import thinlie plus field_create of the workload's fields)
    pass_s          median time of one pass (the sum of its case times)
    largest_case_s  median time of the workload's largest case
    peak_rss_mb     ru_maxrss of this process
    ok_ratio        cases that passed every check / cases attempted
The three times are wall times scaled to a reference machine speed: a fixed
calibration kernel that shares no code with thinlie is timed next to the
work (before every case, and before every set-up process), and each time is
multiplied by CALIBRATION_REF_S / the median kernel time of its pass (or of
the set-up).  A shared machine can change speed by 30% in phases lasting
minutes, for every workload at once, and unscaled medians of ten runs then
spread past any useful bound.  The unscaled median pass time and the median
kernel time are printed on stderr.
--trace 1 runs untraced passes for half the time and traced passes for the
other half (at most TRACED_PASSES), prints the per-layer metrics and writes
the spans as JSON lines to perfbench/out/.

The last line of stdout is one JSON object.  Exit status: 0 when every case
passed, 1 when a case failed (the result is still printed), 2 when the
benchmark cannot run (nothing is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_PROCESSES = 7
CALIBRATION_ITERATIONS = 20000
CALIBRATION_REF_S = 0.010  # kernel time on the reference machine speed
TRACED_PASSES = 5  # bounds the spans held in memory
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import thinlie
from thinlie.ffield import field_create
for spec in sys.argv[2:]:
    p, k = spec.split(",")
    field_create(int(p), int(k))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# per-layer metrics read from the traced passes: metric -> (span name, field);
# a span name ending in "_" sums every span it prefixes
CALLS, SELF = 0, 1
LAYER_METRICS = {
    "liealg.change_basis.calls": ("liealg.change_basis", CALLS),
    "liealg.change_basis.self_ms": ("liealg.change_basis", SELF),
    "liealg.rref.calls": ("liealg.rref", CALLS),
    "liealg.rref.self_ms": ("liealg.rref", SELF),
    "liealg.bracket.calls": ("liealg.bracket", CALLS),
    "liealg.bracket.self_ms": ("liealg.bracket", SELF),
    "liealg.subalgebra_table.self_ms": ("liealg.subalgebra_table", SELF),
    "liealg.subalgebra_generated.self_ms": ("liealg.subalgebra_generated", SELF),
    "liealg.derived_subalgebra.self_ms": ("liealg.derived_subalgebra", SELF),
    "liealg.center.self_ms": ("liealg.center", SELF),
    "liealg.quotient_by_ideal.self_ms": ("liealg.quotient_by_ideal", SELF),
    "liealg.validate_table.calls": ("liealg.validate_table", CALLS),
    "liealg.validate_table.self_ms": ("liealg.validate_table", SELF),
    "grading.eigenbasis.self_ms": ("grading.eigenbasis", SELF),
    "grading.eigen_bracket_check.self_ms": ("grading.eigen_bracket_check", SELF),
    "grading.params_from_mu3.self_ms": ("grading.params_from_mu3", SELF),
    "grading.toral_params.self_ms": ("grading.toral_params", SELF),
    "grading.grade_finite.self_ms": ("grading.grade_finite", SELF),
    "grading.grade_mixed.self_ms": ("grading.grade_mixed", SELF),
    "thinloop.loop_expand.self_ms": ("thinloop.loop_expand", SELF),
    "thinloop.choose_generators.self_ms": ("thinloop.choose_generators", SELF),
    "thinloop.check_covering.self_ms": ("thinloop.check_covering", SELF),
    "thinloop.detect_diamonds.self_ms": ("thinloop.detect_diamonds", SELF),
    "thinloop.centralizer_chain.self_ms": ("thinloop.centralizer_chain", SELF),
    "thinloop.parameter_k.self_ms": ("thinloop.parameter_k", SELF),
    "cartan.build.self_ms": ("cartan.build_", SELF),
    "cli.driver.self_ms": ("cli.run_", SELF),
    "cli.to_json_ms": ("cli.to_json", SELF),
}


class SetupError(Exception):
    """The benchmark cannot run here; nothing is printed on stdout."""


def load_thinlie():
    """Import thinlie from this checkout's src/, never from elsewhere."""
    if not (SRC / "thinlie" / "__init__.py").is_file():
        raise SetupError(f"no thinlie sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thinlie

    if Path(thinlie.__file__).resolve().parent != SRC / "thinlie":
        raise SetupError(f"thinlie imported from {thinlie.__file__}, not from {SRC}")
    return thinlie


def load_reference(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read reference digests {path}: {exc}") from None


def calibration_kernel() -> float:
    """Seconds taken by fixed pure-Python work of the kinds thinlie does
    (tuples, dict updates, modular int arithmetic), sharing no code with it."""
    t0 = time.perf_counter()
    acc, x = {}, 1
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 31 + i) % 10007
        key = (x % 49, i % 7)
        acc[key] = acc.get(key, 0) + x
    return time.perf_counter() - t0


def measure_setup(fields: list[tuple[int, int]]) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its 'ready' line, and the
    calibration kernel times taken before each spawn."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC)] + [f"{p},{k}" for p, k in fields]
    times, kernel = [], []
    for _ in range(SETUP_PROCESSES):
        kernel.append(calibration_kernel())
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready\n" or code != 0:
            raise SetupError(f"set-up process exited with {code} before it was ready")
        times.append(t1 - t0)
    return times, kernel


class Runner:
    """Runs passes over a case list and checks every output."""

    def __init__(self, cases, reference: dict, largest: str):
        self.cases = cases
        self.reference = reference
        self.largest = largest
        self.tracer = None  # set to a Tracer whose wrappers are installed
        self.attempted = 0
        self.failed = 0
        self.pass_s: list[float] = []  # unscaled
        self.pass_scaled: list[float] = []
        self.largest_scaled: list[float] = []
        self.kernel_s: list[float] = []
        self.pass_triples: list[int] = []  # basis triples Jacobi-scanned per pass
        self.pass_spans: list[tuple[int, int]] = []  # span range of each traced pass

    def _check(self, case, verdict: str, text: str, triples) -> str | None:
        ref = self.reference.get(case.key)
        if ref is None:
            return "no reference digest"
        if verdict != "PASS":
            return f"verdict {verdict}"
        if hashlib.sha256(text.encode()).hexdigest() != ref["digest"]:
            return "report digest differs from the reference"
        if triples != ref.get("triples"):
            return f"{triples} basis triples scanned, reference {ref.get('triples')}"
        return None

    def run_pass(self) -> None:
        tracer = self.tracer
        first_span = len(tracer.spans) if tracer else 0
        kernel: list[float] = []
        pass_s = largest_s = 0.0
        scanned = 0
        for case in self.cases:
            kernel.append(calibration_kernel())
            serialize = case.serialize
            if tracer:
                tracer.case = f"pass{len(self.pass_s)}:{case.key}"
                serialize = tracer.wrap("cli.to_json", serialize)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                verdict, text, triples = serialize(case.compute())
                t1 = time.perf_counter()
                scanned += triples or 0
                problem = self._check(case, verdict, text, triples)
            except Exception:
                t1 = time.perf_counter()
                problem = "raised\n" + traceback.format_exc()
            if problem is not None:
                self.failed += 1
                print(f"perfbench: case {case.key} failed: {problem}", file=sys.stderr)
            pass_s += t1 - t0
            if case.name == self.largest:
                largest_s = t1 - t0
        scale = CALIBRATION_REF_S / statistics.median(kernel)
        self.kernel_s.extend(kernel)
        self.pass_s.append(pass_s)
        self.pass_scaled.append(pass_s * scale)
        self.largest_scaled.append(largest_s * scale)
        self.pass_triples.append(scanned)
        if tracer:
            self.pass_spans.append((first_span, len(tracer.spans)))

    def run_for(self, seconds: float, passes: int | None = None) -> list[float]:
        """Run passes while another as long as the last fits in the time, at
        least one, at most `passes`; return their scaled times."""
        start = time.perf_counter()
        first = len(self.pass_s)
        while True:
            pass_start = time.perf_counter()
            self.run_pass()
            last = time.perf_counter() - pass_start
            done = self.pass_scaled[first:]
            if passes is not None and len(done) >= passes:
                return done
            if time.perf_counter() - start + last > seconds:
                return done


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mul_add_ns(field, seed: int) -> float:
    """Median ns of a*b + c with FieldElement operators over random operands."""
    rng = random.Random(seed)
    elems = list(field.elements())
    triples = [(rng.choice(elems), rng.choice(elems), rng.choice(elems)) for _ in range(2000)]
    samples = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        for a, b, c in triples:
            a * b + c
        samples.append((time.perf_counter_ns() - t0) / len(triples))
    return statistics.median(samples)


def field_create_ms(field_create, fields) -> float:
    samples = []
    for _ in range(21):
        t0 = time.perf_counter_ns()
        for p, k in fields:
            field_create(p, k)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


def _matches(span: str, name: str) -> bool:
    return span == name or (name.endswith("_") and span.startswith(name))


def layer_metrics(spans, pass_spans, pass_triples) -> dict:
    """Median over the traced passes of each per-layer metric."""
    from tracing import layer_totals

    per_pass = {name: [] for name in LAYER_METRICS}
    per_pass["liealg.triples_per_s"] = []
    for (lo, hi), triples in zip(pass_spans, pass_triples):
        totals = layer_totals(spans, lo, hi)
        for name, (span_name, field) in LAYER_METRICS.items():
            value = sum(t[field] for span, t in totals.items() if _matches(span, span_name))
            per_pass[name].append(value if field == CALLS else value / 1e6)
        validate = totals.get("liealg.validate_table")
        per_pass["liealg.triples_per_s"].append(triples / (validate[2] / 1e9) if validate else 0.0)
    out = {}
    for name, values in per_pass.items():
        if name.endswith(".calls"):
            out[name] = metric(statistics.median_low(values), "count")
        else:
            out[name] = metric(statistics.median(values), "1/s" if name.endswith("_per_s") else "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass over the workload's smallest case (self-test)")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="reference digest file (self-test)")
    args = ap.parse_args(argv)

    try:
        thinlie = load_thinlie()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        if args.seconds <= 0:
            raise SetupError("--seconds must be positive")
        workload = WORKLOADS[args.workload]
        reference = load_reference(args.reference).get(args.workload, {})
        setup, setup_kernel = ([], []) if args.trace else measure_setup(workload.fields)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    cases = workload.cases(lambda options: [rng.choice(options)])
    rng.shuffle(cases)
    if args.smoke:
        cases = [c for c in cases if c.name == workload.smallest]
    runner = Runner(cases, reference, workload.largest if not args.smoke else workload.smallest)
    passes = 1 if args.smoke else None

    if not args.trace:
        runner.run_for(args.seconds, passes)
        setup_scale = CALIBRATION_REF_S / statistics.median(setup_kernel)
        metrics = {
            "setup_s": metric(statistics.median(setup) * setup_scale, "s"),
            "pass_s": metric(statistics.median(runner.pass_scaled), "s"),
            "largest_case_s": metric(statistics.median(runner.largest_scaled), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        }
    else:
        from tracing import Tracer

        untraced = runner.run_for(args.seconds / 2, passes)
        runner.tracer = tracer = Tracer()
        tracer.install()
        traced = runner.run_for(args.seconds / 2, passes or TRACED_PASSES)
        tracer.uninstall()
        metrics = layer_metrics(tracer.spans, runner.pass_spans, runner.pass_triples[-len(traced):])
        overhead = statistics.median(traced) / statistics.median(untraced)
        metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
        metrics["calibration.kernel_ms"] = metric(statistics.median(runner.kernel_s) * 1e3, "ms")
        fields = workload.fields
        largest = thinlie.field_create(*max(fields, key=lambda f: f[0] ** f[1]))
        metrics["ffield.mul_add_ns"] = metric(mul_add_ns(largest, args.seed), "ns")
        metrics["ffield.field_create_ms"] = metric(field_create_ms(thinlie.field_create, fields), "ms")
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    print(f"perfbench: unscaled median pass {statistics.median(runner.pass_s):.4f} s, "
          f"calibration kernel median {statistics.median(runner.kernel_s) * 1e3:.3f} ms", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
