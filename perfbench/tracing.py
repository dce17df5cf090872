"""Outside-in layer tracing: spans recorded by wrappers around the library's
public functions, without changing any file of the library.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, in every ``thinlie.*`` module that bound the same function
object, so calls made from inside the library are seen too.  Methods are
not wrapped, and neither are cartan's per-coefficient helpers (UNTRACED):
like the FieldElement operators they run once per structure constant, about
170k calls in one jacobi pass, so their spans would outweigh the rest of the
trace; their time counts as self time of the calling ``build_*``.  Spans
stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("ffield", "cartan", "liealg", "grading", "thinloop", "cli")
UNTRACED = {"cartan.binom_mod_p", "cartan.coeff_N", "cartan.coeff_Nprime"}

# span fields
NAME, START, END, PARENT, CASE = range(5)


def public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Span recorder: each span is [name, start_ns, end_ns, parent index, case id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS wherever thinlie bound them."""
        bound = [m for n, m in list(sys.modules.items()) if n == "thinlie" or n.startswith("thinlie.")]
        for layer in LAYERS:
            module = importlib.import_module(f"thinlie.{layer}")
            for name, fn in public_functions(module).items():
                if f"{layer}.{name}" in UNTRACED:
                    continue
                wrapped = self.wrap(f"{layer}.{name}", fn)
                for m in bound:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, attr, fn))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "case": case}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def layer_totals(spans: list[list], lo: int, hi: int) -> dict[str, list[int]]:
    """name -> [calls, self_ns, total_ns] over spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children; spans[lo:hi] must hold whole call trees.
    """
    child_ns = [0] * (hi - lo)
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            child_ns[s[PARENT] - lo] += s[END] - s[START]
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for i, s in enumerate(spans[lo:hi]):
        dur = s[END] - s[START]
        t = totals[s[NAME]]
        t[0] += 1
        t[1] += dur - child_ns[i]
        t[2] += dur
    return totals
