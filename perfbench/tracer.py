"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces each public function in `TARGETS` with a wrapper
that records one span per call: (op, span id, parent span id, name, start ns,
end ns). Spans stay in memory; `write()` saves them once, when the traced
process ends. `summarize()` turns spans into per-function calls, busy time
and self time, where self time is a span's duration minus the time its
direct child spans cover.

A function imported with `from ... import` is looked up in the importing
module, so the wrapper replaces every reference to the original object in
every loaded `triality` module, not only the definition.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every wrapped public function, grouped by layer
TARGETS = (
    ("exact", "SquareMatrix.__mul__"),
    ("exact", "SquareMatrix.char_poly"),
    ("exact", "SquareMatrix.determinant"),
    ("exact", "rref"),
    ("exact", "SpanSolver.coords"),
    ("so8", "bracket"),
    ("so8", "So8Element.from_json"),
    ("so8", "random_element"),
    ("automorphisms", "TrialityMap.apply"),
    ("automorphisms", "outer_involution"),
    ("automorphisms", "g2_fixed_subalgebra"),
    ("automorphisms", "so7_fixed_subalgebra"),
    ("automorphisms", "FixedSubalgebra.structure_constants"),
    ("automorphisms", "killing_form"),
    ("automorphisms", "identify_fixed_algebra"),
    ("automorphisms", "verify_bracket_preservation"),
    ("invariants", "invariant_vector"),
    ("invariants", "pfaffian_matchings"),
    ("invariants", "pfaffian_permutation_sum"),
    ("invariants", "spectral_coefficients"),
    ("invariants", "sigma_transform_invariants"),
    ("invariants", "eigenstructure_check"),
    ("octonion", "Octonion.__mul__"),
    ("octonion", "is_algebra_automorphism"),
)

TARGET_NAMES = tuple(f"{module}.{path}" for module, path in TARGETS)

# calls to these count as hits when they return something other than None
HIT_COUNTED = ("exact.SpanSolver.coords",)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.hits: Counter = Counter()
        self.missing: list[str] = []
        self.op = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def _wrap(self, name: str, fn):
        spans, stack, ids, hits = self.spans, self._stack, self._ids, self.hits
        clock = time.perf_counter_ns
        count_hits = name in HIT_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, span_id, parent, name, start, end))
            if count_hits and result is not None:
                hits[name] += 1
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span called `name`."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every target that exists in the loaded package."""
        import importlib

        import triality.cli  # noqa: F401  (loads every module the CLI uses)

        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "triality" or n.startswith("triality.")]
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            module = importlib.import_module(f"triality.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif owner_name:
                setattr(owner, attr, self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, raw)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "hits": dict(self.hits),
                       "missing": self.missing}, handle)


def summarize(traces: list[dict]) -> dict:
    """Per-name calls, busy_s and self_s over the spans of several processes."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(int)
    self_ns: defaultdict = defaultdict(int)
    hits: Counter = Counter()
    missing: set = set()
    for trace in traces:
        child_ns: defaultdict = defaultdict(int)
        for _op, _sid, parent, _name, start, end in trace["spans"]:
            child_ns[parent] += end - start
        for _op, sid, _parent, name, start, end in trace["spans"]:
            calls[name] += 1
            busy[name] += end - start
            self_ns[name] += end - start - child_ns[sid]
        hits.update(trace["hits"])
        missing.update(trace["missing"])
    return {"calls": dict(calls),
            "busy_s": {k: v / 1e9 for k, v in busy.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "hits": dict(hits), "missing": sorted(missing)}
