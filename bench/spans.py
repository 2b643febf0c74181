"""Span tracing of bracekit's layers, installed from outside the library.

``Tracer.install`` rebinds every public function listed in ``WRAPPED`` in
every bracekit module that holds a binding of it (``catalog.verify_brace``,
``ideals.verify_brace`` and ``braces.verify_brace`` all get the wrapper), so
calls are seen whichever module makes them.  Each call records one span:
[function, start_ns, end_ns, parent span, operation id, note].  Spans stay
in memory and ``Tracer.dump`` writes them, with the memo counters, when the
traced process ends.  ``summarize`` turns span files into per-layer metrics;
a layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

WRAPPED = {
    "grouptables": ("groups_of_order",),
    "groups": ("verify_group_axioms", "automorphism_group", "all_normal_subgroups",
               "subgroup_closure", "normal_closure", "quotient_group"),
    "braces": ("verify_brace", "check_star_identities", "brace_isomorphic",
               "direct_product"),
    "catalog": ("enumerate_braces", "catalog_invariant_sweep"),
    "ideals": ("ideal_closure", "all_ideals", "maximal_ideals", "quotient_brace",
               "sub_brace", "is_prime_ideal", "is_small_ideal"),
    "invariants": ("non_generators", "radical", "weight", "wedderburn_decompose",
                   "theorem_checks", "brace_report"),
    "ybe": ("solution_from_brace", "check_solution"),
    "formats": ("load_brace", "load_solution", "dumps"),
    "cli": ("main",),
}
MEMO_MODULES = ("groups", "grouptables", "braces", "ideals", "invariants", "catalog")
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)


def _note_for(name: str):
    """What a span notes besides its times: 1 for a rejected input, or bytes."""
    if name == "ybe.check_solution":
        return lambda report: 0 if report.is_ybe else 1
    if name == "formats.dumps":
        return lambda text: len(text.encode("utf-8"))
    return lambda result: 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.op = 0
        self._stack: list[int] = []
        self._memo_functions: dict[str, list] = {}

    def install(self) -> None:
        modules = {m: importlib.import_module(f"bracekit.{m}") for m in WRAPPED}
        holders = [importlib.import_module("bracekit"), *modules.values()]
        for m in MEMO_MODULES:
            mod = modules[m]
            self._memo_functions[m] = [
                obj for obj in vars(mod).values()
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
            ]
        for m, functions in WRAPPED.items():
            for f in functions:
                original = getattr(modules[m], f)
                wrapper = self._wrap(f"{m}.{f}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        note = _note_for(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, clock(), 0, stack[-1] if stack else -1, self.op, 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = note(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def memo_counters(self) -> dict[str, list[int]]:
        """[hits, misses, entries] per module, over the memoized functions it defines."""
        out = {}
        for m, functions in self._memo_functions.items():
            infos = [fn.cache_info() for fn in functions]
            out[m] = [sum(i.hits for i in infos), sum(i.misses for i in infos),
                      sum(i.currsize for i in infos)]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "memo": self.memo_counters()}, fh, separators=(",", ":"))


def summarize(paths) -> dict[str, float]:
    """Per-layer metrics of one pass from the span files of its processes.

    Calls, self time and notes are summed over processes; memo hits and
    misses are summed, and memo entries are the most any one process held.
    A span still open when its file was written (none in a clean exit) is
    left out.
    """
    calls = dict.fromkeys(FUNCTIONS, 0)
    self_ns = dict.fromkeys(FUNCTIONS, 0)
    notes = dict.fromkeys(FUNCTIONS, 0)
    memo = {m: [0, 0, 0] for m in MEMO_MODULES}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        child_ns = [0] * len(spans)
        for index, start, end, parent, _op, _note in spans:
            if end and parent >= 0:
                child_ns[parent] += end - start
        for i, (index, start, end, _parent, _op, note) in enumerate(spans):
            if not end:
                continue
            name = names[index]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            notes[name] += note
        for m, (hits, misses, entries) in data["memo"].items():
            memo[m][0] += hits
            memo[m][1] += misses
            memo[m][2] = max(memo[m][2], entries)

    metrics: dict[str, float] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in ("braces.verify_brace", "ybe.check_solution"):
        metrics[f"{name}.reject_frac"] = notes[name] / calls[name] if calls[name] else 0.0
    metrics["formats.dumps.bytes"] = notes["formats.dumps"]
    for m, (hits, misses, entries) in memo.items():
        metrics[f"{m}.memo.hits"] = hits
        metrics[f"{m}.memo.misses"] = misses
        metrics[f"{m}.memo.entries"] = entries
        metrics[f"{m}.memo.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics
