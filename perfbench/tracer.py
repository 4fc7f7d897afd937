"""Outside-in tracer: wraps drazinkit's layer functions from the outside.

drazinkit imports its public functions by name into other modules
(``drazin_inverse`` into ``relations``, ``theorems`` and ``cli``; the
suites and formulas into ``cli``), so wrapping the defining module alone
misses every call.  :func:`install` therefore replaces each traced
function at every module attribute that holds it, and traced methods on
their class.

Each wrapped call is a span.  The tracer keeps, per span name, the call
count and the self time (the span's duration minus the time its child
spans cover); work counts are gathered by per-layer hooks.  Everything
stays in memory and is read once with :meth:`Tracer.report`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Optional

Hook = Callable[[tuple, dict, Any], None]

# Span names of the identity suites, keyed by the library function.
SUITES = {
    "lemma21_suite": "relations.L2.1",
    "lemma22_suite": "relations.L2.2",
    "lemma31_suite": "relations.L3.1",
    "lemma32_suite": "relations.L3.2",
    "lemma33_suite": "relations.L3.3",
    "lemma34_suite": "relations.L3.4",
    "lemma35_suite": "relations.L3.5",
}


def _entry_bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_entry_bits = 0
        self.drazin_args: set = set()
        # One accumulator per open span: the time its children took.
        self._stack: list = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self_s[name] += t1 - t0 - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
                # The hook's own time is charged to no layer: the parent
                # counts it as child time, so it shows only as overhead.
                if stack:
                    stack[-1] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks ---------------------------------------------------------------
    def _on_mul(self, args, kwargs, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        # rows*cols*inner multiplications; a scaling by a scalar has inner 1.
        inner = b.rows if type(b) is type(a) else 1
        self.counts["matrices.mul.scalar_ops"] += result.rows * result.cols * inner
        self._see_entries(result)

    def _on_rref(self, args, kwargs, result) -> None:
        self._see_entries(args[0])

    def _see_entries(self, m) -> None:
        bits = max(_entry_bits(x) for row in m._data for x in row)
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def _on_drazin(self, args, kwargs, result) -> None:
        order = args[1] if len(args) > 1 else kwargs.get("order", self._default_order)
        self.drazin_args.add((args[0], order))

    def _on_search(self, args, kwargs, result) -> None:
        self.counts["pairs.search.space"] += args[0].space_size()
        self.counts["pairs.search.hits"] += len(result)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced layer of the already imported drazinkit."""
        from drazinkit import cli, drazin, fields, matrices, pairs, relations, theorems

        self._default_order = matrices.PivotOrder.TOP_DOWN

        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "drazinkit"]

        def everywhere(fn: Callable, name: str, hook: Optional[Hook] = None) -> None:
            traced = self.wrap(name, fn, hook)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

        def method(cls, attr: str, name: str, hook: Optional[Hook] = None) -> None:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, hook)))
            else:
                setattr(cls, attr, self.wrap(name, raw, hook))

        method(matrices.Matrix, "__mul__", "matrices.mul", self._on_mul)
        method(matrices.Matrix, "rref", "matrices.rref", self._on_rref)
        method(fields.RationalField, "dot", "fields.dot")
        method(fields.PrimeField, "dot", "fields.dot")

        everywhere(drazin.drazin_inverse, "drazin.drazin_inverse", self._on_drazin)
        everywhere(drazin.compute_index, "drazin.compute_index")
        everywhere(drazin.certify, "drazin.certify")

        for fn_name, span in SUITES.items():
            everywhere(getattr(relations, fn_name), span)
        everywhere(relations.require_relation, "relations.require_relation")

        everywhere(theorems.evaluate_thm23, "theorems.thm23")
        everywhere(theorems.evaluate_thm36, "theorems.thm36")
        everywhere(theorems.invert_one_minus_nilpotent, "theorems.neumann")

        everywhere(pairs.default_lambda_corpus, "pairs.corpus")
        everywhere(pairs.default_cube_corpus, "pairs.corpus")
        everywhere(pairs.exhaustive_hits_corpus, "pairs.corpus")
        everywhere(pairs.exhaustive_search, "pairs.search", self._on_search)

        # Parsing: argument parsing, reading the JSON document, building the
        # matrix from it.  Emitting: JSON objects from results, and the dump.
        method(argparse.ArgumentParser, "parse_args", "cli.parse")
        everywhere(cli._read_json, "cli.parse")
        method(matrices.Matrix, "from_json_obj", "cli.parse")
        method(matrices.Matrix, "to_json_obj", "cli.emit")
        method(drazin.DrazinData, "to_json_obj", "cli.emit")
        everywhere(cli._emit, "cli.emit")

    def report(self) -> Dict[str, float]:
        """Per-layer metrics, by the names listed in BENCHMARK.json."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        drazin_calls = calls["drazin.drazin_inverse"]
        space = counts["pairs.search.space"]
        out = {
            "matrices.mul.calls": calls["matrices.mul"],
            "matrices.mul.self_s": self_s["matrices.mul"],
            "matrices.mul.scalar_ops": counts["matrices.mul.scalar_ops"],
            "matrices.rref.calls": calls["matrices.rref"],
            "matrices.rref.self_s": self_s["matrices.rref"],
            "matrices.max_entry_bits": self.max_entry_bits,
            "fields.dot.calls": calls["fields.dot"],
            "fields.dot.self_s": self_s["fields.dot"],
            "drazin.drazin_inverse.calls": drazin_calls,
            "drazin.drazin_inverse.self_s": self_s["drazin.drazin_inverse"],
            "drazin.distinct_args": len(self.drazin_args),
            "drazin.useful_ratio": (
                len(self.drazin_args) / drazin_calls if drazin_calls else 0.0
            ),
            "drazin.compute_index.self_s": self_s["drazin.compute_index"],
            "drazin.certify.self_s": self_s["drazin.certify"],
        }
        for span in SUITES.values():
            out[span + ".self_s"] = self_s[span]
        out.update(
            {
                "relations.require_relation.calls": calls["relations.require_relation"],
                "theorems.thm23.self_s": self_s["theorems.thm23"],
                "theorems.thm36.self_s": self_s["theorems.thm36"],
                "theorems.neumann.calls": calls["theorems.neumann"],
                "pairs.corpus.self_s": self_s["pairs.corpus"],
                "pairs.search.self_s": self_s["pairs.search"],
                "pairs.search.space": space,
                "pairs.search.hits": counts["pairs.search.hits"],
                "pairs.search.hit_ratio": (
                    counts["pairs.search.hits"] / space if space else 0.0
                ),
                "cli.parse.self_s": self_s["cli.parse"],
                "cli.emit.self_s": self_s["cli.emit"],
            }
        )
        return out
