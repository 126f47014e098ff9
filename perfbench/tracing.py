"""Spans around the public functions of tetgroups, recorded from outside.

The tracer replaces each traced function on every tetgroups module that
binds it (its own module, the package root, and modules that imported it by
name), so calls between the library's own modules are seen too.  Nothing
under src/ changes.  Each call records one span: name, start, end and the
index of the enclosing span.  Spans stay in memory; ``write`` saves them
when the run ends.

``perms`` gets no span: wrapping ``Perm`` methods would cost more than the
work they do, so their time shows as self time of the callers.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from math import factorial


def _count_candidates(counts, args, result):
    counts["enumerator.enumerate_candidates.candidates"] += len(result)


def _count_conjugations(counts, args, result):
    # canonical_form conjugates by all of S_n.
    counts["enumerator.canonical_form.conjugations"] += factorial(args[0].degree)


def _count_product_space(counts, args, result):
    presentation, n = args[0], args[1]
    counts["oracle.brute_force_classes.product_space"] += (
        factorial(n) ** len(presentation.generator_names))


def _count_todd_coxeter(counts, args, result):
    counts[f"oracle.todd_coxeter.{result.status}"] += 1
    if result.status == "closed":
        counts["oracle.todd_coxeter.cosets_closed"] += result.index


def _count_letters(counts, args, result):
    counts["stabilizer.letters_raw"] += sum(len(w) for w in result.words)
    counts["stabilizer.letters_simplified"] += sum(len(w) for w in result.simplified)


# (module, function, counter hook); the span name is "module.function".
TARGETS = (
    ("enumerator", "enumerate_candidates", _count_candidates),
    ("enumerator", "canonical_form", _count_conjugations),
    ("enumerator", "classify_image", None),
    ("enumerator", "enumerate_classes", None),
    ("enumerator", "count_distinct_subgroups", None),
    ("oracle", "brute_force_classes", _count_product_space),
    ("oracle", "todd_coxeter", _count_todd_coxeter),
    ("oracle", "verify_class", None),
    ("stabilizer", "build_coset_table", None),
    ("stabilizer", "schreier_generators", _count_letters),
    ("stabilizer", "simplify_word", None),
    ("coloring", "coloring_of", None),
    ("presentations", "presentation_for", None),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in TARGETS)
COUNT_NAMES = ("enumerator.enumerate_candidates.candidates",
               "enumerator.canonical_form.conjugations",
               "oracle.brute_force_classes.product_space",
               "oracle.todd_coxeter.closed", "oracle.todd_coxeter.overflow",
               "oracle.todd_coxeter.cosets_closed",
               "stabilizer.letters_raw", "stabilizer.letters_simplified")
# Layers whose spans fall inside the timed passes; presentations runs in set-up.
PASS_LAYERS = ("enumerator", "oracle", "stabilizer", "coloring")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: list[Counter] = [Counter()]  # one Counter per phase
        self._stack: list[int] = []

    def new_phase(self) -> None:
        self.counts.append(Counter())

    def _wrap(self, name, fn, hook):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(tracer.counts[-1], args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Replace every binding of each target function in the package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, fn_name, hook in TARGETS:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summarize(self, setup_end: int, pass_ranges: list, pass_walls: list) -> dict:
        """Per-pass means of calls, self and total time per span name.

        Self time is a span's duration minus its children's durations.
        bench.other is each pass's wall time not covered by any top-level
        span, so the self times plus bench.other sum to the pass wall time.
        Set-up spans (before the first pass) are reported apart.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]

        def aggregate(lo, hi):
            out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_NAMES}
            top = 0.0
            for i in range(lo, hi):
                name, start, end, parent = spans[i]
                rec = out[name]
                rec["calls"] += 1
                rec["total_s"] += end - start
                rec["self_s"] += end - start - child[i]
                if parent < 0:
                    top += end - start
            return out, top

        npass = len(pass_ranges)
        passes = [aggregate(lo, hi) for lo, hi in pass_ranges]
        mean = {name: {m: sum(p[0][name][m] for p in passes) / npass
                       for m in ("calls", "self_s", "total_s")} for name in SPAN_NAMES}
        wall = sum(pass_walls) / npass
        other = wall - sum(p[1] for p in passes) / npass
        setup, _ = aggregate(0, setup_end)
        counts = [dict(c) for c in self.counts[1:]]
        return {"passes": npass, "wall_s": wall, "other_s": other, "spans": mean,
                "setup_spans": setup, "counts_per_pass": counts,
                "span_count": len(spans)}

    def write(self, path) -> None:
        """Save all spans as gzipped JSON: names plus one row per span."""
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        rows = [[names[s[0]], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": SPAN_NAMES, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)
