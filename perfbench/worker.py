"""One benchmark process: set up a workload, then time passes over its items.

run.py starts this file in a fresh interpreter, because every command-line
user pays the import and the permutation-cache fill.  The worker prints
``READY <probe_s> <scale>`` on stdout as soon as set-up is done (the parent
times set-up up to that line; see SpeedProbe for the two numbers), then one
JSON line with the per-item outputs and timings.

    python3 perfbench/worker.py --workload catalog4 --seed 1 --seconds 30 \
        --trace 0 [--setup-only]

The workload items are fixed; the seed only shuffles their order.  With
--trace 1 the spans are written to out/spans-<workload>-seed<seed>.json.gz.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = HERE / "data"
OUT = HERE / "out"

WORKLOADS = ("catalog4", "reach5", "report4")
# reach5 cells: the ROADMAP's index-5 reach target.  The full groups of t19
# and t31 are the slowest searches at this index; t10 and t32 are the
# ROADMAP's reference symbols.
REACH5_IDS = ("t10", "t19", "t31", "t32")
GROUPS = ("full", "kleinian")

# The speed probe times reference_kernel() every PROBE_PERIOD_S; REF_S is
# the kernel time that scaled times are expressed at (about the median
# kernel time inside a run on the 2-vCPU Xeon VM the benchmark was tuned
# on, where the kernel runs with caches the program has used).
PROBE_PERIOD_S = 0.01
PROBE_WINDOW = 6
REF_S = 5.0e-4


def spans_path(workload: str, seed: int) -> Path:
    return OUT / f"spans-{workload}-seed{seed}.json.gz"


@dataclass(frozen=True)
class _Perm:
    """A checked, immutable permutation, as the program's own ``Perm``."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(self.images)

    def __mul__(self, other):
        return _Perm(tuple(self.images[j - 1] for j in other.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return _Perm(tuple(inv))


_S4 = tuple(_Perm(p) for p in itertools.permutations(range(1, 5)))
_GENS = (_S4[3], _S4[7], _S4[17])


def reference_kernel() -> tuple:
    """Fixed pure-Python work of the program's kind, about 0.3 ms.

    It puts three permutations of 4 points in canonical form under
    conjugation by all of S_4, the way the enumerator's grouping does, but
    with its own code: it never changes, so its time measures the host's
    speed, not the program's.  Of the kernels tried (this one, an
    arithmetic and dict loop, random reads from a 4 MB list), this one
    followed the program's speed most closely.
    """
    best = None
    for g in _S4:
        g_inv = g.inverse()
        conj = tuple((g * x * g_inv).images for x in _GENS)
        if best is None or conj < best:
            best = conj
    return best


class SpeedProbe:
    """Samples the host's speed in this thread while the worker runs.

    On a shared host the same code runs up to 1.9x slower or faster from
    one second to the next.  Every PROBE_PERIOD_S a SIGALRM handler
    times reference_kernel() between the program's own bytecodes, on the
    same CPU and in the same moment as the program.  A scaled time is a raw
    time times REF_S over the mean kernel time of the samples taken during
    it and the PROBE_WINDOW before it: the time the work would take on a
    host where the kernel takes REF_S.  One sample is too noisy for a short
    item, and a longer window follows the host's speed less closely.
    ``spent`` is the handler's own time, which is taken out of the raw
    times.  The garbage collector is off inside the handler, so a
    collection falls in the program's time, where it would have fallen
    without the probe, and not in a sample.
    """

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int = PROBE_WINDOW) -> float:
        """REF_S over the mean kernel time from sample first - PROBE_WINDOW on."""
        window = self.samples[max(first - PROBE_WINDOW, 0):]
        return REF_S * len(window) / sum(window)


def _tetgroups():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tetgroups
    import tetgroups.coloring
    import tetgroups.enumerator
    import tetgroups.oracle
    import tetgroups.presentations
    import tetgroups.stabilizer
    return tetgroups


class Workload:
    """Items, the function that runs one of them, and its untimed finish.

    ``run_item`` makes only the program's own calls and is timed;
    ``finish`` turns its result into the checked output (for report4, a
    digest) after the item's clock has stopped.  Every library call goes
    through the defining module's attribute, so the traced run's wrappers
    (installed on those attributes) see it.
    """

    def __init__(self, name: str):
        tg = _tetgroups()
        self.tg = tg
        self.name = name
        pres = tg.presentations
        max_degree = 5 if name == "reach5" else 4
        for n in range(1, max_degree + 1):
            tg.perms.all_perms(n)
        if name == "catalog4":
            entries = tg.catalog()
            self.presentations = {(e.id, g): pres.presentation_for(e.symbol, g)
                                  for e in entries for g in GROUPS}
            self.items = [(e.id, g, n) for e in entries for g in GROUPS
                          for n in range(1, 5)]
            self.run_item = self._catalog_cell
        elif name == "reach5":
            self.presentations = {
                (i, g): pres.presentation_for(tg.catalog_by_id(i).symbol, g)
                for i in REACH5_IDS for g in GROUPS}
            self.items = [(i, g, 5) for i in REACH5_IDS for g in GROUPS]
            self.run_item = self._reach_cell
        elif name == "report4":
            self.presentations = {}
            self.items = [self._load_class(rec) for rec in
                          json.loads((DATA / "report4_classes.json").read_text())]
            self.run_item = self._report_class
            self.finish = self._report_digest
        else:
            raise ValueError(f"unknown workload {name!r}")

    def finish(self, out):
        return out

    def key(self, item) -> str:
        if self.name == "report4":
            return item[0]  # "<id>/<group>/<index>#<class ordinal>"
        return "/".join(map(str, item))  # "<id>/<group>/<index>"

    def _load_class(self, rec: dict):
        tg = self.tg
        group_key = (rec["id"], rec["group"])
        if group_key not in self.presentations:
            self.presentations[group_key] = tg.presentations.presentation_for(
                tg.catalog_by_id(rec["id"]).symbol, rec["group"])
        p = self.presentations[group_key]
        assignment = tg.Assignment(p.generator_names,
                                   tuple(tg.Perm(tuple(im)) for im in rec["images"]))
        cls = tg.SubgroupClass(rep=tg.TransitiveRep(p, assignment),
                               index=rec["index"], image_type=rec["image_type"],
                               labeled_orbit_size=rec["labeled_orbit_size"])
        return (rec["key"], cls)

    def _catalog_cell(self, item) -> dict:
        """The full cross-check of scripts/run_full_sweep.py for one cell."""
        tg = self.tg
        en, orc = tg.enumerator, tg.oracle
        p = self.presentations[item[:2]]
        n = item[2]
        classes = en.enumerate_classes(p, n)
        labeled = len(en.enumerate_candidates(p, n))
        subgroups = en.count_distinct_subgroups(p, n)
        oracle = orc.brute_force_classes(p, n)
        verify = [orc.verify_class(c.rep) for c in classes]
        return {"counts": [labeled, len(classes), subgroups],
                "oracle": list(oracle), "verify": verify}

    def _reach_cell(self, item) -> dict:
        tg = self.tg
        p = self.presentations[item[:2]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the index > 4 "enumerator-only" note
            classes = tg.enumerator.enumerate_classes(p, item[2])
        verify = [tg.oracle.verify_class(c.rep) for c in classes]
        return {"classes": len(classes),
                "orbits": [c.labeled_orbit_size for c in classes],
                "verify": verify}

    def _report_class(self, item) -> tuple:
        """Per-class half of `enumerate --format json`, `verify`, `coloring`."""
        tg = self.tg
        st = tg.stabilizer
        cls = item[1]
        p = cls.rep.presentation
        gens = st.schreier_generators(st.build_coset_table(cls.rep))
        return (p, gens, {"simplified": [p.render(w) for w in gens.simplified],
                          "verify": tg.oracle.verify_class(cls.rep),
                          "coloring": tg.coloring.coloring_of(cls).as_json_dict()})

    @staticmethod
    def _report_digest(out: tuple) -> dict:
        """Digest of one report4 item, with the raw Schreier words rendered."""
        p, gens, record = out
        record = {"words": [p.render(w) for w in gens.words], **record}
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        return {"digest": digest, "verify": [record["verify"]]}


def golden_view(workload: str, out: dict):
    """The part of an item's output that its golden pins."""
    if workload == "catalog4":
        return out["counts"]  # (labeled, classes, subgroups)
    if workload == "reach5":
        return {"classes": out["classes"], "orbits": out["orbits"]}
    return out["digest"]


def class_count(workload: str, out: dict) -> int:
    if workload == "catalog4":
        return out["counts"][1]
    if workload == "reach5":
        return out["classes"]
    return 1


def problems(workload: str, out: dict, golden) -> list[str]:
    """Why an item's output is wrong; empty when it is right."""
    found = []
    if workload == "catalog4" and out["counts"] != out["oracle"]:
        found.append(f"enumerator {out['counts']} != oracle {out['oracle']}")
    if golden_view(workload, out) != golden:
        found.append(f"golden mismatch: {golden_view(workload, out)} != {golden}")
    if any(v is not True for v in out["verify"]):
        found.append(f"verify_class returned {out['verify']}")
    return found


def run_pass(workload: Workload, items: list, first: list | None = None,
             probe: SpeedProbe | None = None):
    """Time one pass over the items.

    Returns the per-item raw and scaled milliseconds (the same without a
    probe), the outputs (first pass only) and [position, message] for each
    item that failed.  An item's clock covers ``run_item`` only, not
    ``finish`` or the comparison, and not the probe's samples.  A later
    pass compares each output with the first pass's instead of keeping it,
    so memory does not grow with the number of passes.
    """
    clock = time.perf_counter
    raw_ms = array("d")
    ms = array("d") if probe else raw_ms
    outputs = []
    errors = []
    for i, item in enumerate(items):
        out = error = None
        if probe:
            first_sample, spent = len(probe.samples), probe.spent
        t0 = clock()
        try:
            out = workload.run_item(item)
        except Exception as exc:  # one failing item must not end the run
            error = exc
        elapsed = clock() - t0
        if probe:
            elapsed -= probe.spent - spent
            ms.append(elapsed * probe.scale(first_sample) * 1e3)
        raw_ms.append(elapsed * 1e3)
        if error is None:
            try:
                out = workload.finish(out)
            except Exception as exc:
                error = exc
        if error is not None:
            out = None
            errors.append([i, f"{type(error).__name__}: {error}"])
        if first is None:
            outputs.append(out)
        elif out is not None and out != first[i]:
            errors.append([i, "output differs from the first pass"])
    return raw_ms, ms, outputs, errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # The traced worker runs without the probe: its samples would land
    # inside the spans.  Its times are raw.
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(_tetgroups())
    workload = Workload(args.workload)
    items = list(workload.items)
    random.Random(args.seed).shuffle(items)
    # Set-up is scaled by all the samples taken during it.
    print(f"READY {probe.spent if probe else 0.0} {probe.scale() if probe else 1.0}",
          flush=True)
    if args.setup_only:
        if probe:
            probe.stop()
        return 0

    passes = []
    outputs = None
    setup_spans = len(tracer.spans) if tracer else 0
    t_start = time.perf_counter()
    while True:
        if tracer:
            tracer.new_phase()
        first_span = len(tracer.spans) if tracer else 0
        raw_ms, ms, out, errors = run_pass(workload, items, outputs, probe)
        if outputs is None:
            outputs = out
        passes.append({"wall_s": sum(raw_ms) / 1e3, "scaled_s": sum(ms) / 1e3,
                       "ms": ms, "errors": errors,
                       "spans": [first_span, len(tracer.spans)] if tracer else None})
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > args.seconds:
            break
    if probe:
        probe.stop()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for p in passes:
        p["ms"] = p["ms"].tolist()
    result = {"keys": [workload.key(item) for item in items], "outputs": outputs,
              "passes": passes, "peak_rss_mb": peak_rss_mb,
              "probe_samples": len(probe.samples) if probe else 0,
              "numpy": sys.modules["numpy"].__version__}
    if tracer:
        result["trace"] = tracer.summarize(setup_spans,
                                           [p["spans"] for p in passes],
                                           [p["wall_s"] for p in passes])
        OUT.mkdir(exist_ok=True)
        tracer.write(spans_path(args.workload, args.seed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
