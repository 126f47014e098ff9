#!/usr/bin/env python3
"""Benchmark of the tetgroups package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload catalog4 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (see README.md for why each):
catalog4 (the 320-cell cross-check sweep), reach5 (index-5 enumeration),
report4 (per-class Schreier words, verification and colorings).

--trace 0 reports the end-to-end metrics, measured with tracing off:
pass_s (median pass time), item_p50_ms / item_p95_ms (per-item latency over
every item of every pass), setup_s (median, over several fresh interpreters,
of the time from process start to the first timed item) and peak_rss_mb.
The times are scaled to a fixed host speed by the worker's SpeedProbe; the
raw medians are printed in the info line.
--trace 1 runs one untraced and one traced worker and reports the per-layer
metrics: calls, self and total time per traced function, the exact work
counts, bench.other and the tracing overhead.

Every item's output is checked against the oracle where one exists, against
the stored goldens, and verify_class must return True.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record (machine info, load, sample counts, failures) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT, WORKLOADS, class_count, problems, spans_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is short and noisy, so it is sampled in this many extra
# interpreters besides the measuring one, and the median is reported.
SETUP_PROBES = 8
# One worker may not take longer than this, so that a run ends within the
# 180 s a run is allowed even with a traced worker after an untraced one.
WORKER_TIMEOUT_S = 85


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool = False) -> dict:
    """Run one worker in a fresh interpreter; return its result and setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - t0
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(cmd)}")
    word, *numbers = ready.split() or [""]
    if proc.returncode != 0 or word != "READY":
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    probe_s, scale = map(float, numbers)
    result = json.loads(rest) if not setup_only else {}
    result["setup_raw_s"] = setup_s - probe_s
    result["setup_s"] = (setup_s - probe_s) * scale
    return result


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform()}


def check(workload: str, golden: dict, runs: list[dict]) -> dict:
    """Check every item of every pass; count attempts, failures, class totals.

    A worker keeps the first pass's outputs; later passes report only the
    items whose output differed from them, so an item that is right in the
    first pass and reports no error later is right in every pass.
    """
    attempted = failed = 0
    failures = []
    totals = []
    for run in runs:
        keys, outputs = run["keys"], run["outputs"]
        if sorted(keys) != sorted(golden["items"]):
            failures.append("the worker did not run exactly the golden's items")
        verdicts = [problems(workload, out, golden["items"].get(key)) if out is not None
                    else ["raised"] for key, out in zip(keys, outputs)]
        for p in run["passes"]:
            errors = dict(p["errors"])
            total = 0
            for i, key in enumerate(keys):
                attempted += 1
                found = [errors[i]] if i in errors else verdicts[i]
                if found:
                    failed += 1
                    failures.append(f"{key}: {'; '.join(found)}")
                if i not in errors and outputs[i] is not None:
                    total += class_count(workload, outputs[i])
            totals.append(total)
            if total != golden["classes_total"]:
                failures.append(f"pass found {total} classes, golden {golden['classes_total']}")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "class_totals": totals}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    ms = [t for p in main["passes"] for t in p["ms"]]
    metrics = {
        "pass_s": (statistics.median(p["scaled_s"] for p in main["passes"]), "s"),
        "item_p50_ms": (quantile(ms, 50), "ms"),
        "item_p95_ms": (quantile(ms, 95), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    samples = {"passes": len(main["passes"]), "item_latency": len(ms),
               "setup": len(setups), "probe": main["probe_samples"],
               "raw_pass_s": statistics.median(p["wall_s"] for p in main["passes"]),
               "raw_setup_s": statistics.median(s["setup_raw_s"] for s in setups)}
    return metrics, samples


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    from tracing import COUNT_NAMES, PASS_LAYERS, SPAN_NAMES

    tr = traced["trace"]
    metrics = {}
    for name in SPAN_NAMES:
        # presentation_for runs in set-up; every other span inside the passes.
        rec = tr["setup_spans"][name] if name.startswith("presentations.") else tr["spans"][name]
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")
        metrics[f"{name}.total_s"] = (rec["total_s"], "s")
    per_pass = tr["counts_per_pass"]
    repeat_in_run = all(c == per_pass[0] for c in per_pass)
    for name in COUNT_NAMES:
        metrics[name] = (per_pass[0].get(name, 0), "count")
    raw, kept = per_pass[0].get("stabilizer.letters_raw", 0), per_pass[0].get(
        "stabilizer.letters_simplified", 0)
    metrics["stabilizer.letters_simplified_frac"] = (kept / raw if raw else 1.0, "frac")
    wall = tr["wall_s"]
    shares = {}
    for layer in PASS_LAYERS:
        layer_self = sum(tr["spans"][n]["self_s"] for n in SPAN_NAMES
                         if n.startswith(layer + "."))
        metrics[f"layer.{layer}.self_s"] = (layer_self, "s")
        shares[layer] = layer_self / wall
    metrics["bench.other.self_s"] = (tr["other_s"], "s")
    shares["bench.other"] = tr["other_s"] / wall
    untraced_wall = statistics.fmean(p["wall_s"] for p in untraced["passes"])
    metrics["bench.traced_wall_s"] = (wall, "s")
    metrics["bench.untraced_wall_s"] = (untraced_wall, "s")
    metrics["bench.trace_overhead_s"] = (wall - untraced_wall, "s")
    self_sum = sum(rec["self_s"] for n, rec in tr["spans"].items()) + tr["other_s"]
    info = {"layer_share_of_traced_wall": shares,
            "traced_passes": tr["passes"], "span_count": tr["span_count"],
            "self_s_sum_plus_other": self_sum, "counts_repeat_across_passes": repeat_in_run}
    return metrics, info


def source_digest() -> str:
    """sha256 over the package's Python sources, names and contents."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "tetgroups"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def counts_repeat_across_runs(workload: str, source: str, counts: dict) -> bool:
    """Compare exact counts with the first traced run of the same sources.

    The record is keyed by the sources' digest, so a changed tree starts a
    fresh record instead of being compared with counts of other code.
    """
    path = OUT / f"counts-{workload}-{source[:16]}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")
        return True
    return json.loads(path.read_text()) == counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    golden_path = HERE / "golden" / f"{args.workload}.json"
    if not (ROOT / "src" / "tetgroups" / "__init__.py").is_file():
        print(f"error: no tetgroups sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    golden = json.loads(golden_path.read_text())
    OUT.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "source_sha256": source_digest(),
            "machine": machine_info(),
            "loadavg_start": os.getloadavg()}

    # A traced run splits its time between the untraced and the traced worker.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args.workload, args.seed, seconds, 0, setup_only=True)
                      for _ in range(SETUP_PROBES)]
        untraced = spawn(args.workload, args.seed, seconds, 0)
        setups.append(untraced)
        runs = [untraced]
        if args.trace:
            traced = spawn(args.workload, args.seed, seconds, 1)
            runs.append(traced)
            info["spans_file"] = str(spans_path(args.workload, args.seed).relative_to(ROOT))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info["machine"]["numpy"] = untraced["numpy"]
    verdict = check(args.workload, golden, runs)
    info.update(class_totals=verdict["class_totals"], failures=verdict["failures"][:20],
                fail_frac=verdict["failed"] / verdict["attempted"])
    if args.trace:
        metrics, trace_info = per_layer(untraced, traced)
        counts = {**traced["trace"]["counts_per_pass"][0],
                  "classes_total": verdict["class_totals"][0]}
        trace_info["counts_repeat_across_runs"] = counts_repeat_across_runs(
            args.workload, info["source_sha256"], counts)
        info["trace_info"] = trace_info
        if not (trace_info["counts_repeat_across_passes"]
                and trace_info["counts_repeat_across_runs"]):
            print("FLAG: exact counts did not repeat; see trace_info", file=sys.stderr)
    else:
        metrics, info["samples"] = end_to_end(untraced, setups)

    correct = verdict["failed"] == 0 and not verdict["failures"]
    result = {"correct": correct, "attempted": verdict["attempted"],
              "failed": verdict["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")

    for failure in verdict["failures"][:20]:
        print(f"FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    if args.trace:
        print("layer share of traced wall_s: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            info["trace_info"]["layer_share_of_traced_wall"].items()))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
