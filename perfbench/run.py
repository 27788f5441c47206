"""liecartan benchmark: acceptance-gate workloads driven through run_suite.

Usage (from the repository root):

    python3 perfbench/run.py --workload forms-identities --seed 1 \
        --seconds 30 --trace 0

One client drives the public ``run_suite(SuiteConfig(...))`` API in a
closed loop: one op at a time, each started when the previous one
returned.  Every report is checked (``pass`` and an exact zero residual on
the rational backend).  With ``--trace 0`` the run is timed and prints the
end-to-end metrics; with ``--trace 1`` a fixed set of ops runs untraced
and then under ``layertrace.LayerTracer``, and the per-layer metrics are
printed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layertrace
from workloads import WORKLOADS, make_ops, ops_hash

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"
OP_CYCLES = 200            # ops generated per run; a run uses a prefix
SETUP_SAMPLES = 10


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


# ---------------------------------------------------------------------------
# set-up: import the package and generate the op list
# ---------------------------------------------------------------------------

def import_package():
    """Fresh import of liecartan and every layer module."""
    for name in [m for m in sys.modules if m == "liecartan" or m.startswith("liecartan.")]:
        del sys.modules[name]
    pkg = importlib.import_module("liecartan")
    for layer in layertrace.LAYERS:
        importlib.import_module(f"liecartan.{layer}")
    return pkg


def setup(workload, seed, cycles):
    """Import the package and generate the op list; returns (package, ops, s)."""
    if not (SRC / "liecartan" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    pkg = import_package()
    ops = make_ops(workload, seed, cycles)
    return pkg, ops, time.perf_counter() - t0


def setup_in_fresh_process(workload, seed):
    """Seconds ``setup`` takes in a new interpreter.  Importing again in
    this process would leave the ops running beside a second copy of the
    package, and they run measurably slower there."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.setup(run.WORKLOADS[sys.argv[2]], int(sys.argv[3]), "
            "run.OP_CYCLES)[2])")
    try:
        out = subprocess.run(
            [sys.executable, "-c", code, str(HERE), workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"set-up in a fresh process failed: {exc}") from exc
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def run_op(pkg, op):
    """Run one op; returns (report or None, wall seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        report = pkg.run_suite(pkg.SuiteConfig(**op.kwargs))
    except Exception:  # an op that raises is a failed op, not a crash
        return None, time.perf_counter() - t0, traceback.format_exc(limit=4)
    return report, time.perf_counter() - t0, check_report(op, report)


def check_report(op, report):
    """None when the report is an exact pass for this op, else the reason."""
    cases = report.get("cases", [])
    if len(cases) != op.cls.cases:
        return f"expected {op.cls.cases} cases, got {len(cases)}"
    if report.get("suite") != op.kwargs["suite"]:
        return f"report is for suite {report.get('suite')!r}"
    if not report.get("pass"):
        return "report did not pass"
    if report.get("max_residual") != 0 or any(c["residual"] != 0 for c in cases):
        return f"nonzero residual {report.get('max_residual')!r} on the rational backend"
    return None


def comparable(report):
    return {k: v for k, v in report.items() if k != "wall_time"}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def weighted_quantile(samples, q):
    """Quantile of (value, weight) pairs, interpolating between neighbours."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    target = q * total
    acc = 0.0
    for i, (v, w) in enumerate(samples):
        if acc + w > target + 1e-12 * total:
            return v
        acc += w
        if abs(acc - target) <= 1e-12 * total and i + 1 < len(samples):
            return (v + samples[i + 1][0]) / 2
    return samples[-1][0]


def summarize(workload, records):
    """End-to-end numbers at the criterion's case mix.

    ``records`` holds (op class, wall seconds) of verified ops.  A class's
    per-case time is its total wall over its total cases; throughput is
    the weighted cases over the weighted time.  Each op gives one per-case
    sample, weighted so that every class counts by its criterion weight.
    """
    by_cls = {}
    for cls, wall in records:
        by_cls.setdefault(cls.name, (cls, []))[1].append(wall)
    weight_s = weight = 0.0
    samples = []
    for cls, walls in by_cls.values():
        per_case = sum(walls) / (len(walls) * cls.cases)
        weight += cls.weight
        weight_s += cls.weight * per_case
        samples += [(w / cls.cases, cls.weight / len(walls)) for w in walls]
    return {
        "cases_per_s": weight / weight_s,
        "case_s_p50": weighted_quantile(samples, 0.5),
        "case_s_p90": weighted_quantile(samples, 0.9),
        "samples": len(samples),
        "cases": sum(len(w) * c.cases for c, w in by_cls.values()),
        "per_class": {name: (len(walls), sum(walls) / (len(walls) * cls.cases))
                      for name, (cls, walls) in by_cls.items()},
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "liecartan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload, seed, ops_used):
    return {
        "workload": workload.name, "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(), "source_sha256": source_hash(),
        "ops_sha256": ops_hash(ops_used), "ops": len(ops_used),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def report_failure(op, reason):
    print(f"FAILED {op.describe()}: {reason.strip()}", file=sys.stderr)


def run_timed(workload, seed, seconds):
    pkg, ops, first_setup_s = setup(workload, seed, OP_CYCLES)
    setup_times = [first_setup_s]
    records, failed, attempted = [], [], 0
    op_mean = {}
    start = time.perf_counter()
    deadline = start + seconds
    # set-up is sampled again at intervals over the run, so that its median,
    # like the throughput, spans the machine's speed drift and not one moment
    interval = seconds / SETUP_SAMPLES
    next_setup = start + interval
    for op in ops:
        now = time.perf_counter()
        if now >= next_setup and len(setup_times) < SETUP_SAMPLES:
            setup_times.append(setup_in_fresh_process(workload, seed))
            next_setup += interval
            now = time.perf_counter()
        if now >= deadline:
            break
        mean = op_mean.get(op.cls.name)
        # every class runs at least once; after that the run ends at the
        # first op expected to end past the deadline
        if mean is not None and now + mean[0] / mean[1] > deadline:
            break
        report, wall, failure = run_op(pkg, op)
        attempted += 1
        total, count = op_mean.get(op.cls.name, (0.0, 0))
        op_mean[op.cls.name] = (total + wall, count + 1)
        if failure is None:
            records.append((op.cls, wall))
        else:
            failed.append(op)
            report_failure(op, failure)
    elapsed = time.perf_counter() - start
    if not records:
        raise BenchError("no op completed")
    s = summarize(workload, records)
    setup_s = statistics.median(setup_times)
    rss = peak_rss_mb()
    failed_ratio = len(failed) / attempted

    prov = provenance(workload, seed, ops[:attempted])
    prov.update(samples=s["samples"], cases=s["cases"],
                per_class={k: v[0] for k, v in s["per_class"].items()})
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{workload.name} ({workload.criterion}): {attempted} ops, "
          f"{s['cases']} cases in {elapsed:.2f} s, closed loop, 1 client")
    for name, (n, per_case) in s["per_class"].items():
        print(f"  class {name:12s} ops={n:4d}  s/case={per_case:.4f}")
    print(f"  cases_per_s  {s['cases_per_s']:.4f} 1/s  (gate "
          f"{workload.gate_cases} cases in {workload.gate_seconds:g} s = "
          f"{workload.gate_cases_per_s:.2f} 1/s)")
    print(f"  case_s_p50   {s['case_s_p50']:.4f} s  (n={s['samples']})")
    if s["samples"] >= 100:
        print(f"  case_s_p90   {s['case_s_p90']:.4f} s  (n={s['samples']})")
    else:
        print(f"  case_s_p90   not reported: {s['samples']} samples < 100")
    print(f"  setup_s      {setup_s:.4f} s  (median of {len(setup_times)}, "
          f"sampled over the run)")
    print(f"  peak_rss_mb  {rss:.1f} MB")
    print(f"  failed_ratio {failed_ratio:.4f}  ({len(failed)}/{attempted})")
    metrics = {
        "cases_per_s": {"value": s["cases_per_s"], "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return not failed, attempted, len(failed), metrics


def run_traced(workload, seed):
    pkg, ops, _ = setup(workload, seed, workload.trace_cycles)
    failed = []

    def run_all(tracer=None):
        """Reports of every op, wall seconds, and the counts after op 0."""
        reports, first_counts = [], None
        t0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = op.index
            report, _, failure = run_op(pkg, op)
            if failure is not None:
                failed.append(op)
                report_failure(op, failure)
            reports.append(report)
            if tracer is not None and first_counts is None:
                first_counts = tracer.counters()
        return reports, time.perf_counter() - t0, first_counts

    plain, plain_s, _ = run_all()
    tracer = layertrace.LayerTracer(pkg)
    tracer.install()
    try:
        traced, traced_s, first_counts = run_all(tracer)
        metrics = tracer.metrics()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
        tracer.write_spans(str(spans_path))
        n_spans = len(tracer.span_key)
        # the first op again, traced alone: its counts must repeat exactly
        tracer.reset()
        tracer.op = 0
        run_op(pkg, ops[0])
        repeat_counts = tracer.counters()
    finally:
        tracer.uninstall()

    problems = []
    for op, a, b in zip(ops, plain, traced):
        if a is not None and b is not None and comparable(a) != comparable(b):
            problems.append(f"{op.describe()}: traced report differs from untraced")
    if repeat_counts != first_counts:
        diff = sorted(k for k in set(first_counts) | set(repeat_counts)
                      if first_counts.get(k) != repeat_counts.get(k))
        problems.append(f"counters of op 0 differ between traced runs: {diff[:8]}")
    left = tracer.leftovers()
    if left:
        problems.append(f"wrappers left after uninstall: {left[:8]}")
    for p in problems:
        print(f"SELF-CHECK FAILED {p}", file=sys.stderr)

    metrics["trace.overhead_ratio"] = traced_s / plain_s
    drift = entry_point_drift(pkg)
    prov = provenance(workload, seed, ops)
    prov.update(spans=n_spans, spans_file=str(spans_path.relative_to(ROOT)),
                peak_rss_mb=round(peak_rss_mb(), 1),
                untraced_s=round(plain_s, 4), traced_s=round(traced_s, 4))
    print("provenance " + json.dumps(prov, sort_keys=True))
    if drift:
        print("entry points changed since perfbench/entry_points.json: "
              + json.dumps(drift, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:28s} {value}")
    units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    attempted = 2 * len(ops) + 1
    ok = not failed and not problems
    return ok, attempted, len(failed), out


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def entry_point_drift(pkg):
    with open(HERE / "entry_points.json") as fh:
        recorded = json.load(fh)
    now = layertrace.discover(pkg)
    drift = {}
    for layer in layertrace.LAYERS:
        old, new = set(recorded.get(layer, [])), set(now.get(layer, []))
        if old != new:
            drift[layer] = {"added": sorted(new - old), "removed": sorted(old - new)}
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            ok, attempted, failed, metrics = run_traced(workload, args.seed)
        else:
            ok, attempted, failed, metrics = run_timed(workload, args.seed,
                                                       args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
