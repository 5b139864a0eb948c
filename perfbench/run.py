"""matfac benchmark: four exact-pipeline workloads, one closed-loop caller.

    python3 perfbench/run.py --workload ulrich --seed 0 --seconds 15 --trace 0

Workloads: ulrich, knorrer, jet-refute, cli-docs (see workloads.py).  Each
run is its own single-threaded process.  It builds the workload's inputs
from --seed, runs a deliberately wrong expectation through the outcome
oracle (which must flag it), then:

  --trace 0  repeats full passes over the fixed op list until --seconds
             have passed (and at least MIN_PASSES), times set-up in fresh
             interpreters between passes, checks every outcome, and reports
             the end-to-end metrics of BENCHMARK.json.  Their times are
             reference seconds: wall seconds corrected for the machine's
             momentary speed by a sampled reference kernel (speed.py); the
             record line also gives the uncorrected medians;
  --trace 1  measures the kernels untraced, runs one untraced and one traced
             pass, checks that their outcomes agree and that every layer the
             interaction map (interactions.json) ties to this workload
             recorded work, and reports the per-layer metrics.

The last line of stdout is the result object; the line before it records
the machine, the git SHA, the seed and the sample count behind each metric.
Exit status is 0 when a result was produced; without the matfac sources, or
with an oracle that accepts a wrong expectation, it is 2 and nothing is
printed to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Passes per run, at least: the ulrich and knorrer passes take about ten
# seconds, a median needs two, and cli-docs needs two renders of every
# report to compare their bytes.
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ulrich", "knorrer", "jet-refute", "cli-docs"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time import + input construction in a fresh interpreter.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        import matfac  # noqa: F401
        import workloads
        workloads.build(args.workload, args.seed, WORKDIR)
        t1 = time.perf_counter()
    print(json.dumps({"setup_s": sampler.seconds(t0, t1),
                      "wall_s": sampler.wall_seconds(t0, t1)}))
    return 0


def measure_setup(args) -> dict:
    """One sample of setup_s (and its wall seconds), from a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- passes and the outcome oracle ------------------------------------------------------


class Pass(NamedTuple):
    seconds: float      # reference seconds with a sampler, else wall seconds
    wall_s: float
    records: list       # [(op, seconds, outcome)], seconds as above


def run_pass(wl, tracer=None, sampler=None) -> Pass:
    """One full pass over the op list, timed by `sampler` (which is active
    during the pass) if one is given, else by the wall clock."""
    spans = []
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        for task in wl.tasks:
            spans.extend(task.run())
            if tracer is not None:
                tracer.end_op()
        t1 = time.perf_counter()
    if sampler is None:
        clock = wall = lambda a, b: b - a
    else:
        clock, wall = sampler.seconds, sampler.wall_seconds
    records = [(name, clock(*span), outcome) for name, span, outcome in spans]
    if wl.after_pass is not None:
        wl.after_pass(records)
    return Pass(clock(t0, t1), wall(t0, t1), records)


def expectations(tasks) -> dict:
    out = {}
    for task in tasks:
        out.update(task.expected)
    return out


def failures(expected: dict, records) -> list[str]:
    """Ops whose outcome differs from the expected one (exceptions, wrong
    verdicts or statistics, unexpected or missing refusals, byte mismatches)."""
    return [name for name, _, outcome in records if outcome != expected.get(name, KeyError)]


def _wrong(value):
    """A value that differs from `value`: one deliberately wrong expectation."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _wrong(value[key])}
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (tuple, list)):
        return type(value)(list(value) + ["unexpected"])
    return f"not {value!r}"


def oracle_selfcheck(wl) -> float:
    """Judge one task's real outcomes against one wrong expectation; the
    resulting fail ratio must be above 0, or the oracle could pass silently."""
    task = wl.tasks[wl.selfcheck_task]
    first = next(iter(task.expected))
    records = [r for r in task.run() if r[0] == first]
    wrong = {first: _wrong(task.expected[first])}
    return len(failures(wrong, records)) / max(len(records), 1)


# -- metrics ----------------------------------------------------------------------------


def hd_quantile(values, p: float, steps: int = 1000) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, the i-th of n weighted by the mass of Beta((n+1)p, (n+1)(1-p))
    on [(i-1)/n, i/n].  Unlike the sample quantile it does not jump from one
    op to the next when two ops near the quantile swap places."""
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    h = 1 / (n * steps)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((k + 0.5) * h for k in range(n * steps))]
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(wl, setup_samples, passes) -> tuple[dict, dict]:
    pass_times = [p.seconds for p in passes]
    largest = [s for p in passes for name, s, _ in p.records if name == wl.largest]
    # Each op's latency is its median time over the run's passes, so the
    # percentiles describe the fixed op mix, whatever the number of passes.
    # (The best time over passes spreads more: of several corrected times,
    # the smallest is the one the correction underestimated most.)
    per_op = {}
    for p in passes:
        for name, s, _ in p.records:
            per_op.setdefault(name, []).append(s)
    op_ms = [statistics.median(times) * 1e3 for times in per_op.values()]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "pass_s": statistics.median(pass_times),
        "largest_s": statistics.median(largest),
        "op_ms.p50": hd_quantile(op_ms, 0.5),
        "op_ms.p90": hd_quantile(op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    op_samples = sum(len(p.records) for p in passes)
    samples = {"setup_s": len(setup_samples), "pass_s": len(pass_times),
               "largest_s": len(largest), "op_ms.p50": op_samples, "op_ms.p90": op_samples,
               "ops": len(op_ms), "peak_rss_mb": 1}
    return values, samples


def coverage_gaps(workload: str, metrics: dict) -> list[str]:
    """Layer metrics the interaction map ties to `workload` that recorded no work."""
    with open(HERE / "interactions.json", encoding="utf-8") as fh:
        imap = json.load(fh)
    gaps = []
    for item in imap["interactions"]:
        if workload not in item["moves"]:
            continue
        for layer in item["layer"]:
            value = metrics.get(f"{layer}.calls", metrics.get(layer))
            if not value:
                gaps.append(layer)
    return gaps


def select(declared: list[dict], values: dict) -> dict:
    """The declared metrics, by name and with units; all of them must be measured."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_sha": git_sha()}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the two kinds of run -------------------------------------------------------------


class Outcome(NamedTuple):
    values: dict        # every measured metric, by name
    samples: dict       # sample counts (and pass times) behind the metrics
    attempted: int
    failed: list        # names of the failed ops
    gaps: list          # mapped layers that recorded no work (traced runs)


def untraced_run(args, wl) -> Outcome:
    expected = expectations(wl.tasks)
    passes, failed = [], []
    # Set-up probes run between passes, so that their median spans the run
    # rather than one moment of the machine's load.
    setup_samples = [measure_setup(args)]
    t0 = time.perf_counter()
    kernel_s = []
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        sampler = SpeedSampler()
        passes.append(run_pass(wl, sampler=sampler))
        kernel_s += sampler.kernel_s
        failed += failures(expected, passes[-1].records)
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(measure_setup(args))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(measure_setup(args))
    values, samples = end_to_end(wl, setup_samples, passes)
    samples["pass_s_values"] = [p.seconds for p in passes]
    # The uncorrected wall times, for comparison with reference seconds.
    samples["wall_s"] = {
        "pass_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(s["wall_s"] for s in setup_samples)}
    samples["reference_kernel_us"] = statistics.median(kernel_s) * 1e6
    return Outcome(values, samples, sum(len(p.records) for p in passes), failed, [])


def traced_run(args, wl) -> Outcome:
    import kernels
    from tracer import Tracer

    values = kernels.measure()
    expected = expectations(wl.tasks)
    base_s, _, base = run_pass(wl)
    tracer = Tracer()
    with tracer:
        traced_s, _, traced = run_pass(wl, tracer)
    failed = failures(expected, base) + failures(expected, traced)
    # Tracing must not change what the program computes.
    failed += [a[0] for a, b in zip(base, traced) if (a[0], a[2]) != (b[0], b[2])]
    values.update(tracer.metrics())
    values["trace.overhead_ratio"] = traced_s / base_s
    samples = {"per_layer_passes": 1, "kernel_repeats": kernels.REPEATS,
               "overhead_passes": 2}
    return Outcome(values, samples, len(base) + len(traced), failed,
                   coverage_gaps(wl.name, values))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matfac" / "__init__.py").is_file():
        print(f"error: matfac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    # Compile and cache the sources once so that every probe starts alike.
    import matfac  # noqa: F401
    import workloads
    try:
        wl = workloads.build(args.workload, args.seed, WORKDIR)
        selfcheck = oracle_selfcheck(wl)
        if selfcheck <= 0:
            print("error: the outcome oracle accepted a wrong expectation", file=sys.stderr)
            return 2
        run = traced_run if args.trace else untraced_run
        out = run(args, wl)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    metrics = select(spec["per_layer"] if args.trace else spec["end_to_end"], out.values)
    for gap in out.gaps:
        print(f"error: {gap} recorded no work on {args.workload}", file=sys.stderr)
    for name in sorted(set(out.failed))[:20]:
        print(f"failed op: {name}", file=sys.stderr)
    record = {
        **machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "samples": out.samples,
        "fail_ratio": len(out.failed) / out.attempted, "selfcheck_fail_ratio": selfcheck,
        "loop": "closed, one caller",
    }
    # Reported, not gated: only cli-docs has ten or more ops beyond its p90;
    # on the other workloads it is the time of one or two particular ops.
    if "op_ms.p90" in out.values:
        record["op_ms.p90"] = {"value": out.values["op_ms.p90"], "unit": "ms"}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not out.failed and not out.gaps,
                      "attempted": out.attempted, "failed": len(out.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
