#!/usr/bin/env python3
"""Benchmark of changeseries: one workload per run, every output checked.

    python3 benchmark/run.py --workload train-desk --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
--trace 0 times the workload untraced and reports the end-to-end metrics
of BENCHMARK.json.  --trace 1 alternates untraced passes with passes that
trace every layer, and reports the per_layer metrics, among them the
tracing overhead between the two kinds of pass.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Result
files and span files go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import collections
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
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 3
IMPORT_PROBES = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import changeseries.cli; print(time.perf_counter() - t)"


def import_program() -> None:
    """Import changeseries from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "changeseries", "__init__.py")):
        raise SystemExit(f"error: no changeseries package under {SRC}")
    sys.path.insert(0, SRC)
    import changeseries.cli

    if not os.path.abspath(changeseries.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: changeseries imported from {changeseries.cli.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def run_pass(workload, inputs, work_dir, tally, tracer) -> dict:
    pass_dir = os.path.join(work_dir, "pass")
    os.makedirs(pass_dir)
    try:
        timings = workload.run_pass(inputs, pass_dir, tally, tracer)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    timings["pass"] = sum(timings.values())
    return timings


def run_passes(workload, inputs, work_dir, tally, tracer, seconds: float) -> list[dict]:
    """Whole passes until `seconds` have gone by; the op timings of each.

    The first pass grows the heap and fills caches: its outputs are checked
    and its operations counted, but its timings are dropped.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, inputs, work_dir, tally, tracer))
    return passes[1:]


def medians(passes: list[dict]) -> dict:
    """Median seconds of each timed operation; an operation never timed takes forever."""
    keys = {key for p in passes for key in p}
    out = {key: statistics.median(p[key] for p in passes if key in p) for key in keys}
    return collections.defaultdict(lambda: math.inf, out)


def setup_once(workload, work_dir: str, rep: int):
    rep_dir = os.path.join(work_dir, f"setup{rep}")
    os.makedirs(rep_dir)
    start = time.perf_counter()
    inputs = workload.setup(rep_dir)
    return inputs, time.perf_counter() - start


def peak_forward_alloc_mb(workload, inputs) -> float:
    """tracemalloc peak of one ChangeModel.forward on the workload's input shape."""
    import changeseries as cs

    if not hasattr(workload, "probe_input"):
        return 0.0
    images, edges = workload.probe_input(inputs)
    model = cs.ChangeModel(workload.model_cfg)
    tracemalloc.start()
    try:
        model.forward(images, edges)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def worker_busy_ratio(spans) -> float:
    """Decode time summed over threads / (integrate wall time x workers)."""
    decoders = ("markov.map_decode_general", "markov.map_decode_chain")
    busy: dict[int, float] = {}
    for span in spans:
        if span[1] in decoders and span[7] == "pass":
            busy[span[4]] = busy.get(span[4], 0.0) + span[3] - span[2]
    capacity = used = 0.0
    for sid, name, start, end, _, _, attrs, phase in spans:
        if name == "markov.integrate" and phase == "pass":
            capacity += (end - start) * attrs["workers"]
            used += busy.get(sid, 0.0)
    return used / capacity if capacity else 0.0


def layer_metric(name: str, summary: dict, extra: dict) -> float:
    if name in extra:
        return extra[name]
    row = lambda span: summary.get(span, {})
    if name == "layers.Conv2d.gflops_per_s":
        fwd, bwd = row("layers.Conv2d.forward"), row("layers.Conv2d.backward")
        ms = fwd.get("ms", 0.0) + bwd.get("ms", 0.0)
        return (fwd.get("flops", 0.0) + bwd.get("flops", 0.0)) / ms / 1e6 if ms else 0.0
    if name == "markov.assignments_scored":
        return row("markov.map_decode_general").get("assignments", 0.0)
    if name == "markov.assignments_per_s":
        dec = row("markov.map_decode_general")
        return dec["assignments"] / dec["ms"] * 1e3 if dec else 0.0
    if name == "tensor.bytes_read":
        return row("tensor.read_raster").get("bytes_read", 0.0)
    if name == "tensor.bytes_written":
        return sum(row(s).get("bytes_written", 0.0) for s in ("tensor.write_raster", "tensor.export_pgm"))
    for suffix in ("self_ms", "ms"):
        if name.endswith("." + suffix):
            return row(name[: -len(suffix) - 1]).get(suffix, 0.0)
    if name.endswith(".calls"):
        return row(name[: -len("calls")] + "forward").get("calls", 0.0)
    raise KeyError(f"no rule computes per_layer metric {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import_program()
    from spans import Tracer, summarize
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tally, tracer = Tally(), Tracer()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        inputs, setup_times = None, []
        for rep in range(SETUP_REPS):
            rep_inputs, seconds = setup_once(workload, work_dir, rep)
            inputs = inputs or rep_inputs
            setup_times.append(seconds)
        setup_s = import_seconds() + statistics.median(setup_times)
        if args.trace == 0:
            passes = run_passes(workload, inputs, work_dir, tally, tracer, args.seconds)
            values = {
                "setup_s": setup_s,
                "passes_per_s": 1.0 / medians(passes)["pass"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
        else:
            ## untraced and traced passes alternate, so drift in machine speed
            ## cannot pass for tracing overhead
            start = time.perf_counter()
            run_pass(workload, inputs, work_dir, tally, tracer)  # warm-up, untimed
            with tracer.tracing("setup"):
                setup_once(workload, work_dir, SETUP_REPS)
            plain, traced = [], []
            while not traced or time.perf_counter() - start < args.seconds:
                plain.append(run_pass(workload, inputs, work_dir, tally, tracer))
                with tracer.tracing("pass"):
                    traced.append(run_pass(workload, inputs, work_dir, tally, tracer))
            plain_med, traced_med = medians(plain), medians(traced)
            passes = {"untraced": plain, "traced": traced}
            ## the per-operation rates, named without a layer prefix, are 0
            ## on workloads that do not run the operation
            extra = {m["name"]: 0.0 for m in spec["per_layer"] if "." not in m["name"]}
            extra.update(workload.rates(plain_med))
            extra["trace.overhead_pct"] = 100.0 * (traced_med["pass"] / plain_med["pass"] - 1.0)
            extra["model.ChangeModel.forward.peak_alloc_mb"] = peak_forward_alloc_mb(workload, inputs)
            extra["markov.integrate.worker_busy_ratio"] = worker_busy_ratio(tracer.spans)
            summary = summarize(tracer.spans, passes=len(traced), setups=1)
            values = {m["name"]: layer_metric(m["name"], summary, extra) for m in spec["per_layer"]}
            wanted = spec["per_layer"]
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for problem, times in collections.Counter(tally.problems).items():
        print(f"problem ({times}x): {problem}", file=sys.stderr)
    for m in wanted:
        print(f"{m['name']:<48} {values[m['name']]:>16.6g} {m['unit']}")
    with open(
        os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump({**result, "environment": environment(), "passes": passes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
