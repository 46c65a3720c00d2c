#!/usr/bin/env python3
"""GANF benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the operation once plain and once with spans recorded,
reports the per-layer metrics and the tracing overhead, and writes every
span to ``perfbench/out/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, asked through ctypes."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": platform.python_version()}


def setup_times(workload) -> list[float]:
    """Set up at least three times and for at least a second; the last one is kept."""
    times: list[float] = []
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 15):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload, seconds: float) -> tuple[dict, list[dict], int]:
    setup = setup_times(workload)
    workload.warm_up()
    outs: list[dict] = []
    failed = 0
    start = time.perf_counter()
    while not outs or time.perf_counter() - start < seconds:
        gc.collect()
        try:
            t0 = time.perf_counter()
            outs.append(workload.op())
            print(f"op {len(outs)}: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
        except Exception:
            traceback.print_exc()
            failed += 1
            if failed > 3 * len(outs) + 3:
                break
    metrics = {"setup_s": statistics.median(setup)}
    if outs:
        metrics.update(workload.metrics(outs))
    metrics["peak_rss_mib"] = peak_rss_mib()
    return metrics, outs, failed


def run_traced(workload, out_dir: Path, env: dict, seed: int) -> tuple[dict, list[dict], int]:
    from layers import counts, in_situ, instrument, replay
    from spans import Tracer

    tracer = Tracer()
    instrument(tracer)
    try:
        workload.setup()
    finally:
        tracer.unwrap_all()
    # A full untraced op first, so that the traced op and the plain op timed
    # after it both start warm; the first op in a process runs slower.
    workload.warm_up()
    workload.op()
    gc.collect()
    instrument(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("op"):
            out = workload.op()
        traced_s = time.perf_counter() - start
    finally:
        tracer.unwrap_all()
    gc.collect()
    start = time.perf_counter()
    workload.op()
    plain_s = time.perf_counter() - start

    model, batch, stream, history, adjacency = workload.layer_inputs(out)
    metrics = in_situ(tracer, workload.phase)
    metrics.update(replay(model, batch, stream, env["nproc"],
                          workload.workdir / "replay.ganf", workload.csv_path()))
    metrics.update(counts(history, adjacency, workload.truth))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    tracer.dump(out_dir / f"trace-{workload.name}-seed{seed}.json",
                {"workload": workload.name, "seed": seed, "env": env,
                 "plain_op_s": plain_s, "traced_op_s": traced_s, "metrics": metrics})
    return metrics, [out], 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ganf" / "__init__.py").is_file():
        print(f"error: no ganf package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    from checks import CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work_dir = out_dir / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(json.dumps({"env": env}), flush=True)

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    if args.trace:
        metrics, outs, failed = run_traced(workload, out_dir, env, args.seed)
    else:
        metrics, outs, failed = run_plain(workload, args.seconds)
    correct = bool(outs)
    for out in outs:
        try:
            workload.check(out)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            break
    # BENCHMARK.json names every metric and its unit; a run reports exactly those
    declared = {m["name"]: m["unit"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]}
    if declared.keys() != metrics.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ declared.keys())} are reported "
              f"or declared in BENCHMARK.json, not both", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": len(outs) + failed, "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
