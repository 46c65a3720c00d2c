#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 perfbench/spread.py --workload fit-default --seeds 1-10 --seconds 20

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartiles as a share of the median.
Every run must report correct outputs, or the script exits with code 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=RUN.parent.parent, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        ok &= result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        line = f"{name:34s} median {med:12.5g} {units[name]:10s}"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f" spread {(q3 - q1) / abs(med):.3f}"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
