#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads fit-grid certify --seeds 1-10 \\
        [--seconds 10] [--trace 0] [--out summary.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  Each run is a
separate process, one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {}
    for wl in args.workloads:
        values, runs, walls = {}, [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=900)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: res[k] for k in ("correct", "attempted", "failed")})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[wl] = {"seeds": args.seeds, "runs": runs, "wall_s": walls,
                       "metrics": {name: summarise(v) for name, v in values.items()}}
        print(f"{wl}: all correct={all(r['correct'] for r in runs)}, "
              f"wall per run {statistics.median(walls):.1f} s (max {max(walls):.1f})")
        for name, s in summary[wl]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
