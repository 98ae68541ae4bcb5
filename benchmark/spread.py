#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric in BENCHMARK.json.

    spread.py [RUNS] [FIRST_SEED] [WORKLOAD,...]      (from the repo root)

Runs the benchmark's command RUNS times (default 10) per workload, each with
its own seed, exactly as the driver does (`--trace 0`), and prints for each
metric the median and the distance between the first and third quartile as
a share of the median, next to the metric's bound. A spread under a third of
the bound is marked `ok`, under the bound `~`, over it `!!`.
"""
import json
import statistics
import subprocess
import sys
import time


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = sys.argv[3].split(",") if len(sys.argv) > 3 else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = 0
    for workload in names:
        values, walls = {}, []
        for seed in range(first, first + runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.time()
            done = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {runs} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            bound = bounds[name]
            mark = "ok" if spread < bound / 3 else ("~ " if spread <= bound else "!!")
            over += spread > bound and name != "setup_s"
            print(f"  {mark} {name:<16} median {med:>16.4f}  spread {spread:7.4f}  bound {bound}"
                  f"  min {min(v):.4f}  max {max(v):.4f}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
