"""Run every workload over one or more seeds and summarise the spread.

    python3 benchmarks/run_all.py --seeds 1,2,3 --seconds 30 [--trace 0|1]
                                  [--workloads train_sc_anyorder,serve_mc_10k]

Each run is its own process (``run.py``), so peak memory is per workload.
The script prints every run's metrics with their units and its
attempted/failed counts. For each workload and metric it then prints the
median over seeds and the spread: the distance between the first and
third quartiles as a share of the median. An end-to-end metric whose
spread exceeds its bound in ``BENCHMARK.json`` is marked. The exit code
is non-zero when any run fails a check.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: no result")
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            s = spread(vals)
            bound = bounds.get(name) if args.trace == 0 else None
            mark = ""
            if bound is not None and name != "setup_s":
                mark = f" bound {bound}" + (" EXCEEDED" if s > bound else "")
            print(f"  {workload} {name}: median {statistics.median(vals):.6g} {units[name]}, "
                  f"spread {s:.4f} over {len(vals)} runs{mark}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
