"""Run one workload of the npa benchmark and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy, and the run fails with a
non-zero exit code when that directory is missing. BLAS is pinned to one
thread before numpy loads. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it record the environment
and, for traced runs, every per-layer number. Results, and the spans of
traced runs, are also written under ``benchmarks/out/``.
"""

import os

# Before numpy is imported anywhere: one BLAS thread, one process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NPA_MODULES = ("data", "model", "vqa", "tensor", "optim", "training",
               "recommend", "checkpoint", "metrics")


def load_npa(root=ROOT):
    """Import npa from ``root/src``, refusing any other copy."""
    src = (Path(root) / "src").resolve()
    if not (src / "npa" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no npa sources under {src}")
    sys.path.insert(0, str(src))
    import npa
    if Path(npa.__file__).resolve().parent != src / "npa":
        raise SystemExit(f"benchmark: imported npa from {npa.__file__}, not {src}")
    for name in NPA_MODULES:
        importlib.import_module(f"npa.{name}")
    return npa


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None):
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    npa = load_npa()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(json.dumps({"env": env}), flush=True)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    outcome = workloads.run(npa, workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer, out_dir)
    if args.trace:
        metrics = workloads.per_layer(outcome, tracer)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = workloads.end_to_end(outcome)
    # A metric with nothing to measure (every operation failed) reads null.
    metrics = {name: {"value": value if math.isfinite(value) else None, "unit": unit}
               for name, (value, unit) in metrics.items()}
    tail = workloads.tail_percentile(len(outcome.op_seconds))
    notes = dict(outcome.notes, untraced_ops=len(outcome.op_seconds),
                 traced_ops=len(outcome.traced_op_seconds), op_tail_percentile=tail,
                 op_ms_at_tail=tail and workloads.percentile_ms(
                     workloads.reference_op_seconds(outcome), tail),
                 **workloads.wall_times(outcome))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "notes": notes, "metrics": metrics}
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"notes": notes}), flush=True)
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
