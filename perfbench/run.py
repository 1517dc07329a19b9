"""Outside-in benchmark for warpada.

Run from the repository root:

    python3 perfbench/run.py --workload tada_train --seed 0 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in seconds
at a reference host speed (hostclock.py); ``--trace 1`` makes a separate
traced run that prints the per-layer metrics in wall time.  Human-readable
lines (the environment, every metric with its unit and sample count) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program under test
is imported from ``src/`` of the same checkout; without it the benchmark exits
with code 2 and prints no result.
"""

import os
import sys
import time

_START = time.perf_counter()

# BLAS is pinned before numpy is imported, in this process only, so every
# run is single-threaded whatever the machine's core count.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _import_program():
    """Import the checkout's own warpada and the benchmark modules; exit 2
    when the program is missing or an installed copy would shadow it."""
    sys.path.insert(0, SRC)
    try:
        import warpada
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import warpada from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(warpada.__file__).startswith(SRC + os.sep):
        print(f"error: warpada imported from {warpada.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return workloads, tracing


def environment(args) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout differs across numpy versions
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, tracing = _import_program()
    import_interval = (_START, time.perf_counter())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir = os.path.join(OUT, run_id)
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
            result = tracing.traced_run(workload, args.seed, workdir, import_interval,
                                        run_id, trace_path, env)
        else:
            result = workloads.measured_run(workload, args.seed, args.seconds,
                                            workdir, import_interval)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.print_table()
    print(json.dumps(result.summary(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
