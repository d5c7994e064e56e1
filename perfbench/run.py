"""End-to-end and per-layer benchmark of splitdecode.

    python3 perfbench/run.py --workload decode_heavy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from ./src.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced replay and writes its spans as JSON under
perfbench/out/. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only
if every output checked out.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splitdecode" / "__init__.py").is_file():
        print(f"error: no splitdecode sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import LAYER_UNITS

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    meta = {"machine": machine_info()}
    print("# machine " + " ".join(f"{k}={v}" for k, v in meta["machine"].items()))
    print(f"# workload {workload.name}: {workload.why}")
    trace_path = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"

    result = workloads.run(
        workload, args.seed, args.seconds, trace=bool(args.trace),
        trace_path=trace_path, meta=meta,
    )
    print(f"# sessions {result.sessions}, requests {result.attempted}, failed {result.failed}")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"{name:<24} {value:>14.4f} {unit:<6} n={samples}")
    for reason in result.reasons:
        print(f"# FAIL {reason}")

    if args.trace:
        for name in result.missing:
            print(f"# missing {name}")
        for name, unit in LAYER_UNITS.items():
            print(f"{name:<44} {result.traced[name]:>14.4f} {unit}")
        print(f"# spans written to {trace_path.relative_to(HERE.parent)}")
        metrics = {n: {"value": result.traced[n], "unit": u} for n, u in LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u, _) in result.metrics.items()}

    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
