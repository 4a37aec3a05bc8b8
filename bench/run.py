"""Benchmark entry point; run it from the repository root:

    python3 bench/run.py --workload pmf-fit --seed 1 --seconds 20 --trace 0

Runs one workload (pmf-fit, simulate or cli-session) in this process and
prints one JSON object as the last line of stdout: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``bench/out/``.  BLAS/OpenMP threads are pinned
to 1 here and in every child process.  The library is imported from
``src/`` of this checkout; without it the run exits 2 and prints no result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pmf-fit", "simulate", "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = SRC / "tdlinnik"
    if not (package / "__init__.py").is_file():
        print(f"error: no library sources at {package}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tdlinnik

    if Path(tdlinnik.__file__).resolve().parent != package:
        print(f"error: tdlinnik imported from {tdlinnik.__file__}, not {package}", file=sys.stderr)
        return 2

    import report
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            out, tracer = report.traced(wl, args.seconds)
            (BENCH / "out").mkdir(exist_ok=True)
            tracer.dump(
                BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json",
                report.meta(args.workload, args.seed, args.seconds),
            )
        else:
            out = report.end_to_end(wl, args.seconds)
    except report.SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
