"""One cold run of a workload: a fresh interpreter calling ``cli.main``.

Usage:  python3 bench/cold_run.py --workload NAME --seed N --out DIR
                                   --report FILE [--trace]

Times the cold ``import rabigeom.cli`` (setup_s) and the commands from the
end of import to the last CSV written (wall_s), and writes them to the JSON
report together with each command's exit code, the process's peak RSS, the
environment and, with --trace, the raw span statistics.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RABI_GEOM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{var: os.environ.get(var, "unset") for var in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rabigeom import cli, dynamics, geometry, model, numerics
    setup_s = time.perf_counter() - t0

    import workloads   # after the timed import, so that it adds nothing to it
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install([numerics, model, geometry, dynamics, cli])

    codes = {}
    t1 = time.perf_counter()
    for name, cli_args, _ in workloads.commands(args.workload, args.seed):
        try:
            codes[name] = cli.main(workloads.argv_for(cli_args, name, args.out))
        except Exception:   # a crash fails this command's datasets, not the run
            traceback.print_exc()
            codes[name] = None
    wall_s = time.perf_counter() - t1

    report = {"setup_s": setup_s, "wall_s": wall_s, "exit_codes": codes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": environment()}
    if tracer is not None:
        report["stats"] = tracer.stats
        report["counters"] = tracer.counters
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
