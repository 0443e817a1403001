"""Cold-CLI benchmark of rabigeom's dataset commands.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repeat starts a fresh interpreter (bench/cold_run.py) that imports
``rabigeom.cli`` and runs the workload's commands through ``cli.main`` into a
scratch directory under .bench_build/, the way a user runs the CLI.  Repeats
continue until S seconds have passed; every dataset of every repeat is checked
against the references in bench/reference/.  Thread settings are inherited
from the caller, not pinned, and are recorded in the environment block.

--trace 0 reports the end-to-end metrics (medians over repeats).
--trace 1 alternates traced and untraced repeats and reports per-layer span
metrics, the tracing overhead, a single-threaded repeat and the scipy share
of import time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md for what each metric
should show.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
import spans

ROOT = os.path.dirname(workloads.HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
CHILD = os.path.join(workloads.HERE, "cold_run.py")
CHILD_TIMEOUT_S = 150
IMPORT_SAMPLES = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "RABI_GEOM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Runner:
    """Runs repeats of one workload and tallies the datasets they write."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.index = workloads.load_index()
        self.attempted = 0
        self.failed = 0
        self.environment = None

    def repeat(self, trace: bool = False, env: dict | None = None) -> dict:
        """One cold run; returns the child's report after checking its workloads."""
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        report_path = os.path.join(out_dir, "report.json")
        cmd = [sys.executable, CHILD, "--workload", self.workload,
               "--seed", str(self.seed), "--out", out_dir,
               "--report", report_path] + (["--trace"] if trace else [])
        try:
            proc = subprocess.run(cmd, env={**os.environ, **(env or {})},
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0 or not os.path.exists(report_path):
                raise BenchError(f"workload process exited with {proc.returncode}:"
                                 f"\n{proc.stderr[-4000:]}")
            with open(report_path) as fh:
                report = json.load(fh)
            self._check(report, out_dir, proc.stderr)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if env is None and self.environment is None:
            self.environment = report["environment"]
        return report

    def _check(self, report: dict, out_dir: str, stderr: str) -> None:
        for name, _, produced in workloads.WORKLOADS[self.workload]:
            code = report["exit_codes"].get(name)
            if code != 0:
                print(f"{name} exited with {code}:\n{stderr[-4000:]}", file=sys.stderr)
            for ds in produced:
                self.attempted += 1
                problem = (f"exit code {code}" if code != 0
                           else workloads.check_dataset(ds, out_dir, self.index))
                if problem:
                    self.failed += 1
                    print(f"FAIL {ds}: {problem}", file=sys.stderr)


def scipy_import_s() -> float:
    """Cumulative import time of the scipy packages under ``import rabigeom.cli``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {SRC!r}); import rabigeom.cli"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return parse_importtime(proc.stderr, "scipy")


def parse_importtime(text: str, package: str) -> float:
    """Sum the cumulative times of ``package`` imports not nested in another one.

    ``-X importtime`` prints children before their parent, indented two spaces
    per level; reading the lines backwards visits parents first.
    """
    total_us = 0
    ancestors: list[str] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue   # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        module = name.strip()
        ancestors = ancestors[:depth]
        top = module.split(".")[0] == package
        if top and not any(a.split(".")[0] == package for a in ancestors):
            total_us += int(cumulative)
        ancestors.append(module)
    return total_us / 1e6


def run_untraced(runner: Runner, seconds: float) -> dict:
    reports = _repeat_for(seconds, lambda: [runner.repeat()])
    return {key: statistics.median(r[key] for r in reports) for key in E2E_UNITS}


def run_traced(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    single_thread_wall_s = runner.repeat(env=SINGLE_THREAD_ENV)["wall_s"]
    scipy_s = statistics.median(scipy_import_s() for _ in range(IMPORT_SAMPLES))
    pairs = _repeat_for(seconds - (time.monotonic() - start),
                        lambda: [runner.repeat(trace=True), runner.repeat()])
    traced, plain = pairs[0::2], pairs[1::2]
    per_run = [spans.layer_metrics(r["stats"], r["counters"]) for r in traced]
    metrics = {key: statistics.median(m[key] for m in per_run)
               for key in per_run[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    metrics["single_thread_wall_s"] = single_thread_wall_s
    metrics["setup.scipy_import_s"] = scipy_s
    return metrics


def _repeat_for(seconds: float, step) -> list[dict]:
    """Repeat ``step`` at least once, and again while another fits in ``seconds``."""
    start = time.monotonic()
    reports, durations = [], []
    while True:
        began = time.monotonic()
        reports += step()
        durations.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return reports


def layer_units() -> dict[str, str]:
    units = {metric: unit for metric, unit, _, _ in spans.SPAN_METRICS}
    units.update(spans.DERIVED_UNITS)
    units.update({"trace.overhead_s": "s", "single_thread_wall_s": "s",
                  "setup.scipy_import_s": "s"})
    return units


def measure(workload: str, args, scratch: str) -> tuple[Runner, dict, dict]:
    runner = Runner(workload, args.seed, scratch)
    if args.trace:
        values, units = run_traced(runner, args.seconds), layer_units()
    else:
        values, units = run_untraced(runner, args.seconds), E2E_UNITS
    print("environment: " + json.dumps(runner.environment, sort_keys=True))
    print(f"{workload}: {'fail_ratio':<44} {runner.failed / runner.attempted:.4g}"
          f" ratio ({runner.failed}/{runner.attempted} datasets)")
    for key in sorted(values):
        print(f"{workload}: {key:<44} {values[key]:.6g} {units[key]}")
    return runner, values, units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn and prefixes "
                             "each metric with its workload's name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "rabigeom", "cli.py")):
        print(f"error: no rabigeom sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    attempted = failed = 0
    metrics = {}
    try:
        # populate __pycache__ so that no repeat pays for byte-compiling
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {SRC!r}); import rabigeom.cli"],
                       check=True, timeout=CHILD_TIMEOUT_S)
        for name in names:
            runner, values, units = measure(name, args, scratch)
            attempted += runner.attempted
            failed += runner.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: {"value": values[key], "unit": units[key]}
                            for key in sorted(values)})
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
