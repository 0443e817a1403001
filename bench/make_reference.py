"""Regenerate the reference datasets the benchmark checks outputs against.

Run from the repository root:  python3 bench/make_reference.py

Writes bench/reference/<dataset>.csv.gz and bench/reference/reference.json
(sha256, row count and, for evolve, the .meta.json summary).  Long CSVs keep
only every SAMPLE_STRIDE-th row.  Regenerate only when a change to the
program is meant to change its output, and say so where the change is
recorded.
"""

import gzip
import json
import os
import shutil
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rabigeom import cli

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    index = {}
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        for workload, cmds in workloads.WORKLOADS.items():
            for name, args, produced in cmds:
                code = cli.main(workloads.argv_for(args, name, out_dir))
                if code != 0:
                    print(f"{name} exited with {code}", file=sys.stderr)
                    return 1
                for ds in produced:
                    index[ds] = _record(ds, out_dir, workload)
    finally:
        shutil.rmtree(out_dir)
    with open(workloads.REFERENCE_INDEX, "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _record(name: str, out_dir: str, workload: str) -> dict:
    path = os.path.join(out_dir, name + ".csv")
    with open(path, newline="") as fh:
        text = fh.read()
    entry = {"workload": workload, "sha256": workloads.sha256_file(path),
             "rows": text.count("\n"), "file": name + ".csv.gz"}
    if name in workloads.SAMPLED:
        lines = text.splitlines(keepends=True)
        text = "".join(lines[:1] + lines[1::workloads.SAMPLE_STRIDE])
        with open(path + ".meta.json") as fh:
            entry["summary"] = json.load(fh)["summary"]
    with open(os.path.join(workloads.REFERENCE_DIR, entry["file"]), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode())
    return entry


if __name__ == "__main__":
    sys.exit(main())
