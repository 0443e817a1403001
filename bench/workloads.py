"""Workload commands and the correctness check of the datasets they write.

A workload is a list of ``rabigeom`` CLI commands.  Each command writes one or
more CSV datasets (plus ``.meta.json`` sidecars) into an output directory.
A dataset passes when its command exited with 0, its sidecar shows a passed
convergence gate wherever a gate applies, and its CSV matches the reference
generated at the benchmark's seed commit: by sha256, or failing that,
numerically with max |diff| <= 1e-12 over every numeric cell.
"""

import csv
import gzip
import hashlib
import io
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_INDEX = os.path.join(REFERENCE_DIR, "reference.json")

#: largest |diff| a numeric cell may show when the sha256 does not match
TOLERANCE = 1e-12

#: rows kept from long CSVs (every SAMPLE_STRIDE-th row) for the numeric fallback
SAMPLE_STRIDE = 1000

EVOLVE_STEPS = 100_001

#: workload -> [(command name, CLI arguments without --out, datasets written)]
WORKLOADS = {
    "sector_sweep": [
        ("fig3", ["fig3"], ["fig3"]),
        ("fig4", ["fig4"], ["fig4"]),
        ("fig5", ["fig5"], ["fig5_p05", "fig5_m05", "fig5_p02", "fig5_m02"]),
    ],
    "anticrossing_refine": [
        ("scan_anticrossing", ["scan-anticrossing", "--delta", "0.5"],
         ["scan_anticrossing"]),
    ],
    "rwa_closed_form": [
        ("fig1", ["fig1"], ["fig1"]),
        ("fig2", ["fig2"], ["fig2"]),
        ("evolve", ["evolve", "--delta", "0.01", "--g1", "0.01", "--g2", "0.01",
                    "--levels", str(EVOLVE_STEPS)], ["evolve"]),
    ],
}

#: datasets whose full CSV is too large to keep; a sample of rows is kept
SAMPLED = {"evolve"}


def commands(workload: str, seed: int) -> list[tuple[str, list[str], list[str]]]:
    """The workload's commands in the order fixed by ``seed``.

    The presets themselves are fixed (their outputs are checked against
    references), so the seed only decides the order in which they run.
    """
    cmds = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cmds)
    return cmds


def argv_for(args: list[str], name: str, out_dir: str) -> list[str]:
    return args + ["--out", os.path.join(out_dir, name + ".csv")]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def load_index() -> dict:
    with open(REFERENCE_INDEX) as fh:
        return json.load(fh)


def reference_rows(entry: dict) -> list[list[str]]:
    with gzip.open(os.path.join(REFERENCE_DIR, entry["file"]), "rt",
                   newline="") as fh:
        return read_rows(fh.read())


def cells_differ(expected: list[list[str]], actual: list[list[str]]) -> str:
    """Empty string when the tables agree to TOLERANCE, else the first problem."""
    if len(expected) != len(actual):
        return f"{len(actual)} rows, expected {len(expected)}"
    for i, (exp_row, act_row) in enumerate(zip(expected, actual)):
        if len(exp_row) != len(act_row):
            return f"row {i}: {len(act_row)} columns, expected {len(exp_row)}"
        for j, (e, a) in enumerate(zip(exp_row, act_row)):
            if e == a:
                continue
            try:
                diff = abs(float(e) - float(a))
            except ValueError:
                return f"row {i} column {j}: {a!r}, expected {e!r}"
            if not diff <= TOLERANCE:
                return f"row {i} column {j}: |diff| {diff:.3e} > {TOLERANCE:g}"
    return ""


def summary_differs(expected: dict, actual: dict) -> str:
    if sorted(expected) != sorted(actual):
        return "summary keys differ"
    for key, e in expected.items():
        a = actual[key]
        if e == a:
            continue
        if not (isinstance(e, (int, float)) and isinstance(a, (int, float))
                and math.isfinite(a) and abs(a - e) <= TOLERANCE):
            return f"summary {key}: {a!r}, expected {e!r}"
    return ""


def check_dataset(name: str, out_dir: str, index: dict) -> str:
    """Empty string when dataset ``name`` in ``out_dir`` is correct, else why not."""
    entry = index[name]
    path = os.path.join(out_dir, name + ".csv")
    try:
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        digest = sha256_file(path)
    except FileNotFoundError as exc:
        return f"missing {os.path.basename(exc.filename)}"
    except json.JSONDecodeError as exc:
        return f"unreadable meta.json: {exc}"
    gate = meta.get("convergence_gate", {})
    if gate.get("applicable", True) and gate.get("passed") is not True:
        return "convergence gate did not pass"
    if "summary" in entry:
        problem = summary_differs(entry["summary"], meta.get("summary", {}))
        if problem:
            return problem
    if digest == entry["sha256"]:
        return ""
    with open(path, newline="") as fh:
        rows = read_rows(fh.read())
    if name in SAMPLED:
        if len(rows) != entry["rows"]:
            return f"{len(rows)} rows, expected {entry['rows']}"
        rows = rows[:1] + rows[1::SAMPLE_STRIDE]
    problem = cells_differ(reference_rows(entry), rows)
    return f"sha256 differs and {problem}" if problem else ""
