"""Self-test of the benchmark's dataset check (bench/workloads.py)."""

import gzip
import json
import os

import pytest

import workloads
from rabigeom import cli

INDEX = workloads.load_index()


def write_reference(name, out_dir, text=None):
    """Copy the reference CSV of ``name`` into ``out_dir`` with a passing gate."""
    entry = INDEX[name]
    if text is None:
        with gzip.open(os.path.join(workloads.REFERENCE_DIR, entry["file"]),
                       "rt", newline="") as fh:
            text = fh.read()
    with open(os.path.join(out_dir, name + ".csv"), "w", newline="") as fh:
        fh.write(text)
    meta = {"convergence_gate": {"passed": True}}
    with open(os.path.join(out_dir, name + ".csv.meta.json"), "w") as fh:
        json.dump(meta, fh)
    return text


def perturb_first_value(text, delta):
    """Add ``delta`` to the last numeric cell of the first data row."""
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def test_reference_copy_passes(tmp_path):
    write_reference("fig4", tmp_path)
    assert workloads.check_dataset("fig4", tmp_path, INDEX) == ""


def test_perturbation_of_1e_9_fails(tmp_path):
    text = write_reference("fig4", tmp_path)
    write_reference("fig4", tmp_path, perturb_first_value(text, 1e-9))
    assert "|diff|" in workloads.check_dataset("fig4", tmp_path, INDEX)


def test_perturbation_below_tolerance_passes_numerically(tmp_path):
    text = write_reference("fig3", tmp_path)
    write_reference("fig3", tmp_path, perturb_first_value(text, 1e-13))
    assert workloads.sha256_file(tmp_path / "fig3.csv") != INDEX["fig3"]["sha256"]
    assert workloads.check_dataset("fig3", tmp_path, INDEX) == ""


def test_missing_csv_fails(tmp_path):
    write_reference("fig4", tmp_path)
    os.remove(tmp_path / "fig4.csv")
    assert workloads.check_dataset("fig4", tmp_path, INDEX) == "missing fig4.csv"


def test_failed_gate_fails(tmp_path):
    write_reference("fig4", tmp_path)
    with open(tmp_path / "fig4.csv.meta.json", "w") as fh:
        json.dump({"convergence_gate": {"passed": False}}, fh)
    assert "gate" in workloads.check_dataset("fig4", tmp_path, INDEX)


def test_sampled_dataset_checks_summary(tmp_path):
    entry = INDEX["evolve"]
    write_reference("evolve", tmp_path)
    meta = {"convergence_gate": {"applicable": False},
            "summary": dict(entry["summary"], P=entry["summary"]["P"] + 1e-9)}
    with open(tmp_path / "evolve.csv.meta.json", "w") as fh:
        json.dump(meta, fh)
    assert "summary P" in workloads.check_dataset("evolve", tmp_path, INDEX)


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_byte_identical_rerun_passes(tmp_path, name):
    args = dict((n, a) for n, a, _ in workloads.WORKLOADS["rwa_closed_form"])[name]
    assert cli.main(workloads.argv_for(args, name, str(tmp_path))) == 0
    assert workloads.sha256_file(tmp_path / f"{name}.csv") == INDEX[name]["sha256"]
    assert workloads.check_dataset(name, tmp_path, INDEX) == ""
