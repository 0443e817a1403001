import gzip
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rabigeom import cli, geometry, model, numerics
from rabigeom.model import RabiParams


BENCH_REFERENCE = (Path(__file__).resolve().parents[1] / "bench" / "reference"
                   / "reference.json")


def run(args):
    return cli.main(args)


def read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


def test_spectrum_rwa_endpoint_matches_decoupled(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--delta", "0.5", "--sweep", "g:0.0:0.2:3",
                "--rwa", "--levels", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["sweep_value", "model", "parity", "level", "energy"]
    # g = 0, even sector: lowest level is the vacuum at -(w1+w2)/2 = -1.5
    first = [r for r in rows if float(r[0]) == 0.0 and r[2] == "even"
             and r[3] == "0"]
    assert math.isclose(float(first[0][4]), -1.5, abs_tol=1e-12)
    meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
    assert meta["convergence_gate"] == {"applicable": False}


def test_spectrum_full_carries_gate(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["spectrum", "--delta", "0.5", "--sweep", "g:0.05:0.3:3",
                "--full", "--levels", "3", "--trunc-m", "40",
                "--drop-singlets", "--out", str(out)])
    assert code == 0
    meta = json.loads((out.parent / "s.csv.meta.json").read_text())
    gate = meta["convergence_gate"]
    assert gate["passed"] and gate["max_drift"] < 1e-6


def test_berry_dataset(tmp_path):
    out = tmp_path / "berry.csv"
    code = run(["berry", "--delta", "0.5", "--sweep", "g:0.01:0.1:4",
                "--trunc-m", "30", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["sweep_value", "state", "gamma_rwa", "gamma_full"]
    psi0 = [r for r in rows if r[1] == "psi0"]
    assert all(float(r[2]) == 0.0 for r in psi0)
    # weak coupling: full tracks RWA
    weak = [r for r in rows if float(r[0]) == 0.01]
    for r in weak:
        assert abs(float(r[2]) - float(r[3])) < 5e-2


def test_curvature_field_dataset(tmp_path):
    out = tmp_path / "field.csv"
    assert run(["curvature-field", "--levels", "19", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["label", "theta", "phi", "F_radial_normalized"]
    labels = {r[0] for r in rows}
    assert labels == {"eigen_jc", "eigen_two_qubit", "noneigen_jc",
                      "noneigen_two_qubit"}
    vals = [float(r[3]) for r in rows]
    assert max(abs(v) for v in vals) <= 1.0 + 1e-12


def test_noneigen_dataset(tmp_path):
    out = tmp_path / "ne.csv"
    code = run(["noneigen", "--delta", "0.2", "--sweep", "g:0.01:0.1:4",
                "--rwa", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["sweep_value", "g1", "g2", "delta", "F_theta_phi",
                      "gamma_rwa"]
    assert len(rows) == 4


def test_evolve_jc(tmp_path):
    out = tmp_path / "ev.csv"
    code = run(["evolve", "--model", "jc", "--delta", "0.0", "--g1", "0.05",
                "--levels", "1201", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:3] == ["t", "photon_expectation", "fidelity"]
    assert float(rows[-1][2]) == pytest.approx(1.0, abs=1e-9)
    meta = json.loads((tmp_path / "ev.csv.meta.json").read_text())
    assert meta["summary"]["P"] == pytest.approx(0.5, abs=1e-6)
    # the rows are the samples P_avg integrates
    cols = {name: np.array([float(r[j]) for r in rows])
            for j, name in enumerate(header)}
    P = numerics.trapezoid_integral(cols["t"], cols["photon_expectation"])
    assert np.all(np.abs(cols["P_avg"] - P / cols["T"][0]) <= 1e-15)


def test_evolve_norational_exit_code(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    code = run(["evolve", "--delta", "0.3", "--g1", "0.1", "--g2", "0.07",
                "--out", str(out)])
    assert code == 4
    # a doublet level degenerate with another has no finite period
    assert run(["evolve", "--delta", "0", "--g1", "0", "--g2", "0",
                "--out", str(out)]) == 4
    assert "bright doublet degenerate" in capsys.readouterr().err
    assert run(["evolve", "--model", "jc", "--delta", "0", "--g1", "0",
                "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: degenerate doublet")


#: the benchmark's own commands; scan_anticrossing pins the rounding of
#: locate_phase_jump's bisection, fig1-fig4 the RWA blocks and the fields
BENCH_COMMANDS = {
    "evolve": ["evolve", "--delta", "0.01", "--g1", "0.01", "--g2", "0.01",
               "--levels", "100001"],
    "scan_anticrossing": ["scan-anticrossing", "--delta", "0.5"],
    "fig1": ["fig1"],
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "fig5": ["fig5"],
}

#: the datasets of a command that writes more than one, named as in the
#: references
BENCH_DATASETS = {"fig5": ["fig5_p05", "fig5_m05", "fig5_p02", "fig5_m02"]}


#: datasets that moved by rounding after the references were generated,
#: since the sector kernel solves only the rows coupled to the field (the
#: spin singlets are exact eigenvectors).  Their present bytes are pinned
#: here, and the reference is still matched cell by cell to 1e-12.  Each
#: comment gives the max |diff| from the reference and the cells that differ.
MOVED_SHA256 = {
    # 2.3e-14, 1462 energy cells
    "fig3": "665b9e324accdf7b5c426a7a151d252b39cb979ff11dade75c221af4c6246154",
    # 2.9e-14, 204 cells
    "fig4": "56b8a749fa5c276374cc4958228afc710895af7789b3d14b27d475f05fd7c75e",
    # 1.5e-14, 70 cells
    "fig5_p05":
        "9731a875c1b83c2adad0973fa2b7dba5101f3c6ea9f5b9605324e15e8e07ae6a",
    # 9.3e-15, 69 cells
    "fig5_m05":
        "0da5788a528cf2c324b346fab746fa6fe408bf9e5c1fa44b067934bb03c4171b",
    # 8.2e-15, 66 cells
    "fig5_p02":
        "631102e5edb15b109dc0bf2758b1d0a5e7f33c3896979d51bea9f1de8c738915",
    # 9.8e-15, 68 cells
    "fig5_m02":
        "da5e4930ca1d01ab6f968f40504f2c005f18950b5714c87c5ebfbbc94f3d24b0",
    # 2.4e-15 in min_gap (golden section on eigvalsh energies), 1 cell;
    # g_star, jump_g and jump_size unchanged
    "scan_anticrossing":
        "5e743c3975460a3c02c368c6283d3d6841471953e63dda0a011aa04d7aa11780",
}

#: cells of moved datasets that must still equal the reference byte for
#: byte: locate_phase_jump's bisection ends where rounding decides each
#: step, so these cells move with any change to the arithmetic of the phase
EXACT_COLUMNS = {"scan_anticrossing": ("g_star", "jump_g", "jump_size")}


@pytest.mark.parametrize("name", BENCH_COMMANDS)
def test_evolve_bench_workload_matches_reference(tmp_path, name):
    # the benchmark's own references, read-only
    index = json.loads(BENCH_REFERENCE.read_text())
    assert run(BENCH_COMMANDS[name] + ["--out", str(tmp_path / f"{name}.csv")]) \
        == 0
    for dataset in BENCH_DATASETS.get(name, [name]):
        want = index[dataset]
        out = tmp_path / f"{dataset}.csv"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            MOVED_SHA256.get(dataset, want["sha256"])
        if dataset in MOVED_SHA256:
            with gzip.open(BENCH_REFERENCE.parent / want["file"], "rt") as fh:
                ref = fh.read().split("\n")
            got = out.read_text().split("\n")
            assert got[0] == ref[0] and len(got) == len(ref)
            for ref_row, row in zip(ref[1:], got[1:]):
                for e, a in zip(ref_row.split(","), row.split(",")):
                    assert e == a or abs(float(e) - float(a)) <= 1e-12
            for column in EXACT_COLUMNS.get(dataset, ()):
                i = ref[0].split(",").index(column)
                assert [r.split(",")[i] for r in got[1:] if r] == \
                    [r.split(",")[i] for r in ref[1:] if r]
        meta = json.loads((tmp_path / f"{dataset}.csv.meta.json").read_text())
        # the reference counts the header
        assert meta["rows"] == want["rows"] - 1


def test_config_error_exit_code(tmp_path):
    assert run(["spectrum", "--sweep", "nope", "--out", "x.csv"]) == 2
    assert run(["spectrum", "--sweep", "g:0.2:0.1:5", "--out", "x.csv"]) == 2
    assert run(["berry", "--sweep", "g:0.0:0.1:5"]) == 2  # no --out
    # the period average needs at least 1000 time samples
    assert run(["evolve", "--model", "jc", "--g1", "0.05", "--levels", "999",
                "--out", str(tmp_path / "ev.csv")]) == 2
    # an explicit 0 is not read as unset
    assert run(["evolve", "--model", "jc", "--g1", "0.05", "--levels", "0",
                "--out", str(tmp_path / "ev.csv")]) == 2
    assert run(["spectrum", "--delta", "0.3", "--sweep", "g:0.01:0.2:4",
                "--rwa", "--levels", "0", "--out", str(tmp_path / "s.csv")]) == 2
    # a sector keeps only 2(M + 1) = 22 states at M = 10
    assert run(["spectrum", "--delta", "0.3", "--sweep", "g:0.01:0.2:4",
                "--trunc-m", "10", "--levels", "30", "--full",
                "--out", str(tmp_path / "s.csv")]) == 2
    # the equal-frequency closed forms need omega1 == omega2
    unequal = ["--omega1", "1.0", "--omega2", "0.9"]
    assert run(["evolve", *unequal, "--g1", "0.1", "--g2", "0.1",
                "--out", str(tmp_path / "ev.csv")]) == 2
    for command in (["berry", "--rwa"], ["noneigen"]):
        assert run([*command, *unequal, "--sweep", "g:0.01:0.1:3",
                    "--out", str(tmp_path / "x.csv")]) == 2
    # truncations below 10 levels
    short = ["--delta", "0.5", "--out", str(tmp_path / "x.csv")]
    sweep = ["--sweep", "g:0.1:0.2:3"]
    assert run(["noneigen", *short, *sweep, "--trunc-m", "5"]) == 2
    assert run(["scan-anticrossing", *short, "--trunc-m", "5"]) == 2
    assert run(["spectrum", *short, *sweep, "--trunc-photons", "5"]) == 2
    # a plain-Fock sector keeps only 2 N = 20 states at N = 10 photons
    assert run(["spectrum", *short, *sweep, "--full", "--levels", "30",
                "--trunc-photons", "10"]) == 2
    # an --out path in a missing directory leaves no file behind
    missing = tmp_path / "nodir"
    assert run(["fig1", "--out", str(missing / "x.csv")]) == 2
    assert not missing.exists()
    # config values that are not numbers
    for command, bad in ((["noneigen", *sweep], {"trunc_m": "abc"}),
                         (["spectrum", *sweep], {"levels": "abc"}),
                         (["evolve"], {"g1": "abc"}),
                         (["scan-anticrossing"], {"g_min": "abc"}),
                         (["scan-anticrossing"], {"deltas": 0.5}),
                         # the g window must satisfy 0 <= g_min < g_max
                         (["scan-anticrossing"], {"g_min": -0.1}),
                         (["scan-anticrossing"], {"g_min": 0.3,
                                                  "g_max": 0.3}),
                         # a sweep object passes the checks of --sweep
                         (["noneigen"], {"sweep": {"var": "g", "start": 0.3,
                                                   "stop": 0.1, "points": 1}}),
                         (["noneigen"], {"sweep": {"var": "bogus",
                                                   "start": 0.1, "stop": 0.3,
                                                   "points": 3}}),
                         (["noneigen"], {"sweep": {"var": "g", "start": 0.1,
                                                   "stop": 0.3}}),
                         (["noneigen"], {"sweep": ["g", 0.1, 0.3, 3]}),
                         (["noneigen"], {"sweep": {"var": "g", "start": 0.1,
                                                   "stop": 0.3,
                                                   "points": 3.5}}),
                         # integer keys are not truncated or read from bools
                         (["noneigen", *sweep], {"trunc_m": 10.9}),
                         (["noneigen", *sweep], {"trunc_m": True}),
                         (["spectrum", *sweep], {"trunc_photons": 20.5}),
                         (["curvature-field"], {"levels": 1000.7}),
                         (["curvature-field"], {"levels": True})):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(bad))
        assert run([*command, *short, "--config", str(config)]) == 2


def test_dual_basis_audit_records_top_population(tmp_path):
    out = tmp_path / "s.csv"
    args = ["spectrum", "--delta", "0.5", "--sweep", "g:0.5:0.6:3", "--full",
            "--levels", "4", "--trunc-m", "40", "--out", str(out)]
    assert run(args + ["--trunc-photons", "60"]) == 0
    audit = json.loads((tmp_path / "s.csv.meta.json").read_text())[
        "dual_basis_audit"]
    assert audit["n_photons"] == 60 and audit["max_energy_deviation"] < 1e-8
    top = audit["top_level_population"]
    assert set(top) == {"even", "odd"}
    assert all(0.0 <= p < 1e-8 for p in top.values())
    # a short plain-Fock truncation shows in the audit (3.2e-7 in the odd
    # sector at g = 0.5)
    assert run(args + ["--trunc-photons", "10"]) == 0
    top = json.loads((tmp_path / "s.csv.meta.json").read_text())[
        "dual_basis_audit"]["top_level_population"]
    assert max(top.values()) > 1e-8


def test_scan_anticrossing_monotone_gap_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_min": 0.01, "g_max": 0.05, "trunc_m": 20}))
    assert run(["scan-anticrossing", "--delta", "0.5", "--config", str(cfg),
                "--out", str(tmp_path / "scan.csv")]) == 4
    assert capsys.readouterr().err.startswith("error: gap of levels")


def test_import_leaves_scipy_optimize_out():
    code = "import sys, rabigeom.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.2, "sweep": "g:0.01:0.05:3",
                               "mode": "rwa"}))
    out = tmp_path / "ne.csv"
    code = run(["noneigen", "--config", str(cfg), "--rwa", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert all(float(r[3]) == pytest.approx(0.2) for r in rows)
    # the same sweep as an object, with integral values of an integer key
    cfg.write_text(json.dumps({"delta": 0.2, "mode": "rwa", "trunc_m": 20.0,
                               "sweep": {"var": "g", "start": 0.01,
                                         "stop": 0.05, "points": 3}}))
    again = tmp_path / "again.csv"
    argv = ["noneigen", "--config", str(cfg), "--rwa", "--out", str(again)]
    assert run(argv) == 0
    assert again.read_bytes() == out.read_bytes()
    meta = json.loads((tmp_path / "again.csv.meta.json").read_text())
    assert meta["config"]["trunc_m"] == 20
    # the sidecar holds the merged configuration as it is
    merged = cli.load_config(cli.build_parser().parse_args(argv))
    assert meta["config"] == merged


@pytest.mark.parametrize("out, stem", [("data", "data"),
                                       ("d.csv/x.csv", "d.csv/x")])
def test_fig5_out_gives_four_datasets(tmp_path, out, stem):
    # the default fig5.csv gives fig5_p05.csv and so on (bench reference test)
    (tmp_path / "d.csv").mkdir()
    assert run(["fig5", "--trunc-m", "30", "--out", str(tmp_path / out)]) == 0
    ext = os.path.splitext(out)[1]
    paths = [tmp_path / f"{stem}_{tag}{ext}"
             for tag in ("p05", "m05", "p02", "m02")]
    assert not (tmp_path / out).exists()
    assert len({path.read_bytes() for path in paths}) == 4
    deltas = [json.loads(Path(f"{path}.meta.json").read_text())["config"][
        "delta"] for path in paths]
    assert deltas == [0.5, -0.5, 0.2, -0.2]


def test_byte_identical_reruns(tmp_path):
    args = ["noneigen", "--delta", "0.1", "--sweep", "g:0.01:0.09:5",
            "--trunc-m", "25"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _tail(params, M, kappa):
    _, vecs = numerics.eigh(model.sector_hamiltonian([params], M, kappa))
    # last displaced level of both ladders, lower half of the sector
    return max(vecs[0, M, j] ** 2 + vecs[0, -1, j] ** 2 for j in range(M + 1))


@pytest.mark.parametrize("command,kappas", [("spectrum", (1, -1)),
                                            ("berry", (1, -1)),
                                            ("noneigen", (-1,))])
def test_meta_records_worst_tail_population(tmp_path, command, kappas):
    out = tmp_path / "d.csv"
    # M = 20 is short at g = 0.6, so the gate fails (exit 3); the sidecar is
    # written either way
    assert run([command, "--delta", "0.5", "--sweep", "g:0.1:0.6:3",
                "--trunc-m", "20", "--out", str(out)]) == 3
    meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
    assert meta["convergence_gate"]["passed"] is False
    want = max(_tail(RabiParams.equal_frequency(0.5, g, g), 20, kappa)
               for g in (0.1, 0.35, 0.6) for kappa in kappas)
    assert want > 1e-8
    assert meta["diagnostics"]["max_tail_population"] == \
        pytest.approx(want, rel=1e-10)
    rwa_out = tmp_path / "r.csv"
    assert run([command, "--delta", "0.5", "--sweep", "g:0.1:0.6:3", "--rwa",
                "--out", str(rwa_out)]) == 0
    assert "diagnostics" not in json.loads(
        (tmp_path / "r.csv.meta.json").read_text())


def test_meta_records_per_point_diagnostics(tmp_path):
    out = tmp_path / "n.csv"
    gs = np.linspace(0.05, 0.3, 6)
    assert run(["noneigen", "--delta", "0.5", "--sweep", "g:0.05:0.3:6",
                "--trunc-m", "30", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "n.csv.meta.json").read_text())
    diag = meta["diagnostics"]
    tails, totals = diag["tail_population"], diag["vacuum_weight_total"]
    assert len(tails) == len(totals) == len(gs)
    assert max(tails) == diag["max_tail_population"]
    for g, tail, total in zip(gs, tails, totals):
        params = RabiParams.equal_frequency(0.5, float(g), float(g))
        assert tail == pytest.approx(_tail(params, 30, -1), rel=1e-6,
                                     abs=1e-20)
        assert abs(total - 1.0) <= 1e-8
        assert total == pytest.approx(
            geometry.noneigen_phase_beyond_rwa(params, 30)[1], abs=1e-12)


def test_gate_probes_worst_tail_point(tmp_path):
    out = tmp_path / "s.csv"
    # the truncation tail peaks at g2 = 0.75, index 3 of 5, not an end point;
    # M = 20 is short there, so the gate fails
    assert run(["spectrum", "--delta", "0.5", "--g1", "0.5", "--sweep",
                "g2:0.0:1.0:5", "--trunc-m", "20", "--out", str(out)]) == 3
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert 3 in meta["convergence_gate"]["points"]


def test_float_formatting_precision(tmp_path):
    # 17 significant digits round-trip doubles exactly
    out = tmp_path / "f.csv"
    cli.write_dataset(str(out), ["x", "y", "b"], [[math.pi, 1.0, True]], {})
    _, rows = read_csv(out)
    assert float(rows[0][0]) == math.pi
    assert rows[0][1] == "1"
    assert rows[0][2] == "1"


def _cell(value) -> str:
    """Reference: the per-cell rule of the CSV format."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


#: rows of varied cell types, each column of one kind (integer, float or
#: other); together they hold every formatting case of each kind
_ROWS = [
    (-0.0, True, np.bool_(False), np.int64(-7), np.float64(1 / 3), "even", 3),
    (math.pi, False, np.bool_(True), np.int64(2 ** 40), np.float64(-1e-300),
     None, np.uint8(255)),
    (5e-324, 1, 0, 10 ** 20, np.float64(-0.0), "a b", np.int16(-2)),
    (0.1, np.int32(4), np.uint64(2 ** 63), 0, 1e16, np.float32(0.1), True),
    (2.5, -1, np.int64(5), -3, -1.0e308, "psi1_2 %d", np.bool_(False))]
_HEADER = ["a", "b", "c", "d", "e", "f", "g"]


def test_write_dataset_matches_per_cell_rule(tmp_path):
    rows, header = _ROWS, _HEADER
    out = tmp_path / "t.csv"
    cli.write_dataset(str(out), header, iter(rows), {"command": "test"})
    want = "".join(",".join(map(_cell, row)) + "\n"
                   for row in [header, *rows])
    assert out.read_bytes() == want.encode()
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["rows"] == len(rows) and meta["columns"] == header


def _uniform_row(i: int) -> tuple:
    """A row whose every column keeps one cell type from row to row, of the
    kind of the same column of _ROWS."""
    return (0.1 * i, i % 2 == 0, np.bool_(i % 3), np.int64(-i),
            np.float64(i) / 3, f"s{i}", i)


@pytest.mark.parametrize("varied", [False, True])
@pytest.mark.parametrize("n_rows", [0, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS,
                                    cli.BLOCK_ROWS + 1])
def test_write_dataset_block_boundaries_match_per_cell_rule(tmp_path, n_rows,
                                                            varied):
    rows = [_uniform_row(i) for i in range(n_rows)]
    if varied:
        # rows of other cell types, of the same kinds, on both sides of the
        # first block boundary
        start = cli.BLOCK_ROWS - 2
        for i, row in enumerate(_ROWS[:3], start):
            if i < n_rows:
                rows[i] = row
    out = tmp_path / "t.csv"
    cli.write_dataset(str(out), _HEADER, iter(rows), {})
    want = "".join(",".join(map(_cell, row)) + "\n"
                   for row in [_HEADER, *rows])
    assert out.read_bytes() == want.encode()
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["rows"] == n_rows


def test_sidecar_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    sidecars = []
    for name in ("a.csv", "b.csv"):
        cli.write_dataset(str(tmp_path / name), ["x"], [[1.0]], {})
        sidecars.append((tmp_path / f"{name}.meta.json").read_text())
    # deterministic within one process, so reruns stay byte-identical
    assert sidecars[0] == sidecars[1]
    env = json.loads(sidecars[0])["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"python": platform.python_version(),
                   "numpy": np.__version__,
                   "blas": {"name": blas["name"], "version": blas["version"]},
                   "OPENBLAS_NUM_THREADS": os.environ.get(
                       "OPENBLAS_NUM_THREADS", "unset"),
                   "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "unset"}


@pytest.mark.parametrize("split", [2, 5])
@pytest.mark.parametrize("tail_row", [0, 3])
def test_write_dataset_fixed_columns_match_full_rows(tmp_path, split,
                                                     tail_row):
    fixed = _ROWS[tail_row][split:]
    full, lead = tmp_path / "full.csv", tmp_path / "lead.csv"
    cli.write_dataset(str(full), _HEADER,
                      [row[:split] + fixed for row in _ROWS], {})
    cli.write_dataset(str(lead), _HEADER,
                      (row[:split] for row in _ROWS), {}, fixed=fixed)
    assert lead.read_bytes() == full.read_bytes()
    assert (tmp_path / "lead.csv.meta.json").read_text() == \
        (tmp_path / "full.csv.meta.json").read_text()


def test_write_dataset_fixed_percent_is_literal(tmp_path):
    out = tmp_path / "p.csv"
    cli.write_dataset(str(out), ["x", "label", "n"], [[0.5], [2.0]],
                      {}, fixed=("100%d %s%%", 7))
    assert out.read_text() == "x,label,n\n0.5,100%d %s%%,7\n2,100%d %s%%,7\n"


@pytest.mark.parametrize("fixed, row", [((math.nan, 1), [0.5]),
                                        ((1.0, np.float64(np.inf)), [0.5]),
                                        ((1.0, 2), [0.5, 1.0]),
                                        ((1.0, 2), [])])
def test_write_dataset_bad_fixed_leaves_no_csv(tmp_path, fixed, row):
    out = tmp_path / "bad.csv"
    with pytest.raises(cli.ConfigError):
        cli.write_dataset(str(out), ["x", "y", "z"], [row], {}, fixed=fixed)
    assert not out.exists()
    assert not (tmp_path / "bad.csv.meta.json").exists()


_BAD_ROWS = [[math.nan, 1], [math.inf, 1], [np.float64(-np.inf), 1], [0.5],
             [0.5, 1, 2]]


# the bad row falls in the first block, or in the second after a full one
@pytest.mark.parametrize("bad, n_good", [
    pytest.param(bad, n_good, id=f"bad{i}{suffix}")
    for n_good, suffix in ((1000, ""), (cli.BLOCK_ROWS + 5, "-second_block"))
    for i, bad in enumerate(_BAD_ROWS)])
def test_write_dataset_bad_row_leaves_no_csv(tmp_path, bad, n_good):
    out = tmp_path / "bad.csv"
    good = ([0.1 * i, i] for i in range(n_good))
    with pytest.raises(cli.ConfigError):
        cli.write_dataset(str(out), ["x", "n"], itertools.chain(good, [bad]),
                          {})
    assert not out.exists()
    assert not (tmp_path / "bad.csv.meta.json").exists()


@pytest.mark.parametrize("bad", [[1, 1], ["0.5", 1], [0.5, 1.0]])
def test_write_dataset_mixed_column_leaves_no_csv(tmp_path, bad):
    # the column that mixes kinds falls in the second block
    out = tmp_path / "bad.csv"
    good = ([0.1 * i, i] for i in range(cli.BLOCK_ROWS + 5))
    with pytest.raises(cli.ConfigError, match="mixes"):
        cli.write_dataset(str(out), ["x", "n"], itertools.chain(good, [bad]),
                          {})
    assert not out.exists()
    assert not (tmp_path / "bad.csv.meta.json").exists()


def test_noneigen_short_truncation_exit_code(tmp_path, capsys):
    # at M = 10 the vacuum weights of |10,0> sum to 0.99999, not 1
    out = tmp_path / "ne.csv"
    assert run(["noneigen", "--delta", "0.5", "--sweep", "g:0.5:1.0:3",
                "--trunc-m", "10", "--out", str(out)]) == 3
    assert capsys.readouterr().err.rstrip().endswith("at M = 10")
    assert not out.exists()


def test_scan_anticrossing_honours_explicit_zero_delta(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan-anticrossing", "--delta", "0.0", "--trunc-m", "20",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [0.0]
    # the steepest coarse step at delta = 0 is the window's last interval
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["diagnostics"]["jump_on_window_edge"] == [True]


def test_scan_anticrossing(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan-anticrossing", "--delta", "0.5", "--trunc-m", "30",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["delta", "g_star", "min_gap", "jump_g", "jump_size"]
    g_star = float(rows[0][1])
    assert 0.24 <= g_star <= 0.28
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["diagnostics"]["jump_on_window_edge"] == [False]
