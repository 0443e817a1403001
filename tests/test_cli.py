import json
import math

import numpy as np
import pytest

from rabigeom import cli, model, numerics
from rabigeom.model import DisplacedBasis, RabiParams


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


def test_evolve_norational_exit_code(tmp_path):
    out = tmp_path / "ev.csv"
    code = run(["evolve", "--delta", "0.3", "--g1", "0.1", "--g2", "0.07",
                "--out", str(out)])
    assert code == 4


def test_config_error_exit_code(tmp_path):
    assert run(["spectrum", "--sweep", "nope", "--out", "x.csv"]) == 2
    assert run(["spectrum", "--sweep", "g:0.2:0.1:5", "--out", "x.csv"]) == 2
    assert run(["berry", "--sweep", "g:0.0:0.1:5"]) == 2  # no --out
    # the period average needs at least 1000 time samples
    assert run(["evolve", "--model", "jc", "--g1", "0.05", "--levels", "999",
                "--out", str(tmp_path / "ev.csv")]) == 2


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.2, "sweep": "g:0.01:0.05:3",
                               "mode": "rwa"}))
    out = tmp_path / "ne.csv"
    code = run(["noneigen", "--config", str(cfg), "--rwa", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert all(float(r[3]) == pytest.approx(0.2) for r in rows)


def test_byte_identical_reruns(tmp_path):
    args = ["noneigen", "--delta", "0.1", "--sweep", "g:0.01:0.09:5",
            "--trunc-m", "25"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _tail(params, M, kappa):
    pairs = model.truncated_parity_solve(
        params, DisplacedBasis.for_params(params, M=M), kappa,
        check_truncation=False)
    return max(2.0 * (p.d1[-1] ** 2 + p.d2[-1] ** 2) for p in pairs[:M + 1])


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
    assert float(cli._fmt(math.pi)) == math.pi
    assert cli._fmt(1.0) == "1"
    assert cli._fmt(True) == "1"


def test_scan_anticrossing(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan-anticrossing", "--delta", "0.5", "--trunc-m", "30",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["delta", "g_star", "min_gap", "jump_g", "jump_size"]
    g_star = float(rows[0][1])
    assert 0.24 <= g_star <= 0.28
