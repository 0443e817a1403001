import gzip
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rabigeom
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
    assert gate["passed"]
    assert gate["max_bound"] == max(meta["diagnostics"]["residual_bound"]) \
        <= cli.GATE_TOL


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
#: since the sector kernel solves the plain-Fock parity sector (the
#: references were written in the displaced-Fock basis) and since each
#: beyond-RWA sweep solves at the cutoff its truncation bounds certify (fig3
#: at M = 40, fig4 and fig5 at M = 30, all capped at 50).  Their present
#: bytes are pinned here, and the reference is still matched cell by cell to
#: 1e-12.  Each comment gives the max |diff| from the reference and the
#: cells that differ.
MOVED_SHA256 = {
    # 2.0e-14, 1470 energy cells
    "fig3": "c98cb74f85889296f36c79cdfd170a6ddad7caea0d0a43b06b90be54459b6d37",
    # 2.1e-14, 204 cells
    "fig4": "fcc5cf76164e91f8267f0f9856e29f67c1c00e58f6b6aa7da735299985775877",
    # 1.5e-14, 69 cells
    "fig5_p05":
        "49f877104ffdb97aebda7a47c723592ed419b6c2650332c43d2e2a0a53ad30dd",
    # 1.1e-14, 66 cells
    "fig5_m05":
        "3055f18c265c2a42d1e8affb1859043503aa05b9fb29a7b31988d1ff213fed4b",
    # 1.2e-14, 69 cells
    "fig5_p02":
        "f68c4295c6cafbf99bd9d8480483276ae3e1be684d6d17eac9d1f7be67d1bb85",
    # 7.1e-15, 67 cells
    "fig5_m02":
        "f741b6d76cf5a3e27867d9f0bd66bc987bbe58541ccadbf93812bf2aa5eccedd",
    # 1.8e-15 in min_gap (golden section on eigvalsh energies), 1 cell;
    # g_star, jump_g and jump_size unchanged
    "scan_anticrossing":
        "58829bf6cbea558d7581b7bf5e5b1d4fb10b277c305e4f57871552453b83db85",
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


def test_config_error_exit_code(tmp_path, capsys):
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
    for delta in ("nan", "inf"):
        assert run(["scan-anticrossing", "--delta", delta,
                    "--out", str(tmp_path / "x.csv")]) == 2
    # finite inputs whose Hamiltonian entries or closed forms overflow, with
    # no numpy warning; the 20-point sweep first overflows in its second
    # sector batch
    capsys.readouterr()
    infinite_window = tmp_path / "window.json"
    infinite_window.write_text('{"g_max": Infinity}')
    for command in (["spectrum", "--sweep", "g:0:1e308:2"],
                    ["spectrum", "--sweep", "g:0:1e308:20"],
                    ["spectrum", "--rwa", "--sweep", "g:0:1e308:2"],
                    ["berry", "--delta", "1e308", "--sweep", "g:0:0.1:2"],
                    ["noneigen", "--delta", "1e308", "--sweep", "g:0:0.1:2"],
                    ["scan-anticrossing", "--delta", "1e308"],
                    ["scan-anticrossing", "--config", str(infinite_window)],
                    # a sweep end or width that is not finite
                    ["spectrum", "--sweep", "g:0:inf:3"],
                    ["spectrum", "--sweep", "g:-1e308:1e308:3"]):
        out = tmp_path / "overflow.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*command, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()
    # a truncation whose sector matrices exceed physical memory (a batch of
    # 2(M + 1)-square matrices at M = 10^7 asks for petabytes) fails before
    # any is built: a config error, no traceback and no CSV
    huge = ["--trunc-m", "10000000"]
    out = tmp_path / "memory.csv"
    assert run(["scan-anticrossing", *huge, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()
    assert not Path(f"{out}.meta.json").exists()
    # a sweep reads --trunc-m as its largest cutoff, and these sweeps are
    # certified at the ladder's first rungs
    for command in (["spectrum", *huge, "--sweep", "g:0.1:0.2:2"],
                    ["berry", *huge, "--sweep", "g:0.1:0.2:2"],
                    ["noneigen", *huge, "--sweep", "g:0.1:0.2:2"]):
        assert run([*command, "--out", str(out)]) == 0
        truncation = json.loads(Path(f"{out}.meta.json").read_text())[
            "truncation"]
        assert truncation["certified"] and truncation["m"] <= 30
    # --rwa and --full choose results of spectrum, berry and noneigen only;
    # elsewhere they are rejected, not ignored
    capsys.readouterr()
    for command in (["scan-anticrossing", "--delta", "0.5"],
                    ["evolve", "--delta", "0.01", "--g1", "0.01", "--g2",
                     "0.01"],
                    ["curvature-field"], ["fig1"], ["fig2"], ["fig3"],
                    ["fig4"], ["fig5"]):
        for flag in ("--rwa", "--full"):
            out = tmp_path / "mode.csv"
            assert run([*command, flag, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("config error: ")
            assert not out.exists()
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
                         # at least one detuning, and finite ones
                         (["scan-anticrossing"], {"deltas": []}),
                         (["scan-anticrossing"], {"deltas": [0.5, "inf"]}),
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
                         (["curvature-field"], {"levels": 1000.7}),
                         (["curvature-field"], {"levels": True}),
                         # a mode is one of rwa, full, both, and only for
                         # the commands that choose results by it
                         (["spectrum", *sweep], {"mode": "bogus"}),
                         (["berry", *sweep], {"mode": "bogus"}),
                         (["scan-anticrossing"], {"mode": "rwa"}),
                         (["fig4"], {"mode": "full"})):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(bad))
        assert run([*command, "--out", str(tmp_path / "x.csv"),
                    "--config", str(config)]) == 2
    # a JSON true is a bool, not the number 1
    capsys.readouterr()
    g_sweep = {"var": "g", "start": 0.1, "stop": 0.2, "points": 2}
    for command, bad in ((["berry", "--rwa", *sweep], {"delta": True}),
                         (["berry", "--rwa", "--sweep", "delta:0.1:0.2:2"],
                          {"g1": True}),
                         (["berry", "--rwa", "--sweep", "delta:0.1:0.2:2"],
                          {"g2": True}),
                         (["berry", "--rwa", *sweep], {"omega1": True}),
                         (["berry", "--rwa", *sweep], {"omega1": 1.0,
                                                       "omega2": True}),
                         (["berry", "--rwa"], {"sweep": {**g_sweep,
                                                         "start": True}}),
                         (["berry", "--rwa"], {"sweep": {**g_sweep,
                                                         "stop": True}}),
                         (["scan-anticrossing"], {"g_min": True}),
                         (["scan-anticrossing"], {"g_max": True}),
                         (["scan-anticrossing"], {"delta": True}),
                         (["scan-anticrossing"], {"deltas": [0.5, True]})):
        config = tmp_path / "bool.json"
        config.write_text(json.dumps(bad))
        out = tmp_path / "bool.csv"
        assert run([*command, "--out", str(out), "--config", str(config)]) \
            == 2
        assert "True: not a number" in capsys.readouterr().err
        assert not out.exists()
    # a flag or config key that the command does not read is rejected, not
    # ignored, and leaves no CSV
    sweep3 = ["--sweep", "g:0.01:0.1:3"]
    for command, unread in (
            (["fig4", *sweep3], None),
            (["fig5", "--delta", "0.3"], None),
            (["evolve", "--delta", "0.01", "--g1", "0.01", "--g2", "0.01",
              *sweep3], None),
            (["noneigen", "--delta", "0.5", *sweep3, "--drop-singlets"], None),
            (["scan-anticrossing", "--levels", "3", "--g1", "0.4"], None),
            (["curvature-field", "--delta", "0.3", "--trunc-m", "30"], None),
            (["noneigen", "--delta", "0.5", *sweep3], {"trunc_mm": 12}),
            (["scan-anticrossing"], {"g_mn": 0.25}),
            # the plain-Fock audit's key went with the displaced sweeps
            (["spectrum", "--delta", "0.5", *sweep3], {"trunc_photons": 20}),
            (["scan-anticrossing", "--delta", "0.5"], {"deltas": [0.2]}),
            # these compute two-qubit closed forms only
            (["berry", "--model", "jc", "--delta", "0.5", *sweep3], None),
            (["noneigen", "--model", "jc", "--delta", "0.5", *sweep3], None),
            (["fig4", "--model", "jc"], None),
            (["fig4", "--model", "two-qubit"], None),
            (["fig5", "--model", "jc"], None)):
        out_dir = tmp_path / "unread"
        out_dir.mkdir()
        argv = [*command, "--out", str(out_dir / "x.csv")]
        if unread is not None:
            config = tmp_path / "unread.json"
            config.write_text(json.dumps(unread))
            argv += ["--config", str(config)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if "--model" in command:
            assert "does not read model" in err
        assert not any(out_dir.iterdir())
        out_dir.rmdir()


#: model keys that a point does not read; each of these exited 0 and wrote
#: the bytes of the same command without the key (fig5 wrote four identical
#: datasets)
UNREAD_MODEL_KEYS = {
    "delta_sweep_with_omega1": ["spectrum", "--sweep", "delta:0.1:0.5:3",
                                "--omega1", "1.2", "--g1", "0.1", "--g2",
                                "0.1", "--rwa"],
    "omega2_sweep_without_omega1": ["spectrum", "--sweep", "omega2:0.8:1.2:3",
                                    "--g1", "0.1", "--g2", "0.1", "--rwa"],
    "fig5_omega1": ["fig5", "--omega1", "1.3", "--trunc-m", "20"],
    "fig4_omega1_and_delta": ["fig4", "--omega1", "1.3", "--delta", "0.1",
                              "--trunc-m", "20"],
    "omega2_without_omega1": ["spectrum", "--omega2", "0.8", "--sweep",
                              "g:0.1:0.2:3", "--rwa"],
    "jc_g2_omega2": ["evolve", "--model", "jc", "--g1", "0.05", "--g2", "0.7",
                     "--omega2", "3"],
    "jc_g2": ["spectrum", "--model", "jc", "--g2", "0.7", "--sweep",
              "g1:0.1:0.2:3", "--rwa"],
    "g_sweep_with_g1": ["spectrum", "--sweep", "g:0.1:0.2:2", "--g1", "0.4",
                        "--rwa"],
}


@pytest.mark.parametrize("args", UNREAD_MODEL_KEYS.values(),
                         ids=UNREAD_MODEL_KEYS)
def test_model_key_a_point_does_not_read_is_a_config_error(tmp_path, capsys,
                                                           args):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run([*args, "--out", str(out_dir / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("command", ["fig3", "fig4"])
def test_preset_omega1_replaces_the_default_delta(tmp_path, command):
    # the preset's Delta = 0.5 is a default, not a given delta
    out = tmp_path / "f.csv"
    assert run([command, "--trunc-m", "30", "--omega1", "1.3",
                "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
    assert "delta" not in meta["config"]
    assert meta["config"]["omega1"] == 1.3


def test_rwa_spectrum_beyond_memory_exit_code(tmp_path, capsys,
                                              monkeypatch):
    # the energy bound at g = 1e5 admits 2.0e10 RWA blocks per parity: a
    # config error before any block is built, with no warning and no file
    monkeypatch.setattr(model, "PHYSICAL_MEMORY", 2**36)
    monkeypatch.setattr(model, "build_block", None)   # a call would raise
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["spectrum", "--rwa", "--delta", "0.5", "--sweep",
                    "g:0:1e5:2", "--levels", "3", "--out", str(out)]) == 2
    assert "RWA blocks" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(f"{out}.meta.json").exists()


def test_sweep_through_identical_qubits_keeps_the_near_singlet(tmp_path):
    # g1 = 0.19999999999999998 lies 2.8e-17 below g2, so the qubits differ
    # and the odd level near 0 stays, as at g1 = 0.19 and 0.21 (an EQ_TOL
    # test of identical qubits dropped it at that one point)
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--sweep", "g1:0.1:0.3:21", "--g2", "0.2",
                "--drop-singlets", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    gs = np.linspace(0.1, 0.3, 21)
    assert gs[10] == 0.19999999999999998
    for mode in ("rwa", "full"):
        for g in gs[9:12]:
            odd = np.array([float(r[4]) for r in rows if float(r[0]) == g
                            and r[1] == mode and r[2] == "odd"])
            assert list(np.flatnonzero(np.abs(odd) < 1e-3)) == [1]


@pytest.mark.parametrize("delta", ["0", "0.5"])
def test_dropped_rwa_singlets_match_the_sector_at_zero_coupling(tmp_path,
                                                               delta):
    # the RWA singlet ties with another level at g = 0, and at Delta = 0 for
    # every g; an eigenvector-weight test kept it wherever the solver mixed
    # the tied pair (at g = 0, and with OpenBLAS at Delta = 0 for g = 0.01,
    # 0.02, 0.04, 0.08 and 0.09 of this sweep), shifting every higher level
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--sweep", "g:0:0.1:11", "--delta", delta,
                "--drop-singlets", "--levels", "6", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    levels = {}
    for r in rows:
        levels.setdefault((float(r[0]), r[1], r[2]), []).append(float(r[4]))
    for parity in ("even", "odd"):
        assert np.max(np.abs(np.subtract(levels[0.0, "rwa", parity],
                                         levels[0.0, "full", parity]))) \
            <= 1e-12
        if delta == "0":
            for g in np.linspace(0.0, 0.1, 11)[1:]:
                assert np.min(np.diff(levels[g, "rwa", parity])) > 1e-9


@pytest.mark.parametrize("args, stages", [
    (["spectrum", "--delta", "0.5", "--sweep", "g:0.1:0.3:3", "--levels", "4",
      "--trunc-m", "20"], ("sweep_s", "write_s")),
    (["spectrum", "--delta", "0.5", "--sweep", "g:0.1:0.3:3", "--rwa"],
     ("sweep_s", "write_s")),
    (["berry", "--delta", "0.5", "--sweep", "g:0.1:0.3:3", "--trunc-m", "20"],
     ("sweep_s", "write_s")),
    (["noneigen", "--delta", "0.5", "--sweep", "g:0.1:0.3:3", "--trunc-m",
      "20"], ("sweep_s", "write_s")),
    (["curvature-field", "--levels", "11"], ("write_s",)),
    (["evolve", "--model", "jc", "--g1", "0.05"], ("write_s",)),
    (["scan-anticrossing", "--delta", "0.5", "--trunc-m", "20"],
     ("write_s",)),
    (["fig2"], ("write_s",)),
])
def test_sidecar_records_stage_timings(tmp_path, args, stages):
    out = tmp_path / "t.csv"
    sidecars = []
    for _ in range(2):
        assert run(args + ["--out", str(out)]) == 0
        sidecars.append(json.loads((tmp_path / "t.csv.meta.json").read_text()))
    for meta in sidecars:
        timings = meta.pop("timings")
        assert tuple(sorted(timings)) == stages
        assert all(isinstance(t, float) and t >= 0.0
                   for t in timings.values())
    # the timings are the only part of the sidecar that changes on a rerun
    assert sidecars[0] == sidecars[1]


@pytest.mark.parametrize("args", [
    ["spectrum", "--delta", "0.5", "--sweep", "g:0.1:0.3:3", "--levels", "4",
     "--trunc-m", "20"],
    ["noneigen", "--delta", "0.5", "--sweep", "g:0.1:0.3:3", "--rwa"],
    ["fig1"],
    ["evolve", "--model", "jc", "--g1", "0.05"],
    ["scan-anticrossing", "--delta", "0.5", "--trunc-m", "20"],
])
def test_sidecar_config_reruns_the_dataset(tmp_path, args):
    # the sidecar's command and config hold only keys the command reads
    first, again = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(first)]) == 0
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(meta["config"]))
    assert run([meta["command"], "--config", str(config),
                "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_noneigen_computes_the_vacuum_phases_once_per_solve(tmp_path,
                                                            monkeypatch):
    calls = []

    def counting(odd):
        calls.append(len(odd.energies))
        return phases(odd)
    phases = geometry.noneigen_phases_beyond_rwa
    monkeypatch.setattr(geometry, "noneigen_phases_beyond_rwa", counting)
    assert run(["noneigen", "--delta", "0.5", "--sweep", "g:0.1:0.3:7",
                "--trunc-m", "20", "--out", str(tmp_path / "n.csv")]) == 0
    # the sweep at its cutoff; the ladder's probes read bounds only
    assert calls == [7]


def test_scan_anticrossing_monotone_gap_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_min": 0.01, "g_max": 0.05, "trunc_m": 20}))
    assert run(["scan-anticrossing", "--delta", "0.5", "--config", str(cfg),
                "--out", str(tmp_path / "scan.csv")]) == 4
    assert capsys.readouterr().err.startswith("error: gap of levels")


def test_sweep_truncation_past_the_overlap_limit():
    # displaced-Fock overlaps overflow from size 1031 (binom(m, n)); sweeps
    # solve the plain-Fock sector, which has no such limit
    energies, _ = model.sector_energies(
        [RabiParams.equal_frequency(0.5, 30.0, 30.0)], 1031, 1)
    assert energies.shape == (1, 2064) and np.all(np.isfinite(energies))


def test_sweeps_build_no_displaced_overlap(tmp_path, monkeypatch):
    # the displaced-Fock basis is read by locate_phase_jump's bisection only
    def forbidden(*args, **kwargs):
        raise AssertionError("displaced-Fock overlap built")
    monkeypatch.setattr(model, "displacement_matrix", forbidden)
    monkeypatch.setattr(model, "_overlap_entries", forbidden)
    for command in ("spectrum", "berry", "noneigen"):
        assert run([command, "--delta", "0.5", "--sweep", "g:0.05:0.35:5",
                    "--trunc-m", "30", "--out", str(tmp_path / "d.csv")]) == 0
    ac = geometry.detect_anticrossing(
        lambda g: RabiParams.equal_frequency(0.5, g, g), kappa=1, g_min=0.2,
        g_max=0.32, M=30)
    assert 0.24 <= ac.g_star <= 0.28
    with pytest.raises(AssertionError, match="overlap built"):
        geometry.noneigen_phase_beyond_rwa(
            RabiParams.equal_frequency(0.5, 0.2, 0.2), 30)


def test_no_output_reads_eigenvector_signs(tmp_path, monkeypatch):
    # eigh keeps LAPACK's signs: every output reads a vector through squares,
    # quadratic forms or projectors, so flipped columns write the same bytes
    commands = (["fig4"], ["fig5"], ["scan-anticrossing", "--delta", "0.5"])

    def datasets(out_dir):
        out_dir.mkdir()
        for i, command in enumerate(commands):
            assert run([*command, "--out", str(out_dir / f"{i}.csv")]) == 0
        return {path.name: path.read_bytes() for path in out_dir.glob("*.csv")}

    want = datasets(tmp_path / "lapack")
    eigh, flips = numerics.eigh, []

    def flipped(matrix):
        values, vectors = eigh(matrix)
        vectors[..., 1::2] *= -1.0
        flips.append(vectors.shape)
        return numerics.EigenDecomposition(values, vectors)

    monkeypatch.setattr(numerics, "eigh", flipped)
    got = datasets(tmp_path / "flipped")
    assert flips and len(want) == 6
    assert got == want


def test_runtime_leaves_scipy_out(tmp_path):
    # no scipy module at import, nor one imported lazily by a sector sweep or
    # an anti-crossing scan
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trunc_m": 20}))
    code = ("import json, sys, rabigeom.cli as cli\n"
            "codes = [cli.main(json.loads(a)) for a in sys.argv[1:]]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m.split('.')[0] == 'scipy'))")
    spectrum = ["spectrum", "--delta", "0.5", "--sweep", "g:0.1:0.2:2",
                "--trunc-m", "20", "--out", str(tmp_path / "s.csv")]
    scan = ["scan-anticrossing", "--config", str(cfg),
            "--out", str(tmp_path / "a.csv")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(spectrum),
                          json.dumps(scan)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[0, 0] []"


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


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in cli.COMMAND_KEYS)


def test_every_command_has_one_handler():
    assert set(cli.PRESETS) | set(cli.DISPATCH) == set(cli.COMMAND_KEYS)
    assert not set(cli.PRESETS) & set(cli.DISPATCH)
    assert set(PRESET_DEFAULT_OUT) == set(cli.PRESETS)


#: the datasets each preset writes without --out, in the working directory
PRESET_DEFAULT_OUT = {
    "fig1": ["fig1_curvature_field.csv"],
    "fig2": ["fig2_noneigen_rwa.csv"],
    "fig3": ["fig3_spectrum.csv"],
    "fig4": ["fig4_berry.csv"],
    "fig5": [f"fig5_noneigen_{tag}.csv" for tag in ("p05", "m05", "p02",
                                                     "m02")],
}


@pytest.mark.parametrize("preset", PRESET_DEFAULT_OUT)
def test_preset_default_out(tmp_path, monkeypatch, preset):
    monkeypatch.chdir(tmp_path)
    # fig3-fig5 pass their convergence gates at M = 30
    short = [] if preset in ("fig1", "fig2") else ["--trunc-m", "30"]
    assert run([preset, *short]) == 0
    names = PRESET_DEFAULT_OUT[preset]
    assert sorted(os.listdir(tmp_path)) == sorted(
        names + [f"{name}.meta.json" for name in names])


def test_flags_before_the_command(tmp_path):
    args = ["--sweep", "g:0.01:0.3:4", "--trunc-m", "20"]
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert run(["--delta", "0.3", "berry", *args,
                "--out", str(before)]) == 0
    assert run(["berry", "--delta", "0.3", *args, "--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()


def test_byte_identical_reruns(tmp_path):
    args = ["noneigen", "--delta", "0.1", "--sweep", "g:0.01:0.09:5",
            "--trunc-m", "25"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


#: the CSV column a beyond-RWA command writes its results in
_RESULT_COLUMN = {"spectrum": "energy", "berry": "gamma_full",
                  "noneigen": "gamma_full"}


@pytest.mark.parametrize("command,kappas", [("spectrum", (1, -1)),
                                            ("berry", (1, -1)),
                                            ("noneigen", (-1,))])
def test_meta_records_worst_residual_bound(tmp_path, command, kappas):
    sweep = [command, "--delta", "0.5", "--sweep", "g:0.1:0.8:3", "--full"]
    out = tmp_path / "d.csv"
    # M = 20 is short at g = 0.8, so the gate fails (exit 3; largest bound
    # 4.0e-2, 8.4e-4 and 1.5e-1 for spectrum, berry and noneigen); the
    # sidecar is written either way.  A cap of 20 is the ladder's only rung
    assert run([*sweep, "--trunc-m", "20", "--out", str(out)]) == 3
    meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
    bounds = meta["diagnostics"]["residual_bound"]
    worst = max(bounds)
    assert meta["convergence_gate"] == {"max_bound": worst,
                                        "tolerance": cli.GATE_TOL,
                                        "passed": False}
    assert meta["truncation"] == {"cap": 20, "rungs_tried": [20], "m": 20,
                                  "tolerance": cli.CERTIFY_TOL,
                                  "certified": False}
    assert bounds[0] < bounds[1] < bounds[2] and bounds[2] > 1e-4
    # each point's bound covers what its rows moved by against the cutoff
    # the ladder picks under a cap of 100 (measured: at most 0.34 of it)
    again = tmp_path / "again.csv"
    assert run([*sweep, "--trunc-m", "100", "--out", str(again)]) == 0
    assert json.loads((tmp_path / "again.csv.meta.json").read_text())[
        "truncation"]["m"] > 40
    (header, rows), (_, converged) = read_csv(out), read_csv(again)
    column = header.index(_RESULT_COLUMN[command])
    per_point = len(rows) // 3
    for i, bound in enumerate(bounds):
        for row, want in zip(rows[i * per_point:(i + 1) * per_point],
                             converged[i * per_point:(i + 1) * per_point]):
            assert abs(float(row[column]) - float(want[column])) <= \
                bound + 1e-13
    rwa_out = tmp_path / "r.csv"
    assert run([command, "--delta", "0.5", "--sweep", "g:0.1:0.8:3", "--rwa",
                "--out", str(rwa_out)]) == 0
    rwa_meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert "diagnostics" not in rwa_meta and "truncation" not in rwa_meta


def test_meta_records_per_point_diagnostics(tmp_path):
    out = tmp_path / "n.csv"
    gs = np.linspace(0.05, 0.3, 6)
    assert run(["noneigen", "--delta", "0.5", "--sweep", "g:0.05:0.3:6",
                "--trunc-m", "30", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "n.csv.meta.json").read_text())
    diag = meta["diagnostics"]
    bounds, totals = diag["residual_bound"], diag["vacuum_weight_total"]
    assert len(bounds) == len(totals) == len(gs)
    assert max(bounds) == meta["convergence_gate"]["max_bound"] \
        <= cli.CERTIFY_TOL
    M = meta["truncation"]["m"]
    assert M == 30
    for g, bound, total in zip(gs, bounds, totals):
        params = RabiParams.equal_frequency(0.5, float(g), float(g))
        # 2 pi sum_j w_j r_j / gap_j over the kept odd states
        odd = model.solve_sectors([params], M, -1)
        kept = odd.kept(0)
        energies = odd.energies[0, kept]
        gaps = np.minimum(np.diff(energies, prepend=-np.inf),
                          np.diff(energies, append=np.inf))
        want = 2.0 * math.pi * np.sum(odd.vacuum_weights[0, kept]
                                      * odd.residuals[0, kept] / gaps)
        assert bound == pytest.approx(want, rel=1e-12, abs=1e-30)
        assert abs(total - 1.0) <= 1e-8
        assert total == pytest.approx(
            geometry.noneigen_phase_beyond_rwa(params, M)[1], abs=1e-12)


def test_gate_reads_the_worst_interior_point(tmp_path):
    out = tmp_path / "s.csv"
    # the residual bound, read off the truncation's last photon level, peaks
    # at omega2 = 3, index 3 of 5, not an end point; M = 20 is short there,
    # so the gate fails on that point's bound
    assert run(["spectrum", "--omega1", "1.5", "--g1", "0.8", "--g2", "0.8",
                "--sweep", "omega2:0:4:5", "--trunc-m", "20",
                "--out", str(out)]) == 3
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    bounds = meta["diagnostics"]["residual_bound"]
    assert int(np.argmax(bounds)) == 3
    gate = meta["convergence_gate"]
    assert gate["max_bound"] == bounds[3] and gate["passed"] is False


def test_float_formatting_precision(tmp_path):
    # 17 significant digits round-trip doubles exactly
    out = tmp_path / "f.csv"
    cli.write_dataset(str(out), ["x", "y", "b"], [[math.pi], [1.0], [True]],
                      {})
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


def _csv(header, rows) -> bytes:
    """Reference: the CSV of ``rows`` under ``header`` by the per-cell
    rule."""
    return "".join(",".join(map(_cell, row)) + "\n"
                   for row in [header, *rows]).encode()


def _columns(rows) -> list[list]:
    """The columns of ``rows``: column j holds the j-th cell of every row
    that has one, so a short row gives a short column and a long row an
    extra column."""
    width = max(map(len, rows), default=0)
    return [[row[j] for row in rows if len(row) > j] for j in range(width)]


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
    cli.write_dataset(str(out), header, _columns(rows), {"command": "test"})
    assert out.read_bytes() == _csv(header, rows)
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["rows"] == len(rows) and meta["columns"] == header


#: numpy array columns of each dtype the writer formats by its dtype, and an
#: object array, which it formats cell by cell
_ARRAYS = {
    "float64": np.array([-0.0, 1 / 3, 5e-324, -1e308, 0.1]),
    "float32": np.array([0.1, -2.5, 1e-30, 3.0, 0.0], dtype=np.float32),
    "int64": np.array([-7, 2 ** 40, 0, -(2 ** 63), 2 ** 63 - 1]),
    "uint64": np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 255], dtype=np.uint64),
    "bool": np.array([True, False, True, True, False]),
    "str": np.array(["even", "odd", "a b", "100%", ""]),
    "object": np.array([0.5, np.float64(2.0), 1e-7, -0.0, 7.0],
                       dtype=object),
}


@pytest.mark.parametrize("kind", _ARRAYS)
def test_write_dataset_array_columns_match_per_cell_rule(tmp_path, kind):
    # an array column is written as the sequence of its numpy scalars: a
    # float32 cell is an other cell, str() of the scalar
    column = _ARRAYS[kind]
    out = tmp_path / "t.csv"
    cli.write_dataset(str(out), ["i", kind], [range(5), column], {})
    assert out.read_bytes() == _csv(["i", kind], zip(range(5), column))


@pytest.mark.parametrize("cells", [[0.5, 1], [1, "a"], [np.float32(1.0), 2.0],
                                   [True, None]])
def test_write_dataset_mixed_object_array_leaves_no_csv(tmp_path, cells):
    out = tmp_path / "bad.csv"
    with pytest.raises(cli.ConfigError, match="mixes"):
        cli.write_dataset(str(out), ["x"], [np.array(cells, dtype=object)],
                          {})
    assert not out.exists()


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
    columns = _columns(rows) or [[]] * len(_HEADER)
    want = _csv(_HEADER, rows)
    out = tmp_path / "t.csv"
    cli.write_dataset(str(out), _HEADER, columns, {})
    assert out.read_bytes() == want
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["rows"] == n_rows
    if n_rows and not varied:
        # the same columns as arrays of float64, bool, int64 and str
        cli.write_dataset(str(out), _HEADER, list(map(np.array, columns)), {})
        assert out.read_bytes() == want


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
    # 0-d values are constant columns, written as if repeated on every row
    fixed = _ROWS[tail_row][split:]
    full, lead = tmp_path / "full.csv", tmp_path / "lead.csv"
    cli.write_dataset(str(full), _HEADER,
                      _columns([row[:split] + fixed for row in _ROWS]), {})
    cli.write_dataset(str(lead), _HEADER,
                      [*_columns([row[:split] for row in _ROWS]), *fixed], {})
    assert lead.read_bytes() == full.read_bytes()
    assert (tmp_path / "lead.csv.meta.json").read_text() == \
        (tmp_path / "full.csv.meta.json").read_text()


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("n_rows", [1, cli.BLOCK_ROWS + 1])
def test_write_dataset_constant_column_anywhere(tmp_path, at, n_rows):
    # a 0-d array or a scalar as the first, a middle or the last column
    rows = [_uniform_row(i)[:4] for i in range(n_rows)]
    constants = (np.array(np.float32(0.1)), np.array(-0.0), "100%s",
                 np.int64(-3), np.array(True))
    for constant in constants:
        cell = constant[()] if isinstance(constant, np.ndarray) else constant
        header = ["a", "b", "c", "d", "e"]
        columns = _columns(rows)
        columns.insert(at, constant)
        out = tmp_path / "c.csv"
        cli.write_dataset(str(out), header, columns, {})
        assert out.read_bytes() == _csv(
            header, [row[:at] + (cell,) + row[at:] for row in rows])


def test_write_dataset_only_constants_is_one_row(tmp_path):
    out = tmp_path / "c.csv"
    cli.write_dataset(str(out), ["x", "n"], [0.5, np.array(3)], {})
    assert out.read_text() == "x,n\n0.5,3\n"


def test_write_dataset_fixed_percent_is_literal(tmp_path):
    out = tmp_path / "p.csv"
    cli.write_dataset(str(out), ["x", "label", "n"],
                      [[0.5, 2.0], "100%d %s%%", 7], {})
    assert out.read_text() == "x,label,n\n0.5,100%d %s%%,7\n2,100%d %s%%,7\n"


@pytest.mark.parametrize("fixed, row", [((math.nan, 1), [0.5]),
                                        ((1.0, np.float64(np.inf)), [0.5]),
                                        ((1.0, 2), [0.5, 1.0]),
                                        ((1.0, 2), [])])
def test_write_dataset_bad_fixed_leaves_no_csv(tmp_path, fixed, row):
    # a non-finite constant, or one column too many or too few
    out = tmp_path / "bad.csv"
    with pytest.raises(cli.ConfigError):
        cli.write_dataset(str(out), ["x", "y", "z"],
                          [*([cell] for cell in row), *fixed], {})
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
    # as lists and as arrays: a non-finite float, a short column (from a
    # short row) or a column too many (from a long one)
    out = tmp_path / "bad.csv"
    columns = _columns([[0.1 * i, i] for i in range(n_good)] + [bad])
    for cols in (columns, list(map(np.array, columns))):
        with pytest.raises(cli.ConfigError):
            cli.write_dataset(str(out), ["x", "n"], cols, {})
        assert not out.exists()
        assert not (tmp_path / "bad.csv.meta.json").exists()


@pytest.mark.parametrize("bad", [[1, 1], ["0.5", 1], [0.5, 1.0]])
def test_write_dataset_mixed_column_leaves_no_csv(tmp_path, bad):
    # the cell that mixes kinds falls in the first or the second block, in a
    # list or an object array
    out = tmp_path / "bad.csv"
    for n_good in (1000, cli.BLOCK_ROWS + 5):
        columns = _columns([[0.1 * i, i] for i in range(n_good)] + [bad])
        for cols in (columns, [np.array(c, dtype=object) for c in columns]):
            with pytest.raises(cli.ConfigError, match="mixes"):
                cli.write_dataset(str(out), ["x", "n"], cols, {})
            assert not out.exists()
            assert not (tmp_path / "bad.csv.meta.json").exists()


@pytest.mark.parametrize("columns", [
    [[0.5, 1.5], [1, 2, 3]], [np.zeros(3), np.arange(2)],
    [np.zeros(2), [1]], [np.zeros((2, 2)), [1, 2]]],
    ids=["lists", "arrays", "mixed", "2d"])
def test_write_dataset_unequal_columns_leave_no_csv(tmp_path, columns):
    out = tmp_path / "bad.csv"
    with pytest.raises(cli.ConfigError):
        cli.write_dataset(str(out), ["x", "n"], columns, {})
    assert not out.exists()


def test_write_dataset_unwritable_path_leaves_nothing(tmp_path):
    out = tmp_path / "nodir" / "x.csv"
    with pytest.raises(cli.ConfigError, match="cannot write"):
        cli.write_dataset(str(out), ["x"], [[1.0]], {})
    assert not (tmp_path / "nodir").exists()


def test_unwritable_sidecar_leaves_no_csv(tmp_path, capsys):
    # the sidecar's path is a directory: exit 2, and the CSV written before
    # it is removed
    out = tmp_path / "f.csv"
    (tmp_path / "f.csv.meta.json").mkdir()
    assert run(["fig1", "--levels", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert not out.exists()


@pytest.mark.parametrize("out", [2, True, 1.5, ["x.csv"]])
def test_config_out_that_is_not_a_path_is_a_config_error(tmp_path, capsys,
                                                         monkeypatch, out):
    # an integer would be opened as a file descriptor (2 is stderr)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"out": out}))
    for command in (["curvature-field", "--levels", "3"], ["fig1"]):
        assert run([*command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == \
            f"config error: out {out!r}: need a path\n"
    assert os.listdir(tmp_path) == ["c.json"]


def test_config_out_null_is_unset(tmp_path, capsys, monkeypatch):
    # the preset's default name applies; a command without one needs --out
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text('{"out": null}')
    assert run(["fig1", "--levels", "3", "--config", str(config)]) == 0
    assert (tmp_path / "fig1_curvature_field.csv").exists()
    assert run(["curvature-field", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "config error: --out PATH is required\n"
    # a flag's path wins over the null
    assert run(["curvature-field", "--levels", "3", "--config", str(config),
                "--out", str(tmp_path / "c.csv")]) == 0


def test_noneigen_short_truncation_exit_code(tmp_path, capsys):
    # M = 10 is short at g = 1: the gate fails.  |10,0> is a basis vector of
    # the sector, so its weights still sum to 1, less what the floor drops
    out = tmp_path / "ne.csv"
    assert run(["noneigen", "--delta", "0.5", "--sweep", "g:0.5:1.0:3",
                "--trunc-m", "10", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: convergence gate failed")
    assert out.exists()
    meta = json.loads((tmp_path / "ne.csv.meta.json").read_text())
    assert meta["convergence_gate"]["passed"] is False
    totals = meta["diagnostics"]["vacuum_weight_total"]
    assert len(totals) == 3
    assert all(abs(total - 1.0) <= 1e-10 for total in totals)


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
    # the even-sector pair and its d^2E/d omega_c^2 at g_star, one per delta
    ac = geometry.detect_anticrossing(
        lambda g: RabiParams.equal_frequency(0.5, g, g), kappa=1, g_min=0.2,
        g_max=0.32, M=30)
    assert ac.g_star == g_star
    assert meta["diagnostics"]["level_pair"] == [[3, 4]]
    assert meta["diagnostics"]["pair_curvature"] == [list(ac.curvature)]
    lower, upper = ac.curvature
    assert lower < -100.0 and upper > 100.0


@pytest.mark.parametrize("trunc_m", [50, 20, 10])
def test_scan_anticrossing_records_truncation_bounds(tmp_path, trunc_m):
    # per delta: the energy bound of the anti-crossing pair from a solve at
    # g_star, and the largest phase bound over the 61-point scan that
    # locate_phase_jump solves at scan_m, the first rung that certifies the
    # window's ends and midpoint (30 under a cap of 50; the cap of 20 or 10
    # is the ladder's only rung).  The gate reads the largest of them:
    # M = 10 is short (jump_g is 1.2e-6 off the M = 50 value there), so it
    # exits 3 with the CSV and sidecar written
    out = tmp_path / "scan.csv"
    passed = trunc_m > 10
    assert run(["scan-anticrossing", "--delta", "0.5", "--trunc-m",
                str(trunc_m), "--out", str(out)]) == (0 if passed else 3)
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    (bounds,) = meta["diagnostics"]["residual_bound"]
    (scan_m,) = meta["diagnostics"]["scan_m"]
    assert scan_m == {50: 30, 20: 20, 10: 10}[trunc_m]
    assert meta["convergence_gate"] == {"max_bound": max(bounds.values()),
                                        "tolerance": cli.GATE_TOL,
                                        "passed": passed}
    (pair,) = meta["diagnostics"]["level_pair"]
    g_star = float(read_csv(out)[1][0][1])
    star = model.solve_sectors(
        [RabiParams.equal_frequency(0.5, g_star, g_star)], trunc_m, 1)
    odd = model.solve_sectors([RabiParams.equal_frequency(0.5, g, g)
                               for g in np.linspace(0.2, 0.32, 61)],
                              scan_m, -1)
    assert bounds == {
        "pair_energy": float(cli._energy_bounds(star, pair[1] + 1, True)[0]),
        "vacuum_phase": float(np.max(cli._vacuum_phase_bounds({-1: odd})))}
    if trunc_m == 50:
        assert max(bounds.values()) <= cli.CERTIFY_TOL
    elif trunc_m == 10:
        assert min(bounds.values()) > cli.GATE_TOL


def test_scan_anticrossing_climbs_to_the_cap_when_no_rung_certifies(
        tmp_path, monkeypatch):
    # the window's end at g = 2.0 needs more than 30 photons: its ends and
    # midpoint climb every rung, the cap included, the coarse scans run at
    # the cap, and the gate fails with the CSV and sidecar written
    calls = []
    solve = model.solve_sectors

    def counting(params_list, M, kappa):
        calls.append((len(params_list), M, kappa))
        return solve(params_list, M, kappa)

    monkeypatch.setattr(model, "solve_sectors", counting)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"g_min": 0.2, "g_max": 2.0, "delta": 0.5}))
    out = tmp_path / "scan.csv"
    assert run(["scan-anticrossing", "--config", str(config), "--trunc-m",
                "30", "--out", str(out)]) == 3
    assert calls[:4] == [(3, 20, 1), (3, 20, -1), (3, 30, 1), (3, 30, -1)]
    assert len(read_csv(out)[1]) == 1
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["diagnostics"]["scan_m"] == [30]
    assert meta["convergence_gate"]["passed"] is False


# ---------------------------------------------------------------------------
# The cutoff ladder of beyond-RWA sweeps
# ---------------------------------------------------------------------------

def test_ladder_rungs():
    assert cli._ladder(50) == [20, 30, 40, 50]
    assert cli._ladder(45) == [20, 30, 40, 45]
    assert cli._ladder(25) == [20, 25]
    assert cli._ladder(20) == [20]
    assert cli._ladder(10) == [10]
    # steps of 10 up to 100, then x1.25 rounded up to a multiple of 10
    assert cli._ladder(400) == [*range(20, 101, 10), 130, 170, 220, 280, 350,
                                400]
    # a climb to M costs about M^4 in steps of 10, about M^3 in these
    assert len(cli._ladder(10**5)) <= 45


@pytest.mark.parametrize("kappa", [1, -1])
def test_angle_bounds_match_a_per_point_loop(kappa):
    # identical qubits (singlets) beside unequal ones, and g = 0, where
    # kept levels tie and every residual is 0
    params_list = [RabiParams(omega1=1.5, omega2=w2, g1=g, g2=g)
                   for w2 in (0.5, 1.5, 2.5) for g in (0.0, 0.3)]
    sol = model.solve_sectors(params_list, 20, kappa)
    got = cli._angle_bounds(sol)
    assert np.any(sol.singlet) and not np.any(got[sol.singlet])
    for i in range(len(params_list)):
        kept = sol.kept(i)
        energies = sol.energies[i, kept]
        gaps = np.minimum(np.diff(energies, prepend=-np.inf),
                          np.diff(energies, append=np.inf))
        for j, gap in zip(kept, gaps):
            r = sol.residuals[i, j]
            assert got[i, j] == (r / gap if r > 0.0 else 0.0)


def _ladder_run(monkeypatch, fails_below, bound=1.0, probes_fail=False):
    """cli._beyond_rwa over five points whose second point, which no probe
    covers, carries ``bound`` below the cutoff ``fails_below`` and every
    other bound 0, under a cap of 50; with ``probes_fail``, the first of the
    three probes carries 1.0 at every cutoff.  Returns the (points, M) of
    every solve_sectors call and the sidecar metadata."""
    calls = []
    solve = model.solve_sectors

    def counting(params_list, M, kappa):
        calls.append((len(params_list), M))
        return solve(params_list, M, kappa)

    def bounds(sols):
        M = sols[1].energies.shape[1] // 2 - 1
        worst = np.zeros(len(sols[1].energies))
        if len(worst) == 5 and M < fails_below:
            worst[1] = bound
        if len(worst) == 3 and probes_fail:
            worst[0] = 1.0
        return worst

    monkeypatch.setattr(model, "solve_sectors", counting)
    params_list = [RabiParams.equal_frequency(0.5, g, g)
                   for g in (0.1, 0.2, 0.3, 0.4, 0.5)]
    meta = {"timings": {}}
    sols = cli._beyond_rwa(params_list, 50, (1,), bounds, meta)
    assert list(sols) == [1]
    assert sols[1].energies.shape[1] == 2 * (meta["truncation"]["m"] + 1)
    return calls, meta


def test_ladder_moves_the_whole_sweep_up_while_a_point_fails(monkeypatch):
    # the probes (points 0, 2 and 4) pass at 20; the sweep is solved at 20,
    # 30 and 40, where point 1 passes too, and nothing is solved beyond it
    calls, meta = _ladder_run(monkeypatch, fails_below=40)
    truncation = meta["truncation"]
    assert calls == [(3, 20), (5, 20), (5, 30), (5, 40)]
    assert truncation["m"] == 40 and truncation["certified"]
    assert truncation["rungs_tried"] == [20, 30, 40]
    assert meta["convergence_gate"]["passed"]


def test_ladder_solves_at_the_cap_when_nothing_certifies(monkeypatch):
    calls, meta = _ladder_run(monkeypatch, fails_below=math.inf)
    assert calls == [(3, 20), (5, 20), (5, 30), (5, 40), (5, 50)]
    assert meta["truncation"] == {"cap": 50, "rungs_tried": [20, 30, 40, 50],
                                  "m": 50, "tolerance": cli.CERTIFY_TOL,
                                  "certified": False}
    assert meta["convergence_gate"] == {"max_bound": 1.0,
                                        "tolerance": cli.GATE_TOL,
                                        "passed": False}


def test_ladder_solves_the_probes_at_the_cap_when_they_never_certify(
        monkeypatch):
    # the probes climb every rung, the cap included; the sweep is then
    # solved once, at the cap, where point 1 certifies
    calls, meta = _ladder_run(monkeypatch, fails_below=50, probes_fail=True)
    assert calls == [(3, 20), (3, 30), (3, 40), (3, 50), (5, 50)]
    assert meta["truncation"] == {"cap": 50, "rungs_tried": [20, 30, 40, 50],
                                  "m": 50, "tolerance": cli.CERTIFY_TOL,
                                  "certified": True}
    assert meta["convergence_gate"]["passed"]


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_gate_passes_at_gate_tol_and_fails_above(monkeypatch, above):
    # the uncertified point's bound decides the gate of the cap's sweep
    bound = math.nextafter(cli.GATE_TOL, 1.0) if above else cli.GATE_TOL
    _, meta = _ladder_run(monkeypatch, fails_below=math.inf, bound=bound)
    assert meta["convergence_gate"] == {"max_bound": bound,
                                        "tolerance": cli.GATE_TOL,
                                        "passed": not above}
    assert cli._gate_exit(meta) == (3 if above else 0)


def _preset_rows(tmp_path, preset):
    """Run ``preset`` at its default cap; per dataset, its CSV rows and
    sidecar."""
    assert run([preset, "--out", str(tmp_path / f"{preset}.csv")]) == 0
    out = {}
    for name in BENCH_DATASETS.get(preset, [preset]):
        out[name] = (read_csv(tmp_path / f"{name}.csv")[1], json.loads(
            (tmp_path / f"{name}.csv.meta.json").read_text()))
    return out


def _fixed_m_columns(preset, params_list, M):
    """The beyond-RWA numbers ``preset`` writes at params_list, per point,
    from solve_sectors at the fixed truncation M."""
    sols = {kappa: model.solve_sectors(params_list, M, kappa)
            for kappa in ((-1,) if preset == "fig5" else (1, -1))}
    if preset == "fig3":
        return [[float(e) for sol in sols.values()
                 for e in sol.energies[i, sol.kept(i)[:8]]]
                for i in range(len(params_list))]
    if preset == "fig4":
        return [[row[j] for j in cli._COUNTERPARTS.values()]
                for row in cli._eigenphases(sols)]
    return [[float(gamma)] for gamma in
            geometry.noneigen_phases_beyond_rwa(sols[-1])[0]]


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_preset_cutoff_matches_a_fixed_truncation(tmp_path, preset):
    """Every preset sweep takes a cutoff below its cap of 50, and every
    point it writes matches fixed-M = 60 solves within 1e-13."""
    for name, (rows, meta) in _preset_rows(tmp_path, preset).items():
        truncation = meta["truncation"]
        assert truncation["cap"] == 50 and truncation["certified"]
        assert truncation["m"] < 50
        assert meta["convergence_gate"]["passed"] is True
        sweep = meta["config"]["sweep"]
        gs = np.linspace(sweep["start"], sweep["stop"], sweep["points"])
        delta = meta["config"]["delta"]
        want = _fixed_m_columns(
            preset, [RabiParams.equal_frequency(delta, g, g) for g in gs], 60)
        by_point = {}
        for row in rows:
            if preset != "fig3" or row[1] == "full":
                by_point.setdefault(float(row[0]), []).append(
                    float(row[{"fig3": 4, "fig4": 3, "fig5": 6}[preset]]))
        assert list(by_point) == gs.tolist()
        for got, columns in zip(by_point.values(), want):
            assert len(got) == len(columns)
            assert np.max(np.abs(np.subtract(got, columns))) <= 1e-13


def test_strong_coupling_sweep_climbs_above_40(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--delta", "0.5", "--sweep", "g:0.1:1.5:3",
                "--full", "--trunc-m", "200", "--out", str(out)]) == 0
    truncation = json.loads((tmp_path / "s.csv.meta.json").read_text())[
        "truncation"]
    assert truncation["certified"] and truncation["m"] > 40
    assert truncation["rungs_tried"] == list(range(20, truncation["m"] + 1,
                                                   10))


def test_levels_beyond_a_low_rung_climb_the_ladder(tmp_path, capsys):
    # with the singlets dropped, a sector keeps 31 states at M = 20 and 46
    # at M = 30: 40 levels climb past 20, and only a cap of 20 is an error
    args = ["spectrum", "--delta", "0.5", "--sweep", "g:0.01:0.1:3", "--full",
            "--drop-singlets", "--levels", "40"]
    out = tmp_path / "s.csv"
    assert run([*args, "--trunc-m", "60", "--out", str(out)]) == 0
    truncation = json.loads((tmp_path / "s.csv.meta.json").read_text())[
        "truncation"]
    assert truncation["rungs_tried"][0] == 20 and truncation["m"] >= 30
    capsys.readouterr()
    assert run([*args, "--trunc-m", "20", "--out", str(out)]) == 2
    assert "keeps only 31 states at M = 20" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [1, 2])
def test_preset_bytes_do_not_depend_on_the_sector_batch(tmp_path, threads):
    # both batch sizes, in a process whose BLAS runs each eigensolve on
    # `threads` threads, write the pinned bytes
    code = ("import sys\n"
            "from rabigeom import cli, model\n"
            "for batch in (4, 16):\n"
            "    model.SECTOR_BATCH = batch\n"
            "    out = f'{sys.argv[1]}/fig4_{batch}.csv'\n"
            "    assert cli.main(['fig4', '--out', out]) == 0")
    env = {var: value for var, value in os.environ.items()
           if var not in rabigeom.BLAS_THREAD_VARS}
    blas = dict.fromkeys(rabigeom.BLAS_THREAD_VARS, str(threads))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                   capture_output=True, env={**env, **blas, "PYTHONPATH": src})
    digests = [hashlib.sha256((tmp_path / f"fig4_{batch}.csv").read_bytes())
               .hexdigest() for batch in (4, 16)]
    assert digests == [MOVED_SHA256["fig4"]] * 2


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident size from /proc")
def test_impossible_truncation_fails_before_allocating(tmp_path):
    # the batch stack at M = 10^7 is checked against physical memory before
    # any array is built: exit 2, and the process stays near its import
    # size.  The child reports its own peak (VmHWM): Linux carries the
    # forking process's peak over exec into ru_maxrss
    code = ("import sys\n"
            "from rabigeom import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh\n"
            "               if line.startswith('VmHWM:')))\n"
            "sys.exit(code)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code, "scan-anticrossing",
                          "--trunc-m", "10000000",
                          "--out", str(tmp_path / "scan.csv")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith("config error: ")
    assert int(out.stdout) < 100 * 1024   # kB
