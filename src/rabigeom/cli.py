"""Command-line front end: figure presets, parameter scans, CSV export.

Every command writes one CSV dataset plus a JSON sidecar (<out>.meta.json)
recording the full configuration, truncations, package version and the
truncation convergence gate, so a dataset can be reproduced bit-exactly from
its metadata.  Floats are written with 17 significant digits and LF line
endings; identical configuration and build give byte-identical files.

Exit codes: 0 success, 2 configuration error (an --out path that cannot be
written among them), 3 convergence-gate failure or
vacuum weights short of 1 at the truncation M, 4 a required rational period,
non-degenerate doublet or anti-crossing does not exist.
"""

import argparse
import itertools
import json
import math
import os
import platform
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from . import __version__, dynamics, geometry, model
from .model import RabiParams

DEFAULT_M = 50
SWEEP_VARS = ("g", "g1", "g2", "delta", "omega1", "omega2")
GATE_TOL = 1e-6


class ConfigError(ValueError):
    pass


#: rows write_dataset takes from its iterable, checks and formats at a time
BLOCK_ROWS = 1024

#: thread-count variables recorded in every sidecar's environment block
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spec(kind: type) -> str:
    """printf conversion of a cell of type ``kind``.

    Bools and integers are written as integers, floats with 17 significant
    digits (they round-trip exactly), anything else through str().
    """
    if issubclass(kind, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(kind, float):
        return "%.17g"
    return "%s"


def _format_block(block: list, width: int, suffix: tuple[str, ...] = ()
                  ) -> str:
    """The CSV lines of ``block``; the cells of ``suffix``, printf formats
    themselves, end each line.

    Every row must have ``width`` cells and each column one kind of cell
    (integer, float or other; see _spec), and float cells must be finite;
    otherwise ConfigError.  The block gets one length check, one kind check
    per column, one finiteness pass per float column and one printf call.
    """
    if set(map(len, block)) != {width}:
        raise ConfigError("inconsistent column count")
    cells = tuple(itertools.chain.from_iterable(block))
    specs = []
    for j in range(width):
        column = cells[j::width]
        kinds = {_spec(kind) for kind in set(map(type, column))}
        if len(kinds) > 1:
            raise ConfigError(f"column {j} mixes kinds of cells (integer, "
                              "float, other)")
        spec = kinds.pop()
        if spec == "%.17g" and not all(map(math.isfinite, column)):
            raise ConfigError("non-finite value in dataset")
        specs.append(spec)
    return (",".join(specs + list(suffix)) + "\n") * len(block) % cells


def environment() -> dict:
    """Python, numpy and BLAS versions and the thread settings of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            **{var: os.environ.get(var, "unset") for var in THREAD_VARS}}


def write_dataset(path: str, header: list[str], rows: Iterable[Sequence],
                  metadata: dict, fixed: Sequence = ()) -> None:
    """Write ``rows`` under ``header`` to the CSV ``path`` and its sidecar.

    ``rows`` is any iterable of row sequences, consumed once in blocks of
    BLOCK_ROWS rows: each block is checked and formatted by _format_block
    and written before the next is taken, so the writer holds at most one
    block of a generator's rows in memory.  ``fixed`` holds the values of
    the last ``len(fixed)`` columns when they are the same on every row; the
    rows then supply only the leading columns, and the fixed cells are
    checked and formatted once, as a block of one row.  A bad row (wrong
    length with ``fixed``, a non-finite float, or a column that mixes kinds
    of cells) or an unwritable ``path`` raises ConfigError and leaves no
    CSV; the sidecar, written last, records the row count and the
    environment (see environment()).
    """
    fixed = tuple(fixed)
    width = len(header) - len(fixed)
    count = 0
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            suffix = ()
            if fixed:
                # the formatted cells, escaped to stand in a printf format
                line = _format_block([fixed], len(fixed))
                suffix = (line[:-1].replace("%", "%%"),)
            fh.write(",".join(header) + "\n")
            rows = iter(rows)
            while block := list(itertools.islice(rows, BLOCK_ROWS)):
                fh.write(_format_block(block, width, suffix))
                count += len(block)
    except BaseException:
        os.remove(path)
        raise
    metadata = dict(metadata)
    metadata["version"] = __version__
    metadata["columns"] = header
    metadata["rows"] = count
    metadata["environment"] = environment()
    with open(path + ".meta.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

SWEEP_KEYS = ("var", "start", "stop", "points")


def _parse_sweep(spec) -> dict:
    """The sweep {"var", "start", "stop", "points"} given as the text
    VAR:START:STOP:POINTS or as a mapping with exactly those keys."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ConfigError("--sweep expects VAR:START:STOP:POINTS")
        spec = dict(zip(SWEEP_KEYS, parts))
    elif not isinstance(spec, dict) or set(spec) != set(SWEEP_KEYS):
        raise ConfigError(f"sweep {spec!r}: need VAR:START:STOP:POINTS or an "
                          f"object with the keys {SWEEP_KEYS}")
    var = spec["var"]
    if var not in SWEEP_VARS:
        raise ConfigError(f"sweep variable must be one of {SWEEP_VARS}")
    start = _number(float, "sweep start", spec["start"])
    stop = _number(float, "sweep stop", spec["stop"])
    points = _integer("sweep points", spec["points"])
    if points < 2:
        raise ConfigError("sweep needs at least 2 points")
    if not start < stop:
        raise ConfigError("sweep start must be below stop")
    return {"var": var, "start": start, "stop": stop, "points": points}


def _number(kind: type, key: str, value):
    """``kind(value)``; a value that is not a number is a configuration error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} {value!r}: not a number") from exc


def _integer(key: str, value) -> int:
    """``int(value)``; a bool or a number with a fractional part is a
    configuration error, not truncated."""
    n = _number(int, key, value)
    if isinstance(value, (bool, np.bool_)) or \
            (isinstance(value, float) and value != n):
        raise ConfigError(f"{key} {value!r}: not an integer")
    return n


def load_config(args: argparse.Namespace) -> dict:
    """Merge config file values with command-line flags (flags win)."""
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in ("model", "omega1", "omega2", "g1", "g2", "delta",
                "trunc_m", "trunc_photons", "out", "levels"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "sweep", None) is not None:
        cfg["sweep"] = _parse_sweep(args.sweep)
    elif cfg.get("sweep") is not None:
        cfg["sweep"] = _parse_sweep(cfg["sweep"])
    if getattr(args, "rwa", False):
        cfg["mode"] = "rwa"
    if getattr(args, "full", False):
        cfg["mode"] = "full" if cfg.get("mode") != "rwa" else "both"
    if getattr(args, "drop_singlets", False):
        cfg["drop_singlets"] = True
    cfg.setdefault("model", "two-qubit")
    cfg.setdefault("mode", "both")
    cfg.setdefault("trunc_m", DEFAULT_M)
    cfg.setdefault("drop_singlets", False)
    if cfg["model"] not in ("jc", "two-qubit"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    for key in ("trunc_m", "trunc_photons"):
        if cfg.get(key) is not None:
            cfg[key] = _integer(key, cfg[key])
            if cfg[key] < 10:
                raise ConfigError(f"{key} {cfg[key]}: need at least 10")
    return cfg


def params_from_config(cfg: dict, **overrides) -> RabiParams:
    vals = {k: cfg.get(k) for k in ("omega1", "omega2", "g1", "g2", "delta")}
    vals.update(overrides)
    vals = {k: None if v is None else _number(float, k, v)
            for k, v in vals.items()}
    w1, w2 = vals["omega1"], vals["omega2"]
    g1 = vals["g1"] or 0.0
    g2 = vals["g2"] or 0.0
    delta = vals["delta"] or 0.0
    try:
        if cfg["model"] == "jc":
            if w1 is not None:
                return RabiParams(omega1=w1, g1=g1)
            return RabiParams.jc(delta, g1)
        if w1 is not None:
            return RabiParams(omega1=w1, omega2=w1 if w2 is None else w2,
                              g1=g1, g2=g2)
        return RabiParams.equal_frequency(delta, g1, g2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _get(cfg: dict, key: str, default):
    """cfg[key], or ``default`` when the key is unset (absent or null)."""
    value = cfg.get(key)
    return default if value is None else value


def _levels(cfg: dict, default: int, minimum: int = 0) -> int:
    """The --levels count, or ``default`` when unset; below ``minimum`` is a
    configuration error."""
    n = _integer("levels", _get(cfg, "levels", default))
    if n < minimum:
        raise ConfigError(f"--levels {n}: need at least {minimum}")
    return n


def sweep_values(cfg: dict) -> tuple[str, np.ndarray]:
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("this command needs --sweep VAR:START:STOP:POINTS")
    return sweep["var"], np.linspace(sweep["start"], sweep["stop"],
                                     sweep["points"])


def _sweep_overrides(var: str, value: float) -> dict:
    if var == "g":
        return {"g1": value, "g2": value}
    return {var: value}


def _sweep_params(cfg: dict, var: str, values) -> list[RabiParams]:
    return [params_from_config(cfg, **_sweep_overrides(var, v)) for v in values]


# ---------------------------------------------------------------------------
# Beyond-RWA sweeps and their convergence gate
# ---------------------------------------------------------------------------

def _beyond_rwa(params_list, M: int, kappas, columns, meta: dict):
    """Tabulate beyond-RWA results over a sweep and gate them on truncation.

    Solves the parity sectors ``kappas`` once at every point and returns
    ``(columns(sols), sols)``: one row of numbers per point, and the map of
    each kappa to its SectorSolution.  The convergence gate re-solves only
    the probe points (first, middle, last, and the one with the largest
    truncation tail) at M + 10 and compares their rows with the sweep's own;
    it passes when no entry moves by 1e-6 or more.  The gate and the
    per-point tail populations (worst over ``kappas``) are written into
    ``meta``.
    """
    sols = {kappa: model.solve_sectors(params_list, M, kappa)
            for kappa in kappas}
    table = np.asarray(columns(sols))
    tails = np.max([sol.tail_population for sol in sols.values()], axis=0)
    n = len(params_list)
    points = sorted({0, n // 2, n - 1, int(np.argmax(tails))})
    probes = [params_list[i] for i in points]
    check = np.asarray(columns({kappa: model.solve_sectors(probes, M + 10, kappa)
                                for kappa in kappas}))
    drift = float(np.max(np.abs(table[points] - check)))
    meta["convergence_gate"] = {"m": M, "m_check": M + 10, "max_drift": drift,
                                "tolerance": GATE_TOL, "points": points,
                                "passed": bool(drift < GATE_TOL)}
    meta["diagnostics"] = {"max_tail_population": float(np.max(tails)),
                           "tail_population": tails.tolist()}
    return table, sols


#: CSV state name -> column of _eigenphases holding its beyond-RWA continuation
_COUNTERPARTS = {"psi0": 0, "psi1_2": 4, "psi1_3": 3}


def _eigenphases(sols) -> list[list[float]]:
    """2 pi <a^dag a> of the three lowest non-singlet states of each sector.

    Columns 0-2 are even, 3-5 odd.  Psi0 continues into the lowest even
    level; the bright doublet continues into the two lowest non-singlet odd
    levels, lower rank matching Psi1^3 (see _COUNTERPARTS).
    """
    return [[2.0 * math.pi * float(sol.photon_numbers[i, j])
             for sol in sols.values() for j in sol.kept(i)[:3]]
            for i in range(len(sols[1].energies))]


def _vacuum_phases(sols) -> np.ndarray:
    """Weighted beyond-RWA geometric phase of |10,0>, from the odd sector."""
    return geometry.noneigen_phases_beyond_rwa(sols[-1])[0][:, None]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: dict) -> int:
    var, values = sweep_values(cfg)
    M = int(cfg["trunc_m"])
    n_levels = _levels(cfg, 8, minimum=1)
    modes = {"rwa": ("rwa",), "full": ("full",), "both": ("rwa", "full")}[cfg["mode"]]
    drop = bool(cfg["drop_singlets"])
    params_list = _sweep_params(cfg, var, values)
    meta = {"config": cfg, "command": "spectrum",
            "convergence_gate": {"applicable": False}}
    if "full" in modes:
        def kept_energies(sols):
            # per point: the kept energies of the even, then the odd sector
            rows = [[sol.energies[i, sol.kept(i, drop)[:n_levels]]
                     for sol in sols.values()]
                    for i in range(len(sols[1].energies))]
            fewest = min(len(e) for row in rows for e in row)
            if fewest < n_levels:
                raise ConfigError(f"--levels {n_levels}: a parity sector "
                                  f"keeps only {fewest} states at M = {M}")
            return rows

        full, _ = _beyond_rwa(params_list, M, (1, -1), kept_energies, meta)
        if cfg.get("trunc_photons"):
            meta["dual_basis_audit"] = _dual_basis_audit(
                params_list[0], M, int(cfg["trunc_photons"]), n_levels)
    rows = []
    for i, (value, pars) in enumerate(zip(values, params_list)):
        if "rwa" in modes:
            for parity in (1, -1):
                levels = model.rwa_parity_levels(pars, parity, n_levels, drop)
                rows += [[value, "rwa", _parity_name(parity), j, float(e)]
                         for j, e in enumerate(levels)]
        if "full" in modes:
            for parity, levels in zip((1, -1), full[i]):
                rows += [[value, "full", _parity_name(parity), j, float(e)]
                         for j, e in enumerate(levels)]
    write_dataset(cfg["out"], ["sweep_value", "model", "parity", "level", "energy"],
                  rows, meta)
    return _gate_exit(meta)


def _dual_basis_audit(pars: RabiParams, M: int, n_photons: int,
                      n_levels: int) -> dict:
    """Cross-check displaced-sector energies against a plain-Fock build.

    Spectra are compared unfiltered: singlet levels sit at exactly n omega_c
    in both constructions, so they cancel out of the deviation.  The
    population of each plain-Fock sector ground state on the top Fock level
    is recorded, so a short --trunc-photons shows in the sidecar.
    """
    if n_levels > 2 * n_photons:
        raise ConfigError(f"--levels {n_levels}: a plain-Fock parity sector "
                          f"keeps only {2 * n_photons} states at "
                          f"--trunc-photons {n_photons}")
    fm = model.build_full_rabi(pars, n_photons=n_photons)
    worst, top = 0.0, {}
    for kappa in (1, -1):
        plain, vectors, ix = model.solve_parity_sector(fm, kappa)
        top[_parity_name(kappa)] = model._top_population(fm, ix, vectors)
        disp, _ = model.sector_energies([pars], M, kappa)
        worst = max(worst, float(np.max(np.abs(disp[0, :n_levels]
                                                - plain[:n_levels]))))
    return {"n_photons": n_photons, "max_energy_deviation": worst,
            "top_level_population": top}


def _parity_name(parity: int) -> str:
    return "even" if parity == 1 else "odd"


def cmd_berry(cfg: dict) -> int:
    var, values = sweep_values(cfg)
    M = int(cfg["trunc_m"])
    include_full = cfg["mode"] in ("full", "both")
    params_list = _sweep_params(cfg, var, values)
    header = ["sweep_value", "state", "gamma_rwa"]
    meta = {"config": cfg, "command": "berry",
            "convergence_gate": {"applicable": False}}
    if include_full:
        header.append("gamma_full")
        gamma_full, _ = _beyond_rwa(params_list, M, (1, -1), _eigenphases,
                                    meta)
    rows = []
    for i, (value, pars) in enumerate(zip(values, params_list)):
        gamma_rwa = {
            "psi0": 0.0,
            "psi1_2": geometry.berry_phase_equal_frequency(pars, 2),
            "psi1_3": geometry.berry_phase_equal_frequency(pars, 3),
        }
        for name, column in _COUNTERPARTS.items():
            row = [value, name, gamma_rwa[name]]
            if include_full:
                row.append(float(gamma_full[i, column]))
            rows.append(row)
    write_dataset(cfg["out"], header, rows, meta)
    return _gate_exit(meta)


def cmd_curvature_field(cfg: dict) -> int:
    thetas = np.linspace(0.0, math.pi, _levels(cfg, 181, minimum=1))
    rows = []
    for label in ("eigen_jc", "eigen_two_qubit", "noneigen_jc",
                  "noneigen_two_qubit"):
        field = geometry.radial_field(label, thetas)
        # the field does not depend on phi; the dataset samples phi = 0
        rows += [[label, th, 0.0, f]
                 for th, f in zip(thetas.tolist(), field.tolist())]
    meta = {"config": cfg, "command": "curvature-field",
            "convergence_gate": {"applicable": False},
            "normalization": "max |F| on the unit sphere = 1"}
    write_dataset(cfg["out"], ["label", "theta", "phi", "F_radial_normalized"],
                  rows, meta)
    return 0


def cmd_noneigen(cfg: dict) -> int:
    var, values = sweep_values(cfg)
    M = int(cfg["trunc_m"])
    include_full = cfg["mode"] in ("full", "both")
    jump_threshold = 0.3
    params_list = _sweep_params(cfg, var, values)
    rows = [[value, pars.g1, pars.g2, pars.delta,
             geometry.noneigen_curvature_two_qubit(pars),
             geometry.vacuum_phase_two_qubit(pars)]
            for value, pars in zip(values, params_list)]
    header = ["sweep_value", "g1", "g2", "delta", "F_theta_phi", "gamma_rwa"]
    meta = {"config": cfg, "command": "noneigen",
            "convergence_gate": {"applicable": False}}
    if include_full:
        table, sols = _beyond_rwa(params_list, M, (-1,), _vacuum_phases, meta)
        gammas = table[:, 0].tolist()
        meta["diagnostics"]["vacuum_weight_total"] = \
            geometry.noneigen_phases_beyond_rwa(sols[-1])[1].tolist()
        flags = _jump_flags(gammas, jump_threshold)
        rows = [r + [gamma, f] for r, gamma, f in zip(rows, gammas, flags)]
        header += ["gamma_full", "anticross_flag"]
        meta["anticross_flag"] = ("1 when |gamma_full| changes by more than "
                                  f"{jump_threshold} between neighbours")
    write_dataset(cfg["out"], header, rows, meta)
    return _gate_exit(meta)


def _jump_flags(gammas: list[float], threshold: float) -> list[int]:
    flags = [0] * len(gammas)
    for i in range(len(gammas) - 1):
        if abs(gammas[i + 1] - gammas[i]) > threshold:
            flags[i] = flags[i + 1] = 1
    return flags


def cmd_evolve(cfg: dict) -> int:
    pars = params_from_config(cfg)
    steps = _levels(cfg, 2001)
    if cfg["model"] == "jc":
        res = dynamics.cyclic_evolution_jc(pars)
        p_int, q_int = res.windings[0], 0
    else:
        res = dynamics.cyclic_evolution_two_qubit(pars)
        p_int, q_int = res.windings[1], res.windings[2]
    duration = res.cycles * res.period
    try:
        avg = dynamics.average_photon_number(pars, duration, n_time_steps=steps)
    except ValueError as exc:   # fewer time steps than the average needs
        raise ConfigError(f"--levels {steps}: {exc}") from exc
    summary = (duration, p_int, q_int, res.total_phase, res.dynamical_phase,
               res.aa_phase, avg.P, avg.gamma_over_2pi)
    rows = zip(avg.times, avg.photon_expectation, avg.fidelity)
    header = ["t", "photon_expectation", "fidelity", "T", "p", "q",
              "total_phase", "dynamical_phase", "aa_phase", "P_avg",
              "gamma_over_2pi"]
    meta = {"config": cfg, "command": "evolve",
            "convergence_gate": {"applicable": False},
            "summary": {"T": duration, "p": p_int, "q": q_int,
                        "total_phase": res.total_phase,
                        "dynamical_phase": res.dynamical_phase,
                        "aa_phase": res.aa_phase,
                        "recurrence_fidelity": res.recurrence_fidelity,
                        "P": avg.P, "gamma_over_2pi": avg.gamma_over_2pi}}
    write_dataset(cfg["out"], header, rows, meta, fixed=summary)
    return 0


def cmd_scan_anticrossing(cfg: dict) -> int:
    M = int(cfg["trunc_m"])
    deltas = _get(cfg, "deltas", [_get(cfg, "delta", 0.5)])
    if not isinstance(deltas, list):
        raise ConfigError(f"deltas {deltas!r}: need a list of numbers")
    deltas = [_number(float, "delta", d) for d in deltas]
    g_min = _number(float, "g_min", _get(cfg, "g_min", 0.2))
    g_max = _number(float, "g_max", _get(cfg, "g_max", 0.32))
    if not 0.0 <= g_min < g_max:
        raise ConfigError(f"g window [{g_min}, {g_max}]: need "
                          "0 <= g_min < g_max")
    rows, on_edge = [], []
    for delta in deltas:
        def params_of_g(g: float, d=delta) -> RabiParams:
            return RabiParams.equal_frequency(d, g, g)
        ac = geometry.detect_anticrossing(params_of_g, kappa=1,
                                          g_min=g_min, g_max=g_max, M=M)
        jump = geometry.locate_phase_jump(params_of_g, g_min, g_max, M=M)
        rows.append([delta, ac.g_star, ac.min_gap, jump.g_jump,
                     jump.jump_size])
        on_edge.append(jump.on_edge)
    meta = {"config": cfg, "command": "scan-anticrossing",
            "convergence_gate": {"applicable": False},
            "note": ("jump location tracks the steepest change of the exact "
                     "weighted phase; the initial state is odd under parity, "
                     "so it follows the odd-sector anti-crossing"),
            "diagnostics": {"jump_on_window_edge": on_edge}}
    write_dataset(cfg["out"], ["delta", "g_star", "min_gap", "jump_g",
                               "jump_size"], rows, meta)
    return 0


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _preset_fig1(cfg: dict) -> int:
    cfg.setdefault("out", "fig1_curvature_field.csv")
    cfg["levels"] = _levels(cfg, 361)
    return cmd_curvature_field(cfg)


def _preset_fig2(cfg: dict) -> int:
    cfg.setdefault("out", "fig2_noneigen_rwa.csv")
    rows = []
    g2s = np.linspace(0.001, 0.1, 200)
    for delta in (0.0, 0.05, -0.05, 0.2, -0.2):
        for g2 in g2s:
            for panel, g1 in (("a", g2), ("b", 0.02)):
                pars = RabiParams.equal_frequency(delta, g1, float(g2))
                rows.append([panel, delta, g1, float(g2),
                             geometry.noneigen_curvature_two_qubit(pars),
                             geometry.vacuum_phase_two_qubit(pars)])
    meta = {"config": cfg, "command": "fig2",
            "convergence_gate": {"applicable": False},
            "detunings": "representative choice {0, +-0.05, +-0.2}"}
    write_dataset(cfg["out"], ["panel", "delta", "g1", "g2", "F_theta_phi",
                               "gamma_rwa"], rows, meta)
    return 0


def _preset_fig3(cfg: dict) -> int:
    cfg.setdefault("out", "fig3_spectrum.csv")
    cfg.setdefault("delta", 0.5)
    cfg["sweep"] = {"var": "g", "start": 0.001, "stop": 0.5, "points": 101}
    cfg["drop_singlets"] = True
    cfg["mode"] = "both"
    return cmd_spectrum(cfg)


def _preset_fig4(cfg: dict) -> int:
    cfg.setdefault("out", "fig4_berry.csv")
    cfg.setdefault("delta", 0.5)
    cfg["sweep"] = {"var": "g", "start": 0.005, "stop": 0.35, "points": 70}
    cfg["mode"] = "both"
    return cmd_berry(cfg)


def _preset_fig5(cfg: dict) -> int:
    cfg.setdefault("out", "fig5_noneigen.csv")
    code = 0
    root, ext = os.path.splitext(cfg["out"])
    for tag, delta in (("p05", 0.5), ("m05", -0.5), ("p02", 0.2), ("m02", -0.2)):
        sub = dict(cfg)
        sub["delta"] = delta
        sub["sweep"] = {"var": "g", "start": 0.005, "stop": 0.35, "points": 70}
        sub["mode"] = "both"
        sub["out"] = f"{root}_{tag}{ext}"
        code = max(code, cmd_noneigen(sub))
    return code


PRESETS = {"fig1": _preset_fig1, "fig2": _preset_fig2, "fig3": _preset_fig3,
           "fig4": _preset_fig4, "fig5": _preset_fig5}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _gate_exit(meta: dict) -> int:
    gate = meta.get("convergence_gate", {})
    if gate.get("applicable", True) and not gate.get("passed", True):
        print(f"error: convergence gate failed, drift {gate['max_drift']:.3e}",
              file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabigeom",
        description="Spectra, Berry curvatures and vacuum-induced geometric "
                    "phases of the one- and two-qubit Rabi models")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ["spectrum", "berry", "curvature-field", "noneigen", "evolve",
                "scan-anticrossing"] + sorted(PRESETS)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--model", choices=["jc", "two-qubit"])
        p.add_argument("--rwa", action="store_true",
                       help="restrict to RWA results")
        p.add_argument("--full", action="store_true",
                       help="restrict to beyond-RWA results")
        p.add_argument("--omega1", type=float)
        p.add_argument("--omega2", type=float)
        p.add_argument("--g1", type=float)
        p.add_argument("--g2", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--sweep", metavar="VAR:START:STOP:POINTS")
        p.add_argument("--trunc-m", dest="trunc_m", type=int)
        p.add_argument("--trunc-photons", dest="trunc_photons", type=int)
        p.add_argument("--levels", type=int,
                       help="levels per sector / grid points / time steps")
        p.add_argument("--out")
        p.add_argument("--config")
        p.add_argument("--drop-singlets", dest="drop_singlets",
                       action="store_true")
    return parser


DISPATCH = {"spectrum": cmd_spectrum, "berry": cmd_berry,
            "curvature-field": cmd_curvature_field, "noneigen": cmd_noneigen,
            "evolve": cmd_evolve, "scan-anticrossing": cmd_scan_anticrossing}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command in PRESETS:
            return PRESETS[args.command](cfg)
        if not cfg.get("out"):
            raise ConfigError("--out PATH is required")
        return DISPATCH[args.command](cfg)
    except (ConfigError, model.NotEqualFrequency) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except geometry.WeightError as exc:   # vacuum weights short of 1 at M
        print(f"error: {exc} at M = {cfg['trunc_m']}", file=sys.stderr)
        return 3
    except (dynamics.NoRational, dynamics.DegenerateDoublet,
            geometry.NoAnticrossing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
