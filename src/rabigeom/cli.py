"""Command-line front end: figure presets, parameter scans, CSV export.

Every command writes one CSV dataset plus a JSON sidecar (<out>.meta.json)
recording the full configuration, truncations, package version and the
truncation convergence gate, so a dataset can be reproduced bit-exactly from
its metadata.  Floats are written with 17 significant digits and LF line
endings; identical configuration and build give byte-identical CSVs.  The
sidecar's ``timings`` block (seconds per stage: ``sweep_s`` and ``write_s``
for spectrum, berry and noneigen, ``write_s`` for the others) varies from
run to run, and its ``environment`` block from machine to machine; the rest
of the sidecar is as reproducible as the CSV.

The beyond-RWA sweeps of spectrum, berry and noneigen (and so fig3-fig5)
read ``--trunc-m`` as their largest photon cutoff: each solves at the
smallest rung of the ladder (_ladder: 20, 30, ..., 100 in steps of 10, then
each rung 1.25 times the last, rounded up to a multiple of 10, up to
``--trunc-m``) at which every written point's truncation bound, built from
the states' residuals, is at most CERTIFY_TOL (_beyond_rwa), and records
the climb in the sidecar's ``truncation`` block.  scan-anticrossing
brackets each detuning's anti-crossing and phase jump with coarse scans at
the first rung that certifies the window's ends and midpoint (the
sidecar's ``diagnostics.scan_m``), and refines them at ``--trunc-m``.
Both climb the ladder through _climb.
The convergence gate of all four passes when every written point's bound
is at most GATE_TOL (_gate).

``--rwa`` and ``--full`` (or a config file's ``mode``: ``rwa``, ``full`` or
``both``) choose the results of spectrum, berry and noneigen.  A flag or
config key that the command does not read (see COMMAND_KEYS) is a
configuration error, not ignored.

Exit codes: 0 success, 2 configuration error (among them an --out that is
not a path or whose CSV or sidecar cannot be written, parameters whose
Hamiltonian entries overflow, a truncation whose matrices do not fit in
memory, an RWA spectrum whose energy bound admits more excitation blocks
than fit in memory, and for scan-anticrossing a truncation whose
displaced-Fock overlaps overflow), 3 convergence-gate failure (a written
point's truncation bound above GATE_TOL), or for scan-anticrossing vacuum
weights short of 1 at the truncation M, 4 a required rational period,
non-degenerate doublet or anti-crossing does not exist.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from collections.abc import Sequence

import numpy as np

from . import __version__, dynamics, geometry, model, numerics
from .model import RabiParams

DEFAULT_M = 50
SWEEP_VARS = ("g", "g1", "g2", "delta", "omega1", "omega2")

#: the largest truncation bound of a written point with which the
#: convergence gate passes (_gate); a larger one is exit 3
GATE_TOL = 1e-6

#: the largest truncation bound with which a sweep point counts as solved to
#: rounding, so that a cutoff whose every bound is at most this writes what
#: any larger cutoff would, to about this size
CERTIFY_TOL = 1e-13

#: the cutoffs a beyond-RWA sweep may take start at LADDER_START and go up
#: in steps of LADDER_STEP to LADDER_LINEAR, then by a factor LADDER_GROWTH
#: each, to --trunc-m at most (_ladder)
LADDER_START, LADDER_STEP, LADDER_LINEAR, LADDER_GROWTH = 20, 10, 100, 1.25

#: the numeric model parameters, read by params_from_config with ``model``
PARAM_KEYS = ("omega1", "omega2", "g1", "g2", "delta")

#: the flags and config keys each command reads besides ``out``; the presets
#: fix the rest (fig3-fig5 their sweep and mode, fig3 drop_singlets, fig5 its
#: detunings and so omega1 and omega2).  berry, noneigen, fig4 and fig5
#: compute two-qubit closed forms only, so they do not read ``model``
COMMAND_KEYS = {
    "spectrum": ("sweep", "mode", "trunc_m", "levels", "drop_singlets",
                 "model", *PARAM_KEYS),
    "berry": ("sweep", "mode", "trunc_m", *PARAM_KEYS),
    "noneigen": ("sweep", "mode", "trunc_m", *PARAM_KEYS),
    "curvature-field": ("levels",),
    "evolve": ("levels", "model", *PARAM_KEYS),
    "scan-anticrossing": ("trunc_m", "delta", "deltas", "g_min", "g_max"),
    "fig1": ("levels",),
    "fig2": (),
    "fig3": ("trunc_m", "levels", "model", "omega1", "omega2", "delta"),
    "fig4": ("trunc_m", "omega1", "omega2", "delta"),
    "fig5": ("trunc_m",),
}

#: the flags that set the config key of their name to their value, with their
#: add_argument options; build_parser adds the switches and --config
VALUE_FLAGS = (
    ("model", {"choices": ["jc", "two-qubit"]}),
    *((key, {"type": float}) for key in PARAM_KEYS),
    ("sweep", {"metavar": "VAR:START:STOP:POINTS"}),
    ("trunc_m", {"type": int, "metavar": "N",
                 "help": "photon cutoff (default 50): the largest a "
                         "beyond-RWA sweep may take, which solves at the "
                         "first of 20, 30, ..., 100, 130, 170, 220, ... "
                         "(steps of 10 to 100, then x1.25) its residuals "
                         "certify; scan-anticrossing brackets at that rung "
                         "and refines at N"}),
    ("levels", {"type": int, "metavar": "N",
                "help": "levels per sector / grid points / time steps"}),
    ("out", {"metavar": "PATH"}),
)

#: values of the keys a command reads when they are unset
DEFAULTS = {"model": "two-qubit", "mode": "both", "trunc_m": DEFAULT_M,
            "drop_singlets": False}


class ConfigError(ValueError):
    pass


#: rows write_dataset formats with one printf call
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


def _column_spec(column) -> str:
    """printf conversion of the cells of ``column`` (_spec), by dtype unless
    it holds objects; ConfigError for mixed kinds or a non-finite float."""
    if isinstance(column, np.ndarray) and column.dtype != object:
        kinds = {_spec(column.dtype.type)}
    else:
        kinds = {_spec(kind) for kind in set(map(type, column))}
    if len(kinds) > 1:
        raise ConfigError("a column mixes kinds of cells (integer, float, "
                          "other)")
    spec = kinds.pop() if kinds else "%s"
    # a float64 array is not copied; an object array or a list is converted
    if spec == "%.17g" and not np.isfinite(np.asarray(column, float)).all():
        raise ConfigError("non-finite value in dataset")
    return spec


def environment() -> dict:
    """Python, numpy and BLAS versions and the BLAS thread variables of this
    process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            **{var: os.environ.get(var, "unset") for var in THREAD_VARS}}


def write_dataset(path: str, header: list[str], columns: Sequence,
                  metadata: dict) -> None:
    """Write ``columns``, one per name of ``header``, to the CSV ``path`` and
    its sidecar.

    A column is a 1-D numpy array or a sequence of cells, all of one length:
    the row count.  A 0-d value (a number, a string, a 0-d array) is a
    constant column, formatted once; with no other column, there is 1 row.
    Each column's length, kind and finiteness (_column_spec) are checked
    once, before the CSV is opened: a bad column is a ConfigError that
    writes nothing.  Each block of BLOCK_ROWS rows is formatted by one printf
    call from slices of the columns.  An unwritable ``path`` or sidecar is a
    ConfigError and leaves no CSV.  The sidecar records the row count and
    the environment (see environment()), and adds the seconds spent on the
    CSV as ``write_s`` to a ``timings`` block of ``metadata``, if it has one.
    """
    start = time.perf_counter()
    if len(columns) != len(header):
        raise ConfigError("inconsistent column count")
    specs, full = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.ndim == 0:
            column = column[()]
        if isinstance(column, str) or not isinstance(column, (Sequence,
                                                               np.ndarray)):
            # the formatted cell, escaped to stand in the printf format
            cell = _column_spec([column]) % (column,)
            specs.append(cell.replace("%", "%%"))
            continue
        specs.append(_column_spec(column))
        # %d and %.17g format Python numbers faster than numpy scalars,
        # while str() of a numpy scalar (float32 say) is the per-cell rule
        full.append((column, isinstance(column, np.ndarray)
                     and specs[-1] != "%s"))
    if len({len(column) for column, _ in full}) > 1 or any(
            getattr(column, "ndim", 1) != 1 for column, _ in full):
        raise ConfigError("columns of unequal length, or not 1-D")
    count = len(full[0][0]) if full else 1
    line = ",".join(specs) + "\n"
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for s in range(0, count, BLOCK_ROWS):
                e = min(s + BLOCK_ROWS, count)
                cells = [None] * (len(full) * (e - s))
                for j, (column, tolist) in enumerate(full):
                    part = column[s:e]
                    cells[j::len(full)] = part.tolist() if tolist else part
                fh.write(line * (e - s) % tuple(cells))
    except BaseException:
        os.remove(path)
        raise
    metadata = dict(metadata)
    if "timings" in metadata:
        metadata["timings"] = {**metadata["timings"],
                               "write_s": time.perf_counter() - start}
    metadata.update(version=__version__, columns=header, rows=count,
                    environment=environment())
    try:
        fh = open(path + ".meta.json", "w")
    except OSError as exc:
        os.remove(path)
        raise ConfigError(f"cannot write {path}.meta.json: {exc}") from exc
    with fh:
        fh.write(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


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
    if not math.isfinite(stop - start):
        raise ConfigError(f"sweep [{start}, {stop}]: need a finite start, "
                          "stop and width")
    return {"var": var, "start": start, "stop": stop, "points": points}


def _number(kind: type, key: str, value):
    """``kind(value)``; a bool (a JSON ``true`` is not 1) or a value that is
    not a number is a configuration error."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError("a bool")
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} {value!r}: not a number") from exc


def _integer(key: str, value) -> int:
    """``int(value)``; a number with a fractional part is a configuration
    error, not truncated."""
    n = _number(int, key, value)
    if isinstance(value, float) and value != n:
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
    for key, _ in VALUE_FLAGS:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if cfg.get("out") is None:   # unset, as _get reads every other key
        cfg.pop("out", None)
    elif not isinstance(cfg["out"], str):
        raise ConfigError(f"out {cfg['out']!r}: need a path")
    if cfg.get("sweep") is not None:
        cfg["sweep"] = _parse_sweep(cfg["sweep"])
    if args.rwa:
        cfg["mode"] = "rwa"
    if args.full:
        cfg["mode"] = "full" if cfg.get("mode") != "rwa" else "both"
    if args.drop_singlets:
        cfg["drop_singlets"] = True
    keys = COMMAND_KEYS[args.command]
    unread = sorted(set(cfg) - set(keys) - {"out"})
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(unread)} "
                          "(flag or config key)")
    for key in keys:
        if key in DEFAULTS:
            cfg.setdefault(key, DEFAULTS[key])
    if cfg.get("model", "two-qubit") not in ("jc", "two-qubit"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    if cfg.get("mode", "both") not in ("rwa", "full", "both"):
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    if cfg.get("trunc_m") is not None:
        cfg["trunc_m"] = _integer("trunc_m", cfg["trunc_m"])
        if cfg["trunc_m"] < 10:
            raise ConfigError(f"trunc_m {cfg['trunc_m']}: need at least 10")
    return cfg


def params_from_config(cfg: dict, var: str | None = None,
                       value: float | None = None) -> RabiParams:
    """The model point of ``cfg``, with the sweep variable ``var`` at
    ``value``.

    This is the one place that knows which model keys a point reads:
    ``model`` (``jc``, or else two qubits), ``delta`` or ``omega1`` (not
    both), ``omega2`` only with ``omega1``, ``g1`` and ``g2``, and for the
    jc model neither ``g2`` nor ``omega2``.
    The sweep variable ``g`` sets g1 and g2 (g1 alone for jc), and a key
    that the sweep sets may not be given too.  Any other key that is set is
    a ConfigError.
    """
    jc = cfg.get("model") == "jc"
    swept = {}
    if var is not None:
        names = ("g1",) if jc else ("g1", "g2")
        swept = dict.fromkeys(names if var == "g" else (var,), value)
    given = {k: cfg[k] for k in PARAM_KEYS if cfg.get(k) is not None}
    clash = sorted(set(given) & set(swept))
    if clash:
        raise ConfigError(f"the sweep over {var} sets {', '.join(clash)}; "
                          "do not give it too")
    vals = {k: _number(float, k, v) for k, v in {**given, **swept}.items()}
    if jc and {"g2", "omega2"} & set(vals):
        raise ConfigError("the jc model reads neither g2 nor omega2")
    if "delta" in vals and "omega1" in vals:
        raise ConfigError("give delta or omega1, not both")
    if "omega2" in vals and "omega1" not in vals:
        raise ConfigError("omega2 is read only with omega1")
    w1, w2 = vals.get("omega1"), vals.get("omega2")
    g1 = vals.get("g1") or 0.0
    g2 = vals.get("g2") or 0.0
    delta = vals.get("delta") or 0.0
    try:
        if jc:
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


def _sweep_params(cfg: dict, var: str, values) -> list[RabiParams]:
    return [params_from_config(cfg, var, v) for v in values]


# ---------------------------------------------------------------------------
# Beyond-RWA sweeps and their convergence gate
# ---------------------------------------------------------------------------

def _ladder(cap: int) -> list[int]:
    """The cutoffs a sweep may take below ``cap``, then ``cap`` itself: from
    LADDER_START in steps of LADDER_STEP up to LADDER_LINEAR, then each rung
    LADDER_GROWTH times the last, rounded up to a multiple of LADDER_STEP."""
    rungs, M = [], LADDER_START
    while M < cap:
        rungs.append(M)
        M = M + LADDER_STEP if M < LADDER_LINEAR else \
            math.ceil(M * LADDER_GROWTH / LADDER_STEP) * LADDER_STEP
    return [*rungs, cap]


def _climb(points, rungs: list[int], kappas, bounds):
    """Solve ``points`` at each cutoff of ``rungs`` in turn, up to the first
    at which every bound is at most CERTIFY_TOL, or the last.

    ``bounds(sols)`` gives the (P,) bound of each point's results, ``sols``
    mapping each kappa of ``kappas`` to its SectorSolution.  Returns the
    cutoff M solved at last, its ``sols`` and their bounds.
    """
    for M in rungs:
        sols = {kappa: model.solve_sectors(points, M, kappa)
                for kappa in kappas}
        worst = bounds(sols)
        if np.max(worst) <= CERTIFY_TOL:
            break
    return M, sols, worst


def _beyond_rwa(params_list, cap: int, kappas, bounds, meta: dict) -> dict:
    """Solve a sweep at the smallest photon cutoff its truncation bounds
    certify, and gate it on those bounds.

    ``bounds`` is as in _climb.  The cutoff M comes from _ladder(cap): the
    first, middle and last points climb it (_climb), and the whole sweep
    climbs on from their rung; the cap is taken when no lower rung
    certifies.  M is chosen for the sweep, not per point or batch, so the
    results do not depend on SECTOR_BATCH.

    Returns the sweep's ``sols`` at M.  The ladder (``truncation``), the
    per-point bounds at M (``diagnostics``) and the convergence gate on the
    largest of them (_gate) are written into ``meta``.
    """
    n = len(params_list)
    ladder = _ladder(cap)
    ends = [params_list[i] for i in sorted({0, n // 2, n - 1})]
    M, _, _ = _climb(ends, ladder, kappas, bounds)
    M, sols, worst = _climb(params_list, ladder[ladder.index(M):], kappas,
                            bounds)
    max_bound = float(np.max(worst))
    # every rung up to M was solved, at the probes or the whole sweep
    meta["truncation"] = {"cap": cap,
                          "rungs_tried": ladder[:ladder.index(M) + 1],
                          "m": M, "tolerance": CERTIFY_TOL,
                          "certified": max_bound <= CERTIFY_TOL}
    meta["diagnostics"] = {"residual_bound": worst.tolist()}
    meta["convergence_gate"] = _gate(max_bound)
    return sols


def _gate(max_bound: float) -> dict:
    """The convergence gate of written points whose largest truncation bound
    is ``max_bound``: it passes when that bound is at most GATE_TOL."""
    return {"max_bound": max_bound, "tolerance": GATE_TOL,
            "passed": bool(max_bound <= GATE_TOL)}


def _energy_bounds(sol: model.SectorSolution, n_levels: int, drop: bool
                   ) -> np.ndarray:
    """Per point, the running maximum of the residuals up to the n_levels-th
    kept state: it bounds the error of every kept energy written (inf where
    fewer states are kept)."""
    kept = ~sol.singlet if drop else np.ones(sol.singlet.shape, dtype=bool)
    below = np.cumsum(kept, axis=1) - kept
    bound = np.max(np.where(below < n_levels, sol.residuals, 0.0), axis=1)
    return np.where(np.count_nonzero(kept, axis=1) >= n_levels, bound, np.inf)


def _angle_bounds(sol: model.SectorSolution) -> np.ndarray:
    """(P, 2(M+1)) residual over gap of every kept state, 0 for a singlet.

    The gap is the distance to the nearest other kept level, and r/gap is
    Davis and Kahan's bound on the angle between a state and its limit.
    """
    energies = np.where(sol.singlet, np.nan, sol.energies)
    edge = np.full((len(energies), 1), np.inf)
    # energies ascend, so a running max (min) skipping the singlets' nan is
    # the nearest kept level below (above)
    below = np.fmax.accumulate(np.hstack([-edge, energies[:, :-1]]), axis=1)
    above = np.fmin.accumulate(np.hstack([energies[:, 1:], edge])[:, ::-1],
                               axis=1)[:, ::-1]
    gaps = np.minimum(energies - below, above - energies)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sol.residuals > 0.0, sol.residuals / gaps, 0.0)


def _eigenphase_bounds(sols) -> np.ndarray:
    """Per point, the largest angle bound of the states _eigenphases
    writes: the three lowest kept states of each sector."""
    return np.max([np.max(np.where(
        np.cumsum(~sol.singlet, axis=1) <= 3, _angle_bounds(sol), 0.0), axis=1)
        for sol in sols.values()], axis=0)


def _vacuum_phase_bounds(sols) -> np.ndarray:
    """Per point, 2 pi sum_j w_j (angle bound of state j) over the kept odd
    states, w_j being their |10,0> weights: the truncation bound of the
    phase cmd_noneigen writes.  It is first order in the angles, so it
    certifies a phase to rounding but may understate a larger error (by up
    to 3.7x where it exceeded 1e-11 against 140-photon solves); the
    convergence gate reads it against GATE_TOL as it stands."""
    odd = sols[-1]
    return 2.0 * math.pi * np.sum(odd.vacuum_weights * _angle_bounds(odd),
                                  axis=1)


def _scan_bounds(sols) -> np.ndarray:
    """Per point, the larger of the energy bound of the 8 lowest kept even
    states, which detect_anticrossing scans, and the odd sector's phase
    bound, which locate_phase_jump scans."""
    return np.maximum(_energy_bounds(sols[1], 8, True),
                      _vacuum_phase_bounds(sols))


def _new_meta(cfg: dict, command: str, **extra) -> dict:
    """A sidecar's metadata before its results: the configuration, an
    inapplicable convergence gate unless ``extra`` gives one, and an empty
    ``timings`` block."""
    return {"config": cfg, "command": command,
            "convergence_gate": {"applicable": False}, "timings": {}, **extra}


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: dict) -> int:
    start = time.perf_counter()
    var, values = sweep_values(cfg)
    cap = int(cfg["trunc_m"])
    n_levels = _levels(cfg, 8, minimum=1)
    modes = {"rwa": ("rwa",), "full": ("full",), "both": ("rwa", "full")}[cfg["mode"]]
    drop = bool(cfg["drop_singlets"])
    params_list = _sweep_params(cfg, var, values)
    meta = _new_meta(cfg, "spectrum")
    runs = {}   # (model, parity) -> (P, n_levels) energies, in CSV order
    if "full" in modes:
        def energy_bounds(sols):
            return np.max([_energy_bounds(sol, n_levels, drop)
                           for sol in sols.values()], axis=0)

        sols = _beyond_rwa(params_list, cap, (1, -1), energy_bounds, meta)
        # per sector and point: the kept energies
        full = [[sol.energies[i, sol.kept(i, drop)[:n_levels]]
                 for i in range(len(params_list))] for sol in sols.values()]
        del sols   # not held through the RWA levels and the CSV write
        fewest = min(len(e) for levels in full for e in levels)
        if fewest < n_levels:
            raise ConfigError(f"--levels {n_levels}: a parity sector keeps "
                              f"only {fewest} states at M = {cap}")
        runs["full", "even"], runs["full", "odd"] = map(np.array, full)
    if "rwa" in modes:
        runs = {("rwa", name): model.rwa_parity_levels(params_list, parity,
                                                       n_levels, drop)
                for parity, name in ((1, "even"), (-1, "odd"))} | runs
    # row order: point, then run, then level
    models, parities = zip(*[key for key in runs for _ in range(n_levels)])
    n = len(values)
    meta["timings"]["sweep_s"] = time.perf_counter() - start
    write_dataset(cfg["out"], ["sweep_value", "model", "parity", "level", "energy"],
                  [values.repeat(len(models)), models * n, parities * n,
                   np.tile(np.arange(n_levels), len(runs) * n),
                   np.stack(list(runs.values()), axis=1).ravel()], meta)
    return _gate_exit(meta)


def cmd_berry(cfg: dict) -> int:
    start = time.perf_counter()
    var, values = sweep_values(cfg)
    cap = int(cfg["trunc_m"])
    include_full = cfg["mode"] in ("full", "both")
    params_list = _sweep_params(cfg, var, values)
    header = ["sweep_value", "state", "gamma_rwa"]
    meta = _new_meta(cfg, "berry")
    # row order: point, then state (_COUNTERPARTS)
    columns = [values.repeat(3), list(_COUNTERPARTS) * len(values),
               [gamma for pars in params_list for gamma in (
                   0.0, geometry.berry_phase_equal_frequency(pars, 2),
                   geometry.berry_phase_equal_frequency(pars, 3))]]
    if include_full:
        header.append("gamma_full")
        columns.append(np.array(_eigenphases(_beyond_rwa(
            params_list, cap, (1, -1), _eigenphase_bounds, meta)))[
                :, list(_COUNTERPARTS.values())].ravel())
    meta["timings"]["sweep_s"] = time.perf_counter() - start
    write_dataset(cfg["out"], header, columns, meta)
    return _gate_exit(meta)


def cmd_curvature_field(cfg: dict) -> int:
    thetas = np.linspace(0.0, math.pi, _levels(cfg, 181, minimum=1))
    labels = ["eigen_jc", "eigen_two_qubit", "noneigen_jc",
              "noneigen_two_qubit"]
    meta = _new_meta(cfg, "curvature-field",
                     normalization="max |F| on the unit sphere = 1")
    # the field does not depend on phi; the dataset samples phi = 0
    write_dataset(cfg["out"], ["label", "theta", "phi", "F_radial_normalized"],
                  [np.repeat(labels, len(thetas)).tolist(),
                   np.tile(thetas, 4), 0.0,
                   np.concatenate([geometry.radial_field(label, thetas)
                                   for label in labels])], meta)
    return 0


def cmd_noneigen(cfg: dict) -> int:
    start = time.perf_counter()
    var, values = sweep_values(cfg)
    cap = int(cfg["trunc_m"])
    include_full = cfg["mode"] in ("full", "both")
    jump_threshold = 0.3
    params_list = _sweep_params(cfg, var, values)
    columns = [values, *([getattr(pars, key) for pars in params_list]
                         for key in ("g1", "g2", "delta")),
               [geometry.noneigen_curvature_two_qubit(pars)
                for pars in params_list],
               [geometry.vacuum_phase_two_qubit(pars) for pars in params_list]]
    header = ["sweep_value", "g1", "g2", "delta", "F_theta_phi", "gamma_rwa"]
    meta = _new_meta(cfg, "noneigen")
    if include_full:
        # weighted beyond-RWA geometric phase of |10,0>, from the odd
        # sector, and the total of the weights behind it
        gammas, totals = geometry.noneigen_phases_beyond_rwa(_beyond_rwa(
            params_list, cap, (-1,), _vacuum_phase_bounds, meta)[-1])
        meta["diagnostics"]["vacuum_weight_total"] = totals.tolist()
        columns += [gammas, _jump_flags(gammas, jump_threshold)]
        header += ["gamma_full", "anticross_flag"]
        meta["anticross_flag"] = ("1 when |gamma_full| changes by more than "
                                  f"{jump_threshold} between neighbours")
    meta["timings"]["sweep_s"] = time.perf_counter() - start
    write_dataset(cfg["out"], header, columns, meta)
    return _gate_exit(meta)


def _jump_flags(gammas: np.ndarray, threshold: float) -> np.ndarray:
    """True at both ends of every step of more than ``threshold``."""
    step = np.abs(np.diff(gammas)) > threshold
    return np.append(step, False) | np.insert(step, 0, False)


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
    columns = [avg.times, avg.photon_expectation, avg.fidelity, duration,
               p_int, q_int, res.total_phase, res.dynamical_phase,
               res.aa_phase, avg.P, avg.gamma_over_2pi]   # summary: constant
    header = ["t", "photon_expectation", "fidelity", "T", "p", "q",
              "total_phase", "dynamical_phase", "aa_phase", "P_avg",
              "gamma_over_2pi"]
    meta = _new_meta(cfg, "evolve",
                     summary={"T": duration, "p": p_int, "q": q_int,
                        "total_phase": res.total_phase,
                        "dynamical_phase": res.dynamical_phase,
                        "aa_phase": res.aa_phase,
                        "recurrence_fidelity": res.recurrence_fidelity,
                              "P": avg.P,
                              "gamma_over_2pi": avg.gamma_over_2pi})
    write_dataset(cfg["out"], header, columns, meta)
    return 0


def cmd_scan_anticrossing(cfg: dict) -> int:
    M = int(cfg["trunc_m"])
    deltas = _get(cfg, "deltas", [_get(cfg, "delta", 0.5)])
    if not isinstance(deltas, list):
        raise ConfigError(f"deltas {deltas!r}: need a list of numbers")
    deltas = [_number(float, "delta", d) for d in deltas]
    if not deltas or not all(map(math.isfinite, deltas)):
        raise ConfigError(f"deltas {deltas!r}: need one or more finite "
                          "detunings")
    if cfg.get("deltas") is not None and cfg.get("delta") is not None:
        raise ConfigError("give delta or deltas, not both")
    g_min = _number(float, "g_min", _get(cfg, "g_min", 0.2))
    g_max = _number(float, "g_max", _get(cfg, "g_max", 0.32))
    if not (0.0 <= g_min < g_max and math.isfinite(g_max)):
        raise ConfigError(f"g window [{g_min}, {g_max}]: need finite "
                          "0 <= g_min < g_max")
    columns = [deltas, [], [], [], []]
    diagnostics = {"jump_on_window_edge": [], "level_pair": [],
                   "pair_curvature": [], "residual_bound": [], "scan_m": []}
    for delta in deltas:
        def params_of_g(g: float, d=delta) -> RabiParams:
            return RabiParams.equal_frequency(d, g, g)
        # the coarse scans only bracket, so they solve at the rung that
        # certifies the window's ends and midpoint; the refinements at M
        ends = [params_of_g(g) for g in (g_min, 0.5 * (g_min + g_max), g_max)]
        scan_m, _, _ = _climb(ends, _ladder(M), (1, -1), _scan_bounds)
        ac = geometry.detect_anticrossing(params_of_g, kappa=1, g_min=g_min,
                                          g_max=g_max, M=M, scan_M=scan_m)
        jump = geometry.locate_phase_jump(params_of_g, g_min, g_max, M=M,
                                          scan_M=scan_m)
        for column, cell in zip(columns[1:], (ac.g_star, ac.min_gap,
                                              jump.g_jump, jump.jump_size)):
            column.append(cell)
        diagnostics["scan_m"].append(scan_m)
        diagnostics["jump_on_window_edge"].append(jump.on_edge)
        diagnostics["level_pair"].append(list(ac.level_pair))
        diagnostics["pair_curvature"].append(list(ac.curvature))
        star = model.solve_sectors([params_of_g(ac.g_star)], M, 1)
        diagnostics["residual_bound"].append({
            "pair_energy": float(_energy_bounds(star, ac.level_pair[1] + 1,
                                                True)[0]),
            "vacuum_phase": float(np.max(_vacuum_phase_bounds(
                {-1: jump.scan})))})
    meta = _new_meta(
        cfg, "scan-anticrossing",
        note=("jump location tracks the steepest change of the exact "
              "weighted phase; the initial state is odd under parity, so it "
              "follows the odd-sector anti-crossing; pair_curvature is "
              "d^2E/d omega_c^2 of the even-sector level_pair at g_star"),
        diagnostics=diagnostics,
        convergence_gate=_gate(max(max(bounds.values()) for bounds
                                   in diagnostics["residual_bound"])))
    write_dataset(cfg["out"], ["delta", "g_star", "min_gap", "jump_g",
                               "jump_size"], columns, meta)
    return _gate_exit(meta)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _preset_fig1(cfg: dict) -> int:
    cfg.setdefault("out", "fig1_curvature_field.csv")
    cfg["levels"] = _levels(cfg, 361)
    return cmd_curvature_field(cfg)


def _preset_fig2(cfg: dict) -> int:
    cfg.setdefault("out", "fig2_noneigen_rwa.csv")
    # row order: delta, then g2, then panel (a: g1 = g2, b: g1 = 0.02)
    panel = ["a", "b"] * 1000
    delta = np.repeat([0.0, 0.05, -0.05, 0.2, -0.2], 400)
    g2 = np.tile(np.linspace(0.001, 0.1, 200).repeat(2), 5)
    g1 = np.where(np.arange(2000) % 2, 0.02, g2)
    curvature, phase = [], []   # each point's RabiParams is not kept
    for point in zip(delta.tolist(), g1.tolist(), g2.tolist()):
        pars = RabiParams.equal_frequency(*point)
        curvature.append(geometry.noneigen_curvature_two_qubit(pars))
        phase.append(geometry.vacuum_phase_two_qubit(pars))
    meta = _new_meta(cfg, "fig2",
                     detunings="representative choice {0, +-0.05, +-0.2}")
    write_dataset(cfg["out"], ["panel", "delta", "g1", "g2", "F_theta_phi",
                               "gamma_rwa"],
                  [panel, delta, g1, g2, curvature, phase], meta)
    return 0


def _preset_delta(cfg: dict) -> None:
    """fig3 and fig4 sweep at Delta = 0.5 unless omega1 or delta is given."""
    if cfg.get("omega1") is None:
        cfg.setdefault("delta", 0.5)


def _preset_fig3(cfg: dict) -> int:
    cfg.setdefault("out", "fig3_spectrum.csv")
    _preset_delta(cfg)
    cfg["sweep"] = {"var": "g", "start": 0.001, "stop": 0.5, "points": 101}
    cfg["drop_singlets"] = True
    cfg["mode"] = "both"
    return cmd_spectrum(cfg)


def _preset_fig4(cfg: dict) -> int:
    cfg.setdefault("out", "fig4_berry.csv")
    _preset_delta(cfg)
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
    gate = meta["convergence_gate"]
    if gate.get("passed", True):
        return 0
    print(f"error: convergence gate failed, truncation bound "
          f"{gate['max_bound']:.3e} above {GATE_TOL:g}", file=sys.stderr)
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabigeom", usage="%(prog)s COMMAND [flags]",
        description="Spectra, Berry curvatures and vacuum-induced geometric "
                    "phases of the one- and two-qubit Rabi models")
    parser.add_argument("command", choices=COMMAND_KEYS, metavar="COMMAND",
                        help="one of " + ", ".join(COMMAND_KEYS))
    for key, options in VALUE_FLAGS:
        parser.add_argument("--" + key.replace("_", "-"), **options)
    parser.add_argument("--rwa", action="store_true",
                        help="restrict to RWA results")
    parser.add_argument("--full", action="store_true",
                        help="restrict to beyond-RWA results")
    parser.add_argument("--drop-singlets", action="store_true")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags override its values")
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
    except (ConfigError, model.NotEqualFrequency, model.OverlapOverflow,
            MemoryError) as exc:   # numpy names the allocation that failed
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (numerics.InvalidMatrix, OverflowError) as exc:
        print(f"config error: parameters too large for double precision: "
              f"{exc}", file=sys.stderr)
        return 2
    except geometry.WeightError as exc:   # the bisection's weights at M
        print(f"error: {exc} at M = {cfg['trunc_m']}", file=sys.stderr)
        return 3
    except (dynamics.NoRational, dynamics.DegenerateDoublet,
            geometry.NoAnticrossing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
