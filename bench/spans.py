"""Spans around calls into the public functions of rabigeom's five modules.

The tracer lives entirely in the benchmark: it rebinds each public function
of ``numerics``, ``model``, ``geometry``, ``dynamics`` and ``cli`` on its
module object (and in module-level dispatch tables), so calls made through
``module.name`` or through module globals inside the same module both pass
through a span.  Nothing under ``src/`` changes.

A span's self time is its duration minus the part of it that child spans
cover.  Spans opened in worker threads of the CLI's sweep pool have no parent
in their own thread; they are parented to the open ``cli.cmd_*`` span, whose
self time is then its duration minus the union of its children's intervals.
"""

import functools
import inspect
import os
import threading
import time

import numpy as np

#: flops of a dense symmetric eigendecomposition with eigenvectors, ~9 n^3
#: (Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.3)
EIGH_FLOP_PER_N3 = 9.0

#: weight below which noneigen_phase_beyond_rwa drops a component
WEIGHT_FLOOR = 1e-12

GATE = "cli.convergence_gate"
NONEIGEN = "geometry.noneigen_phase_beyond_rwa"


class _Span:
    __slots__ = ("name", "start", "child_s", "intervals")

    def __init__(self, name: str, adopts: bool):
        self.name = name
        self.start = 0.0
        self.child_s = 0.0
        # children of a span that adopts worker spans may overlap in time
        self.intervals = [] if adopts else None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.stats: dict[str, list[float]] = {}   # name -> [calls, s, self_s]
        self.counters = {"eigh_flop": 0.0, "write_bytes": 0.0, "cmd_cpu_s": 0.0,
                         "gate_solve_s": 0.0, "noneigen_solves": 0.0,
                         "noneigen_useful": 0.0}
        self.cmd_span = None   # open cli.cmd_* span; adopts worker spans

    def install(self, modules) -> None:
        """Rebind every public function defined in ``modules`` to a traced one."""
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        is_cmd = name.startswith("cli.cmd_")
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.cmd_span
            span = _Span(name, adopts=is_cmd)
            stack.append(span)
            if is_cmd:
                outer, self.cmd_span = self.cmd_span, span
                cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_cmd:
                    self.cmd_span = outer
                    self.add("cmd_cpu_s", time.process_time() - cpu0)
                self._close(span, end, parent)
            if hook is not None:
                hook(self, stack, end - span.start, args, result)
            return result

        return traced

    def _close(self, span: _Span, end: float, parent) -> None:
        dur = end - span.start
        covered = (span.child_s if span.intervals is None
                   else _union_length(span.intervals))
        with self.lock:
            st = self.stats.setdefault(span.name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - covered
            if parent is None:
                return
            if parent.intervals is None:
                parent.child_s += dur
            else:
                parent.intervals.append((span.start, end))

    def add(self, counter: str, value: float) -> None:
        with self.lock:
            self.counters[counter] += value


def _inside(stack: list, name: str) -> bool:
    return any(s.name == name for s in stack)


def _eigh_hook(tracer, stack, dur, args, result):
    n = len(result.eigenvalues)
    tracer.add("eigh_flop", EIGH_FLOP_PER_N3 * n ** 3)


def _write_hook(tracer, stack, dur, args, result):
    path = args[0]
    tracer.add("write_bytes", os.path.getsize(path)
               + os.path.getsize(path + ".meta.json"))


def _solve_hook(tracer, stack, dur, args, result):
    if _inside(stack, GATE):
        tracer.add("gate_solve_s", dur)
    if _inside(stack, NONEIGEN):
        tracer.add("noneigen_solves", 1)


def _amplitudes_hook(tracer, stack, dur, args, result):
    if _inside(stack, NONEIGEN):
        tracer.add("noneigen_useful", float(np.any(result * result >= WEIGHT_FLOOR)))


_HOOKS = {"numerics.eigh": _eigh_hook, "cli.write_dataset": _write_hook,
          "model.truncated_parity_solve": _solve_hook,
          "geometry.vacuum_amplitudes": _amplitudes_hook}

#: (metric, unit, stats name, field) with field 0 calls, 1 inclusive s, 2 self s
SPAN_METRICS = [
    ("numerics.eigh.calls", "count", "numerics.eigh", 0),
    ("numerics.eigh.s", "s", "numerics.eigh", 1),
    ("numerics.propagate.calls", "count", "numerics.propagate", 0),
    ("numerics.propagate.s", "s", "numerics.propagate", 1),
    ("model.displacement_matrix.calls", "count", "model.displacement_matrix", 0),
    ("model.displacement_matrix.s", "s", "model.displacement_matrix", 1),
    ("model.sector_hamiltonian.self_s", "s", "model.sector_hamiltonian", 2),
    ("model.truncated_parity_solve.calls", "count",
     "model.truncated_parity_solve", 0),
    ("model.truncated_parity_solve.s", "s", "model.truncated_parity_solve", 1),
    ("model.truncated_parity_solve.self_s", "s",
     "model.truncated_parity_solve", 2),
    ("model.sector_number_operator.s", "s", "model.sector_number_operator", 1),
    ("model.solve_block.calls", "count", "model.solve_block", 0),
    ("model.solve_block.s", "s", "model.solve_block", 1),
    ("geometry.noneigen_phase_beyond_rwa.calls", "count", NONEIGEN, 0),
    ("geometry.noneigen_phase_beyond_rwa.s", "s", NONEIGEN, 1),
    ("geometry.noneigen_phase_beyond_rwa.self_s", "s", NONEIGEN, 2),
    ("geometry.vacuum_amplitudes.s", "s", "geometry.vacuum_amplitudes", 1),
    ("geometry.detect_anticrossing.s", "s", "geometry.detect_anticrossing", 1),
    ("geometry.locate_phase_jump.s", "s", "geometry.locate_phase_jump", 1),
    ("dynamics.average_photon_number.s", "s", "dynamics.average_photon_number", 1),
    ("dynamics.average_photon_number.self_s", "s",
     "dynamics.average_photon_number", 2),
    ("cli.convergence_gate.s", "s", GATE, 1),
    ("cli.write_dataset.s", "s", "cli.write_dataset", 1),
]

#: units of the metrics layer_metrics derives beyond SPAN_METRICS
DERIVED_UNITS = {
    "numerics.eigh.gflop_computed": "GFLOP",
    "geometry.noneigen.useful_solve_ratio": "ratio",
    "cli.sweep.s": "s",
    "cli.sweep.self_s": "s",
    "cli.sweep.cpu_per_wall": "ratio",
    "cli.convergence_gate.solve_share": "ratio",
    "cli.write_dataset.bytes": "bytes",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the workload never does the work in den."""
    return num / den if den > 0.0 else 0.0


def layer_metrics(stats: dict, counters: dict) -> dict[str, float]:
    """Per-layer metric values from one traced run's raw stats and counters."""
    out = {}
    for metric, _, name, field in SPAN_METRICS:
        out[metric] = float(stats.get(name, (0, 0.0, 0.0))[field])
    cmds = [st for name, st in stats.items() if name.startswith("cli.cmd_")]
    sweep_s = sum(st[1] for st in cmds)
    out["numerics.eigh.gflop_computed"] = counters["eigh_flop"] / 1e9
    out["geometry.noneigen.useful_solve_ratio"] = _ratio(
        counters["noneigen_useful"], counters["noneigen_solves"])
    out["cli.sweep.s"] = sweep_s
    out["cli.sweep.self_s"] = sum(st[2] for st in cmds)
    out["cli.sweep.cpu_per_wall"] = _ratio(counters["cmd_cpu_s"], sweep_s)
    out["cli.convergence_gate.solve_share"] = _ratio(
        counters["gate_solve_s"], out["cli.convergence_gate.s"])
    out["cli.write_dataset.bytes"] = counters["write_bytes"]
    return out
