"""Spans around the calls that ``sweep_cli`` makes into the package modules.

The traced run replaces the module objects in ``sweep_cli``'s namespace with
views whose listed functions are wrapped, and wraps the table writers. Only
calls made by ``sweep_cli`` are seen, so each span is a call into a module
from outside it. Calls a module makes internally are not spans: in
particular ``noise.noise_flux`` rebuilds the transfer chain through the name
``transfer_chain`` imported into ``noise``, so that rebuild counts as
``noise`` self time, not ``scattering``. Spans inside the package are left to
a later change.

Spans (name, start, end, parent, operation id) are kept in memory in flat
arrays and written out when the run ends. A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

# The module functions sweep_cli calls, by module.
TRACED = {
    "scattering": ("transfer_chain", "scattering_from_transfer", "eigenvalues",
                   "conservation_residuals", "classify_phase"),
    "noise": ("noise_flux", "unitarity_deficit"),
    "effective": ("bloch_index", "round_trip", "effective_amplitudes",
                  "effective_noise"),
    "observables": ("homodyne_variance", "mandel_q"),
    "media": ("preset", "preset_default_omega", "pt_frequency"),
}
ROOT_SPAN = "sweep_cli.cli_main"
# Table serialisation: the ResultTable writers and the json.dumps that turns
# a table or a locate result into text.
OUTPUT_SPANS = ("sweep_cli.ResultTable.to_csv_text",
                "sweep_cli.ResultTable.to_json_obj", "sweep_cli.json.dumps")


class _ModuleView:
    """Stands in for a module: wrapped names first, the module for the rest."""

    def __init__(self, module, wrapped: dict):
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start[i] = time.perf_counter_ns()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one cli_main call; spans opened inside carry op_id."""
        self._op = op_id
        i = self._open(self._id(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def installed(self, sweep_cli):
        """Trace sweep_cli's calls into the package while the block runs."""
        modules = {name: getattr(sweep_cli, name) for name in TRACED}
        json_module = sweep_cli.json
        table = sweep_cli.ResultTable
        writers = {m: table.__dict__[m] for m in ("to_csv_text", "to_json_obj")}
        try:
            for name, module in modules.items():
                setattr(sweep_cli, name, _ModuleView(module, {
                    f: self.wrap(f"{name}.{f}", getattr(module, f))
                    for f in TRACED[name]}))
            sweep_cli.json = _ModuleView(json_module, {
                "dumps": self.wrap("sweep_cli.json.dumps", json_module.dumps)})
            for m, fn in writers.items():
                setattr(table, m, self.wrap(f"sweep_cli.ResultTable.{m}", fn))
            yield
        finally:
            for name, module in modules.items():
                setattr(sweep_cli, name, module)
            sweep_cli.json = json_module
            for m, fn in writers.items():
                setattr(table, m, fn)

    def arrays(self) -> dict:
        """Name id, operation id and self time (ns) of every span."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "self_ns": dur - child}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64))
