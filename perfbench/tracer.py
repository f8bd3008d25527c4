"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside, the public functions each layer of the
package calls in the layer below.  A wrapped function is replaced in every
module of the package that holds it, so the names that `simulator`,
`spectral` and `cli` imported from `dynamics` and `linalg` are traced too.
Every call records one span (name, start, end, parent) in flat in-memory
arrays; self time and counts are computed from the spans after the run, and
the spans are written out at the end.  Hooks whose target no longer exists
are skipped, so a refactor that drops a function leaves its counts at zero
instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute): functions replaced by name.
FUNCTION_HOOKS = (
    ("graph.build", "graph", "build_graph"),
    ("partition.split", "partition", "partition_rows"),
    ("partition.split", "partition", "partition_columns"),
    ("linalg.eig", "linalg", "eig"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.lstsq", "linalg", "solve_least_squares"),
    ("dynamics.residuals", "dynamics", "residuals"),
    ("simulator.integrate", "simulator", "integrate"),
    ("spectral.assemble", "spectral", "assemble_compact"),
    ("spectral.verdict", "spectral", "check_drift_spectrum"),
    ("spectral.equilibrium", "spectral", "equilibrium_certificate"),
    ("cli.parse", "cli", "parse_scenario"),
    ("cli.build_problem", "cli", "build_problem"),
    ("cli.artifacts", "cli", "write_run_artifacts"),
)
# (span name, defining module, class, method): methods replaced on the class.
METHOD_HOOKS = (
    ("dynamics.plan_build", "dynamics", "DerivativePlan", "__init__"),
    ("dynamics.evaluate", "dynamics", "DerivativePlan", "evaluate"),
)

PACKAGE = "duolayer"


def storage_bytes(obj) -> int:
    """Bytes held by an object's array attributes, dense or sparse."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
            continue
        for part in ("data", "indices", "indptr", "row", "col", "offsets"):
            arr = getattr(value, part, None)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
    return total


class Tracer:
    """Records spans of wrapped package calls while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.plan_bytes: list = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    def _record_plan(self, args) -> None:
        self.plan_bytes.append(storage_bytes(args[0]))

    def install(self) -> None:
        """Wrap every hook target in every loaded module of the package."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, module, attr in FUNCTION_HOOKS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        for name, module, cls_name, attr in METHOD_HOOKS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{module}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            after = self._record_plan if attr == "__init__" else None
            setattr(cls, attr, self._wrap(name, original, after))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def mark(self) -> int:
        """Index of the next span, to split the record into phases."""
        return len(self.name_id)

    def summary(self, lo: int, hi: int) -> dict:
        """Per span name: calls, busy (inclusive) seconds and self seconds,
        over the spans with index in [lo, hi)."""
        out = {name: {"calls": 0, "busy": 0.0, "self": 0.0} for name in self.names}
        if hi <= lo:
            return out
        name = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64))[lo:hi]
        child = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        own = dur - child
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(np.count_nonzero(sel)),
                "busy": float(dur[sel].sum()),
                "self": float(own[sel].sum()),
            }
        return out

    def dump(self, path) -> None:
        """Write every span: name index, parent index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
