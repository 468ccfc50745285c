"""Span tracer that wraps embcom's public functions from outside the program.

Installing a :class:`Tracer` replaces every module attribute of the ``embcom``
package that is bound to a traced function with one shared wrapper, so a call
is recorded however the caller reached the function (``field.bhattacharyya_grid``
is also bound in ``codebook``, ``simulate`` and ``cli``).  Uninstalling puts
the original objects back.

Each call becomes one span: name, start and end (``perf_counter_ns``) and the
index of the enclosing span.  Spans live in compact in-memory arrays and are
written out, with the tracer's workload-run id, by :meth:`Tracer.save` once
the run is over; self time is a span's duration minus the time covered by its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

PACKAGE = "embcom"
LAYERS = ("config", "cli", "arrays", "field", "codebook", "bounds", "simulate",
          "sweep")


def traced_functions() -> dict[str, types.FunctionType]:
    """Public functions defined by each layer module, keyed ``layer.name``.

    Covers every function named in a module's ``__all__`` plus the other
    public functions it defines (``arrays`` and ``cli`` have no ``__all__``;
    ``cli.main`` and ``cli.cmd_*`` are public functions of ``cli``).
    """
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        names = set(getattr(mod, "__all__", ())) | {
            n for n in vars(mod) if not n.startswith("_")}
        for name in sorted(names):
            fn = getattr(mod, name, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = fn
    return out


class Tracer:
    """Records one span per call of every traced function while installed.

    ``counters`` maps a span name to ``fn(counts, result)``, called after each
    successful call to add counts measured at that boundary (elements
    evaluated, infinite results) to the ``counts`` Counter.
    """

    def __init__(self, run_id: str, counters: dict | None = None):
        self.run_id = run_id
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._counters = counters or {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[int, tuple[types.FunctionType, object]] | None = None

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:  # one wrapper per function for the tracer's life
            self._wrappers = {id(fn): (fn, self._wrap(name, fn))
                              for name, fn in traced_functions().items()}
        wrappers = self._wrappers
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or (modname != PACKAGE and not modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = self._counters.get(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return wrapper

    # --- analysis -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans, the name table and the run id to ``path`` (.npz)."""
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names, dtype=str), **self.spans())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, **self.spans())


class SpanSummary:
    """Per-name call counts, inclusive and self time, and self time split by
    the enclosing ``cli.cmd_*`` span."""

    def __init__(self, names, name, parent, start_ns, end_ns):
        self.names = list(names)
        n_names = len(self.names)
        dur = (end_ns - start_ns).astype(float) * 1e-9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child
        self.calls = np.bincount(name, minlength=n_names)
        self.total_s = np.bincount(name, weights=dur, minlength=n_names)
        self.self_s = np.bincount(name, weights=self_s, minlength=n_names)
        self.self_sum_s = float(self_s.sum())

        # self time grouped by the nearest enclosing cli.cmd_* span (parents
        # always precede their children in span order)
        is_cmd = [nm.startswith("cli.cmd_") for nm in self.names]
        cmd_of = []
        for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
            cmd_of.append(i if is_cmd[nid] else (cmd_of[p] if p >= 0 else -1))
        cmd_of = np.asarray(cmd_of, dtype=np.int64)
        self.by_command: dict[str, dict[str, float]] = {}
        self.incl_by_command: dict[str, dict[str, float]] = {}
        self.command_s: dict[str, float] = {}
        inside = cmd_of >= 0
        cmd_name = name[cmd_of[inside]]
        for cid in np.unique(cmd_name):
            sel = cmd_name == cid
            names_in = name[inside][sel]
            own = np.bincount(names_in, weights=self_s[inside][sel], minlength=n_names)
            incl = np.bincount(names_in, weights=dur[inside][sel], minlength=n_names)
            cname = self.names[cid].removeprefix("cli.cmd_")
            self.by_command[cname] = {self.names[k]: float(own[k])
                                      for k in np.nonzero(own)[0]}
            self.incl_by_command[cname] = {self.names[k]: float(incl[k])
                                           for k in np.nonzero(incl)[0]}
            self.command_s[cname] = float(self.total_s[cid])

    def _idx(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def get(self, name: str, field: str) -> float:
        """``calls``, ``total_s`` or ``self_s`` of one span name (0 if unseen)."""
        k = self._idx(name)
        return 0.0 if k is None else float(getattr(self, field)[k])

    def share(self, name: str, command: str, inclusive: bool = False) -> float:
        """Self time (or, with ``inclusive``, the whole duration) of ``name``
        spans inside ``cli.cmd_<command>`` spans as a share of those spans'
        duration; 0 if the command never ran."""
        total = self.command_s.get(command, 0.0)
        if total <= 0:
            return 0.0
        per = self.incl_by_command if inclusive else self.by_command
        return per[command].get(name, 0.0) / total

    def top(self, command: str, k: int = 5,
            inclusive: bool = False) -> list[tuple[str, float]]:
        per = (self.incl_by_command if inclusive else self.by_command).get(command, {})
        return sorted(per.items(), key=lambda kv: -kv[1])[:k]
