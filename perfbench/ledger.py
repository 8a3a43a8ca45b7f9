"""The traced run's per-layer ledger, measured from outside the program.

Spans are opened and closed by the benchmark's own code in two ways:

* wrappers around public entry points of each layer (installed on the
  classes for the duration of :func:`instrumented` and removed after),
  e.g. ``select_task``, ``JobTracker.submit``/``launch``,
  ``NetworkModel.transfer``/``disk_io``, ``DfsClient.write_file``;
* one span per callback the engine dispatches, opened by the public
  ``Simulation.trace_hook`` and closed by the profiler slot
  (``sim.obs.profiler.note``), which the engine calls when the callback
  returns.  Callbacks are credited to the module that owns them,
  looking through ``PeriodicTask`` and bound methods, so a periodic
  JobTracker heartbeat shows up as ``JobTracker._tick``.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, by :meth:`Ledger.save`.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is
the sum over its spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.dfs.client import DfsClient
from repro.dfs.namenode import NameNode
from repro.mapreduce.jobtracker import JobTracker
from repro.net.fairshare import FairShareNetwork
from repro.net.fifo import FifoNetwork
from repro.scheduling.hadoop import HadoopScheduler
from repro.scheduling.late import LateScheduler
from repro.scheduling.moon import MoonScheduler
from repro.service.queue import JobQueue
from repro.service.service import MoonService
from repro.simulation import PeriodicTask, Simulation

def layer_of(module: str) -> str:
    """Map a ``repro.*`` module name to the ledger layer that owns it."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    pkg, sub = parts[1], parts[2] if len(parts) > 2 else ""
    if pkg == "mapreduce":
        return "jobtracker" if sub == "jobtracker" else "execution"
    if pkg == "net" and sub in ("fifo", "fairshare"):
        return f"net.{sub}"
    return pkg


class Ledger:
    """In-memory span store with per-name count, total and self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.count: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        #: Free-form counters filled by wrapper hooks (hits, MB, ...).
        self.counters: Dict[str, float] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        #: Open spans: [span index, name id, start, child time].
        self._stack: List[list] = []
        self._callbacks: Dict[Tuple[object, type], int] = {}

    # -- spans ---------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.count.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def open(self, nid: int) -> None:
        stack = self._stack
        idx = len(self._span_start)
        self._span_name.append(nid)
        self._span_parent.append(stack[-1][0] if stack else -1)
        self._span_end.append(0.0)
        start = perf_counter()
        self._span_start.append(start)
        stack.append([idx, nid, start, 0.0])

    def close(self) -> None:
        end = perf_counter()
        stack = self._stack
        idx, nid, start, child = stack.pop()
        self._span_end[idx] = end
        duration = end - start
        self.count[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - child
        if stack:
            stack[-1][3] += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    @property
    def spans(self) -> int:
        return len(self._span_start)

    # -- engine callbacks ------------------------------------------------
    def callback_id(self, fn: Callable) -> int:
        """Name id of a dispatched callback, owned by its real module."""
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, PeriodicTask):
            fn = owner._fn
            owner = getattr(fn, "__self__", None)
        func = getattr(fn, "__func__", fn)
        key = (getattr(func, "__code__", func), type(owner))
        nid = self._callbacks.get(key)
        if nid is None:
            short = getattr(func, "__name__", type(func).__name__)
            if owner is not None:
                name = f"{type(owner).__name__}.{short}"
                module = type(owner).__module__
            else:
                name = getattr(func, "__qualname__", short)
                module = getattr(func, "__module__", "") or ""
            nid = self.name_id(name, layer_of(module))
            self._callbacks[key] = nid
        return nid

    def attach(self, system) -> None:
        """Credit every callback ``system``'s engine dispatches."""
        system.sim.trace_hook = _DispatchProbe(self)
        system.sim.obs.profiler = system.sim.trace_hook

    # -- reports ---------------------------------------------------------
    def rows(self) -> List[dict]:
        """One row per span name, heaviest self time first."""
        out = [
            {
                "name": name,
                "layer": self.layers[i],
                "count": self.count[i],
                "total_s": self.total[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
        ]
        out.sort(key=lambda r: (-r["self_s"], r["name"]))
        return out

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            out[layer] = out.get(layer, 0.0) + self.self_time[i]
        return out

    def stat(self, name: str, field: str = "count") -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return float(
            {"count": self.count, "total": self.total,
             "self": self.self_time}[field][nid]
        )

    def save(self, path: str) -> None:
        """Write every span plus the name table as one ``.npz`` file."""
        np.savez(
            path,
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            names=np.array(json.dumps(
                [{"name": n, "layer": l}
                 for n, l in zip(self.names, self.layers)]
            )),
        )


class _DispatchProbe:
    """Engine hook pair: ``trace_hook`` opens, ``profiler.note`` closes."""

    __slots__ = ("_ledger", "_open", "_close", "_resolve")

    def __init__(self, ledger: Ledger) -> None:
        self._ledger = ledger
        self._open = ledger.open
        self._close = ledger.close
        self._resolve = ledger.callback_id

    def __call__(self, _now: float, event) -> None:
        self._open(self._resolve(event.fn))

    def note(self, _key: str, _seconds: float) -> None:
        self._close()


# ----------------------------------------------------------------------
# Wrappers around the layers' public entry points
# ----------------------------------------------------------------------
def _count_hits(ledger: Ledger, args, kwargs, result) -> None:
    if result is not None:
        ledger.counters["select_hits"] = (
            ledger.counters.get("select_hits", 0.0) + 1
        )


def _count_mb(position: int) -> Callable:
    def hook(ledger: Ledger, args, kwargs, result) -> None:
        size = kwargs.get(
            "size_mb", args[position] if len(args) > position else 0.0
        )
        ledger.counters["net_mb"] = ledger.counters.get("net_mb", 0.0) + size

    return hook


#: (class, method, layer, result hook or None).  ``Simulation.run`` is
#: the root of every traced run; its self time is the dispatch loop
#: outside every callback.
TARGETS = [
    (Simulation, "run", "simulation", None),
    (MoonScheduler, "select_task", "scheduling", _count_hits),
    (HadoopScheduler, "select_task", "scheduling", _count_hits),
    (LateScheduler, "select_task", "scheduling", _count_hits),
    (JobTracker, "submit", "jobtracker", None),
    (JobTracker, "launch", "jobtracker", None),
    (JobTracker, "attempt_succeeded", "jobtracker", None),
    (FifoNetwork, "transfer", "net.fifo", _count_mb(3)),
    (FifoNetwork, "disk_io", "net.fifo", _count_mb(2)),
    (FairShareNetwork, "transfer", "net.fairshare", _count_mb(3)),
    (FairShareNetwork, "disk_io", "net.fairshare", _count_mb(2)),
    (DfsClient, "write_file", "dfs", None),
    (DfsClient, "read_block", "dfs", None),
    (NameNode, "read_targets", "dfs", None),
    (JobQueue, "offer", "service", None),
    (JobQueue, "select", "service", None),
    (MoonService, "finalize", "service", None),
]


def _wrap(ledger: Ledger, fn: Callable, nid: int,
          hook: Optional[Callable]) -> Callable:
    open_, close = ledger.open, ledger.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close()
        if hook is not None:
            hook(ledger, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def instrumented(ledger: Ledger) -> Iterator[Ledger]:
    """Wrap every :data:`TARGETS` entry point for the block's duration.

    Build the traced world inside the block: components that cache a
    bound method at construction must see the wrapped one.
    """
    saved = []
    try:
        for cls, attr, layer, hook in TARGETS:
            original = cls.__dict__[attr]
            nid = ledger.name_id(f"{cls.__name__}.{attr}", layer)
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(ledger, original, nid, hook))
        yield ledger
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
