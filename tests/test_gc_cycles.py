"""Cyclic-garbage guard for the transfer and DFS hot path.

Every DFS write stage and every block read or shuffle fetch is a
network transfer.  A finished transfer and the DFS op whose callbacks
it holds must be freed by reference counting the moment nothing needs
them.  If any of them sits in a reference cycle (the classic one: a
transfer keeping the handle of its own fired completion event, whose
``args`` hold the transfer), tens of thousands of objects per job
reach Python's cyclic collector instead, and the collector's passes
show up as a large share of the run's wall time.

Each case runs a small churny sort world with the cyclic collector
switched off and ``gc.DEBUG_SAVEALL`` on, so that everything a
``gc.collect()`` would have freed lands in ``gc.garbage`` for
inspection.  The world stays referenced throughout: only objects that
are truly unreachable count.
"""

from __future__ import annotations

import gc
from collections import Counter
from functools import partial

import pytest

from repro.config import ClusterConfig, DetectorConfig, SystemConfig, TraceConfig
from repro.core import hadoop_system, moon_system
from repro.dfs import ReplicationFactor as RF
from repro.dfs.client import ReadOp, WriteOp
from repro.experiments.harness import hadoop_policy, moon_policy
from repro.net import FifoNetwork, Transfer
from repro.simulation import Event
from repro.workloads import sort_spec

#: Per-operation types that must never be cyclic garbage.
OP_TYPES = (Transfer, ReadOp, WriteOp)
#: Events whose callback belongs to these packages must not be either.
OP_MODULES = ("repro.net", "repro.dfs")


def _churny_sort(hadoop: bool, network: str):
    """A 64-map sort on 30 volatile + 3 dedicated nodes at
    unavailability 0.5 under the timeout detector.  Returns the system,
    the job and the number of in-flight transfers node departures
    aborted."""
    if hadoop:
        # Hadoop-VO: every replica on volatile nodes.
        rf = dict(input_rf=RF(0, 3), output_rf=RF(0, 3), intermediate_rf=RF(0, 2))
        sched = hadoop_policy(1)
    else:
        rf = dict(input_rf=RF(1, 3), output_rf=RF(1, 3), intermediate_rf=RF(1, 1))
        sched = moon_policy(True)
    cfg = SystemConfig(
        cluster=ClusterConfig(n_volatile=30, n_dedicated=3),
        trace=TraceConfig(unavailability_rate=0.5),
        scheduler=sched,
        seed=4,
        network_model=network,
        detector=DetectorConfig(mode="timeout"),
    )
    system = hadoop_system(cfg) if hadoop else moon_system(cfg)
    net = system.network
    aborted = [0]
    abort_transfers = net._abort_transfers

    def counting_abort(node_id: int) -> None:
        before = net.active_transfers()
        abort_transfers(node_id)
        aborted[0] += before - net.active_transfers()

    net._abort_transfers = counting_abort
    job = system.submit(sort_spec(n_maps=64, block_mb=32.0, **rf))
    system.sim.run(until=4 * 3600.0, stop_when=lambda: job.finished)
    return system, job, aborted[0]


def _owner_module(fn) -> str:
    while isinstance(fn, partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    return getattr(fn, "__module__", "") or ""


def _offenders(garbage) -> Counter:
    """Per-operation objects in ``garbage``, counted by type name."""
    found: Counter = Counter()
    for obj in garbage:
        if isinstance(obj, OP_TYPES):
            found[type(obj).__name__] += 1
        elif isinstance(obj, Event) and _owner_module(obj.fn).startswith(
            OP_MODULES
        ):
            found["Event"] += 1
    return found


def _cyclic_garbage_of(run):
    """Call ``run()`` with the cyclic collector off and return
    ``(run's result, offenders among what a collection would free)``.

    The collector's flags are restored, and the saved garbage really
    freed, whatever happens.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        offenders = _offenders(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()
    return result, offenders


@pytest.mark.parametrize(
    "hadoop,network",
    [(False, "fifo"), (False, "fairshare"), (True, "fifo")],
    ids=["moon-hybrid-fifo", "moon-hybrid-fairshare", "hadoop-vo-fifo"],
)
def test_transfer_path_leaves_no_cyclic_garbage(hadoop, network):
    (system, job, aborted), offenders = _cyclic_garbage_of(
        lambda: _churny_sort(hadoop, network)
    )
    # The failure paths ran, not just the happy path.
    assert job.finished
    assert aborted > 0
    assert system.namenode.counters["read_timeouts"] > 0
    assert job.counters["fetch_failures"] > 0
    assert offenders == Counter()


def test_guard_catches_a_completion_handle_kept_after_fire(monkeypatch):
    """Mutant: a ``_complete`` that leaves ``t._event`` set puts every
    completed transfer back into a cycle, and the guard must see it."""

    def leaky_complete(self, t):
        self._inflight.pop(t, None)
        self._finish(t)

    monkeypatch.setattr(FifoNetwork, "_complete", leaky_complete)
    _, offenders = _cyclic_garbage_of(lambda: _churny_sort(False, "fifo"))
    assert offenders["Transfer"] > 0
    assert offenders["Event"] > 0
    assert offenders["ReadOp"] > 0
    assert offenders["WriteOp"] > 0
