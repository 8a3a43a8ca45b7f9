"""Snapshot/resume checkpoints (engine scale-out PR).

The contract under test: ``advance(t1); save; load; advance(t2)``
behaves *exactly* like a straight ``advance(t2)`` — same events, same
RNG draws, same report — including under churn, honest detectors,
preemption and the PR 8 NameNode journal.  Plus the envelope
hygiene: versioning, magic, and loud errors on unpicklable graphs.
"""

from __future__ import annotations

import io
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (
    ClusterConfig,
    DetectorConfig,
    DfsConfig,
    JournalConfig,
    SystemConfig,
    TraceConfig,
    moon_scheduler_config,
)
from repro.core import load_snapshot, moon_system, save_snapshot
from repro.core.snapshot import SNAPSHOT_VERSION, _MAGIC, roundtrip
from repro.errors import SnapshotError
from repro.service import MoonService, ServiceConfig, replay_arrivals
from repro.service.preempt import PreemptConfig
from repro.workloads import sleep_spec

HOUR = 3600.0

#: Marks an envelope field the forged payload leaves out.
_MISSING = object()


def build_service(
    seed=7,
    rate=0.3,
    detector=None,
    preempt=None,
    journal=False,
    horizon=0.5 * HOUR,
    n_jobs=12,
):
    kwargs = {}
    if detector is not None:
        kwargs["detector"] = DetectorConfig(mode=detector)
    if journal:
        kwargs["dfs"] = DfsConfig(journal=JournalConfig(enabled=True))
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(n_volatile=8, n_dedicated=2),
            trace=TraceConfig(unavailability_rate=rate),
            scheduler=moon_scheduler_config(),
            seed=seed,
            **kwargs,
        )
    )
    spec = sleep_spec(20.0, 5.0, n_maps=6, n_reduces=2)
    entries = [
        (i * 40.0, f"t{i % 3}", spec.with_(name=f"j{i}"), 1800.0)
        for i in range(n_jobs)
    ]
    return MoonService(
        system,
        ServiceConfig(horizon=horizon, policy="sjf", preempt=preempt),
        replay_arrivals(entries),
    )


def report_key(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, default=str)


def run_straight(**kwargs) -> str:
    svc = build_service(**kwargs)
    svc.advance(svc.config.horizon + svc.config.drain_limit)
    return report_key(svc.finalize())


def run_segmented(cuts, **kwargs) -> str:
    svc = build_service(**kwargs)
    for t in cuts:
        svc.advance(t)
        svc = roundtrip(svc)
    svc.advance(svc.config.horizon + svc.config.drain_limit)
    return report_key(svc.finalize())


class TestSegmentedEqualsStraight:
    """The headline property, across the failure-model cube."""

    def test_plain_churny_stream(self):
        assert run_straight() == run_segmented([60.0, 300.0, 900.0])

    @pytest.mark.parametrize("mode", ["timeout", "adaptive"])
    def test_honest_detectors(self, mode):
        assert run_straight(detector=mode) == run_segmented(
            [150.0, 700.0], detector=mode
        )

    def test_with_preemption(self):
        pre = PreemptConfig(mode="pause")
        assert run_straight(preempt=pre) == run_segmented(
            [200.0, 1000.0], preempt=pre
        )

    def test_with_namenode_journal(self):
        # Composition with PR 8: the in-memory journal and checkpoint
        # cadence travel inside the snapshot.
        assert run_straight(journal=True) == run_segmented(
            [90.0, 450.0], journal=True
        )

    def test_cut_every_interval_is_harmless(self):
        # Many tiny segments (snapshot pressure on every moving part).
        cuts = [float(t) for t in range(100, 1500, 200)]
        assert run_straight() == run_segmented(cuts)


class TestSnapshotFile:
    def test_file_roundtrip(self, tmp_path):
        svc = build_service()
        svc.advance(300.0)
        path = str(tmp_path / "ckpt.snap")
        save_snapshot(svc, path)
        restored = load_snapshot(path)
        assert restored.sim.now == svc.sim.now
        assert len(restored.records) == len(svc.records)
        restored.advance(
            restored.config.horizon + restored.config.drain_limit
        )
        report = restored.finalize()
        assert report_key(report) == run_straight()

    def test_restored_world_is_independent(self):
        svc = build_service()
        svc.advance(200.0)
        clone = roundtrip(svc)
        clone.advance(400.0)
        # The original stays parked where it was left.
        assert svc.sim.now == 200.0
        assert clone.sim.now == 400.0

    def test_fresh_process_resume_continues_id_allocation(self, tmp_path):
        # The class-level itertools.count counters are process-global:
        # restoring in a *new* interpreter must continue allocation,
        # not restart job0/transfer0 and collide with pickled state.
        svc = build_service()
        svc.advance(300.0)
        pre_ids = sorted(
            int(j.job_id[3:]) for j in svc.system.jobtracker.jobs
        )
        path = tmp_path / "ckpt.snap"
        save_snapshot(svc, str(path))
        code = (
            "import json, sys\n"
            "from repro.core import load_snapshot\n"
            "from repro.workloads import sleep_spec\n"
            "svc = load_snapshot(sys.argv[1])\n"
            "svc.advance(svc.config.horizon + svc.config.drain_limit)\n"
            "rep = svc.finalize()\n"
            "job = svc.system.submit(\n"
            "    sleep_spec(1.0, 1.0, n_maps=1, n_reduces=1))\n"
            "print(json.dumps({'new_id': int(job.job_id[3:]),\n"
            "                  'report': rep.to_dict()},\n"
            "                 sort_keys=True, default=str))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True,
            text=True,
            check=True,
        )
        got = json.loads(out.stdout)
        assert got["new_id"] > max(pre_ids)
        assert (
            json.dumps(got["report"], sort_keys=True, default=str)
            == run_straight()
        )


class TestCli:
    SERVE = [
        "serve", "--hours", "0.3", "--catalog", "sleep",
        "--volatile", "6", "--dedicated", "2", "--policy", "fifo",
    ]

    def _checkpoint_then_resume(self, tmp_path, capsys, extra=()):
        from repro.cli.main import main

        snap = tmp_path / "svc.snap"
        rc = main(self.SERVE + list(extra) + ["--checkpoint", str(snap),
                                              "--checkpoint-at", "300"])
        assert rc == 0
        straight = capsys.readouterr().out.split("checkpoint written")[1]
        straight = straight.split("\n", 1)[1]
        rc = main(["resume", str(snap)])
        assert rc == 0
        assert capsys.readouterr().out == straight
        return straight

    def test_serve_checkpoint_then_resume_matches(self, tmp_path, capsys):
        self._checkpoint_then_resume(tmp_path, capsys)

    def test_autoscaled_checkpoint_then_resume_matches(self, tmp_path,
                                                       capsys):
        # One autoscaled cell is one cell: it checkpoints like any other.
        out = self._checkpoint_then_resume(
            tmp_path, capsys, ["--autoscale", "reactive"]
        )
        assert "autoscale=reactive" in out

    def test_checkpoint_flags_go_together(self, capsys):
        from repro.cli.main import main

        assert main(self.SERVE + ["--checkpoint-at", "300"]) == 2

    def test_checkpoint_needs_exactly_one_cell(self, tmp_path, capsys):
        from repro.cli.main import main

        snap = tmp_path / "svc.snap"
        assert main(self.SERVE + ["--policy", "all", "--checkpoint",
                                  str(snap), "--checkpoint-at", "300"]) == 2
        assert "exactly one cell" in capsys.readouterr().err
        assert not snap.exists()

    def test_resume_until_requires_checkpoint(self, tmp_path):
        from repro.cli.main import main

        snap = tmp_path / "svc.snap"
        assert main(self.SERVE + ["--checkpoint", str(snap),
                                  "--checkpoint-at", "60"]) == 0
        assert main(["resume", str(snap), "--until", "120"]) == 2

    def test_resume_until_behind_clock_is_exit_2(self, tmp_path, capsys):
        # Regression: resume --until T with T behind the snapshot's
        # clock used to report "advanced to t=T" and write a snapshot
        # whose clock had gone backwards.
        from repro.cli.main import main

        snap = tmp_path / "svc.snap"
        later = tmp_path / "later.snap"
        assert main(self.SERVE + ["--checkpoint", str(snap),
                                  "--checkpoint-at", "300"]) == 0
        capsys.readouterr()
        assert main(["resume", str(snap), "--until", "100",
                     "--checkpoint", str(later)]) == 2
        err = capsys.readouterr().err
        assert "100.0" in err and "300.0" in err
        assert not later.exists()

    def test_resume_unreadable_snapshot_is_exit_2(self, tmp_path):
        from repro.cli.main import main

        bad = tmp_path / "junk.snap"
        bad.write_bytes(b"not a snapshot")
        assert main(["resume", str(bad)]) == 2

    def test_resume_forged_envelope_is_exit_2(self, tmp_path):
        from repro.cli.main import main

        forged = tmp_path / "forged.snap"
        forged.write_bytes(
            _MAGIC + pickle.dumps({"version": SNAPSHOT_VERSION})
        )
        assert main(["resume", str(forged)]) == 2

    def test_resume_non_service_root_is_exit_2(self, tmp_path, capsys):
        # save_snapshot accepts a bare MoonSystem root; resume serves a
        # stream and needs the MoonService around it.
        from repro.cli.main import main

        snap = tmp_path / "system.snap"
        save_snapshot(build_service().system, str(snap))
        assert main(["resume", str(snap)]) == 2
        assert "MoonService" in capsys.readouterr().err


class TestEnvelope:
    def test_bad_magic_rejected(self):
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="magic"):
            restore_bytes(b"definitely not a snapshot")

    def test_version_mismatch_rejected(self):
        payload = {
            "version": SNAPSHOT_VERSION + 1,
            "root": None,
            "counters": {},
        }
        data = _MAGIC + pickle.dumps(payload)
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="version"):
            restore_bytes(data)

    @staticmethod
    def _envelope(**fields):
        payload = {"version": SNAPSHOT_VERSION, "root": None,
                   "counters": {}}
        payload.update(fields)
        return _MAGIC + pickle.dumps(
            {k: v for k, v in payload.items() if v is not _MISSING}
        )

    def test_envelope_without_counters_rejected(self):
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="counters"):
            restore_bytes(self._envelope(counters=_MISSING))

    def test_envelope_with_non_dict_counters_rejected(self):
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="counters"):
            restore_bytes(self._envelope(counters=[1, 2]))

    def test_envelope_without_root_rejected(self):
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="root"):
            restore_bytes(self._envelope(root=_MISSING))

    def test_non_counter_value_rejected(self):
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="id counter"):
            restore_bytes(self._envelope(counters={"mapreduce.Job": 5}))

    def test_rejected_envelope_leaves_counters_untouched(self):
        import itertools

        from repro.core import restore_bytes
        from repro.mapreduce.job import Job
        from repro.net.base import Transfer

        before = (Job._ids, Transfer._ids)
        forged = {"mapreduce.Job": itertools.count(10**9)}
        for data in (
            # A good counter ahead of a bad one, and good counters with
            # no root: neither may leak into the process.
            self._envelope(counters={**forged, "bogus.Thing": 0}),
            self._envelope(counters={
                **forged, "net.Transfer": itertools.count(10**9)
            }, root=_MISSING),
        ):
            with pytest.raises(SnapshotError):
                restore_bytes(data)
            assert (Job._ids, Transfer._ids) == before

    def test_unpicklable_graph_is_a_loud_error(self):
        svc = build_service()
        svc.advance(60.0)
        # A stray closure smuggled onto a long-lived object must fail
        # at save time with a pointed message, not corrupt the file.
        svc._smuggled = lambda: None
        buf = io.BytesIO()
        with pytest.raises(SnapshotError, match="closure"):
            save_snapshot(svc, buf)

    def test_truncated_payload_is_corrupt(self):
        svc = build_service()
        buf = io.BytesIO()
        save_snapshot(svc, buf)
        data = buf.getvalue()[: len(_MAGIC) + 50]
        from repro.core import restore_bytes

        with pytest.raises(SnapshotError, match="corrupt"):
            restore_bytes(data)
