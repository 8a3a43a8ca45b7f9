"""The heartbeat progress refresh stores exactly what the builtin
``min``/``max`` clamps and the per-refresh ``sum`` stored.

``_ComputeStep.fraction_done`` clamps inline and
``MapRunner.update_progress`` reads a prefix-sum table; both run for
every live attempt on every tick, and the stored progress feeds the
straggler and frozen-task rules, so the values must match bit for bit
— type and the sign of zero included (``repr`` tells ``0`` from
``0.0`` and ``0.0`` from ``-0.0``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.mapreduce.execution import MAP_WEIGHTS, MapRunner, _ComputeStep


def reference_fraction(step: _ComputeStep) -> float:
    """The original ``fraction_done``."""
    if step.started_at is None:
        return 0.0
    if step.event is None:
        remaining = step.remaining
    else:
        remaining = step.remaining - (
            step.runner.rt.sim.now - step.started_at
        )
    done = step.total - remaining
    return min(1.0, max(0.0, done / step.total))


def reference_map_progress(runner: MapRunner):
    """The original ``MapRunner.update_progress`` value."""
    p = sum(MAP_WEIGHTS[: runner.phase])
    if runner.phase == 1 and runner._compute is not None:
        p += MAP_WEIGHTS[1] * reference_fraction(runner._compute)
    return min(1.0, p)


def make_step(total, remaining, now=None, started_at=0.0):
    step = _ComputeStep.__new__(_ComputeStep)
    step.total = total
    step.remaining = remaining
    step.started_at = started_at
    step.event = None if now is None else object()
    step.runner = SimpleNamespace(rt=SimpleNamespace(sim=SimpleNamespace(now=now)))
    return step


STEPS = [
    (10.0, 10.0, None),  # just started: 0.0
    (10.0, 4.0, None),  # paused mid-way
    (10.0, 0.0, None),  # done
    (10.0, 12.0, None),  # negative fraction clamps to 0.0
    (10.0, -5.0, None),  # overshoot clamps to 1.0
    (-1.0, -1.0, None),  # 0.0 / -1.0 is -0.0: clamps to +0.0
    (float("inf"), 1.0, None),  # inf / inf is NaN: clamps to 0.0
    (1e-9, 0.0, None),
    (7.0, 7.0, 3.5),  # running: remaining shrinks with the clock
    (7.0, 7.0, 0.0),
    (3.0, 3.0, 10.0),
]


def same(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("total,remaining,now", STEPS)
def test_fraction_done_matches_builtin_clamps(total, remaining, now):
    step = make_step(total, remaining, now)
    assert same(step.fraction_done(), reference_fraction(step))


def test_fraction_done_before_start():
    step = make_step(5.0, 5.0)
    step.started_at = None
    assert same(step.fraction_done(), 0.0)


@pytest.mark.parametrize("phase", [0, 1, 2])
@pytest.mark.parametrize("step", [None] + STEPS)
def test_map_progress_matches_sum_and_min(phase, step):
    runner = MapRunner.__new__(MapRunner)
    runner.phase = phase
    runner._compute = None if step is None else make_step(*step)
    runner.attempt = SimpleNamespace(progress=None)
    runner.update_progress()
    assert same(runner.attempt.progress, reference_map_progress(runner))
    # A signed zero never reaches the stored value.
    assert repr(runner.attempt.progress) != "-0.0"
