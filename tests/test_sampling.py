"""Vectorised sampling is byte-identical to the scalar draws it
replaces.

Two contracts, each pinned with hypothesis:

* :class:`~repro.simulation.StreamSampler` — block-prefetched scalar
  draws equal direct ``numpy.random.Generator`` scalar calls in the
  same order on an identically seeded stream, per distribution family,
  for every block size;
* :func:`~repro.service.poisson_arrivals_vectorised` — the batched
  two-stream arrival builder equals :func:`poisson_arrivals_reference`,
  the scalar loop kept here as its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.service import poisson_arrivals_vectorised, sleep_catalog
from repro.service.arrivals import (
    DEFAULT_TENANTS,
    HOUR,
    JobArrival,
    _class_weights,
    _tenant_weights,
)
from repro.simulation import StreamSampler


def poisson_arrivals_reference(gap_rng, pick_rng, rate_per_hour, horizon,
                               catalog):
    """Scalar oracle for :func:`poisson_arrivals_vectorised`: one draw
    at a time from the same two streams, same arithmetic."""
    tenants = DEFAULT_TENANTS
    cum_class = np.cumsum(_class_weights(catalog))
    cum_tenant = np.cumsum(_tenant_weights(tenants, None))
    mean_gap = HOUR / rate_per_hour
    out = []
    t = 0.0
    while True:
        t = t + mean_gap * float(gap_rng.standard_exponential())
        if t >= horizon:
            break
        ci = min(
            int(np.searchsorted(cum_class, pick_rng.random(), side="right")),
            len(catalog) - 1,
        )
        ti = min(
            int(np.searchsorted(cum_tenant, pick_rng.random(), side="right")),
            len(tenants) - 1,
        )
        cls = catalog[ci]
        deadline = None if cls.slo_seconds is None else t + cls.slo_seconds
        out.append(JobArrival(t, tenants[ti], cls.spec, deadline))
    return out


def _pair(seed):
    return (
        np.random.default_rng([seed, 1]),
        np.random.default_rng([seed, 1]),
    )


class TestStreamSampler:
    @given(
        seed=st.integers(0, 2**31 - 1),
        block=st.integers(1, 64),
        scales=st.lists(
            st.floats(1e-3, 1e4, allow_nan=False), min_size=1, max_size=150
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_exponential_matches_generator(self, seed, block, scales):
        g_direct, g_sampled = _pair(seed)
        sampler = StreamSampler(g_sampled, block=block)
        got = [sampler.exponential(s) for s in scales]
        want = [float(g_direct.exponential(s)) for s in scales]
        assert got == want

    @given(
        seed=st.integers(0, 2**31 - 1),
        block=st.integers(1, 64),
        params=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=150,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_normal_matches_generator(self, seed, block, params):
        g_direct, g_sampled = _pair(seed)
        sampler = StreamSampler(g_sampled, block=block)
        got = [sampler.normal(m, s) for m, s in params]
        want = [float(g_direct.normal(m, s)) for m, s in params]
        assert got == want

    @given(
        seed=st.integers(0, 2**31 - 1),
        block=st.integers(1, 64),
        n=st.integers(1, 150),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_and_random_share_the_double_stream(self, seed, block, n):
        g_direct, g_sampled = _pair(seed)
        sampler = StreamSampler(g_sampled, block=block)
        got, want = [], []
        for i in range(n):
            if i % 2:
                got.append(sampler.uniform(-5.0, 12.5))
                want.append(float(g_direct.uniform(-5.0, 12.5)))
            else:
                got.append(sampler.random())
                want.append(float(g_direct.random()))
        assert got == want

    def test_family_is_locked(self):
        sampler = StreamSampler(np.random.default_rng(0), block=8)
        sampler.exponential(2.0)
        with pytest.raises(SimulationError):
            sampler.normal()
        with pytest.raises(SimulationError):
            sampler.uniform()
        sampler.exponential(3.0)  # same family keeps working

    def test_block_must_be_positive(self):
        with pytest.raises(SimulationError):
            StreamSampler(np.random.default_rng(0), block=0)


class TestVectorisedArrivals:
    @given(
        seed=st.integers(0, 2**31 - 1),
        rate=st.floats(1.0, 400.0),
        horizon=st.floats(600.0, 40_000.0),
        block=st.integers(1, 64),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_reference(self, seed, rate, horizon, block):
        catalog = sleep_catalog()
        gaps_v = np.random.default_rng([seed, 2])
        picks_v = np.random.default_rng([seed, 3])
        gaps_s = np.random.default_rng([seed, 2])
        picks_s = np.random.default_rng([seed, 3])
        vec = poisson_arrivals_vectorised(
            gaps_v, picks_v, rate, horizon, catalog=catalog, block=block
        )
        ref = poisson_arrivals_reference(
            gaps_s, picks_s, rate, horizon, catalog=catalog
        )
        assert vec == ref

    def test_mix_and_deadlines_sane(self):
        catalog = sleep_catalog()
        arrivals = poisson_arrivals_vectorised(
            np.random.default_rng(1),
            np.random.default_rng(2),
            rate_per_hour=120.0,
            horizon=6 * 3600.0,
            catalog=catalog,
        )
        assert arrivals
        assert all(
            a.arrival_time < b.arrival_time
            for a, b in zip(arrivals, arrivals[1:])
        )
        names = {a.spec.name for a in arrivals}
        assert names == {"sleep-interactive", "sleep-batch"}
        for a in arrivals:
            assert a.deadline is not None and a.deadline > a.arrival_time
