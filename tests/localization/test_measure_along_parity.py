"""``measure_along`` (two batched channel calls) == the per-pose ``measure`` loop.

Under an active ``channel.link`` drop plan the batched flight must
drop the same half-links, draw the same noise, leave the rng in the
same state and emit the same channel and fault counter totals as
measuring pose by pose.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import faults
from repro.channel import Environment
from repro.faults import FaultPlan
from repro.localization import MeasurementModel
from repro.mobility import LineTrajectory
from repro.obs import metrics
from repro.scenarios import registry
from repro.scenarios.compiler import realize_world

PLAN = FaultPlan.single("channel.link", "drop", rate=0.3)
COUNTERS = ("channel.rays_traced", "channel.channels_synthesized")


def _bits(m) -> tuple:
    return (
        struct.pack("<dddd", m.h_target.real, m.h_target.imag,
                    m.h_reference.real, m.h_reference.imag),
        m.position.tobytes(),
        m.snr_db,
        m.time,
    )


def _run(model, samples, tag, batched: bool, seed: int):
    rng = np.random.default_rng(seed)
    registry_ = metrics.MetricsRegistry()
    with faults.engaged(PLAN, seed=seed) as engine, metrics.activated(registry_):
        if batched:
            out = model.measure_along(samples, tag, rng, snr_db=20.0)
        else:
            out = [model.measure(s.position, tag, rng, 20.0, s.time) for s in samples]
    return out, engine.injections, rng.bit_generator.state, registry_.counters


def _warehouse_model(seed: int):
    world = realize_world(registry.resolve("paper_warehouse_two_floor"),
                          np.random.default_rng(seed))
    model = MeasurementModel(world.environment, world.reader_position_m)
    samples = world.trajectory.sample_every(0.05)
    return model, samples, world.tag_positions_m[0]


def _aisle_model():
    model = MeasurementModel(Environment.warehouse_aisle(), (-6.0, 0.3))
    return model, LineTrajectory((0.5, 0.2), (8.0, -0.3)).sample_every(0.1), (4.0, 0.9)


def _free_model():
    model = MeasurementModel(reader_position=(-8.0, 0.0))
    return model, LineTrajectory((0, 0), (3, 0)).sample_every(0.1), (1.5, 1.5)


@pytest.mark.parametrize(
    "build", [lambda: _warehouse_model(3), lambda: _warehouse_model(11),
              _aisle_model, _free_model],
    ids=["warehouse-3", "warehouse-11", "aisle-order2", "free-space"],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_batched_flight_equals_pose_loop_under_drops(build, seed):
    model, samples, tag = build()
    got, got_injections, got_rng, got_counters = _run(model, samples, tag, True, seed)
    want, want_injections, want_rng, want_counters = _run(model, samples, tag, False, seed)

    assert [_bits(m) for m in got] == [_bits(m) for m in want]
    assert got_injections == want_injections
    assert got_rng == want_rng
    assert got_counters == want_counters
    for name in COUNTERS:
        assert got_counters[name] > 0
    # The plan really dropped some half-links and kept others.
    assert 0 < len(got_injections) < 2 * len(samples)
    dead = sum(m.h_reference == 0 for m in got)
    assert 0 < dead < len(got)


def test_every_link_dropped_traces_nothing():
    model, samples, tag = _free_model()
    registry_ = metrics.MetricsRegistry()
    with faults.engaged(FaultPlan.single("channel.link", "drop")), \
            metrics.activated(registry_):
        out = model.measure_along(samples, tag)
    assert all(m.h_target == 0 and m.h_reference == 0 for m in out)
    assert not any(name in registry_.counters for name in COUNTERS)


def test_empty_flight():
    model, _, tag = _free_model()
    assert model.measure_along([], tag) == []
