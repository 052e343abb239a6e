"""Soak traffic generation draws and emits exactly what it always did.

Two pins on the generator behind every soak epoch:

* the deferred measurement path (``MeasurementModel.draw_read`` at each
  pose, one ``resolve`` per relay after the flight) equals the per-read
  ``measure`` loop: the same measurement bits, the same final generator
  state and the same fault-engine injections, under the ``calm`` and
  ``stormy`` soak fault plans;
* the traffic of ``SoakConfig()`` epochs 0-2 hashes to the SHA-256
  digests recorded before the per-pose work was batched (x86-64 Linux,
  NumPy 2.4). The digest covers every event bit, the grids, the tag
  positions, the duration and the list of fault injections.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro import faults
from repro.fleet.plan import realize_fleet
from repro.fleet.workload import _relay_model
from repro.mobility.groundtruth import OptiTrack
from repro.scenarios import registry
from repro.scenarios.compiler import (
    build_measurement_model,
    generate_workload,
    realize_world,
)
from repro.scenarios.spec import Scenario
from repro.soak import SoakConfig, fault_plan_for
from repro.soak.driver import build_epoch_tasks

#: ``SoakConfig()`` epochs 0, 1 and 2, recorded before the rework.
EPOCH_DIGESTS = (
    "e676a5a259b91e88fffda7f90ba62e701e794b177b051b00ac7cc0d6026839c6",
    "060f93f441358380d2384144ca0a94e8781ebb873d7b87587a2bbef2243c5969",
    "525ebe2ad790fc63d1246f8a63ee0ac14c2ff8535aaac538e8ceda94069ee936",
)


def traffic_digest(workload, injections) -> str:
    """SHA-256 over every bit of a generated stream and its injections."""
    digest = hashlib.sha256()
    for event in workload.events:
        m = event.measurement
        digest.update(event.session_id.encode() + b"\0" + m.relay.encode() + b"\0")
        digest.update(np.asarray(m.position, dtype=float).tobytes())
        digest.update(
            struct.pack(
                "<7d",
                event.time_s,
                m.h_target.real,
                m.h_target.imag,
                m.h_reference.real,
                m.h_reference.imag,
                m.snr_db,
                m.time,
            )
        )
    for session_id in sorted(workload.grids):
        grid = workload.grids[session_id]
        digest.update(session_id.encode() + b"\0")
        digest.update(
            struct.pack(
                "<5d", grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.resolution
            )
        )
        digest.update(np.asarray(workload.tag_positions[session_id], dtype=float).tobytes())
    digest.update(struct.pack("<d", workload.duration_s))
    digest.update(repr(list(injections)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("epoch", range(len(EPOCH_DIGESTS)))
def test_soak_epoch_traffic_matches_the_recorded_digest(epoch):
    params = build_epoch_tasks(SoakConfig())[epoch].kwargs()
    spec = Scenario.from_json(params["scenario_json"])
    plan = faults.FaultPlan.from_json(params["fault_plan_json"])
    with faults.engaged(plan, seed=params["seed"]) as engine:
        workload = generate_workload(
            spec,
            n_tags=params["n_tags"],
            seed=params["seed"],
            load=params["load"],
            grid_resolution=params["grid_resolution"],
            tracker=OptiTrack(),
        )
    assert traffic_digest(workload, engine.injections) == EPOCH_DIGESTS[epoch]


def _bits(m) -> tuple:
    return (
        struct.pack(
            "<4d", m.h_target.real, m.h_target.imag, m.h_reference.real, m.h_reference.imag
        ),
        np.asarray(m.position, dtype=float).tobytes(),
        m.snr_db,
        m.time,
        m.relay,
    )


def _flights(name: str):
    """``(model, poses, tag positions, powering range)`` per relay of a world."""
    spec = registry.resolve(name)
    world = realize_world(spec, np.random.default_rng(4))
    reach = spec.traffic.powering_range_m
    if spec.fleet is None:
        model = build_measurement_model(spec, world.environment, world.reader_position_m)
        poses = world.trajectory.sample_every(spec.trajectory.spacing_m)
        return [(model, poses, world.tag_positions_m, reach, "")]
    plan = realize_fleet(spec, world, 4)
    return [
        (
            _relay_model(spec, world.environment, world.reader_position_m, relay),
            relay.trajectory.sample_every(spec.trajectory.spacing_m),
            world.tag_positions_m,
            reach,
            relay.name,
        )
        for relay in plan.relays
    ]


def _reads(poses, tags, reach):
    """Per pose, the tags in range, each with its own SNR."""
    for pose in poses:
        in_range = [
            tag for tag in tags if float(np.linalg.norm(tag - pose.position)) <= reach
        ]
        yield pose, [(tag, 25.0 - 0.7 * k) for k, tag in enumerate(in_range)]


def _per_read(flights, rng):
    out = []
    for model, poses, tags, reach, relay in flights:
        for pose, reads in _reads(poses, tags, reach):
            for tag, snr in reads:
                m = model.measure(pose.position, tag, rng, snr, pose.time)
                out.append(_bits(m)[:-1] + (relay,))
    return out


def _deferred(flights, rng):
    out = []
    for model, poses, tags, reach, relay in flights:
        pending = [
            model.draw_read(pose.position, tag, rng, snr, pose.time, relay)
            for pose, reads in _reads(poses, tags, reach)
            for tag, snr in reads
        ]
        out.extend(_bits(m) for m in model.resolve(pending))
    return out


@pytest.mark.parametrize("profile", ["calm", "stormy"])
@pytest.mark.parametrize(
    "world", ["warehouse_twin_aisle", "paper_warehouse_two_floor"]
)
def test_deferred_reads_equal_the_per_read_loop(world, profile):
    flights = _flights(world)
    outcomes = []
    for measure in (_per_read, _deferred):
        rng = np.random.default_rng(11)
        with faults.engaged(fault_plan_for(profile), seed=9) as engine:
            measured = measure(flights, rng)
        outcomes.append((measured, rng.bit_generator.state, list(engine.injections)))
    (want, want_state, want_injected), (got, got_state, got_injected) = outcomes
    assert got == want
    assert got_state == want_state
    assert got_injected == want_injected
    # The plan dropped some half-links and the flights read many tags.
    assert len(want) > 50
    assert any(site == "channel.link" for site, *_ in want_injected)


def test_resolve_of_nothing_is_empty():
    model, *_ = _flights("warehouse_twin_aisle")[0]
    assert model.resolve([]) == []
