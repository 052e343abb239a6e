"""Gen2 MAC microbench: the frozen inventory loop vs the reworked hot path.

Flies every relay pose of the realized soak scenario
(``warehouse_twin_aisle``, the :class:`~repro.soak.SoakConfig` default)
over its tag population, with the ``calm`` soak fault plan engaged, and
inventories the tags within powering range at each pose, targets A then
B, exactly as :func:`repro.sim.events.inventory_at_pose` does. One side
runs the frozen MAC (``tests/gen2/mac_oracle.py``, the code the hot
path replaced); the other runs ``inventory_at_pose`` itself. Both start
from the same generator state under the same fault seed.

Claims, recorded in ``benchmarks/reports/BENCH_gen2.json``:

* every pose reads the same EPC set on both sides, the tags' shared
  generator ends in the same state, and the fault engine records the
  same injections;
* the reworked flight is at least 3x faster than the frozen loop.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Set, Tuple

import numpy as np
import pytest

from repro import faults
from repro.errors import CRCError
from repro.fleet.plan import realize_fleet
from repro.hardware.tag import PassiveTag
from repro.scenarios import registry
from repro.scenarios.compiler import realize_world
from repro.sim.events import inventory_at_pose
from repro.soak import SoakConfig, fault_plan_for

from tests.gen2 import mac_oracle as oracle

pytestmark = [pytest.mark.bench, pytest.mark.slow]

#: Acceptance floor for one flight's inventories.
MIN_FLIGHT_SPEEDUP = 3.0
#: Best-of repetitions (the first warms caches).
REPS = 5
SEED = 0
FAULT_SEED = 7
FAULT_PROFILE = "calm"
#: ``inventory_at_pose``'s per-target slot budget.
MAX_SLOTS = 512
EPC_BITS = 96


def _flight() -> Tuple[np.ndarray, np.ndarray, np.random.Generator, float]:
    """Tag positions, every relay pose, the post-realization rng, range."""
    spec = registry.resolve(SoakConfig().scenario)
    rng = np.random.default_rng(SEED)
    world = realize_world(spec, rng)
    plan = realize_fleet(spec, world, SEED)
    poses = np.array(
        [
            sample.position
            for relay in plan.relays
            for sample in relay.trajectory.sample_every(spec.trajectory.spacing_m)
        ]
    )
    return np.asarray(world.tag_positions_m), poses, rng, spec.traffic.powering_range_m


def _powered_sets(tags_m: np.ndarray, poses: np.ndarray, range_m: float) -> List[Dict[int, bool]]:
    """Per pose, ``{epc: in range}``: the workload generators' predicate table."""
    return [
        {i + 1: float(np.linalg.norm(tag - pose)) <= range_m for i, tag in enumerate(tags_m)}
        for pose in poses
    ]


def _population(tags_m: np.ndarray, rng: np.random.Generator) -> List[PassiveTag]:
    """The generators' tags: EPCs 1..N sharing one generator (a copy of ``rng``)."""
    shared = np.random.default_rng()
    shared.bit_generator.state = rng.bit_generator.state
    return [
        PassiveTag(epc=i + 1, position=(float(p[0]), float(p[1])), rng=shared)
        for i, p in enumerate(tags_m)
    ]


def _oracle_filter(read: Set[int]) -> Set[int]:
    """``_filter_corrupted_reads`` over the frozen CRC."""
    surviving: Set[int] = set()
    for epc in sorted(read):
        frame = oracle.append_crc16(oracle.bits_from_int(epc, EPC_BITS))
        frame = faults.corrupt_bits("gen2.frame", frame)
        try:
            oracle.check_crc16(frame)
        except CRCError:
            continue
        surviving.add(epc)
    return surviving


def _fly_oracle(tags_m, powered_sets, rng) -> Tuple[List[Set[int]], dict]:
    """``inventory_at_pose`` as it was, over tags running the frozen MAC."""
    tags = _population(tags_m, rng)
    for tag in tags:
        tag.protocol = oracle.Gen2Tag(tag.epc, tag.rng)
    by_protocol = {id(t.protocol): t for t in tags}
    reads = []
    for powered in powered_sets:
        hears = lambda protocol: powered[by_protocol[id(protocol)].epc_int]
        read: Set[int] = set()
        for target in ("A", "B"):
            result = oracle.run_inventory(
                [t.protocol for t in tags],
                tags[0].rng,
                target=target,
                max_slots=MAX_SLOTS,
                hears=hears,
            )
            read.update(result.epcs)
        if faults.watching("gen2.frame"):
            read = _oracle_filter(read)
        reads.append(read)
    return reads, tags[0].rng.bit_generator.state


def _fly_library(tags_m, powered_sets, rng) -> Tuple[List[Set[int]], dict]:
    tags = _population(tags_m, rng)
    reads = [
        inventory_at_pose(tags, lambda t: powered[t.epc_int], tags[0].rng, MAX_SLOTS)
        for powered in powered_sets
    ]
    return reads, tags[0].rng.bit_generator.state


def _engaged(fly: Callable) -> Tuple[List[Set[int]], dict, list, float]:
    with faults.engaged(fault_plan_for(FAULT_PROFILE), seed=FAULT_SEED) as engine:
        start = time.perf_counter()
        reads, state = fly()
        elapsed = time.perf_counter() - start
    return reads, state, list(engine.injections), elapsed


def _race(*flights: Callable) -> List[Tuple[float, Tuple]]:
    """Best-of-``REPS`` ms and last outcome of each flight, runs interleaved."""
    best = [float("inf")] * len(flights)
    outcomes: List[Tuple] = [()] * len(flights)
    for _ in range(REPS):
        for i, fly in enumerate(flights):
            reads, state, injected, elapsed = _engaged(fly)
            best[i] = min(best[i], elapsed)
            outcomes[i] = (reads, state, injected)
    return [(ms * 1e3, outcome) for ms, outcome in zip(best, outcomes)]


@pytest.fixture(scope="module")
def gen2_record() -> Dict[str, object]:
    tags_m, poses, rng, range_m = _flight()
    powered_sets = _powered_sets(tags_m, poses, range_m)
    (oracle_ms, expected), (library_ms, got) = _race(
        lambda: _fly_oracle(tags_m, powered_sets, rng),
        lambda: _fly_library(tags_m, powered_sets, rng),
    )
    return {
        "expected": expected,
        "got": got,
        "metrics": {
            "oracle_flight_ms": oracle_ms,
            "library_flight_ms": library_ms,
            "speedup_ratio": oracle_ms / library_ms,
            "poses": len(poses),
            "tags": len(tags_m),
            "reads": sum(len(r) for r in got[0]),
            "fault_injections": len(got[2]),
        },
    }


def test_reads_and_generators_are_identical(gen2_record):
    expected_reads, expected_state, expected_injected = gen2_record["expected"]
    reads, state, injected = gen2_record["got"]
    assert reads == expected_reads
    assert state == expected_state
    assert injected == expected_injected


def test_flight_is_3x_faster(gen2_record):
    metrics = gen2_record["metrics"]
    assert metrics["speedup_ratio"] >= MIN_FLIGHT_SPEEDUP, metrics


def test_write_report(gen2_record, save_bench_json):
    save_bench_json(
        "gen2",
        gen2_record["metrics"],
        context={
            "fault_profile": FAULT_PROFILE,
            "fault_seed": FAULT_SEED,
            "max_slots": MAX_SLOTS,
            "min_flight_speedup": MIN_FLIGHT_SPEEDUP,
            "scenario": SoakConfig().scenario,
            "seed": SEED,
        },
    )
