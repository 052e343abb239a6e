"""Channel-kernel microbench: one batched call vs the per-pair scalar loop.

Times the frozen per-pair tracer (``tests/channel/scalar_oracle.py``,
the implementation the kernel replaced) against the batched kernel on
two wall sets — the realized ``paper_warehouse_two_floor`` world (seven
building walls plus three clutter slabs, single bounces, as in the
Fig. 12 trials) and free space (the fleet/soak read path) — at
``P = 1`` (one ``Environment.channel`` call) and ``P = 80`` (one
flight's worth of drone poses through ``Environment.channels``).

Claims, recorded in ``benchmarks/reports/BENCH_channel.json``:

* the kernel's channels are bitwise-equal to the oracle's;
* ``P = 80`` is at least 10x faster than the per-pair loop;
* ``P = 1`` is no slower than the scalar path.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Dict

import numpy as np
import pytest

from repro.channel import Environment
from repro.constants import UHF_CENTER_FREQUENCY
from repro.scenarios import registry
from repro.scenarios.compiler import realize_world

from tests.channel import scalar_oracle as oracle

pytestmark = [pytest.mark.bench, pytest.mark.slow]

#: Acceptance floor for one flight's poses in one call.
MIN_FLIGHT_SPEEDUP = 10.0
#: A single-pair query must not lose to the scalar path.
MIN_SINGLE_SPEEDUP = 1.0
POSES = 80
#: Best-of repetitions (the first warms caches).
REPS = 7
WORLD_SEED = 3

F = UHF_CENTER_FREQUENCY


def _best_us(fn: Callable[[], object], number: int) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def _bits(values) -> bytes:
    return b"".join(struct.pack("<dd", h.real, h.imag) for h in values)


def _case(env: Environment, drone: np.ndarray, tag: np.ndarray) -> Dict[str, float]:
    walls, order = env.walls, env.max_reflections
    one = (drone[0], tag)

    def per_pair_flight():
        return [oracle.channel(p, tag, walls, order, F) for p in drone]

    expected = per_pair_flight()
    got = env.channels(drone, tag, F).tolist()
    assert _bits(got) == _bits(expected)
    assert _bits([env.channel(*one, F)]) == _bits([oracle.channel(*one, walls, order, F)])

    single_number = 200 if walls else 2000
    out = {
        "p1_oracle_us": _best_us(lambda: oracle.channel(*one, walls, order, F), single_number),
        "p1_kernel_us": _best_us(lambda: env.channel(*one, F), single_number),
        "p80_oracle_us": _best_us(per_pair_flight, 2 if walls else 20),
        "p80_kernel_us": _best_us(lambda: env.channels(drone, tag, F), 50),
    }
    out["p1_speedup_ratio"] = out["p1_oracle_us"] / out["p1_kernel_us"]
    out["p80_speedup_ratio"] = out["p80_oracle_us"] / out["p80_kernel_us"]
    return out


@pytest.fixture(scope="module")
def channel_record():
    world = realize_world(
        registry.resolve("paper_warehouse_two_floor"), np.random.default_rng(WORLD_SEED)
    )
    drone = np.array([s.position for s in world.trajectory.sample(POSES)])
    tag = world.tag_positions_m[0]
    return {
        "warehouse": _case(world.environment, drone, tag),
        "free_space": _case(Environment.free_space(), drone, tag),
        "walls": len(world.environment.walls),
    }


@pytest.mark.parametrize("world", ["warehouse", "free_space"])
def test_flight_batch_is_10x_faster(channel_record, world):
    record = channel_record[world]
    assert record["p80_speedup_ratio"] >= MIN_FLIGHT_SPEEDUP, record


@pytest.mark.parametrize("world", ["warehouse", "free_space"])
def test_single_pair_is_no_slower(channel_record, world):
    record = channel_record[world]
    assert record["p1_speedup_ratio"] >= MIN_SINGLE_SPEEDUP, record


def test_write_report(channel_record, save_bench_json):
    save_bench_json(
        "channel",
        {"warehouse": channel_record["warehouse"], "free_space": channel_record["free_space"]},
        context={
            "min_flight_speedup": MIN_FLIGHT_SPEEDUP,
            "min_single_speedup": MIN_SINGLE_SPEEDUP,
            "poses": POSES,
            "scenario": "paper_warehouse_two_floor",
            "warehouse_walls": channel_record["walls"],
            "world_seed": WORLD_SEED,
        },
    )
