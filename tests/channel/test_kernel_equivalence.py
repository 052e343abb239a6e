"""The batched channel kernel is bitwise-equal to the scalar tracer.

``scalar_oracle`` is the frozen per-pair tracer the kernel replaced.
Every comparison here is on bits, not tolerances: ray lengths, gains,
descriptions, and the one-way channel of every endpoint pair, for
reflection orders 0, 1 and 2 and for one pair (``Environment.channel``)
as well as whole batches (``Environment.channels``).
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.channel import Environment, Wall, trace_rays
from repro.channel.environment import STEEL
from repro.errors import GeometryError
from repro.scenarios import registry
from repro.scenarios.compiler import realize_world

from tests.channel import scalar_oracle as oracle

F = 915e6

# Shrinking favours round numbers, whose products are exact and hide
# rounding-order differences; an affine map with awkward constants
# keeps every coordinate inexact.
coord = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False).map(
    lambda x: x * 1.0000000471 + 0.31830988618379067
)
point = st.tuples(coord, coord)
reflectivity = st.one_of(
    st.sampled_from([0.0, 0.2, 0.85, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
loss_db = st.one_of(
    st.sampled_from([0.0, 3.0, 12.0, 35.0]),
    st.floats(min_value=0.0, max_value=60.0),
)


@st.composite
def walls(draw, max_walls: int = 5) -> List[Wall]:
    """Random walls plus the awkward cases: parallel and duplicate walls."""
    out: List[Wall] = []
    for _ in range(draw(st.integers(0, max_walls))):
        start, end = draw(point), draw(point)
        assume(not np.allclose(start, end))
        out.append(
            Wall(
                start,
                end,
                transmission_loss_db=draw(loss_db),
                reflectivity=draw(reflectivity),
                name=draw(st.sampled_from(["", "", "w"])),
            )
        )
    if out and draw(st.booleans()):
        base = draw(st.sampled_from(out))
        kind = draw(st.sampled_from(["same", "equal", "parallel"]))
        if kind == "same":
            twin = base
        elif kind == "equal":
            twin = Wall(base.start, base.end, base.transmission_loss_db,
                        base.reflectivity, base.name)
        else:
            shift = np.asarray(base.normal) * draw(st.floats(0.1, 3.0))
            twin = Wall(tuple(base.p1 + shift), tuple(base.p2 + shift),
                        base.transmission_loss_db, base.reflectivity, base.name)
        out.insert(draw(st.integers(0, len(out))), twin)
    return out


@st.composite
def endpoint(draw, wall_set: List[Wall]):
    """A free point, or one on a wall's (infinite) line."""
    if wall_set and draw(st.booleans()):
        wall = draw(st.sampled_from(wall_set))
        t = draw(st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5]))
        return tuple(wall.p1 + t * (wall.p2 - wall.p1))
    return draw(point)


def bits(value: complex) -> bytes:
    return struct.pack("<dd", value.real, value.imag)


def ray_bits(rays) -> list:
    return [
        (struct.pack("<dd", r.length, r.gain), r.bounces, r.description)
        for r in rays
    ]


@st.composite
def scenes(draw):
    wall_set = draw(walls())
    a = draw(endpoint(wall_set))
    b = draw(endpoint(wall_set))
    assume(not np.allclose(a, b))
    return wall_set, a, b, draw(st.integers(0, 2))


class TestKernelMatchesOracle:
    @settings(max_examples=300)
    @given(scenes())
    def test_rays_and_channel_bitwise(self, scene):
        wall_set, a, b, order = scene
        expected = oracle.trace_rays(a, b, wall_set, order)
        assert ray_bits(trace_rays(a, b, wall_set, order)) == ray_bits(expected)
        env = Environment(wall_set, max_reflections=order)
        assert ray_bits(env.rays_between(a, b)) == ray_bits(expected)
        assert bits(env.channel(a, b, F)) == bits(oracle.one_way_channel(expected, F))

    @settings(max_examples=60)
    @given(walls(), st.integers(0, 2), st.data())
    def test_batch_matches_per_pair_oracle(self, wall_set, order, data):
        n = data.draw(st.integers(1, 12))
        a = [data.draw(endpoint(wall_set)) for _ in range(n)]
        b = [data.draw(endpoint(wall_set)) for _ in range(n)]
        assume(not any(np.allclose(x, y) for x, y in zip(a, b)))
        env = Environment(wall_set, max_reflections=order)
        got = env.channels(np.array(a), np.array(b), F)
        expected = [oracle.channel(x, y, wall_set, order, F) for x, y in zip(a, b)]
        assert [bits(h) for h in got.tolist()] == [bits(h) for h in expected]

    @settings(max_examples=60)
    @given(scenes(), st.data())
    def test_min_gain_boundary(self, scene, data):
        """Gains exactly at, just above and just below ``min_gain``."""
        wall_set, a, b, order = scene
        gains = [r.gain for r in oracle.trace_rays(a, b, wall_set, order, min_gain=0.0)]
        threshold = data.draw(st.sampled_from(gains))
        for min_gain in (threshold, np.nextafter(threshold, 2.0),
                         np.nextafter(threshold, -1.0)):
            expected = oracle.trace_rays(a, b, wall_set, order, min_gain=min_gain)
            got = trace_rays(a, b, wall_set, order, min_gain=min_gain)
            assert ray_bits(got) == ray_bits(expected)

    @settings(max_examples=40)
    @given(walls(), point, st.integers(0, 2))
    def test_coincident_endpoints_raise_in_both(self, wall_set, a, order):
        b = (a[0] + 1e-12, a[1])
        with pytest.raises(GeometryError):
            oracle.trace_rays(a, b, wall_set, order)
        with pytest.raises(GeometryError):
            trace_rays(a, b, wall_set, order)
        env = Environment(wall_set, max_reflections=order)
        with pytest.raises(GeometryError):
            env.channel(a, b, F)
        with pytest.raises(GeometryError):
            env.channels(np.array([(a[0] + 5.0, a[1]), a]), np.array([a, b]), F)

    @settings(max_examples=60)
    @given(scenes())
    def test_line_of_sight_and_loss_match_scalar(self, scene):
        wall_set, a, b, _ = scene
        env = Environment(wall_set)
        crossed = [w for w in wall_set if oracle.segments_cross(a, b, w.p1, w.p2)]
        assert env.has_line_of_sight(a, b) is (not crossed)
        expected = float(sum(w.transmission_loss_db for w in crossed))
        assert struct.pack("<d", env.obstruction_loss_db(a, b)) == struct.pack("<d", expected)


class TestFixedCases:
    @pytest.mark.parametrize("world_seed", [0, 5])
    def test_warehouse_flights_bitwise(self, world_seed):
        """Realistic Fig. 12 worlds, every reflection order, one batch each."""
        world = realize_world(
            registry.resolve("paper_warehouse_two_floor"),
            np.random.default_rng(world_seed),
        )
        drone = np.array([s.position for s in world.trajectory.sample(24)])
        tag = world.tag_positions_m[0]
        for order in (0, 1, 2):
            env = Environment(world.environment.walls, max_reflections=order)
            got = env.channels(drone, tag, F).tolist()
            expected = [oracle.channel(p, tag, env.walls, order, F) for p in drone]
            assert [bits(h) for h in got] == [bits(h) for h in expected]
            got = env.channels(world.reader_position_m, drone, F).tolist()
            expected = [
                oracle.channel(world.reader_position_m, p, env.walls, order, F)
                for p in drone
            ]
            assert [bits(h) for h in got] == [bits(h) for h in expected]

    def test_zero_reflectivity_walls_add_no_bounces(self):
        wall_set = [Wall((0, 2), (10, 2), reflectivity=0.0),
                    Wall((0, -2), (10, -2), reflectivity=0.0)]
        rays = trace_rays((1, 0), (9, 0), wall_set, max_reflections=2)
        assert [r.description for r in rays] == ["direct"]
        assert ray_bits(rays) == ray_bits(oracle.trace_rays((1, 0), (9, 0), wall_set, 2))

    def test_endpoint_on_wall_line(self):
        wall = Wall((0, 0), (10, 0), reflectivity=0.9)
        a, b = (2.0, 0.0), (5.0, 3.0)
        assert ray_bits(trace_rays(a, b, [wall])) == ray_bits(oracle.trace_rays(a, b, [wall]))

    def test_unnamed_walls_label_rays_by_index(self):
        south = Wall((0, -1), (20, -1), reflectivity=0.9)
        north = Wall((0, 1), (20, 1), reflectivity=0.9, name="north")
        rays = trace_rays((1, 0), (9, 0), [south, north], max_reflections=2)
        assert [r.description for r in rays] == [
            "direct", "bounce:0", "bounce:north", "bounce2:0+north", "bounce2:north+0",
        ]
        # Rebuilt walls (new objects) give the same descriptions.
        again = trace_rays((1, 0), (9, 0), [Wall(south.start, south.end, 10.0, 0.9),
                                            north], max_reflections=2)
        assert [r.description for r in again] == [r.description for r in rays]


class TestWallCache:
    def test_add_wall_after_query_changes_next_answer(self):
        env = Environment(max_reflections=1)
        a, b = (1.0, 0.0), (9.0, 0.0)
        free = env.channel(a, b, F)
        env.add_wall((0.0, 2.0), (10.0, 2.0), STEEL, "shelf")
        walled = env.channel(a, b, F)
        assert walled != free
        assert bits(walled) == bits(oracle.channel(a, b, env.walls, 1, F))
        env.add_wall((5.0, -5.0), (5.0, 5.0), STEEL, "cross")
        assert bits(env.channel(a, b, F)) == bits(oracle.channel(a, b, env.walls, 1, F))
        assert not env.has_line_of_sight(a, b)

    def test_direct_wall_list_edits_are_seen(self):
        env = Environment.warehouse_aisle()
        a, b = (1.0, 0.2), (8.0, -0.4)
        env.channel(a, b, F)
        env.walls.pop()
        assert bits(env.channel(a, b, F)) == bits(oracle.channel(a, b, env.walls, 2, F))
