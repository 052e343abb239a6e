"""Co-channel penalty: the per-instant form equals the per-tag sum.

:class:`CoChannelPenalty` computes the interferer set and the
reader-sink term once per instant and adds each tag's term on demand.
``_reference_penalty_db`` is the per-tag loop it replaced (both sinks
recomputed for every tag); both must give the same bits.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings, strategies as st

from repro.channel.interference import (
    CoChannelPenalty,
    _received_power_db,
    co_channel,
    co_channel_penalty_db,
)
from repro.dsp.units import db_to_linear, linear_to_db


def _reference_penalty_db(
    serving_index, relay_positions_m, frequencies_hz, gains_db,
    tag_position_m, reader_position_m, guard_hz,
):
    serving_frequency = frequencies_hz[serving_index]
    interferers = [
        j
        for j in range(len(relay_positions_m))
        if j != serving_index
        and co_channel(frequencies_hz[j], serving_frequency, guard_hz)
    ]
    if not interferers:
        return 0.0
    penalty = 0.0
    for sink in (tag_position_m, reader_position_m):
        signal_db = _received_power_db(
            relay_positions_m[serving_index],
            sink,
            gains_db[serving_index],
            serving_frequency,
        )
        interference_linear = 0.0
        for j in interferers:
            interferer_db = _received_power_db(
                relay_positions_m[j], sink, gains_db[j], frequencies_hz[j]
            )
            interference_linear += db_to_linear(interferer_db - signal_db)
        penalty += float(linear_to_db(1.0 + interference_linear))
    return penalty


coordinates = st.floats(-20.0, 20.0, allow_nan=False)
points = st.tuples(coordinates, coordinates)


@settings(max_examples=200, deadline=None)
@given(
    relays=st.lists(
        st.tuples(points, st.sampled_from([915.0e6, 915.1e6, 916.0e6]),
                  st.floats(30.0, 60.0)),
        min_size=1,
        max_size=4,
    ),
    tags=st.lists(points, min_size=1, max_size=5),
    reader=points,
    data=st.data(),
)
def test_per_instant_penalty_equals_the_per_tag_loop(relays, tags, reader, data):
    serving = data.draw(st.integers(0, len(relays) - 1))
    positions = [r[0] for r in relays]
    frequencies = [r[1] for r in relays]
    gains = [r[2] for r in relays]
    guard = 200e3
    penalty = CoChannelPenalty(
        serving, positions, frequencies, gains, reader, guard
    )
    for tag in tags:
        want = _reference_penalty_db(
            serving, positions, frequencies, gains, tag, reader, guard
        )
        for got in (
            penalty.at(tag),
            co_channel_penalty_db(
                serving, positions, frequencies, gains, tag, reader, guard
            ),
        ):
            assert struct.pack("<d", got) == struct.pack("<d", want)


def test_no_co_channel_interferer_is_exactly_zero():
    penalty = CoChannelPenalty(
        0, [(0.0, 0.0), (1.0, 0.0)], [915e6, 917e6], [45.0, 45.0],
        (-8.0, 0.0), 200e3,
    )
    assert struct.pack("<d", penalty.at((0.5, 1.0))) == struct.pack("<d", 0.0)
