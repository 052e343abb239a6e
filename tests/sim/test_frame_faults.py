"""Reads re-validated under ``gen2.frame`` faults use each tag's own EPC.

With a ``gen2.frame`` fault engaged, :func:`inventory_at_pose` replays
every read's {EPC, CRC-16} frame through the corruption hook and the
CRC. The frame is the read tag's own EPC with its CRC appended, so a
128-bit EPC replays as a 144-bit frame whatever its value, and a 96-bit
EPC as the 112-bit frame it always was.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro import faults
from repro.gen2.bitops import bits_from_int
from repro.gen2.crc import append_crc16
from repro.hardware import PassiveTag
from repro.sim.events import inventory_at_pose


def _tags(epcs: List[tuple]) -> List[PassiveTag]:
    rng = np.random.default_rng(3)
    return [
        PassiveTag(epc=epc, position=(float(i), 0.0), rng=rng)
        for i, epc in enumerate(epcs)
    ]


@pytest.fixture
def frames_seen(monkeypatch):
    """Every frame handed to the ``gen2.frame`` corruption hook."""
    seen: List[tuple] = []
    corrupt = faults.corrupt_bits

    def spy(site, bits, *args, **kwargs):
        if site == "gen2.frame":
            seen.append(tuple(bits))
        return corrupt(site, bits, *args, **kwargs)

    monkeypatch.setattr(faults, "corrupt_bits", spy)
    return seen


def _engaged(rate: float):
    plan = faults.FaultPlan.single("gen2.frame", "corrupt_bits", rate=rate)
    return faults.engaged(plan, seed=5)


def test_wide_epc_above_2_to_the_96_is_read(frames_seen):
    wide = bits_from_int(2**100 + 7, 128)
    tags = _tags([wide, bits_from_int(0x55, 96)])
    with _engaged(rate=0.0):
        read = inventory_at_pose(tags, lambda t: True, np.random.default_rng(0))
    assert read == {2**100 + 7, 0x55}
    assert sorted(map(len, frames_seen)) == [112, 144]


def test_wide_epc_below_2_to_the_96_replays_its_own_frame(frames_seen):
    wide = bits_from_int(0x1234, 128)
    tags = _tags([wide])
    with _engaged(rate=0.0):
        read = inventory_at_pose(tags, lambda t: True, np.random.default_rng(0))
    assert read == {0x1234}
    assert frames_seen == [append_crc16(wide)]


def test_96_bit_frames_are_unchanged(frames_seen):
    tags = _tags([bits_from_int(epc, 96) for epc in (3, 1, 2)])
    with _engaged(rate=0.0):
        inventory_at_pose(tags, lambda t: True, np.random.default_rng(0))
    assert frames_seen == [append_crc16(bits_from_int(epc, 96)) for epc in (1, 2, 3)]


def test_corrupted_wide_frames_are_rejected_and_counted():
    tags = _tags([bits_from_int(2**100 + 7, 128), bits_from_int(9, 128)])
    with _engaged(rate=1.0) as engine:
        read = inventory_at_pose(tags, lambda t: True, np.random.default_rng(0))
    assert read == set()
    assert [i.site for i in engine.injections] == ["gen2.frame"] * 2
