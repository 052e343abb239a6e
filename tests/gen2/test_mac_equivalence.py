"""The reworked Gen2 hot path is exactly the frozen MAC.

``mac_oracle`` is the bit helper, CRC and inventory code the hot path
replaced. Every comparison here is exact: the :class:`InventoryRound`
(EPCs, every slot record, commands sent, final Q), every tag's state
machine after the run, and the final state of every random generator,
which pins the RNG draw order. Populations share one generator (as the
workload generators do) or carry one each.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import CRCError
from repro.gen2 import Gen2Tag, run_inventory
from repro.gen2.bitops import bits_from_int
from repro.gen2.crc import check_crc16, crc5, crc16

from tests.gen2 import mac_oracle as oracle

EPC_WIDTHS = (16, 32, 96)


def _population(cls, epcs: List[int], width: int, shared: bool, seed: int):
    if shared:
        rng = np.random.default_rng(seed)
        rngs = [rng] * len(epcs)
    else:
        rngs = [np.random.default_rng(seed + i) for i in range(len(epcs))]
    return [cls(bits_from_int(epc, width), r) for epc, r in zip(epcs, rngs)], rngs


def _mask(tags, flags: Optional[List[bool]]):
    if flags is None:
        return None
    index = {id(tag): i for i, tag in enumerate(tags)}
    return lambda tag: flags[index[id(tag)]]


def _round(result):
    return (
        list(result.epcs),
        [(s.outcome.value, s.epc, s.responders) for s in result.slots],
        result.commands_sent,
        result.final_q,
    )


def _tag_state(tag):
    return (
        tag.state.value,
        tag.slot,
        tag.rn16,
        tag.selected,
        dict(tag.inventoried),
        tag._session,
        tag._q,
    )


@st.composite
def scenarios(draw):
    width = draw(st.sampled_from(EPC_WIDTHS))
    n = draw(st.integers(0, 40))
    epcs = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n, unique=True)
    )
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    calls = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "target": st.sampled_from(["A", "B"]),
                    "initial_q": st.integers(0, 15),
                    "use_query_adjust": st.booleans(),
                    "max_slots": st.one_of(st.integers(1, 64), st.just(512)),
                    "hears": st.one_of(st.none(), flags),
                    "decodes": st.one_of(st.none(), flags),
                }
            ),
            min_size=1,
            max_size=3,
        )
    )
    return {
        "width": width,
        "epcs": epcs,
        "shared": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "calls": calls,
    }


# An example is up to three whole inventory runs on both sides, so
# shrinking a failure takes minutes; it is reported as generated.
@settings(
    max_examples=150,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(scenarios())
def test_run_inventory_matches_the_frozen_mac(case):
    args = (case["epcs"], case["width"], case["shared"], case["seed"])
    new_tags, new_rngs = _population(Gen2Tag, *args)
    old_tags, old_rngs = _population(oracle.Gen2Tag, *args)
    for call in case["calls"]:
        options = dict(call)
        hears, decodes = options.pop("hears"), options.pop("decodes")
        got = run_inventory(
            new_tags,
            np.random.default_rng(0),
            hears=_mask(new_tags, hears),
            decodes=_mask(new_tags, decodes),
            **options,
        )
        expected = oracle.run_inventory(
            old_tags,
            np.random.default_rng(0),
            hears=_mask(old_tags, hears),
            decodes=_mask(old_tags, decodes),
            **options,
        )
        assert _round(got) == _round(expected)
        assert [_tag_state(t) for t in new_tags] == [_tag_state(t) for t in old_tags]
        assert [t.epc_int for t in new_tags] == [t.epc_int for t in old_tags]
        assert [r.bit_generator.state for r in new_rngs] == [
            r.bit_generator.state for r in old_rngs
        ]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
))
def test_crcs_match_the_frozen_bit_serial_loops(bits):
    assert crc16(bits) == oracle.crc16(bits)
    assert crc5(bits) == oracle.crc5(bits)
    frame = oracle.append_crc16(bits)
    assert check_crc16(frame) == oracle.check_crc16(frame) == bits
    flipped = list(frame)
    flipped[len(bits) // 2] ^= 1
    for check in (check_crc16, oracle.check_crc16):
        with pytest.raises(CRCError):
            check(tuple(flipped))


def test_crc16_matches_the_frozen_loop_at_every_length_to_300():
    rng = np.random.default_rng(13)
    for n in range(301):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        assert crc16(bits) == oracle.crc16(bits), n
        assert crc5(bits) == oracle.crc5(bits), n
