"""Tests for the tag inventory state machine."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.gen2 import Ack, Gen2Tag, Nak, Query, QueryAdjust, QueryRep, Select, TagState
from repro.gen2.bitops import bits_from_int
from repro.gen2.crc import append_crc16, check_crc16
from repro.gen2.tag_state import EpcReply, Rn16Reply


def make_tag(epc_value=0xABCDEF, seed=0):
    return Gen2Tag(bits_from_int(epc_value, 96), np.random.default_rng(seed))


class TestBasics:
    def test_epc_must_be_word_aligned(self):
        with pytest.raises(ProtocolError):
            Gen2Tag((1, 0, 1), np.random.default_rng(0))

    def test_pc_encodes_epc_length(self):
        tag = make_tag()
        assert tag.pc >> 11 == 6  # 96 bits = 6 words

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError):
            make_tag().handle("bogus")


class TestQueryAndSlots:
    def test_q0_replies_immediately(self):
        tag = make_tag()
        reply = tag.handle(Query(q=0))
        assert isinstance(reply, Rn16Reply)
        assert tag.state == TagState.REPLY

    def test_nonzero_slot_arbitrates(self):
        # Find a seed where the first draw is nonzero.
        tag = make_tag(seed=1)
        reply = tag.handle(Query(q=8))
        if reply is None:
            assert tag.state == TagState.ARBITRATE
            assert tag.slot > 0
        else:
            assert tag.state == TagState.REPLY

    def test_queryrep_counts_down_to_reply(self):
        tag = make_tag(seed=3)
        reply = tag.handle(Query(q=4))
        hops = 0
        while reply is None and hops < 100:
            reply = tag.handle(QueryRep())
            hops += 1
        assert isinstance(reply, Rn16Reply)
        assert hops == pytest.approx(tag.slot + hops)  # slot reached zero

    def test_wrong_session_queryrep_ignored(self):
        tag = make_tag(seed=3)
        tag.handle(Query(q=4, session="S1"))
        slot_before = tag.slot
        tag.handle(QueryRep(session="S2"))
        assert tag.slot == slot_before

    def test_nonmatching_target_stays_ready(self):
        tag = make_tag()
        tag.inventoried["S0"] = "B"
        assert tag.handle(Query(q=0, target="A")) is None
        assert tag.state == TagState.READY


class TestAckHandshake:
    def test_full_handshake_returns_epc(self):
        tag = make_tag(epc_value=0x123456789)
        rn16 = tag.handle(Query(q=0))
        epc_reply = tag.handle(Ack(rn16=rn16.rn16))
        assert isinstance(epc_reply, EpcReply)
        payload = check_crc16(epc_reply.bits)
        assert payload[16:] == tag.epc
        assert tag.state == TagState.ACKNOWLEDGED

    def test_reply_frame_is_built_once_and_reused(self):
        tag = make_tag(epc_value=0x123456789)
        rn16 = tag.handle(Query(q=0))
        first = tag.handle(Ack(rn16=rn16.rn16))
        again = tag.handle(Ack(rn16=rn16.rn16))  # re-ACK re-sends the EPC
        assert again is first
        assert first.bits is first.bits
        assert first.bits == append_crc16(bits_from_int(tag.pc, 16) + tag.epc)

    def test_wrong_rn16_returns_to_arbitrate(self):
        tag = make_tag()
        rn16 = tag.handle(Query(q=0))
        assert tag.handle(Ack(rn16=rn16.rn16 ^ 0x1)) is None
        assert tag.state == TagState.ARBITRATE

    def test_ack_in_ready_ignored(self):
        tag = make_tag()
        assert tag.handle(Ack(rn16=0)) is None
        assert tag.state == TagState.READY

    def test_acknowledged_tag_toggles_flag_on_next_round(self):
        tag = make_tag()
        rn16 = tag.handle(Query(q=0))
        tag.handle(Ack(rn16=rn16.rn16))
        assert tag.inventoried["S0"] == "A"
        tag.handle(QueryRep())  # end of participation
        assert tag.inventoried["S0"] == "B"
        # It no longer matches target A queries.
        assert tag.handle(Query(q=0, target="A")) is None

    def test_acknowledged_tag_toggles_on_new_query(self):
        tag = make_tag()
        rn16 = tag.handle(Query(q=0))
        tag.handle(Ack(rn16=rn16.rn16))
        tag.handle(Query(q=0))  # new round: toggle then evaluate
        assert tag.inventoried["S0"] == "B"


class TestNakAndAdjust:
    def test_nak_returns_to_arbitrate(self):
        tag = make_tag()
        tag.handle(Query(q=0))
        tag.handle(Nak())
        assert tag.state == TagState.ARBITRATE

    def test_nak_in_ready_is_noop(self):
        tag = make_tag()
        tag.handle(Nak())
        assert tag.state == TagState.READY

    def test_query_adjust_redraws(self):
        tag = make_tag(seed=5)
        tag.handle(Query(q=4))
        before_q = tag._q
        tag.handle(QueryAdjust(updn=1))
        assert tag._q == before_q + 1
        assert tag.state in (TagState.ARBITRATE, TagState.REPLY)

    def test_query_adjust_clamps_q(self):
        tag = make_tag()
        tag.handle(Query(q=15))
        tag.handle(QueryAdjust(updn=1))
        assert tag._q == 15

    def test_query_adjust_ignored_in_ready(self):
        tag = make_tag()
        assert tag.handle(QueryAdjust(updn=1)) is None
        assert tag.state == TagState.READY


class TestSelect:
    def test_select_asserts_sl_on_match(self):
        tag = make_tag(epc_value=0xFF << 88)  # EPC starts with 0xFF
        mask = bits_from_int(0xFF, 8)
        tag.handle(Select(target="SL", action=0, membank="EPC", pointer=0x20, mask=mask))
        assert tag.selected

    def test_select_deasserts_on_mismatch(self):
        tag = make_tag(epc_value=0)
        tag.selected = True
        mask = bits_from_int(0xFF, 8)
        tag.handle(Select(target="SL", action=0, membank="EPC", pointer=0x20, mask=mask))
        assert not tag.selected

    def test_select_session_flag(self):
        tag = make_tag(epc_value=0xAB << 88)
        mask = bits_from_int(0xAB, 8)
        tag.handle(Select(target="S2", action=4, membank="EPC", pointer=0x20, mask=mask))
        # Action 4: non-matching assert; matching deassert -> B.
        assert tag.inventoried["S2"] == "B"

    def test_selected_tag_excluded_by_sel2(self):
        tag = make_tag()
        tag.selected = True
        assert tag.handle(Query(q=0, sel=2)) is None

    def test_unselected_tag_excluded_by_sel3(self):
        tag = make_tag()
        assert tag.handle(Query(q=0, sel=3)) is None

    def test_select_outside_epc_never_matches(self):
        tag = make_tag()
        mask = bits_from_int(0, 8)
        tag.handle(
            Select(target="SL", action=0, membank="EPC", pointer=0xF0, mask=mask)
        )
        assert not tag.selected


class TestPowerReset:
    def test_reset_clears_round_state(self):
        tag = make_tag()
        rn16 = tag.handle(Query(q=0))
        tag.handle(Ack(rn16=rn16.rn16))
        tag.handle(QueryRep())  # toggles S0 to B
        tag.power_reset()
        assert tag.state == TagState.READY
        assert tag.inventoried["S0"] == "A"
