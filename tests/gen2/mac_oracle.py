"""Frozen Gen2 MAC: the test-only oracle for the inventory hot path.

A verbatim copy of the bit helpers, CRC-5/CRC-16, tag state machine and
reader inventory loop that :mod:`repro.gen2` used before the hot path
was reworked: the bit-serial CRC, the EPC integer rebuilt on every
access, a fresh ``EpcReply`` per ACK, and ``hears`` consulted for every
tag on every command. The library must reproduce :func:`run_inventory`
over :class:`Gen2Tag` **exactly** — same slots, same EPCs, same tag
states, same RNG draws — and :func:`crc16`/:func:`crc5` bit for bit.
Only the reader command frames (:mod:`repro.gen2.commands`) and the
error types are shared with the library; they are the inputs both
sides consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CRCError, EncodingError, ProtocolError
from repro.gen2.commands import Ack, Nak, Query, QueryAdjust, QueryRep, Select

Bits = Tuple[int, ...]


def validate_bits(bits: Iterable[int]) -> Bits:
    """Return ``bits`` as a tuple, checking every element is 0 or 1."""
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise EncodingError(f"bit vector contains non-binary values: {out[:16]}...")
    return out


def bits_from_int(value: int, width: int) -> Bits:
    """Big-endian bit expansion of ``value`` into exactly ``width`` bits."""
    if width < 0:
        raise EncodingError(f"width must be >= 0, got {width}")
    if value < 0 or value >= (1 << width):
        raise EncodingError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    """Big-endian interpretation of a bit vector as an unsigned integer."""
    value = 0
    for b in validate_bits(bits):
        value = (value << 1) | b
    return value


CRC5_POLY = 0b01001  # x^5 + x^3 + 1, with the x^5 term implicit
CRC5_PRESET = 0b01001
CRC16_POLY = 0x1021  # CCITT
CRC16_PRESET = 0xFFFF


def crc5(bits: Sequence[int]) -> Bits:
    """CRC-5 of a bit sequence, as 5 bits MSB-first."""
    register = CRC5_PRESET
    for bit in validate_bits(bits):
        msb = (register >> 4) & 1
        register = ((register << 1) & 0x1F) | 0
        if msb ^ bit:
            register ^= CRC5_POLY
    return bits_from_int(register, 5)


def crc16(bits: Sequence[int]) -> Bits:
    """CRC-16 of a bit sequence, ones-complemented, as 16 bits MSB-first."""
    register = CRC16_PRESET
    for bit in validate_bits(bits):
        msb = (register >> 15) & 1
        register = (register << 1) & 0xFFFF
        if msb ^ bit:
            register ^= CRC16_POLY
    return bits_from_int(register ^ 0xFFFF, 16)


def append_crc16(bits: Sequence[int]) -> Bits:
    """Return ``bits`` with its CRC-16 appended (how tags build replies)."""
    payload = validate_bits(bits)
    return payload + crc16(payload)


def check_crc16(bits_with_crc: Sequence[int]) -> Bits:
    """Validate a CRC-16-protected frame and return the payload bits.

    Raises
    ------
    CRCError
        If the frame is shorter than a CRC or the check fails.
    """
    frame = validate_bits(bits_with_crc)
    if len(frame) < 16:
        raise CRCError(f"frame of {len(frame)} bits is shorter than a CRC-16")
    payload, received = frame[:-16], frame[-16:]
    if crc16(payload) != received:
        raise CRCError("CRC-16 check failed")
    return payload


class TagState(enum.Enum):
    """Inventory states of the Gen2 tag FSM (the subset inventory uses)."""

    READY = "ready"
    ARBITRATE = "arbitrate"
    REPLY = "reply"
    ACKNOWLEDGED = "acknowledged"


@dataclass(frozen=True)
class Rn16Reply:
    """A tag's 16-bit random handle, backscattered in its slot."""

    rn16: int

    @property
    def bits(self) -> Bits:
        """The reply payload as bits, MSB first."""
        return bits_from_int(self.rn16, 16)


@dataclass(frozen=True)
class EpcReply:
    """A tag's {PC, EPC, CRC-16} reply to a valid ACK."""

    pc: int
    epc: Bits

    @property
    def bits(self) -> Bits:
        """The reply payload as bits, MSB first."""
        return append_crc16(bits_from_int(self.pc, 16) + self.epc)


class Gen2Tag:
    """One tag's protocol engine.

    Parameters
    ----------
    epc:
        The tag's EPC as a bit tuple (96 bits for the Alien Squiggle
        class of tags used in the paper).
    rng:
        Randomness source for slot draws and RN16 generation.
    """

    def __init__(self, epc: Sequence[int], rng: np.random.Generator) -> None:
        self.epc: Bits = validate_bits(epc)
        if len(self.epc) % 16 != 0:
            raise ProtocolError(
                f"EPC length must be a multiple of 16 bits, got {len(self.epc)}"
            )
        self.rng = rng
        # PC word: EPC length in words, in the top 5 bits.
        self.pc = (len(self.epc) // 16) << 11
        self.state = TagState.READY
        self.slot = 0
        self.rn16 = 0
        self.selected = False  # SL flag
        self.inventoried: Dict[str, str] = {s: "A" for s in ("S0", "S1", "S2", "S3")}
        self._session = "S0"
        self._q = 0

    # -- helpers -----------------------------------------------------------

    def _matches_select(self, command: Select) -> bool:
        if command.membank != "EPC":
            return False
        start = command.pointer - 0x20  # EPC memory starts after CRC+PC
        if start < 0 or start + len(command.mask) > len(self.epc):
            return False
        return self.epc[start : start + len(command.mask)] == command.mask

    def _matches_query_criteria(self, query: Query) -> bool:
        if query.sel == 2 and self.selected:
            return False
        if query.sel == 3 and not self.selected:
            return False
        return self.inventoried[query.session] == query.target

    def _draw_slot(self) -> Optional[Rn16Reply]:
        self.slot = int(self.rng.integers(0, 1 << self._q)) if self._q else 0
        if self.slot == 0:
            self.rn16 = int(self.rng.integers(0, 1 << 16))
            self.state = TagState.REPLY
            return Rn16Reply(self.rn16)
        self.state = TagState.ARBITRATE
        return None

    # -- the FSM ---------------------------------------------------------------

    def handle(self, command) -> Optional[object]:
        """Process a reader command; return a reply or None.

        The return value is :class:`Rn16Reply`, :class:`EpcReply`, or
        ``None`` when the tag stays silent.
        """
        if isinstance(command, Select):
            return self._handle_select(command)
        if isinstance(command, Query):
            return self._handle_query(command)
        if isinstance(command, QueryRep):
            return self._handle_query_rep(command)
        if isinstance(command, QueryAdjust):
            return self._handle_query_adjust(command)
        if isinstance(command, Ack):
            return self._handle_ack(command)
        if isinstance(command, Nak):
            return self._handle_nak()
        raise ProtocolError(f"tag cannot handle {type(command).__name__}")

    def _handle_select(self, command: Select) -> None:
        matched = self._matches_select(command)
        # Action table (Gen2 Table 6.29), applied to SL or inventoried:
        #   action 0: assert/deassert   4: deassert/assert
        #   action 1: assert/nothing    5: deassert/nothing
        #   action 2: nothing/deassert  6: nothing/assert
        #   action 3: toggle/nothing    7: nothing/toggle
        assert_actions = {0: matched, 1: matched, 4: not matched, 6: not matched}
        deassert_actions = {0: not matched, 2: not matched, 4: matched, 5: matched}
        toggle_actions = {3: matched, 7: not matched}
        if command.target == "SL":
            if assert_actions.get(command.action, False):
                self.selected = True
            elif deassert_actions.get(command.action, False):
                self.selected = False
            elif toggle_actions.get(command.action, False):
                self.selected = not self.selected
        else:
            flags = self.inventoried
            if assert_actions.get(command.action, False):
                flags[command.target] = "A"
            elif deassert_actions.get(command.action, False):
                flags[command.target] = "B"
            elif toggle_actions.get(command.action, False):
                flags[command.target] = (
                    "B" if flags[command.target] == "A" else "A"
                )
        self.state = TagState.READY
        return None

    def _handle_query(self, query: Query) -> Optional[Rn16Reply]:
        # A new round: an acknowledged tag first toggles its flag.
        if self.state == TagState.ACKNOWLEDGED:
            self._toggle_inventoried()
        self._session = query.session
        self._q = query.q
        if not self._matches_query_criteria(query):
            self.state = TagState.READY
            return None
        return self._draw_slot()

    def _handle_query_rep(self, command: QueryRep) -> Optional[Rn16Reply]:
        if command.session != self._session:
            return None
        if self.state == TagState.ACKNOWLEDGED:
            self._toggle_inventoried()
            self.state = TagState.READY
            return None
        if self.state != TagState.ARBITRATE:
            if self.state == TagState.REPLY:
                # Our RN16 went unacknowledged: return to arbitration.
                self.state = TagState.ARBITRATE
                self.slot = 1 << 15  # effectively out of this round
            return None
        self.slot -= 1
        if self.slot == 0:
            self.rn16 = int(self.rng.integers(0, 1 << 16))
            self.state = TagState.REPLY
            return Rn16Reply(self.rn16)
        return None

    def _handle_query_adjust(self, command: QueryAdjust) -> Optional[Rn16Reply]:
        if command.session != self._session:
            return None
        if self.state == TagState.ACKNOWLEDGED:
            self._toggle_inventoried()
            self.state = TagState.READY
            return None
        if self.state not in (TagState.ARBITRATE, TagState.REPLY):
            return None
        self._q = int(np.clip(self._q + command.updn, 0, 15))
        return self._draw_slot()

    def _handle_ack(self, command: Ack) -> Optional[EpcReply]:
        if self.state == TagState.REPLY and command.rn16 == self.rn16:
            self.state = TagState.ACKNOWLEDGED
            return EpcReply(self.pc, self.epc)
        if self.state in (TagState.REPLY, TagState.ACKNOWLEDGED):
            # Wrong RN16: back to arbitration per the spec.
            if command.rn16 != self.rn16:
                self.state = TagState.ARBITRATE
                self.slot = 1 << 15
                return None
            # Re-ACK of an acknowledged tag re-sends the EPC.
            return EpcReply(self.pc, self.epc)
        return None

    def _handle_nak(self) -> None:
        if self.state != TagState.READY:
            self.state = TagState.ARBITRATE
            self.slot = 1 << 15
        return None

    def _toggle_inventoried(self) -> None:
        flag = self.inventoried[self._session]
        self.inventoried[self._session] = "B" if flag == "A" else "A"

    # -- introspection -------------------------------------------------------

    @property
    def epc_int(self) -> int:
        """The EPC as an integer (convenient dictionary key)."""
        return bits_to_int(self.epc)

    def power_reset(self) -> None:
        """Model a loss of power: volatile inventory state resets.

        Session S0 inventoried flags are volatile and reset to A; SL and
        S2/S3 flags have persistence times we conservatively keep.
        """
        self.state = TagState.READY
        self.slot = 0
        self.rn16 = 0
        self.inventoried["S0"] = "A"


class SlotOutcome(enum.Enum):
    """What the reader observed in one slot."""

    IDLE = "idle"
    SUCCESS = "success"
    COLLISION = "collision"
    DECODE_ERROR = "decode_error"


class QAlgorithm:
    """The Gen2 Annex-D adaptive Q algorithm.

    Maintains a floating-point ``Qfp``; collisions push it up by C,
    idle slots pull it down by C, successes leave it unchanged. The
    integer Q is the round of Qfp, and a change of integer Q triggers a
    QueryAdjust.
    """

    def __init__(self, initial_q: int = 4, c: float = 0.3) -> None:
        if not 0 <= initial_q <= 15:
            raise ProtocolError(f"initial Q must be 0-15, got {initial_q}")
        if not 0.1 <= c <= 0.5:
            raise ProtocolError(f"C must be within [0.1, 0.5], got {c}")
        self.qfp = float(initial_q)
        self.c = float(c)

    @property
    def q(self) -> int:
        """Current integer slot-count exponent."""
        return int(round(self.qfp))

    def update(self, outcome: SlotOutcome) -> int:
        """Fold in a slot outcome; return the UpDn adjustment (-1/0/+1)."""
        before = self.q
        if outcome == SlotOutcome.COLLISION:
            self.qfp = min(15.0, self.qfp + self.c)
        elif outcome == SlotOutcome.IDLE:
            self.qfp = max(0.0, self.qfp - self.c)
        after = self.q
        return int(np.sign(after - before))


@dataclass
class SlotRecord:
    """One slot of an inventory round, as the reader saw it."""

    outcome: SlotOutcome
    epc: Optional[int] = None
    responders: int = 0


@dataclass
class InventoryRound:
    """The full outcome of one or more rounds over a tag population."""

    epcs: List[int] = field(default_factory=list)
    slots: List[SlotRecord] = field(default_factory=list)
    commands_sent: int = 0
    final_q: int = 0

    @property
    def successes(self) -> int:
        """Number of successful (singulation) slots."""
        return sum(1 for s in self.slots if s.outcome == SlotOutcome.SUCCESS)

    @property
    def collisions(self) -> int:
        """Number of collision slots."""
        return sum(1 for s in self.slots if s.outcome == SlotOutcome.COLLISION)

    @property
    def idles(self) -> int:
        """Number of idle slots."""
        return sum(1 for s in self.slots if s.outcome == SlotOutcome.IDLE)


def _broadcast(
    tags: Sequence[Gen2Tag],
    command,
    hears: Callable[[Gen2Tag], bool],
) -> List[Tuple[Gen2Tag, object]]:
    """Deliver a command to every tag that can hear it; gather replies."""
    replies = []
    for tag in tags:
        if not hears(tag):
            continue
        reply = tag.handle(command)
        if reply is not None:
            replies.append((tag, reply))
    return replies


def run_inventory(
    tags: Sequence[Gen2Tag],
    rng: np.random.Generator,
    session: str = "S0",
    target: str = "A",
    initial_q: int = 4,
    max_slots: int = 4096,
    hears: Optional[Callable[[Gen2Tag], bool]] = None,
    decodes: Optional[Callable[[Gen2Tag], bool]] = None,
    use_query_adjust: bool = True,
) -> InventoryRound:
    """Run inventory rounds until the population is exhausted.

    Parameters
    ----------
    tags:
        The tag population (only powered, in-range tags should be given;
        alternatively pass ``hears`` to model reachability).
    hears:
        Predicate: can this tag hear the reader's (possibly relayed)
        downlink right now? Defaults to "all tags".
    decodes:
        Predicate: given a single uncollided reply, does the reader
        decode it? Models uplink SNR. Defaults to "always".
    use_query_adjust:
        When True, integer-Q changes are applied mid-round via
        QueryAdjust, per the Annex-D strategy.

    Returns
    -------
    InventoryRound
        EPCs read (as integers) and per-slot outcomes.
    """
    hears = hears or (lambda tag: True)
    decodes = decodes or (lambda tag: True)
    qalg = QAlgorithm(initial_q=initial_q)
    result = InventoryRound()

    query = Query(q=qalg.q, session=session, target=target)
    replies = _broadcast(tags, query, hears)
    result.commands_sent += 1

    remaining = lambda: any(
        hears(t) and t.inventoried[session] == target for t in tags
    )
    slots_done = 0
    slots_in_round = 1 << qalg.q
    slot_index = 1

    while slots_done < max_slots:
        slots_done += 1
        record = SlotRecord(outcome=SlotOutcome.IDLE, responders=len(replies))
        if len(replies) == 1:
            tag, rn16_reply = replies[0]
            if isinstance(rn16_reply, Rn16Reply) and decodes(tag):
                ack = Ack(rn16=rn16_reply.rn16)
                result.commands_sent += 1
                epc_replies = _broadcast(tags, ack, hears)
                epc_replies = [
                    (t, r) for t, r in epc_replies if isinstance(r, EpcReply)
                ]
                if len(epc_replies) == 1 and decodes(epc_replies[0][0]):
                    payload = check_crc16(epc_replies[0][1].bits)
                    epc_bits = payload[16:]
                    record.outcome = SlotOutcome.SUCCESS
                    record.epc = bits_to_int(epc_bits)
                    result.epcs.append(record.epc)
                else:
                    record.outcome = SlotOutcome.DECODE_ERROR
            else:
                record.outcome = SlotOutcome.DECODE_ERROR
        elif len(replies) > 1:
            record.outcome = SlotOutcome.COLLISION
        result.slots.append(record)

        if not remaining():
            break

        updn = qalg.update(record.outcome)
        if use_query_adjust and updn != 0:
            adjust = QueryAdjust(session=session, updn=updn)
            replies = _broadcast(tags, adjust, hears)
            result.commands_sent += 1
            slots_in_round = 1 << qalg.q
            slot_index = 1
        elif slot_index >= slots_in_round:
            query = Query(q=qalg.q, session=session, target=target)
            replies = _broadcast(tags, query, hears)
            result.commands_sent += 1
            slots_in_round = 1 << qalg.q
            slot_index = 1
        else:
            rep = QueryRep(session=session)
            replies = _broadcast(tags, rep, hears)
            result.commands_sent += 1
            slot_index += 1

    result.final_q = qalg.q
    return result
