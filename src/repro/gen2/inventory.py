"""Reader-side inventory MAC: slotted ALOHA with the Gen2 Q algorithm.

A reader inventories a population by opening ``2**Q`` slots per round.
Each slot produces one of three outcomes — idle, single reply (success,
followed by the ACK handshake), or collision — and the Q algorithm
(Gen2 Annex D) adapts Q from the observed outcome mix.

The relay is transparent to all of this (paper §3): it forwards the
queries and replies in the analog domain, so the MAC below runs
unmodified whether or not a relay sits in the middle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.gen2.bitops import unchecked_int
from repro.gen2.commands import Ack, Query, QueryAdjust, QueryRep
from repro.gen2.crc import check_crc16
from repro.gen2.tag_state import EpcReply, Gen2Tag, Rn16Reply


class SlotOutcome(enum.Enum):
    """What the reader observed in one slot."""

    IDLE = "idle"
    SUCCESS = "success"
    COLLISION = "collision"
    DECODE_ERROR = "decode_error"


#: The members, bound once (an enum-class lookup per slot adds up).
_IDLE = SlotOutcome.IDLE
_SUCCESS = SlotOutcome.SUCCESS
_COLLISION = SlotOutcome.COLLISION
_DECODE_ERROR = SlotOutcome.DECODE_ERROR


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
        if outcome is _COLLISION:
            qfp = min(15.0, self.qfp + self.c)
        elif outcome is _IDLE:
            qfp = max(0.0, self.qfp - self.c)
        else:
            return 0
        before = int(round(self.qfp))
        self.qfp = qfp
        after = int(round(qfp))
        return (after > before) - (after < before)


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
        return sum(1 for s in self.slots if s.outcome is _SUCCESS)

    @property
    def collisions(self) -> int:
        """Number of collision slots."""
        return sum(1 for s in self.slots if s.outcome is _COLLISION)

    @property
    def idles(self) -> int:
        """Number of idle slots."""
        return sum(1 for s in self.slots if s.outcome is _IDLE)


def _broadcast(audible: Sequence[Gen2Tag], command) -> List[Tuple[Gen2Tag, object]]:
    """Deliver a command to every tag that hears it; gather replies."""
    return [
        (tag, reply)
        for tag in audible
        if (reply := tag.handle(command)) is not None
    ]


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
        downlink right now? Defaults to "all tags". It is sampled once
        per tag per call, in population order, before the first Query:
        reachability is fixed for the duration of the call, and only
        the tags that hear are sent commands.
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
    audible = list(tags) if hears is None else [t for t in tags if hears(t)]
    decodes = decodes or (lambda tag: True)
    qalg = QAlgorithm(initial_q=initial_q)
    result = InventoryRound()
    # Commands are frozen values: build each Query (per Q) and
    # QueryAdjust (per UpDn) once, and one QueryRep for the call.
    queries: Dict[int, Query] = {}
    adjusts: Dict[int, QueryAdjust] = {}

    def query_for(q: int) -> Query:
        query = queries.get(q)
        if query is None:
            query = queries[q] = Query(q=q, session=session, target=target)
        return query

    def remaining() -> bool:
        for tag in audible:
            if tag.inventoried[session] == target:
                return True
        return False

    replies = _broadcast(audible, query_for(qalg.q))
    commands_sent = 1
    rep = QueryRep(session=session)
    slots_done = 0
    slots_in_round = 1 << qalg.q
    slot_index = 1

    while slots_done < max_slots:
        slots_done += 1
        responders = len(replies)
        epc = None
        if responders == 1:
            outcome = _DECODE_ERROR
            tag, rn16_reply = replies[0]
            if isinstance(rn16_reply, Rn16Reply) and decodes(tag):
                commands_sent += 1
                epc_replies = [
                    (t, r)
                    for t, r in _broadcast(audible, Ack(rn16=rn16_reply.rn16))
                    if isinstance(r, EpcReply)
                ]
                if len(epc_replies) == 1 and decodes(epc_replies[0][0]):
                    payload = check_crc16(epc_replies[0][1].bits)
                    outcome = _SUCCESS
                    epc = unchecked_int(payload[16:])
                    result.epcs.append(epc)
        elif responders:
            outcome = _COLLISION
        else:
            outcome = _IDLE
        result.slots.append(SlotRecord(outcome, epc, responders))

        if not remaining():
            break

        updn = qalg.update(outcome)
        commands_sent += 1
        if use_query_adjust and updn != 0:
            adjust = adjusts.get(updn)
            if adjust is None:
                adjust = adjusts[updn] = QueryAdjust(session=session, updn=updn)
            replies = _broadcast(audible, adjust)
            slots_in_round = 1 << qalg.q
            slot_index = 1
        elif slot_index >= slots_in_round:
            replies = _broadcast(audible, query_for(qalg.q))
            slots_in_round = 1 << qalg.q
            slot_index = 1
        else:
            replies = _broadcast(audible, rep)
            slot_index += 1

    result.commands_sent = commands_sent
    result.final_q = qalg.q
    return result
