"""Per-pose inventory events.

At each pose along the flight, the (relayed) reader runs Gen2 inventory
over whatever tags the relay currently powers. The relay is transparent
to the protocol (paper §3), so this is the ordinary anti-collision MAC
of :mod:`repro.gen2.inventory` — including the relay-embedded reference
RFID, which participates like any other tag and is told apart by its
stored EPC (paper §5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Set, Tuple

import numpy as np

from repro import faults
from repro.errors import CRCError
from repro.gen2.crc import check_crc16
from repro.gen2.inventory import run_inventory
from repro.hardware.tag import PassiveTag
from repro.obs import metrics, tracing


def inventory_at_pose(
    tags: Sequence[PassiveTag],
    powered: Callable[[PassiveTag], bool],
    rng: np.random.Generator,
    max_slots: int = 512,
) -> Set[int]:
    """Run one inventory pass; return the EPCs read at this pose.

    ``powered`` models reachability: whether the relay's downlink lights
    each tag at the current drone position. It is sampled once per tag,
    in population order, and only the powered tags take part. Both
    inventory targets (A then B) are run so that a pose reads every
    reachable tag regardless of the flag state left by the previous
    pose.
    """
    read: Set[int] = set()
    with tracing.span("sim.inventory", n_tags=len(tags)):
        audible = [t.protocol for t in tags if powered(t)]
        for target in ("A", "B"):
            result = run_inventory(
                audible, rng, target=target, max_slots=max_slots
            )
            read.update(result.epcs)
        if faults.watching("gen2.frame"):
            read = _filter_corrupted_reads(
                read, {t.epc_int: t.epc_frame for t in audible}
            )
        metrics.count("sim.tags_inventoried", len(read))
    return read


def _filter_corrupted_reads(
    read: Set[int], frames: Dict[int, Tuple[int, ...]]
) -> Set[int]:
    """Re-validate each read's EPC frame under injected bit corruption.

    With a ``gen2.frame`` fault engaged, every successful read replays
    its {EPC, CRC-16} frame (``frames``, keyed by EPC integer: the read
    tag's own EPC, whatever its width) with the corruption hook
    flipping bits *before* :func:`check_crc16` — a corrupted read is
    rejected by the CRC (and counted), never delivered wrong.
    """
    surviving: Set[int] = set()
    for epc in sorted(read):
        frame = faults.corrupt_bits("gen2.frame", frames[epc])
        try:
            check_crc16(frame)
        except CRCError:
            metrics.count("sim.reads_rejected_crc")
            continue
        surviving.add(epc)
    return surviving
