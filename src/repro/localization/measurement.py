"""The through-relay phase measurement model (paper Eq. 7-9).

At each drone pose, the reader's channel estimate for a tag factors as

    h = A_rt(f) * B_rt(f2) * G

where ``A_rt`` is the reader->relay *round-trip* half-link at the
reader's frequency f, ``B_rt`` the relay->tag round-trip half-link at
the shifted frequency f2, and ``G`` a constant relay hardware factor
(gain and filter phase — constant because the mirrored architecture
cancels everything time-varying; see §4.3 and Fig. 10).

Each half-link is the superposition of its multipath rays; by channel
reciprocity the round trip is the square of the one-way sum, which
expands into exactly the double sum over path pairs of Eq. 8. The
relay-embedded reference RFID measures ``A_rt * C`` with constant C, so
a division isolates ``B_rt`` (Eq. 10) — see
:mod:`repro.localization.disentangle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.channel.environment import Environment
from repro.constants import RELAY_FREQUENCY_SHIFT_HZ, UHF_CENTER_FREQUENCY
from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError
from repro.mobility.trajectory import TrajectorySample


@dataclass(frozen=True)
class ThroughRelayMeasurement:
    """One reader observation at one drone pose.

    ``h_target`` and ``h_reference`` are the reader's channel estimates
    for the environment tag and the relay-embedded reference RFID;
    ``position`` is the drone pose the SAR solver will use (in practice
    the OptiTrack observation of it). ``relay`` names which fleet relay
    carried the observation (``""`` on the single-relay paths, where
    there is nothing to distinguish).
    """

    position: np.ndarray
    h_target: complex
    h_reference: complex
    snr_db: float
    time: float = 0.0
    relay: str = ""


class MeasurementModel:
    """Synthesizes through-relay measurements along a trajectory.

    Parameters
    ----------
    environment:
        Propagation environment (walls produce the multipath of Fig. 5).
    reader_position:
        The stationary reader's location.
    reader_frequency_hz:
        The reader's carrier f.
    frequency_shift_hz:
        The relay's shift; f2 = f + shift. The paper keeps
        (f - f2)/f < 0.01 so the reader may use f in Eq. 12 (§5.2).
    reference_gain:
        The constant C of the reference RFID's channel.
    relay_gain_db:
        Constant relay hardware gain folded into every target channel.
    """

    def __init__(
        self,
        environment: Optional[Environment] = None,
        reader_position=(0.0, 0.0),
        reader_frequency_hz: float = UHF_CENTER_FREQUENCY,
        frequency_shift_hz: float = RELAY_FREQUENCY_SHIFT_HZ,
        reference_gain: complex = 0.05 * np.exp(1j * 0.7),
        relay_gain_db: float = 45.0,
    ) -> None:
        if reader_frequency_hz <= 0:
            raise ConfigurationError("reader frequency must be positive")
        if reference_gain == 0:
            raise ConfigurationError("reference gain must be nonzero")
        self.environment = environment or Environment.free_space()
        self.reader_position = np.asarray(reader_position, dtype=float)
        self.f = float(reader_frequency_hz)
        self.f2 = float(reader_frequency_hz + frequency_shift_hz)
        self.reference_gain = complex(reference_gain)
        self.relay_gain = float(np.sqrt(db_to_linear(relay_gain_db)))

    # -- half-links ------------------------------------------------------------

    def reader_relay_round_trip(self, drone_position) -> complex:
        """A_rt: reader->relay one-way channel squared (reciprocity)."""
        one_way = self.environment.channel(
            self.reader_position, drone_position, self.f
        )
        return complex(one_way * one_way)

    def relay_tag_round_trip(self, drone_position, tag_position) -> complex:
        """B_rt: relay->tag one-way channel squared at f2."""
        one_way = self.environment.channel(drone_position, tag_position, self.f2)
        return complex(one_way * one_way)

    # -- measurements -----------------------------------------------------------

    #: The reference RFID sits centimeters from the relay's antennas, so
    #: its reply is received this much cleaner than an environment tag's.
    REFERENCE_SNR_ADVANTAGE_DB = 10.0

    def measure(
        self,
        drone_position,
        tag_position,
        rng: Optional[np.random.Generator] = None,
        snr_db: float = 30.0,
        time: float = 0.0,
    ) -> ThroughRelayMeasurement:
        """One through-relay observation at one drone pose.

        Noise is applied to both channel estimates as circular complex
        Gaussian scaled to the requested estimate SNR (the reference
        RFID's estimate is cleaner by its proximity advantage).
        """
        a_rt = self.reader_relay_round_trip(drone_position)
        b_rt = self.relay_tag_round_trip(drone_position, tag_position)
        noise = _draw_noise(rng, snr_db)
        return self._observe(drone_position, a_rt, b_rt, noise, snr_db, time)

    def draw_read(
        self,
        drone_position,
        tag_position,
        rng: Optional[np.random.Generator] = None,
        snr_db: float = 30.0,
        time: float = 0.0,
        relay: str = "",
    ) -> "PendingRead":
        """Everything random about one read, with its channels left out.

        Makes exactly the draws :meth:`measure` makes, in its order: the
        ``channel.link`` faults of the reader->relay, then the
        relay->tag half-link, then the channel-estimate noise.
        :meth:`resolve` later traces the channels of many reads at once.
        """
        live_reader = not faults.dropped("channel.link")
        live_tag = not faults.dropped("channel.link")
        return PendingRead(
            drone_position,
            tag_position,
            live_reader,
            live_tag,
            _draw_noise(rng, snr_db),
            snr_db,
            time,
            relay,
        )

    def resolve(
        self, reads: Sequence["PendingRead"]
    ) -> List[ThroughRelayMeasurement]:
        """The observations of drawn reads, in order.

        The same observations as :meth:`measure` read by read: every
        half-link of the batch is traced in two channel calls, and a
        dropped half-link stays dead (0j) and is never traced.
        """
        n = len(reads)
        drones = np.array([r.drone_position for r in reads], float).reshape(-1, 2)
        tags = np.array([r.tag_position for r in reads], float).reshape(-1, 2)
        live_reader = np.array([r.live_reader for r in reads], dtype=bool)
        live_tag = np.array([r.live_tag for r in reads], dtype=bool)
        reader_relay = np.zeros(n, complex)
        relay_tag = np.zeros(n, complex)
        if live_reader.any():
            reader_relay[live_reader] = self.environment.channels(
                self.reader_position, drones[live_reader], self.f
            )
        if live_tag.any():
            relay_tag[live_tag] = self.environment.channels(
                drones[live_tag], tags[live_tag], self.f2
            )
        return [
            self._observe(
                r.drone_position,
                complex(a * a),
                complex(b * b),
                r.noise,
                r.snr_db,
                r.time,
                r.relay,
            )
            for r, a, b in zip(reads, reader_relay.tolist(), relay_tag.tolist())
        ]

    def _observe(
        self,
        drone_position,
        a_rt: complex,
        b_rt: complex,
        noise: Optional[Tuple[float, float, float, float]],
        snr_db: float,
        time: float,
        relay: str = "",
    ) -> ThroughRelayMeasurement:
        """Assemble one observation from its round-trip half-links."""
        h_target = a_rt * b_rt * self.relay_gain
        h_reference = a_rt * self.reference_gain
        if noise is not None:
            n_target_re, n_target_im, n_ref_re, n_ref_im = noise
            scale = np.sqrt(db_to_linear(-snr_db) / 2.0)
            h_target += (
                abs(h_target) * scale * (n_target_re + 1j * n_target_im)
            )
            ref_scale = np.sqrt(
                db_to_linear(-(snr_db + self.REFERENCE_SNR_ADVANTAGE_DB)) / 2.0
            )
            h_reference += (
                abs(h_reference) * ref_scale * (n_ref_re + 1j * n_ref_im)
            )
        return ThroughRelayMeasurement(
            position=np.asarray(drone_position, dtype=float),
            h_target=complex(h_target),
            h_reference=complex(h_reference),
            snr_db=float(snr_db),
            time=float(time),
            relay=relay,
        )

    def measure_along(
        self,
        samples: Sequence[TrajectorySample],
        tag_position,
        rng: Optional[np.random.Generator] = None,
        snr_db: float = 30.0,
    ) -> List[ThroughRelayMeasurement]:
        """Observations at every pose of a flight.

        The same observations as :meth:`measure` pose by pose, with every
        half-link of the flight computed in two batched channel calls.
        """
        return self.resolve(
            [
                self.draw_read(s.position, tag_position, rng, snr_db, s.time)
                for s in samples
            ]
        )


class PendingRead(NamedTuple):
    """One read's draws, waiting for :meth:`MeasurementModel.resolve`."""

    drone_position: Any
    tag_position: Any
    live_reader: bool
    live_tag: bool
    #: Standard normals of the target and reference estimates (real,
    #: imaginary), or None for a noiseless read.
    noise: Optional[Tuple[float, float, float, float]]
    snr_db: float
    time: float
    relay: str


def _draw_noise(
    rng: Optional[np.random.Generator], snr_db: float
) -> Optional[Tuple[float, float, float, float]]:
    """The four standard normals :meth:`MeasurementModel._observe` adds."""
    if rng is None or not np.isfinite(snr_db):
        return None
    return (
        rng.standard_normal(),
        rng.standard_normal(),
        rng.standard_normal(),
        rng.standard_normal(),
    )
