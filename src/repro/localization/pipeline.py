"""The end-to-end Localizer facade.

Ties the pipeline together: measurements -> disentanglement -> coarse-
to-fine SAR with the multipath peak rule -> position estimate. This is
the object the examples and the Fig. 12-14 benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import SAR_DEFAULT_GRID_RESOLUTION_M
from repro.errors import LocalizationError
from repro.localization.disentangle import disentangle_series
from repro.localization.grid import Grid2D, Heatmap
from repro.localization.measurement import ThroughRelayMeasurement
from repro.localization.multires import MultiresResult, multires_locate
from repro.localization.rssi import rssi_locate
from repro.localization.sar import SarGeometry, grid_geometry
from repro.obs import tracing


@dataclass(frozen=True)
class LocalizationResult:
    """A tag location estimate plus the evidence behind it."""

    position: np.ndarray
    coarse_heatmap: Heatmap
    fine_heatmap: Heatmap
    peak_distance_to_trajectory_m: float

    def error_to(self, true_position) -> float:
        """Euclidean error against a ground-truth location."""
        return float(
            np.linalg.norm(self.position - np.asarray(true_position, dtype=float))
        )


class Localizer:
    """Through-relay SAR localization with RFly's defaults.

    Parameters
    ----------
    frequency_hz:
        Frequency used in the matched filter. The paper notes using the
        reader's f is fine since (f - f2)/f < 0.01 (§5.2); pass the
        exact f2 for the purist variant.
    coarse_resolution, fine_resolution:
        Multi-resolution stage resolutions.
    search_margin_m:
        How far beyond the flight path the tag may lie. The relay-tag
        link is power-limited to a few meters, which conveniently
        bounds the search.
    use_nearest_peak_rule:
        §5.2's multipath rule (True) vs plain argmax (False).
    """

    def __init__(
        self,
        frequency_hz: float,
        coarse_resolution: float = 0.10,
        fine_resolution: float = SAR_DEFAULT_GRID_RESOLUTION_M,
        search_margin_m: float = 6.0,
        relative_threshold: float = 0.7,
        use_nearest_peak_rule: bool = True,
    ) -> None:
        if frequency_hz <= 0:
            raise LocalizationError("frequency must be positive")
        if coarse_resolution <= 0 or fine_resolution <= 0:
            raise LocalizationError("resolutions must be positive")
        self.frequency_hz = float(frequency_hz)
        self.coarse_resolution = float(coarse_resolution)
        self.fine_resolution = float(fine_resolution)
        self.search_margin_m = float(search_margin_m)
        self.relative_threshold = float(relative_threshold)
        self.use_nearest_peak_rule = bool(use_nearest_peak_rule)

    def locate(
        self,
        measurements: Sequence[ThroughRelayMeasurement],
        search_grid: Optional[Grid2D] = None,
    ) -> LocalizationResult:
        """Estimate one tag's 2-D position from a flight's measurements."""
        with tracing.span("localize.locate", poses=len(measurements)):
            with tracing.span("localize.disentangle"):
                positions, channels = disentangle_series(measurements)
            return self._locate_series(positions, channels, search_grid)

    def _search_grid(
        self, positions: np.ndarray, search_grid: Optional[Grid2D]
    ) -> Grid2D:
        return search_grid or Grid2D.around_trajectory(
            positions, margin=self.search_margin_m, resolution=self.coarse_resolution
        )

    def _locate_series(
        self,
        positions: np.ndarray,
        channels: np.ndarray,
        search_grid: Optional[Grid2D],
        coarse_geometry: Optional[SarGeometry] = None,
    ) -> LocalizationResult:
        """Coarse-to-fine SAR over an already disentangled series."""
        result: MultiresResult = multires_locate(
            positions,
            channels,
            self._search_grid(positions, search_grid),
            self.frequency_hz,
            fine_resolution=self.fine_resolution,
            relative_threshold=self.relative_threshold,
            use_nearest_peak_rule=self.use_nearest_peak_rule,
            coarse_geometry=coarse_geometry,
        )
        return LocalizationResult(
            position=result.position,
            coarse_heatmap=result.coarse_heatmap,
            fine_heatmap=result.fine_heatmap,
            peak_distance_to_trajectory_m=(
                result.selected_peak.distance_to_trajectory_m
            ),
        )

    def locate_with_baseline(
        self,
        measurements: Sequence[ThroughRelayMeasurement],
        calibration_gain: float,
        search_grid: Optional[Grid2D] = None,
    ) -> "Tuple[LocalizationResult, np.ndarray]":
        """SAR estimate plus the RSSI baseline, sharing one geometry.

        The Fig. 13/14 sweeps score both localizers on every trial;
        disentangling once and reusing the pose->grid distance tensor
        between the SAR coarse stage and the RSSI multilateration
        roughly halves the per-trial geometry work.
        """
        positions, channels = disentangle_series(measurements)
        grid = self._search_grid(positions, search_grid)
        geometry = grid_geometry(positions, grid)
        with tracing.span("localize.locate", poses=len(measurements)):
            sar_result = self._locate_series(
                positions, channels, grid, coarse_geometry=geometry
            )
        rssi_estimate, _ = rssi_locate(
            positions,
            channels,
            grid,
            self.frequency_hz,
            calibration_gain,
            geometry=geometry,
        )
        return sar_result, rssi_estimate

    def locate_rssi(
        self,
        measurements: Sequence[ThroughRelayMeasurement],
        calibration_gain: float,
        search_grid: Optional[Grid2D] = None,
    ) -> np.ndarray:
        """The RSSI baseline on the same measurements (§7.3)."""
        positions, channels = disentangle_series(measurements)
        grid = self._search_grid(positions, search_grid)
        best, _ = rssi_locate(
            positions, channels, grid, self.frequency_hz, calibration_gain
        )
        return best
