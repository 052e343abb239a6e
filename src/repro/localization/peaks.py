"""Peak extraction and multipath-robust selection (paper §5.2).

Under multipath the heatmap grows several "ghost" peaks (Fig. 6b).
The paper's insight: reflections always travel a longer path than the
direct link, so ghosts always appear *farther from the trajectory* than
the true tag. RFly therefore selects, among the significant peaks, the
one nearest the flight path rather than the absolute maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import LocalizationError
from repro.localization.grid import Heatmap


@dataclass(frozen=True)
class Peak:
    """A local maximum of the heatmap."""

    position: np.ndarray
    value: float
    distance_to_trajectory_m: float = float("nan")


def _local_maxima_mask(values: np.ndarray) -> np.ndarray:
    """Nodes >= all 8 neighbours (plateau-tolerant)."""
    padded = np.pad(values, 1, mode="constant", constant_values=-np.inf)
    center = padded[1:-1, 1:-1]
    mask = np.ones_like(values, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbour = padded[1 + dr : padded.shape[0] - 1 + dr,
                               1 + dc : padded.shape[1] - 1 + dc]
            mask &= center >= neighbour
    return mask


def find_peaks(
    heatmap: Heatmap, relative_threshold: float = 0.5, max_peaks: int = 16
) -> List[Peak]:
    """Significant local maxima, strongest first.

    ``relative_threshold`` is the fraction of the global maximum a local
    maximum must reach to count as a candidate tag location.
    """
    if not 0.0 < relative_threshold <= 1.0:
        raise LocalizationError("relative threshold must be in (0, 1]")
    values = heatmap.values
    peak_floor = heatmap.peak_value * relative_threshold
    mask = _local_maxima_mask(values) & (values >= peak_floor)
    rows, cols = np.nonzero(mask)
    order = np.argsort(values[rows, cols])[::-1][:max_peaks]
    peaks = []
    for idx in order:
        r, c = rows[idx], cols[idx]
        peaks.append(
            Peak(
                position=np.array([heatmap.grid.xs[c], heatmap.grid.ys[r]]),
                value=float(values[r, c]),
            )
        )
    if not peaks:
        raise LocalizationError("heatmap has no significant peaks")
    return peaks


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (M, 2) arrays.

    Stacked ``matmul`` runs each row through BLAS ``ddot``, the routine
    ``np.dot`` and vector ``norm`` use; ``u[:, 0] * v[:, 0] + ...``
    rounds differently wherever ``ddot`` fuses the multiply-add.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def distance_to_polyline(point, polyline: np.ndarray) -> float:
    """Shortest distance from a point to a piecewise-linear path."""
    p = np.asarray(point, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if polyline.ndim != 2 or polyline.shape[1] != 2 or len(polyline) < 1:
        raise LocalizationError("polyline must be (K, 2) with K >= 1")
    if len(polyline) == 1:
        return float(np.linalg.norm(p - polyline[0]))
    starts = polyline[:-1]
    segments = polyline[1:] - starts
    to_point = p - starts
    lengths_sq = _dots(segments, segments)
    # A zero-length segment projects onto its start: t = 0 keeps
    # ``starts + t * segments`` equal to ``starts`` exactly.
    degenerate = lengths_sq == 0.0
    t = np.clip(
        _dots(to_point, segments) / np.where(degenerate, 1.0, lengths_sq),
        0.0,
        1.0,
    )
    t[degenerate] = 0.0
    offsets = p - (starts + t[:, None] * segments)
    return float(np.sqrt(_dots(offsets, offsets)).min())


def select_nearest_to_trajectory(
    peaks: List[Peak], trajectory_positions: np.ndarray
) -> Peak:
    """The paper's multipath rule: nearest significant peak wins."""
    if not peaks:
        raise LocalizationError("no peaks to select from")
    annotated = [
        Peak(
            position=p.position,
            value=p.value,
            distance_to_trajectory_m=distance_to_polyline(
                p.position, trajectory_positions
            ),
        )
        for p in peaks
    ]
    return min(annotated, key=lambda p: p.distance_to_trajectory_m)
