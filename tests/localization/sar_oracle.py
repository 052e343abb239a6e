"""Frozen SAR matched filter: the test-only oracle for the grid kernel.

A verbatim copy of the chunked norm/``np.exp(1j*x)`` projection that
:mod:`repro.localization.sar` used before the separable lattice kernel
replaced it: :class:`SarGeometry` (``np.linalg.norm`` over a
``(K, chunk, d)`` broadcast, stored or streamed chunks, the profile and
the RSSI mismatch), :func:`sar_profile`, :func:`sar_heatmap`, the
:meth:`IncrementalSar.update` fold (as :func:`incremental_fold`) and the
per-segment :func:`distance_to_polyline` loop. The kernel must
reproduce all of them **bit for bit**; keeping the oracle self-contained
means a later change to the library cannot silently move the reference
too. Input validation is shared with the library (``_validate``), since
only the arithmetic is frozen here.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import LocalizationError
from repro.localization.grid import Grid2D, Heatmap
from repro.localization.sar import _validate

DEFAULT_CHUNK_NODES = 200_000
_MAX_CHUNK_ELEMENTS = 4_000_000
_MAX_STORE_ELEMENTS = 25_000_000


class SarGeometry:
    """Pose->candidate distances, chunked over the flat node axis."""

    def __init__(
        self,
        positions: np.ndarray,
        points: np.ndarray,
        chunk_nodes: int = DEFAULT_CHUNK_NODES,
        store_distances: Optional[bool] = None,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        points = np.asarray(points, dtype=float)
        self.positions = positions
        self.points = points
        self.chunk_nodes = int(
            min(chunk_nodes, max(1, _MAX_CHUNK_ELEMENTS // max(1, len(positions))))
        )
        if store_distances is None:
            store_distances = (
                len(positions) * len(points) <= _MAX_STORE_ELEMENTS
            )
        self.stores_distances = bool(store_distances)
        if self.stores_distances:
            self._chunks: "Optional[list[np.ndarray]]" = [
                chunk for _, chunk in self._compute_chunks()
            ]
        else:
            self._chunks = None

    def _compute_chunks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        for start in range(0, len(self.points), self.chunk_nodes):
            stop = min(start + self.chunk_nodes, len(self.points))
            yield slice(start, stop), np.linalg.norm(
                self.points[start:stop][None, :, :]
                - self.positions[:, None, :],
                axis=2,
            )

    @property
    def n_poses(self) -> int:
        return len(self.positions)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def iter_chunks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        if self._chunks is None:
            yield from self._compute_chunks()
            return
        start = 0
        for chunk in self._chunks:
            width = chunk.shape[1]
            yield slice(start, start + width), chunk
            start += width

    def profile(
        self,
        channels: np.ndarray,
        frequency_hz: float,
        normalize: bool = True,
    ) -> np.ndarray:
        _validate(self.positions, channels, frequency_hz)
        weights = np.asarray(channels, dtype=complex).copy()
        if normalize:
            magnitudes = np.abs(weights)
            nonzero = magnitudes > 0
            weights[nonzero] = weights[nonzero] / magnitudes[nonzero]
        k_factor = 2.0 * np.pi * frequency_hz * 2.0 / SPEED_OF_LIGHT
        values = np.empty(self.n_points)
        for node_slice, distances_m in self.iter_chunks():
            phases = np.exp(1j * (k_factor * distances_m))
            phases *= weights[:, None]
            values[node_slice] = np.abs(phases.sum(axis=0))
        return values / len(weights)

    def rssi_mismatch(self, distances_m: np.ndarray) -> np.ndarray:
        distances_m = np.asarray(distances_m, dtype=float)
        mismatch = np.empty(self.n_points)
        for node_slice, predicted_m in self.iter_chunks():
            mismatch[node_slice] = np.mean(
                (predicted_m - distances_m[:, None]) ** 2, axis=0
            )
        return mismatch


def grid_nodes(grid: Grid2D) -> np.ndarray:
    """Grid nodes in meshgrid order, shape (N, 2)."""
    gx, gy = grid.meshgrid()
    return np.column_stack([gx.ravel(), gy.ravel()])


def grid_geometry(
    positions: np.ndarray,
    grid: Grid2D,
    chunk_nodes: int = DEFAULT_CHUNK_NODES,
) -> SarGeometry:
    return SarGeometry(positions, grid_nodes(grid), chunk_nodes=chunk_nodes)


def sar_profile(
    positions: np.ndarray,
    channels: np.ndarray,
    points: np.ndarray,
    frequency_hz: float,
    normalize: bool = True,
    chunk_nodes: int = DEFAULT_CHUNK_NODES,
) -> np.ndarray:
    positions, channels = _validate(positions, channels, frequency_hz)
    geometry = SarGeometry(
        positions, points, chunk_nodes=chunk_nodes, store_distances=False
    )
    return geometry.profile(channels, frequency_hz, normalize)


def sar_heatmap(
    positions: np.ndarray,
    channels: np.ndarray,
    grid: Grid2D,
    frequency_hz: float,
    normalize: bool = True,
    chunk_nodes: int = DEFAULT_CHUNK_NODES,
) -> Heatmap:
    geometry = grid_geometry(positions, grid, chunk_nodes=chunk_nodes)
    values = geometry.profile(channels, frequency_hz, normalize)
    return Heatmap(grid=grid, values=values.reshape(grid.shape))


def incremental_fold(
    accumulator: np.ndarray,
    nodes: np.ndarray,
    positions: np.ndarray,
    channels: np.ndarray,
    frequency_hz: float,
    chunk_nodes: int = DEFAULT_CHUNK_NODES,
) -> None:
    """``IncrementalSar.update``'s fold of one canonical pose block."""
    weights = np.asarray(channels, dtype=complex).copy()
    magnitudes = np.abs(weights)
    nonzero = magnitudes > 0
    weights[nonzero] = weights[nonzero] / magnitudes[nonzero]
    k_factor = 2.0 * np.pi * frequency_hz * 2.0 / SPEED_OF_LIGHT
    geometry = SarGeometry(
        positions, nodes, chunk_nodes=chunk_nodes, store_distances=False
    )
    for node_slice, distances_m in geometry.iter_chunks():
        phases = np.exp(1j * (k_factor * distances_m))
        phases *= weights[:, None]
        accumulator[node_slice] += phases.sum(axis=0)


def distance_to_polyline(point, polyline: np.ndarray) -> float:
    p = np.asarray(point, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if polyline.ndim != 2 or polyline.shape[1] != 2 or len(polyline) < 1:
        raise LocalizationError("polyline must be (K, 2) with K >= 1")
    if len(polyline) == 1:
        return float(np.linalg.norm(p - polyline[0]))
    best = np.inf
    for a, b in zip(polyline[:-1], polyline[1:]):
        ab = b - a
        denom = float(np.dot(ab, ab))
        if denom == 0.0:
            candidate = float(np.linalg.norm(p - a))
        else:
            t = float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
            candidate = float(np.linalg.norm(p - (a + t * ab)))
        best = min(best, candidate)
    return best
