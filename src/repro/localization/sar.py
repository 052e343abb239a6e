"""The SAR matched filter with non-linear projections (paper Eq. 11-12).

Every candidate location (x, y) predicts a set of round-trip distances
to the drone poses; the matched filter coherently sums the isolated
half-link channels against those predictions:

    P(x, y) = | sum_k  h_k * exp(+j 2 pi f 2 sqrt((x-x_k)^2+(y-y_k)^2)/c) |

Because the projection is non-linear in (x, y), a 1-D trajectory yields
a 2-D fix (and a 2-D trajectory a 3-D one). The paper notes the reader
may use its own f instead of the relay's f2 since the relay keeps
(f - f2)/f < 0.01; both options are supported and the ablation bench
quantifies the difference.

One kernel evaluates every projection (DESIGN.md §20). Squared
distances are built per axis: a search grid is a rectangular lattice,
so ``(x_c - x_k)^2`` and ``(y_r - y_k)^2`` are computed once per column
and once per row and broadcast-added; scattered candidates use per-axis
outer differences. Phases are ``cos``/``sin`` written straight into the
real and imaginary halves of one complex buffer, and the weighted sum
runs over poses in order. The result is bitwise equal to the
``norm``/``exp(1j x)`` formulation (checked against a frozen oracle).

:class:`SarGeometry` keeps the pose->candidate distances of one
(trajectory, candidate set) pair resident for reuse across
matched-filter frequencies and the RSSI baseline. Evaluation is chunked
over candidate nodes to bound peak memory; chunking never changes the
result (each node's coherent sum is independent), and the chunk size is
an explicit, testable parameter.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization.grid import Grid2D, Heatmap
from repro.obs import metrics, tracing

#: Default number of candidate nodes evaluated per chunk. Public and
#: overridable per call: the chunked and unchunked evaluations agree
#: exactly, so this is purely a memory/throughput knob.
DEFAULT_CHUNK_NODES = 200_000

#: Peak elements of the (poses x nodes) working tensor per chunk; the
#: effective chunk width shrinks for long trajectories so temporary
#: arrays stay ~tens of MB.
_MAX_CHUNK_ELEMENTS = 4_000_000

#: Largest (poses x nodes) tensor kept resident for reuse; bigger
#: geometries recompute their chunks on each pass instead of caching
#: ~hundreds of MB of distances.
_MAX_STORE_ELEMENTS = 25_000_000

_Chunk = Tuple[slice, np.ndarray]


def _validate(
    positions: np.ndarray, channels: np.ndarray, frequency_hz: float
) -> Tuple[np.ndarray, np.ndarray]:
    positions = np.asarray(positions, dtype=float)
    channels = np.asarray(channels, dtype=complex)
    if positions.ndim != 2 or positions.shape[1] not in (2, 3):
        raise LocalizationError(
            f"positions must be (K, 2) or (K, 3), got {positions.shape}"
        )
    if channels.shape != (positions.shape[0],):
        raise LocalizationError(
            f"got {len(channels)} channels for {len(positions)} positions"
        )
    if len(channels) < 2:
        raise InsufficientMeasurementsError(
            "the synthetic aperture needs at least two poses"
        )
    if frequency_hz <= 0:
        raise LocalizationError("frequency must be positive")
    if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(channels)):
        raise LocalizationError(
            "positions/channels contain NaN or Inf; drop bad measurements "
            "before solving"
        )
    # A collapsed aperture yields a ring ambiguity, not a fix: refuse it
    # rather than return an arbitrary point on the ring.
    wavelength = SPEED_OF_LIGHT / frequency_hz
    extent = float(np.max(np.ptp(positions, axis=0)))
    if extent < wavelength / 4.0:
        raise InsufficientMeasurementsError(
            f"aperture extent {extent:.3f} m is below a quarter wavelength "
            f"({wavelength / 4.0:.3f} m): the poses do not form an array"
        )
    return positions, channels


def unit_weights(channels: np.ndarray) -> np.ndarray:
    """Channels whitened to unit magnitude (exact zeros pass through).

    The standard SAR back-projection weighting: near poses with much
    stronger channels must not dominate the coherent sum.
    """
    weights = np.asarray(channels, dtype=complex).copy()
    magnitudes = np.abs(weights)
    nonzero = magnitudes > 0
    weights[nonzero] = weights[nonzero] / magnitudes[nonzero]
    return weights


def _k_factor(frequency_hz: float) -> float:
    """Round-trip phase constant ``4*pi*f/c`` of Eq. 11-12."""
    return 2.0 * np.pi * frequency_hz * 2.0 / SPEED_OF_LIGHT


def _chunk_width(chunk_nodes: int, n_poses: int) -> int:
    """Nodes per chunk: ``chunk_nodes``, capped by the element budget."""
    if chunk_nodes < 1:
        raise LocalizationError(f"chunk_nodes must be >= 1, got {chunk_nodes}")
    return int(min(chunk_nodes, max(1, _MAX_CHUNK_ELEMENTS // max(1, n_poses))))


def _squared_offsets(coords: np.ndarray, pose_coords: np.ndarray) -> np.ndarray:
    """``(coords[n] - pose_coords[k]) ** 2`` as a fresh (K, n) array."""
    offsets = np.empty((len(pose_coords), len(coords)))
    np.subtract(coords[None, :], pose_coords[:, None], out=offsets)
    offsets *= offsets
    return offsets


class _Points:
    """Scattered candidates, shape (N, d)."""

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.n_points = len(points)
        self._axes = [np.ascontiguousarray(points[:, a]) for a in range(points.shape[1])]

    def squared_distances(self, positions: np.ndarray, width: int) -> Iterator[_Chunk]:
        """``(node_slice, (K, W) squared distances)`` per flat node range."""
        # Axis terms add in axis order, as ``norm``'s reduce does.
        for start in range(0, self.n_points, width):
            node_slice = slice(start, min(start + width, self.n_points))
            total = _squared_offsets(self._axes[0][node_slice], positions[:, 0])
            for axis in range(1, len(self._axes)):
                total += _squared_offsets(self._axes[axis][node_slice], positions[:, axis])
            yield node_slice, total


class _Lattice:
    """The nodes of a :class:`Grid2D` in meshgrid order.

    Node ``r * nx + c`` sits at ``(xs[c], ys[r])``, so its squared
    distance to a pose is a column term plus a row term, each computed
    once per pose. Chunks are the same flat node ranges as for
    scattered points: the chunk width decides whether numpy sums a
    chunk's poses sequentially or pairwise (a one-node chunk), so the
    boundaries are part of the result's bits.

    Every chunk is a fresh C-contiguous (K, W) array. The pose axis must
    stay the outer one in memory: numpy reduces along a contiguous axis
    pairwise, which would change the bits of every per-node sum.
    """

    def __init__(self, grid: Grid2D) -> None:
        self.xs = grid.xs
        self.ys = grid.ys
        self.n_points = len(self.xs) * len(self.ys)

    @cached_property
    def points(self) -> np.ndarray:
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def squared_distances(self, positions: np.ndarray, width: int) -> Iterator[_Chunk]:
        """``(node_slice, (K, W) squared distances)`` per flat node range."""
        dx2 = _squared_offsets(self.xs, positions[:, 0])
        dy2 = _squared_offsets(self.ys, positions[:, 1])
        nx = len(self.xs)
        for start in range(0, self.n_points, width):
            stop = min(start + width, self.n_points)
            block = np.empty((len(positions), stop - start))
            if start % nx == 0 and stop % nx == 0:
                rows = slice(start // nx, stop // nx)
                np.add(
                    dx2[:, None, :],
                    dy2[:, rows, None],
                    out=block.reshape(len(positions), -1, nx),
                )
            else:
                flat = np.arange(start, stop)
                np.add(dx2[:, flat % nx], dy2[:, flat // nx], out=block)
            yield slice(start, stop), block


def _phase_sums(arguments: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k w_k exp(j arguments[k])`` per node, summed in pose order.

    ``cos``/``sin`` fill the real/imaginary views of one complex buffer:
    the same bits as ``np.exp(1j * arguments)`` without its temporaries.
    """
    phases = np.empty(arguments.shape, dtype=complex)
    np.cos(arguments, out=phases.real)
    np.sin(arguments, out=phases.imag)
    phases *= weights[:, None]
    return phases.sum(axis=0)


def _project(
    positions: np.ndarray,
    nodes: "Union[_Points, _Lattice]",
    weights: np.ndarray,
    k: float,
    chunk_nodes: int,
) -> Iterator[_Chunk]:
    """``(node_slice, coherent sums)`` per chunk, distances streamed."""
    width = _chunk_width(chunk_nodes, len(positions))
    for node_slice, squared in nodes.squared_distances(positions, width):
        arguments = np.sqrt(squared, out=squared)
        arguments *= k
        yield node_slice, _phase_sums(arguments, weights)


class SarGeometry:
    """Pose->candidate distances for one (trajectory, candidate set) pair.

    The distance tensor is the only geometry the matched filter needs;
    it is identical for every frequency, channel draw, and for the RSSI
    baseline. Build it once per trajectory and reuse it.

    Parameters
    ----------
    positions:
        Drone poses, shape (K, 2) or (K, 3).
    points:
        Candidate locations, shape (N, d) with d matching positions.
    chunk_nodes:
        Candidate nodes per evaluation chunk. The effective width also
        honors an internal element budget so the (K, chunk) temporaries
        stay small for long trajectories.
    store_distances:
        Keep the distance chunks resident for reuse (the fast path).
        ``None`` stores automatically while K*N stays under an internal
        budget; one-shot evaluations over huge volumes recompute chunks
        on the fly instead.
    """

    def __init__(
        self,
        positions: np.ndarray,
        points: np.ndarray,
        chunk_nodes: int = DEFAULT_CHUNK_NODES,
        store_distances: Optional[bool] = None,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        points = np.asarray(points, dtype=float)
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise LocalizationError(
                f"positions must be (K, 2) or (K, 3), got {positions.shape}"
            )
        if points.ndim != 2 or points.shape[1] != positions.shape[1]:
            raise LocalizationError(
                f"points must be (N, {positions.shape[1]}), got {points.shape}"
            )
        self._setup(positions, _Points(points), chunk_nodes, store_distances)

    @classmethod
    def _on_grid(
        cls,
        positions: np.ndarray,
        grid: Grid2D,
        chunk_nodes: int,
        store_distances: Optional[bool] = None,
    ) -> "SarGeometry":
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise LocalizationError(
                f"positions must be (K, 2), got {positions.shape}"
            )
        geometry = cls.__new__(cls)
        geometry._setup(positions, _Lattice(grid), chunk_nodes, store_distances)
        return geometry

    def _setup(
        self,
        positions: np.ndarray,
        nodes: "Union[_Points, _Lattice]",
        chunk_nodes: int,
        store_distances: Optional[bool],
    ) -> None:
        self.positions = positions
        self._nodes = nodes
        self.chunk_nodes = _chunk_width(chunk_nodes, len(positions))
        if store_distances is None:
            store_distances = (
                len(positions) * nodes.n_points <= _MAX_STORE_ELEMENTS
            )
        self.stores_distances = bool(store_distances)
        self._chunks: Optional[List[_Chunk]] = None
        if self.stores_distances:
            with tracing.span(
                "sar.geometry", poses=len(positions), points=nodes.n_points
            ):
                self._chunks = list(self._streamed_distances())

    def _streamed_distances(self) -> Iterator[_Chunk]:
        for node_slice, squared in self._nodes.squared_distances(
            self.positions, self.chunk_nodes
        ):
            yield node_slice, np.sqrt(squared, out=squared)

    @property
    def points(self) -> np.ndarray:
        """Candidate coordinates, shape (N, d)."""
        return self._nodes.points

    @property
    def n_poses(self) -> int:
        """Trajectory length K."""
        return len(self.positions)

    @property
    def n_points(self) -> int:
        """Candidate count N."""
        return self._nodes.n_points

    def profile(
        self,
        channels: np.ndarray,
        frequency_hz: float,
        normalize: bool = True,
    ) -> np.ndarray:
        """The matched-filter profile P at every candidate point.

        ``normalize=True`` whitens each measurement to unit magnitude so
        that near poses (with much stronger channels) do not dominate
        the projection — the standard SAR back-projection weighting.
        """
        _, channels = _validate(self.positions, channels, frequency_hz)
        with tracing.span(
            "sar.project", poses=self.n_poses, points=self.n_points
        ):
            metrics.count("localization.sar.grid_points", self.n_points)
            weights = unit_weights(channels) if normalize else channels
            k = _k_factor(frequency_hz)
            if self._chunks is None:
                sums = _project(
                    self.positions, self._nodes, weights, k, self.chunk_nodes
                )
            else:
                sums = (
                    (node_slice, _phase_sums(k * distances_m, weights))
                    for node_slice, distances_m in self._chunks
                )
            values = np.empty(self.n_points)
            for node_slice, total in sums:
                values[node_slice] = np.abs(total)
            return values / len(weights)

    def rssi_mismatch(self, distances_m: np.ndarray) -> np.ndarray:
        """Mean squared distance mismatch per candidate (RSSI baseline).

        ``distances_m`` holds one RSSI-inverted relay-tag distance per
        pose; the score is the mean over poses of the squared error
        against this geometry's predicted distances.
        """
        distances_m = np.asarray(distances_m, dtype=float)
        if distances_m.shape != (self.n_poses,):
            raise LocalizationError(
                f"expected {self.n_poses} distances, got {distances_m.shape}"
            )
        with tracing.span(
            "sar.rssi_mismatch", poses=self.n_poses, points=self.n_points
        ):
            metrics.count("localization.rssi.grid_points", self.n_points)
            mismatch = np.empty(self.n_points)
            chunks = (
                self._streamed_distances()
                if self._chunks is None
                else self._chunks
            )
            for node_slice, predicted_m in chunks:
                mismatch[node_slice] = np.mean(
                    (predicted_m - distances_m[:, None]) ** 2, axis=0
                )
            return mismatch


def grid_geometry(
    positions: np.ndarray,
    grid: Grid2D,
    chunk_nodes: int = DEFAULT_CHUNK_NODES,
) -> SarGeometry:
    """Geometry between a trajectory and every node of a search grid."""
    return SarGeometry._on_grid(positions, grid, chunk_nodes)


def sar_profile(
    positions: np.ndarray,
    channels: np.ndarray,
    points: np.ndarray,
    frequency_hz: float,
    normalize: bool = True,
    chunk_nodes: int = DEFAULT_CHUNK_NODES,
) -> np.ndarray:
    """P evaluated at arbitrary candidate points of shape (N, 2) or (N, 3).

    The formulation is dimension-agnostic: 2-D localization from a 1-D
    trajectory is the paper's main mode, and a 2-D (planar) trajectory
    yields a 3-D fix the same way (§5.2). Positions and points must
    share their dimensionality.

    One-shot wrapper over :class:`SarGeometry`; evaluating several
    frequencies (or the RSSI baseline) against the same trajectory and
    candidates should build the geometry once instead.
    """
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
    geometry: Optional[SarGeometry] = None,
) -> Heatmap:
    """P(x, y) over a whole grid (the images of paper Fig. 6).

    Pass a precomputed ``geometry`` (from :func:`grid_geometry` on the
    same trajectory and grid) to skip recomputing distances — the fast
    path the Fig. 13/14 sweeps use across frequencies and baselines.
    Without one, distances stream through the kernel chunk by chunk.
    """
    if geometry is None:
        geometry = SarGeometry._on_grid(
            positions, grid, chunk_nodes, store_distances=False
        )
    elif geometry.n_points != grid.n_points:
        raise LocalizationError(
            f"geometry covers {geometry.n_points} points but the grid has "
            f"{grid.n_points}; build it from this grid"
        )
    values = geometry.profile(channels, frequency_hz, normalize)
    return Heatmap(grid=grid, values=values.reshape(grid.shape))
