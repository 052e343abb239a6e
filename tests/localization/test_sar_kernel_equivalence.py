"""The SAR grid kernel is bitwise-equal to the frozen norm/cexp projection.

``sar_oracle`` is the chunked ``np.linalg.norm`` + ``np.exp(1j*x)``
projection and the per-segment polyline loop that the kernel replaced.
Every comparison here is on bits, not tolerances: heatmaps (streamed
and through a stored :class:`SarGeometry`), scattered 2-D and 3-D
profiles, RSSI mismatch scores, the incremental fold, and the §5.2
distance-to-trajectory rule. Running on the test host also checks that
``cos``/``sin`` there give the same bits as ``cexp``, which the kernel
relies on.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import LocalizationError
from repro.localization import (
    Grid2D,
    IncrementalSar,
    SarGeometry,
    grid_geometry,
    sar_heatmap,
    sar_profile,
)
from repro.localization import sar
from repro.localization.peaks import distance_to_polyline

from tests.localization import sar_oracle as oracle

F = UHF_CENTER_FREQUENCY


def bits(array) -> np.ndarray:
    """The raw 64-bit patterns of a float or complex array."""
    return np.ascontiguousarray(array).view(np.uint64)


def assert_bits_equal(got, expected) -> None:
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    mismatched = int(np.count_nonzero(bits(got) != bits(expected)))
    assert mismatched == 0, f"{mismatched} of {got.size} values differ in bits"


# Shrinking favours round numbers, whose products are exact and hide
# rounding-order differences; an affine map with awkward constants
# keeps every coordinate inexact.
coord = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False).map(
    lambda x: x * 1.0000000471 + 0.31830988618379067
)
resolution = st.sampled_from([0.02, 0.05, 0.1, 0.13, 0.25])
chunk_nodes = st.one_of(
    st.integers(1, 40), st.integers(41, 5000), st.just(sar.DEFAULT_CHUNK_NODES)
)
frequency = st.sampled_from([902.75e6, F, 927.25e6])


@st.composite
def grids(draw, max_side: float = 3.0) -> Grid2D:
    x0, y0 = draw(coord), draw(coord)
    res = draw(resolution)
    width = draw(st.floats(res, max_side))
    height = draw(st.floats(res, max_side))
    return Grid2D(x0, x0 + width, y0, y0 + height, res)


@st.composite
def channels(draw, n: int) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    kind = draw(st.sampled_from(["random", "some_zero", "all_zero"]))
    if kind == "some_zero":
        values[rng.random(n) < 0.3] = 0.0
    elif kind == "all_zero":
        values[:] = 0.0
    return values


@st.composite
def trajectories(draw, grid: Grid2D) -> np.ndarray:
    """K poses spanning >= 0.5 m; some may sit exactly on grid nodes."""
    n = draw(st.integers(2, 200))
    start = np.array([draw(coord), draw(coord)])
    angle = draw(st.floats(0.0, 2 * np.pi))
    length = draw(st.floats(0.5, 4.0))
    steps = np.linspace(0.0, length, n)
    positions = start + steps[:, None] * np.array([np.cos(angle), np.sin(angle)])
    jitter = draw(st.floats(0.0, 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = positions + rng.normal(scale=jitter, size=positions.shape)
    on_nodes = draw(st.integers(0, min(n, 5)))
    for index in rng.choice(n, size=on_nodes, replace=False):
        positions[index] = [
            grid.xs[rng.integers(len(grid.xs))],
            grid.ys[rng.integers(len(grid.ys))],
        ]
    assert np.max(np.ptp(positions, axis=0)) > 0.1
    return positions


@st.composite
def scenes(draw):
    grid = draw(grids())
    positions = draw(trajectories(grid))
    return grid, positions, draw(channels(len(positions)))


class TestGridKernel:
    @settings(max_examples=120)
    @given(scenes(), frequency, st.booleans(), chunk_nodes)
    def test_heatmap_bitwise(self, scene, f, normalize, chunk):
        grid, positions, values = scene
        got = sar_heatmap(positions, values, grid, f, normalize, chunk_nodes=chunk)
        expected = oracle.sar_heatmap(
            positions, values, grid, f, normalize, chunk_nodes=chunk
        )
        assert_bits_equal(got.values, expected.values)

    @settings(max_examples=60)
    @given(scenes(), st.lists(frequency, min_size=1, max_size=3), chunk_nodes)
    def test_stored_geometry_bitwise(self, scene, fs, chunk):
        grid, positions, values = scene
        geometry = grid_geometry(positions, grid, chunk_nodes=chunk)
        reference = oracle.grid_geometry(positions, grid, chunk_nodes=chunk)
        assert geometry.stores_distances
        assert_bits_equal(geometry.points, reference.points)
        for f in fs:
            got = sar_heatmap(positions, values, grid, f, geometry=geometry)
            assert_bits_equal(got.values.ravel(), reference.profile(values, f))
        ranges = np.abs(values) + 1.0
        assert_bits_equal(
            geometry.rssi_mismatch(ranges), reference.rssi_mismatch(ranges)
        )

    @settings(max_examples=60)
    @given(
        st.integers(2, 200),
        st.integers(1, 3000),
        st.sampled_from([2, 3]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        chunk_nodes,
        st.sampled_from([None, True, False]),
    )
    def test_scattered_profile_bitwise(self, k, n, dim, normalize, seed, chunk, store):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-2.0, 2.0, size=(k, dim))
        positions[0, 0] = -2.5  # aperture of at least 0.5 m
        positions[1, 0] = 2.5
        points = rng.uniform(-4.0, 4.0, size=(n, dim))
        points[: min(n, k) // 2] = positions[: min(n, k) // 2]  # zero distances
        values = rng.normal(size=k) + 1j * rng.normal(size=k)
        values[rng.random(k) < 0.1] = 0.0
        expected = oracle.sar_profile(
            positions, values, points, F, normalize, chunk_nodes=chunk
        )
        got = sar_profile(positions, values, points, F, normalize, chunk_nodes=chunk)
        assert_bits_equal(got, expected)
        geometry = SarGeometry(positions, points, chunk_nodes=chunk, store_distances=store)
        assert_bits_equal(geometry.profile(values, F, normalize), expected)
        ranges = rng.uniform(0.5, 5.0, size=k)
        assert_bits_equal(
            geometry.rssi_mismatch(ranges),
            oracle.SarGeometry(positions, points, chunk_nodes=chunk).rssi_mismatch(ranges),
        )

    @settings(max_examples=60)
    @given(scenes(), chunk_nodes, st.lists(st.integers(1, 60), min_size=1, max_size=6))
    def test_incremental_fold_bitwise(self, scene, chunk, sizes):
        grid, positions, values = scene
        inc = IncrementalSar(F, grid, chunk_nodes=chunk)
        accumulator = np.zeros(grid.n_points, dtype=complex)
        nodes = oracle.grid_nodes(grid)
        start = 0
        for size in sizes + [len(positions)]:
            stop = min(start + size, len(positions))
            if stop > start:
                inc.update(positions[start:stop], values[start:stop])
                oracle.incremental_fold(
                    accumulator,
                    nodes,
                    positions[start:stop],
                    values[start:stop],
                    F,
                    chunk_nodes=chunk,
                )
            start = stop
        assert_bits_equal(inc._accumulator, accumulator)
        assert_bits_equal(inc.grid_nodes(), nodes)

    @pytest.mark.parametrize("chunk", [1, 5, 17, 18, 19, 35, 36, 37, 100, 179, 10_000])
    def test_chunk_boundaries_mid_row(self, chunk):
        # 18 columns: chunk widths below, at and above one and two rows,
        # and 179, whose last chunk holds one node (a pairwise sum).
        grid = Grid2D(-0.4, 1.3, 0.2, 1.1, 0.1)
        assert grid.shape[1] == 18
        rng = np.random.default_rng(chunk)
        positions = np.column_stack([np.linspace(-1.0, 1.0, 30), np.full(30, -0.7)])
        values = rng.normal(size=30) + 1j * rng.normal(size=30)
        got = sar_heatmap(positions, values, grid, F, chunk_nodes=chunk)
        expected = oracle.sar_heatmap(positions, values, grid, F, chunk_nodes=chunk)
        assert_bits_equal(got.values, expected.values)

    def test_chunk_nodes_validated_on_every_path(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.1)
        positions = np.column_stack([np.linspace(0.0, 1.0, 5), np.zeros(5)])
        values = np.ones(5, dtype=complex)
        with pytest.raises(LocalizationError, match="chunk_nodes"):
            sar_heatmap(positions, values, grid, F, chunk_nodes=0)
        with pytest.raises(LocalizationError, match="chunk_nodes"):
            IncrementalSar(F, grid, chunk_nodes=0).update(positions, values)


class TestChunkMemoryBound:
    def test_large_grid_streams_in_bounded_chunks(self, monkeypatch):
        # K*N is 400x the (lowered) element budget. Each chunk holds a
        # float and a complex (K, width) buffer, so the peak beyond the
        # N-sized outputs is a small multiple of the budget.
        budget = 20_000
        monkeypatch.setattr(sar, "_MAX_CHUNK_ELEMENTS", budget)
        grid = Grid2D(-2.0, 2.0, 0.5, 4.5, 0.02)
        k = 200
        assert k * grid.n_points > 400 * budget
        rng = np.random.default_rng(3)
        positions = np.column_stack([np.linspace(-1.0, 1.0, k), np.zeros(k)])
        values = rng.normal(size=k) + 1j * rng.normal(size=k)
        tracemalloc.start()
        try:
            got = sar_heatmap(positions, values, grid, F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = 3 * 8 * grid.n_points  # values, normalized copy, heatmap
        bound = outputs + 4 * 24 * budget
        assert peak < bound, f"peak {peak} B exceeds {bound} B"
        # The oracle keeps the stock budget; give it the same chunks.
        expected = oracle.sar_heatmap(positions, values, grid, F, chunk_nodes=budget // k)
        assert_bits_equal(got.values, expected.values)


@st.composite
def polylines(draw):
    """Paths with repeated vertices (zero-length segments) and 1 point."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.normal(scale=draw(st.sampled_from([0.01, 0.3, 2.0])), size=(n, 2))
    path = np.array([draw(coord), draw(coord)]) + np.cumsum(steps, axis=0)
    if n > 1:
        repeats = rng.random(n - 1) < draw(st.sampled_from([0.0, 0.3, 1.0]))
        for index in np.nonzero(repeats)[0]:
            path[index + 1] = path[index]
    return path


class TestPolylineRule:
    @settings(max_examples=300)
    @given(polylines(), coord, coord)
    def test_distance_bitwise(self, path, x, y):
        assert distance_to_polyline((x, y), path) == oracle.distance_to_polyline(
            (x, y), path
        )

    @settings(max_examples=100)
    @given(polylines(), st.floats(1.0, 50.0), st.booleans())
    def test_beyond_either_end_bitwise(self, path, reach, before):
        # Points on the extension of the first or last segment project
        # past the path, so the clamp at t = 0 or t = 1 decides.
        if len(path) == 1:
            a, b = path[0] - np.array([0.1, 0.2]), path[0]
        else:
            a, b = (path[1], path[0]) if before else (path[-2], path[-1])
        point = b + reach * (b - a)
        assert distance_to_polyline(point, path) == oracle.distance_to_polyline(
            point, path
        )

    def test_point_on_vertex_and_degenerate_path(self):
        path = np.array([[0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])
        for point in ([0.1, 0.2], [1.7, -0.3]):
            assert distance_to_polyline(point, path) == oracle.distance_to_polyline(
                point, path
            )
