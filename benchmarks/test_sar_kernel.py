"""SAR grid kernel microbench: the frozen norm/cexp projection vs the kernel.

Realizes the first Fig. 12 trials of ``paper_warehouse_two_floor`` and,
for each, evaluates the matched filter on the trial's coarse search
grid and on the fine grid the coarse-to-fine search refines to, then
scores every significant coarse peak with the §5.2 distance-to-
trajectory rule. One side runs the frozen oracle
(``tests/localization/sar_oracle.py``, the code the kernel replaced);
the other runs :func:`~repro.localization.sar.sar_heatmap` and
:func:`~repro.localization.peaks.distance_to_polyline`.

Claims, recorded in ``benchmarks/reports/BENCH_sar.json``:

* every heatmap value and every peak distance is bitwise equal;
* the kernel evaluates the grids at least 1.8x faster, and the peak
  rule at least 1.8x faster.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.localization import Localizer, disentangle_series, find_peaks, sar_heatmap
from repro.localization.peaks import distance_to_polyline
from repro.scenarios import registry, trials

from tests.localization import sar_oracle as oracle

pytestmark = [pytest.mark.bench, pytest.mark.slow]

#: Acceptance floor for both the grid evaluation and the peak rule.
MIN_SPEEDUP = 1.8
#: Best-of repetitions, interleaved (the first warms caches).
REPS = 5
TRIALS = 12
SCENARIO = "paper_warehouse_two_floor"
#: The Localizer's peak threshold.
RELATIVE_THRESHOLD = 0.7
F = UHF_CENTER_FREQUENCY


def _cases() -> List[Tuple[np.ndarray, np.ndarray, list, list]]:
    """Per trial: poses, channels, (coarse, fine) grids, peak positions."""
    spec = registry.resolve(SCENARIO)
    localizer = Localizer(frequency_hz=F, relative_threshold=RELATIVE_THRESHOLD)
    cases = []
    for seed in range(TRIALS):
        scenario = trials.warehouse_trial(spec, seed)
        positions, channels = disentangle_series(scenario.measurements)
        result = localizer.locate(scenario.measurements, search_grid=scenario.search_grid)
        peaks = find_peaks(result.coarse_heatmap, relative_threshold=RELATIVE_THRESHOLD)
        grids = [scenario.search_grid, result.fine_heatmap.grid]
        cases.append((positions, channels, grids, [p.position for p in peaks]))
    return cases


def _heatmaps(heatmap: Callable, cases) -> List[np.ndarray]:
    return [
        heatmap(positions, channels, grid, F).values
        for positions, channels, grids, _ in cases
        for grid in grids
    ]


def _distances(distance: Callable, cases) -> List[float]:
    return [
        distance(peak, positions)
        for positions, _, _, peaks in cases
        for peak in peaks
    ]


def _race(*runs: Callable) -> List[Tuple[float, object]]:
    """Best-of-``REPS`` ms and last output of each run, runs interleaved."""
    best = [float("inf")] * len(runs)
    outputs: List[object] = [None] * len(runs)
    for _ in range(REPS):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            outputs[i] = run()
            best[i] = min(best[i], time.perf_counter() - start)
    return [(s * 1e3, output) for s, output in zip(best, outputs)]


@pytest.fixture(scope="module")
def sar_record() -> Dict[str, object]:
    cases = _cases()
    (oracle_ms, expected_maps), (kernel_ms, maps) = _race(
        lambda: _heatmaps(oracle.sar_heatmap, cases),
        lambda: _heatmaps(sar_heatmap, cases),
    )
    (oracle_rule_ms, expected_d), (kernel_rule_ms, distances) = _race(
        lambda: _distances(oracle.distance_to_polyline, cases),
        lambda: _distances(distance_to_polyline, cases),
    )
    return {
        "expected": (expected_maps, expected_d),
        "got": (maps, distances),
        "metrics": {
            "oracle_grids_ms": oracle_ms,
            "kernel_grids_ms": kernel_ms,
            "grids_speedup_ratio": oracle_ms / kernel_ms,
            "oracle_peak_rule_ms": oracle_rule_ms,
            "kernel_peak_rule_ms": kernel_rule_ms,
            "peak_rule_speedup_ratio": oracle_rule_ms / kernel_rule_ms,
            "trials": len(cases),
            "grids": len(maps),
            "projections": sum(
                len(positions) * grid.n_points
                for positions, _, grids, _ in cases
                for grid in grids
            ),
            "peaks": len(distances),
        },
    }


def test_heatmaps_and_distances_are_bitwise_equal(sar_record):
    expected_maps, expected_d = sar_record["expected"]
    maps, distances = sar_record["got"]
    for got, want in zip(maps, expected_maps):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert distances == expected_d


def test_kernel_is_1_8x_faster(sar_record):
    metrics = sar_record["metrics"]
    assert metrics["grids_speedup_ratio"] >= MIN_SPEEDUP, metrics
    assert metrics["peak_rule_speedup_ratio"] >= MIN_SPEEDUP, metrics


def test_write_report(sar_record, save_bench_json):
    save_bench_json(
        "sar",
        sar_record["metrics"],
        context={
            "frequency_hz": F,
            "min_speedup": MIN_SPEEDUP,
            "relative_threshold": RELATIVE_THRESHOLD,
            "reps": REPS,
            "scenario": SCENARIO,
            "trial_seeds": f"0..{TRIALS - 1}",
        },
    )
