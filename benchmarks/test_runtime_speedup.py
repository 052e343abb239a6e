"""Engine acceptance bench: cache-warm regeneration is >= 3x faster.

Runs the Fig. 12 and Fig. 13 campaigns twice against one fresh cache —
serial cold, then parallel-configured warm — and asserts the warm pass
is at least 3x faster wall-clock while rendering byte-identical tables.
The timing deltas land in ``benchmarks/reports/BENCH_runtime.json`` and
the per-task costs in the run manifests under ``reports/manifests/``.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import fig12_localization, fig13_aperture
from repro.runtime import RuntimeConfig

from benchmarks.conftest import MANIFESTS_DIR

pytestmark = [pytest.mark.bench, pytest.mark.slow]

#: Acceptance floor: warm regeneration must be at least this much
#: faster than the serial cold pass.
MIN_SPEEDUP = 3.0

FIG12_TRIALS = 15
FIG13_TRIALS_PER_POINT = 4


def _campaigns():
    return {
        "fig12": lambda runtime: fig12_localization.format_result(
            fig12_localization.run(
                n_trials=FIG12_TRIALS, seed=0, runtime=runtime
            )
        ).report(),
        "fig13": lambda runtime: fig13_aperture.format_result(
            fig13_aperture.run(
                trials_per_point=FIG13_TRIALS_PER_POINT, seed=0, runtime=runtime
            )
        ).report(),
    }


@pytest.fixture(scope="module")
def speedup_record(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("speedup-cache")
    MANIFESTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {"min_speedup_required": MIN_SPEEDUP, "campaigns": {}}
    for name, regenerate in _campaigns().items():
        cold_config = RuntimeConfig(
            backend="serial", cache_dir=cache_dir, manifest_dir=MANIFESTS_DIR
        )
        start = time.perf_counter()
        cold_report = regenerate(cold_config)
        cold_wall_s = time.perf_counter() - start

        warm_config = RuntimeConfig(
            backend="process", cache_dir=cache_dir, manifest_dir=MANIFESTS_DIR
        )
        start = time.perf_counter()
        warm_report = regenerate(warm_config)
        warm_wall_s = time.perf_counter() - start

        record["campaigns"][name] = {
            "cold_wall_s": cold_wall_s,
            "warm_wall_s": warm_wall_s,
            "speedup_ratio": cold_wall_s / max(warm_wall_s, 1e-9),
            "reports_identical": cold_report == warm_report,
            "cold_report": cold_report,
        }
    return record


def test_warm_cache_is_3x_faster(speedup_record, save_bench_json):
    # The report is written before the floor is checked, so a run that
    # misses it still records what it measured.
    save_bench_json(
        "runtime",
        {
            "campaigns": {
                name: {
                    key: value
                    for key, value in row.items()
                    if key != "cold_report"
                }
                for name, row in speedup_record["campaigns"].items()
            },
        },
        context={
            "min_speedup_required": speedup_record["min_speedup_required"]
        },
    )
    for name, row in speedup_record["campaigns"].items():
        assert row["speedup_ratio"] >= MIN_SPEEDUP, (
            f"{name}: warm regeneration only {row['speedup_ratio']:.1f}x "
            f"faster ({row['cold_wall_s']:.2f}s cold vs "
            f"{row['warm_wall_s']:.2f}s warm)"
        )


def test_warm_tables_bit_identical(speedup_record):
    for name, row in speedup_record["campaigns"].items():
        assert row["reports_identical"], (
            f"{name}: warm table drifted from the cold table"
        )


def test_manifests_written(speedup_record):
    for name in ("fig12_localization", "fig13_aperture"):
        path = MANIFESTS_DIR / f"{name}.json"
        assert path.exists(), f"missing run manifest {path}"
