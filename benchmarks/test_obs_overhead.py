"""Observability acceptance bench (ISSUE 3 criteria).

Three claims about the ``repro.obs`` layer, measured on real figure
campaigns:

1. **Overhead** — regenerating Fig. 12 with tracing + metrics attached
   costs < 5% wall time over the unobserved run (best-of-N both arms).
2. **Coverage** — in a serial traced run the per-task root spans
   account for >= 90% of the sweep's measured wall time.
3. **Transparency** — every golden table is byte-identical with the
   full observer stack attached.

The measured numbers land in ``benchmarks/reports/BENCH_obs.json``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.obs.observers import (
    MetricsObserver,
    TraceMallocObserver,
    TraceObserver,
    task_span_coverage,
)
from repro.runtime import RuntimeConfig

pytestmark = [pytest.mark.bench, pytest.mark.slow]

GOLDEN_DIR = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "experiments"
    / "golden"
)

#: Acceptance ceiling on the traced/untraced wall-time ratio.
MAX_OVERHEAD_RATIO = 1.05

#: Acceptance floor on task-span wall-time coverage (serial run).
MIN_SPAN_COVERAGE = 0.90

BEST_OF = 10
FIG12_TRIALS = 10


def _time_fig12(observers):
    """Wall seconds of one Fig. 12 regeneration with ``observers``."""
    start_s = time.perf_counter()
    registry.run_experiment(
        "fig12",
        RuntimeConfig(),
        n_trials=FIG12_TRIALS,
        observers=observers,
    )
    return time.perf_counter() - start_s


@pytest.fixture(scope="module")
def obs_record(tmp_path_factory):
    # Best-of-N per arm, with the arms interleaved: run back to back,
    # a change in host load between the two arms would read as
    # observer overhead.
    plain_s = observed_s = float("inf")
    for _ in range(BEST_OF):
        plain_s = min(plain_s, _time_fig12([]))
        observed_s = min(
            observed_s, _time_fig12([TraceObserver(), MetricsObserver()])
        )
    traced = registry.run_experiment(
        "fig12",
        RuntimeConfig(backend="serial"),
        n_trials=FIG12_TRIALS,
        observers=[TraceObserver()],
    )
    return {
        "fig12_trials": FIG12_TRIALS,
        "best_of": BEST_OF,
        "plain_wall_s": plain_s,
        "observed_wall_s": observed_s,
        "overhead_ratio": observed_s / plain_s,
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "task_span_coverage_fraction": task_span_coverage(
            traced.sweep.manifest
        ),
        "min_span_coverage": MIN_SPAN_COVERAGE,
    }


def test_tracing_overhead_below_five_percent(obs_record, save_bench_json):
    save_bench_json(
        "obs",
        {
            "plain_wall_s": obs_record["plain_wall_s"],
            "observed_wall_s": obs_record["observed_wall_s"],
            "overhead_ratio": obs_record["overhead_ratio"],
            "task_span_coverage_fraction": obs_record[
                "task_span_coverage_fraction"
            ],
        },
        context={
            "fig12_trials": obs_record["fig12_trials"],
            "best_of": obs_record["best_of"],
            "max_overhead_ratio": obs_record["max_overhead_ratio"],
            "min_span_coverage": obs_record["min_span_coverage"],
        },
    )
    assert obs_record["overhead_ratio"] < MAX_OVERHEAD_RATIO, (
        f"tracing overhead {100 * (obs_record['overhead_ratio'] - 1):.1f}% "
        f"exceeds the {100 * (MAX_OVERHEAD_RATIO - 1):.0f}% budget"
    )


def test_task_spans_cover_ninety_percent_of_wall_time(obs_record):
    coverage = obs_record["task_span_coverage_fraction"]
    assert coverage >= MIN_SPAN_COVERAGE, (
        f"task spans cover only {100 * coverage:.1f}% of sweep wall time"
    )


@pytest.mark.parametrize("spec", registry.REGISTRY, ids=lambda s: s.alias)
def test_golden_tables_identical_with_observers(spec):
    run = registry.run_experiment(
        spec,
        RuntimeConfig(),
        smoke=True,
        observers=[TraceObserver(), MetricsObserver(), TraceMallocObserver()],
    )
    text = "\n\n".join(output.report() for output in run.outputs) + "\n"
    expected = (GOLDEN_DIR / spec.golden_filename).read_text(encoding="utf-8")
    assert text == expected, (
        f"{spec.name} table drifted when observers were attached"
    )
