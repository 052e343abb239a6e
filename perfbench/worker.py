"""One workload in one fresh interpreter (started by ``run.py``).

Protocol on standard output: ``READY`` once imports and inputs are
built (the runner times set-up up to that line), then, in ``run``
mode, one ``RESULT <json>`` line. An output mismatch or an
unsupported tail exits with code 3 and a message naming the workload
and the check on standard error.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs every item twice, unwrapped and with every entry
point of :mod:`perfbench.layers` wrapped, and reports per-layer
metrics plus the tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import stats
from perfbench.collector import Collector
from perfbench.layers import ENTRY_POINTS, layer_metrics
from perfbench.workloads import WORKLOADS, OutputMismatch

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Hard stop for the timed loop: a run that cannot reach its minimum
#: item count by then is refused rather than reported.
MAX_LOOP_S = 140.0


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"perfbench: repro imported from {location}, not {ROOT / 'src'}")


def run_loop(
    workload: Any, inputs: Any, seconds: float, min_items: int
) -> Tuple[List[Any], List[Any], float]:
    """Run items until ``seconds`` pass and ``min_items`` are done.

    Returns the items, their results and the loop's wall time.
    """
    done: List[Any] = []
    results: List[Any] = []
    start = time.perf_counter()
    for item in workload.items(inputs):
        results.append(workload.run_item(inputs, item, None))
        done.append(item)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(done) >= min_items:
            break
        if elapsed > MAX_LOOP_S:
            raise SystemExit(
                f"perfbench: {workload.name} did {len(done)} of "
                f"{min_items} items in {elapsed:.0f} s; refusing the run"
            )
    return done, results, time.perf_counter() - start


def end_to_end(workload: Any, results: List[Any], wall_s: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics, plus the workload's own names for them."""
    op_s = [s for r in results for s in r.op_s]
    fix_s = [s for r in results for s in r.fix_s]
    ops = stats.summarize(f"{workload.name} {workload.op} latency", op_s, workload.op_tail_q)
    fixes = stats.summarize(f"{workload.name} fix latency", fix_s, workload.fix_tail_q)
    # Throughput counts operations over the wall time spent in them.
    ops_per_s = len(op_s) / sum(op_s)
    offered = sum(r.offered for r in results)
    lost = sum(r.lost for r in results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": ops["p50"] * 1e3,
        "op_tail_ms": ops["tail"] * 1e3,
        "fix_p50_ms": fixes["p50"] * 1e3,
        "fix_p90_ms": fixes["tail"] * 1e3,
    }
    op = workload.op
    tail = f"p{workload.op_tail_q:g}"
    details = {
        f"{op}s_per_s": (ops_per_s, "1/s"),
        f"{op}_p50_ms": (ops["p50"] * 1e3, "ms"),
        f"{op}_{tail}_ms": (ops["tail"] * 1e3, "ms"),
        "fix_p50_ms": (fixes["p50"] * 1e3, "ms"),
        "fix_p90_ms": (fixes["tail"] * 1e3, "ms"),
        "failed_fraction": (
            (lost if offered else failed) / (offered if offered else attempted),
            "ratio",
        ),
        f"{op}_samples": (ops["n"], "count"),
        f"{op}_highest_supported_q": (ops["highest_q"], "percentile"),
        "fix_samples": (fixes["n"], "count"),
        "fix_highest_supported_q": (fixes["highest_q"], "percentile"),
        "loop_wall_s": (wall_s, "s"),
    }
    return metrics, details


def traced_run(
    workload: Any,
    inputs: Any,
    seconds: float,
    seed: int,
    setup_collector: Any,
    import_s: float,
    inputs_s: float,
) -> Tuple[List[Any], List[Any], Dict[str, float]]:
    """Every item twice, once unwrapped and once wrapped, for ``seconds``.

    The two runs of an item follow each other, in alternating order,
    so a change in machine speed during the run hits both halves of
    the overhead comparison alike. Returns every item run, their
    results and the per-layer metrics, and writes the per-item
    records to ``.perfbench-out``.
    """
    # One untimed item first, so lazy set-up inside the program lands
    # in neither half of the overhead comparison.
    workload.run_item(inputs, next(workload.items(inputs)), None)
    collector = Collector()
    items: List[Any] = []
    results: List[Any] = []
    wall_s = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    for k, item in enumerate(workload.items(inputs)):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            item_start = time.perf_counter()
            if traced:
                with collector:
                    collector.install(ENTRY_POINTS)
                    results.append(workload.run_item(inputs, item, collector))
            else:
                results.append(workload.run_item(inputs, item, None))
            wall_s[traced] += time.perf_counter() - item_start
            items.append(item)
        if time.perf_counter() - start >= seconds:
            break
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    records = setup_collector.records() + collector.records()
    trace_file.write_text(json.dumps({"workload": workload.name, "seed": seed, "records": records}, indent=1))
    metrics = layer_metrics(collector, wall_s[True], wall_s[False], import_s, inputs_s)
    return items, results, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracing = bool(args.trace)
    t0 = time.perf_counter()
    _import_program()
    workload.import_entry_modules()
    t1 = time.perf_counter()
    with Collector() as setup_collector:
        setup_collector.item = "setup"
        if tracing:
            setup_collector.install(ENTRY_POINTS)
        inputs = workload.build_inputs(args.seed)
    t2 = time.perf_counter()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    try:
        if tracing:
            items, results, metrics = traced_run(
                workload, inputs, args.seconds, args.seed, setup_collector, t1 - t0, t2 - t1
            )
            details: Dict[str, Any] = {}
        else:
            items, results, wall_s = run_loop(workload, inputs, args.seconds, workload.min_items)
        workload.check_inputs(inputs)
        for item, result in zip(items, results):
            workload.check(inputs, item, result)
        if not tracing:
            metrics, details = end_to_end(workload, results, wall_s)
    except OutputMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except stats.UnsupportedTail as exc:
        print(f"perfbench: {workload.name}: {exc}", file=sys.stderr)
        return 3
    payload = {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
        "details": details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
