"""The entry points the traced run wraps, grouped by ``repro`` layer.

Each entry point is patched at the name its callers resolve: the
module global for ``from x import f`` bindings, the class attribute
for methods. :func:`layer_metrics` turns a finished
:class:`~perfbench.collector.Collector` into the ``per_layer`` metrics
of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from perfbench.collector import EntryPoint

Args = Tuple[Any, ...]


def _count_rays(counts: Dict[str, float], rays: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    # trace_rays(a, b, walls, max_reflections=...)
    counts["channel.rays"] += len(rays)
    walls = args[2] if len(args) > 2 else kwargs["walls"]
    counts["channel.wall_tests"] += len(walls)


def _count_inventory(counts: Dict[str, float], round_: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    counts["gen2.slots"] += len(round_.slots)
    counts["gen2.successes"] += round_.successes
    counts["gen2.collisions"] += round_.collisions
    counts["gen2.idles"] += round_.idles
    counts["gen2.commands_sent"] += round_.commands_sent


def _count_reads(counts: Dict[str, float], read: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    counts["sim.reads"] += len(read)


def _count_projections(counts: Dict[str, float], heatmap: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    # sar_heatmap(positions, channels, grid, frequency_hz, ...)
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    counts["localization.sar_projections"] += len(args[0]) * grid.n_points


def _count_incremental(counts: Dict[str, float], nodes: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    counts["localization.incremental_nodes"] += nodes


def _count_blocks(counts: Dict[str, float], nodes: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    counts["localization.fold_blocks.blocks"] += len(args[0])


def _count_admission(counts: Dict[str, float], admission: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    value = admission.value
    if value == "shed":
        counts["serve.shed"] += 1
    elif value == "rejected":
        counts["serve.rejected"] += 1


def _count_step(counts: Dict[str, float], report: Any, args: Args, kwargs: Dict[str, Any]) -> None:
    counts["serve.batches"] += report.batches
    counts["serve.degraded_batches"] += report.degraded_batches
    counts["serve.updates_applied"] += report.updates_applied


_SERVICE = "repro.serve.service:LocalizationService"

ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint(
        "channel.trace_rays", "channel",
        (("repro.channel.environment", "trace_rays"),), _count_rays,
    ),
    EntryPoint(
        "gen2.run_inventory", "gen2",
        (("repro.sim.events", "run_inventory"),), _count_inventory,
    ),
    EntryPoint(
        "sim.inventory_at_pose", "sim",
        (("repro.sim.events", "inventory_at_pose"), ("repro.sim.world", "inventory_at_pose")),
        _count_reads,
    ),
    EntryPoint(
        "localization.measure", "localization",
        (("repro.localization.measurement:MeasurementModel", "measure"),),
    ),
    EntryPoint(
        "localization.sar_heatmap", "localization",
        (
            ("repro.localization.multires", "sar_heatmap"),
            ("repro.localization.incremental", "sar_heatmap"),
        ),
        _count_projections,
    ),
    EntryPoint(
        "localization.locate", "localization",
        (("repro.localization.pipeline:Localizer", "locate"),),
    ),
    EntryPoint(
        "localization.incremental_update", "localization",
        (("repro.localization.incremental:IncrementalSar", "update"),), _count_incremental,
    ),
    EntryPoint(
        "localization.finalize_segments", "localization",
        (("repro.serve.session", "finalize_segments"),),
    ),
    EntryPoint(
        "localization.fold_blocks", "localization",
        (("repro.serve.service", "fold_blocks"),), _count_blocks,
    ),
    EntryPoint("serve.submit", "serve", ((_SERVICE, "submit"),), _count_admission),
    EntryPoint("serve.step", "serve", ((_SERVICE, "step"),), _count_step),
    EntryPoint("serve.drain", "serve", ((_SERVICE, "drain"),)),
    EntryPoint("serve.finalize", "serve", ((_SERVICE, "finalize"),)),
    EntryPoint(
        "serve.run_sharded_workload", "serve",
        (("repro.soak.driver", "run_sharded_workload"),),
    ),
    EntryPoint(
        "fleet.generate_fleet_workload", "fleet",
        (("repro.fleet.workload", "generate_fleet_workload"),),
    ),
    EntryPoint(
        "scenarios.realize_world", "scenarios",
        (
            ("repro.scenarios.compiler", "realize_world"),
            ("repro.scenarios.trials", "realize_world"),
            ("repro.fleet.workload", "realize_world"),
        ),
    ),
    EntryPoint(
        "scenarios.generate_workload", "scenarios",
        (("repro.scenarios.compiler", "generate_workload"),),
    ),
    EntryPoint(
        "scenarios.warehouse_trial", "scenarios",
        (("repro.scenarios.trials", "warehouse_trial"),),
    ),
    EntryPoint(
        "runtime.cache_store", "runtime", (("repro.runtime.cache:ResultCache", "store"),),
    ),
    EntryPoint(
        "runtime.cache_load", "runtime", (("repro.runtime.cache:ResultCache", "load"),),
    ),
    EntryPoint("soak.soak_epoch", "soak", (("repro.soak.driver", "soak_epoch"),)),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(entry.layer for entry in ENTRY_POINTS))

#: Work counts read from return values and arguments.
COUNTS: Tuple[str, ...] = (
    "channel.rays",
    "channel.wall_tests",
    "gen2.slots",
    "gen2.collisions",
    "gen2.idles",
    "gen2.commands_sent",
    "sim.reads",
    "localization.sar_projections",
    "localization.incremental_nodes",
    "localization.fold_blocks.blocks",
    "serve.shed",
    "serve.rejected",
    "serve.batches",
    "serve.degraded_batches",
)

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{e.name}.{suffix}", unit) for e in ENTRY_POINTS for suffix, unit in (("calls", "count"), ("self_s", "s")))
    + tuple((name, "count") for name in COUNTS)
    + (("gen2.slot_efficiency", "ratio"), ("serve.updates_per_batch", "count"))
    + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)
    + tuple((f"layer.{layer}.share", "ratio") for layer in LAYERS)
    + (
        ("setup.import_s", "s"),
        ("setup.inputs_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_share", "ratio"),
        ("trace.overhead", "ratio"),
    )
)


def layer_metrics(
    collector: Any,
    traced_wall_s: float,
    untraced_wall_s: float,
    import_s: float,
    inputs_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced run."""
    out: Dict[str, float] = {}
    for entry in ENTRY_POINTS:
        out[f"{entry.name}.calls"] = float(collector.calls.get(entry.name, 0))
        out[f"{entry.name}.self_s"] = collector.self_s.get(entry.name, 0.0)
    counts = collector.counts
    for name in COUNTS:
        out[name] = float(counts.get(name, 0.0))
    slots = counts.get("gen2.slots", 0.0)
    out["gen2.slot_efficiency"] = counts.get("gen2.successes", 0.0) / slots if slots else 0.0
    batches = counts.get("serve.batches", 0.0)
    out["serve.updates_per_batch"] = (
        counts.get("serve.updates_applied", 0.0) / batches if batches else 0.0
    )
    per_layer = collector.layer_self_s()
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = per_layer.get(layer, 0.0)
        out[f"layer.{layer}.share"] = per_layer.get(layer, 0.0) / traced_wall_s
    out["setup.import_s"] = import_s
    out["setup.inputs_s"] = inputs_s
    out["trace.wall_s"] = traced_wall_s
    out["trace.unattributed_share"] = 1.0 - collector.attributed_s() / traced_wall_s
    out["trace.overhead"] = traced_wall_s / untraced_wall_s - 1.0
    return out
