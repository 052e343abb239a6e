"""The benchmark's three workloads: inputs, timed loop and output checks.

Each workload is a closed loop with one client. The workload seed
picks inputs from a fixed pool whose reference outputs were recorded
on the commit that defined the benchmark (``references/*.json``,
written by ``record.py``), so every seed can be checked:

- ``fig12`` draws a seed-dependent order over the trial pool of the
  Fig. 12 campaign (campaign seed 0, trial seeds ``0..N-1``).
- ``serve_replay`` picks one of the recorded stream seeds
  (``seed % len(pool)``) and replays that stream pass after pass.
- ``soak`` draws a seed-dependent order over the pooled epochs of a
  few ``SoakConfig`` seeds.

``repro`` is imported inside methods only: the module must load in a
checkout without the package (the runner then fails cleanly).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.collector import Collector

REFERENCES = Path(__file__).resolve().parent / "references"

#: Absolute tolerance of the position/error checks.
TOLERANCE_M = 1e-9


class OutputMismatch(Exception):
    """A workload's output differs from its recorded reference."""

    def __init__(self, workload: str, check: str, detail: str) -> None:
        super().__init__(f"{workload}: output check '{check}' failed: {detail}")
        self.workload = workload
        self.check = check


@dataclass
class ItemResult:
    """What one loop item (trial, replay pass or epoch) produced."""

    #: Wall seconds of each client operation.
    op_s: List[float] = field(default_factory=list)
    #: Wall seconds of each fix (one tag's final estimate).
    fix_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Updates offered and lost, where a workload's ``failed_fraction``
    #: counts updates rather than operations (soak).
    offered: int = 0
    lost: int = 0
    #: Checked against the reference by :meth:`Workload.check`.
    output: Any = None


def load_reference(name: str) -> Dict[str, Any]:
    """The recorded reference of one workload."""
    with open(REFERENCES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Interface of one benchmark workload."""

    name = ""
    #: What one client operation is, and the tail it reports.
    op = ""
    op_tail_q = 90.0
    fix_tail_q = 90.0
    #: Fewest loop items a run makes (enough for both named tails).
    min_items = 1
    #: Operations and fixes each loop item yields at least.
    ops_per_item = 1
    fixes_per_item = 1

    def import_entry_modules(self) -> None:
        """Import what the workload calls (timed as ``setup.import_s``)."""
        raise NotImplementedError

    def build_inputs(self, seed: int) -> Any:
        """Everything the timed loop needs, generated from ``seed``."""
        raise NotImplementedError

    def items(self, inputs: Any) -> Iterator[Any]:
        """The loop items, in order (cycling over the pool)."""
        raise NotImplementedError

    def run_item(self, inputs: Any, item: Any, collector: Optional[Collector]) -> ItemResult:
        """Run and time one loop item."""
        raise NotImplementedError

    def check(self, inputs: Any, item: Any, result: ItemResult) -> None:
        """Raise :class:`OutputMismatch` unless ``result`` matches."""
        raise NotImplementedError

    def check_inputs(self, inputs: Any) -> None:
        """Raise :class:`OutputMismatch` unless the inputs match."""

    def _mark(self, collector: Optional[Collector], item: str) -> None:
        if collector is not None:
            collector.item = item


class Fig12(Workload):
    """Fig. 12 trials: ``warehouse_trial`` then ``Localizer.locate``."""

    name = "fig12"
    op = "trial"
    op_tail_q = 90.0
    min_items = 100
    scenario = "paper_warehouse_two_floor"

    def import_entry_modules(self) -> None:
        import repro.localization  # noqa: F401
        import repro.scenarios.trials  # noqa: F401

    def build_inputs(self, seed: int) -> Dict[str, Any]:
        import numpy as np
        from repro.scenarios import registry

        reference = load_reference(self.name)
        # One trial from each pair of trials of similar cost, in a
        # seed-dependent order: every seed gets the same mix of cheap
        # and expensive trials.
        rng = np.random.default_rng(seed)
        pairs = reference["pairs"]
        picks = rng.integers(2, size=len(pairs))
        trials = [pair[pick] for pair, pick in zip(pairs, picks)]
        return {
            "spec": registry.resolve(self.scenario),
            "reference": reference,
            "trials": [trials[i] for i in rng.permutation(len(trials))],
        }

    def items(self, inputs: Dict[str, Any]) -> Iterator[int]:
        return itertools.cycle(inputs["trials"])

    def run_item(self, inputs: Dict[str, Any], item: int, collector: Optional[Collector]) -> ItemResult:
        from repro.constants import UHF_CENTER_FREQUENCY
        from repro.localization import Localizer
        from repro.scenarios import trials

        self._mark(collector, f"trial:{item}")
        result = ItemResult(attempted=1)
        clock = time.perf_counter
        start = clock()
        try:
            localizer = Localizer(frequency_hz=UHF_CENTER_FREQUENCY)
            scenario = trials.warehouse_trial(inputs["spec"], item)
            fix_start = clock()
            estimate = localizer.locate(
                scenario.measurements, search_grid=scenario.search_grid
            )
            fix_end = clock()
            error_m = estimate.error_to(scenario.tag_position)
        except Exception:  # a raising trial is a failed operation
            result.op_s.append(clock() - start)
            result.failed = 1
            return result
        result.op_s.append(clock() - start)
        result.fix_s.append(fix_end - fix_start)
        result.failed = 0 if math.isfinite(error_m) else 1
        result.output = error_m
        return result

    def check(self, inputs: Dict[str, Any], item: int, result: ItemResult) -> None:
        expected = inputs["reference"]["errors_m"][item]
        if result.output is None:
            raise OutputMismatch(self.name, "trial_error", f"trial {item} raised")
        if not abs(result.output - expected) <= TOLERANCE_M:
            raise OutputMismatch(
                self.name,
                "trial_error",
                f"trial {item}: error {result.output!r} m, reference {expected!r} m",
            )


def stream_digest(workload: Any) -> str:
    """SHA-256 over every bit of a generated update stream."""
    import numpy as np

    digest = hashlib.sha256()
    for event in workload.events:
        m = event.measurement
        digest.update(event.session_id.encode() + b"\0" + m.relay.encode() + b"\0")
        digest.update(np.asarray(m.position, dtype=float).tobytes())
        digest.update(
            struct.pack(
                "<7d",
                event.time_s,
                m.h_target.real,
                m.h_target.imag,
                m.h_reference.real,
                m.h_reference.imag,
                m.snr_db,
                m.time,
            )
        )
    for session_id in sorted(workload.grids):
        grid = workload.grids[session_id]
        digest.update(session_id.encode() + b"\0")
        digest.update(
            struct.pack(
                "<5d", grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.resolution
            )
        )
        digest.update(np.asarray(workload.tag_positions[session_id], dtype=float).tobytes())
    digest.update(struct.pack("<d", workload.duration_s))
    return digest.hexdigest()


class ServeReplay(Workload):
    """One generated stream replayed through ``LocalizationService``."""

    name = "serve_replay"
    op = "update"
    op_tail_q = 99.0
    #: One pass already supports both tails (a pass holds ~8.4k updates
    #: and one fix per tag). Per-update cost swings with the load other
    #: tenants put on the host over seconds, so a run averages five
    #: passes (about 30 s) to keep run-to-run spread inside the bound.
    min_items = 5
    ops_per_item = 8000
    fixes_per_item = 120

    def import_entry_modules(self) -> None:
        import repro.scenarios.compiler  # noqa: F401
        import repro.serve.service  # noqa: F401

    #: The replayed world: ~120 tags on the conveyor, 0.10 m grid.
    scenario = "conveyor_flow_through"
    n_tags = 120
    load = 1.0
    grid_resolution_m = 0.10

    def build_stream(self, stream_seed: int) -> Dict[str, Any]:
        """The update stream of one seed and the service config."""
        from repro.scenarios import compiler, registry
        from repro.serve.config import ServeConfig

        spec = registry.resolve(self.scenario)
        workload = compiler.generate_workload(
            spec,
            n_tags=self.n_tags,
            seed=stream_seed,
            load=self.load,
            grid_resolution=self.grid_resolution_m,
            use_gen2_mac=False,
        )
        return {
            "workload": workload,
            "config": ServeConfig(frequency_hz=spec.radio.center_frequency_hz),
        }

    def build_inputs(self, seed: int) -> Dict[str, Any]:
        streams = load_reference(self.name)["streams"]
        stream = streams[seed % len(streams)]
        return dict(self.build_stream(stream["stream_seed"]), stream=stream)

    def items(self, inputs: Dict[str, Any]) -> Iterator[int]:
        return itertools.count()

    def run_item(self, inputs: Dict[str, Any], item: int, collector: Optional[Collector]) -> ItemResult:
        from repro.serve.queueing import Admission
        from repro.serve.service import LocalizationService

        workload = inputs["workload"]
        service = LocalizationService(inputs["config"])
        for session_id in sorted(workload.grids):
            service.open_session(session_id, workload.grids[session_id], now_s=0.0)
        result = ItemResult()
        clock = time.perf_counter
        op_s = result.op_s
        rejected = 0
        for event in workload.events:
            self._mark(collector, f"session:{event.session_id}")
            start = clock()
            admission = service.submit(
                event.session_id, event.measurement, now_s=event.time_s
            )
            service.step()
            op_s.append(clock() - start)
            if admission is not Admission.ACCEPTED:
                rejected += 1
        self._mark(collector, "drain")
        service.drain()
        estimates: Dict[str, Tuple[float, float]] = {}
        raised = 0
        for session_id in sorted(workload.grids):
            self._mark(collector, f"session:{session_id}")
            start = clock()
            try:
                fix = service.finalize(session_id)
            except Exception:  # a raising finalize is a failed operation
                raised += 1
                continue
            result.fix_s.append(clock() - start)
            estimates[session_id] = (float(fix.position[0]), float(fix.position[1]))
        result.attempted = len(workload.events) + len(workload.grids)
        result.failed = rejected + raised
        result.output = estimates
        return result

    def check_inputs(self, inputs: Dict[str, Any]) -> None:
        expected = inputs["stream"]["digest"]
        actual = stream_digest(inputs["workload"])
        if actual != expected:
            raise OutputMismatch(
                self.name,
                "stream_digest",
                f"stream seed {inputs['stream']['stream_seed']}: "
                f"digest {actual}, reference {expected}",
            )

    def check(self, inputs: Dict[str, Any], item: int, result: ItemResult) -> None:
        expected = inputs["stream"]["estimates_m"]
        if set(result.output) != set(expected):
            missing = sorted(set(expected) ^ set(result.output))
            raise OutputMismatch(
                self.name, "final_estimate", f"sessions differ: {missing[:5]}"
            )
        for session_id, (x, y) in result.output.items():
            ex, ey = expected[session_id]
            distance = math.hypot(x - ex, y - ey)
            if not distance <= TOLERANCE_M:
                raise OutputMismatch(
                    self.name,
                    "final_estimate",
                    f"{session_id}: estimate ({x!r}, {y!r}) is {distance:.3g} m "
                    f"from reference ({ex!r}, {ey!r})",
                )


class FixTimer:
    """Times every ``LocalizationService.finalize`` call while installed."""

    def __init__(self) -> None:
        self.samples_s: List[float] = []
        self._original: Optional[Callable[..., Any]] = None

    def __enter__(self) -> "FixTimer":
        from repro.serve.service import LocalizationService

        original = LocalizationService.__dict__["finalize"]
        samples = self.samples_s
        clock = time.perf_counter

        def finalize(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            fix = original(*args, **kwargs)
            samples.append(clock() - start)
            return fix

        self._original = original
        LocalizationService.finalize = finalize  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.serve.service import LocalizationService

        LocalizationService.finalize = self._original  # type: ignore[method-assign]


class Soak(Workload):
    """``soak_epoch`` over the tasks of ``build_epoch_tasks``."""

    name = "soak"
    op = "epoch"
    #: A run holds ~25 epochs: p60 is the highest tail they support.
    op_tail_q = 60.0
    min_items = 25
    #: Every epoch fixes the scenario's four tags.
    fixes_per_item = 4

    def import_entry_modules(self) -> None:
        import repro.soak.driver  # noqa: F401

    def build_inputs(self, seed: int) -> Dict[str, Any]:
        import numpy as np
        from repro.soak import driver

        reference = load_reference(self.name)
        tasks = []
        for soak_seed in reference["soak_seeds"]:
            config = driver.SoakConfig(seed=soak_seed)
            for task in driver.build_epoch_tasks(config):
                epoch = dict(task.params)["epoch"]
                tasks.append((f"{soak_seed}/{epoch}", task.kwargs()))
        order = np.random.default_rng(seed).permutation(len(tasks))
        return {"reference": reference["epochs"], "tasks": [tasks[i] for i in order]}

    def items(self, inputs: Dict[str, Any]) -> Iterator[Tuple[str, Dict[str, Any]]]:
        return itertools.cycle(inputs["tasks"])

    def run_item(
        self,
        inputs: Dict[str, Any],
        item: Tuple[str, Dict[str, Any]],
        collector: Optional[Collector],
    ) -> ItemResult:
        from repro.soak import driver

        key, kwargs = item
        self._mark(collector, f"epoch:{key}")
        result = ItemResult(attempted=1)
        clock = time.perf_counter
        with FixTimer() as fixes:
            start = clock()
            try:
                snapshot = driver.soak_epoch(**kwargs)
            except Exception:  # a raising epoch is a failed operation
                snapshot = None
            result.op_s.append(clock() - start)
        result.fix_s = fixes.samples_s
        if snapshot is None:
            result.failed = 1
            result.offered = result.lost = inputs["reference"][key]["offered"]
            return result
        result.offered = snapshot["offered"]
        result.lost = snapshot["shed"] + snapshot["rejected"] + snapshot["lost"]
        result.output = {
            "offered": snapshot["offered"],
            "error_samples_m": list(snapshot["error_samples_m"]),
        }
        return result

    def check(
        self,
        inputs: Dict[str, Any],
        item: Tuple[str, Dict[str, Any]],
        result: ItemResult,
    ) -> None:
        key = item[0]
        expected = inputs["reference"][key]
        if result.output is None:
            raise OutputMismatch(self.name, "epoch", f"epoch {key} raised")
        if result.output["offered"] != expected["offered"]:
            raise OutputMismatch(
                self.name,
                "offered",
                f"epoch {key}: offered {result.output['offered']}, "
                f"reference {expected['offered']}",
            )
        actual = result.output["error_samples_m"]
        reference = expected["error_samples_m"]
        if len(actual) != len(reference) or any(
            not abs(a - r) <= TOLERANCE_M for a, r in zip(actual, reference)
        ):
            raise OutputMismatch(
                self.name,
                "error_samples",
                f"epoch {key}: errors {actual}, reference {reference}",
            )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Fig12(), ServeReplay(), Soak())}
