"""Record the reference outputs the benchmark checks against.

Run once, on the commit that defines the benchmark, from the root of
a checkout, with the single BLAS thread the benchmark uses::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src:. python3 -m perfbench.record [fig12 serve_replay soak]

It runs every pooled input through the same code path as the timed
loop and writes ``perfbench/references/<workload>.json``. Re-recording
on a later commit would hide a change in results, so later changes
must leave these files alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List

from perfbench.workloads import REFERENCES, WORKLOADS, stream_digest

#: Fig. 12 campaign seed 0, trials ``0..FIG12_TRIALS-1``.
FIG12_TRIALS = 200
#: Timings per trial behind the cost pairing, and the pairing group.
COST_REPEATS = 3
PAIR_GROUP = 20
#: Seeds of the serve_replay streams.
STREAM_SEEDS = tuple(range(8))
#: ``SoakConfig`` seeds whose epochs form the soak pool.
SOAK_SEEDS = tuple(range(6))


def record_fig12() -> Dict[str, Any]:
    """Per-trial errors, plus pairs of trials of similar cost.

    Costs are the median of ``COST_REPEATS`` timings of the trial and
    of its ``Localizer.locate``. Trials are sorted by trial cost into
    groups of ``PAIR_GROUP``; within a group, neighbours by locate
    cost form a pair. The benchmark draws one trial per pair.
    """
    from repro.scenarios import registry

    workload = WORKLOADS["fig12"]
    inputs = {"spec": registry.resolve(workload.scenario)}
    errors: List[float] = []
    trial_s: List[float] = []
    locate_s: List[float] = []
    for trial in range(FIG12_TRIALS):
        runs = [workload.run_item(inputs, trial, None) for _ in range(COST_REPEATS)]
        if any(run.output is None or run.output != runs[0].output for run in runs):
            raise SystemExit(f"fig12 trial {trial} failed or varied; not recording")
        errors.append(runs[0].output)
        trial_s.append(statistics.median(run.op_s[0] for run in runs))
        locate_s.append(statistics.median(run.fix_s[0] for run in runs))
    by_cost = sorted(range(FIG12_TRIALS), key=trial_s.__getitem__)
    pairs: List[List[int]] = []
    for start in range(0, FIG12_TRIALS, PAIR_GROUP):
        group = sorted(by_cost[start:start + PAIR_GROUP], key=locate_s.__getitem__)
        pairs.extend([group[k], group[k + 1]] for k in range(0, len(group), 2))
    return {
        "campaign_seed": 0,
        "errors_m": errors,
        "pairs": pairs,
        "trial_s": trial_s,
        "locate_s": locate_s,
    }


def record_serve_replay() -> Dict[str, Any]:
    workload = WORKLOADS["serve_replay"]
    streams: List[Dict[str, Any]] = []
    for stream_seed in STREAM_SEEDS:
        inputs = workload.build_stream(stream_seed)
        result = workload.run_item(inputs, 0, None)
        if result.failed:
            raise SystemExit(f"serve_replay stream {stream_seed} failed; not recording")
        streams.append(
            {
                "stream_seed": stream_seed,
                "events": len(inputs["workload"].events),
                "digest": stream_digest(inputs["workload"]),
                "estimates_m": {sid: list(xy) for sid, xy in sorted(result.output.items())},
            }
        )
    return {"streams": streams}


def record_soak() -> Dict[str, Any]:
    from repro.soak import driver

    workload = WORKLOADS["soak"]
    epochs: Dict[str, Any] = {}
    for soak_seed in SOAK_SEEDS:
        for task in driver.build_epoch_tasks(driver.SoakConfig(seed=soak_seed)):
            key = f"{soak_seed}/{dict(task.params)['epoch']}"
            result = workload.run_item({}, (key, task.kwargs()), None)
            if result.output is None:
                raise SystemExit(f"soak epoch {key} failed; not recording")
            epochs[key] = result.output
    return {"soak_seeds": list(SOAK_SEEDS), "epochs": epochs}


def _dump(name: str, reference: Dict[str, Any]) -> None:
    REFERENCES.mkdir(exist_ok=True)
    path = REFERENCES / f"{name}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


RECORDERS = {
    "fig12": record_fig12,
    "serve_replay": record_serve_replay,
    "soak": record_soak,
}


def main(argv: List[str]) -> int:
    for name in argv or list(RECORDERS):
        _dump(name, RECORDERS[name]())
        print(f"recorded {REFERENCES / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
