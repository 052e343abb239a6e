"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig12 --seed 0 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (``perfbench/worker.py``),
one at a time, serially and without any result cache. ``setup_s`` is
the median over ``SETUP_REPEATS`` fresh interpreters of the time from
process start to the first timed operation; the last of them goes on
to the timed run. ``--trace 1`` instead prints the per-layer metrics
of a wrapped run. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; any
failed output check exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402  (needs ROOT on the path)

#: Fresh interpreters timed for ``setup_s`` (the last one runs the loop).
SETUP_REPEATS = 3
#: Every child must finish within this many seconds of the start.
DEADLINE_S = 170.0


class RunFailed(Exception):
    """A child interpreter failed or broke the protocol."""


def _benchmark_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Serial backends: one BLAS thread, so the run uses one core and
    # does not depend on whether the machine's other core is busy.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # soak checkpoints go through tempfile: keep them in the checkout.
    tmp = ROOT / ".perfbench-out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(args: argparse.Namespace, mode: str, deadline: float) -> Tuple[float, Optional[dict]]:
    """Start one worker; returns (set-up seconds, result payload)."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    start = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(0.0, deadline - start), child.kill)
    watchdog.start()
    try:
        setup_s: Optional[float] = None
        result: Optional[dict] = None
        assert child.stdout is not None
        for line in child.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
    finally:
        code = child.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None:
        raise RunFailed(f"{args.workload} worker ({mode}) exited with code {code}")
    if mode == "run" and result is None:
        raise RunFailed(f"{args.workload} worker printed no result")
    return setup_s, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.perf_counter() + DEADLINE_S
    setups: List[float] = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(args, "setup", deadline)[0])
        setup_s, result = run_child(args, "run", deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    assert result is not None

    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
        measured["peak_rss_mb"] = result["peak_rss_mb"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            print(f"perfbench: {args.workload} did not measure {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": measured[name], "unit": metric["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in result["details"].items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'setup_s':32s} {measured['setup_s']:14.6g} s   (median of {setups})")
        print(f"  {'peak_rss_mb':32s} {measured['peak_rss_mb']:14.6g} MiB")
    else:
        for name, entry in metrics.items():
            print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    summary = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
