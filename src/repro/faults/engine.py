"""The seed-deterministic fault-injection engine and its hook helpers.

Production code calls the module-level helpers (:func:`dropped`,
:func:`corrupt_bits`, :func:`stall_s`, ...) at its injection sites.
They are no-ops costing one global read unless a :class:`FaultEngine`
is active — the same activate/restore discipline as
:mod:`repro.obs.metrics` — so the instrumented hot paths are
byte-identical with the engine disabled.

Determinism: the engine derives one independent random stream per
:class:`~repro.faults.spec.FaultSpec` via the runtime's
``SeedSequence`` spawn discipline
(:func:`repro.runtime.seeding.spawn_task_seeds`), and every hook keeps
a per-``(site, action)`` call counter. An injection therefore depends
only on ``(plan, seed, call sequence)`` — never on wall time, process
identity, or backend — which is what makes serial and process-pool
sweeps inject bit-identically (the property suite pins it).

Every injection emits a ``faults.injected.<site>.<action>`` counter and
a ``faults.inject`` span through :mod:`repro.obs`, and is appended to
the engine's picklable :class:`InjectionRecord` log for exact
comparison across backends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.faults.spec import FaultPlan, FaultSpec
from repro.obs import metrics, tracing
from repro.runtime.seeding import spawn_task_seeds


class InjectionRecord(NamedTuple):
    """One injection that actually fired (picklable, comparable)."""

    site: str
    action: str
    call_index: int
    spec_index: int


class FaultEngine:
    """Executes a :class:`FaultPlan` deterministically.

    Use :func:`engaged` rather than constructing engines ad hoc —
    reprolint's F601 enforces that outside :mod:`repro.faults`.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        n_specs = len(plan.specs)
        spec_seeds = spawn_task_seeds(self.seed, n_specs) if n_specs else []
        self._rngs = [np.random.default_rng(s) for s in spec_seeds]
        self._calls: Dict[Tuple[str, str], int] = {}
        self._fired: List[int] = [0] * n_specs
        self._sites = frozenset(spec.site for spec in plan.specs)
        #: Plan order of the specs targeting each ``(site, action)`` hook.
        self._hooked: Dict[Tuple[str, str], List[int]] = {}
        for spec_index, spec in enumerate(plan.specs):
            self._hooked.setdefault((spec.site, spec.action), []).append(
                spec_index
            )
        self.injections: List[InjectionRecord] = []

    def watches(self, site: str) -> bool:
        """Does any spec in the plan target this site?"""
        return site in self._sites

    def calls_at(self, site: str, action: str) -> int:
        """How many times the ``(site, action)`` hook has been invoked."""
        return self._calls.get((site, action), 0)

    def _fire(
        self,
        site: str,
        action: str,
        index: Optional[int],
        now_s: Optional[float],
    ) -> List[Tuple[FaultSpec, np.random.Generator]]:
        """Advance the hook's call counter and collect firing specs."""
        key = (site, action)
        call_index = self._calls.get(key, 0)
        self._calls[key] = call_index + 1
        hits: List[Tuple[FaultSpec, np.random.Generator]] = []
        for spec_index in self._hooked.get(key, ()):
            spec = self.plan.specs[spec_index]
            if (
                spec.max_injections is not None
                and self._fired[spec_index] >= spec.max_injections
            ):
                continue
            if not spec.trigger.matches(call_index, index=index, now_s=now_s):
                continue
            rng = self._rngs[spec_index]
            if spec.rate < 1.0 and not rng.random() < spec.rate:
                continue
            self._fired[spec_index] += 1
            self.injections.append(
                InjectionRecord(site, action, call_index, spec_index)
            )
            metrics.count(f"faults.injected.{site}.{action}")
            with tracing.span(
                "faults.inject", site=site, action=action, call=call_index
            ):
                pass
            hits.append((spec, rng))
        return hits

    # -- per-action queries (the hook helpers delegate here) ---------------------

    def event_fires(
        self,
        site: str,
        action: str,
        index: Optional[int] = None,
        now_s: Optional[float] = None,
    ) -> bool:
        """True when at least one spec fires for this invocation."""
        return bool(self._fire(site, action, index, now_s))

    def magnitude_sum(
        self,
        site: str,
        action: str,
        index: Optional[int] = None,
        now_s: Optional[float] = None,
    ) -> float:
        """Summed magnitudes of every spec firing on this invocation."""
        return float(
            sum(spec.magnitude for spec, _ in self._fire(site, action, index, now_s))
        )

    def corrupt_bits(
        self,
        site: str,
        bits: Sequence[int],
        index: Optional[int] = None,
        now_s: Optional[float] = None,
    ) -> Tuple[int, ...]:
        """Flip ``magnitude`` random bit positions per firing spec."""
        frame = tuple(bits)
        hits = self._fire(site, "corrupt_bits", index, now_s)
        if not hits or not frame:
            return frame
        mutable = list(frame)
        for spec, rng in hits:
            n_flips = max(1, int(round(spec.magnitude)))
            n_flips = min(n_flips, len(mutable))
            for position in rng.choice(len(mutable), size=n_flips, replace=False):
                mutable[int(position)] ^= 1
        return tuple(mutable)

    def jitter_position(
        self,
        site: str,
        position: np.ndarray,
        index: Optional[int] = None,
        now_s: Optional[float] = None,
    ) -> np.ndarray:
        """Add Gaussian position noise (std = magnitude) per firing spec."""
        hits = self._fire(site, "jitter", index, now_s)
        if not hits:
            return position
        jittered = np.asarray(position, dtype=float).copy()
        for spec, rng in hits:
            jittered = jittered + rng.normal(
                0.0, spec.magnitude, size=jittered.shape
            )
        return jittered


#: The process-local active engine; ``None`` means every hook no-ops.
_ACTIVE_ENGINE: Optional[FaultEngine] = None


def active_engine() -> Optional[FaultEngine]:
    """The engine currently receiving hook calls, if any."""
    return _ACTIVE_ENGINE


def activate_engine(engine: Optional[FaultEngine]) -> Optional[FaultEngine]:
    """Install ``engine`` as active; returns the previous one."""
    global _ACTIVE_ENGINE
    previous = _ACTIVE_ENGINE
    _ACTIVE_ENGINE = engine
    return previous


@contextmanager
def engaged(plan: FaultPlan, seed: int = 0) -> Iterator[FaultEngine]:
    """Scope with a fresh engine for ``plan`` active; yields the engine.

    The previous engine (usually ``None``) is restored on exit, so
    sweep tasks can each engage their own plan without leaking state —
    including inside process-pool workers.
    """
    engine = FaultEngine(plan, seed=seed)
    previous = activate_engine(engine)
    try:
        yield engine
    finally:
        activate_engine(previous)


# -- zero-overhead-when-disabled hook helpers ------------------------------------


def watching(site: str) -> bool:
    """Cheapest gate: is an engine active *and* targeting this site?

    Sites wrap non-trivial fault bookkeeping in ``if watching(...):``
    so the disabled path costs one global read and stays byte-identical
    to pre-instrumentation behavior.
    """
    engine = _ACTIVE_ENGINE
    return engine is not None and engine.watches(site)


def dropped(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> bool:
    """Should this site drop the current item? (``drop`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return False
    return engine.event_fires(site, "drop", index=index, now_s=now_s)


def pose_lost(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> bool:
    """Should this pose observation be lost? (``pose_loss`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return False
    return engine.event_fires(site, "pose_loss", index=index, now_s=now_s)


def rebooted(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> bool:
    """Did an injected power-cycle hit this site? (``reboot`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return False
    return engine.event_fires(site, "reboot", index=index, now_s=now_s)


def stall_s(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> float:
    """Injected processing stall in seconds (``stall`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return 0.0
    return engine.magnitude_sum(site, "stall", index=index, now_s=now_s)


def gain_collapse_db(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> float:
    """Injected gain loss in dB (``gain_collapse`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return 0.0
    return engine.magnitude_sum(site, "gain_collapse", index=index, now_s=now_s)


def cfo_step_hz(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> float:
    """Injected carrier-frequency-offset step in Hz (``cfo_step``)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return 0.0
    return engine.magnitude_sum(site, "cfo_step", index=index, now_s=now_s)


def phase_jump_rad(
    site: str, index: Optional[int] = None, now_s: Optional[float] = None
) -> float:
    """Injected oscillator phase jump in radians (``phase_jump``)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return 0.0
    return engine.magnitude_sum(site, "phase_jump", index=index, now_s=now_s)


def corrupt_bits(
    site: str,
    bits: Sequence[int],
    index: Optional[int] = None,
    now_s: Optional[float] = None,
) -> Tuple[int, ...]:
    """Return ``bits`` with injected flips (``corrupt_bits`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return tuple(bits)
    return engine.corrupt_bits(site, bits, index=index, now_s=now_s)


def jitter_position(
    site: str,
    position: np.ndarray,
    index: Optional[int] = None,
    now_s: Optional[float] = None,
) -> np.ndarray:
    """Return ``position`` with injected noise (``jitter`` action)."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return position
    return engine.jitter_position(site, position, index=index, now_s=now_s)
