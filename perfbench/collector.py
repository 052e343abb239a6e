"""Per-layer self time and work counts, measured from outside the program.

The collector wraps public entry points of the ``repro`` package at
the name their callers resolve (a module global such as
``repro.serve.service.fold_blocks`` or a class attribute such as
``LocalizationService.submit``), times every call, and subtracts the
time of wrapped calls nested inside it. Self times therefore add up,
across all entry points, to exactly the wall time spent inside the
outermost wrapped calls: a recursive or re-entrant call is counted
once, under the innermost wrapper running at each instant.

Counts come from return values and arguments (``InventoryRound``,
``Admission``, ``StepReport``, ray lists, node counts) through small
per-entry-point counter functions.

Every record also carries the *item* the workload loop is working on
(a trial, a session or an epoch), so layer time can be grouped per
item; :meth:`Collector.records` returns those groups.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``counter(counts, result, args, kwargs)`` adds to named counts.
Counter = Callable[[Dict[str, float], Any, Tuple[Any, ...], Dict[str, Any]], None]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: where it lives, its layer, its counter."""

    name: str
    layer: str
    #: ``(owner, attribute)`` sites, owner as ``module`` or
    #: ``module:Class``. One logical entry point may be bound under
    #: several names (``from x import f`` copies the reference).
    sites: Tuple[Tuple[str, str], ...]
    counter: Optional[Counter] = None


def _resolve_owner(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target: Any = importlib.import_module(module_name)
    for part in filter(None, class_name.split(".")):
        target = getattr(target, part)
    return target


class Collector:
    """Installs wrappers, accumulates self time, calls and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: One cell per active wrapped call: time of its wrapped children.
        self._stack: List[List[float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.layers: Dict[str, str] = {}
        self._by_item: Dict[Tuple[str, str], List[float]] = {}
        self._installed: List[Tuple[Any, str, Any]] = []
        #: The trial, session or epoch the workload loop is on.
        self.item = ""

    def wrap(self, name: str, fn: Callable[..., Any], counter: Optional[Counter] = None) -> Callable[..., Any]:
        """``fn`` timed as ``name``; its self time excludes wrapped children."""
        clock = self._clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._record(name, elapsed - cell[0])
            if counter is not None:
                counter(self.counts, result, args, kwargs)
            return result

        return wrapper

    def _record(self, name: str, self_s: float) -> None:
        self.calls[name] += 1
        self.self_s[name] += self_s
        cell = self._by_item.setdefault((self.item, name), [0, 0.0])
        cell[0] += 1
        cell[1] += self_s

    def install(self, entry_points: Sequence[EntryPoint]) -> None:
        """Patch every site of every entry point (undo with :meth:`remove`)."""
        for entry in entry_points:
            self.layers[entry.name] = entry.layer
            self.calls.setdefault(entry.name, 0)
            self.self_s.setdefault(entry.name, 0.0)
            for owner_path, attribute in entry.sites:
                owner = _resolve_owner(owner_path)
                original = owner.__dict__[attribute]
                self._installed.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(entry.name, original, entry.counter))

    def remove(self) -> None:
        """Restore every patched site, last patched first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Collector":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    def attributed_s(self) -> float:
        """Total self time over every entry point."""
        return sum(self.self_s.values())

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer."""
        totals: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[self.layers[name]] += seconds
        return dict(totals)

    def records(self) -> List[Dict[str, Any]]:
        """Per-(item, entry point) calls and self time, sorted."""
        return [
            {"item": item, "entry": name, "calls": int(calls), "self_s": self_s}
            for (item, name), (calls, self_s) in sorted(self._by_item.items())
        ]
