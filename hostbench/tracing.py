"""Host-time spans at the program's layer boundaries, for the traced run.

:class:`SpanRecorder` wraps public functions and methods of the repro
package so that every call records a span: name, start, end and the
index of the enclosing span. Spans stay in memory and are written out
when the run ends. Only layer boundaries are wrapped, never leaf
helpers, so the recorder's own cost stays a small share of the run
(the traced run reports that share as ``trace.overhead_frac``).

:meth:`SpanRecorder.install` must run before the program builds anything, so that
bound methods captured at construction time (periodic callbacks,
service handlers) already point at the wrappers. :meth:`uninstall`
restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> (module, qualified attribute) of the wrapped callable.
#: A class attribute is wrapped on the class and on every subclass that
#: overrides it; a module function is replaced in every loaded repro
#: module that imported it by name.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("flux.build", "repro.flux.instance", "FluxInstance.__init__"),
    ("flux.rpc", "repro.flux.broker", "Broker.rpc"),
    ("monitor.attach", "repro.monitor.module", "attach_monitor"),
    ("monitor.sample", "repro.monitor.node_agent", "NodeAgentModule.sample_in_batch"),
    ("columnar.range", "repro.columnar.store", "ColumnarRing.range"),
    ("hardware.power_eval", "repro.hardware.node", "Node.total_power_w"),
    ("variorum.sample", "repro.variorum.backends.base", "Backend.get_node_power_json"),
    ("manager.fpp_sample", "repro.manager.policies.fpp", "FPPPolicy.on_sample"),
    ("manager.fft", "repro.manager.fft", "estimate_period"),
    ("federation.split", "repro.federation.rebalance", "split_site_budget"),
    ("tenancy.submit", "repro.tenancy.coordinator", "TenancyCoordinator.submit"),
    ("tenancy.split", "repro.tenancy.fairshare", "split_budget_weighted"),
    ("serving.handle", "repro.serving.service", "PowerService.handle"),
    ("serving.snapshot_get", "repro.serving.snapshot", "SnapshotCache.get"),
    ("serving.advance", "repro.serving.driver", "SimDriver.advance"),
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class SpanRecorder:
    """In-memory span log with per-call parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: (name index, start, end, parent span index or -1)
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        for name, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                for cls in _subclasses(getattr(module, cls_name)):
                    original = cls.__dict__.get(meth)
                    if original is None:
                        continue
                    setattr(cls, meth, self._wrap(name, original))
                    self._restore.append(
                        functools.partial(setattr, cls, meth, original)
                    )
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
                    self._restore.append(
                        functools.partial(setattr, mod, attr, original)
                    )

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- reading --------------------------------------------------------
    def summary(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover. Only spans with index in ``[lo, hi)`` count.
        """
        spans = self.spans[lo:hi]
        child_s = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= lo:
                child_s[parent - lo] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names
        }
        for span, covered in zip(spans, child_s):
            row = out[self.names[span[0]]]
            dur = span[2] - span[1]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name_idx, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": self.names[name_idx],
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
