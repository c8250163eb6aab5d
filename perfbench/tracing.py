"""Span tracing around the layers' public entry points.

:class:`Tracer` replaces each entry point named in
:data:`catalog.SPANS` with a wrapper, everywhere a module holds a
reference to it (the defining module, re-exporting packages and every
``from x import y`` binding), so calls made from inside the flow are
caught as well as calls from the benchmark.  Outside an op a wrapper
calls straight through; inside one it records a span ``(name, start,
end, parent, op)``.  Spans stay in memory and are written as JSON lines
when the run ends.  Timed (untraced) runs never construct a tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from catalog import ROOT_SPAN, SPANS


def _count_elements(tracer: "Tracer", args) -> None:
    # ExecBackend.run_batch(self, fn, elements, static_inputs, element_inputs)
    elements, element_inputs = args[2], args[4]
    tracer.count("exec.elements", len(elements[element_inputs[0]]))


def _count_cc(tracer: "Tracer", args) -> Callable[[], None]:
    # compile_kernel_library memoizes per source hash: a grown library
    # table after the call means the C compiler ran
    from repro.exec import cnative

    before = len(cnative._compiled)

    def after() -> None:
        grew = len(cnative._compiled) > before
        tracer.count("exec.cc_compiles" if grew else "exec.lib_cache_hits")

    return after


#: span name -> hook run on entry (it may return a callable run on exit)
HOOKS = {"exec.run_batch": _count_elements, "exec.cc_compile": _count_cc}


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index, op id]
        self.spans: List[list] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._restore: List[tuple] = []

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.counts[self._op][f"{name}.calls"] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self._op][key] += n

    @contextmanager
    def op(self, op_id: int):
        """Record everything inside as op ``op_id`` under a root span."""
        self._op = op_id
        idx = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(idx)
            self._op = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            after = hook(self, args) if hook is not None else None
            try:
                return fn(*args, **kwargs)
            finally:
                if after is not None:
                    after()
                self._exit(idx)

        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`catalog.SPANS`."""
        module_targets = {}
        for name, target in SPANS:
            mod_name, qualname = target.split(":")
            module = importlib.import_module(mod_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
            else:
                original = getattr(module, qualname)
                module_targets[id(original)] = (
                    original, self._wrap(name, original)
                )
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = module_targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per op: span name -> summed self seconds (duration minus the
        durations of its direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name] += (end - start) - child[i]
        return out

    def op_seconds(self) -> Dict[int, float]:
        """Per op: duration of its root span."""
        return {
            op: end - start
            for name, start, end, parent, op in self.spans
            if parent is None
        }

    def write_jsonl(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": round(start - t0, 9),
                    "end": round(end - t0, 9),
                    "parent": parent,
                    "op": op,
                }) + "\n")
