"""In-process tracing of pestego from outside the package.

The program calls its own functions through module globals (``cli`` calls
``parse_pe``, ``payload.hide`` calls ``parse_pe`` and ``serialize``,
``block_statistics`` calls ``statistic``).  ``patched`` replaces every
public function found in those globals, plus a few methods, with a wrapper
and puts the originals back on exit, so ``src/`` needs no hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "pe_format", "payload", "integrity", "statstego", "pgm")
METHODS = (
    ("statstego", "MessageLayout", "from_text"),
    ("payload", "PayloadRecord", "encode"),
    ("payload", "PayloadRecord", "decode"),
)


def targets():
    """(owner, attribute, span name, raw attribute) for every wrap point."""
    found = []
    for module_name in MODULES:
        module = importlib.import_module(f"pestego.{module_name}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value) or not value.__module__.startswith("pestego."):
                continue
            found.append((module, attr, f"{value.__module__.removeprefix('pestego.')}.{value.__qualname__}", value))
    for module_name, class_name, method in METHODS:
        owner = getattr(importlib.import_module(f"pestego.{module_name}"), class_name)
        found.append((owner, method, f"{module_name}.{class_name}.{method}", vars(owner)[method]))
    return found


@contextmanager
def patched(wrap, only=None):
    """Install ``wrap(span_name, function)`` at every wrap point (or those in ``only``)."""
    saved = []
    try:
        for owner, attr, name, raw in targets():
            if only is not None and name not in only:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, wrap(name, raw))
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Tracer:
    """Spans (name, start, end, parent index, ok) kept in memory for one pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)

        return traced

    def metrics(self) -> dict[str, float]:
        """Per span name: calls, errors, total seconds (.s) and self seconds (.self_s)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, ok), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += not ok
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        out["cli.self_s"] = sum(v for k, v in out.items() if k.startswith("cli.") and k.endswith(".self_s"))
        out.update(self._per_embed())
        return dict(out)

    def _per_embed(self) -> dict[str, float]:
        """parse_pe calls made under each successful ``embed`` command."""
        embeds = {i for i, span in enumerate(self.spans) if span[0] == "cli.cmd_embed" and span[4]}
        under = Counter()
        for name, _, _, parent, _ in self.spans:
            while parent >= 0 and parent not in embeds:
                parent = self.spans[parent][3]
            if parent >= 0:
                under[name] += 1
        return {"pe_format.parse_pe.calls_per_embed": under["pe_format.parse_pe"] / len(embeds) if embeds else 0.0}


class AllocProbe:
    """Peak bytes allocated inside each wrapped call, traced only while it runs."""

    def __init__(self):
        self.peak_mb: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn):
        peak_mb = self.peak_mb

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peak_mb[name] = max(peak_mb[name], peak / 1e6)

        return probed
