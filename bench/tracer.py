"""Spans and counters taken around slipflow's public functions, from outside.

The harness never edits the package.  It replaces public functions with
timing wrappers at run time.  ``from .transport import apply_S`` copies the
function object into every importing module, so a wrapper installed on the
defining module alone would miss every call made through such a copy.
``Patcher`` therefore rebinds every attribute of every loaded ``slipflow``
module that holds an original, checks that no original is left reachable,
and on exit puts every original back and checks that no wrapper is left.

Spans are kept in memory: name, start, end and the index of the span that
was open when it began.  Self time is a span's length minus the part of it
that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "slipflow"

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span
    tag: str = ""  # set by a wrapper hook, e.g. the norm kind or the step mode

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.returns: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        return span.duration

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name

    def has_ancestor(self, span: Span, name: str) -> bool:
        index = span.parent
        while index is not None:
            if self.spans[index].name == name:
                return True
            index = self.spans[index].parent
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def layer_self_time(spans: list[Span], layer: str) -> float:
    """Summed self time of every span whose name starts with ``layer.``."""
    prefix = layer + "."
    return sum(t for s, t in zip(spans, self_times(spans)) if s.name.startswith(prefix))


# ---------------------------------------------------------------------------
# wrappers

def _bound(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; ``after(arguments, result, span)`` runs on return."""
    bind = _bound(fn) if after is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(bind(args, kwargs), result, tracer.spans[index])
        return result

    return wrapper


def _krylov_wrapper(tracer: Tracer, fn):
    """krylov_solve with its operator action timed from outside."""
    error_type = importlib.import_module(f"{PACKAGE}.krylov").KrylovError

    @functools.wraps(fn)
    def wrapper(action, *args, **kwargs):
        def counted_action(x):
            index = tracer.begin("krylov.matvec")
            try:
                return action(x)
            finally:
                tracer.end(index)

        index = tracer.begin("krylov.krylov_solve")
        try:
            result = fn(counted_action, *args, **kwargs)
        except error_type:
            tracer.count("krylov.failures")
            raise
        finally:
            tracer.end(index)
        tracer.count("krylov.iterations", result[1])
        return result

    return wrapper


def build_wrappers(tracer: Tracer, targets) -> dict:
    """Map each original function named in ``targets`` to its wrapper.

    ``targets`` is an iterable of ``"module.function"`` names relative to
    the slipflow package.
    """
    fields_seen = weakref.WeakSet()

    def after_apply_S(a, result, span):
        tracer.count("transport.nodes_traced", a["tf"].grid.n_nodes)
        if a["tf"] not in fields_seen:
            fields_seen.add(a["tf"])
            tracer.count("transport.fields")

    def after_norm(a, result, span):
        span.tag = a["kind"].kind

    def after_linear_step(a, result, span):
        span.tag = a["mode"]

    def after_picard(a, result, span):
        tracer.count("picard.outer_iterations", len(result.history))
        tracer.returns["picard.picard_solve"].append(result)

    def after_write_outputs(a, result, span):
        tracer.count("runio.bytes_written", sum(Path(p).stat().st_size for p in result))

    hooks = {
        "transport.apply_S": after_apply_S,
        "fields.norm": after_norm,
        "lame.solve_linear_step": after_linear_step,
        "picard.picard_solve": after_picard,
        "runio.write_outputs": after_write_outputs,
    }
    wrappers = {}
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
        if target == "krylov.krylov_solve":
            wrappers[original] = _krylov_wrapper(tracer, original)
        else:
            wrappers[original] = timed(tracer, target, original, hooks.get(target))
    return wrappers


# ---------------------------------------------------------------------------
# patching every alias

def _package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Rebind every alias of some functions across the package's modules."""

    def __init__(self, wrappers: dict):
        self.wrappers = wrappers
        self.patched: list[tuple[object, str, object]] = []

    def _holders(self, objects):
        ids = {id(o) for o in objects}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in ids:
                    yield module, attr, value

    def install(self) -> None:
        for module, attr, original in list(self._holders(self.wrappers)):
            setattr(module, attr, self.wrappers[original])
            self.patched.append((module, attr, original))
        left = [f"{m.__name__}.{a}" for m, a, _ in self._holders(self.wrappers)]
        if left:
            raise RuntimeError(f"originals still reachable after patching: {left}")

    def restore(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        wrong = [f"{m.__name__}.{a}" for m, a, o in self.patched if getattr(m, a) is not o]
        left = [f"{m.__name__}.{a}" for m, a, _ in self._holders(self.wrappers.values())]
        self.patched.clear()
        if wrong or left:
            raise RuntimeError(f"originals not restored: {wrong + left}")
