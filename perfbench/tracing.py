"""Span tracing of tgflow from outside the package.

A `Tracer` replaces chosen tgflow functions with timing wrappers while it is
active and puts the originals back when it exits.  A function imported by
name into several modules (``to_grid`` is bound in ``spectral``, ``state``,
``linearized``, ``adjoint`` and ``verify``) is replaced in every ``tgflow.*``
namespace that binds it, so no call path escapes the trace.  Methods are
replaced on their class.

For every span name the tracer records calls, busy (inclusive) time and self
time, where self time is the span's duration minus the time covered by its
traced children.  It also counts, for each pair of span names, how often the
second was entered directly under the first (`edges`) and anywhere below it
(`within`), and collects per-span work counts through optional hooks.
A target that tgflow no longer defines is listed in `missing` and skipped, so
one benchmark can measure both sides of a change that removes a function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

_MARK = "__perfbench_original__"


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """A function to trace: `attr` of `module` (``Class.method`` for methods).

    `hook(work, span, args, kwargs, result)` may add work counts after a call.
    """

    span: str
    module: str
    attr: str
    hook: object = None


@dataclass
class _Frame:
    name: str
    child_s: float = 0.0


@dataclass
class Tracer:
    targets: tuple
    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    edges: dict = field(default_factory=lambda: defaultdict(int))
    within: dict = field(default_factory=lambda: defaultdict(int))
    work: dict = field(default_factory=lambda: defaultdict(float))
    missing: list = field(default_factory=list)

    def __post_init__(self):
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = {}  # span name -> calls of it now running
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        assert_unwrapped()
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, target: Target) -> None:
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(target.span)
            return
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if not callable(original):
            self.missing.append(target.span)
            return
        wrapper = self._wrap(target, original)
        if path:  # a method: one class attribute serves every caller
            self._patch(owner, name, original, wrapper)
            return
        for module in tgflow_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(target, fn, args, kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- recording ------------------------------------------------------------

    def _call(self, target: Target, fn, args, kwargs):
        name = target.span
        stack, open_spans = self._stack, self._open
        if stack:
            self.edges[(stack[-1].name, name)] += 1
        for outer in open_spans:
            self.within[(outer, name)] += 1
        frame = _Frame(name)
        stack.append(frame)
        open_spans[name] = open_spans.get(name, 0) + 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            open_spans[name] -= 1
            if not open_spans[name]:
                del open_spans[name]
            if stack:
                stack[-1].child_s += elapsed
            stats = self.spans[name]
            stats.calls += 1
            stats.busy_s += elapsed
            stats.self_s += elapsed - frame.child_s
        if target.hook is not None:
            target.hook(self.work, name, args, kwargs, result)
        return result


def tgflow_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "tgflow" or n.startswith("tgflow.")]


def wrapped_names() -> list[str]:
    """Every tgflow binding that currently holds a tracing wrapper."""
    found = []
    for module in tgflow_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{attr}.{meth}"
                    for meth, fn in vars(value).items()
                    if hasattr(fn, _MARK)
                )
    return found


def assert_unwrapped() -> None:
    """Raise if any tgflow binding still holds a tracing wrapper."""
    found = wrapped_names()
    if found:
        raise RuntimeError(f"tracing wrappers still installed: {found}")
