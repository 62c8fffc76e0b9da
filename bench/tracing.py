"""Spans and op counts recorded around mlfewshot's public functions.

The wrappers are installed from the benchmark, never from the program: each
public function of each ``mlfewshot`` module is replaced, in every module
that binds it, by a wrapper that records a span (name, start, end, parent)
in memory.  Public functions of ``mlfewshot.autodiff`` are the tape's ops;
they are counted instead of timed, outermost call only, so ``scale`` counts
once and not again as the ``mul`` it calls.  An op added to that module
later is counted without a change here.

The benchmark calls the program through module attributes
(``metrics.evaluate``), so its own calls pass through the wrappers too.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from typing import NamedTuple

# public names of mlfewshot.autodiff that build no tape node of their own
NOT_OPS = frozenset({"tensor", "forward", "grad_check"})
# methods timed as spans, beside the module-level functions
METHODS = (("autodiff", "Tensor", "backward"), ("optim", "Adam", "step"))


class Span(NamedTuple):
    """One call of a wrapped function; times from ``time.perf_counter``."""

    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, or -1

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Installs and removes the wrappers and holds what they record.

    ``only`` limits the span wrappers to the named functions (``"module.func"``)
    and skips op counting; the untraced run uses it to time episodes alone.
    ``keep`` maps function names to how many of their first return values
    are kept in ``results``.
    """

    def __init__(self, only=None, keep=None):
        self.only = None if only is None else frozenset(only)
        self.keep = dict(keep or {})
        self.spans: list = []
        self.op_calls: dict[str, int] = {}
        self.results: dict[str, list] = {name: [] for name in self.keep}
        self._stack: list[int] = []
        self._op_depth = [0]
        self._undo: list = []

    # -------------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.results.get(name)
        limit = self.keep.get(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, clock(), parent)
                stack.pop()
            if kept is not None and len(kept) < limit:
                kept.append(out)
            return out

        return wrapper

    def _op(self, name, fn):
        counts, depth = self.op_calls, self._op_depth
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    # -------------------------------------------------------------- install

    def install(self):
        package = importlib.import_module("mlfewshot")
        modules = [importlib.import_module(f"mlfewshot.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        replacements = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if short == "autodiff" and attr not in NOT_OPS:
                    if self.only is None:
                        replacements[fn] = self._op(attr, fn)
                elif self.only is None or name in self.only:
                    replacements[fn] = self._span(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacements[value])
        for module_name, cls_name, attr in METHODS:
            name = f"{module_name}.{attr}"
            if self.only is None or name in self.only:
                cls = getattr(importlib.import_module(f"mlfewshot.{module_name}"), cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._span(name, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -------------------------------------------------------------- reading

    def named(self, name) -> list:
        return [s for s in self.spans if s is not None and s.name == name]

    def total_seconds(self, name) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_seconds(self, name) -> float:
        """Time inside the named spans not covered by their direct children."""
        child_time = {}
        for span in self.spans:
            if span is not None and span.parent >= 0:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
        return sum(s.seconds - child_time.get(i, 0.0) for i, s in enumerate(self.spans)
                   if s is not None and s.name == name)

    def outermost_seconds(self, names) -> float:
        """Time inside spans of the given names, not counting those nested in
        another span of the set."""
        names = frozenset(names)
        total = 0.0
        for span in self.spans:
            if span is None or span.name not in names:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent < 0:
                total += span.seconds
        return total

    def episode_seconds(self, marker, rounds) -> list[float]:
        """Wall time of each episode.  An episode starts when ``marker`` (the
        episode sampler) is called and ends when the next starts or, for the
        last episode of a round, when the round span ends."""
        out = []
        starts = sorted(s.start for s in self.named(marker))
        for round_span in sorted(self.named(rounds), key=lambda s: s.start):
            inside = [t for t in starts if round_span.start <= t <= round_span.end]
            bounds = inside + [round_span.end]
            out.extend(b - a for a, b in zip(bounds, bounds[1:]))
        return out
