"""Spans recorded from outside the program, by wrapping its module attributes.

A span is opened when a wrapped function is entered and closed when it
returns; its parent is the span that was open when it started.  Calls in one
thread nest, so a span's self time is its duration minus the time its
children cover.  Every span is folded into per-name totals as it closes;
full records (id, parent, name, start, end) are kept for the shallow spans
only, because the deep ones number in the millions on a range sweep.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter, keep_depth: int = 2) -> None:
        self.clock = clock
        self.keep_depth = keep_depth
        # open spans: [id, parent id, name, start, time covered by children]
        self._stack: list[list] = []
        self._next_id = 1
        # name -> [calls, total_s, self_s, items]
        self.stats: dict[str, list] = {}
        self.kept: list[tuple[int, int, str, float, float]] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, parent, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self, items: int = 0) -> None:
        now = self.clock()
        span_id, parent, name, start, covered = self._stack.pop()
        duration = now - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - covered
        st[3] += items
        if self._stack:
            self._stack[-1][4] += duration
        if len(self._stack) < self.keep_depth:
            self.kept.append((span_id, parent, name, start, now))

    def dump(self, path) -> None:
        """Write the kept spans and the per-name totals as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.kept:
                fh.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for name, (calls, total, self_s, items) in sorted(self.stats.items()):
                fh.write(json.dumps({"name": name, "calls": calls, "total_s": total,
                                     "self_s": self_s, "items": items}) + "\n")


def _wrap_function(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        items = 0
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                items = count(result)
            return result
        finally:
            tracer.end(items)

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per next(), with one item per value yielded."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            tracer.begin(name)
            try:
                value = next(inner)
            except StopIteration:
                tracer.end(0)
                return
            except BaseException:
                tracer.end(0)
                raise
            tracer.end(1)
            yield value

    return traced


def install(tracer: Tracer, package: str, targets) -> list:
    """Wrap each (module, attribute, kind, count) target; return an undo list.

    kind is "function", "generator" or "class".  A function is rebound under
    every name that holds it in any module of the package, so names bound by
    ``from .arith import factorize`` are traced too.  A class gets its
    ``__init__`` wrapped, which covers every construction site, whatever
    name it was reached by (``laws.Factorization`` is ``arith.Factorization``).
    Targets the program no longer has are skipped and report zero.
    """
    undo = []
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == package or n.startswith(package + ".")) and m is not None]
    for module_name, attr, kind, count in targets:
        module = sys.modules.get(f"{package}.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            continue
        name = f"{module_name}.{attr}"
        if kind == "class":
            init = original.__init__
            undo.append((original, "__init__", init))
            original.__init__ = _wrap_function(tracer, name, init, count)
            continue
        if kind == "generator":
            wrapped = _wrap_generator(tracer, name, original)
        else:
            wrapped = _wrap_function(tracer, name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)
