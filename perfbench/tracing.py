"""In-memory span tracer that wraps the package's public entry points from
the outside, where the package looks them up (class attributes and module
attributes), and restores them afterwards.

Each call of a wrapped *span* entry point records (id, name, parent id,
start, end, run id) plus its self time: its duration minus the time covered
by its child spans and leaf calls. Entry points called millions of times per
run (``Metric.distance``, the sketches' per-row updates and decodes) are
*leaves*: they have no children, so they are aggregated into the innermost
open span (calls, seconds, work units, failures) instead of being kept one by
one. Every span also carries the leaf totals of its whole subtree, which is
how ratios such as pairwise calls per ``mbc_construction`` are taken where
the work happens.
"""

from __future__ import annotations

import json
import time


class Frame:
    __slots__ = ("id", "name", "parent", "start", "child_time", "leaves")

    def __init__(self, ident, name, parent, start):
        self.id, self.name, self.parent, self.start = ident, name, parent, start
        self.child_time = 0.0
        self.leaves = None  # leaf name -> [calls, seconds, units, failed], whole subtree


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "run", "self_time", "leaves", "info")

    def __init__(self, frame, end, run):
        self.id, self.name, self.parent = frame.id, frame.name, frame.parent
        self.start, self.end, self.run = frame.start, end, run
        self.self_time = end - frame.start - frame.child_time
        self.leaves = frame.leaves
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def leaf(self, name, field=0):
        rec = self.leaves.get(name) if self.leaves else None
        return rec[field] if rec else 0


def _add_leaf(frame, name, dt, units, failed):
    if frame.leaves is None:
        frame.leaves = {}
    rec = frame.leaves.get(name)
    if rec is None:
        frame.leaves[name] = [1, dt, units, failed]
    else:
        rec[0] += 1
        rec[1] += dt
        rec[2] += units
        rec[3] += failed


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self.stack: list[Frame] = []
        self.run = 0
        self.root = Frame(0, "root", None, 0.0)  # catches calls made outside any span
        self._next = 1
        self._patched = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1].id if self.stack else None
        frame = Frame(self._next, name, parent, self.clock())
        self._next += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = self.clock()
        self.stack.pop()
        span = Span(frame, end, self.run)
        self.spans.append(span)
        outer = self.stack[-1] if self.stack else self.root
        outer.child_time += end - frame.start
        if frame.leaves:
            for name, (calls, secs, units, failed) in frame.leaves.items():
                if outer.leaves is None:
                    outer.leaves = {}
                rec = outer.leaves.setdefault(name, [0, 0.0, 0, 0])
                rec[0] += calls
                rec[1] += secs
                rec[2] += units
                rec[3] += failed
        return span

    # -- patching ----------------------------------------------------------
    def span(self, owner, attr, name, before=None, after=None):
        """Wrap ``owner.attr`` in a span. ``before(args)`` returns a context
        object; ``after(args, result, ctx)`` returns a dict kept on the span."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            ctx = before(args) if before else None
            frame = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                raise
            span = tracer._close(frame)
            if after:
                span.info = after(args, result, ctx)
            return result

        self._install(owner, attr, orig, wrapper)

    def leaf(self, owner, attr, name, units=None, failed=None):
        """Wrap ``owner.attr`` as a leaf: aggregated into the innermost span."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = orig(*args, **kwargs)
            dt = clock() - t0
            frame = tracer.stack[-1] if tracer.stack else tracer.root
            frame.child_time += dt
            _add_leaf(frame, name, dt, units(args) if units else 0,
                      failed(result) if failed else 0)
            return result

        self._install(owner, attr, orig, wrapper)

    def _install(self, owner, attr, orig, wrapper):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- output ------------------------------------------------------------
    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "run": s.run,
                                     "self_s": s.self_time, "leaves": s.leaves,
                                     "info": s.info}) + "\n")
