"""Spans around the engine's public callables, recorded from the benchmark.

Nothing under bcdc2bcdc_ray/ changes: ``patched(tracer)`` swaps each patch
point for a wrapper at the attribute the engine looks up at call time, and
restores the original on exit. Spans are kept in memory and aggregated by
the workload when the run ends. Wrappers run on the driver only, so they see
the local plan; a distributed replay runs its stages in Ray workers, which
import the unwrapped engine.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import dataclass, field

_MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: int  # index into Tracer.spans, -1 for a root span
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


class Tracer:
    """In-memory span recorder for one single-threaded driver."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        idx = len(self.spans)
        s = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, counts)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            self._stack.pop()
            s.t1 = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, result)`` may add
        counts to the span."""

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if count is not None:
                    s.counts.update(count(args, out))
                return out

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def within(self, idx: int) -> list[int]:
        """Indices of every span nested (at any depth) under span ``idx``."""
        out, inside = [], {idx}
        for i in range(idx + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(i)
        return out


def _merge_counts(args, out):
    counts = out[1]
    return {
        "events": args[1].num_rows,
        "applied": counts["adds"] + counts["updates"] + counts["deletes"],
    }


def _wrap_factory(tracer: Tracer, name: str, make, count):
    """Wrap the callable ``make`` returns rather than ``make`` itself."""

    def make_traced(*args, **kwargs):
        return tracer.wrap(name, make(*args, **kwargs), count)

    setattr(make_traced, _MARK, name)
    make_traced.__wrapped__ = make
    return make_traced


# (module, attribute path, span name, count hook). The attribute is the one
# the engine resolves at call time: cdc.follow calls replay as a module
# global, cdc.replay reaches wal through the module object, merge.py calls
# delta.merge_partition and its own read_partition global and imports
# partition_fingerprint from canonical inside __call__, canonical's hashing
# helpers all resolve content_hash as a module global, and the local plan
# imports make_block_combiner from skew on each replay.
PATCH_POINTS = [
    ("bcdc2bcdc_ray.pipelines.cdc", "replay", "cdc.replay",
     lambda a, o: {"exec": o.get("exec")}),
    ("bcdc2bcdc_ray.sources.wal", "prune_committed_chunks", "wal.prune",
     lambda a, o: {"listed": len(a[0]), "live": len(o[0])}),
    ("bcdc2bcdc_ray.pipelines.cdc", "AssignPartition.__call__", "cdc.assign",
     lambda a, o: {"rows_in": a[1].num_rows, "rows_out": o.num_rows}),
    ("bcdc2bcdc_ray.stages.skew", "make_block_combiner", "skew.combine",
     lambda a, o: {"rows_in": a[0].num_rows, "rows_out": o.num_rows}),
    ("bcdc2bcdc_ray.stages.merge", "MergeWriter.__call__", "merge.writer", None),
    ("bcdc2bcdc_ray.stages.merge", "read_partition", "merge.read_partition", None),
    ("bcdc2bcdc_ray.stages.delta", "merge_partition", "delta.merge_partition", _merge_counts),
    ("bcdc2bcdc_ray.canonical", "partition_fingerprint", "canonical.fingerprint", None),
    ("bcdc2bcdc_ray.canonical", "content_hash", "canonical.content_hash", None),
    ("bcdc2bcdc_ray.state.manifest", "ManifestStore.commit", "manifest.commit", None),
    ("bcdc2bcdc_ray.pipelines.cdc", "lookup", "cdc.lookup", None),
    ("bcdc2bcdc_ray.pipelines.view", "lookup", "view.lookup", None),
]
# patch points whose span covers the callable they return
FACTORIES = {"make_block_combiner"}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, name


def installed_wrappers() -> list[str]:
    """Patch points that currently hold a benchmark wrapper."""
    out = []
    for module, attr, _, _ in PATCH_POINTS:
        owner, name = _resolve(module, attr)
        if hasattr(owner.__dict__.get(name), _MARK):
            out.append(f"{module}.{attr}")
    return out


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install a span wrapper at every patch point; restore on exit."""
    saved = []
    try:
        for module, attr, span_name, count in PATCH_POINTS:
            owner, name = _resolve(module, attr)
            orig = owner.__dict__[name]
            if attr in FACTORIES:
                wrapped = _wrap_factory(tracer, span_name, orig, count)
            else:
                wrapped = tracer.wrap(span_name, orig, count)
            saved.append((owner, name, orig))
            setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)


def span_cost_s(n: int = 20000) -> float:
    """Calibrated wall cost of one recorded span (wrapper + bookkeeping)."""

    def noop(x):
        return x

    t = Tracer()
    w = t.wrap("calibrate", noop)
    t0 = time.perf_counter()
    for i in range(n):
        noop(i)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(n):
        w(i)
    return max(time.perf_counter() - t0 - bare, 0.0) / n


def snapshot(root: str) -> dict[str, tuple[int, int]]:
    """{relative path: (inode, size)} of every file under ``root``."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            p = os.path.join(dirpath, fn)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            out[os.path.relpath(p, root)] = (st.st_ino, st.st_size)
    return out


def written(before: dict, after: dict) -> dict[str, int]:
    """{path: size} of files created or replaced (new inode) between two
    snapshots. Every engine write is tmp + rename, so a rewrite shows as a
    new inode."""
    return {
        p: sz for p, (ino, sz) in after.items() if before.get(p, (None,))[0] != ino
    }
