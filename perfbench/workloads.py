"""The benchmark's three closed-loop, single-client workloads.

Each drives the engine's public API from this one process, checks every
answer against perfbench.oracle, and times only the engine calls.

- bulk_replay: per cycle a fresh lake and one distributed ``cdc.replay`` of
  a Zipf WAL, then point ``cdc.lookup``s. The only workload on the Ray read
  -> AssignPartition/content hash -> combiner -> Sort exchange ->
  MergeWriter actor pool path, with large per-partition groups.
- tail_follow: one lake; per cycle one small chunk is appended to the WAL
  dir, ``cdc.follow`` applies it on the driver-side local plan (no Ray
  exchange, tiny groups, every touched partition rewritten), then Zipf
  lookups. WAL pruning grows with the chunks listed.
- view_refresh: a count/sum_len/max view over a lake whose WAL slice was
  replayed with a pre-image feed; per cycle the view is restored to its
  pre-feed copy (untimed) and ``view.refresh_view`` folds the feed; deletes
  retract max bounds, so each refresh also repairs dirty groups. Then
  ``view.lookup``s.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import oracle, session, tracing

# An op slower than this counts as failed. Far above the 20-25 s Sort
# stalls, which are samples, not failures.
HARD_CAP_S = 90.0
# Stop starting cycles once the process is this old, so the final checks
# and shutdown end well inside the 180 s a run may take.
LOOP_CUTOFF_S = 120.0
MIN_READS = 200  # a p90 needs ten samples beyond it; twenty keep it steadier
# Bulk replay walls are bimodal (about 2.7 s and 3.8 s) with a 15-25 s stall
# every few replays; a median of fewer than six lands in either mode.
MIN_APPLIES = 6
STALL_FACTOR = 3.0
SEED_REPS = 3
REDELIVER_ROWS = 64  # old events re-sent from each of the first and last chunk
KEY_POOL = 4096
VIEW_AGGS = (("n_rows", "count", None), ("n_chars", "sum_len", "text"), ("max_turn", "max", "turn_idx"))
# spans that make up one replay's layer legs (cdc.replay.serial_s)
LEGS = ("wal.prune", "cdc.assign", "skew.combine", "merge.writer")
# the replay entry span encloses layers without being one
ENTRY_SPAN = "cdc.replay"


@dataclass(frozen=True)
class Size:
    convs: int
    partitions: int
    bulk_events: int
    bulk_chunks: int
    bulk_reads: int
    tail_chunk: int
    tail_reads: int
    view_events: int
    view_chunks: int
    view_reads: int


SIZES = {
    "full": Size(10_000, 16, 400_000, 16, 25, 500, 5, 40_000, 4, 10),
    "smoke": Size(300, 16, 30_000, 4, 25, 100, 5, 4_000, 2, 10),
}


def _now() -> float:
    return time.perf_counter()


def _pctl(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, int(np.ceil(q * len(s))) - 1)]


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def _same(got: pa.Table, want: pa.Table) -> bool:
    if got.num_rows != want.num_rows:
        return False
    return not got.num_rows or got.select(want.column_names).cast(want.schema).equals(want)


def _part_names(keys, P: int) -> dict:
    """key -> basename of the one partition file its point read opens (lake
    and view name partitions alike), hashed with the engine's partitioner
    before any wrapper is installed."""
    from bcdc2bcdc_ray.canonical import partition_ids

    uniq = sorted(set(keys))
    pids = partition_ids(pa.table({"conv_id": pa.array(uniq, pa.string())}), ["conv_id"], P)
    return {k: f"part-{int(p):05d}.parquet" for k, p in zip(uniq, pids)}


def _lake_io(before: dict, after: dict, wal_bytes: int) -> dict:
    """Per-cycle write counts from two lake snapshots."""
    w = tracing.written(before, after)
    parts = [sz for p, sz in w.items() if os.sep not in p and p.startswith("part-")]
    return {
        "merge.partitions_rewritten": len(parts),
        "merge.bytes_rewritten": sum(parts),
        "merge.write_amp": sum(parts) / wal_bytes,
        "fs.files_written": len(w),
    }


class Run:
    """State of one benchmark run: samples, counters, checks, trace."""

    def __init__(self, workload, seed, seconds, trace, size, work_dir, t_process):
        from bcdc2bcdc_ray.spec import transcripts_spec

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        self.size = SIZES[size]
        self.work = work_dir
        self.t_process = t_process
        self.spec = transcripts_spec()
        self.apply_ms: list[float] = []
        self.read_ms: list[float] = []
        self.read_bytes: list[int] = []
        self.seed_s: list[float] = []
        self.setup: dict[str, float] = {}
        self.cycles: list[dict] = []  # per measured cycle, traced runs
        self.serial: dict | None = None  # bulk_replay's serial leg
        self.view: dict = {}
        self.events_per_cycle = 0.0
        self.peak_rss_mb = 0.0  # driver peak RSS during engine ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rng = np.random.default_rng(seed + 7)
        span = int(self.size.convs * 1.3) + 1
        self.key_pool = [f"conv-{i:08d}" for i in (self.rng.zipf(1.1, KEY_POOL) - 1) % span]
        self.part_of = _part_names(self.key_pool, self.size.partitions)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            print(f"CHECK FAILED [{self.workload}]: {what}", file=sys.stderr)

    def op(self, kind: str, fn, *args, **kwargs):
        """Run one engine op; returns (result or None, wall s). A raised
        exception or a wall past HARD_CAP_S counts as a failed op. The
        driver's peak RSS is reset before and read right after the op."""
        self.attempted += 1
        session.reset_peak_rss()
        t0 = _now()
        try:
            with self.tracer.span(kind) if self.tracer else contextlib.nullcontext():
                out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, _now() - t0
        wall = _now() - t0
        self.peak_rss_mb = max(self.peak_rss_mb, session.peak_rss_mb())
        if self.tracer is None:
            leftover = tracing.installed_wrappers()
            self.check(not leftover, f"untraced op ran with wrappers {leftover}")
        if wall > HARD_CAP_S:
            print(f"op {kind} took {wall:.1f}s > {HARD_CAP_S}s", file=sys.stderr)
            self.failed += 1
        return out, wall

    def traced(self):
        """Wrappers installed for the block (traced runs only)."""
        return tracing.patched(self.tracer) if self.tracer else contextlib.nullcontext()

    def keep_going(self, t_start: float, cycles: int) -> bool:
        """Measure for ``seconds`` and at least MIN_APPLIES cycles, unless
        the process is near the end of its time."""
        if _now() - self.t_process > LOOP_CUTOFF_S:
            return cycles == 0
        return cycles < MIN_APPLIES or _now() - t_start < self.seconds

    def seed_lake(self, lake0: pa.Table, lake_dir: str, sample: bool = True) -> None:
        from bcdc2bcdc_ray.pipelines import cdc

        shutil.rmtree(lake_dir, ignore_errors=True)
        t0 = _now()
        cdc.init_lake(lake0, lake_dir, self.spec, num_partitions=self.size.partitions)
        if sample:
            self.seed_s.append(_now() - t0)

    def reads(self, module, target: str, n: int, index: oracle.RowIndex) -> None:
        """``n`` timed ``module.lookup`` point reads of Zipf-drawn keys,
        each checked against the oracle's rows."""
        for j in self.rng.integers(0, KEY_POOL, n):
            k = self.key_pool[j]
            got, wall = self.op("read", module.lookup, target, k)
            if got is None:
                continue
            self.read_ms.append(wall * 1e3)
            self.check(_same(got, index.rows(k)), f"lookup {k}")
            path = os.path.join(target, self.part_of[k])
            self.read_bytes.append(os.path.getsize(path) if os.path.exists(path) else 0)

    def top_up_reads(self, module, target: str, index: oracle.RowIndex) -> None:
        """Reads of the final state until the p90 is supported."""
        self.reads(module, target, max(0, MIN_READS - len(self.read_ms)), index)

    def fold_cycle(self, root: int, extra: dict) -> dict:
        """Per-layer numbers of the spans under span ``root``."""
        tr = self.tracer
        inside = tr.within(root)
        agg: dict[str, float] = {"spans": len(inside), "apply_ms": tr.spans[root].ms}
        for i in inside:
            s = tr.spans[i]
            agg[f"{s.name}.ms"] = agg.get(f"{s.name}.ms", 0.0) + s.ms
            agg[f"{s.name}.n"] = agg.get(f"{s.name}.n", 0) + 1
            for k, v in s.counts.items():
                if isinstance(v, (int, float)):
                    agg[f"{s.name}.{k}"] = agg.get(f"{s.name}.{k}", 0) + v
        # the part of the wall no layer span covers
        entries = {root} | {i for i in inside if tr.spans[i].name == ENTRY_SPAN}
        covered = sum(
            tr.spans[i].ms for i in inside
            if tr.spans[i].parent in entries and i not in entries
        )
        agg["uncovered_ms"] = tr.spans[root].ms - covered
        agg["serial_ms"] = sum(agg.get(f"{n}.ms", 0.0) for n in LEGS)
        agg["wal.listed_max"] = max(
            (tr.spans[i].counts.get("listed", 0) for i in inside if tr.spans[i].name == "wal.prune"),
            default=0,
        )
        execs = [tr.spans[i].counts.get("exec") for i in inside if tr.spans[i].name == ENTRY_SPAN]
        for e in ("ray", "local", "pruned"):
            agg[f"exec.{e}"] = execs.count(e)
        agg.update(extra)
        return agg


def _exactly_once(run: Run, lake_dir: str, paths: list, state: pa.Table) -> None:
    """End of a workload: replaying the same WAL again must be pruned whole
    and apply nothing. Then one chunk re-sends old events with their
    original LSNs beside one new event: the old ones must all be skipped
    and only the new one applied, as the oracle says."""
    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc

    rep, _ = run.op("exactly_once", cdc.replay, lake_dir, paths, run.spec)
    if rep is not None:
        applied = rep["adds"] + rep["updates"] + rep["deletes"]
        run.check(applied == 0, f"re-replay of the same WAL applied {applied} changes")
        run.check(rep["exec"] == "pruned", f"re-replay of the same WAL ran exec={rep['exec']}")
    old = pa.concat_tables([pq.read_table(p).slice(0, REDELIVER_ROWS) for p in (paths[0], paths[-1])])
    hi = max(pc.max(pq.read_table(p, columns=["lsn"]).column("lsn")).as_py() for p in paths)
    new = cg.gen_change_events(1, run.size.convs, seed=run.seed + 2, lsn_start=hi + 1, dup_frac=0.0)
    new = new.slice(0, 1).cast(old.schema)
    os.makedirs(os.path.join(run.work, "redeliver"))
    path = os.path.join(run.work, "redeliver", "wal-000000.parquet")
    pq.write_table(pa.concat_tables([old, new]), path)
    want, counts = oracle.lww_apply(state, new)
    rep, _ = run.op("redeliver", cdc.replay, lake_dir, [path], run.spec)
    if rep is not None:
        got = {k: rep[k] for k in counts}
        run.check(got == counts, f"redelivery counters {got} != oracle {counts}")
        run.check(rep["skipped"] == old.num_rows, f"redelivery skipped {rep['skipped']} != {old.num_rows}")
        run.check(cdc.read_lake_table(lake_dir).equals(want), "lake after redelivery != oracle")


@contextlib.contextmanager
def _local_plan():
    """Lift the engine's local-plan size caps (read at call time) so a
    replay runs on the driver-side plan whatever its size."""
    caps = ("REPLAY_LOCAL_BYTES", "REPLAY_LOCAL_TOUCH_BYTES")
    saved = {k: os.environ.get(k) for k in caps}
    os.environ.update({k: str(1 << 62) for k in caps})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


# ---------------------------------------------------------------------------
# bulk_replay
# ---------------------------------------------------------------------------


def bulk_replay(run: Run) -> None:
    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc

    z, spec = run.size, run.spec
    t0 = _now()
    lake0 = cg.gen_transcripts(z.convs, seed=run.seed)
    events = cg.gen_change_events(z.bulk_events, z.convs, seed=run.seed + 1)
    paths = cg.write_wal_chunks(events, os.path.join(run.work, "wal"), num_chunks=z.bulk_chunks)
    run.setup["gen_s"] = _now() - t0
    expected, counts = oracle.lww_apply(lake0, events)
    index = oracle.RowIndex(expected)
    wal_bytes = sum(os.path.getsize(p) for p in paths)
    lake_dir = os.path.join(run.work, "lake")
    run.events_per_cycle = events.num_rows

    def cycle():
        run.seed_lake(lake0, lake_dir)
        before = tracing.snapshot(lake_dir) if run.tracer else None
        # the replay's stages run in Ray workers: no wrappers around it
        rep, wall = run.op("replay", cdc.replay, lake_dir, paths, spec)
        if rep is None:
            return None
        if run.tracer:
            io = _lake_io(before, tracing.snapshot(lake_dir), wal_bytes)
            io.update({f"exec.{e}": int(rep.get("exec") == e) for e in ("ray", "local", "pruned")})
            run.cycles.append(io)
        run.check(rep["events"] == events.num_rows, f"replay events {rep['events']}")
        got = {k: rep[k] for k in counts}
        run.check(got == counts, f"replay counters {got} != oracle {counts}")
        run.check(cdc.read_lake_table(lake_dir).equals(expected), "lake != oracle")
        return wall

    run.setup["warm_s"] = cycle() or 0.0
    run.cycles.clear()
    t_start, i = _now(), 0
    while run.keep_going(t_start, i):
        i += 1
        wall = cycle()
        if wall is not None:
            run.apply_ms.append(wall * 1e3)
        with run.traced():
            run.reads(cdc, lake_dir, z.bulk_reads, index)
    with run.traced():
        run.top_up_reads(cdc, lake_dir, index)
    if run.tracer:
        _serial_leg(run, lake0, paths, expected, wal_bytes)
    _exactly_once(run, lake_dir, paths, expected)


def _serial_leg(run: Run, lake0, paths, expected, wal_bytes) -> None:
    """The distributed plan's stages run in Ray workers, out of the
    wrappers' reach: replay the same WAL on the engine's own driver-side
    local plan, wrappers installed, on a fresh copy of the seeded lake."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir = os.path.join(run.work, "serial")
    run.seed_lake(lake0, lake_dir, sample=False)
    before = tracing.snapshot(lake_dir)
    root = len(run.tracer.spans)
    with _local_plan(), run.traced():
        rep, _ = run.op("serial", cdc.replay, lake_dir, paths, run.spec)
    if rep is not None:
        run.check(rep["exec"] == "local", f"serial leg ran exec={rep['exec']}")
    run.check(cdc.read_lake_table(lake_dir).equals(expected), "serial-leg lake != oracle")
    run.serial = run.fold_cycle(root, _lake_io(before, tracing.snapshot(lake_dir), wal_bytes))
    shutil.rmtree(lake_dir)


# ---------------------------------------------------------------------------
# tail_follow
# ---------------------------------------------------------------------------


def tail_follow(run: Run) -> None:
    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.sources import wal as wal_src

    z, spec = run.size, run.spec
    t0 = _now()
    lake0 = cg.gen_transcripts(z.convs, seed=run.seed)
    run.setup["gen_s"] = _now() - t0
    lake_dir = os.path.join(run.work, "lake")
    for _ in range(SEED_REPS):
        run.seed_lake(lake0, lake_dir)
    wal_dir = os.path.join(run.work, "wal")
    os.makedirs(wal_dir)
    state = lake0.sort_by([(k, "ascending") for k in oracle.KEY])
    next_lsn = 1
    chunk_rows: list[int] = []

    def cycle(i: int):
        nonlocal state, next_lsn
        chunk = cg.gen_change_events(
            z.tail_chunk, z.convs, seed=run.seed * 100_003 + i, lsn_start=next_lsn
        )
        next_lsn = int(pc.max(chunk.column("lsn")).as_py()) + 1
        path = os.path.join(wal_dir, f"wal-{i:06d}.parquet")
        tmp = os.path.join(wal_dir, f".wal-{i:06d}.tmp")
        pq.write_table(chunk, tmp)
        os.replace(tmp, path)  # the follower never lists a partial chunk
        state, counts = oracle.lww_apply(state, chunk)
        before = tracing.snapshot(lake_dir) if run.tracer else None
        root = len(run.tracer.spans) if run.tracer else 0
        rep, wall = run.op("apply", cdc.follow, lake_dir, wal_dir, spec)
        if rep is None:
            return None
        if run.tracer:
            io = _lake_io(before, tracing.snapshot(lake_dir), os.path.getsize(path))
            run.cycles.append(run.fold_cycle(root, io))
        got = {k: rep[k] for k in counts}
        run.check(got == counts, f"follow counters {got} != oracle {counts}")
        chunk_rows.append(chunk.num_rows)
        return wall

    with run.traced():
        run.setup["warm_s"] = cycle(0) or 0.0
        run.cycles.clear()
        t_start, i = _now(), 0
        while run.keep_going(t_start, i):
            i += 1
            wall = cycle(i)
            if wall is not None:
                run.apply_ms.append(wall * 1e3)
            run.reads(cdc, lake_dir, z.tail_reads, oracle.RowIndex(state))
        run.top_up_reads(cdc, lake_dir, oracle.RowIndex(state))
    run.check(cdc.read_lake_table(lake_dir).equals(state), "final lake != oracle")
    _exactly_once(run, lake_dir, wal_src.list_wal_chunks(wal_dir), state)
    run.events_per_cycle = _median(chunk_rows[1:])


# ---------------------------------------------------------------------------
# view_refresh
# ---------------------------------------------------------------------------


def view_refresh(run: Run) -> None:
    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc, view

    z, spec = run.size, run.spec
    t0 = _now()
    lake0 = cg.gen_transcripts(z.convs, seed=run.seed)
    events = cg.gen_change_events(z.view_events, z.convs, seed=run.seed + 1)
    paths = cg.write_wal_chunks(events, os.path.join(run.work, "wal"), num_chunks=z.view_chunks)
    run.setup["gen_s"] = _now() - t0
    lake_dir = os.path.join(run.work, "lake")
    view_dir = os.path.join(run.work, "view")
    base_dir = os.path.join(run.work, "view_base")
    feed_dir = os.path.join(run.work, "feed")
    aggs = [view.AggSpec(o, k, c) for o, k, c in VIEW_AGGS]
    feed_s = []
    for _ in range(SEED_REPS):  # the last pass's lake, view and feed are kept
        run.seed_lake(lake0, lake_dir)
        for d in (view_dir, feed_dir):
            shutil.rmtree(d, ignore_errors=True)
        t0 = _now()
        view.create_view(view_dir, lake_dir, ["conv_id"], aggs)
        rep = cdc.replay(lake_dir, paths, spec, changes_dir=feed_dir, changes_before=True)
        feed_s.append(_now() - t0)
    run.setup["feed_s"] = _median(feed_s)
    shutil.copytree(view_dir, base_dir)
    expected_lake, _ = oracle.lww_apply(lake0, events)
    run.check(cdc.read_lake_table(lake_dir).equals(expected_lake), "lake != oracle")
    expected = oracle.view_recompute(expected_lake)
    index = oracle.RowIndex(expected)
    feed_rows = sum(
        pq.read_metadata(os.path.join(feed_dir, f)).num_rows
        for f in os.listdir(feed_dir) if f.endswith(".parquet")
    )
    run.check(
        feed_rows == rep["adds"] + rep["updates"] + rep["deletes"],
        f"feed rows {feed_rows} != applied changes",
    )
    repairs: list[int] = []

    def cycle():
        shutil.rmtree(view_dir)
        shutil.copytree(base_dir, view_dir)
        before = tracing.snapshot(view_dir) if run.tracer else None
        root = len(run.tracer.spans) if run.tracer else 0
        rep, wall = run.op("apply", view.refresh_view, view_dir, feed_dir)
        if rep is None:
            return None
        if run.tracer:
            w = tracing.written(before, tracing.snapshot(view_dir))
            run.cycles.append(run.fold_cycle(root, {"view.files_written": len(w)}))
        repairs.append(rep.get("repair", {}).get("dirty_groups", 0))
        run.check(view.read_view(view_dir).equals(expected), "view != recompute of the lake")
        return wall

    with run.traced():
        run.setup["warm_s"] = cycle() or 0.0
        run.cycles.clear()
        repairs.clear()
        t_start, i = _now(), 0
        while run.keep_going(t_start, i):
            i += 1
            wall = cycle()
            if wall is not None:
                run.apply_ms.append(wall * 1e3)
            run.reads(view, view_dir, z.view_reads, index)
        run.top_up_reads(view, view_dir, index)
        again, _ = run.op("exactly_once", view.refresh_view, view_dir, feed_dir)
        if again is not None:
            run.check(again["files"] == 0, f"second refresh folded {again['files']} files")
    _exactly_once(run, lake_dir, paths, expected_lake)
    run.events_per_cycle = feed_rows
    run.view = {"feed_rows": feed_rows, "repair_groups": _median(repairs)}


WORKLOADS = {
    "bulk_replay": bulk_replay,
    "tail_follow": tail_follow,
    "view_refresh": view_refresh,
}


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    apply_p50 = _median(run.apply_ms)
    setup_s = (
        run.setup["ray_start_s"] + run.setup["gen_s"] + _median(run.seed_s)
        + run.setup.get("feed_s", 0.0) + run.setup["warm_s"]
    )
    return {
        "setup_s": (setup_s, "s"),
        "events_per_s": (run.events_per_cycle / (apply_p50 / 1e3) if apply_p50 else 0.0, "events/s"),
        "apply_p50_ms": (apply_p50, "ms"),
        "read_p50_ms": (_median(run.read_ms), "ms"),
        "read_p90_ms": (_pctl(run.read_ms, 0.9) if run.read_ms else 0.0, "ms"),
        "driver_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run) -> dict:
    """Per-layer metrics. Layer timings are per-cycle medians; on
    bulk_replay they come from the serial leg, whose stages ran on the
    driver under the wrappers."""
    med = _median(run.apply_ms)

    def cyc(key):
        return _median([c.get(key, 0) for c in run.cycles])

    src = (lambda k: run.serial.get(k, 0)) if run.serial is not None else cyc
    serial_s = src("serial_ms") / 1e3
    rows_in, rows_out = src("skew.combine.rows_in"), src("skew.combine.rows_out")
    merged, applied = src("delta.merge_partition.events"), src("delta.merge_partition.applied")
    spans = run.tracer.spans
    cdc_reads = [s.ms for s in spans if s.name == "cdc.lookup"]
    view_reads = [s.ms for s in spans if s.name == "view.lookup"]
    wall = src("apply_ms")
    return {
        "wal.prune_ms": (src("wal.prune.ms"), "ms"),
        "wal.chunks_listed": (src("wal.listed_max"), "count"),
        "wal.chunks_live": (src("wal.prune.live"), "count"),
        "cdc.assign_ms": (src("cdc.assign.ms"), "ms"),
        "cdc.replay.exec_ray": (cyc("exec.ray"), "count"),
        "cdc.replay.exec_local": (cyc("exec.local"), "count"),
        "cdc.replay.exec_pruned": (cyc("exec.pruned"), "count"),
        "cdc.replay.stalls": (sum(1 for w in run.apply_ms if w > STALL_FACTOR * med), "count"),
        "cdc.replay.serial_s": (serial_s, "s"),
        "cdc.replay.parallel_eff": (serial_s / (med / 1e3) if med else 0.0, "ratio"),
        "cdc.lookup_ms": (_median(cdc_reads), "ms"),
        "cdc.lookup_bytes": (_median(run.read_bytes) if cdc_reads else 0, "bytes"),
        "canonical.content_hash_ms": (src("canonical.content_hash.ms"), "ms"),
        "canonical.fingerprint_ms": (src("canonical.fingerprint.ms"), "ms"),
        "skew.combine_ms": (src("skew.combine.ms"), "ms"),
        "skew.rows_in": (rows_in, "count"),
        "skew.rows_out": (rows_out, "count"),
        "skew.collapse_ratio": (rows_out / rows_in if rows_in else 0.0, "ratio"),
        "delta.merge_partition_ms": (src("delta.merge_partition.ms"), "ms"),
        "delta.applied_ratio": (applied / merged if merged else 0.0, "ratio"),
        "merge.writer_ms": (src("merge.writer.ms"), "ms"),
        "merge.calls": (src("merge.writer.n"), "count"),
        "merge.read_partition_ms": (src("merge.read_partition.ms"), "ms"),
        "merge.partitions_rewritten": (cyc("merge.partitions_rewritten"), "count"),
        "merge.bytes_rewritten": (cyc("merge.bytes_rewritten"), "bytes"),
        "merge.write_amp": (cyc("merge.write_amp"), "ratio"),
        "manifest.commits": (src("manifest.commit.n"), "count"),
        "manifest.commit_ms": (src("manifest.commit.ms"), "ms"),
        "fs.files_written": (cyc("fs.files_written"), "count"),
        "view.refresh_ms": (med if run.workload == "view_refresh" else 0.0, "ms"),
        "view.feed_rows": (run.view.get("feed_rows", 0), "count"),
        "view.files_written": (cyc("view.files_written"), "count"),
        "view.repair_groups": (run.view.get("repair_groups", 0), "count"),
        "view.lookup_ms": (_median(view_reads), "ms"),
        "view.lookup_bytes": (_median(run.read_bytes) if view_reads else 0, "bytes"),
        "setup.ray_start_s": (run.setup["ray_start_s"], "s"),
        "setup.seed_s": (_median(run.seed_s), "s"),
        "setup.warm_s": (run.setup["warm_s"], "s"),
        "host.probe_ms": (run.setup["probe_pre_ms"], "ms"),
        "host.probe_post_ms": (run.setup["probe_post_ms"], "ms"),
        "host.ray_sessions": (run.setup["ray_sessions"], "count"),
        "trace.overhead_frac": (
            src("spans") * run.setup["span_cost_s"] * 1e3 / wall if wall else 0.0, "ratio"
        ),
        "trace.uncovered_ms": (src("uncovered_ms"), "ms"),
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, size: str,
            root: str, work_dir: str, t_process: float) -> dict:
    """One run: bring up Ray, run the workload, return the result object."""
    run = Run(workload, seed, seconds, trace, size, work_dir, t_process)
    run.setup["ray_sessions"] = session.other_raylets()
    run.setup["probe_pre_ms"] = session.host_probe_ms()
    run.setup["span_cost_s"] = tracing.span_cost_s() if trace else 0.0
    with session.ray_session(root) as ray_start_s:
        run.setup["ray_start_s"] = ray_start_s
        WORKLOADS[workload](run)
    run.setup["probe_post_ms"] = session.host_probe_ms()
    leftover = tracing.installed_wrappers()
    run.check(not leftover, f"wrappers still installed: {leftover}")
    metrics = per_layer(run) if trace else end_to_end(run)
    print(
        f"[{workload}] applies={len(run.apply_ms)} reads={len(run.read_ms)} "
        f"attempted={run.attempted} failed={run.failed} correct={run.correct} "
        f"apply_ms={[round(w) for w in run.apply_ms]} setup={run.setup}",
        file=sys.stderr,
    )
    return {
        "correct": bool(run.correct),
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {
            k: {"value": v if isinstance(v, int) else float(v), "unit": u}
            for k, (v, u) in metrics.items()
        },
    }
