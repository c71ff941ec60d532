"""Benchmark harness.

Headline: CDC replay throughput — replay a deterministically generated,
Zipf-skewed transcript change-event WAL (scaled by $GRAFT_SF_DIR's scale
factor) against a hash-partitioned parquet lake, measuring end-to-end wall
time of the streaming pipeline (read → partition/watermark → salted
pre-reduce → groupby shuffle → merge-writer actor pool → manifests).

Also times representative operator queries over the $GRAFT_SF_DIR tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N, ...}

--scaling: runs the headline in two fresh processes (num_cpus=8 and 32) on
the same input and reports both throughputs + efficiency (the in-sandbox
evidence for the N→4N cluster scaling criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
MODE = os.environ.get("BENCH_MODE", "full")  # "headline" → skip query sweep

# replay workload scaled by the sf factor: 2M events / 50k convs at sf0.1
try:
    _factor = float(os.path.basename(SF_DIR.rstrip("/")).replace("sf", ""))
except ValueError:
    _factor = 0.1
N_EVENTS = int(
    os.environ.get("BENCH_EVENTS", max(20_000, int(20_000_000 * _factor)))
)
N_CONVS = max(1_000, N_EVENTS // 40)
# partitions sized to the LAKE (keep merge groups chunky) — too many
# partitions multiplies per-group/manifest overhead with no parallelism win
N_PARTITIONS = max(16, min(256, N_EVENTS // 250_000))

QUERY_NAMES = [
    "cdc_lww_merge",
    "pricing_summary",
    "hourly_rollup",
    "order_customer_join",
    "token_count",
    "lang_id",
    "minhash_lsh_pairs",
    "ngram_jaccard_pairs",
    "ann_topk",
    "exact_dedup",
    "sessionize",
    "cdc_delta_classify",
    "alt_key_delta",
    "asof_join_orders",
    "asof_join_orders_broadcast",
    "range_join_events",
    "group_quantiles_events",
    "hll_distinct_parts",
    "neardup_dedup_docs",
    "order_customer_join_shuffle",
    "tfidf_doc_terms",
    "semi_join_orders",
    "pivot_event_counts",
    "events_lag",
    "pack_sequences",
    "gopher_quality_docs",
    "contamination_flag",
    "mixture_sample_docs",
    "pii_redact_contacts",
    "user_customer_full_join",
    "training_corpus_build",
    "incremental_dedup_adds",
    "global_rank_docs",
    "top_terms",
    "daily_retention",
    "moving_sum_events",
    "ann_topk_multi",
    "multimodal_jpeg_decode",
    "multimodal_mp4_meta",
    "cdc_change_feed",
    "incremental_view_rollup",
    "lsh_index_adds",
    # round-5 surface (fixture-scale; http_sink_sync_out is excluded — a
    # ~15k-request real-socket run belongs in its pytest, not the sweep)
    "denorm_resolve_misses",
    "view_sliding_window_dist",
]


def _consume(res) -> int:
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res.num_rows
    if isinstance(res, pd.DataFrame):
        return len(res)
    n = 0
    for b in res.iter_batches(batch_size=None, batch_format="pyarrow"):
        n += b.num_rows
    return n


def run_bench() -> dict:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc, queries as q
    from bcdc2bcdc_ray.spec import transcripts_spec

    work = f"/tmp/bench_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    lake_dir, wal_dir = os.path.join(work, "lake"), os.path.join(work, "wal")

    # ---- untimed setup: generate lake + WAL, seed lake, warm page cache
    spec = transcripts_spec()
    lake = cg.gen_transcripts(N_CONVS, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=N_PARTITIONS)
    # chunk count is FIXED (not a function of NUM_CPUS) so the --scaling
    # legs replay byte-identical inputs: chunk size changes how much the
    # per-block combiner collapses, which would otherwise skew the
    # two-parallelism comparison
    paths = cg.gen_wal_chunks(
        N_EVENTS, N_CONVS, wal_dir, num_chunks=32,
        seed=43, noop_frac=0.05,
    )
    import pyarrow.parquet as _pq

    n_events = sum(_pq.read_metadata(p).num_rows for p in paths)
    del lake

    # ---- untimed warmup: spin up Ray worker processes + a writer actor
    # pool on a scratch lake so the timed headline measures SUSTAINED
    # throughput (the target metric), not first-execution process spawn
    # the warm lake must match the HEADLINE's partition count: the writer
    # pool is sized from P, so an 8-partition warmup leaves the headline's
    # own pool cold — measured 2026-08-18: first full-size replay in a
    # session reads 6.6-9.3 s, the second onward 2.0-2.4 s on the same
    # inputs (same commit; the ramp is worker/actor spin-up + first-touch,
    # not engine throughput, and it grew with host steal). The metric is
    # SUSTAINED throughput, so warm at full shape.
    warm_dir = os.path.join(work, "warm_lake")
    warm_lake = cg.gen_transcripts(2000, seed=7)
    cdc.init_lake(warm_lake, warm_dir, spec, num_partitions=N_PARTITIONS)
    # 32 chunks → 32 read tasks → the FULL Ray worker pool spawns (and
    # imports) during warmup, not inside the timed window
    warm_paths = cg.gen_wal_chunks(
        200_000, 2000, os.path.join(work, "warm_wal"), num_chunks=32, seed=8
    )
    cdc.replay(warm_dir, warm_paths, spec)
    del warm_lake

    # ---- timed headline: the replay pipeline, MEDIAN OF 3 reps (fresh
    # lake each rep, identical WAL). Motivated 2026-08-18: the host showed
    # 3-6x wall swings between back-to-back identical runs (abs probe
    # 304-400 ms in minutes); a single draw measures host weather, the
    # median measures the engine. All reps are reported.
    # writer-pool size left to replay()'s default: min(16, P//4, cpus-1) —
    # always at least one CPU short of the cluster so upstream stages run.
    # Skew handling in the headline is the shuffle-free per-block LWW
    # combiner (replay default); the salted-shuffle variant is timed
    # separately below.
    abs_pre = _host_abs_ms()
    reps = []
    for r in range(3):
        if r > 0:
            shutil.rmtree(lake_dir, ignore_errors=True)
            relake = cg.gen_transcripts(N_CONVS, seed=42)
            cdc.init_lake(relake, lake_dir, spec, num_partitions=N_PARTITIONS)
            del relake
        t0 = time.perf_counter()
        rep = cdc.replay(lake_dir, paths, spec)
        reps.append(round(time.perf_counter() - t0, 3))
    headline = sorted(reps)[1]

    # salted-shuffle skew variant (fresh lake, same WAL) — the extra
    # pre-reduce shuffle costs ~20-40%; kept measured so the trade-off is
    # visible per round.
    shutil.rmtree(lake_dir, ignore_errors=True)
    lake = cg.gen_transcripts(N_CONVS, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=N_PARTITIONS)
    del lake
    t0 = time.perf_counter()
    cdc.replay(lake_dir, paths, spec, salt=8)
    salted = time.perf_counter() - t0

    out = {
        "metric": "cdc_replay_wall_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "sf": _factor,
        "num_cpus": NUM_CPUS,
        "events": n_events,
        "events_per_sec": round(n_events / headline),
        "events_per_sec_salted": round(n_events / salted),
        "partitions": N_PARTITIONS,
        "applied": rep["adds"] + rep["updates"] + rep["deletes"],
        "host_abs_ms_pre": abs_pre,
        "host_abs_ms": _host_abs_ms(),
        "headline_reps": reps,
        "queries": {},
    }

    # steady-state micro-increment: a 300-event tail chunk replayed against
    # the FULL-SIZE lake, median of 3 — the per-poll latency a follow loop
    # pays; under REPLAY_LOCAL_BYTES it takes the in-process fast path
    # ("local" in increment_exec), identical semantics pytest-pinned.
    inc = []
    for i in range(3):
        iev = cg.gen_change_events(
            300, N_CONVS, seed=900 + i, lsn_start=10**9 + i * 10**6
        )
        ip = cg.write_wal_chunks(
            iev, os.path.join(work, f"inc{i}"), num_chunks=1
        )
        t0 = time.perf_counter()
        irep = cdc.replay(lake_dir, ip, spec)
        inc.append(round(time.perf_counter() - t0, 4))
    out["increment_sec"] = sorted(inc)[1]
    out["increment_exec"] = irep["exec"]

    if MODE == "full":
        qs = q.queries()
        for name in QUERY_NAMES:
            t0 = time.perf_counter()
            _consume(qs[name](SF_DIR))
            out["queries"][name] = round(time.perf_counter() - t0, 3)

    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return out


def _probe_burn(_):
    import numpy as np

    a = np.random.rand(600, 600)
    t0 = time.perf_counter()
    for _ in range(40):
        a @ a
    return time.perf_counter() - t0


def _host_abs_ms() -> float:
    """ABSOLUTE single-core host speed: wall of one fixed numpy workload in
    this process, in ms. Complements the per-core RATIO probe, which can
    read ~0.8 while the whole host is absolutely degraded — measured
    2026-08-18: the identical replay protocol on the SAME commit read
    5.8–18.9 s across one hour (A/B-interleaved, medians tied), i.e. a
    3–6× absolute host swing invisible to the ratio probe. Every bench
    line now carries this so cross-day readings are interpretable; compare
    against the nominal recorded in BASELINE.md before trusting any wall."""
    return round(_probe_burn(None) * 1000, 1)


def _host_percore_ratio() -> float:
    """Ray-free host calibration: per-process throughput of a fixed numpy
    workload at 32-wide relative to 8-wide. On a healthy exclusive host
    this reads ~1.0; shared-hypervisor windows have measured as low as
    0.73, which mathematically caps any 8->32 scaling-efficiency reading
    at that value regardless of engine code (see BASELINE.md drift
    calibration). Reported alongside --scaling so every measurement
    carries its own interpretation context."""
    import multiprocessing as mp

    means = {}
    for n in (8, 32):
        with mp.Pool(n) as p:
            means[n] = sum(p.map(_probe_burn, range(n))) / n
    return round(means[8] / means[32], 3)


def run_scaling() -> dict:
    # The scaling criterion targets the SUSTAINED-throughput regime (10^10
    # events on a real cluster); at the default 2M-event size fixed overheads
    # (actor startup, shuffle setup, ~2-3s) mask parallel speedup, so the
    # scaling measurement replays a >=32M-event WAL where per-event work
    # dominates (measured: eff 0.58 at 8M, 0.64 at 16M, 0.83 at 32M — the
    # constant amortizes). Override with SCALING_EVENTS.
    scaling_events = int(
        os.environ.get("SCALING_EVENTS", max(N_EVENTS * 4, 32_000_000))
    )

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_MODE="headline",
            BENCH_EVENTS=str(scaling_events),
        )
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(r.stdout.strip().splitlines()[-1])

    ratio = _host_percore_ratio()
    abs_pre = _host_abs_ms()
    lo, hi = one(8), one(32)
    eff = (lo["value"] / hi["value"]) / (32 / 8)
    return {
        "metric": "scaling_efficiency_8_to_32",
        "host_percore_ratio_32v8": ratio,
        "host_abs_ms_pre": abs_pre,
        "host_abs_ms_after": _host_abs_ms(),
        "sec_8": lo["value"],
        "sec_32": hi["value"],
        "events": lo["events"],
        "events_per_sec_8": lo["events_per_sec"],
        "events_per_sec_32": hi["events_per_sec"],
        "scaling_efficiency": round(eff, 3),
    }


def run_maintenance_once() -> dict:
    """Time lake maintenance (split P→2P, then merge back) at NUM_CPUS —
    the per-partition rewrite passes run as a distributed Ray Data stage
    (pipelines/cdc._foreach_partition), so wall should scale with CPUs."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.spec import transcripts_spec

    work = f"/tmp/bench_maint_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    lake_dir = os.path.join(work, "lake")
    spec = transcripts_spec()
    n_convs = int(os.environ.get("MAINT_CONVS", "120000"))
    lake = cg.gen_transcripts(n_convs, seed=42)
    rows = lake.num_rows
    P = 64
    cdc.init_lake(lake, lake_dir, spec, num_partitions=P)
    del lake
    # warm the worker pool so the timing is the maintenance pass, not spawn
    cdc.split_partitions(lake_dir)
    cdc.merge_partitions(lake_dir)
    t0 = time.perf_counter()
    cdc.split_partitions(lake_dir)
    split_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cdc.merge_partitions(lake_dir)
    merge_s = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return {
        "metric": "lake_maintenance_wall_sec",
        "rows": rows,
        "partitions": P,
        "num_cpus": NUM_CPUS,
        "split_sec": round(split_s, 3),
        "merge_sec": round(merge_s, 3),
    }


def run_maintenance_scaling() -> dict:
    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_MODE="maintenance")
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(r.stdout.strip().splitlines()[-1])

    lo, hi = one(8), one(32)
    wall_lo = lo["split_sec"] + lo["merge_sec"]
    wall_hi = hi["split_sec"] + hi["merge_sec"]
    return {
        "metric": "maintenance_scaling_8_to_32",
        "rows": lo["rows"],
        "partitions": lo["partitions"],
        "split_sec_8": lo["split_sec"],
        "merge_sec_8": lo["merge_sec"],
        "split_sec_32": hi["split_sec"],
        "merge_sec_32": hi["merge_sec"],
        "speedup": round(wall_lo / wall_hi, 2),
        "scaling_efficiency": round((wall_lo / wall_hi) / (32 / 8), 3),
    }


def run_view_bench() -> dict:
    """Incremental-view economics: on a lake ~15x the change volume, time
    (a) a full view (re)build — the recompute a non-incremental engine pays
    every round — vs (b) refresh_view folding only the feed's signed
    deltas. The ratio is the point: refresh cost tracks CHANGE volume, so
    at 100 TB (lake/change ratios of 10^3-10^4) the gap is proportionally
    larger than measured here."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc, view
    from bcdc2bcdc_ray.spec import transcripts_spec

    work = f"/tmp/bench_view_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    lake_dir = os.path.join(work, "lake")
    changes = os.path.join(work, "changes")
    spec = transcripts_spec()
    n_convs = int(os.environ.get("VIEW_CONVS", "120000"))
    n_events = int(os.environ.get("VIEW_EVENTS", "200000"))
    lake = cg.gen_transcripts(n_convs, seed=42)
    rows = lake.num_rows
    cdc.init_lake(lake, lake_dir, spec, num_partitions=64)
    del lake
    aggs = [
        view.AggSpec("n_rows", "count"),
        view.AggSpec("n_chars", "sum_len", "text"),
    ]
    if os.environ.get("VIEW_BOUNDS", "1") == "1":
        # a bound: WAL deletes retract it → the timed refresh INCLUDES the
        # dirty-group lake-repair pass (partition-pruned when dirt is
        # sparse; converges to a column-pruned full pass when dirty keys
        # span every lake partition, as a delete-heavy feed makes them)
        aggs.append(view.AggSpec("max_turn", "max", "turn_idx"))
    # warm pass (worker spawn) then the timed full build
    view.create_view(os.path.join(work, "vwarm"), lake_dir, ["conv_id"], aggs)
    t0 = time.perf_counter()
    view.create_view(os.path.join(work, "view"), lake_dir, ["conv_id"], aggs)
    create_s = time.perf_counter() - t0

    paths = cg.gen_wal_chunks(
        n_events, n_convs, os.path.join(work, "wal"), num_chunks=8, seed=43
    )
    cdc.replay(lake_dir, paths, spec, changes_dir=changes, changes_before=True)
    feed_rows = sum(
        __import__("pyarrow.parquet", fromlist=["x"]).read_metadata(
            os.path.join(changes, f)
        ).num_rows
        for f in os.listdir(changes)
    )
    t0 = time.perf_counter()
    rep = view.refresh_view(os.path.join(work, "view"), changes)
    refresh_s = time.perf_counter() - t0
    repair = rep.get("repair", {})
    # the non-incremental alternative at the same point in time
    t0 = time.perf_counter()
    view.create_view(os.path.join(work, "view2"), lake_dir, ["conv_id"], aggs)
    recreate_s = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return {
        "metric": "view_refresh_wall_sec",
        "lake_rows": rows,
        "feed_rows": feed_rows,
        "applied_rows": rep["applied_rows"],
        "repaired_groups": repair.get("repaired", 0),
        "num_cpus": NUM_CPUS,
        "create_sec": round(create_s, 3),
        "refresh_sec": round(refresh_s, 3),
        "recreate_sec": round(recreate_s, 3),
        "refresh_vs_recompute": round(recreate_s / refresh_s, 2),
    }


def run_window_bench() -> dict:
    """Windowed-view economics (round-4 derived panes + read-time
    sliding windows + TTL): on the same lake shape as --view, build an
    hourly-pane view, fold a feed increment, then time read_window at
    two (width, slide) shapes and a retention prune. The point at scale:
    the feed maintains ONE pane per bucket (refresh cost = change
    volume); any wider window is a read-time fold of the pane table —
    never a lake pass, never extra write amplification."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc, view
    from bcdc2bcdc_ray.spec import transcripts_spec

    abs_pre = _host_abs_ms()
    work = f"/tmp/bench_window_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    lake_dir = os.path.join(work, "lake")
    changes = os.path.join(work, "changes")
    spec = transcripts_spec()
    n_convs = int(os.environ.get("WINDOW_CONVS", "120000"))
    n_events = int(os.environ.get("WINDOW_EVENTS", "200000"))
    lake = cg.gen_transcripts(n_convs, seed=42)
    rows = lake.num_rows
    cdc.init_lake(lake, lake_dir, spec, num_partitions=64)
    del lake
    aggs = [
        view.AggSpec("n_rows", "count"),
        view.AggSpec("n_chars", "sum_len", "text"),
        view.AggSpec("max_turn", "max", "turn_idx"),
    ]
    derive = [view.DeriveSpec("pane", "time_bucket", "ts", 3600)]
    vdir = os.path.join(work, "view")
    # warm pass (worker spawn) outside the timed windows
    view.create_view(os.path.join(work, "vwarm"), lake_dir, ["pane"], aggs,
                     derive=derive)
    t0 = time.perf_counter()
    view.create_view(vdir, lake_dir, ["pane"], aggs, derive=derive)
    create_s = time.perf_counter() - t0

    paths = cg.gen_wal_chunks(
        n_events, n_convs, os.path.join(work, "wal"), num_chunks=8, seed=43
    )
    cdc.replay(lake_dir, paths, spec, changes_dir=changes, changes_before=True)
    t0 = time.perf_counter()
    rep = view.refresh_view(vdir, changes)
    refresh_s = time.perf_counter() - t0

    panes = view.read_view(vdir)
    t0 = time.perf_counter()
    day = view.read_window(vdir, 86400, 3600)  # 24 panes per window
    day_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    two = view.read_window(vdir, 7200, 3600)
    two_s = time.perf_counter() - t0

    # retention: drop the oldest third of panes
    wm = panes.column("pane")[panes.num_rows // 3].as_py()
    t0 = time.perf_counter()
    prep = view.prune_panes(vdir, wm)
    prune_s = time.perf_counter() - t0
    out = {
        "metric": "window_view_wall_sec",
        "lake_rows": rows,
        "pane_rows": panes.num_rows,
        "applied_rows": rep["applied_rows"],
        "num_cpus": NUM_CPUS,
        "create_sec": round(create_s, 3),
        "refresh_sec": round(refresh_s, 3),
        "read_window_24pane_sec": round(day_s, 3),
        "read_window_24pane_rows": day.num_rows,
        "read_window_2pane_sec": round(two_s, 3),
        "read_window_2pane_rows": two.num_rows,
        "prune_sec": round(prune_s, 3),
        "pruned_panes": prep["dropped_panes"],
        "host_abs_ms_pre": abs_pre,
        "host_abs_ms": _host_abs_ms(),
    }
    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return out


def run_soak_once() -> dict:
    """Full-lifecycle soak at sustained scale (one Ray session): bootstrap
    a lake from a snapshot table → replay a ~32.6M-event WAL with the
    pre-image change feed → view.follow drains the feed into a live
    per-conversation rollup (count + sum_len + the hll distinct sketch) →
    clone the pre-replay snapshot as a second lake and diff_lakes it
    against the live one → replay the diff into the clone → a re-diff
    emits 0 events (the defining convergence property). The number a
    cluster operator would quote: one end-to-end wall per stage."""
    import ray

    events = int(os.environ.get("SOAK_EVENTS", 32_640_000))
    n_convs = max(1_000, events // 40)
    P = max(16, min(256, events // 250_000))
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import pyarrow.parquet as _pq

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc, view
    from bcdc2bcdc_ray.spec import transcripts_spec

    work = f"/tmp/bench_soak_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    lake_dir = os.path.join(work, "lake")
    view_dir = os.path.join(work, "view")
    changes = os.path.join(work, "changes")
    spec = transcripts_spec()

    # untimed input generation (identical across CPU legs: fixed seeds,
    # fixed chunk count). SOAK_INPUT_DIR lets --soak generate once and
    # share the bytes across both legs (pure wall-clock savings; the
    # content is deterministic either way).
    indir = os.environ.get("SOAK_INPUT_DIR") or work
    os.makedirs(indir, exist_ok=True)
    snap_path = os.path.join(indir, "snapshot.parquet")
    if not os.path.exists(snap_path):
        lake_tbl = cg.gen_transcripts(n_convs, seed=42)
        _pq.write_table(lake_tbl, snap_path + ".tmp")
        os.replace(snap_path + ".tmp", snap_path)
        del lake_tbl
    lake_rows = _pq.read_metadata(snap_path).num_rows
    wal_dir = os.path.join(indir, "wal")
    if not os.path.isdir(wal_dir):
        paths = cg.gen_wal_chunks(
            events, n_convs, wal_dir, num_chunks=32, seed=43, noop_frac=0.05,
        )
    else:
        paths = sorted(
            os.path.join(wal_dir, f)
            for f in os.listdir(wal_dir)
            if f.endswith(".parquet")
        )
    n_events = sum(_pq.read_metadata(p).num_rows for p in paths)

    t = {}
    t0 = time.perf_counter()
    cdc.bootstrap_lake(snap_path, lake_dir, spec, num_partitions=P)
    t["bootstrap_sec"] = round(time.perf_counter() - t0, 2)

    t0 = time.perf_counter()
    view.create_view(
        view_dir, lake_dir, ["conv_id"],
        [
            view.AggSpec("n_rows", "count"),
            view.AggSpec("n_chars", "sum_len", "text"),
            view.AggSpec("distinct_turns", "hll", "turn_idx"),
        ],
    )
    t["view_build_sec"] = round(time.perf_counter() - t0, 2)

    cdc.snapshot(lake_dir, "pre")

    t0 = time.perf_counter()
    rep = cdc.replay(
        lake_dir, paths, spec, changes_dir=changes, changes_before=True
    )
    t["replay_feed_sec"] = round(time.perf_counter() - t0, 2)

    t0 = time.perf_counter()
    frep = view.follow(view_dir, changes, max_rounds=10)
    t["view_follow_sec"] = round(time.perf_counter() - t0, 2)

    # materialize the pre-replay snapshot as a standalone lake (hardlinks —
    # O(partitions) metadata, the restored-snapshot side of the diff)
    clone = os.path.join(work, "clone")
    sdir = os.path.join(lake_dir, "_snapshots", "pre")
    os.makedirs(os.path.join(clone, "_manifests"))
    for fn in os.listdir(sdir):
        if fn.endswith(".parquet") or fn == "_meta.json":
            os.link(os.path.join(sdir, fn), os.path.join(clone, fn))
    for fn in os.listdir(os.path.join(sdir, "_manifests")):
        os.link(
            os.path.join(sdir, "_manifests", fn),
            os.path.join(clone, "_manifests", fn),
        )

    diff_out = os.path.join(work, "diff")
    t0 = time.perf_counter()
    drep = cdc.diff_lakes(clone, lake_dir, diff_out, spec)
    t["diff_sec"] = round(time.perf_counter() - t0, 2)

    t0 = time.perf_counter()
    cdc.replay(clone, sorted(
        os.path.join(diff_out, f) for f in os.listdir(diff_out)
        if f.endswith(".parquet")
    ), spec)
    t["converge_sec"] = round(time.perf_counter() - t0, 2)
    rediff = cdc.diff_lakes(clone, lake_dir, os.path.join(work, "rediff"), spec)
    assert rediff["events"] == 0, rediff  # convergence property

    total = round(sum(t.values()), 2)
    out = {
        "metric": "lifecycle_soak_wall_sec",
        "value": total,
        "unit": "sec",
        "num_cpus": NUM_CPUS,
        "events": n_events,
        "lake_rows": lake_rows,
        "applied": rep["adds"] + rep["updates"] + rep["deletes"],
        "feed_files_folded": frep["files"],
        "view_rows_applied": frep["applied_rows"],
        "diff_events": drep["events"],
        **t,
        "events_per_sec_total": round(n_events / total),
    }
    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return out


def run_denorm() -> dict:
    """--denorm: maintenance cost of the incrementally-maintained join view
    (pipelines/denorm.py) at NUM_CPUS — create (index + initial build),
    fact-side backlog refresh, a steady-state increment, a one-dim-row
    fanout refresh through the FK index, and the idle poll. Sizes via
    DENORM_CONVS / DENORM_EVENTS (defaults: 120k convs, 8.16M events —
    the BASELINE.md table's shape)."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    import pyarrow as pa
    import pyarrow.parquet as _pq
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc, denorm
    from bcdc2bcdc_ray.spec import TableSpec, transcripts_spec

    n_convs = int(os.environ.get("DENORM_CONVS", 120_000))
    n_events = int(os.environ.get("DENORM_EVENTS", 8_160_000))
    work = f"/tmp/bench_denorm_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    p = lambda *a: os.path.join(work, *a)  # noqa: E731
    spec = transcripts_spec()
    dim_spec = TableSpec(name="tools", schema=cg.TOOLS_SCHEMA, key=("tool_id",))

    out: dict = {
        "metric": "denorm_maintenance_sec", "num_cpus": NUM_CPUS,
        "convs": n_convs, "events": n_events,
        "host_abs_ms_pre": _host_abs_ms(),
    }
    _pq.write_table(cg.gen_transcripts(n_convs, seed=42), p("seed.parquet"))
    cdc.bootstrap_lake(p("seed.parquet"), p("fact"), spec, num_partitions=64)
    cdc.init_lake(cg.gen_tool_dim(), p("dim"), dim_spec, num_partitions=4)

    t0 = time.perf_counter()
    cdc.create_index(p("idx"), p("fact"), "tool")
    denorm.create_denorm(
        p("dn"), p("fact"), p("dim"), "tool", {"tool_dest": "dest_name"},
        index_dir=p("idx"), fact_changes_dir=p("fch"), dim_changes_dir=p("dch"),
    )
    out["create_sec"] = round(time.perf_counter() - t0, 2)

    paths = cg.gen_wal_chunks(n_events, n_convs, p("fwal"), num_chunks=64, seed=47)
    cdc.replay(p("fact"), paths, spec, changes_dir=p("fch"), changes_before=True)
    t0 = time.perf_counter()
    r = denorm.refresh_denorm(p("dn"))
    out["backlog_refresh_sec"] = round(time.perf_counter() - t0, 2)
    out["backlog_affected"] = r["affected_keys"]

    inc = cg.gen_wal_chunks(
        max(n_events // 40, 10_000), n_convs, p("fwal2"), num_chunks=4,
        seed=53, lsn_offset=n_events + 10,
    )
    cdc.replay(p("fact"), inc, spec, changes_dir=p("fch"), changes_before=True)
    t0 = time.perf_counter()
    r = denorm.refresh_denorm(p("dn"))
    out["increment_refresh_sec"] = round(time.perf_counter() - t0, 2)
    out["increment_affected"] = r["affected_keys"]

    dev = pa.table({
        "lsn": pa.array([1], pa.int64()),
        "op": pa.array(["upsert"], pa.string()),
        "tool_id": pa.array(["search"], pa.string()),
        "dest_name": pa.array(["renamed-search"], pa.string()),
        "ts": pa.array([0], pa.timestamp("us")),
    })
    cdc.replay(p("dim"), cg.write_wal_chunks(dev, p("dwal"), num_chunks=1),
               dim_spec, changes_dir=p("dch"))
    t0 = time.perf_counter()
    r = denorm.refresh_denorm(p("dn"))
    out["dim_fanout_refresh_sec"] = round(time.perf_counter() - t0, 2)
    out["dim_fanout_affected"] = r["affected_keys"]

    t0 = time.perf_counter()
    denorm.refresh_denorm(p("dn"))
    out["idle_refresh_sec"] = round(time.perf_counter() - t0, 3)
    out["denorm_rows"] = cdc.lake_stats(p("dn"))["rows"]
    out["host_abs_ms"] = _host_abs_ms()
    shutil.rmtree(work, ignore_errors=True)
    ray.shutdown()
    return out


def run_soak() -> dict:
    """--soak: the lifecycle at 8 and 32 CPUs in fresh processes (same
    inputs), with the Ray-free host probe bracketing the measurement."""

    indir = os.environ.get("SOAK_INPUT_DIR", "/tmp/bench_soak_input")

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_MODE="soak",
            SOAK_INPUT_DIR=indir,
        )
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(r.stdout.strip().splitlines()[-1])

    ratio = _host_percore_ratio()
    lo = one(8)
    ratio_mid = _host_percore_ratio()
    hi = one(32)
    return {
        "metric": "lifecycle_soak_scaling_8_to_32",
        "host_percore_ratio_32v8": ratio,
        "host_percore_ratio_mid": ratio_mid,
        "host_percore_ratio_after": _host_percore_ratio(),
        "sec_8": lo["value"],
        "sec_32": hi["value"],
        "stages_8": {k: lo[k] for k in lo if k.endswith("_sec")},
        "stages_32": {k: hi[k] for k in hi if k.endswith("_sec")},
        "events": lo["events"],
        "scaling_efficiency": round((lo["value"] / hi["value"]) / 4.0, 3),
    }


def run_writers_bench() -> dict:
    """--writers: the bytes-aware writer-pool rule on a 4-partition FAT
    lake (VERDICT r4 next #8). A merged/compacted lake has few fat
    partitions; the legacy static pool (P//2 = 2 writers at P=4) leaves
    half the independent merge groups queued behind the pool while the
    bytes-aware auto rule opens one writer per fat partition (4). Replays
    the SAME heavy WAL into fresh 4-partition lakes under both rules,
    interleaved A/B with host probes bracketed."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.spec import transcripts_spec

    work = f"/tmp/bench_writers_{NUM_CPUS}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = transcripts_spec()
    # FAT-partition shape: the lake side dominates the merge (each writer
    # reads, LWW-classifies, re-sorts and rewrites its whole ~40 MB
    # partition), which is exactly the regime where pool width = P wins
    n_convs = 200_000
    lake = cg.gen_transcripts(n_convs, seed=42)
    paths = cg.gen_wal_chunks(
        1_500_000, n_convs, os.path.join(work, "wal"), num_chunks=32,
        seed=43, noop_frac=0.05,
    )

    def one(tag: str, conc):
        d = os.path.join(work, f"lake_{tag}")
        cdc.init_lake(lake, d, spec, num_partitions=4)
        t0 = time.perf_counter()
        rep = cdc.replay(d, paths, spec, concurrency=conc)
        wall = time.perf_counter() - t0
        shutil.rmtree(d)
        return wall, rep["events"]

    one("warm", None)  # worker/actor spin-up outside the timed legs
    abs_pre = _host_abs_ms()
    # full width gradient: serial (1) → legacy static (P//2 = 2) → bytes-
    # aware auto (4). Interleaved so host drift hits every arm equally.
    walls = {"serial": [], "static": [], "auto": []}
    events = 0
    for i in range(2):
        w, events = one(f"w1{i}", 1)
        walls["serial"].append(round(w, 3))
        w, events = one(f"s{i}", 2)  # legacy P//2 rule at P=4
        walls["static"].append(round(w, 3))
        w, events = one(f"a{i}", None)  # bytes-aware auto (4 writers)
        walls["auto"].append(round(w, 3))
    abs_post = _host_abs_ms()
    ray.shutdown()
    s, a = min(walls["static"]), min(walls["auto"])
    return {
        "metric": "writer_pool_4part_fat",
        "events": int(events),
        "partitions": 4,
        "static_writers": 2,
        "serial_sec": min(walls["serial"]),
        "static_sec": s,
        "auto_sec": a,
        "speedup": round(s / a, 2),
        "speedup_1_to_2": round(min(walls["serial"]) / s, 2),
        "reps": walls,
        "num_cpus": NUM_CPUS,
        "host_abs_ms_pre": abs_pre,
        "host_abs_ms": abs_post,
    }


def _gen_dup_corpus(n_docs: int, out_dir: str, seed: int = 7) -> str:
    """Deterministic near-dup-heavy documents table (sf-layout dir): 65%
    base docs of 40 vocab words, 35% near-dups of a random base doc with
    one word substituted — every dup is an LSH candidate of its source."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as _pq

    path = os.path.join(out_dir, "documents.parquet")
    if os.path.exists(path):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:04d}" for i in range(5000)])
    n_base = int(n_docs * 0.65)
    n_dup = n_docs - n_base
    base = rng.integers(0, 5000, size=(n_base, 40))
    src = rng.integers(0, n_base, n_dup)
    dup = base[src].copy()
    dup[np.arange(n_dup), rng.integers(0, 40, n_dup)] = rng.integers(0, 5000, n_dup)
    words = np.vstack([base, dup])
    texts = [" ".join(vocab[r]) for r in words]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n_docs, pa.string()),
            "source": pa.array(["rss-bench"] * n_docs, pa.string()),
            "n_chars": pa.array(
                np.fromiter((len(s) for s in texts), np.int64, n_docs)
            ),
        }
    )
    _pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    return out_dir


def _vm_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def run_rss_leg() -> dict:
    """One fresh-process RSS probe (child of --rss). Env: RSS_LEG
    (neardup|denorm|window|repair), RSS_N, RSS_DIR (neardup corpus),
    RSS_AS_DATASET (window), DRIVER_GATHER_BYTES."""
    import resource

    import ray

    leg = os.environ["RSS_LEG"]
    n = int(os.environ.get("RSS_N", "0"))
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from bcdc2bcdc_ray import plan

    out: dict = {"leg": leg, "n": n}

    if leg == "neardup":
        from bcdc2bcdc_ray.pipelines import queries as Q

        out["rss_before_mb"] = round(_vm_rss_mb(), 1)
        t0 = time.perf_counter()
        kept = _consume(Q.queries()["neardup_dedup_docs"](os.environ["RSS_DIR"]))
        out["wall_sec"] = round(time.perf_counter() - t0, 2)
        out["kept_rows"] = kept
        # the gather plan's driver payload is exactly the drop-set ids
        out["driver_held_bytes"] = (
            (n - kept) * 8 if plan.fits((n - kept) * 8, "DRIVER_GATHER_BYTES") else 0
        )
    elif leg == "denorm":
        import pyarrow as pa
        import pyarrow.parquet as _pq

        from bcdc2bcdc_ray import changegen as cg
        from bcdc2bcdc_ray.pipelines import cdc, denorm
        from bcdc2bcdc_ray.spec import TableSpec, transcripts_spec

        work = f"/tmp/bench_rssdn_{n}_{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        p = lambda *a: os.path.join(work, *a)  # noqa: E731
        spec = transcripts_spec()
        dim_spec = TableSpec(name="tools", schema=cg.TOOLS_SCHEMA, key=("tool_id",))
        _pq.write_table(cg.gen_transcripts(n, seed=42), p("seed.parquet"))
        cdc.bootstrap_lake(p("seed.parquet"), p("fact"), spec, num_partitions=32)
        cdc.init_lake(cg.gen_tool_dim(), p("dim"), dim_spec, num_partitions=4)
        cdc.create_index(p("idx"), p("fact"), "tool")
        denorm.create_denorm(
            p("dn"), p("fact"), p("dim"), "tool", {"tool_dest": "dest_name"},
            index_dir=p("idx"), fact_changes_dir=p("fch"), dim_changes_dir=p("dch"),
        )
        dev = pa.table({
            "lsn": pa.array([1], pa.int64()),
            "op": pa.array(["upsert"], pa.string()),
            "tool_id": pa.array(["search"], pa.string()),
            "dest_name": pa.array(["renamed"], pa.string()),
            "ts": pa.array([0], pa.timestamp("us")),
        })
        cdc.replay(p("dim"), cg.write_wal_chunks(dev, p("dwal"), 1), dim_spec,
                   changes_dir=p("dch"))
        out["rss_before_mb"] = round(_vm_rss_mb(), 1)
        t0 = time.perf_counter()
        rep = denorm.refresh_denorm(p("dn"))
        out["wall_sec"] = round(time.perf_counter() - t0, 2)
        out["affected_keys"] = rep["affected_keys"]
        out["plan"] = rep["affected_plan"]
        out["driver_held_bytes"] = (
            rep["affected_keys"] * 16 if rep["affected_plan"] == "gather" else 0
        )
        shutil.rmtree(work, ignore_errors=True)
    elif leg == "window":
        from bcdc2bcdc_ray import changegen as cg
        from bcdc2bcdc_ray.pipelines import cdc, view
        from bcdc2bcdc_ray.spec import transcripts_spec

        work = f"/tmp/bench_rssw_{n}_{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        spec = transcripts_spec()
        lake = os.path.join(work, "lake")
        vdir = os.path.join(work, "view")
        cdc.init_lake(cg.gen_transcripts(n, seed=42), lake, spec, num_partitions=32)
        # high residual cardinality: pane × conv_id (the regime VERDICT r4
        # wrong #1 flags — the driver fold holds every pane row at once)
        view.create_view(
            vdir, lake, ["pane", "conv_id"],
            [view.AggSpec("n_rows", "count"),
             view.AggSpec("n_chars", "sum_len", "text")],
            derive=[view.DeriveSpec("pane", "time_bucket", "ts", 1800)],
        )
        view_bytes = sum(
            os.path.getsize(os.path.join(vdir, f))
            for f in os.listdir(vdir) if f.endswith(".parquet")
        )
        dist = os.environ.get("RSS_AS_DATASET") == "1"
        out["rss_before_mb"] = round(_vm_rss_mb(), 1)
        t0 = time.perf_counter()
        res = view.read_window(vdir, 3600, 1800, as_dataset=dist)
        out["window_rows"] = _consume(res)
        out["wall_sec"] = round(time.perf_counter() - t0, 2)
        out["view_bytes"] = view_bytes
        out["driver_held_bytes"] = 0 if dist else view_bytes * 2  # k=2 explode
        shutil.rmtree(work, ignore_errors=True)
    elif leg == "repair":
        import pyarrow as pa
        import pyarrow.parquet as _pq

        from bcdc2bcdc_ray import changegen as cg
        from bcdc2bcdc_ray.pipelines import cdc, view
        from bcdc2bcdc_ray.spec import transcripts_spec

        work = f"/tmp/bench_rssr_{n}_{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        spec = transcripts_spec()
        lake = os.path.join(work, "lake")
        vdir = os.path.join(work, "view")
        cdc.init_lake(cg.gen_transcripts(n, seed=42), lake, spec, num_partitions=32)
        view.create_view(
            vdir, lake, ["conv_id"],
            [view.AggSpec("n_rows", "count"),
             view.AggSpec("max_turn", "max", "turn_idx")],
        )
        # the post-mass-retraction state: EVERY group's bound dirty at once
        # (null the stored bounds, tmp + os.replace like every partition
        # write), then time the repair alone
        view_files = sorted(
            os.path.join(vdir, f) for f in os.listdir(vdir) if f.endswith(".parquet")
        )
        for pth in view_files:
            t = _pq.read_table(pth)
            meta = t.schema.metadata
            i = t.column_names.index("max_turn")
            t = t.set_column(i, "max_turn", pa.nulls(t.num_rows, pa.int32()))
            _pq.write_table(t.replace_schema_metadata(meta), pth + ".tmp")
            os.replace(pth + ".tmp", pth)
        # the gather plan's driver payload: the dirty (conv_id, max_turn)
        # rows it reads off the view files (every row here)
        gathered = pa.concat_tables(
            [_pq.read_table(f, columns=["conv_id", "max_turn"]) for f in view_files]
        ).nbytes
        out["rss_before_mb"] = round(_vm_rss_mb(), 1)
        t0 = time.perf_counter()
        rep = view.repair_view(vdir)
        out["wall_sec"] = round(time.perf_counter() - t0, 2)
        out["dirty_groups"] = rep["dirty_groups"]
        out["repaired"] = rep["repaired"]
        out["driver_held_bytes"] = (
            gathered
            if plan.fits(plan.file_bytes(view_files), "DRIVER_GATHER_BYTES")
            else 0
        )
        shutil.rmtree(work, ignore_errors=True)
    else:
        raise SystemExit(f"unknown RSS_LEG {leg}")

    out["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )
    ray.shutdown()
    return out


def run_rss() -> dict:
    """--rss: driver-memory ceilings of the size-capped plan pickers
    (VERDICT r4 next-round #5) — for each crossover stage (neardup
    survivorship drop-set, denorm dim-fanout affected set, read_window
    pane fold, mass-retraction view repair) run the GATHER plan and the
    DISTRIBUTED plan in fresh
    processes at two corpus widths; report wall, the driver-held stage
    payload, and the process peak RSS. The claim under test: the
    distributed plan's driver footprint does NOT grow with the corpus."""

    def leg(name: str, n: int, plan_env: dict, extra: dict | None = None) -> dict:
        env = dict(os.environ, RSS_LEG=name, RSS_N=str(n), **plan_env,
                   **(extra or {}))
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--rss-leg"],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(r.stdout.strip().splitlines()[-1])

    doc_sizes = [int(x) for x in os.environ.get(
        "RSS_DOCS", "150000,300000").split(",")]
    conv_sizes = [int(x) for x in os.environ.get(
        "RSS_CONVS", "30000,60000").split(",")]
    legs = []
    for nd in doc_sizes:
        d = _gen_dup_corpus(nd, f"/tmp/bench_rss_docs_{nd}")
        for plan, cap in (("gather", str(1 << 40)), ("distributed", "0")):
            r = leg("neardup", nd, {"DRIVER_GATHER_BYTES": cap}, {"RSS_DIR": d})
            legs.append({"stage": "neardup_survivorship", "plan": plan, **r})
    for nc in conv_sizes:
        for plan, cap in (("gather", str(1 << 40)), ("distributed", "0")):
            r = leg("denorm", nc, {"DRIVER_GATHER_BYTES": cap})
            legs.append({"stage": "denorm_fanout", "plan": plan, **r})
    for nc in conv_sizes:
        for plan, as_ds in (("driver_fold", "0"), ("distributed", "1")):
            r = leg("window", nc, {"DRIVER_GATHER_BYTES": str(1 << 40),
                                   "RSS_AS_DATASET": as_ds})
            legs.append({"stage": "read_window", "plan": plan, **r})
    for nc in conv_sizes:
        for plan, cap in (("gather", str(1 << 40)), ("distributed", "0")):
            r = leg("repair", nc, {"DRIVER_GATHER_BYTES": cap})
            legs.append({"stage": "view_repair", "plan": plan, **r})
    return {
        "metric": "driver_rss_crossovers",
        "num_cpus": NUM_CPUS,
        "legs": legs,
        "host_abs_ms": _host_abs_ms(),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--soak" in sys.argv:
        print(json.dumps(run_soak()))
    elif "--maintenance" in sys.argv:
        print(json.dumps(run_maintenance_scaling()))
    elif "--view" in sys.argv:
        print(json.dumps(run_view_bench()))
    elif "--window" in sys.argv:
        print(json.dumps(run_window_bench()))
    elif "--denorm" in sys.argv:
        print(json.dumps(run_denorm()))
    elif "--writers" in sys.argv:
        print(json.dumps(run_writers_bench()))
    elif "--rss-leg" in sys.argv:
        print(json.dumps(run_rss_leg()))
    elif "--rss" in sys.argv:
        print(json.dumps(run_rss()))
    elif MODE == "maintenance":
        print(json.dumps(run_maintenance_once()))
    elif MODE == "soak":
        print(json.dumps(run_soak_once()))
    else:
        print(json.dumps(run_bench()))
