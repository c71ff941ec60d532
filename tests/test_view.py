"""Incremental materialized-view maintenance (pipelines/view.py): the
downstream consumer of the pre-image change feed. Oracle for every test is
a full re-aggregation of the lake's current state — the view must stay
bit-identical to it through creation, multi-round incremental refresh,
deletes-to-zero groups, no-op refreshes, and crash-rerun windows."""

import os
import pyarrow as pa
import pytest

from bcdc2bcdc_ray import changegen as cg
from bcdc2bcdc_ray.pipelines import view
from bcdc2bcdc_ray.pipelines.view import AggSpec
from bcdc2bcdc_ray.spec import transcripts_spec

AGGS = [
    AggSpec("n_rows", "count"),
    AggSpec("n_chars", "sum_len", "text"),
    AggSpec("sum_turn", "sum", "turn_idx"),
    AggSpec("max_turn", "max", "turn_idx"),
    AggSpec("first_ts", "min", "ts"),
    AggSpec("sq_turn", "sum_sq", "turn_idx"),
]


@pytest.fixture
def vdirs(tmp_path):
    return {
        "lake": str(tmp_path / "lake"),
        "wal": str(tmp_path / "wal"),
        "changes": str(tmp_path / "changes"),
        "view": str(tmp_path / "view"),
    }


def _setup(d, n_convs=150, P=8):
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(n_convs, seed=42)
    cdc.init_lake(lake, d["lake"], spec, num_partitions=P)
    return spec


def _recompute(lake_dir) -> pa.Table:
    """Driver-side full re-aggregation of the current lake state."""
    from bcdc2bcdc_ray.pipelines import cdc

    df = cdc.read_lake_table(lake_dir).to_pandas()
    df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
    df["sq"] = (df.turn_idx.astype("int64") ** 2)
    g = (
        df.groupby("conv_id")
        .agg(
            n_rows=("conv_id", "size"),
            n_chars=("n_chars", "sum"),
            sum_turn=("turn_idx", "sum"),
            max_turn=("turn_idx", "max"),
            first_ts=("ts", "min"),
            sq_turn=("sq", "sum"),
        )
        .reset_index()
    )
    return pa.table(
        {
            "conv_id": pa.array(g.conv_id, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
            "sum_turn": pa.array(g.sum_turn, pa.int64()),
            "max_turn": pa.array(g.max_turn, pa.int32()),
            "first_ts": pa.array(g.first_ts, pa.timestamp("us")),
            "sq_turn": pa.array(g.sq_turn, pa.int64()),
        }
    ).sort_by([("conv_id", "ascending")])


def _replay_round(d, spec, n_events, seed, lsn_start=1, n_convs=150):
    from bcdc2bcdc_ray.pipelines import cdc

    ev = cg.gen_change_events(n_events, n_convs, seed=seed, lsn_start=lsn_start)
    paths = cg.write_wal_chunks(
        ev, os.path.join(d["wal"], f"r{seed}"), num_chunks=4
    )
    cdc.replay(d["lake"], paths, spec, changes_dir=d["changes"], changes_before=True)


def test_view_create_matches_full_aggregate(ray_session, vdirs):
    _setup(vdirs)
    rep = view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute(vdirs["lake"]))
    assert rep["view_rows"] == got.num_rows


def test_view_incremental_matches_recompute_across_rounds(ray_session, vdirs):
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    for rnd, seed in enumerate((7, 11, 13)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        rep = view.refresh_view(vdirs["view"], vdirs["changes"])
        assert rep["applied_rows"] > 0
        assert view.read_view(vdirs["view"]).equals(_recompute(vdirs["lake"]))
    # a second refresh with nothing new must be a pure no-op
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["files"] == 0


def test_view_deletes_drop_groups_to_zero(ray_session, vdirs):
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs, n_convs=40)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    # hand-craft a WAL deleting EVERY turn of two conversations
    lake = cdc.read_lake_table(vdirs["lake"])
    import pyarrow.compute as pc

    victims = ["conv-00000003", "conv-00000017"]
    doomed = lake.filter(pc.is_in(lake.column("conv_id"), pa.array(victims)))
    assert doomed.num_rows > 0
    wal = pa.table(
        {
            "lsn": pa.array(range(1, doomed.num_rows + 1), pa.int64()),
            "op": pa.array(["delete"] * doomed.num_rows),
            "conv_id": doomed.column("conv_id"),
            "turn_idx": doomed.column("turn_idx"),
            "role": pa.nulls(doomed.num_rows, pa.string()),
            "text": pa.nulls(doomed.num_rows, pa.string()),
            "tool": pa.nulls(doomed.num_rows, pa.string()),
            "ts": pa.nulls(doomed.num_rows, pa.timestamp("us")),
        }
    )
    paths = cg.write_wal_chunks(wal, os.path.join(vdirs["wal"], "del"), num_chunks=2)
    cdc.replay(
        vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True
    )
    view.refresh_view(vdirs["view"], vdirs["changes"])
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute(vdirs["lake"]))
    remaining = set(got.column("conv_id").to_pylist())
    assert not (set(victims) & remaining)


def test_view_crash_rerun_is_exactly_once(ray_session, vdirs):
    """Simulate the crash window: refresh committed some partitions but
    died before the cursor commit. Roll the cursor back AND roll one view
    partition's file back to its pre-refresh copy; the rerun must re-apply
    deltas ONLY on the stale partition (per-file watermark vectors in the
    partition metadata filter the rest) and land on the recompute oracle."""
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    _replay_round(vdirs, spec, 3000, seed=5)

    # snapshot pre-refresh state: cursor + every partition file
    snap = {}
    for fn in os.listdir(vdirs["view"]):
        if fn.endswith(".parquet") or fn == "_consumed.json":
            snap[fn] = open(os.path.join(vdirs["view"], fn), "rb").read()
    consumed_pre = snap.get("_consumed.json")

    rep1 = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep1["applied_rows"] > 0
    oracle = _recompute(vdirs["lake"])
    assert view.read_view(vdirs["view"]).equals(oracle)

    # crash simulation: cursor never committed, one partition never folded
    stale_pid = sorted(
        int(fn[5:10]) for fn in snap if fn.endswith(".parquet")
    )[0]
    stale_fn = f"part-{stale_pid:05d}.parquet"
    with open(os.path.join(vdirs["view"], stale_fn), "wb") as f:
        f.write(snap[stale_fn])
    cpath = os.path.join(vdirs["view"], "_consumed.json")
    if consumed_pre is None:
        os.remove(cpath)
    else:
        with open(cpath, "wb") as f:
            f.write(consumed_pre)

    rep2 = view.refresh_view(vdirs["view"], vdirs["changes"])
    # every delta row is routed again, but only the stale partition applies
    assert rep2["files"] == rep1["files"]
    assert 0 < rep2["applied_rows"] < rep1["applied_rows"]
    assert view.read_view(vdirs["view"]).equals(oracle)

    # and a third pass is a no-op
    rep3 = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep3["files"] == 0


def test_view_requires_before_images(ray_session, vdirs):
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    from bcdc2bcdc_ray.pipelines import cdc

    ev = cg.gen_change_events(500, 150, seed=3)
    paths = cg.write_wal_chunks(ev, os.path.join(vdirs["wal"], "nb"), num_chunks=2)
    cdc.replay(vdirs["lake"], paths, spec, changes_dir=vdirs["changes"])
    with pytest.raises(ValueError, match="pre-image"):
        view.refresh_view(vdirs["view"], vdirs["changes"])


def test_view_validation_errors(ray_session, vdirs):
    _setup(vdirs)
    with pytest.raises(ValueError, match="unknown group column"):
        view.create_view(vdirs["view"], vdirs["lake"], ["nope"], AGGS)
    with pytest.raises(ValueError, match="sum needs a numeric"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["conv_id"], [AggSpec("s", "sum", "text")]
        )
    with pytest.raises(ValueError, match="unsupported agg kind"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["conv_id"], [AggSpec("s", "median", "turn_idx")]
        )


def test_view_refresh_survives_writer_crash(ray_session, vdirs):
    """Fault injection: the view writer hard-exits AFTER its atomic
    data+watermark commit. Ray retries the task; the retry re-reads the
    folded partition, filters every delta as already-applied and no-ops —
    the view still lands exactly on the recompute oracle."""
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    _replay_round(vdirs, spec, 3000, seed=21)
    with open(os.path.join(vdirs["view"], "_fault_once"), "w") as f:
        f.write("0")
    try:
        rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    finally:
        os.remove(os.path.join(vdirs["view"], "_fault_once"))
    # the crash really happened (marker), and the refresh still converged
    assert os.path.exists(os.path.join(vdirs["view"], "_crashed-0"))
    assert rep["applied_rows"] > 0
    assert view.read_view(vdirs["view"]).equals(_recompute(vdirs["lake"]))
    assert view.refresh_view(vdirs["view"], vdirs["changes"])["files"] == 0


def test_view_follow_tails_the_feed(ray_session, vdirs):
    """Full CDC relay: replay rounds append feed files while view.follow
    polls the changes directory — the view tracks the lake continuously."""
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    for rnd, seed in enumerate((31, 37)):
        _replay_round(vdirs, spec, 2000, seed, lsn_start=1 + rnd * 100_000)
        rep = view.follow(vdirs["view"], vdirs["changes"], max_rounds=5)
        assert rep["applied_rows"] > 0
    assert view.read_view(vdirs["view"]).equals(_recompute(vdirs["lake"]))
    assert view.follow(vdirs["view"], vdirs["changes"], max_rounds=3)["applied_rows"] == 0


def test_view_minmax_bound_delete_triggers_repair(ray_session, vdirs):
    """Deleting exactly the row that holds a group's max: the retraction
    threat nulls the bound (it cannot be certified from the feed alone) and
    the repair pass recomputes it from the lake — landing one turn lower
    (turn_idx is contiguous per conversation)."""
    from bcdc2bcdc_ray.pipelines import cdc
    import pyarrow.compute as pc

    spec = _setup(vdirs, n_convs=30)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    lake = cdc.read_lake_table(vdirs["lake"])
    # pick a conversation and delete exactly its max-turn row
    conv = lake.column("conv_id")[0].as_py()
    rows = lake.filter(pc.equal(lake.column("conv_id"), conv))
    max_turn = pc.max(rows.column("turn_idx")).as_py()
    victim = rows.filter(pc.equal(rows.column("turn_idx"), max_turn))
    wal = pa.table(
        {
            "lsn": pa.array([1], pa.int64()),
            "op": pa.array(["delete"]),
            "conv_id": victim.column("conv_id"),
            "turn_idx": victim.column("turn_idx"),
            "role": pa.nulls(1, pa.string()),
            "text": pa.nulls(1, pa.string()),
            "tool": pa.nulls(1, pa.string()),
            "ts": pa.nulls(1, pa.timestamp("us")),
        }
    )
    paths = cg.write_wal_chunks(wal, os.path.join(vdirs["wal"], "mb"), num_chunks=1)
    cdc.replay(
        vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True
    )
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["repair"]["dirty_groups"] >= 1  # the bound row was retracted
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute(vdirs["lake"]))
    new_max = got.filter(pc.equal(got.column("conv_id"), conv)).column("max_turn")[0].as_py()
    assert new_max == max_turn - 1  # turns are contiguous → bound moved down


def test_view_idle_refresh_heals_pending_repair(ray_session, vdirs):
    """Crash window after cursor commit but before repair: the sentinel is
    on disk and a bound is null. An IDLE refresh (no fresh feed files) must
    self-heal from the sentinel."""
    import pyarrow.parquet as pq
    import pyarrow.compute as pc
    import json as _json

    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    _replay_round(vdirs, spec, 2000, seed=51)
    view.refresh_view(vdirs["view"], vdirs["changes"])
    oracle = _recompute(vdirs["lake"])

    # simulate the crash: null one group's max_turn in place, plant the flag
    pid_path = next(
        os.path.join(vdirs["view"], f)
        for f in sorted(os.listdir(vdirs["view"]))
        if f.endswith(".parquet")
    )
    t = pq.read_table(pid_path)
    meta = t.schema.metadata
    mt = t.column("max_turn").to_pylist()
    mt[0] = None
    t = t.set_column(
        t.column_names.index("max_turn"), "max_turn", pa.array(mt, pa.int32())
    )
    pq.write_table(t.replace_schema_metadata(meta), pid_path)
    with open(os.path.join(vdirs["view"], "_needs_repair"), "w") as f:
        f.write("1")

    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["files"] == 0 and rep["repair"]["repaired"] == 1
    assert not os.path.exists(os.path.join(vdirs["view"], "_needs_repair"))
    assert view.read_view(vdirs["view"]).equals(oracle)


def _retract_every_max(vdirs, spec):
    """Mass retraction: delete EVERY conversation's max-turn row in one
    WAL, dirtying O(view) groups at once. Returns the deleted rows."""
    from bcdc2bcdc_ray.pipelines import cdc

    df = (
        cdc.read_lake_table(vdirs["lake"])
        .select(["conv_id", "turn_idx"])
        .to_pandas()
    )
    victims = df.loc[df.groupby("conv_id").turn_idx.idxmax()]
    n = len(victims)
    wal = pa.table(
        {
            "lsn": pa.array(range(1, n + 1), pa.int64()),
            "op": pa.array(["delete"] * n),
            "conv_id": pa.array(victims.conv_id, pa.string()),
            "turn_idx": pa.array(victims.turn_idx, pa.int32()),
            "role": pa.nulls(n, pa.string()),
            "text": pa.nulls(n, pa.string()),
            "tool": pa.nulls(n, pa.string()),
            "ts": pa.nulls(n, pa.timestamp("us")),
        }
    )
    paths = cg.write_wal_chunks(wal, os.path.join(vdirs["wal"], "mass"), num_chunks=1)
    cdc.replay(
        vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True
    )
    return victims


def test_view_repair_distributed_plan_matches_recompute(
    ray_session, vdirs, monkeypatch
):
    """``DRIVER_GATHER_BYTES=0`` forces BOTH repair crossovers distributed
    (VERDICT r4 wrong #4: a mass retraction's dirty list must never land
    on the driver): dirty discovery stays a materialized object-store
    Dataset and the recompute becomes an exact semi-join against it.
    After a mass retraction the healed view must match the full recompute
    bit for bit."""
    spec = _setup(vdirs, n_convs=40)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    victims = _retract_every_max(vdirs, spec)
    n = len(victims)
    assert n == 40
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["repair"]["dirty_groups"] >= n  # every group's bound retracted
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute(vdirs["lake"]))
    # turns are contiguous per conversation → every bound moved down by one
    old_max = pa.array(victims.sort_values("conv_id").turn_idx - 1, pa.int32())
    assert got.column("max_turn").combine_chunks().equals(old_max)
    # idempotent: a second pass finds nothing dirty
    assert view.repair_view(vdirs["view"])["dirty_groups"] == 0


def test_view_repair_gathered_keys_distributed_recompute(
    ray_session, vdirs, monkeypatch
):
    """The repair's middle plan: with the driver budget between the view
    bytes and the pruned lake-slice bytes, the dirty keys are gathered on
    the driver and the lake slice is recomputed distributed through a
    broadcast ``is_in`` filter. The healed view must match the full
    recompute."""
    from bcdc2bcdc_ray import plan
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs, n_convs=40)
    aggs = [AggSpec("n_rows", "count"), AggSpec("max_turn", "max", "turn_idx")]
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], aggs)
    victims = _retract_every_max(vdirs, spec)
    # every conversation is dirty, so the pruned slice is the whole lake
    view_bytes = plan.file_bytes(
        view._view_path(vdirs["view"], pid)
        for pid in range(view.view_meta(vdirs["view"])["num_partitions"])
    )
    lake_bytes = plan.file_bytes(
        cdc.partition_path(vdirs["lake"], pid)
        for pid in range(cdc.lake_meta(vdirs["lake"])["num_partitions"])
    )
    assert 2 * view_bytes < lake_bytes
    monkeypatch.setenv("DRIVER_GATHER_BYTES", str((view_bytes + lake_bytes) // 2))
    decisions = []
    fits = plan.fits

    def spy(nbytes, cap):
        ok = fits(nbytes, cap)
        if cap == "DRIVER_GATHER_BYTES":
            decisions.append(ok)
        return ok

    monkeypatch.setattr(plan, "fits", spy)
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert decisions == [True, False]  # keys gathered, lake slice distributed
    assert rep["repair"]["dirty_groups"] >= len(victims)
    want = _recompute(vdirs["lake"]).select(["conv_id", "n_rows", "max_turn"])
    assert view.read_view(vdirs["view"]).equals(want)


def test_view_repair_distributed_heals_hll_registers(
    ray_session, vdirs, tmp_path, monkeypatch
):
    """HLL register vectors through the DISTRIBUTED repair plan: the
    fixed_size_binary partials ride the semi-join output and the
    VIEW_PART exchange (the driver plan never exchanges them). Deletes
    that dirty registers + the forced plan must land bit-identical to a
    from-scratch ``create_view`` over the final lake."""
    spec = _setup(vdirs, n_convs=60)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("distinct_turns", "hll", "turn_idx"),
        AggSpec("max_turn", "max", "turn_idx"),
    ]
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], aggs)
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    for rnd, seed in enumerate((31, 37)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000, n_convs=60)
        view.refresh_view(vdirs["view"], vdirs["changes"])
        rebuilt = str(tmp_path / f"rebuild{rnd}")
        view.create_view(rebuilt, vdirs["lake"], ["conv_id"], aggs)
        assert view.read_view(vdirs["view"]).equals(view.read_view(rebuilt))
        assert view.read_view(vdirs["view"]).column("distinct_turns").null_count == 0
        assert view.fsck(vdirs["view"])["clean"]


def test_view_repair_distributed_heals_null_group(ray_session, vdirs, monkeypatch):
    """The distributed repair plan's null-group leg: semi-join equality
    never matches NULL keys, so the null group streams in through its own
    filter union. Group by ``tool`` (NULL on ~85% of rows), delete the
    null group's max-turn bound row, force the distributed plan, and pin
    the healed view against a full recompute."""
    from bcdc2bcdc_ray.pipelines import cdc
    import pandas as pd
    import pyarrow.compute as pc

    spec = _setup(vdirs)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("max_turn", "max", "turn_idx"),
    ]
    view.create_view(vdirs["view"], vdirs["lake"], ["tool"], aggs)
    lake = cdc.read_lake_table(vdirs["lake"])
    nulls = lake.filter(pc.is_null(lake.column("tool")))
    mx = pc.max(nulls.column("turn_idx")).as_py()
    victim = nulls.filter(pc.equal(nulls.column("turn_idx"), mx)).slice(0, 1)
    wal = pa.table(
        {
            "lsn": pa.array([1], pa.int64()),
            "op": pa.array(["delete"]),
            "conv_id": victim.column("conv_id"),
            "turn_idx": victim.column("turn_idx"),
            "role": pa.nulls(1, pa.string()),
            "text": pa.nulls(1, pa.string()),
            "tool": pa.nulls(1, pa.string()),
            "ts": pa.nulls(1, pa.timestamp("us")),
        }
    )
    paths = cg.write_wal_chunks(wal, os.path.join(vdirs["wal"], "nullg"), num_chunks=1)
    cdc.replay(
        vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True
    )
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["repair"]["dirty_groups"] >= 1

    df = cdc.read_lake_table(vdirs["lake"]).to_pandas()
    g = (
        df.groupby("tool", dropna=False)
        .agg(n_rows=("role", "size"), max_turn=("turn_idx", "max"))
        .reset_index()
    )
    oracle = pa.table(
        {
            "tool": pa.array(
                [None if pd.isna(t) else t for t in g.tool], pa.string()
            ),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "max_turn": pa.array(g.max_turn, pa.int32()),
        }
    ).sort_by([("tool", "ascending")])
    assert view.read_view(vdirs["view"]).equals(oracle)


def test_view_non_cokeyed_group_by_payload_column(ray_session, vdirs):
    """View grouped by a NON-key payload column (role): deltas route on the
    role hash (not the lake's conv_id partitioning), updates that move a
    row between roles retract from one group and add to another, and the
    min/max repair path cannot prune lake partitions (group key != lake
    key) — it falls back to all-files + coarse filter. The view must still
    match a full recompute."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("n_chars", "sum_len", "text"),
        AggSpec("max_turn", "max", "turn_idx"),
    ]
    view.create_view(vdirs["view"], vdirs["lake"], ["role"], aggs)

    def recompute_by_role():
        df = cdc.read_lake_table(vdirs["lake"]).to_pandas()
        df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
        g = (
            df.groupby("role")
            .agg(
                n_rows=("role", "size"),
                n_chars=("n_chars", "sum"),
                max_turn=("turn_idx", "max"),
            )
            .reset_index()
        )
        return pa.table(
            {
                "role": pa.array(g.role, pa.string()),
                "n_rows": pa.array(g.n_rows, pa.int64()),
                "n_chars": pa.array(g.n_chars, pa.int64()),
                "max_turn": pa.array(g.max_turn, pa.int32()),
            }
        ).sort_by([("role", "ascending")])

    assert view.read_view(vdirs["view"]).equals(recompute_by_role())
    for rnd, seed in enumerate((61, 67)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        view.refresh_view(vdirs["view"], vdirs["changes"])
        assert view.read_view(vdirs["view"]).equals(recompute_by_role())


def test_view_null_group_key_merges_as_one_group(ray_session, vdirs):
    """Group by ``tool``, which is NULL on every non-tool row (~85%): SQL
    GROUP BY puts them in ONE null-keyed group, but arrow/Acero joins never
    match NULL keys — without the null-safe join encoding the null group's
    retract+assert folds silently dropped (additive corruption) and a
    null-keyed delete surfaced as an unmatched n_rows=-1 row tripping the
    negative-count guard on every refresh (permanent wedge; ADVICE r3
    medium). Pins: multi-round refresh + dirty-bound repair on the null
    group both match a full recompute."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("n_chars", "sum_len", "text"),
        AggSpec("max_turn", "max", "turn_idx"),
    ]
    view.create_view(vdirs["view"], vdirs["lake"], ["tool"], aggs)

    def recompute_by_tool():
        df = cdc.read_lake_table(vdirs["lake"]).to_pandas()
        df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
        g = (
            df.groupby("tool", dropna=False)
            .agg(
                n_rows=("role", "size"),
                n_chars=("n_chars", "sum"),
                max_turn=("turn_idx", "max"),
            )
            .reset_index()
        )
        import pandas as pd

        return pa.table(
            {
                "tool": pa.array(
                    [None if pd.isna(t) else t for t in g.tool], pa.string()
                ),
                "n_rows": pa.array(g.n_rows, pa.int64()),
                "n_chars": pa.array(g.n_chars, pa.int64()),
                "max_turn": pa.array(g.max_turn, pa.int32()),
            }
        ).sort_by([("tool", "ascending")])

    assert view.read_view(vdirs["view"]).equals(recompute_by_tool())
    for rnd, seed in enumerate((81, 83, 89)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        view.refresh_view(vdirs["view"], vdirs["changes"])
        assert view.read_view(vdirs["view"]).equals(recompute_by_tool())


def test_view_hll_distinct_incremental_matches_rebuild(ray_session, vdirs, tmp_path):
    """``hll`` aggregate kind (approx count-distinct as an m=256 register
    vector, element-wise-max fold): through multiple replay rounds with
    deletes — which dirty register vectors exactly like min/max bounds and
    route through the same lake-repair pass — the incrementally maintained
    view must equal a from-scratch ``create_view`` over the final lake
    state, bit for bit (the registers are deterministic, so the int64
    estimates are too)."""
    from bcdc2bcdc_ray.pipelines import view as V

    spec = _setup(vdirs)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("distinct_turns", "hll", "turn_idx"),
        AggSpec("max_turn", "max", "turn_idx"),
    ]
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], aggs)
    assert view.read_view(vdirs["view"]).column("distinct_turns").null_count == 0

    for rnd, seed in enumerate((31, 37, 41)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        view.refresh_view(vdirs["view"], vdirs["changes"])
        rebuilt = str(tmp_path / f"rebuild{rnd}")
        view.create_view(rebuilt, vdirs["lake"], ["conv_id"], aggs)
        got, want = view.read_view(vdirs["view"]), view.read_view(rebuilt)
        assert got.equals(want)
        # repair healed every dirty vector (no nulls left at rest)
        assert got.column("distinct_turns").null_count == 0
        assert view.fsck(vdirs["view"])["clean"]
    # estimates are plausibly distinct-ish: every group has n_rows >= 1 and
    # a strictly positive estimate
    est = view.read_view(vdirs["view"]).column("distinct_turns")
    import pyarrow.compute as pc

    assert pc.min(est).as_py() > 0


def test_feed_retention_prunes_consumed_files(ray_session, vdirs):
    """prune_changes with the view's consumed cursor removes exactly the
    fully-folded feed files; the view keeps working (no-op refresh, then a
    fresh replay round still applies cleanly)."""
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.pipelines.view import _load_consumed

    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    _replay_round(vdirs, spec, 2000, seed=71)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    n_before = len(os.listdir(vdirs["changes"]))
    rep = cdc.prune_changes(vdirs["changes"], _load_consumed(vdirs["view"]))
    assert rep["removed"] == n_before and rep["kept"] == 0
    assert os.listdir(vdirs["changes"]) == []

    # the view is unaffected: idle refresh, then a new round applies
    assert view.refresh_view(vdirs["view"], vdirs["changes"])["files"] == 0
    _replay_round(vdirs, spec, 1500, seed=73, lsn_start=100_000)
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["applied_rows"] > 0
    assert view.read_view(vdirs["view"]).equals(_recompute(vdirs["lake"]))


def test_view_survives_schema_evolution_mid_feed(ray_session, vdirs):
    """An evolved replay widens turn_idx to int64 and adds lang, so the
    changes directory holds MIXED-schema feed files. Refresh must absorb
    them (per-batch cast to the view's output types) and still match a
    recompute of the evolved lake."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("n_chars", "sum_len", "text"),
        AggSpec("sum_turn", "sum", "turn_idx"),
    ]
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], aggs)
    _replay_round(vdirs, spec, 1500, seed=81)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    ev = cg.gen_change_events(1500, 150, seed=83, lsn_start=100_000, evolved=True)
    paths = cg.write_wal_chunks(ev, os.path.join(vdirs["wal"], "ev"), num_chunks=2)
    cdc.replay(
        vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True
    )
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["applied_rows"] > 0

    df = cdc.read_lake_table(vdirs["lake"]).to_pandas()
    df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
    g = (
        df.groupby("conv_id")
        .agg(
            n_rows=("conv_id", "size"),
            n_chars=("n_chars", "sum"),
            sum_turn=("turn_idx", "sum"),
        )
        .reset_index()
    )
    exp = pa.table(
        {
            "conv_id": pa.array(g.conv_id, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
            "sum_turn": pa.array(g.sum_turn, pa.int64()),
        }
    ).sort_by([("conv_id", "ascending")])
    assert view.read_view(vdirs["view"]).equals(exp)


def test_view_lag_tracks_unconsumed_feed(ray_session, vdirs):
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    _replay_round(vdirs, spec, 1500, seed=91)
    before = view.lag(vdirs["view"], vdirs["changes"])
    assert before["files"] > 0 and before["rows"] > 0
    view.refresh_view(vdirs["view"], vdirs["changes"])
    assert view.lag(vdirs["view"], vdirs["changes"]) == {"files": 0, "rows": 0}


# ---- property: view delta algebra over arbitrary op sequences ----------
from hypothesis import given, settings
from hypothesis import strategies as st

_EVENT = st.tuples(
    st.sampled_from(["upsert", "delete"]),
    st.integers(0, 5),          # conv
    st.integers(0, 3),          # turn
    st.sampled_from(["user", "assistant", "tool"]),  # role (group key!)
    st.sampled_from([None, "", "a", "bb", "ccc"]),   # text
)


@settings(max_examples=6, deadline=None)
@given(st.lists(_EVENT, min_size=1, max_size=30))
def test_view_algebra_matches_recompute_property(ray_session, tmp_path_factory, events):
    """Any op sequence — re-adds after deletes, group-moving updates,
    duplicate keys, null payloads — folded incrementally through the
    pre-image feed must equal a full recompute of the final lake (view
    grouped by the mutable payload column `role`, the hardest case)."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    d = tmp_path_factory.mktemp("prop")
    spec = transcripts_spec()
    lake0 = cg.gen_transcripts(6, seed=5)
    cdc.init_lake(lake0, str(d / "lake"), spec, num_partitions=4)
    view.create_view(
        str(d / "view"),
        str(d / "lake"),
        ["role"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")],
    )
    wal = pa.table(
        {
            "lsn": pa.array(range(1, len(events) + 1), pa.int64()),
            "op": pa.array([e[0] for e in events]),
            "conv_id": pa.array([f"conv-{e[1]:08d}" for e in events]),
            "turn_idx": pa.array([e[2] for e in events], pa.int32()),
            "role": pa.array([e[3] for e in events]),
            "text": pa.array([e[4] for e in events], pa.string()),
            "tool": pa.nulls(len(events), pa.string()),
            "ts": pa.array([1_700_000_000_000_000 + i for i in range(len(events))], pa.timestamp("us")),
        }
    )
    paths = cg.write_wal_chunks(wal, str(d / "wal"), num_chunks=2)
    cdc.replay(
        str(d / "lake"), paths, spec,
        changes_dir=str(d / "ch"), changes_before=True,
    )
    view.refresh_view(str(d / "view"), str(d / "ch"))

    df = cdc.read_lake_table(str(d / "lake")).to_pandas()
    df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
    g = (
        df.groupby("role")
        .agg(n_rows=("role", "size"), n_chars=("n_chars", "sum"))
        .reset_index()
    )
    expect = pa.table(
        {
            "role": pa.array(g.role, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
        }
    ).sort_by([("role", "ascending")])
    assert view.read_view(str(d / "view")).equals(expect)


def test_add_aggregate_widens_live_view(ray_session, vdirs):
    """Widen a live view (after refreshes) with sum_sq and max aggregates:
    the widened view equals a recompute, and — the key property — the NEXT
    refresh maintains the new columns incrementally like any other."""
    spec = _setup(vdirs)
    base = [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")]
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], base)
    _replay_round(vdirs, spec, 2000, seed=101)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    rep = view.add_aggregate(
        vdirs["view"], vdirs["changes"], AggSpec("sq_turn", "sum_sq", "turn_idx")
    )
    assert rep["added"] == "sq_turn"
    view.add_aggregate(
        vdirs["view"], vdirs["changes"], AggSpec("max_turn", "max", "turn_idx")
    )

    def recompute():
        from bcdc2bcdc_ray.pipelines import cdc

        df = cdc.read_lake_table(vdirs["lake"]).to_pandas()
        df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
        df["sq"] = df.turn_idx.astype("int64") ** 2
        g = (
            df.groupby("conv_id")
            .agg(
                n_rows=("conv_id", "size"),
                n_chars=("n_chars", "sum"),
                sq_turn=("sq", "sum"),
                max_turn=("turn_idx", "max"),
            )
            .reset_index()
        )
        return pa.table(
            {
                "conv_id": pa.array(g.conv_id, pa.string()),
                "n_rows": pa.array(g.n_rows, pa.int64()),
                "n_chars": pa.array(g.n_chars, pa.int64()),
                "sq_turn": pa.array(g.sq_turn, pa.int64()),
                "max_turn": pa.array(g.max_turn, pa.int32()),
            }
        ).sort_by([("conv_id", "ascending")])

    assert view.read_view(vdirs["view"]).equals(recompute())

    # the widened columns are now maintained incrementally
    _replay_round(vdirs, spec, 2000, seed=103, lsn_start=100_000)
    rep = view.refresh_view(vdirs["view"], vdirs["changes"])
    assert rep["applied_rows"] > 0
    assert view.read_view(vdirs["view"]).equals(recompute())

    with pytest.raises(ValueError, match="already exists"):
        view.add_aggregate(
            vdirs["view"], vdirs["changes"], AggSpec("max_turn", "max", "turn_idx")
        )


def test_add_aggregate_survives_emptied_partition(ray_session, vdirs):
    """An EMPTY view partition (every group deleted) has no lake groups to
    route widen data to, so its file legitimately lacks the new column.
    Refreshes that later repopulate it must conform the partition to the
    widened schema rather than KeyError."""
    from bcdc2bcdc_ray.canonical import partition_ids
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs, n_convs=24, P=4)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["conv_id"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")],
    )
    lake = cdc.read_lake_table(vdirs["lake"])
    convs = sorted(set(lake.column("conv_id").to_pylist()))
    probe = pa.table({"conv_id": pa.array(convs)})
    pids = partition_ids(probe, ["conv_id"], 4)
    victims = [c for c, p in zip(convs, pids) if p == 0]
    assert victims

    import pyarrow.compute as pc

    doomed = lake.filter(pc.is_in(lake.column("conv_id"), pa.array(victims)))
    wal = pa.table(
        {
            "lsn": pa.array(range(1, doomed.num_rows + 1), pa.int64()),
            "op": pa.array(["delete"] * doomed.num_rows),
            "conv_id": doomed.column("conv_id"),
            "turn_idx": doomed.column("turn_idx"),
            "role": pa.nulls(doomed.num_rows, pa.string()),
            "text": pa.nulls(doomed.num_rows, pa.string()),
            "tool": pa.nulls(doomed.num_rows, pa.string()),
            "ts": pa.nulls(doomed.num_rows, pa.timestamp("us")),
        }
    )
    paths = cg.write_wal_chunks(wal, os.path.join(vdirs["wal"], "d0"), num_chunks=1)
    cdc.replay(vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    view.add_aggregate(vdirs["view"], vdirs["changes"], AggSpec("max_turn", "max", "turn_idx"))

    # repopulate the emptied partition and refresh through it
    back = doomed.slice(0, 3)
    wal2 = pa.table(
        {
            "lsn": pa.array([10_000 + i for i in range(back.num_rows)], pa.int64()),
            "op": pa.array(["upsert"] * back.num_rows),
            "conv_id": back.column("conv_id"),
            "turn_idx": back.column("turn_idx"),
            "role": back.column("role"),
            "text": back.column("text"),
            "tool": back.column("tool"),
            "ts": back.column("ts"),
        }
    )
    paths = cg.write_wal_chunks(wal2, os.path.join(vdirs["wal"], "d1"), num_chunks=1)
    cdc.replay(vdirs["lake"], paths, spec, changes_dir=vdirs["changes"], changes_before=True)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    df = cdc.read_lake_table(vdirs["lake"]).to_pandas()
    df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
    g = df.groupby("conv_id").agg(
        n_rows=("conv_id", "size"), n_chars=("n_chars", "sum"),
        max_turn=("turn_idx", "max"),
    ).reset_index()
    expect = pa.table(
        {
            "conv_id": pa.array(g.conv_id, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
            "max_turn": pa.array(g.max_turn, pa.int32()),
        }
    ).sort_by([("conv_id", "ascending")])
    assert view.read_view(vdirs["view"]).equals(expect)


def test_view_fsck_clean_and_detects_dirty_bounds(ray_session, vdirs):
    spec = _setup(vdirs)
    view.create_view(vdirs["view"], vdirs["lake"], ["conv_id"], AGGS)
    _replay_round(vdirs, spec, 2000, seed=111)
    view.refresh_view(vdirs["view"], vdirs["changes"])
    rep = view.fsck(vdirs["view"])
    assert rep["clean"] is True and rep["rows"] > 0
    assert rep["dirty_bounds"] == 0  # repair ran inside refresh

    # plant a dirty bound: fsck reports it but stays structurally clean
    import pyarrow.parquet as pq

    p = next(
        os.path.join(vdirs["view"], f)
        for f in sorted(os.listdir(vdirs["view"]))
        if f.endswith(".parquet")
    )
    t = pq.read_table(p)
    meta = t.schema.metadata
    mt = t.column("max_turn").to_pylist(); mt[0] = None
    t = t.set_column(t.column_names.index("max_turn"), "max_turn",
                     pa.array(mt, pa.int32()))
    pq.write_table(t.replace_schema_metadata(meta), p)
    rep = view.fsck(vdirs["view"])
    assert rep["clean"] is True and rep["dirty_bounds"] == 1
    # and repair_view heals what fsck reported
    view.repair_view(vdirs["view"])
    assert view.fsck(vdirs["view"])["dirty_bounds"] == 0


def test_view_refresh_local_matches_distributed(ray_session, tmp_path, monkeypatch):
    """Micro-feed fast path: a small feed refresh folds driver-side through
    the same partials/ViewWriter callables. Forced-local and forced-
    distributed refreshes of the same feed must produce byte-identical view
    partition files (data + in-file applied-watermark vector)."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(150, seed=42)
    out = {}
    for mode, cap in (("local", str(64 << 20)), ("ray", "0")):
        d = {k: str(tmp_path / f"{k}_{mode}") for k in ("lake", "wal", "changes", "view")}
        cdc.init_lake(lake, d["lake"], spec, num_partitions=8)
        view.create_view(d["view"], d["lake"], ["conv_id"], AGGS)
        ev = cg.gen_change_events(2500, 150, seed=43)
        paths = cg.write_wal_chunks(ev, d["wal"], num_chunks=4)
        cdc.replay(d["lake"], paths, spec, changes_dir=d["changes"], changes_before=True)
        monkeypatch.setenv("REPLAY_LOCAL_BYTES", cap)
        rep = view.refresh_view(d["view"], d["changes"])
        assert rep["files"] > 0
        out[mode] = (rep, d)
    monkeypatch.delenv("REPLAY_LOCAL_BYTES")
    rl, dl = out["local"]
    rr, dr = out["ray"]
    for k in ("files", "applied_rows", "view_rows", "partitions_touched"):
        assert rl[k] == rr[k], k
    fl = sorted(f for f in os.listdir(dl["view"]) if f.endswith(".parquet"))
    fr = sorted(f for f in os.listdir(dr["view"]) if f.endswith(".parquet"))
    assert fl == fr
    for fn in fl:
        with open(os.path.join(dl["view"], fn), "rb") as a, open(
            os.path.join(dr["view"], fn), "rb"
        ) as b:
            assert a.read() == b.read(), f"view partition {fn} bytes differ"
    assert view.read_view(dl["view"]).equals(view.read_view(dr["view"]))
    # both equal the full recompute, and a rerun is a no-op on both
    assert view.read_view(dl["view"]).equals(_recompute(dl["lake"]))
    assert view.refresh_view(dl["view"], dl["changes"])["files"] == 0


# --- derived group columns (tumbling-window aggregates) ----------------------

def _recompute_hourly(lake_dir, width_s=3600) -> pa.Table:
    """Independent full re-aggregation by hour bucket: int64-µs floor
    division in numpy — NOT the engine's derive kernel."""
    import numpy as np
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    t = cdc.read_lake_table(lake_dir)
    us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    w = width_s * 1_000_000
    hour = (us // w) * w
    df = t.to_pandas()
    df["hour_us"] = hour
    df["n_chars"] = df.text.str.len().fillna(0).astype("int64")
    g = (
        df.groupby("hour_us")
        .agg(
            n_rows=("hour_us", "size"),
            n_chars=("n_chars", "sum"),
            max_turn=("turn_idx", "max"),
            first_ts=("ts", "min"),
        )
        .reset_index()
        .sort_values("hour_us")
    )
    return pa.table(
        {
            "hour": pa.array(g.hour_us, pa.int64()).cast(pa.timestamp("us")),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
            "max_turn": pa.array(g.max_turn, pa.int32()),
            "first_ts": pa.array(g.first_ts, pa.timestamp("us")),
        }
    )


HOURLY_AGGS = [
    AggSpec("n_rows", "count"),
    AggSpec("n_chars", "sum_len", "text"),
    AggSpec("max_turn", "max", "turn_idx"),
    AggSpec("first_ts", "min", "ts"),
]
HOURLY_DERIVE = [view.DeriveSpec("hour", "time_bucket", "ts", 3600)]


def test_view_time_bucket_create_matches_recompute(ray_session, vdirs):
    _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["hour"], HOURLY_AGGS,
        derive=HOURLY_DERIVE,
    )
    assert view.read_view(vdirs["view"]).equals(_recompute_hourly(vdirs["lake"]))


def test_view_time_bucket_incremental_matches_recompute(ray_session, vdirs):
    """Tumbling-window aggregate maintained from the change feed: updates
    MOVE rows between hour buckets (event ts is a function of lsn), so the
    retract/assert split must decrement the old bucket and increment the
    new one; deletes retract min/max bounds inside buckets, exercising the
    dirty-bound repair with a DERIVED group key (full column-pruned lake
    scan — no key co-partitioning to prune by)."""
    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["hour"], HOURLY_AGGS,
        derive=HOURLY_DERIVE,
    )
    for rnd, seed in enumerate((7, 11, 13)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        rep = view.refresh_view(vdirs["view"], vdirs["changes"])
        assert rep["applied_rows"] > 0
        assert view.read_view(vdirs["view"]).equals(
            _recompute_hourly(vdirs["lake"])
        )
        assert view.fsck(vdirs["view"])["clean"]
    assert view.refresh_view(vdirs["view"], vdirs["changes"])["files"] == 0


def test_view_derived_composite_group_and_lookup(ray_session, vdirs):
    """Derived bucket FIRST in a composite group (partitioned by the
    bucket) alongside a real payload column; view.lookup probes one bucket
    value O(1)-file."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["hour", "role"],
        [AggSpec("n_rows", "count")],
        derive=HOURLY_DERIVE,
    )
    _replay_round(vdirs, spec, 2000, seed=19)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    t = cdc.read_lake_table(vdirs["lake"])
    us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    w = 3600 * 1_000_000
    df = t.to_pandas()
    df["hour_us"] = (us // w) * w
    g = (
        df.groupby(["hour_us", "role"]).size().rename("n_rows").reset_index()
        .sort_values(["hour_us", "role"])
    )
    want = pa.table(
        {
            "hour": pa.array(g.hour_us, pa.int64()).cast(pa.timestamp("us")),
            "role": pa.array(g.role, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
        }
    )
    assert view.read_view(vdirs["view"]).equals(want)

    probe = want.column("hour")[0].as_py()
    got = view.lookup(vdirs["view"], probe)
    exp = want.filter(pc.equal(want.column("hour"), want.column("hour")[0]))
    assert got.equals(exp)


def test_view_derive_validation_errors(ray_session, vdirs):
    _setup(vdirs)
    with pytest.raises(ValueError, match="unknown derive kind"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["b"], [AggSpec("n_rows", "count")],
            derive=[view.DeriveSpec("b", "square", "ts", 1)],
        )
    with pytest.raises(ValueError, match="timestamp column"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["b"], [AggSpec("n_rows", "count")],
            derive=[view.DeriveSpec("b", "time_bucket", "role", 60)],
        )
    with pytest.raises(ValueError, match="integer column"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["b"], [AggSpec("n_rows", "count")],
            derive=[view.DeriveSpec("b", "int_bucket", "ts", 60)],
        )
    with pytest.raises(ValueError, match="must be used in group_by"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["conv_id"],
            [AggSpec("n_rows", "count")],
            derive=[view.DeriveSpec("b", "int_bucket", "turn_idx", 8)],
        )
    with pytest.raises(ValueError, match="collides"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["ts"], [AggSpec("n_rows", "count")],
            derive=[view.DeriveSpec("ts", "time_bucket", "ts", 60)],
        )


# --- hist aggregate kind (retractable histogram → incremental quantiles) -----

HIST_ARG = {"lo": 0.0, "hi": 48.0, "bins": 16, "q": 0.5}


def _recompute_hist(lake_dir, arg=HIST_ARG) -> pa.Table:
    """Independent per-group histogram-quantile recompute (numpy, same
    IEEE expression as sketch.histogram_quantiles — NOT the view kernel)."""
    import numpy as np

    from bcdc2bcdc_ray.pipelines import cdc

    lo, hi, bins, q = arg["lo"], arg["hi"], arg["bins"], arg["q"]
    df = cdc.read_lake_table(lake_dir).to_pandas()
    rows = []
    for cid, g in df.groupby("conv_id"):
        v = g.turn_idx.to_numpy().astype(np.float64)
        idx = np.clip(
            np.floor((v - lo) * bins / (hi - lo)).astype(np.int64), 0, bins - 1
        )
        cum = np.cumsum(np.bincount(idx, minlength=bins))
        target = max(int(np.ceil(q * int(cum[-1]))), 1)
        b = int(np.searchsorted(cum, target))
        rows.append((cid, len(g), lo + b * (hi - lo) / bins))
    rows.sort()
    return pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "p50_turn": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


def test_view_hist_incremental_matches_recompute(ray_session, vdirs):
    """The hist kind is EXACTLY retractable (signed one-hot fold): across
    replay rounds with deletes the maintained quantile estimates equal a
    full recompute, and no refresh ever reports a repair pass."""
    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["conv_id"],
        [AggSpec("n_rows", "count"),
         AggSpec("p50_turn", "hist", "turn_idx", arg=HIST_ARG)],
    )
    assert view.read_view(vdirs["view"]).equals(_recompute_hist(vdirs["lake"]))
    for rnd, seed in enumerate((7, 11)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        rep = view.refresh_view(vdirs["view"], vdirs["changes"])
        assert rep["applied_rows"] > 0 and "repair" not in rep
        assert view.read_view(vdirs["view"]).equals(
            _recompute_hist(vdirs["lake"])
        )
        assert view.fsck(vdirs["view"])["clean"]
    assert view.refresh_view(vdirs["view"], vdirs["changes"])["files"] == 0


def test_view_hist_crash_rerun_and_widen(ray_session, vdirs):
    """A writer hard-crash mid-refresh retries to the same estimates
    (in-file applied vectors make the signed fold exactly-once), and
    add_aggregate widens a live view with a second hist column."""
    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["conv_id"],
        [AggSpec("n_rows", "count"),
         AggSpec("p50_turn", "hist", "turn_idx", arg=HIST_ARG)],
    )
    _replay_round(vdirs, spec, 2500, seed=23)
    with open(os.path.join(vdirs["view"], "_fault_once"), "w") as f:
        f.write("0")
    view.refresh_view(vdirs["view"], vdirs["changes"])
    assert view.read_view(vdirs["view"]).equals(_recompute_hist(vdirs["lake"]))
    assert view.fsck(vdirs["view"])["clean"]

    arg90 = dict(HIST_ARG, q=0.9)
    view.add_aggregate(
        vdirs["view"], vdirs["changes"],
        AggSpec("p90_turn", "hist", "turn_idx", arg=arg90),
    )
    got = view.read_view(vdirs["view"])
    assert got.column("p90_turn").null_count == 0
    want90 = _recompute_hist(vdirs["lake"], arg90).column("p50_turn")
    assert got.column("p90_turn").equals(want90)
    # and the widened column keeps maintaining incrementally
    _replay_round(vdirs, spec, 1500, seed=29, lsn_start=200_000)
    view.refresh_view(vdirs["view"], vdirs["changes"])
    got = view.read_view(vdirs["view"])
    assert got.column("p90_turn").equals(
        _recompute_hist(vdirs["lake"], arg90).column("p50_turn")
    )


def test_view_hist_validation_errors(ray_session, vdirs):
    _setup(vdirs)
    cases = [
        ({"lo": 0, "hi": 48, "bins": 16}, "needs arg keys"),
        ({"lo": 48, "hi": 0, "bins": 16, "q": 0.5}, "hi > lo"),
        ({"lo": 0, "hi": 48, "bins": 1, "q": 0.5}, "bins must be"),
        ({"lo": 0, "hi": 48, "bins": 16, "q": 1.5}, "q must be"),
    ]
    for arg, msg in cases:
        with pytest.raises(ValueError, match=msg):
            view.create_view(
                vdirs["view"], vdirs["lake"], ["conv_id"],
                [AggSpec("h", "hist", "turn_idx", arg=arg)],
            )
    with pytest.raises(ValueError, match="numeric column"):
        view.create_view(
            vdirs["view"], vdirs["lake"], ["conv_id"],
            [AggSpec("h", "hist", "text", arg=HIST_ARG)],
        )


# --- read-time sliding windows (pane combination) -----------------------------

def test_view_read_window_matches_row_explode(ray_session, vdirs):
    """Hopping windows folded from 900 s panes equal a direct per-window
    aggregation (each lake row exploded into its width/slide windows) —
    across count, sum_len, max AND the vector kinds' representations."""
    import numpy as np
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text"),
         AggSpec("max_turn", "max", "turn_idx")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 900)],
    )
    _replay_round(vdirs, spec, 2500, seed=61)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    W, S = 3600, 1800
    got = view.read_window(vdirs["view"], W, S)

    t = cdc.read_lake_table(vdirs["lake"])
    us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    s_us = S * 1_000_000
    k = W // S
    base = (us // s_us) * s_us
    starts = (
        base[:, None] - (np.arange(k - 1, -1, -1, dtype=np.int64) * s_us)
    ).ravel()
    df = t.to_pandas().iloc[np.repeat(np.arange(len(us)), k)].reset_index(drop=True)
    df["ws"] = starts
    df["nc"] = df.text.str.len().fillna(0).astype("int64")
    g = (
        df.groupby("ws")
        .agg(n_rows=("ws", "size"), n_chars=("nc", "sum"),
             max_turn=("turn_idx", "max"))
        .reset_index()
        .sort_values("ws")
    )
    want = pa.table(
        {
            "window_start": pa.array(g.ws, pa.int64()).cast(pa.timestamp("us")),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
            "max_turn": pa.array(g.max_turn, pa.int32()),
        }
    )
    assert got.equals(want)

    # tumbling degenerate case: same pane count as read_view
    rv = view.read_view(vdirs["view"])
    got2 = view.read_window(vdirs["view"], 900, 900)
    assert got2.num_rows == rv.num_rows
    assert got2.column("n_rows").equals(rv.column("n_rows"))


def test_view_read_window_distributed_equals_driver(ray_session, vdirs, monkeypatch):
    """The DRIVER_GATHER_BYTES=0-forced distributed path (per-block explode +
    partial fold → one bucketed exchange → per-bucket final fold) is
    bit-identical to the driver fold across EVERY aggregate family —
    additive, min/max bounds, hll registers, hist vectors — including a
    residual (non-pane) group column (VERDICT r4 wrong #1)."""
    spec = _setup(vdirs)
    aggs = [
        AggSpec("n_rows", "count"),
        AggSpec("sum_turn", "sum", "turn_idx"),
        AggSpec("max_turn", "max", "turn_idx"),
        AggSpec("first_ts", "min", "ts"),
        AggSpec("n_turns_d", "hll", "turn_idx"),
        AggSpec("turn_med", "hist", "turn_idx",
                {"lo": 0, "hi": 64, "bins": 32, "q": 0.5}),
    ]
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane", "role"], aggs,
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 900)],
    )
    _replay_round(vdirs, spec, 2500, seed=62)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    driver = view.read_window(vdirs["view"], 3600, 900)
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    dist = view.read_window(vdirs["view"], 3600, 900)
    assert dist.equals(driver)


def test_view_read_window_as_dataset_at_default_budget(ray_session, vdirs):
    """``as_dataset=True`` always takes the distributed plan: a view far
    under the driver budget still comes back as a Ray Dataset (same rows
    as the driver fold, unsorted, never collected on the driver)."""
    import ray.data as rd

    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane", "role"],
        [AggSpec("n_rows", "count"), AggSpec("max_turn", "max", "turn_idx")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 900)],
    )
    _replay_round(vdirs, spec, 2500, seed=62)
    view.refresh_view(vdirs["view"], vdirs["changes"])

    driver = view.read_window(vdirs["view"], 3600, 900)
    ds = view.read_window(vdirs["view"], 3600, 900, as_dataset=True)
    assert isinstance(ds, rd.Dataset)
    got = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
         if b.num_rows]
    ).sort_by([("window_start", "ascending"), ("role", "ascending")])
    assert got.equals(driver)


def test_view_read_window_dirty_pane_poisons_window(ray_session, vdirs):
    """A window containing a DIRTY pane bound (awaiting repair) reads NULL
    for that aggregate — never a silently-wrong bound — while additive
    aggregates in the same window stay exact."""
    import pyarrow.parquet as pq_

    _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane"],
        [AggSpec("n_rows", "count"), AggSpec("max_turn", "max", "turn_idx")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 900)],
    )
    clean = view.read_window(vdirs["view"], 1800, 900)
    assert clean.column("max_turn").null_count == 0

    # null one pane's bound in place (data+watermark metadata preserved)
    p = next(
        os.path.join(vdirs["view"], f)
        for f in sorted(os.listdir(vdirs["view"]))
        if f.endswith(".parquet") and pq_.read_metadata(
            os.path.join(vdirs["view"], f)).num_rows > 0
    )
    t = pq_.read_table(p)
    meta = t.schema.metadata
    mt = t.column("max_turn").to_pylist()
    mt[0] = None
    dirty_pane = t.column("pane")[0].as_py()
    t = t.set_column(t.column_names.index("max_turn"), "max_turn",
                     pa.array(mt, pa.int32()))
    pq_.write_table(t.replace_schema_metadata(meta), p)

    got = view.read_window(vdirs["view"], 1800, 900)
    mt_by_ws = dict(zip(
        (x.timestamp() for x in got.column("window_start").to_pylist()),
        got.column("max_turn").to_pylist(),
    ))
    pane_us = int(dirty_pane.timestamp())
    # both windows covering the dirty pane are poisoned
    for ws in (pane_us - 900, pane_us):
        assert mt_by_ws[float(ws)] is None
    # n_rows everywhere stays exact (equals the clean read)
    assert got.column("n_rows").equals(clean.column("n_rows"))
    # repair heals, windows read exact again
    view.repair_view(vdirs["view"])
    assert view.read_window(vdirs["view"], 1800, 900).equals(clean)


def test_view_read_window_validation(ray_session, vdirs):
    _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["conv_id"], [AggSpec("n_rows", "count")]
    )
    with pytest.raises(ValueError, match="time_bucket derived column"):
        view.read_window(vdirs["view"], 3600, 1800)
    vd = vdirs["view"] + "_p"
    view.create_view(
        vd, vdirs["lake"], ["pane"], [AggSpec("n_rows", "count")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 900)],
    )
    for w, s in ((1000, 500), (3600, 2400), (900, 450)):
        with pytest.raises(ValueError, match="multiple"):
            view.read_window(vd, w, s)


# --- pane retention (TTL) ------------------------------------------------------

def _recompute_hourly_from(lake_dir, wm_us, width_s=3600) -> pa.Table:
    """Full re-aggregation restricted to panes at/after the watermark —
    the retention invariant: view == recompute over surviving panes."""
    import numpy as np
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    t = cdc.read_lake_table(lake_dir)
    us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    w = width_s * 1_000_000
    pane = (us // w) * w
    t = t.filter(pa.array(pane >= wm_us))
    df = t.to_pandas()
    us2 = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    df["pane_us"] = (us2 // w) * w
    df["nc"] = df.text.str.len().fillna(0).astype("int64")
    g = (
        df.groupby("pane_us")
        .agg(n_rows=("pane_us", "size"), n_chars=("nc", "sum"))
        .reset_index()
        .sort_values("pane_us")
    )
    return pa.table(
        {
            "pane": pa.array(g.pane_us, pa.int64()).cast(pa.timestamp("us")),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "n_chars": pa.array(g.n_chars, pa.int64()),
        }
    )


def test_view_pane_retention_ttl(ray_session, vdirs):
    """prune_panes drops expired pane groups and commits a watermark the
    writer honors: late feed deltas for expired panes (retractions from
    ts-moving updates of old rows, asserts landing below the watermark)
    are consumed-by-policy — no resurrection, no negative-count error —
    while surviving panes keep matching a recompute of the lake restricted
    to panes at/after the watermark."""
    import pyarrow.compute as pc

    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 3600)],
    )
    full = view.read_view(vdirs["view"])
    assert full.num_rows > 10
    # watermark between the seed lake's panes and the replay events' panes
    wm = full.column("pane")[full.num_rows // 2].as_py()
    wm_us = int(wm.timestamp() * 1_000_000)

    rep = view.prune_panes(vdirs["view"], wm)
    assert rep["dropped_panes"] > 0
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute_hourly_from(vdirs["lake"], wm_us))
    assert view.fsck(vdirs["view"])["clean"]

    # idempotent rerun + monotonicity guard
    assert view.prune_panes(vdirs["view"], wm)["dropped_panes"] == 0
    import datetime as _dt

    with pytest.raises(ValueError, match="monotonic"):
        view.prune_panes(vdirs["view"], wm - _dt.timedelta(hours=1))

    # late data: replay rounds whose updates/deletes RETRACT expired panes
    # (old rows' ts sit below the watermark) and whose stable-echo asserts
    # can land below it — all dropped by policy, never resurrected
    for rnd, seed in enumerate((7, 11)):
        _replay_round(vdirs, spec, 2500, seed, lsn_start=1 + rnd * 100_000)
        view.refresh_view(vdirs["view"], vdirs["changes"])
        got = view.read_view(vdirs["view"])
        assert got.equals(_recompute_hourly_from(vdirs["lake"], wm_us))
        assert view.fsck(vdirs["view"])["clean"]
        # nothing below the watermark ever reappears
        pane_us = pc.cast(
            pc.cast(got.column("pane"), pa.timestamp("us")), pa.int64()
        )
        assert pc.min(pane_us).as_py() >= wm_us

    # read_window over the retained view only sees surviving panes
    win = view.read_window(vdirs["view"], 7200, 3600)
    ws_us = pc.cast(
        pc.cast(win.column("window_start"), pa.timestamp("us")), pa.int64()
    )
    assert pc.min(ws_us).as_py() >= wm_us - 3600 * 1_000_000


def test_view_pane_retention_requires_time_pane(ray_session, vdirs):
    _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["conv_id"], [AggSpec("n_rows", "count")]
    )
    with pytest.raises(ValueError, match="time_bucket derived column"):
        view.prune_panes(vdirs["view"], "2030-01-01 00:00:00")


def test_lake_ttl_and_view_ttl_compose(ray_session, vdirs):
    """Operational retention pipeline: `cdc.delete_where(ts < X)` expires
    rows from the LAKE through the ordinary feed, and `view.prune_panes`
    expires the matching panes from the windowed VIEW. Both orders stay
    consistent: pruning the view first makes the bulk delete's feed
    retractions consumed-by-policy; deleting first folds the panes to
    zero naturally — either way view == recompute(lake panes ≥ wm)."""
    import datetime as _dt

    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 3600)],
    )
    full = view.read_view(vdirs["view"])
    wm = full.column("pane")[full.num_rows // 3].as_py()
    wm_us = int(wm.timestamp() * 1_000_000)

    # order A: prune the view FIRST, then bulk-delete the lake — the feed
    # retractions for expired panes are consumed-by-policy
    view.prune_panes(vdirs["view"], wm)
    rep = cdc.delete_where(
        vdirs["lake"], [("ts", "<", wm)], spec,
        changes_dir=vdirs["changes"], changes_before=True,
    )
    assert rep["matched"] > 0
    vrep = view.refresh_view(vdirs["view"], vdirs["changes"])
    # the late-data signal: the bulk delete's retractions for expired
    # panes were dropped consumed-by-policy, and the report says how many
    assert vrep["expired_rows"] > 0
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute_hourly_from(vdirs["lake"], wm_us))
    assert view.fsck(vdirs["view"])["clean"]
    # the lake no longer holds any expired row, and the view matches a
    # PLAIN recompute too (lake and view agree on the retention boundary)
    t = cdc.read_lake_table(vdirs["lake"])
    assert pc.min(t.column("ts")).as_py() >= wm
    assert got.equals(_recompute_hourly_from(vdirs["lake"], 0))

    # order B: bulk-delete FIRST (feed retractions fold panes to zero),
    # then advance both watermarks again
    wm2 = wm + _dt.timedelta(hours=3)
    wm2_us = int(wm2.timestamp() * 1_000_000)
    cdc.delete_where(
        vdirs["lake"], [("ts", "<", wm2)], spec,
        changes_dir=vdirs["changes"], changes_before=True,
    )
    view.refresh_view(vdirs["view"], vdirs["changes"])
    got = view.read_view(vdirs["view"])
    assert got.equals(_recompute_hourly_from(vdirs["lake"], 0))
    # panes below wm2 folded to zero and dropped — no prune needed for
    # correctness; prune_panes just commits the policy watermark
    pane_us = pc.cast(pc.cast(got.column("pane"), pa.timestamp("us")), pa.int64())
    assert pc.min(pane_us).as_py() >= wm2_us
    view.prune_panes(vdirs["view"], wm2)
    assert view.fsck(vdirs["view"])["clean"]


def test_view_follow_rolling_retention(ray_session, vdirs):
    """follow(retain_panes_s=) keeps a rolling window trimmed: rounds of
    ever-later events (hand-crafted ts marching past the seed's max pane)
    advance the footer-stats watermark, panes older than max_pane −
    retention are pruned automatically, and the surviving view equals a
    recompute restricted to the retained panes."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs, n_convs=40)
    view.create_view(
        vdirs["view"], vdirs["lake"], ["pane"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")],
        derive=[view.DeriveSpec("pane", "time_bucket", "ts", 3600)],
    )
    seed_max_us = int(
        pc.max(cdc.read_lake_table(vdirs["lake"]).column("ts"))
        .cast(pa.int64()).as_py()
    )
    RETAIN = 4 * 3600  # keep 4 hours of panes (< the 5 h round hop)

    def _advance_wal(rnd: int) -> pa.Table:
        """500 upserts spread over 4 h starting 5·rnd hours past the seed max
        (a 5 h hop vs the 8 h retention guarantees each round prunes)."""
        n = 500
        lsn0 = 1 + rnd * 100_000
        base = seed_max_us + (5 * rnd) * 3_600_000_000
        ts = base + (pa.array(range(n), pa.int64()).to_numpy() * 28_800_000)
        return pa.table(
            {
                "lsn": pa.array(range(lsn0, lsn0 + n), pa.int64()),
                "op": pa.array(["upsert"] * n),
                "conv_id": pa.array(
                    [f"conv-{i % 40:08d}" for i in range(n)], pa.string()
                ),
                # distinct keys per round: earlier rounds' rows STAY in their
                # panes (an upsert of the same key would retract-and-move
                # them forward, leaving nothing for the prune to drop)
                "turn_idx": pa.array(
                    [rnd * 12 + (i % 12) for i in range(n)], pa.int32()
                ),
                "role": pa.array(["user"] * n),
                "text": pa.array([f"r{rnd} msg {i}" for i in range(n)]),
                "tool": pa.nulls(n, pa.string()),
                "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            }
        )

    for rnd in range(1, 3):
        paths = cg.write_wal_chunks(
            _advance_wal(rnd), os.path.join(vdirs["wal"], f"adv{rnd}"),
            num_chunks=2,
        )
        cdc.replay(
            vdirs["lake"], paths, spec,
            changes_dir=vdirs["changes"], changes_before=True,
        )
        rep = view.follow(
            vdirs["view"], vdirs["changes"], retain_panes_s=RETAIN
        )
        assert rep["pruned_panes"] > 0  # the watermark advanced each round
        got = view.read_view(vdirs["view"])
        pane_us = pc.cast(
            pc.cast(got.column("pane"), pa.timestamp("us")), pa.int64()
        )
        mx = pc.max(pane_us).as_py()
        wm_us = mx - RETAIN * 1_000_000
        assert pc.min(pane_us).as_py() >= wm_us
        assert got.equals(_recompute_hourly_from(vdirs["lake"], wm_us))
        assert view.fsck(vdirs["view"])["clean"]

    # non-windowed views refuse the knob loudly
    vd2 = vdirs["view"] + "_plain"
    view.create_view(vd2, vdirs["lake"], ["conv_id"], [AggSpec("n_rows", "count")])
    with pytest.raises(ValueError, match="time_bucket derived column"):
        view.follow(vd2, vdirs["changes"], retain_panes_s=60)


def test_view_over_snapshot_time_travel_aggregate(ray_session, vdirs):
    """Snapshot dirs ARE complete lakes (hardlinked immutable inodes), so
    create_view over cdc.snapshot_path computes a TIME-TRAVEL aggregate:
    the view over the snapshot equals a recompute of the pre-mutation
    state even after the live lake moves on."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = _setup(vdirs)
    cdc.snapshot(vdirs["lake"], "t0")
    frozen = _recompute(vdirs["lake"])

    _replay_round(vdirs, spec, 2500, seed=67)  # live lake moves on
    assert not _recompute(vdirs["lake"]).equals(frozen)

    snap = cdc.snapshot_path(vdirs["lake"], "t0")
    vdir = vdirs["view"] + "_t0"
    view.create_view(vdir, snap, ["conv_id"], AGGS)
    assert view.read_view(vdir).equals(frozen)
    # the snapshot dir holds only the transient lock artifacts afterwards,
    # never mutated data files (hardlink safety)
    assert not os.path.exists(os.path.join(snap, "_lock.json"))


def test_hist_contrib_nonfinite_matches_sql_mirror():
    """Bin quantization clamps in FLOAT space with DuckDB's NaN-is-greatest
    policy — a float→int64 astype of a non-finite index is platform-defined
    and must never reach the cast. Parity matrix vs
    least(greatest(floor(...), 0), bins-1) on DOUBLE: NaN→top, +inf→top,
    -inf→0, ±huge→top/0, null→null."""
    import numpy as np

    from bcdc2bcdc_ray.pipelines.view import _hist_contrib

    agg = AggSpec("h", "hist", "v", arg={"lo": 0.0, "hi": 10.0, "bins": 4, "q": 0.5})
    col = pa.array(
        [float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 5.0, None],
        pa.float64(),
    )
    c = _hist_contrib(col, agg)
    got = [(c[i].as_py()["bin"] if c[i].is_valid else None) for i in range(len(c))]
    assert got == [3, 3, 0, 3, 0, 2, None]


def test_hist_contrib_is_row_compact():
    """The pre-fold contribution is a ~6-byte (bin, sign) struct per row —
    a 65536-bin spec over a wide batch must NOT materialize dense one-hot
    vectors (the dense form exists only per GROUP, post-fold)."""
    from bcdc2bcdc_ray.pipelines.view import _HIST_CONTRIB, _hist_contrib

    agg = AggSpec(
        "h", "hist", "v",
        arg={"lo": 0.0, "hi": 1.0, "bins": 65536, "q": 0.5},
    )
    col = pa.array([i / 100_000 for i in range(100_000)], pa.float64())
    c = _hist_contrib(col, agg)
    assert c.type == _HIST_CONTRIB
    assert c.nbytes < 2_000_000  # ~0.6 MB, vs ~52 GB dense
