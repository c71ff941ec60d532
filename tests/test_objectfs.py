"""Object-store lake backend (state/fs.py kind="object"): the full commit
protocol — replay, exactly-once rerun, writer-crash injection, snapshot /
restore, feed → incremental view, split/merge maintenance, the lease lock —
green WITHOUT rename-of-existing or hardlink semantics. Every snapshot file
must be an independent object (st_nlink == 1), the opposite of the posix
backend's zero-copy hardlinks, and every durable dir carries the ``_fs.json``
marker (VERDICT r4 next-round #1)."""

import json
import os
import time

import pyarrow as pa
import pytest

from bcdc2bcdc_ray import changegen as cg
from bcdc2bcdc_ray.pipelines import cdc, view
from bcdc2bcdc_ray.pipelines.view import AggSpec
from bcdc2bcdc_ray.spec import transcripts_spec
from bcdc2bcdc_ray.state import fs as lakefs


@pytest.fixture
def dirs(tmp_path):
    return {
        "lake": str(tmp_path / "lake"),
        "wal": str(tmp_path / "wal"),
        "changes": str(tmp_path / "changes"),
        "view": str(tmp_path / "view"),
    }


def _setup_object(d, n_convs=100, n_events=2500, P=8):
    spec = transcripts_spec()
    lake = cg.gen_transcripts(n_convs, seed=42)
    cdc.init_lake(lake, d["lake"], spec, num_partitions=P, fs_kind="object")
    events = cg.gen_change_events(n_events, n_convs, seed=43)
    paths = cg.write_wal_chunks(events, d["wal"], num_chunks=5)
    return spec, lake, events, paths


def _all_nlink_one(root: str) -> bool:
    for r, _, fns in os.walk(root):
        for fn in fns:
            if os.stat(os.path.join(r, fn)).st_nlink != 1:
                return False
    return True


def test_object_lake_replay_exactly_once_and_oracle(ray_session, dirs):
    spec, lake, events, paths = _setup_object(dirs)
    assert lakefs.fs_kind(dirs["lake"]) == "object"
    rep = cdc.replay(dirs["lake"], paths, spec, changes_dir=dirs["changes"],
                     changes_before=True)
    assert rep["events"] == events.num_rows
    oracle = cg.oracle_replay(lake, events)
    assert cdc.read_lake_table(dirs["lake"]).equals(oracle)
    # feed dir inherited the backend marker
    assert lakefs.fs_kind(dirs["changes"]) == "object"
    # exactly-once rerun
    rep2 = cdc.replay(dirs["lake"], paths, spec, changes_dir=dirs["changes"],
                      changes_before=True)
    assert rep2["adds"] == rep2["updates"] == rep2["deletes"] == 0
    assert rep2["skipped"] == events.num_rows
    assert cdc.read_lake_table(dirs["lake"]).equals(oracle)
    # nothing in the lake shares an inode — the object protocol never links
    assert _all_nlink_one(dirs["lake"])


def test_object_lake_writer_crash_recovers(ray_session, dirs):
    """The nastiest window (data published, manifest not) on the object
    backend: Ray restarts the writer, the retry classifies already-applied
    events NOOP by content hash, final state equals the oracle."""
    spec, lake, events, paths = _setup_object(dirs)
    with open(os.path.join(dirs["lake"], "_fault_once"), "w") as f:
        f.write("0")
    try:
        cdc.replay(dirs["lake"], paths, spec)
    finally:
        os.remove(os.path.join(dirs["lake"], "_fault_once"))
    assert os.path.exists(os.path.join(dirs["lake"], "_crashed-0"))
    assert cdc.read_lake_table(dirs["lake"]).equals(cg.oracle_replay(lake, events))
    rep = cdc.replay(dirs["lake"], paths, spec)
    assert rep["adds"] + rep["updates"] + rep["deletes"] == 0


def test_object_snapshot_restore_roundtrip(ray_session, dirs):
    """Snapshot = CopyObject per file (independent objects, never hardlinks);
    restore brings data + watermarks back; re-replay of the same WAL
    reconverges exactly-once."""
    spec, lake, events, paths = _setup_object(dirs)
    cdc.replay(dirs["lake"], paths[:3], spec)
    mid = cdc.read_lake_table(dirs["lake"])
    cdc.snapshot(dirs["lake"], "mid")
    sdir = os.path.join(dirs["lake"], "_snapshots", "mid")
    # every snapshot object is independent AND the dir is a self-described lake
    assert _all_nlink_one(sdir)
    assert lakefs.fs_kind(sdir) == "object"
    assert json.load(open(os.path.join(sdir, "_fs.json")))["kind"] == "object"
    # snapshot accounting: object backend → exclusive == total
    st = [s for s in cdc.snapshot_stats(dirs["lake"]) if s["tag"] == "mid"][0]
    assert st["bytes_exclusive"] == st["bytes_total"] > 0

    cdc.replay(dirs["lake"], paths, spec)  # move the live lake past the snapshot
    assert not cdc.read_lake_table(dirs["lake"]).equals(mid)
    assert cdc.read_snapshot(dirs["lake"], "mid").take_all()  # time travel reads
    cdc.restore(dirs["lake"], "mid")
    assert cdc.read_lake_table(dirs["lake"]).equals(mid)
    rep = cdc.replay(dirs["lake"], paths, spec)  # forward again, exactly-once
    assert rep["skipped"] > 0
    assert cdc.read_lake_table(dirs["lake"]).equals(cg.oracle_replay(lake, events))


def test_object_feed_to_view_refresh(ray_session, dirs):
    """Feed → incremental view on the object backend: the view inherits the
    marker and stays bit-identical to a full re-aggregation."""
    spec, lake, events, paths = _setup_object(dirs)
    cdc.replay(dirs["lake"], paths[:2], spec, changes_dir=dirs["changes"],
               changes_before=True)
    aggs = [AggSpec("n_rows", "count"), AggSpec("sum_turn", "sum", "turn_idx")]
    view.create_view(dirs["view"], dirs["lake"], ["conv_id"], aggs)
    assert lakefs.fs_kind(dirs["view"]) == "object"
    cdc.replay(dirs["lake"], paths, spec, changes_dir=dirs["changes"],
               changes_before=True)
    view.refresh_view(dirs["view"], dirs["changes"])
    got = view.read_view(dirs["view"]).sort_by([("conv_id", "ascending")])
    df = cdc.read_lake_table(dirs["lake"]).to_pandas()
    g = df.groupby("conv_id").agg(
        n_rows=("conv_id", "size"), sum_turn=("turn_idx", "sum")
    ).reset_index()
    want = pa.table(
        {
            "conv_id": pa.array(g.conv_id, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "sum_turn": pa.array(g.sum_turn, pa.int64()),
        }
    ).sort_by([("conv_id", "ascending")])
    assert got.select(want.column_names).equals(want)


def test_object_view_bound_repair_distributed(ray_session, dirs, monkeypatch):
    """Dirty min/max bound repair on the OBJECT backend, forced through the
    distributed plan (``DRIVER_GATHER_BYTES=0``): the semi-join recompute's
    RepairWriter publishes view partitions via atomic whole-object PUT —
    the one write path the other objectfs tests never reach. The healed
    view must equal a full recompute with zero hardlinks anywhere."""
    import pyarrow.compute as pc

    spec, lake, events, paths = _setup_object(dirs)
    cdc.replay(dirs["lake"], paths, spec, changes_dir=dirs["changes"],
               changes_before=True)
    aggs = [AggSpec("n_rows", "count"), AggSpec("max_turn", "max", "turn_idx")]
    view.create_view(dirs["view"], dirs["lake"], ["conv_id"], aggs)
    view.refresh_view(dirs["view"], dirs["changes"])
    # delete every conversation's max-turn row: mass bound retraction
    df = (
        cdc.read_lake_table(dirs["lake"])
        .select(["conv_id", "turn_idx"])
        .to_pandas()
    )
    victims = df.loc[df.groupby("conv_id").turn_idx.idxmax()]
    n = len(victims)
    wal = pa.table(
        {
            "lsn": pa.array(range(10**7, 10**7 + n), pa.int64()),
            "op": pa.array(["delete"] * n),
            "conv_id": pa.array(victims.conv_id, pa.string()),
            "turn_idx": pa.array(victims.turn_idx, pa.int32()),
            "role": pa.nulls(n, pa.string()),
            "text": pa.nulls(n, pa.string()),
            "tool": pa.nulls(n, pa.string()),
            "ts": pa.nulls(n, pa.timestamp("us")),
        }
    )
    mp = cg.write_wal_chunks(wal, os.path.join(dirs["wal"], "mass"), num_chunks=1)
    cdc.replay(dirs["lake"], mp, spec, changes_dir=dirs["changes"],
               changes_before=True)
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    rep = view.refresh_view(dirs["view"], dirs["changes"])
    assert rep["repair"]["dirty_groups"] >= n
    got = view.read_view(dirs["view"]).sort_by([("conv_id", "ascending")])
    df = cdc.read_lake_table(dirs["lake"]).to_pandas()
    g = df.groupby("conv_id").agg(
        n_rows=("conv_id", "size"), max_turn=("turn_idx", "max")
    ).reset_index()
    want = pa.table(
        {
            "conv_id": pa.array(g.conv_id, pa.string()),
            "n_rows": pa.array(g.n_rows, pa.int64()),
            "max_turn": pa.array(g.max_turn, pa.int32()),
        }
    ).sort_by([("conv_id", "ascending")])
    assert got.select(want.column_names).equals(want)
    assert _all_nlink_one(dirs["view"]) and _all_nlink_one(dirs["lake"])


def test_object_split_merge_maintenance(ray_session, dirs):
    """split/merge publish via CopyObject+DELETE instead of rename — state
    and watermarks identical through a split→merge round trip."""
    spec, lake, events, paths = _setup_object(dirs, P=4)
    cdc.replay(dirs["lake"], paths, spec)
    before = cdc.read_lake_table(dirs["lake"])
    cdc.split_partitions(dirs["lake"])
    assert cdc.lake_meta(dirs["lake"])["num_partitions"] == 8
    assert cdc.read_lake_table(dirs["lake"]).equals(before)
    cdc.merge_partitions(dirs["lake"])
    assert cdc.lake_meta(dirs["lake"])["num_partitions"] == 4
    assert cdc.read_lake_table(dirs["lake"]).equals(before)
    rep = cdc.replay(dirs["lake"], paths, spec)  # still exactly-once after
    assert rep["adds"] + rep["updates"] + rep["deletes"] == 0


def test_object_denorm_lifecycle_and_heal(ray_session, tmp_path):
    """Denorm join view entirely on the object backend (fact, dim, FK
    index and the denorm lake all inherit the marker): refresh equals the
    LEFT JOIN, resolve_misses heals an out-of-band dim advance, audits
    stay clean, and nothing anywhere shares an inode."""
    from bcdc2bcdc_ray.pipelines import denorm
    from bcdc2bcdc_ray.spec import TableSpec

    import pyarrow.compute as pc

    spec = transcripts_spec()
    dim_spec = TableSpec(name="tools", schema=cg.TOOLS_SCHEMA, key=("tool_id",))
    p = lambda *a: str(tmp_path.joinpath(*a))  # noqa: E731
    tools = cg.gen_tool_dim()
    cdc.init_lake(cg.gen_transcripts(80, seed=42), p("fact"), spec,
                  num_partitions=8, fs_kind="object")
    cdc.init_lake(
        tools.filter(pc.not_equal(tools.column("tool_id"), "search")),
        p("dim"), dim_spec, num_partitions=2, fs_kind="object",
    )
    cdc.create_index(p("idx"), p("fact"), "tool")
    denorm.create_denorm(
        p("dn"), p("fact"), p("dim"), "tool", {"tool_dest": "dest_name"},
        index_dir=p("idx"), fact_changes_dir=p("fch"), dim_changes_dir=p("dch"),
    )
    for d in ("idx", "dn"):
        assert lakefs.fs_kind(p(d)) == "object"

    ev = cg.gen_change_events(2000, 80, seed=43)
    cdc.replay(p("fact"), cg.write_wal_chunks(ev, p("fwal"), 4), spec,
               changes_dir=p("fch"), changes_before=True)
    assert lakefs.fs_kind(p("fch")) == "object"  # feed inherits on first write
    denorm.refresh_denorm(p("dn"))

    # out-of-band dim advance (no feed) → only resolve_misses can heal
    hold = tools.filter(pc.equal(tools.column("tool_id"), "search"))
    oob = hold.add_column(0, "lsn", pa.array([1], pa.int64())).add_column(
        1, "op", pa.array(["upsert"], pa.string()))
    cdc.replay(p("dim"), cg.write_wal_chunks(oob, p("dwal"), 1), dim_spec)
    rep = denorm.resolve_misses(p("dn"))
    assert rep["healed_fks"] == 1

    got = denorm.read_denorm(p("dn")).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    dim = cdc.read_lake_table(p("dim")).select(
        ["tool_id", "dest_name"]).rename_columns(["tool_id", "tool_dest"])
    want = cdc.read_lake_table(p("fact")).join(
        dim, keys=["tool"], right_keys=["tool_id"], join_type="left outer"
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.select(want.column_names).equals(want)
    assert cdc.fsck(p("dn"))["clean"]
    assert denorm.fsck(p("dn"), sample_frac=1.0)["clean"]
    for d in ("fact", "dim", "idx", "dn"):
        assert _all_nlink_one(p(d))


def test_object_lease_mutual_exclusion(tmp_path):
    d = str(tmp_path)
    lakefs.mark_fs(d, "object")
    with cdc.lake_lock(d):
        assert isinstance(
            cdc.lake_lock(d), lakefs.ObjectLease
        )  # backend dispatch
        with pytest.raises(cdc.LakeLockedError, match="live writer"):
            with cdc.lake_lock(d):
                pass
    assert not os.path.exists(os.path.join(d, "_lock.json"))


def test_object_lease_heartbeat_outlives_lease(tmp_path):
    """A live holder heartbeats (re-PUTs a fresh expiry), so holding LONGER
    than the lease duration never loses the lock to a contender."""
    d = str(tmp_path)
    lakefs.mark_fs(d, "object")
    with lakefs.ObjectLease(d, lease_s=1.0):
        time.sleep(2.2)  # > 2 lease durations; heartbeat every 0.25 s
        with pytest.raises(lakefs.LakeLockedError):
            with lakefs.ObjectLease(d, lease_s=1.0):
                pass


def test_object_lease_stale_reclaim(tmp_path):
    """A crashed holder's lease (no heartbeat) ages out by its embedded
    expiry and a contender reclaims it."""
    d = str(tmp_path)
    lakefs.mark_fs(d, "object")
    dead = lakefs.ObjectLease(d, lease_s=0.5)
    lakefs._OBJECT.put_bytes(dead.path, dead._payload())  # holder "crashed"
    time.sleep(0.8)
    with lakefs.ObjectLease(d, lease_s=5.0):
        pass
    assert not os.path.exists(os.path.join(d, "_lock.json"))


def test_mark_fs_refuses_backend_flip(tmp_path):
    d = str(tmp_path)
    lakefs.mark_fs(d, "object")
    lakefs.mark_fs(d, "object")  # idempotent
    with pytest.raises(ValueError, match="refusing"):
        lakefs.mark_fs(d, "posix")


def test_posix_default_unchanged(tmp_path):
    """No marker → posix; posix lakes never write a marker; the posix lock
    class is dispatched."""
    spec = transcripts_spec()
    lake_dir = str(tmp_path / "lake")
    cdc.init_lake(cg.gen_transcripts(10, seed=1), lake_dir, spec, num_partitions=2)
    assert not os.path.exists(os.path.join(lake_dir, "_fs.json"))
    assert lakefs.fs_kind(lake_dir) == "posix"
    assert isinstance(cdc.lake_lock(lake_dir), cdc._LakeLock)
