"""End-to-end Ray pipeline tests: golden replay, exactly-once, resume,
schema evolution, skew salting (FIXTURES.md 'Oracle & invariants')."""

import os
import shutil

import pyarrow as pa
import pytest

from bcdc2bcdc_ray import changegen as cg
from bcdc2bcdc_ray.spec import transcripts_spec
from bcdc2bcdc_ray.stages import evolve
from bcdc2bcdc_ray.state.manifest import ManifestStore


@pytest.fixture
def dirs(tmp_path):
    return str(tmp_path / "lake"), str(tmp_path / "wal")


def _setup(lake_dir, wal_dir, n_convs=120, n_events=3000, P=8, **gen_kw):
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(n_convs, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=P)
    events = cg.gen_change_events(n_events, n_convs, seed=43, **gen_kw)
    paths = cg.write_wal_chunks(events, wal_dir, num_chunks=6)
    return spec, lake, events, paths


def test_replay_matches_oracle(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    rep = cdc.replay(lake_dir, paths, spec)
    assert rep["events"] == events.num_rows
    final = cdc.read_lake_table(lake_dir)
    oracle = cg.oracle_replay(lake, events)
    assert final.equals(oracle)
    # counters consistent: final rows = initial + adds - deletes
    assert rep["rows"] == final.num_rows


def test_exactly_once_rerun(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths, spec)
    oracle = cg.oracle_replay(lake, events)
    rep2 = cdc.replay(lake_dir, paths, spec)
    assert rep2["adds"] == rep2["updates"] == rep2["deletes"] == 0
    assert rep2["skipped"] == events.num_rows
    assert cdc.read_lake_table(lake_dir).equals(oracle)


def test_resume_after_partial_commit(ray_session, dirs):
    """Interrupt emulation: replay chunk 1, then full range; watermarks make
    the overlap idempotent (SURVEY §7 step 7)."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths[:2], spec)     # partial run ("crash" after 2 chunks)
    rep = cdc.replay(lake_dir, paths, spec)   # restart over the whole WAL
    assert rep["skipped"] > 0
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))


def test_salted_skew_path(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    rep = cdc.replay(lake_dir, paths, spec, salt=4)
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))


def test_salted_with_hot_detection(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    rep = cdc.replay(lake_dir, paths, spec, salt=4, hot_key_threshold=50)
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))


def test_schema_evolution_replay(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec = transcripts_spec()
    lake = cg.gen_transcripts(100, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    ev1 = cg.gen_change_events(1500, 100, seed=43)
    ev2 = cg.gen_change_events(1500, 100, seed=44, lsn_start=100_000, evolved=True)
    p1 = cg.write_wal_chunks(ev1, wal_dir + "/a", num_chunks=4)
    p2 = cg.write_wal_chunks(ev2, wal_dir + "/b", num_chunks=4)
    cdc.replay(lake_dir, p1, spec)
    cdc.replay(lake_dir, p2, spec)
    final = cdc.read_lake_table(lake_dir)
    assert final.schema.field("turn_idx").type == pa.int64()
    assert "lang" in final.schema.names

    evolved_schema = evolve.unify(
        lake.schema, pa.schema([("turn_idx", pa.int64()), ("lang", pa.string())])
    )
    lake_e = evolve.conform(lake, evolved_schema)
    all_ev = pa.concat_tables(evolve.unify_tables([ev1, ev2]))
    assert final.equals(cg.oracle_replay(lake_e, all_ev))


def test_ignore_keys_invariant(ray_session, dirs):
    """No applied change touches an ignored conversation
    (/root/reference/tests/test_CKANData.py:97-105 analog)."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    ignore = frozenset({"conv-00000001", "conv-00000003"})
    spec = transcripts_spec(ignore_keys=ignore)
    lake = cg.gen_transcripts(60, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    events = cg.gen_change_events(1000, 60, seed=43)
    paths = cg.write_wal_chunks(events, wal_dir, num_chunks=4)
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    oracle = cg.oracle_replay(lake, events, ignore_keys=ignore)
    assert final.equals(oracle)
    # ignored conversations still hold their original lake rows
    import pyarrow.compute as pc

    for c in ignore:
        got = final.filter(pc.equal(final.column("conv_id"), c))
        exp = lake.filter(pc.equal(lake.column("conv_id"), c))
        assert got.sort_by("turn_idx").equals(exp.sort_by("turn_idx"))


def test_lineage_and_watermarks_persisted(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=4)
    rep = cdc.replay(lake_dir, paths, spec)
    store = ManifestStore(lake_dir)
    wms = store.watermarks()
    assert set(wms) == set(range(4))
    assert max(wms.values()) == rep["lsn_hi"]
    tot = store.total_counts()
    assert tot["adds"] == rep["adds"] and tot["rows"] == rep["rows"]


def test_combiner_off_same_final_state(ray_session, dirs):
    """The per-block LWW combiner is a pure optimization: replay with and
    without it must produce identical final tables (both == oracle)."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths, spec, combine=False)
    final_nc = cdc.read_lake_table(lake_dir)
    oracle = cg.oracle_replay(lake, events)
    assert final_nc.equals(oracle)

    lake2 = lake_dir + "_c"
    cdc.init_lake(lake, lake2, spec, num_partitions=8)
    cdc.replay(lake2, paths, spec, combine=True)
    assert cdc.read_lake_table(lake2).equals(oracle)


def test_block_combiner_reduces_and_preserves_lww():
    from bcdc2bcdc_ray.stages.delta import reduce_lww
    from bcdc2bcdc_ray.stages.skew import make_block_combiner

    spec = transcripts_spec()
    events = cg.gen_change_events(4000, 50, seed=7)
    combined = make_block_combiner(spec)(events)
    assert combined.num_rows < events.num_rows
    # combiner output reduces to the same LWW state as the raw block
    a = reduce_lww(combined, spec.key).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"), ("lsn", "ascending")])
    b = reduce_lww(events, spec.key).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"), ("lsn", "ascending")])
    assert a.equals(b)


def test_gen_wal_chunks_matches_single_table(tmp_path):
    """Chunked generation is a valid ordered WAL: disjoint ascending LSN
    ranges, schema identical to the in-memory generator."""
    import pyarrow.parquet as pq

    paths = cg.gen_wal_chunks(5000, 100, str(tmp_path / "w"), num_chunks=4, seed=11)
    assert len(paths) == 4
    last_hi = 0
    for p in paths:
        t = pq.read_table(p)
        lsns = t.column("lsn").to_pylist()
        assert min(lsns) > last_hi
        last_hi = max(lsns)
        assert t.schema.names == cg.gen_change_events(10, 5).schema.names


def test_replay_remap_hook(ray_session, dirs):
    """J5 FK-remap via on_compare hook: final lake stays in dest-id space and
    matches the oracle replay of remapped events."""
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.pipelines.queries import _TOOL_REMAP, _remap_tool_hook
    from bcdc2bcdc_ray.spec import TRANSCRIPTS_SCHEMA, TableSpec

    lake_dir, wal_dir = dirs
    spec = TableSpec(
        name="transcripts_remap",
        schema=TRANSCRIPTS_SCHEMA,
        key=("conv_id", "turn_idx"),
        compare_columns=("role", "text", "tool", "ts"),
        falsy_null_columns=("text", "tool"),
        on_compare=(_remap_tool_hook,),
    )
    lake = _remap_tool_hook(cg.gen_transcripts(100, seed=42))
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    events = cg.gen_change_events(2500, 100, seed=43)
    paths = cg.write_wal_chunks(events, wal_dir, num_chunks=4)
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    tools = set(final.column("tool").to_pylist()) - {None}
    assert tools <= set(_TOOL_REMAP.values())
    oracle = cg.oracle_replay(lake, _remap_tool_hook(events))
    assert final.equals(oracle)


def test_chunk_pruning_on_rerun(ray_session, dirs):
    """After a full commit, a rerun prunes every chunk from parquet footers
    alone (no partition reads) and leaves state untouched."""
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.sources import wal as wal_src
    from bcdc2bcdc_ray.state.manifest import ManifestStore

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    rep1 = cdc.replay(lake_dir, paths, spec)
    store = ManifestStore(lake_dir)
    live, pruned = wal_src.prune_committed_chunks(
        paths, store.watermarks(), 8, global_watermark=store.global_watermark()
    )
    assert live == [] and pruned == events.num_rows
    # without the lake-level watermark the tail chunk must NOT prune
    live2, _ = wal_src.prune_committed_chunks(paths, store.watermarks(), 8)
    assert len(live2) >= 1
    rep2 = cdc.replay(lake_dir, paths, spec)
    assert rep2["skipped"] == events.num_rows and rep2["partitions_touched"] == 0
    assert rep2["rows"] == rep1["rows"]
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))


def test_chunk_pruning_conservative_when_partial():
    """Missing manifests (uncommitted partitions) disable pruning."""
    from bcdc2bcdc_ray.sources import wal as wal_src

    live, pruned = wal_src.prune_committed_chunks(["x.parquet"], {0: 100}, 2)
    assert live == ["x.parquet"] and pruned == 0
    live, pruned = wal_src.prune_committed_chunks(["x.parquet"], {}, 2)
    assert live == ["x.parquet"] and pruned == 0


def test_wal_chunk_stats(tmp_path):
    from bcdc2bcdc_ray.sources import wal as wal_src

    paths = cg.gen_wal_chunks(1000, 40, str(tmp_path / "w"), num_chunks=2, seed=3)
    s0, s1 = wal_src.chunk_stats(paths[0]), wal_src.chunk_stats(paths[1])
    assert s0.lsn_hi < s1.lsn_lo and s0.rows + s1.rows >= 1000
    assert wal_src.list_wal_chunks(str(tmp_path / "w")) == paths


def test_derived_ignores_two_pass(ray_session, dirs):
    """ST4 — runtime-discovered ignore set feeds the SAME run's replay
    (reference CachedIgnores flow, DataCache.py:559-586 + the invariant in
    tests/test_CKANData.py:74-105: no changed key is in the ignore list)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec0, lake, events, paths = _setup(lake_dir, wal_dir)

    def derive(b: pa.Table) -> pa.Table:
        t0 = b.filter(pc.equal(b.column("turn_idx"), 0))
        dk = pc.replace_substring_regex(t0.column("text"), r" #[0-9]+$", "")
        return pa.table({"conv_id": t0.column("conv_id"), "dup_key": dk})

    ignores = cdc.derive_dup_ignores(rd.from_arrow(lake), derive, "conv_id")
    assert ignores  # the 512-sentence pool guarantees collisions at 120 convs
    spec = transcripts_spec(ignore_keys=ignores)
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    assert final.equals(cg.oracle_replay(lake, events, ignore_keys=ignores))
    # the invariant: ignored conversations' rows are untouched by any event
    for conv in list(ignores)[:5]:
        want = lake.filter(pc.equal(lake.column("conv_id"), conv))
        got = final.filter(pc.equal(final.column("conv_id"), conv))
        assert got.equals(want.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]))


def test_two_table_replay_derived_lut(ray_session, tmp_path):
    """Dims merge before facts; the fact replay's LUT comes from the dim's
    POST-MERGE lake state (runBCDC2BCDC.py:286-289 + DataCache.py:143-189)."""
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.spec import TableSpec, TRANSCRIPTS_SCHEMA
    from bcdc2bcdc_ray.stages import transforms

    dim = cg.gen_tool_dim()
    dim_ev = cg.gen_tool_events(48)
    dim_spec = TableSpec(
        name="tools", schema=cg.TOOLS_SCHEMA, key=("tool_id",),
        compare_columns=("dest_name", "ts"),
    )
    dim_dir = str(tmp_path / "dim")
    cdc.init_lake(dim, dim_dir, dim_spec, num_partitions=2)
    dim_paths = cg.write_wal_chunks(dim_ev, str(tmp_path / "dimwal"), num_chunks=2)
    cdc.replay(dim_dir, dim_paths, dim_spec)
    dim_state = cdc.read_lake_table(dim_dir)
    lut = dict(zip(dim_state.column("tool_id").to_pylist(),
                   dim_state.column("dest_name").to_pylist()))
    # the engine-derived LUT equals the dict-oracle LWW over the dim stream
    assert lut == cg.final_tool_lut(dim, dim_ev)

    lake = transforms.value_map(cg.gen_transcripts(80, seed=42), "tool", lut)
    events = cg.gen_change_events(2000, 80, seed=7)
    spec = TableSpec(
        name="t2t", schema=TRANSCRIPTS_SCHEMA, key=("conv_id", "turn_idx"),
        compare_columns=("role", "text", "tool", "ts"),
        falsy_null_columns=("text", "tool"),
        on_compare=(lambda b: transforms.value_map(b, "tool", lut),),
    )
    lake_dir = str(tmp_path / "lake")
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    paths = cg.write_wal_chunks(events, str(tmp_path / "wal"), num_chunks=4)
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    oracle = cg.oracle_replay(lake, transforms.value_map(events, "tool", lut))
    assert final.equals(oracle)


def test_partition_split_merge_roundtrip(ray_session, dirs):
    """Lake maintenance: split (P→2P) mid-replay preserves correctness and
    watermarks; merge (2P→P) after completion keeps the table identical and
    the lake exactly-once (min-watermark re-application is all NOOPs)."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=8)
    cdc.replay(lake_dir, paths[:3], spec)
    cdc.split_partitions(lake_dir)
    assert cdc.lake_meta(lake_dir)["num_partitions"] == 16
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    assert final.equals(cg.oracle_replay(lake, events))

    cdc.merge_partitions(lake_dir)
    assert cdc.lake_meta(lake_dir)["num_partitions"] == 8
    assert cdc.read_lake_table(lake_dir).equals(final)
    rep = cdc.replay(lake_dir, paths, spec)
    assert rep["adds"] + rep["updates"] + rep["deletes"] == 0
    assert cdc.read_lake_table(lake_dir).equals(final)


def test_compact_targets_partition_size(ray_session, dirs):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=16)
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    # tiny target → split up; huge target → merge down; table invariant
    p_up = cdc.compact(lake_dir, target_bytes=1 << 10)
    assert p_up >= 16
    p_down = cdc.compact(lake_dir, target_bytes=1 << 30)
    assert p_down == 1
    assert cdc.read_lake_table(lake_dir).equals(final)


def test_protected_lake_guard_and_dry_run(ray_session, dirs):
    """Do-not-write guard (reference CKAN.py:431-460 checkUrl) + dry-run:
    a protected lake refuses mutation; dry_run classifies and counts but
    writes nothing."""
    import pytest as _pytest

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    before = cdc.read_lake_table(lake_dir)
    cdc.mark_protected(lake_dir)
    with _pytest.raises(cdc.ProtectedLakeError):
        cdc.replay(lake_dir, paths, spec)
    # dry run is allowed: full classify report, zero writes
    rep = cdc.replay(lake_dir, paths, spec, dry_run=True)
    assert rep["adds"] > 0 and rep["partitions_touched"] > 0
    assert cdc.read_lake_table(lake_dir).equals(before)
    # no replay watermark advanced (init_lake seeds manifests at -1 for the
    # content fingerprints; -1 is identical to absent for every consumer)
    assert set(ManifestStore(lake_dir).watermarks().values()) <= {-1}
    # force override applies for real
    rep2 = cdc.replay(lake_dir, paths, spec, force=True)
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))
    # dry-run counters predicted the real apply exactly
    assert (rep["adds"], rep["updates"], rep["deletes"]) == (
        rep2["adds"], rep2["updates"], rep2["deletes"])


def test_audit_sink_written(ray_session, dirs, tmp_path):
    import json as _json

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    audit = str(tmp_path / "audit")
    rep = cdc.replay(lake_dir, paths, spec, audit_dir=audit, stats=True)
    # stats=True attaches Ray Data's per-stage breakdown for tuning
    assert "MergeWriter" in rep["ray_stats"]
    with open(os.path.join(audit, "replay_transcripts.json")) as f:
        saved = _json.load(f)
    assert saved["adds"] == rep["adds"] and saved["events"] == rep["events"]
    assert len(saved["lineage"]) == rep["partitions_touched"]


def test_replay_local_matches_distributed(ray_session, tmp_path, monkeypatch):
    """Micro-batch fast path: a small live WAL executes driver-side (the same
    AssignPartition → combiner → MergeWriter callables, zero Ray Data
    launches). Forced-local and forced-distributed replays of the same WAL
    must produce byte-identical lakes, identical feed files, identical
    manifests and identical counters."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    events = cg.gen_change_events(3000, 120, seed=43)
    out = {}
    for mode, cap in (("local", str(64 << 20)), ("ray", "0")):
        ld = str(tmp_path / f"lake_{mode}")
        wd = str(tmp_path / f"wal_{mode}")
        fd = str(tmp_path / f"feed_{mode}")
        cdc.init_lake(lake, ld, spec, num_partitions=8)
        paths = cg.write_wal_chunks(events, wd, num_chunks=6)
        monkeypatch.setenv("REPLAY_LOCAL_BYTES", cap)
        rep = cdc.replay(ld, paths, spec, changes_dir=fd, changes_before=True)
        assert rep["exec"] == mode
        out[mode] = (rep, ld, fd)
    rl, ldl, fdl = out["local"]
    rr, ldr, fdr = out["ray"]
    for k in ("adds", "updates", "deletes", "noops", "rows", "lsn_hi"):
        assert rl[k] == rr[k], k
    assert cdc.read_lake_table(ldl).equals(cdc.read_lake_table(ldr))
    # same partition files byte-for-byte (the at-rest state is plan-blind)
    P = cdc.lake_meta(ldl)["num_partitions"]
    from bcdc2bcdc_ray.stages.merge import partition_path

    for pid in range(P):
        pl, pr = partition_path(ldl, pid), partition_path(ldr, pid)
        assert os.path.exists(pl) == os.path.exists(pr)
        if os.path.exists(pl):
            with open(pl, "rb") as a, open(pr, "rb") as b:
                assert a.read() == b.read(), f"partition {pid} bytes differ"
    # change-feed files: same names, same bytes (downstream exactly-once
    # leans on deterministic feed content)
    assert sorted(os.listdir(fdl)) == sorted(os.listdir(fdr))
    for fn in sorted(os.listdir(fdl)):
        with open(os.path.join(fdl, fn), "rb") as a, open(
            os.path.join(fdr, fn), "rb"
        ) as b:
            assert a.read() == b.read(), f"feed {fn} bytes differ"
    assert ManifestStore(ldl).watermarks() == ManifestStore(ldr).watermarks()


def test_replay_local_probes(ray_session, dirs, monkeypatch):
    """The local executor honors the full replay contract: resume from a
    partial apply, exactly-once rerun, oracle equality, dry-run, and the
    global-watermark prune on rerun."""
    from bcdc2bcdc_ray.pipelines import cdc

    monkeypatch.setenv("REPLAY_LOCAL_BYTES", str(64 << 20))
    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    dry = cdc.replay(lake_dir, paths, spec, dry_run=True)
    assert dry["exec"] == "local" and dry["adds"] > 0
    assert set(ManifestStore(lake_dir).watermarks().values()) <= {-1}
    r1 = cdc.replay(lake_dir, paths[:3], spec)
    assert r1["exec"] == "local"
    r2 = cdc.replay(lake_dir, paths, spec)
    assert r2["exec"] == "local"
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))
    r3 = cdc.replay(lake_dir, paths, spec)
    assert r3["exec"] == "pruned"  # global watermark prunes the whole rerun
    assert r3["adds"] == r3["updates"] == r3["deletes"] == 0


def test_replay_local_touch_bytes_fallback(ray_session, dirs, monkeypatch):
    """The local gate's second rule: merge cost tracks TOUCHED partition
    bytes (copy-on-write per file), not WAL bytes — a tiny WAL over big
    partitions must fall back to the distributed writer pool, same final
    state."""
    from bcdc2bcdc_ray.pipelines import cdc

    monkeypatch.setenv("REPLAY_LOCAL_BYTES", str(64 << 20))
    monkeypatch.setenv("REPLAY_LOCAL_TOUCH_BYTES", "1024")  # any real file
    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    rep = cdc.replay(lake_dir, paths, spec)
    assert rep["exec"] == "ray"
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))


def test_replay_local_schema_evolution(ray_session, dirs, monkeypatch):
    """Evolved chunks (new column, widened turn_idx) through the local
    executor: per-file schemas unify before the merge, matching the
    distributed read's behavior."""
    from bcdc2bcdc_ray.pipelines import cdc

    monkeypatch.setenv("REPLAY_LOCAL_BYTES", str(64 << 20))
    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    rep = cdc.replay(lake_dir, paths, spec)
    assert rep["exec"] == "local"
    ev2 = cg.gen_change_events(
        800, 120, seed=47, lsn_start=100_000, evolved=True
    )
    paths2 = cg.write_wal_chunks(ev2, wal_dir + "_evolved", num_chunks=3)
    rep2 = cdc.replay(lake_dir, paths2, spec)
    assert rep2["exec"] == "local"
    final = cdc.read_lake_table(lake_dir)
    assert final.schema.field("turn_idx").type == pa.int64()
    assert "lang" in final.column_names
    evolved_schema = evolve.unify(
        lake.schema, pa.schema([("turn_idx", pa.int64()), ("lang", pa.string())])
    )
    lake_e = evolve.conform(lake, evolved_schema)
    all_ev = pa.concat_tables(evolve.unify_tables([events, ev2]))
    assert final.equals(cg.oracle_replay(lake_e, all_ev))


def test_iter_lake_batches_matches_read_lake(ray_session, dirs, monkeypatch):
    """iter_lake_batches = read_lake().iter_batches() with a local
    short-circuit for tiny pruned reads; both sides of the
    ``plan.SCAN_LOCAL_BYTES`` cap must yield the same rows for plain, key-pruned and predicate scans."""
    import pyarrow as pa

    from bcdc2bcdc_ray import plan
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths, spec)
    keys = sorted(set(lake.column("conv_id").to_pylist()))[:7]
    pred = [("turn_idx", "<", 5)]

    def collect(cap):
        monkeypatch.setattr(plan, "SCAN_LOCAL_BYTES", cap)
        out = {}
        for name, kw in (
            ("plain", {}),
            ("keys", {"keys": keys, "columns": ["turn_idx", "text"]}),
            ("pred", {"predicate": pred, "columns": ["conv_id", "role"]}),
        ):
            tabs = list(cdc.iter_lake_batches(lake_dir, **kw))
            t = pa.concat_tables(tabs) if tabs else None
            out[name] = (
                t.sort_by([(c, "ascending") for c in t.column_names])
                if t is not None
                else None
            )
        return out

    local = collect(1 << 30)
    dist = collect(0)
    for name in local:
        assert local[name].equals(dist[name]), name
    # and both agree with read_lake itself
    monkeypatch.setattr(plan, "SCAN_LOCAL_BYTES", 0)
    rl = (
        pa.concat_tables(
            list(
                cdc.read_lake(lake_dir, columns=["turn_idx", "text"], keys=keys)
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
    )
    assert rl.sort_by(
        [(c, "ascending") for c in rl.column_names]
    ).equals(local["keys"])


def test_sync_from_full_state(ray_session, dirs, tmp_path):
    """The reference's end-to-end job as one call (runBCDC2BCDC.py:40-201):
    make the lake equal an arbitrary full-state source — stage, diff,
    exactly-once apply. Deletes (conversations absent from the source),
    updates (changed text) and adds all flow; a re-sync is a no-op with
    every partition fingerprint-skipped (never read)."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths, spec)  # move the lake off its seed state

    # desired state: fewer conversations (deletes), regenerated content
    # (updates), same schema
    target = cg.gen_transcripts(100, seed=99)
    feed = str(tmp_path / "feed")
    stage = str(tmp_path / "stage")
    rep = cdc.sync_from(lake_dir, target, spec, changes_dir=feed, stage_dir=stage)
    assert rep["diff"]["events"] > 0
    assert rep["deletes"] > 0 and (rep["adds"] + rep["updates"]) > 0
    # convergence is exact up to FALSY canonicalization (M6 both-falsy-equal:
    # "" and null are one record state — a falsy source value never disturbs
    # a stored null, and vice versa), so the oracle compares through
    # canonicalize() on both sides
    from bcdc2bcdc_ray.canonical import canonicalize

    got = canonicalize(cdc.read_lake_table(lake_dir), spec.falsy_null_columns)
    want = canonicalize(target, spec.falsy_null_columns).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert got.equals(want)
    # the sync's deltas propagated into the change feed
    assert cdc.read_changes(feed).num_rows == (
        rep["adds"] + rep["updates"] + rep["deletes"]
    )
    # re-sync against the same source: every partition fingerprint-skipped,
    # zero events, state untouched
    rep2 = cdc.sync_from(lake_dir, target, spec)
    assert rep2["diff"]["events"] == 0
    assert rep2["diff"]["partitions_skipped"] == cdc.lake_meta(lake_dir)[
        "num_partitions"
    ]
    assert rep2["adds"] == rep2["updates"] == rep2["deletes"] == 0
    assert canonicalize(
        cdc.read_lake_table(lake_dir), spec.falsy_null_columns
    ).equals(want)
    # stage dirs cleaned up
    assert not os.path.exists(stage) and not os.path.exists(stage + "_wal")


def test_add_conflict_retry_rename():
    """ADD-conflict policy (reference CKANUpdate.py:153-189 username
    retry-rename): an ADD colliding on the alt-unique column gets the
    smallest free numeric suffix; a custom hook overrides."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.spec import TableSpec
    from bcdc2bcdc_ray.stages import delta

    schema = pa.schema(
        [("uid", pa.int64()), ("name", pa.string()), ("v", pa.int64())]
    )
    spec = TableSpec(
        name="users", schema=schema, key=("uid",),
        add_conflict_column="name",
    )
    current = pa.table(
        {"uid": pa.array([1, 2], pa.int64()),
         "name": pa.array(["alice", "bob"], pa.string()),
         "v": pa.array([0, 0], pa.int64())})
    events = pa.table(
        {"uid": pa.array([3, 4, 5], pa.int64()),
         "name": pa.array(["alice", "carol", "carol"], pa.string()),
         "v": pa.array([1, 1, 1], pa.int64()),
         "lsn": pa.array([10, 11, 12], pa.int64()),
         "op": pa.array(["upsert"] * 3, pa.string())})
    new_state, counts = delta.merge_partition(current, events, spec)
    names = dict(zip(new_state.column("uid").to_pylist(),
                     new_state.column("name").to_pylist()))
    assert names[1] == "alice" and names[3] == "alice-1"  # renamed ADD
    assert {names[4], names[5]} == {"carol", "carol-1"}  # dup within ADDs
    assert counts["adds"] == 3

    spec2 = TableSpec(
        name="users", schema=schema, key=("uid",),
        add_conflict_column="name",
        on_add_conflict=lambda v, taken: f"{v}@alt",
    )
    new2, _ = delta.merge_partition(current, events, spec2)
    names2 = dict(zip(new2.column("uid").to_pylist(), new2.column("name").to_pylist()))
    assert names2[3] == "alice@alt"


def test_mixed_evolution_single_replay(ray_session, dirs):
    """One replay whose WAL mixes non-evolved chunks (which get the wide-
    stage precomputed hash) and evolved chunks (which must NOT — their
    compare set differs): the classify fallback has to keep the final
    state exactly equal to the dict oracle."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec = transcripts_spec()
    lake = cg.gen_transcripts(100, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    plain = cg.gen_change_events(1500, 100, seed=43)
    evolved = cg.gen_change_events(1500, 100, seed=44, lsn_start=10_000, evolved=True)
    paths = cg.write_wal_chunks(plain, wal_dir, num_chunks=3)
    paths += cg.write_wal_chunks(evolved, wal_dir + "_ev", num_chunks=3)
    cdc.replay(lake_dir, paths, spec)
    final = cdc.read_lake_table(lake_dir)
    assert final.schema.field("turn_idx").type == pa.int64()
    assert "lang" in final.schema.names

    # oracle: pad the plain events to the evolved schema, replay the union
    import pyarrow.compute as pc
    plain_ev = plain.append_column(
        "lang", pa.nulls(plain.num_rows, pa.string())
    ).set_column(
        plain.column_names.index("turn_idx"), "turn_idx",
        pc.cast(plain.column("turn_idx"), pa.int64()),
    )
    lake_ev = lake.append_column(
        "lang", pa.nulls(lake.num_rows, pa.string())
    ).set_column(
        lake.column_names.index("turn_idx"), "turn_idx",
        pc.cast(lake.column("turn_idx"), pa.int64()),
    )
    all_ev = pa.concat_tables([plain_ev, evolved]).sort_by("lsn")
    oracle = cg.oracle_replay(lake_ev, all_ev)
    assert final.equals(oracle)


def test_follow_consumes_wal_tail_in_waves(ray_session, dirs):
    """Streaming follow mode: wave 1 is applied, an idle poll stops the
    loop cheaply; a second follow sees only wave 2 (watermark pruning) and
    the final state equals the two-wave oracle."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, _ = _setup(lake_dir, wal_dir, n_events=2000)

    rep1 = cdc.follow(lake_dir, wal_dir, spec, max_rounds=10)
    # `events` counts rows that reached the merge (combiner-collapsed
    # duplicate-LSN rows are excluded with the pruned ones)
    assert 0 < rep1["events"] <= events.num_rows
    assert rep1["rounds"] == 2  # one applying round + one idle poll

    # wave 2 appears later, with a disjoint LSN range
    max_lsn = max(events.column("lsn").to_pylist())
    wave2_paths = cg.gen_wal_chunks(
        1000, 120, wal_dir + "_w2", num_chunks=3, seed=99, lsn_offset=max_lsn
    )
    import pyarrow.parquet as pq

    wave2 = pa.concat_tables([pq.read_table(p) for p in wave2_paths])
    for i, p in enumerate(wave2_paths):  # land the new chunks in the tail dir
        shutil.copy(p, os.path.join(wal_dir, f"wal-9{i:04d}.parquet"))

    rep2 = cdc.follow(lake_dir, wal_dir, spec, max_rounds=10)
    assert 0 < rep2["events"] <= wave2.num_rows  # wave 1 fully pruned
    assert rep2["rounds"] == 2
    final = cdc.read_lake_table(lake_dir)
    oracle = cg.oracle_replay(cg.oracle_replay(lake, events), wave2)
    assert final.equals(oracle)

    # fully-idle follow: no new data → exactly idle_rounds_to_stop polls
    rep3 = cdc.follow(lake_dir, wal_dir, spec, max_rounds=10)
    assert rep3["rounds"] == 1 and rep3["events"] == 0


def test_replay_auto_compact(ray_session, dirs):
    """auto_compact_bytes runs post-commit maintenance inside replay: a
    tiny target splits partitions up after the merge, state stays oracle-
    equal, and a rerun is still exactly-once through the split."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=4)
    rep = cdc.replay(lake_dir, paths, spec, auto_compact_bytes=1 << 10)
    assert rep["partitions_after_compact"] > 4
    assert cdc.lake_meta(lake_dir)["num_partitions"] == rep[
        "partitions_after_compact"
    ]
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))
    rep2 = cdc.replay(lake_dir, paths, spec)
    assert rep2["adds"] + rep2["updates"] + rep2["deletes"] == 0
    # dry_run never compacts
    rep3 = cdc.replay(lake_dir, paths, spec, dry_run=True, auto_compact_bytes=1 << 10)
    assert "partitions_after_compact" not in rep3


def test_exactly_once_survives_writer_crash(ray_session, dirs):
    """Fault injection at the nastiest point — writer dies AFTER the
    partition file rename but BEFORE the manifest commit. Ray restarts the
    actor and retries the group; the re-merge classifies already-applied
    events as NOOPs by content hash, so the final table still equals the
    oracle and a later rerun is exactly-once."""
    import os as _os

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=8)
    with open(_os.path.join(lake_dir, "_fault_once"), "w") as f:
        f.write("0")
    try:
        cdc.replay(lake_dir, paths, spec)
    finally:
        _os.remove(_os.path.join(lake_dir, "_fault_once"))
    # the crash really happened (marker left by the injection hook)
    assert _os.path.exists(_os.path.join(lake_dir, "_crashed-0"))
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))
    rep = cdc.replay(lake_dir, paths, spec)
    assert rep["adds"] + rep["updates"] + rep["deletes"] == 0


def test_export_resume_skips_finished(ray_session, tmp_path):
    """Resumable partitioned export: every partition lands atomically with
    a .done marker; a rerun skips finished partitions and rewrites only
    missing ones; the reassembled table equals the input."""
    import ray.data as rd

    from bcdc2bcdc_ray.stages import export

    t = pa.table(
        {
            "lang": ["en", "de", "en", "fr", "de", "en"],
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        }
    )
    out = str(tmp_path / "exp")
    rep = export.write_partitioned(rd.from_arrow(t).repartition(3), out, by="lang")
    assert rep == {"written": 3, "skipped": 0}
    back = export.read_partitioned(out).sort_by("doc_id")
    assert back.equals(t.sort_by("doc_id").select(back.column_names))

    # crash simulation: one partition's file+marker vanish
    os.remove(export.partition_file(out, "de"))
    os.remove(export.partition_file(out, "de") + ".done")
    mtime_en = os.path.getmtime(export.partition_file(out, "en"))
    rep2 = export.write_partitioned(rd.from_arrow(t).repartition(3), out, by="lang")
    assert rep2 == {"written": 1, "skipped": 2}
    assert os.path.getmtime(export.partition_file(out, "en")) == mtime_en
    assert export.read_partitioned(out).sort_by("doc_id").equals(
        t.sort_by("doc_id").select(back.column_names)
    )
    # resume=False rewrites everything
    rep3 = export.write_partitioned(
        rd.from_arrow(t).repartition(3), out, by="lang", resume=False
    )
    assert rep3 == {"written": 3, "skipped": 0}


def test_export_distinct_values_never_collide(ray_session, tmp_path):
    """'en us' vs 'en_us' (and None vs 'null') sanitize to the same stem;
    the crc suffix keeps their files distinct (review finding)."""
    import ray.data as rd

    from bcdc2bcdc_ray.stages import export

    t = pa.table(
        {
            "g": ["en us", "en_us", None, "null"],
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    out = str(tmp_path / "exp2")
    rep = export.write_partitioned(rd.from_arrow(t).repartition(2), out, by="g")
    assert rep == {"written": 4, "skipped": 0}
    files = {
        export.partition_file(out, v) for v in ["en us", "en_us", None, "null"]
    }
    assert len(files) == 4 and all(os.path.exists(f) for f in files)
    back = export.read_partitioned(out).sort_by("doc_id")
    assert back.column("doc_id").to_pylist() == [1, 2, 3, 4]


def test_change_feed_chains_to_identical_lake(ray_session, dirs, tmp_path):
    """CDC fan-out: replay with changes_dir emits a WAL-shaped feed of only
    what changed (no-ops suppressed); replaying THAT feed into a second
    lake seeded with the same initial table reproduces the first lake
    byte-for-byte — the engine consumes its own change stream."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    changes = str(tmp_path / "changes")
    rep = cdc.replay(lake_dir, paths, spec, changes_dir=changes)

    feed = cdc.read_changes(changes)
    # the feed is MINIMAL: one row per actually-applied add/update/delete
    assert feed.num_rows == rep["adds"] + rep["updates"] + rep["deletes"]
    assert feed.column_names[:2] == ["lsn", "op"]
    ops = set(feed.column("op").to_pylist())
    assert ops <= {"add", "update", "delete"} and "add" in ops

    # chain: feed -> WAL chunks -> replay into an identically-seeded lake B
    lake_b = str(tmp_path / "lake_b")
    cdc.init_lake(lake, lake_b, spec, num_partitions=8)
    feed_paths = cg.write_wal_chunks(feed, str(tmp_path / "feed_wal"), num_chunks=3)
    rep_b = cdc.replay(lake_b, feed_paths, spec)
    assert cdc.read_lake_table(lake_b).equals(cdc.read_lake_table(lake_dir))
    # and B applied exactly the feed's row count (nothing was a no-op twice)
    assert rep_b["adds"] + rep_b["updates"] + rep_b["deletes"] == feed.num_rows

    # exactly-once on the feed itself: re-replaying the same chunks into A
    # emits NO new change files
    n_files = len(os.listdir(changes))
    rep2 = cdc.replay(lake_dir, paths, spec, changes_dir=changes)
    assert rep2["adds"] + rep2["updates"] + rep2["deletes"] == 0
    assert len(os.listdir(changes)) == n_files


def test_change_feed_carries_schema_evolution(ray_session, dirs, tmp_path):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths, spec)
    ev2 = cg.gen_change_events(800, 120, seed=44, lsn_start=1_000_000, evolved=True)
    p2 = cg.write_wal_chunks(ev2, str(tmp_path / "wal2"), num_chunks=2)
    changes = str(tmp_path / "changes")
    cdc.replay(lake_dir, p2, spec, changes_dir=changes)
    feed = cdc.read_changes(changes)
    assert "lang" in feed.column_names  # evolved column rides the feed
    assert feed.schema.field("turn_idx").type == pa.int64()


def test_change_feed_equivalence_across_random_workloads(ray_session, tmp_path):
    """Property-style: for several generator seeds (different op mixes,
    dup rates, delete rates), initial_lake + change_feed must replay to the
    same final state as initial_lake + full WAL."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    for i, (seed_l, seed_e, dfrac) in enumerate(
        [(1, 2, 0.1), (7, 8, 0.4), (21, 22, 0.0)]
    ):
        base = tmp_path / f"w{i}"
        lake = cg.gen_transcripts(60, seed=seed_l)
        events = cg.gen_change_events(
            1500, 60, seed=seed_e, delete_frac=dfrac
        )
        lake_a = str(base / "a")
        cdc.init_lake(lake, lake_a, spec, num_partitions=4)
        paths = cg.write_wal_chunks(events, str(base / "wal"), num_chunks=3)
        changes = str(base / "changes")
        cdc.replay(lake_a, paths, spec, changes_dir=changes)

        lake_b = str(base / "b")
        cdc.init_lake(lake, lake_b, spec, num_partitions=4)
        feed = cdc.read_changes(changes)
        if feed.num_rows:
            fp = cg.write_wal_chunks(feed, str(base / "feed"), num_chunks=2)
            cdc.replay(lake_b, fp, spec)
        assert cdc.read_lake_table(lake_b).equals(cdc.read_lake_table(lake_a))


def test_cdc_relay_follow_chains_through_feed(ray_session, tmp_path):
    """CDC relay: lake A tails the producer WAL and emits its change feed;
    lake B tails A's CHANGES DIRECTORY as its own WAL (the feed is
    WAL-shaped parquet, so `follow` consumes it unmodified). After two
    producer waves both lakes converge to the oracle state."""
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(80, seed=42)
    lake_a, lake_b = str(tmp_path / "a"), str(tmp_path / "b")
    cdc.init_lake(lake, lake_a, spec, num_partitions=4)
    cdc.init_lake(lake, lake_b, spec, num_partitions=4)
    wal_dir = str(tmp_path / "wal")
    changes = str(tmp_path / "changes")

    ev1 = cg.gen_change_events(1200, 80, seed=43)
    cg.write_wal_chunks(ev1, wal_dir, num_chunks=2)
    cdc.follow(lake_a, wal_dir, spec, max_rounds=3, changes_dir=changes)
    cdc.follow(lake_b, changes, spec, max_rounds=3)
    assert cdc.read_lake_table(lake_b).equals(cdc.read_lake_table(lake_a))

    # second wave appends to the SAME wal dir; both followers resume
    # exactly-once from their watermarks
    ev2 = cg.gen_change_events(800, 80, seed=44, lsn_start=500_000)
    cg.write_wal_chunks(ev2, str(tmp_path / "wal2"), num_chunks=2)
    import shutil as _sh

    for f in os.listdir(str(tmp_path / "wal2")):
        _sh.move(os.path.join(str(tmp_path / "wal2"), f),
                 os.path.join(wal_dir, f"wave2-{f}"))
    cdc.follow(lake_a, wal_dir, spec, max_rounds=3, changes_dir=changes)
    cdc.follow(lake_b, changes, spec, max_rounds=3)

    both = pa.concat_tables([ev1, ev2])
    assert cdc.read_lake_table(lake_a).equals(cg.oracle_replay(lake, both))
    assert cdc.read_lake_table(lake_b).equals(cdc.read_lake_table(lake_a))


def test_lake_lock_blocks_concurrent_writers(ray_session, dirs, tmp_path):
    """A live writer's lock makes a second mutating replay fail loudly
    (racing replays would interleave partition rewrites); dry_run stays
    readable beside it; a dead holder's lock is reclaimed."""
    import json as _json

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_events=1500)

    import socket

    host = socket.gethostname()

    # plant a LIVE same-host lock (our own pid is alive by definition)
    lock_path = os.path.join(lake_dir, "_lock.json")
    with open(lock_path, "w") as f:
        _json.dump({"pid": os.getpid(), "host": host, "started_utc": 0}, f)
    with pytest.raises(cdc.LakeLockedError, match="live writer"):
        cdc.replay(lake_dir, paths, spec)
    # a live same-host holder is NEVER stale, no matter how old the lock
    # file is (pid liveness beats the mtime lease — a multi-hour replay
    # must not have its lock reclaimed from under it)
    os.utime(lock_path, (0, 0))
    with pytest.raises(cdc.LakeLockedError, match="live writer"):
        cdc.replay(lake_dir, paths, spec)
    # read-only dry run is allowed beside a live writer
    rep = cdc.replay(lake_dir, paths, spec, dry_run=True)
    assert rep["adds"] > 0

    # cross-host lock inside its lease: pid liveness is unverifiable, so
    # even a dead-looking pid must NOT be reclaimed until the lease expires
    with open(lock_path, "w") as f:
        _json.dump(
            {"pid": 2**22 + 12345, "host": "some-other-node", "started_utc": 0},
            f,
        )
    with pytest.raises(cdc.LakeLockedError, match="live writer"):
        cdc.replay(lake_dir, paths, spec)
    # …but an expired cross-host lease is reclaimed
    os.utime(lock_path, (0, 0))
    rep = cdc.replay(lake_dir, paths, spec)
    assert rep["adds"] > 0
    assert not os.path.exists(lock_path)

    # dead same-host holder: reclaimed immediately (fresh mtime, dead pid).
    # Needs a mutating wave — a fully-skipped rerun returns before locking.
    ev2 = cg.gen_change_events(500, 120, seed=9, lsn_start=10_000_000)
    paths2 = cg.write_wal_chunks(ev2, str(tmp_path / "wal-wave2"), num_chunks=2)
    with open(lock_path, "w") as f:
        _json.dump({"pid": 2**22 + 12345, "host": host, "started_utc": 0}, f)
    rep2 = cdc.replay(lake_dir, paths2, spec)
    assert rep2["adds"] + rep2["updates"] + rep2["deletes"] > 0
    assert not os.path.exists(lock_path)
    assert cdc.read_lake_table(lake_dir).equals(
        cg.oracle_replay(lake, pa.concat_tables([events, ev2]))
    )


def _lock_hammer_worker(lake_dir: str, counter_path: str, q) -> None:
    """Acquire the lake lock (retrying on contention), bump a counter file
    non-atomically inside the critical section. Any mutual-exclusion hole
    (two holders at once) manifests as a lost update."""
    import time

    from bcdc2bcdc_ray.pipelines import cdc

    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            with cdc._LakeLock(lake_dir, stale_after_s=3600):
                with open(counter_path) as f:
                    v = int(f.read())
                time.sleep(0.02)  # widen the lost-update window
                with open(counter_path, "w") as f:
                    f.write(str(v + 1))
            q.put("ok")
            return
        except cdc.LakeLockedError:
            time.sleep(0.005)
    q.put("timeout")


def test_lake_lock_stale_reclaim_single_winner(tmp_path):
    """ADVICE r3 race: plant a STALE lock (dead same-host pid) and hammer it
    with 6 processes that all start by attempting reclaim. The old
    unlink-then-create reclaim let two waiters cascade-unlink each other's
    fresh locks and both acquire; the reclaim mutex + under-mutex re-check +
    token-verified release must keep the critical section exclusive:
    counter ends exactly at N, and no lock file survives."""
    import json as _json
    import multiprocessing as mp
    import socket

    lake_dir = str(tmp_path / "lake")
    os.makedirs(lake_dir)
    lock_path = os.path.join(lake_dir, "_lock.json")
    with open(lock_path, "w") as f:
        _json.dump(
            {"pid": 2**22 + 54321, "host": socket.gethostname(), "started_utc": 0},
            f,
        )
    counter = str(tmp_path / "counter")
    with open(counter, "w") as f:
        f.write("0")

    ctx = mp.get_context("spawn")
    q = ctx.Queue()
    procs = [
        ctx.Process(target=_lock_hammer_worker, args=(lake_dir, counter, q))
        for _ in range(6)
    ]
    for p in procs:
        p.start()
    results = [q.get(timeout=90) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    assert results == ["ok"] * 6
    with open(counter) as f:
        assert int(f.read()) == 6
    assert not os.path.exists(lock_path)
    assert not os.path.exists(lock_path + ".reclaim")


def test_lake_lock_torn_file_not_stale_while_young(tmp_path):
    """Regression for the round-4 hammer flake: O_EXCL-create-then-write left
    a momentarily EMPTY lock file that a contender's staleness probe read as
    unparseable → 'stale' → reclaimed, unlinking a LIVE holder's fresh lock
    (two writers in the critical section, observed as a lost counter update).
    Creation is now atomic-with-payload (link-create) so the torn state can't
    arise from a live writer — and if a torn file DOES exist (crashed legacy
    writer), it must not be judged stale until a grace age passes."""
    import json as _json
    import time

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir = str(tmp_path / "lake")
    os.makedirs(lake_dir)
    lock_path = os.path.join(lake_dir, "_lock.json")
    with open(lock_path, "w") as f:
        pass  # empty = torn mid-write in the old scheme

    probe = cdc._LakeLock(lake_dir)
    # young torn file: NOT stale (a reclaim here is the old double-writer bug)
    assert probe._holder_is_stale() is False
    with pytest.raises(cdc.LakeLockedError):
        probe.__enter__()
    # aged past the grace window: a genuinely dead torn lock is reclaimable
    old = time.time() - (cdc._LakeLock._UNREADABLE_GRACE_S + 1.0)
    os.utime(lock_path, (old, old))
    assert probe._holder_is_stale() is True
    with cdc._LakeLock(lake_dir):
        # acquired by reclaiming the aged torn lock; holder file is complete
        with open(lock_path) as f:
            assert _json.load(f)["pid"] == os.getpid()
    assert not os.path.exists(lock_path)
    # no stray temp siblings leak from the link-create path
    assert [p for p in os.listdir(lake_dir) if p.startswith("_lock")] == []


def test_lake_lock_released_on_failure(ray_session, dirs, tmp_path):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_events=1000)
    # poison one chunk so the replay raises mid-execution
    bad = os.path.join(wal_dir, "chunk-zz-bad.parquet")
    with open(bad, "w") as f:
        f.write("not parquet")
    with pytest.raises(Exception):
        cdc.replay(lake_dir, paths + [bad], spec)
    # the context manager released the lock on the way out
    assert not os.path.exists(os.path.join(lake_dir, "_lock.json"))
    os.remove(bad)
    rep = cdc.replay(lake_dir, paths, spec)  # lake still usable
    assert rep["adds"] > 0


def test_bootstrap_lake_streams_to_same_state_as_init(ray_session, tmp_path):
    """Streaming initial load == driver-side init_lake, byte for byte; a
    rerun is idempotent (watermark-0 resume); replaying real WAL on top
    reaches the oracle state."""
    import pyarrow.parquet as pq

    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(150, seed=42)
    snap = str(tmp_path / "snapshot.parquet")
    pq.write_table(lake, snap)

    ref_dir, boot_dir = str(tmp_path / "ref"), str(tmp_path / "boot")
    cdc.init_lake(lake, ref_dir, spec, num_partitions=8)
    rep = cdc.bootstrap_lake(snap, boot_dir, spec, num_partitions=8)
    assert rep["adds"] == lake.num_rows and rep["deletes"] == 0
    assert cdc.read_lake_table(boot_dir).equals(cdc.read_lake_table(ref_dir))

    # idempotent rerun: everything watermark-filtered, nothing rewritten
    rep2 = cdc.bootstrap_lake(snap, boot_dir, spec, num_partitions=8)
    assert rep2["adds"] + rep2["updates"] + rep2["deletes"] == 0

    # a rerun with a DIFFERENT partition count must adopt the committed
    # meta (not the argument) — misrouted rows would break co-partitioning
    rep3 = cdc.bootstrap_lake(snap, boot_dir, spec, num_partitions=32)
    assert rep3["adds"] + rep3["updates"] + rep3["deletes"] == 0
    assert cdc.lake_meta(boot_dir)["num_partitions"] == 8
    assert cdc.read_lake_table(boot_dir).equals(cdc.read_lake_table(ref_dir))
    # …and a mismatched key is refused loudly
    from bcdc2bcdc_ray.spec import TableSpec

    bad_spec = TableSpec(name=spec.name, schema=spec.schema, key=("turn_idx",))
    with pytest.raises(ValueError, match="committed layout"):
        cdc.bootstrap_lake(snap, boot_dir, bad_spec, num_partitions=8)

    # replay real WAL (lsn >= 1) on top of the bootstrapped lake
    events = cg.gen_change_events(3000, 150, seed=43)
    paths = cg.write_wal_chunks(events, str(tmp_path / "wal"), num_chunks=4)
    cdc.replay(boot_dir, paths, spec)
    assert cdc.read_lake_table(boot_dir).equals(cg.oracle_replay(lake, events))


def test_diff_converges_bootstrapped_snapshot_clone(ray_session, tmp_path):
    """Round-4 soak bug pin: bootstrap a lake (lsn-0 load), snapshot it,
    replay a WAL, hardlink-clone the snapshot as a standalone lake, then
    diff_lakes(clone, live) and replay the diff into the clone. Before the
    fix, bootstrap never committed the lake-level replay watermark, so the
    clone read global=-1, diff assigned base_lsn=0, and each partition's
    FIRST diff event was silently skipped by the exactly-once filter
    (lsn 0 <= partition watermark 0) — one stale row per partition. The
    clone must converge exactly: re-diff emits 0 events."""
    import pyarrow.parquet as pq

    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    work = tmp_path
    t = cg.gen_transcripts(300, seed=42)
    snap = str(work / "snap.parquet")
    pq.write_table(t, snap)
    lake = str(work / "lake")
    cdc.bootstrap_lake(snap, lake, spec, num_partitions=8)
    cdc.snapshot(lake, "pre")
    events = cg.gen_change_events(4000, 300, seed=43)
    paths = cg.write_wal_chunks(events, str(work / "wal"), num_chunks=4)
    cdc.replay(lake, paths, spec)

    clone = str(work / "clone")
    sdir = os.path.join(lake, "_snapshots", "pre")
    os.makedirs(os.path.join(clone, "_manifests"))
    for fn in os.listdir(sdir):
        if fn.endswith(".parquet") or fn == "_meta.json":
            os.link(os.path.join(sdir, fn), os.path.join(clone, fn))
    for fn in os.listdir(os.path.join(sdir, "_manifests")):
        os.link(
            os.path.join(sdir, "_manifests", fn),
            os.path.join(clone, "_manifests", fn),
        )

    d1 = cdc.diff_lakes(clone, lake, str(work / "diff"), spec)
    assert d1["events"] > 0
    files = sorted(
        str(work / "diff" / f)
        for f in os.listdir(work / "diff")
        if f.endswith(".parquet")
    )
    rep = cdc.replay(clone, files, spec)
    assert rep["skipped"] == 0  # the bug manifested as one skip/partition
    assert cdc.read_lake_table(clone).equals(cdc.read_lake_table(lake))
    d2 = cdc.diff_lakes(clone, lake, str(work / "rediff"), spec)
    assert d2["events"] == 0


def test_prune_snapshots_gc_keeps_restores_working(ray_session, dirs, tmp_path):
    """Snapshot retention GC: take three snapshots across replay rounds,
    prune to keep=1 — the survivors' restores must still work byte-exact
    (hardlinked inodes shared with the live lake or other snapshots are
    never freed), stats must report exclusive-vs-shared bytes, and
    bytes_reclaimed counts exactly the inodes whose last reference was
    pruned."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_events=1200)
    cdc.snapshot(lake_dir, "t0")
    cdc.replay(lake_dir, paths[:3], spec)
    cdc.snapshot(lake_dir, "t1")
    state_t1 = cdc.read_lake_table(lake_dir)
    cdc.replay(lake_dir, paths, spec)
    cdc.snapshot(lake_dir, "t2")
    state_t2 = cdc.read_lake_table(lake_dir)

    stats = cdc.snapshot_stats(lake_dir)
    assert [r["tag"] for r in stats] == ["t0", "t1", "t2"]
    # t2 was taken from the CURRENT state: every inode is shared with the
    # live lake → zero exclusive bytes; t0/t1 hold rewritten partitions
    by = {r["tag"]: r for r in stats}
    assert by["t2"]["bytes_exclusive"] == 0
    assert by["t0"]["bytes_total"] > 0

    rep = cdc.prune_snapshots(lake_dir, keep=1)
    assert rep["removed"] == ["t0", "t1"] and rep["kept"] == ["t2"]
    assert rep["bytes_reclaimed"] > 0
    assert cdc.list_snapshots(lake_dir) == ["t2"]

    # the survivor restores byte-exact after the GC
    cdc.restore(lake_dir, "t2")
    assert cdc.read_lake_table(lake_dir).equals(state_t2)

    # pruning by explicit tag + missing-tag error
    cdc.snapshot(lake_dir, "t3")
    rep2 = cdc.prune_snapshots(lake_dir, tags=["t3"])
    assert rep2["removed"] == ["t3"]
    with pytest.raises(FileNotFoundError):
        cdc.prune_snapshots(lake_dir, tags=["nope"])
    assert state_t1.num_rows > 0  # (t1 content verified restorable pre-GC)


def test_lookup_casts_key_to_lake_type(ray_session, tmp_path):
    """lookup() on a non-string-keyed lake (config-declared specs allow
    it): a CLI-style string key is CAST to the lake's key type before
    hashing — the raw string would hash to the wrong partition — and the
    empty-result schema is the lake's own, not a hardcoded transcripts
    one. Uncastable keys fail loudly."""
    import pyarrow as pa

    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.spec import TableSpec

    schema = pa.schema([("uid", pa.int64()), ("v", pa.string())])
    tbl = pa.table(
        {
            "uid": pa.array(range(100), pa.int64()),
            "v": pa.array([f"v{i}" for i in range(100)]),
        }
    )
    spec = TableSpec(name="users", schema=schema, key=("uid",))
    d = str(tmp_path / "ulake")
    cdc.init_lake(tbl, d, spec, num_partitions=8)

    got = cdc.lookup(d, "42")  # CLI always passes strings
    assert got.num_rows == 1 and got.column("v")[0].as_py() == "v42"
    assert got.equals(cdc.lookup(d, 42))
    miss = cdc.lookup(d, 9999)
    assert miss.num_rows == 0 and miss.schema.names == ["uid", "v"]
    with pytest.raises(ValueError, match="castable"):
        cdc.lookup(d, "not-a-number")


def test_read_lake_column_and_key_pruning(ray_session, dirs):
    """read_lake(columns=, keys=): columns prune at the parquet reader;
    keys hash to their partitions with the lake's own partitioner so a
    k-key scan lists at most k files (the multi-key lookup generalization)
    and filters rows exactly."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths, spec)
    full = cdc.read_lake_table(lake_dir)

    ds = cdc.read_lake(lake_dir, columns=["conv_id", "text"])
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert t.column_names == ["conv_id", "text"]
    assert t.num_rows == full.num_rows

    keys = sorted(set(full.column("conv_id").to_pylist()))[:3]
    ds = cdc.read_lake(lake_dir, keys=keys)
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert got.equals(
        full.filter(pc.is_in(full.column("conv_id"), pa.array(keys)))
    )
    assert cdc.read_lake(lake_dir, keys=["conv-zz"]).count() == 0


def test_read_lake_predicate_zone_map_pruning(ray_session, tmp_path):
    """read_lake(predicate=): parquet-footer min/max zone maps skip whole
    partition files (the lake-side analog of the WAL's footer-stats chunk
    pruning). The lake is crafted so each partition's file covers ONE
    distinct day — a one-day ts range must list a strict subset of files
    and still return exactly the row-filtered result; a predicate column
    outside ``columns`` is read for filtering then dropped."""
    import datetime as dt

    import numpy as np
    import pyarrow as pa

    from bcdc2bcdc_ray.canonical import partition_ids as pids_of
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    P = 8
    pid = pids_of(lake.select(["conv_id"]), ["conv_id"], P)
    base = np.datetime64("2026-01-01T00:00:00", "us")
    ts = base + (pid * 86_400_000_000).astype("timedelta64[us]")
    lake = lake.set_column(
        lake.column_names.index("ts"), "ts", pa.array(ts)
    )
    d = str(tmp_path / "lake")
    cdc.init_lake(lake, d, spec, num_partitions=P)

    lo = dt.datetime(2026, 1, 2)
    hi = dt.datetime(2026, 1, 3, 23, 59, 59)
    pred = [("ts", "between", (lo, hi))]
    all_paths = [
        cdc.partition_path(d, p)
        for p in range(P)
        if os.path.exists(cdc.partition_path(d, p))
    ]
    kept = cdc._prune_paths_by_predicate(all_paths, pred)
    assert 0 < len(kept) < len(all_paths)  # strict subset listed

    got = pa.concat_tables(
        list(cdc.read_lake(d, predicate=pred).iter_batches(batch_format="pyarrow"))
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    full = cdc.read_lake_table(d)
    want = full.filter(cdc._predicate_mask(full, pred)).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert got.equals(want) and got.num_rows > 0

    # predicate column outside `columns`: read for the filter, then dropped
    t2 = pa.concat_tables(
        list(
            cdc.read_lake(
                d, columns=["conv_id"], predicate=[("ts", ">=", lo)]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    assert t2.column_names == ["conv_id"]
    assert t2.num_rows == int(
        pa.compute.sum(
            pa.compute.cast(
                cdc._predicate_mask(full, [("ts", ">=", lo)]), pa.int64()
            )
        ).as_py()
    )

    # composite predicate + keys compose; empty result keeps the schema
    none = pa.concat_tables(
        list(
            cdc.read_lake(
                d, predicate=[("ts", ">", dt.datetime(2030, 1, 1))]
            ).iter_batches(batch_format="pyarrow")
        )
    ) if cdc._prune_paths_by_predicate(
        all_paths, [("ts", ">", dt.datetime(2030, 1, 1))]
    ) else None
    assert none is None  # every file pruned — zero data read


def test_snapshot_restore_time_travel(ray_session, dirs):
    """Zero-copy snapshot → mutate → restore → byte-equal state, and a
    re-replay of the same WAL resumes exactly from the snapshot's
    watermarks (data + watermark restore as one consistent point)."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths[:3], spec)
    mid_state = cdc.read_lake_table(lake_dir)
    mid_wm = cdc.lake_stats(lake_dir)["global_watermark"]

    rep = cdc.snapshot(lake_dir, "mid")
    assert rep["files"] > 0
    assert cdc.list_snapshots(lake_dir) == ["mid"]
    with pytest.raises(FileExistsError):
        cdc.snapshot(lake_dir, "mid")

    # mutate past the snapshot
    cdc.replay(lake_dir, paths, spec)
    assert not cdc.read_lake_table(lake_dir).equals(mid_state)

    # time travel back
    cdc.restore(lake_dir, "mid")
    assert cdc.read_lake_table(lake_dir).equals(mid_state)
    assert cdc.lake_stats(lake_dir)["global_watermark"] == mid_wm

    # resume: re-replaying the FULL WAL applies only the tail past the
    # snapshot and lands on the oracle
    cdc.replay(lake_dir, paths, spec)
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))

    with pytest.raises(FileNotFoundError):
        cdc.restore(lake_dir, "nope")
    with pytest.raises(ValueError):
        cdc.snapshot(lake_dir, "../evil")


def test_read_snapshot_time_travel_without_restore(ray_session, dirs):
    """A snapshot directory IS a complete read-only lake: read_snapshot
    streams the historical state (with all read_lake pruning knobs) while
    the LIVE lake keeps moving — no restore, no data copied."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir)
    cdc.replay(lake_dir, paths[:3], spec)
    mid_state = cdc.read_lake_table(lake_dir).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    cdc.snapshot(lake_dir, "mid")
    cdc.replay(lake_dir, paths, spec)  # live lake moves past the snapshot
    live = cdc.read_lake_table(lake_dir)
    assert not live.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    ).equals(mid_state)

    # full historical read equals the pre-mutation state
    got = pa.concat_tables(
        [
            b
            for b in cdc.read_snapshot(lake_dir, "mid").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
            if b.num_rows
        ]
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.equals(mid_state)

    # pruned historical point read: keys= touches only that conv's file
    conv = mid_state.column("conv_id")[0].as_py()
    want = mid_state.filter(pc.equal(mid_state.column("conv_id"), conv))
    got = pa.concat_tables(
        [
            b
            for b in cdc.read_snapshot(
                lake_dir, "mid", keys=[conv]
            ).iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.equals(want)

    # lookup and lake_stats accept the snapshot path directly
    lk = cdc.lookup(cdc.snapshot_path(lake_dir, "mid"), conv)
    assert lk.num_rows == want.num_rows
    assert cdc.lake_stats(cdc.snapshot_path(lake_dir, "mid"))["rows"] == (
        mid_state.num_rows
    )
    with pytest.raises(FileNotFoundError):
        cdc.read_snapshot(lake_dir, "nope")


def test_feed_cursor_exactly_once_consumption(ray_session, dirs, tmp_path):
    """Generic consumer cursor: fresh_files drains once, commit is
    durable+atomic, an uncommitted consumer re-reads (at-least-once), and
    two named consumers track independently."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_events=1500)
    changes = str(tmp_path / "ch")
    cdc.replay(lake_dir, paths[:3], spec, changes_dir=changes)

    a = cdc.FeedCursor(changes, "a")
    b = cdc.FeedCursor(changes, "b")
    first = a.fresh_files()
    assert first and first == b.fresh_files()
    a.commit(first)
    assert a.fresh_files() == []          # a drained
    assert b.fresh_files() == first       # b untouched (independent)

    # new feed files appear → only those are fresh for a
    cdc.replay(lake_dir, paths, spec, changes_dir=changes)
    second = a.fresh_files()
    assert second and not (set(second) & set(first))
    a.commit(second)
    assert a.fresh_files() == []

    # retention by the min across consumers keeps b's unread files
    consumed_min = {
        k: min(v, b.consumed().get(k, -1)) for k, v in a.consumed().items()
    }
    rep = cdc.prune_changes(changes, consumed_min)
    assert rep["removed"] == 0 and rep["kept"] == len(first) + len(second)

    with pytest.raises(ValueError):
        cdc.FeedCursor(changes, "../x")


def test_diff_lakes_replay_converges_dst_to_src(ray_session, dirs, tmp_path):
    """The reference's core loop at lake scale: diff two co-partitioned
    lakes and replay the emitted WAL — replay(dst, diff(dst, src)) == src,
    a second diff is empty (no-op suppression by content hash), and the
    rerun is exactly-once."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_events=2500)
    # src: the oracle-final lake; dst: a DIVERGED lake (replayed only part
    # of the WAL, so it is missing adds/updates and retains doomed rows)
    src_dir = str(tmp_path / "src")
    cdc.init_lake(cg.oracle_replay(lake, events), src_dir, spec, num_partitions=8)
    cdc.replay(lake_dir, paths[:2], spec)
    assert not cdc.read_lake_table(lake_dir).equals(cdc.read_lake_table(src_dir))

    out = str(tmp_path / "diff")
    rep = cdc.diff_lakes(lake_dir, src_dir, out, spec)
    assert rep["events"] > 0 and rep["chunks"] > 0
    chunks = sorted(
        os.path.join(out, f) for f in os.listdir(out) if f.endswith(".parquet")
    )
    cdc.replay(lake_dir, chunks, spec)
    assert cdc.read_lake_table(lake_dir).equals(cdc.read_lake_table(src_dir))

    # converged: a fresh diff emits nothing
    out2 = str(tmp_path / "diff2")
    assert cdc.diff_lakes(lake_dir, src_dir, out2, spec)["events"] == 0
    # and replaying the same diff chunks again is exactly-once
    rep2 = cdc.replay(lake_dir, chunks, spec)
    assert rep2["adds"] + rep2["updates"] + rep2["deletes"] == 0

    # mismatched layouts fail loudly
    other = str(tmp_path / "other")
    cdc.init_lake(lake, other, spec, num_partitions=4)
    with pytest.raises(ValueError, match="co-partitioned"):
        cdc.diff_lakes(lake_dir, other, str(tmp_path / "x"), spec)


def test_fsck_clean_lake_and_detects_corruption(ray_session, dirs):
    """fsck passes a healthy replayed lake and flags a corrupted stored
    hash (the phantom-update class the null-context hash bug produced)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from bcdc2bcdc_ray.canonical import HASH_COL
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_events=2000)
    cdc.replay(lake_dir, paths, spec)
    rep = cdc.fsck(lake_dir, spec)
    assert rep["clean"] is True and rep["rows"] > 0
    # distributed audit returns the identical report
    assert cdc.fsck(lake_dir, spec, parallel=True) == rep

    # corrupt one stored hash in place
    p = os.path.join(lake_dir, "part-00000.parquet")
    t = pq.read_table(p)
    meta = t.schema.metadata
    h = t.column(HASH_COL).to_pylist()
    h[0] = (h[0] + 1) % (1 << 64)
    t = t.set_column(
        t.column_names.index(HASH_COL), HASH_COL, pa.array(h, pa.uint64())
    )
    pq.write_table(t.replace_schema_metadata(meta), p)
    rep = cdc.fsck(lake_dir, spec)
    assert rep["clean"] is False and rep["bad_hash"] == 1


def test_delete_where_matches_filter_and_prunes(ray_session, tmp_path):
    """cdc.delete_where: final state = lake minus predicate-matching rows;
    zone-map pruning leaves non-matching partitions' files untouched (same
    inode — zero data read AND zero rewrite); a rerun matches nothing."""
    import datetime as dt

    import numpy as np

    from bcdc2bcdc_ray.canonical import partition_ids as pids_of
    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    P = 8
    # one distinct day per partition so the ts zone maps separate cleanly
    pid = pids_of(lake.select(["conv_id"]), ["conv_id"], P)
    base = np.datetime64("2026-01-01T00:00:00", "us")
    ts = base + (pid * 86_400_000_000).astype("timedelta64[us]")
    lake = lake.set_column(lake.column_names.index("ts"), "ts", pa.array(ts))
    d = str(tmp_path / "lake")
    cdc.init_lake(lake, d, spec, num_partitions=P)
    inodes_before = {
        p: os.stat(cdc.partition_path(d, p)).st_ino
        for p in range(P)
        if os.path.exists(cdc.partition_path(d, p))
    }

    cutoff = dt.datetime(2026, 1, 3)
    rep = cdc.delete_where(d, [("ts", "<", cutoff)], spec)
    import pyarrow.compute as pc

    want_deleted = int(
        pc.sum(
            pc.cast(cdc._predicate_mask(lake, [("ts", "<", cutoff)]), pa.int64())
        ).as_py()
    )
    assert rep["matched"] == want_deleted > 0
    assert rep["replay"]["deletes"] == want_deleted
    final = cdc.read_lake_table(d)
    keep_mask = pc.invert(cdc._predicate_mask(lake, [("ts", "<", cutoff)]))
    want = lake.filter(keep_mask).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert final.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    ).equals(want)
    # partitions whose zone map excluded the predicate were never rewritten
    untouched = [
        p for p in inodes_before
        if os.stat(cdc.partition_path(d, p)).st_ino == inodes_before[p]
    ]
    assert len(untouched) > 0
    # rerun: matched rows are gone — nothing emitted, nothing replayed
    rep2 = cdc.delete_where(d, [("ts", "<", cutoff)], spec)
    assert rep2["matched"] == 0 and "replay" not in rep2
    assert cdc.fsck(d, spec)["clean"] is True


def test_delete_where_feed_chains_and_dry_run(ray_session, tmp_path):
    """delete_where(changes_dir=) propagates the deletions through the
    outbound feed — a chained lake replaying the feed reaches the identical
    state; apply=False emits the WAL without mutating."""
    import datetime as dt

    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(100, seed=42)
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    cdc.init_lake(lake, d1, spec, num_partitions=8)
    cdc.init_lake(lake, d2, spec, num_partitions=8)
    cutoff = dt.datetime(2026, 1, 4)

    # dry-run first: WAL emitted, lake untouched
    out = str(tmp_path / "plan")
    rep0 = cdc.delete_where(
        d1, [("ts", "<", cutoff)], spec, out_dir=out, apply=False
    )
    assert rep0["matched"] > 0 and rep0["chunks"] > 0
    assert cdc.read_lake_table(d1).num_rows == lake.num_rows

    feed = str(tmp_path / "feed")
    rep = cdc.delete_where(d1, [("ts", "<", cutoff)], spec, changes_dir=feed)
    assert rep["matched"] == rep0["matched"]
    chunks = sorted(
        os.path.join(feed, f) for f in os.listdir(feed) if f.endswith(".parquet")
    )
    cdc.replay(d2, chunks, spec)
    assert cdc.read_lake_table(d2).equals(cdc.read_lake_table(d1))


def test_update_where_sets_values_rerun_noop(ray_session, tmp_path):
    """cdc.update_where: matched rows get the constant overwrite, everything
    else is untouched; a rerun classifies every emitted upsert NOOP by
    content hash (zero updates); key columns and unknown columns refused."""
    import pyarrow.compute as pc
    import pytest as _pytest

    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(100, seed=42)
    d = str(tmp_path / "lake")
    cdc.init_lake(lake, d, spec, num_partitions=8)

    pred = [("role", "==", "tool")]
    rep = cdc.update_where(d, pred, {"tool": "quarantined"}, spec)
    n_match = int(
        pc.sum(pc.cast(cdc._predicate_mask(lake, pred), pa.int64())).as_py()
    )
    assert rep["matched"] == n_match > 0
    assert rep["replay"]["updates"] == n_match
    final = cdc.read_lake_table(d).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    srt = lake.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    m = cdc._predicate_mask(srt, pred)
    want = srt.set_column(
        srt.column_names.index("tool"),
        "tool",
        pc.if_else(m.combine_chunks(), pa.scalar("quarantined"), srt.column("tool").combine_chunks()),
    )
    assert final.equals(want)
    # rerun: every emitted upsert already matches the stored row → NOOP
    rep2 = cdc.update_where(d, pred, {"tool": "quarantined"}, spec)
    assert rep2["matched"] == n_match
    assert rep2["replay"]["updates"] == 0 and rep2["replay"]["adds"] == 0
    assert rep2["replay"]["noops"] == n_match
    assert cdc.fsck(d, spec)["clean"] is True

    with _pytest.raises(ValueError, match="key column"):
        cdc.update_where(d, pred, {"conv_id": "x"}, spec)
    with _pytest.raises(ValueError, match="not in table schema"):
        cdc.update_where(d, pred, {"nope": 1}, spec)
    with _pytest.raises(ValueError, match="at least one"):
        cdc.delete_where(d, [], spec)


def test_secondary_index_lifecycle(ray_session, tmp_path):
    """cdc.create_index / cdc.lookup_by: the index (a count view grouped by
    [col, *key], partitioned by hash(col)) is maintained incrementally from
    the pre-image feed — after replay+refresh a value probe reads ONE index
    file plus only the matching lake partitions and returns exactly the
    lake rows holding that value; the index equals a recompute; a rerun
    refresh is a no-op; deletes drop index entries to zero (removed)."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc, view as view_mod

    lake_dir = str(tmp_path / "lake")
    idx_dir = str(tmp_path / "idx")
    feed = str(tmp_path / "feed")
    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    cdc.create_index(idx_dir, lake_dir, "tool")

    # index == recompute of the initial lake
    def recompute():
        t = cdc.read_lake_table(lake_dir)
        return (
            t.filter(pc.is_valid(t.column("tool")))
            .group_by(["tool", "conv_id", "turn_idx"])
            .aggregate([([], "count_all")])
            .rename_columns(["tool", "conv_id", "turn_idx", "n_rows"])
            .sort_by([("tool", "ascending"), ("conv_id", "ascending"),
                      ("turn_idx", "ascending")])
            .select(["tool", "conv_id", "turn_idx", "n_rows"])
        )

    def index_state():
        t = view_mod.read_view(idx_dir)
        # null group (rows without a tool) is legal view state; the
        # recompute comparison covers non-null values
        return t.filter(pc.is_valid(t.column("tool"))).cast(recompute().schema)

    assert index_state().equals(recompute())

    # replay with pre-image feed → refresh → still equals recompute
    ev = cg.gen_change_events(4000, 120, seed=43)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "wal"), num_chunks=5)
    cdc.replay(lake_dir, paths, spec, changes_dir=feed, changes_before=True)
    rep = view_mod.refresh_view(idx_dir, feed)
    assert rep["files"] > 0
    assert index_state().equals(recompute())
    # exactly-once refresh
    rep2 = view_mod.refresh_view(idx_dir, feed)
    assert rep2["files"] == 0

    # point probe: one index file, exact lake rows back
    final = cdc.read_lake_table(lake_dir)
    tools = pc.unique(final.filter(pc.is_valid(final.column("tool"))).column("tool"))
    probe = tools[0].as_py()
    got = cdc.lookup_by(lake_dir, idx_dir, probe)
    want = final.filter(
        pc.equal(final.column("tool"), probe)
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    ).equals(want) and got.num_rows > 0

    # a value absent from the lake → empty with the lake schema
    none = cdc.lookup_by(lake_dir, idx_dir, "no_such_tool")
    assert none.num_rows == 0 and none.schema.names == list(final.schema.names)

    # indexing a key column is refused; wrong-shape view refused
    with pytest.raises(ValueError, match="partition key"):
        cdc.create_index(str(tmp_path / "bad"), lake_dir, "conv_id")
    v2 = str(tmp_path / "v2")
    view_mod.create_view(v2, lake_dir, ["tool"], [])
    with pytest.raises(ValueError, match="not a"):
        cdc.lookup_by(lake_dir, v2, probe)

    # delete every row holding the probed value → index entry vanishes
    cdc.delete_where(
        lake_dir, [("tool", "==", probe)], spec,
        changes_dir=feed, changes_before=True,
    )
    view_mod.refresh_view(idx_dir, feed)
    assert view_mod.lookup(idx_dir, probe).num_rows == 0
    assert cdc.lookup_by(lake_dir, idx_dir, probe).num_rows == 0
    assert index_state().equals(recompute())


def test_index_accelerated_delete_where(ray_session, tmp_path):
    """delete_where(index_dir=): an equality predicate on an indexed column
    resolves matching keys through ONE index file and scans only the
    partitions that hold them — same final state as the full zone-map scan,
    strictly fewer partitions read."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    ev = cg.gen_change_events(3000, 120, seed=43)
    P = 16
    states = {}
    for mode in ("plain", "indexed"):
        d = str(tmp_path / mode)
        cdc.init_lake(lake, f"{d}/lake", spec, num_partitions=P)
        idx = None
        if mode == "indexed":
            idx = f"{d}/idx"
            cdc.create_index(idx, f"{d}/lake", "tool")
        paths = cg.write_wal_chunks(ev, f"{d}/wal", num_chunks=4)
        cdc.replay(
            f"{d}/lake", paths, spec,
            changes_dir=f"{d}/feed", changes_before=True,
        )
        t = cdc.read_lake_table(f"{d}/lake")
        probe = pc.unique(t.filter(pc.is_valid(t.column("tool"))).column("tool"))[
            0
        ].as_py()
        rep = cdc.delete_where(
            f"{d}/lake", [("tool", "==", probe)], spec,
            index_dir=idx, index_changes_dir=f"{d}/feed" if idx else None,
        )
        states[mode] = (rep, cdc.read_lake_table(f"{d}/lake"), probe)
    (rp, tp, pp), (ri, ti, pi) = states["plain"], states["indexed"]
    assert pp == pi and rp["matched"] == ri["matched"] > 0
    assert tp.equals(ti)
    # the indexed path scanned a strict subset of partitions
    assert ri["partitions_scanned"] < P
    assert rp["partitions_scanned"] == P
    # non-equality predicate on the indexed column refuses acceleration
    with pytest.raises(ValueError, match="equality conjunct"):
        cdc.delete_where(
            str(tmp_path / "indexed/lake"), [("turn_idx", "<", 2)], spec,
            index_dir=str(tmp_path / "indexed/idx"),
        )


def test_composite_secondary_index(ray_session, tmp_path):
    """Composite index (create_index(..., ["role", "tool"])): one index
    file still answers a (role, tool) tuple probe — the leading column
    routes, the rest exact-match inside the file — and the index stays
    feed-maintained like any view. Wrong-arity probes fail loudly."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc, view as view_mod

    lake_dir = str(tmp_path / "lake")
    idx_dir = str(tmp_path / "idx")
    feed = str(tmp_path / "feed")
    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    cdc.init_lake(lake, lake_dir, spec, num_partitions=8)
    cdc.create_index(idx_dir, lake_dir, ["role", "tool"])

    ev = cg.gen_change_events(3000, 120, seed=43)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "wal"), num_chunks=4)
    cdc.replay(lake_dir, paths, spec, changes_dir=feed, changes_before=True)
    view_mod.refresh_view(idx_dir, feed)

    final = cdc.read_lake_table(lake_dir)
    both = final.filter(
        pc.and_(pc.is_valid(final.column("role")), pc.is_valid(final.column("tool")))
    )
    role = both.column("role")[0].as_py()
    tool = both.filter(pc.equal(both.column("role"), role)).column("tool")[0].as_py()
    got = cdc.lookup_by(lake_dir, idx_dir, (role, tool))
    want = final.filter(
        pc.and_(
            pc.equal(final.column("role"), role),
            pc.equal(final.column("tool"), tool),
        )
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.num_rows > 0 and got.equals(want)
    # absent combination → empty; wrong arity → loud
    assert cdc.lookup_by(lake_dir, idx_dir, (role, "no_such_tool")).num_rows == 0
    with pytest.raises(ValueError, match="probe with 2"):
        cdc.lookup_by(lake_dir, idx_dir, role)
    # composite of a key column still refused
    with pytest.raises(ValueError, match="partition key"):
        cdc.create_index(str(tmp_path / "bad"), lake_dir, ["role", "turn_idx"])


def test_diff_lakes_skips_unchanged_partitions_by_fingerprint(
    ray_session, tmp_path
):
    """Manifest content fingerprints let diff_lakes skip co-partitions whose
    key→content state is identical WITHOUT reading either file — the
    incremental-sync shape where most partitions are untouched. A localized
    mutation must leave every other partition skipped, the diff output
    unchanged vs a full compare, and fsck must audit the stored fp."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from bcdc2bcdc_ray.pipelines import cdc

    spec = transcripts_spec()
    lake = cg.gen_transcripts(120, seed=42)
    P = 8
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    cdc.init_lake(lake, src, spec, num_partitions=P)
    cdc.init_lake(lake, dst, spec, num_partitions=P)

    # identical lakes: EVERY partition skipped, zero events, zero reads
    rep = cdc.diff_lakes(dst, src, str(tmp_path / "d0"))
    assert rep["events"] == 0 and rep["chunks"] == 0
    assert rep["partitions_skipped"] == P and rep["partitions_compared"] == 0

    # mutate ONE conversation in src (one partition's state changes)
    conv = lake.column("conv_id")[0].as_py()
    cdc.update_where(src, [("conv_id", "==", conv)], {"text": "edited"}, spec)
    rep = cdc.diff_lakes(dst, src, str(tmp_path / "d1"))
    assert rep["partitions_compared"] == 1
    assert rep["partitions_skipped"] == P - 1
    assert rep["events"] > 0

    # replay converges and the re-diff goes back to all-skipped
    chunks = sorted(
        str(f) for f in (tmp_path / "d1").iterdir() if f.name.endswith(".parquet")
    )
    cdc.replay(dst, chunks, spec)
    assert cdc.read_lake_table(dst).equals(cdc.read_lake_table(src))
    rep2 = cdc.diff_lakes(dst, src, str(tmp_path / "d2"))
    assert rep2["events"] == 0 and rep2["partitions_compared"] == 0
    assert rep2["partitions_skipped"] == P

    # fsck audits the stored fingerprint: flip one row's STORED hash in
    # place (file no longer matches the manifest's committed fp) →
    # bad_hash (stored vs recompute) AND bad_fp (file vs manifest) flagged
    from bcdc2bcdc_ray.canonical import HASH_COL

    pid_file = next(
        cdc.partition_path(src, p) for p in range(P)
        if os.path.exists(cdc.partition_path(src, p))
    )
    t = pq.read_table(pid_file)
    meta_md = t.schema.metadata
    h = t.column(HASH_COL).to_pylist()
    h[0] = (h[0] + 1) % (1 << 64)
    t = t.set_column(
        t.column_names.index(HASH_COL), HASH_COL, pa.array(h, pa.uint64())
    )
    pq.write_table(t.replace_schema_metadata(meta_md), pid_file)
    rep = cdc.fsck(src, spec)
    assert rep["clean"] is False and rep["bad_hash"] >= 1 and rep["bad_fp"] == 1

    # maintenance preserves fingerprint correctness: split then merge on the
    # clean DST lake keeps fsck clean and the self-diff fully skipped
    cdc.split_partitions(dst)
    assert cdc.fsck(dst, spec)["clean"] is True
    cdc.merge_partitions(dst)
    assert cdc.fsck(dst, spec)["clean"] is True
    rep3 = cdc.diff_lakes(
        dst, dst, str(tmp_path / "d3")
    )
    assert rep3["events"] == 0 and rep3["partitions_skipped"] == P


# --- maintenance crash windows (staged-commit marker protocol) ----------------

def test_split_interrupted_commit_refuses_then_resumes(
    ray_session, dirs, monkeypatch
):
    """A split that crashed between the layout-marker commit and the staged
    renames leaves a lake whose reads would misroute: every op must refuse
    loudly, and a rerun of split_partitions must resume the rename phase
    and land on the identical table."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=4)
    cdc.replay(lake_dir, paths, spec)
    before = cdc.read_lake_table(lake_dir)

    # crash injection: staging + marker land, the commit phase never runs
    monkeypatch.setattr(cdc, "_split_commit", lambda *a, **k: None)
    cdc.split_partitions(lake_dir)
    monkeypatch.undo()

    with pytest.raises(RuntimeError, match="interrupted split"):
        cdc.lake_meta(lake_dir)
    with pytest.raises(RuntimeError, match="interrupted split"):
        cdc.replay(lake_dir, paths, spec)
    with pytest.raises(RuntimeError, match="interrupted split"):
        cdc.read_lake_table(lake_dir)

    cdc.split_partitions(lake_dir)  # resume
    assert cdc.lake_meta(lake_dir)["num_partitions"] == 8
    assert cdc.read_lake_table(lake_dir).equals(before)
    assert cdc.fsck(lake_dir)["clean"]
    rep = cdc.replay(lake_dir, paths, spec)  # exactly-once preserved
    assert rep["adds"] + rep["updates"] + rep["deletes"] == 0


def test_merge_interrupted_commit_refuses_then_resumes(
    ray_session, dirs, monkeypatch
):
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=8)
    cdc.replay(lake_dir, paths, spec)
    before = cdc.read_lake_table(lake_dir)

    monkeypatch.setattr(cdc, "_merge_commit", lambda *a, **k: None)
    cdc.merge_partitions(lake_dir)
    monkeypatch.undo()

    with pytest.raises(RuntimeError, match="interrupted merge"):
        cdc.read_lake_table(lake_dir)
    cdc.merge_partitions(lake_dir)  # resume
    assert cdc.lake_meta(lake_dir)["num_partitions"] == 4
    assert cdc.read_lake_table(lake_dir).equals(before)
    assert cdc.fsck(lake_dir)["clean"]


def test_split_crash_before_marker_leaves_lake_usable(ray_session, dirs):
    """A split that crashed DURING staging (no marker yet) leaves stray
    child manifests at pid >= P; replay must ignore them (they are not
    part of the committed layout), and a rerun of split converges."""
    import json as _json

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=4)
    cdc.replay(lake_dir, paths[:3], spec)

    # simulate the staging phase's stray artifacts: a child manifest at
    # pid+P and an orphan .split file
    mdir = os.path.join(lake_dir, "_manifests")
    src = os.path.join(mdir, "part-00001.json")
    m = _json.load(open(src))
    m["partition"] = 5
    with open(os.path.join(mdir, "part-00005.json"), "w") as f:
        _json.dump(m, f)
    open(
        cdc.partition_path(lake_dir, 5) + ".split", "wb"
    ).write(open(cdc.partition_path(lake_dir, 1), "rb").read())

    # replay under the OLD layout must neither crash nor misroute
    cdc.replay(lake_dir, paths, spec)
    # rerun of the split converges over the strays
    cdc.split_partitions(lake_dir)
    assert cdc.lake_meta(lake_dir)["num_partitions"] == 8
    assert cdc.read_lake_table(lake_dir).equals(cg.oracle_replay(lake, events))
    assert cdc.fsck(lake_dir)["clean"]


def test_restore_refuses_torn_snapshot(ray_session, dirs):
    """restore() must refuse an INCOMPLETE snapshot (no _meta.json
    completion marker) BEFORE touching the live lake; list/prune treat it
    as garbage; re-snapshotting the same tag redoes it."""
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, P=4)
    cdc.replay(lake_dir, paths, spec)
    before = cdc.read_lake_table(lake_dir)

    # a torn snapshot: directory + one data file, no _meta.json
    sdir = os.path.join(lake_dir, "_snapshots", "torn")
    os.makedirs(os.path.join(sdir, "_manifests"))
    open(os.path.join(sdir, "part-00000.parquet"), "wb").write(
        open(cdc.partition_path(lake_dir, 0), "rb").read()
    )

    with pytest.raises(FileNotFoundError, match="incomplete"):
        cdc.restore(lake_dir, "torn")
    assert cdc.read_lake_table(lake_dir).equals(before)  # nothing destroyed
    assert "torn" not in cdc.list_snapshots(lake_dir)

    # re-snapshot over the torn leftover succeeds and is complete
    cdc.snapshot(lake_dir, "torn")
    assert "torn" in cdc.list_snapshots(lake_dir)
    cdc.restore(lake_dir, "torn")
    assert cdc.read_lake_table(lake_dir).equals(before)

    # prune GCs torn leftovers too
    os.makedirs(os.path.join(lake_dir, "_snapshots", "torn2"))
    rep = cdc.prune_snapshots(lake_dir, keep=1)
    assert "torn2" in rep["removed"]


def test_read_lake_keys_cast_and_projection(ray_session, tmp_path):
    """keys= casts string probes to the lake's key type (the CLI always
    sends strings — a wrong-typed probe hashes to the wrong partitions and
    silently returns empty), and a keys= + columns= scan returns EXACTLY
    the requested columns (the key column added for filtering is
    stripped)."""
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.spec import TableSpec

    schema = pa.schema([("k", pa.int64()), ("v", pa.string())])
    spec = TableSpec(name="intkeyed", schema=schema, key=("k",), compare_columns=None)
    t = pa.table({"k": pa.array(range(100), pa.int64()),
                  "v": pa.array([f"v{i}" for i in range(100)])})
    lake = str(tmp_path / "ik")
    cdc.init_lake(t, lake, spec, num_partitions=4)

    got = pa.concat_tables(list(cdc.iter_lake_batches(lake, keys=["7", "42"])))
    assert sorted(got.column("k").to_pylist()) == [7, 42]

    only_v = pa.concat_tables(
        list(cdc.iter_lake_batches(lake, columns=["v"], keys=[7]))
    )
    assert only_v.column_names == ["v"] and only_v.to_pylist() == [{"v": "v7"}]

    with pytest.raises(ValueError, match="not castable"):
        list(cdc.iter_lake_batches(lake, keys=["not-an-int"]))


def test_scan_and_mutate_with_evolved_column(ray_session, dirs):
    """Schema evolution leaves OLDER partition files without later-added
    columns; scans and bulk mutations naming such a column must treat it
    as null there, not crash the parquet projection."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_convs=40, P=8)
    # evolved events confined to ONE conversation → exactly one partition
    # gains the `lang` column (mixed presence across files)
    ev = cg.gen_change_events(200, 40, seed=91, evolved=True)
    ev = ev.filter(pc.equal(ev.column("conv_id"), ev.column("conv_id")[0]))
    ev = ev.filter(pc.equal(ev.column("op"), "upsert")).slice(0, 10)
    ev = ev.set_column(
        ev.column_names.index("lang"), "lang",
        pa.array(["en"] * ev.num_rows, pa.string()),
    )
    epaths = cg.write_wal_chunks(ev, os.path.join(wal_dir, "evo"), num_chunks=1)
    cdc.replay(lake_dir, epaths, spec)
    import pyarrow.parquet as pq_

    present = [
        "lang" in pq_.read_schema(cdc.partition_path(lake_dir, p)).names
        for p in range(8)
        if os.path.exists(cdc.partition_path(lake_dir, p))
    ]
    assert any(present) and not all(present), "need mixed presence"

    # streaming scan projecting the evolved column pads nulls on old files
    got = pa.concat_tables(
        list(cdc.iter_lake_batches(lake_dir, columns=["conv_id", "lang"]))
    )
    assert got.num_rows == cdc.read_lake_table(lake_dir).num_rows
    assert got.column("lang").null_count > 0

    # predicate on the evolved column: old partitions simply never match
    want = cdc.read_lake_table(lake_dir)
    want_n = pc.sum(
        pc.cast(pc.equal(want.column("lang"), "en"), pa.int64())
    ).as_py() or 0
    matched = pa.concat_tables(
        list(cdc.iter_lake_batches(lake_dir, predicate=[("lang", "==", "en")]))
    )
    assert matched.num_rows == want_n

    # bulk delete by the evolved column works end to end
    rep = cdc.delete_where(lake_dir, [("lang", "==", "en")], spec)
    assert rep["matched"] == want_n
    after = cdc.read_lake_table(lake_dir)
    if "lang" in after.column_names:
        assert pc.sum(
            pc.cast(pc.equal(after.column("lang"), "en"), pa.int64())
        ).as_py() in (0, None)

    with pytest.raises(ValueError, match="not present in any"):
        list(cdc.iter_lake_batches(lake_dir, columns=["no_such_col"]))


def test_emit_where_ignores_stale_chunks(ray_session, dirs, tmp_path):
    """A dry-run (apply=False) whose chunks linger in out_dir must NOT be
    replayed by a later apply=True run with a different predicate."""
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_convs=40, P=4)
    out = str(tmp_path / "walout")

    t = cdc.read_lake_table(lake_dir)
    conv_a = t.column("conv_id")[0].as_py()
    conv_b = next(
        v for v in t.column("conv_id").to_pylist() if v != conv_a
    )
    # inspected-but-never-applied delete of conv_a
    cdc.delete_where(
        lake_dir, [("conv_id", "==", conv_a)], spec, out_dir=out, apply=False
    )
    # applied delete of conv_b reusing the same out_dir
    cdc.delete_where(
        lake_dir, [("conv_id", "==", conv_b)], spec, out_dir=out, apply=True
    )
    after = cdc.read_lake_table(lake_dir)
    assert pc.sum(pc.cast(pc.equal(after.column("conv_id"), conv_b), pa.int64())).as_py() in (0, None)
    # conv_a was NEVER applied — its rows survive
    n_a = pc.sum(pc.cast(pc.equal(after.column("conv_id"), conv_a), pa.int64())).as_py()
    assert n_a and n_a > 0


def test_sync_from_reused_stage_dir_sees_new_source(ray_session, dirs, tmp_path):
    """A kept stage from a previous sync must not shadow the new source:
    by default the stage is rebuilt (resume_stage=True opts into adopting
    a crashed run's stage for the IDENTICAL source)."""
    from bcdc2bcdc_ray.canonical import canonicalize
    from bcdc2bcdc_ray.pipelines import cdc

    lake_dir, wal_dir = dirs
    spec, lake, events, paths = _setup(lake_dir, wal_dir, n_convs=40, P=4)
    stage = str(tmp_path / "stage")

    src1 = cg.oracle_replay(lake, cg.gen_change_events(500, 40, seed=71))
    cdc.sync_from(lake_dir, src1, spec, stage_dir=stage, keep_stage=True)
    src2 = cg.oracle_replay(lake, cg.gen_change_events(900, 40, seed=73))
    rep = cdc.sync_from(lake_dir, src2, spec, stage_dir=stage, keep_stage=True)
    got = canonicalize(cdc.read_lake_table(lake_dir), spec.falsy_null_columns)
    want = canonicalize(
        src2.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]),
        spec.falsy_null_columns,
    )
    assert got.select(want.column_names).equals(want)


def test_manifest_load_is_forward_compatible(tmp_path):
    """A manifest written by a NEWER engine (extra JSON keys) must load —
    the mirror of content_fp's treat-missing-as-unknown backward compat."""
    import json as _json

    from bcdc2bcdc_ray.state.manifest import ManifestStore, PartitionManifest

    store = ManifestStore(str(tmp_path))
    store.commit(PartitionManifest(partition=3, lsn_hi=17, rows=5))
    p = os.path.join(str(tmp_path), "_manifests", "part-00003.json")
    raw = _json.load(open(p))
    raw["future_field"] = {"anything": 1}
    with open(p, "w") as f:
        _json.dump(raw, f)
    m = store.load(3)
    assert m.lsn_hi == 17 and m.rows == 5


def test_fsync_toggle_smoke(tmp_path, monkeypatch):
    """BCDC_FSYNC=1 routes every atomic commit through file+dir fsync —
    byte-identical results, just durable across power loss."""
    from bcdc2bcdc_ray.state.manifest import atomic_write_json, atomic_write_parquet

    monkeypatch.setenv("BCDC_FSYNC", "1")
    p = str(tmp_path / "x.json")
    atomic_write_json(p, {"a": 1})
    import json as _json

    assert _json.load(open(p)) == {"a": 1}
    t = pa.table({"v": [1, 2]})
    pp = str(tmp_path / "x.parquet")
    atomic_write_parquet(t, pp)
    import pyarrow.parquet as pq_

    assert pq_.read_table(pp).equals(t)
