"""Incrementally-maintained denormalized join view (pipelines/denorm.py):
fact ⋈ dim kept fresh from both change feeds, FK index reverse lookups,
exactly-once refresh, dim deletes nulling (never deleting) joined rows."""

from __future__ import annotations

import os

import pytest

import pyarrow as pa
import pyarrow.compute as pc

from bcdc2bcdc_ray import changegen as cg
from bcdc2bcdc_ray.pipelines import cdc, denorm
from bcdc2bcdc_ray.spec import TableSpec, transcripts_spec


def _tool_spec() -> TableSpec:
    return TableSpec(
        name="tools",
        schema=cg.gen_tool_dim().schema,
        key=("tool_id",),
        compare_columns=None,
    )


def _expected_join(fact_dir: str, dim_dir: str) -> pa.Table:
    """Oracle: LEFT JOIN of the CURRENT lake states, denorm column order."""
    fact = cdc.read_lake_table(fact_dir)
    dim = (
        cdc.read_lake_table(dim_dir)
        .select(["tool_id", "dest_name"])
        .rename_columns(["tool_id", "tool_dest"])
    )
    out = fact.join(dim, keys=["tool"], right_keys=["tool_id"], join_type="left outer")
    return out.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _read_sorted(denorm_dir: str) -> pa.Table:
    t = denorm.read_denorm(denorm_dir)
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _setup(tmp_path, n_convs=120, n_events=3000):
    """fact lake + dim lake + FK index + denorm, with both feeds wired."""
    fact_dir = str(tmp_path / "fact")
    dim_dir = str(tmp_path / "dim")
    idx_dir = str(tmp_path / "idx")
    dn_dir = str(tmp_path / "dn")
    fch = str(tmp_path / "fact_changes")
    dch = str(tmp_path / "dim_changes")

    spec = transcripts_spec()
    cdc.init_lake(cg.gen_transcripts(n_convs, seed=42), fact_dir, spec, num_partitions=8)
    cdc.init_lake(cg.gen_tool_dim(), dim_dir, _tool_spec(), num_partitions=4)
    cdc.create_index(idx_dir, fact_dir, "tool")
    rep = denorm.create_denorm(
        dn_dir, fact_dir, dim_dir, "tool", {"tool_dest": "dest_name"},
        index_dir=idx_dir, fact_changes_dir=fch, dim_changes_dir=dch,
    )
    assert rep["rows"] > 0
    return spec, fact_dir, dim_dir, idx_dir, dn_dir, fch, dch


def test_refresh_distributed_affected_plan_equals_gather(
    ray_session, tmp_path, monkeypatch
):
    """DRIVER_GATHER_BYTES=0 forces the distributed affected-set plan
    (staged per-partition key files + per-task dim subsets — the driver
    holds O(partitions)); the refreshed lake must equal the LEFT-JOIN
    oracle exactly, and a rerun stays exactly-once (VERDICT r4 wrong #3).
    Covers both fanout directions: fact churn AND a dim rename reverse-
    resolved through the index."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)
    ev = cg.gen_change_events(3000, 120, seed=53)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=6)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    dev = cg.gen_tool_events(40, lsn_start=1)
    dpaths = cg.write_wal_chunks(dev, str(tmp_path / "dwal"), num_chunks=3)
    cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    rep = denorm.refresh_denorm(dn_dir)
    assert rep["affected_plan"] == "distributed"
    assert rep["affected_keys"] > 0 and rep["events"] > 0
    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)
    # staged key files cleaned up; idle rerun a no-op
    assert os.listdir(os.path.join(dn_dir, "_refresh_aff")) == []
    rep2 = denorm.refresh_denorm(dn_dir)
    assert rep2 == {"files": 0, "affected_keys": 0, "events": 0}


def _fact_wal_new_tool(tmp_path, tool: str, lsn_start=1_000_000, n=5):
    """Upsert events referencing a tool id the dim lake does NOT hold yet."""
    import numpy as np

    lsn = list(range(lsn_start, lsn_start + n))
    t = pa.table(
        {
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(["upsert"] * n, pa.string()),
            "conv_id": pa.array([f"late-{i}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([0] * n, pa.int32()),
            "role": pa.array(["assistant"] * n, pa.string()),
            "text": pa.array([f"uses {tool} #{i}" for i in range(n)], pa.string()),
            "tool": pa.array([tool] * n, pa.string()),
            "ts": pa.array(np.array(lsn, np.int64) * 1_000_000, pa.timestamp("us")),
        }
    )
    return cg.write_wal_chunks(t, str(tmp_path / f"wal_{tool}"), num_chunks=1)


def _dim_wal_add(tmp_path, tool: str, dest: str, lsn=1):
    t = pa.table(
        {
            "lsn": pa.array([lsn], pa.int64()),
            "op": pa.array(["upsert"], pa.string()),
            "tool_id": pa.array([tool], pa.string()),
            "dest_name": pa.array([dest], pa.string()),
            "ts": pa.array([lsn * 1_000_000], pa.timestamp("us")),
        }
    )
    return cg.write_wal_chunks(t, str(tmp_path / f"dwal_{tool}"), num_chunks=1)


def _late_rows(dn_dir):
    t = denorm.read_denorm(dn_dir)
    import pyarrow.compute as _pc

    return t.filter(_pc.equal(t.column("tool"), "late-tool"))


def test_late_dim_heals_through_feed_on_refresh(ray_session, tmp_path):
    """A dim row arriving AFTER the fact rows that reference it: the next
    refresh reverse-resolves the new dim value through the FK index and
    heals the NULLed join columns — no special API needed."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)
    cdc.replay(fact_dir, _fact_wal_new_tool(tmp_path, "late-tool"), spec,
               changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir)
    rows = _late_rows(dn_dir)
    assert rows.num_rows == 5
    assert rows.column("tool_dest").null_count == 5  # dangling FK → NULL

    cdc.replay(dim_dir, _dim_wal_add(tmp_path, "late-tool", "dst-late"),
               _tool_spec(), changes_dir=dch)
    rep = denorm.refresh_denorm(dn_dir)
    assert rep["affected_keys"] >= 5
    rows = _late_rows(dn_dir)
    assert rows.column("tool_dest").to_pylist() == ["dst-late"] * 5
    assert _read_sorted(dn_dir).select(
        _expected_join(fact_dir, dim_dir).column_names
    ).equals(_expected_join(fact_dir, dim_dir))


def test_resolve_misses_heals_out_of_band_dim(ray_session, tmp_path):
    """The dim lake advanced WITHOUT a change feed (out-of-band replay):
    refresh has nothing to consume, the joined rows stay NULL — and
    resolve_misses point-reads the dangling fks from the current dim and
    heals exactly them (DataCache.loadData semantics; idempotent)."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)
    cdc.replay(fact_dir, _fact_wal_new_tool(tmp_path, "late-tool"), spec,
               changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir)

    # dim advances with NO changes_dir → no feed → refresh can't see it
    cdc.replay(dim_dir, _dim_wal_add(tmp_path, "late-tool", "dst-oob"), _tool_spec())
    denorm.refresh_denorm(dn_dir)
    rows = _late_rows(dn_dir)
    assert rows.column("tool_dest").null_count == 5  # still dangling

    rep = denorm.resolve_misses(dn_dir)
    assert rep["dangling_fks"] >= 1 and rep["healed_fks"] == 1
    assert rep["updates"] == 5
    rows = _late_rows(dn_dir)
    assert rows.column("tool_dest").to_pylist() == ["dst-oob"] * 5
    assert _read_sorted(dn_dir).select(
        _expected_join(fact_dir, dim_dir).column_names
    ).equals(_expected_join(fact_dir, dim_dir))

    # idempotent: nothing left that resolves
    rep2 = denorm.resolve_misses(dn_dir)
    assert rep2["healed_fks"] == 0 or rep2["events"] == 0
    # and the lake still audits clean
    assert cdc.fsck(dn_dir)["clean"]


def test_resolve_misses_spares_sibling_rows(ray_session, tmp_path):
    """Regression (round-5): ``affected`` holds PARTITION-KEY values, so a
    heal recomputes WHOLE conversations — sibling turns referencing other
    (present) tools must keep their joined columns. The old code subset the
    dim to the healed fks only, NULLing every sibling it recomputed."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)
    # plant the dangling rows INSIDE existing conversations that also hold
    # turns referencing present tools (new turn_idx, existing conv ids)
    import numpy as np

    convs = [f"conv-{i:08d}" for i in (1, 2, 3)]
    t = pa.table(
        {
            "lsn": pa.array([1_000_000 + i for i in range(3)], pa.int64()),
            "op": pa.array(["upsert"] * 3, pa.string()),
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array([999] * 3, pa.int32()),
            "role": pa.array(["assistant"] * 3, pa.string()),
            "text": pa.array(["late"] * 3, pa.string()),
            "tool": pa.array(["late-tool"] * 3, pa.string()),
            "ts": pa.array(np.full(3, 2_000_000_000), pa.timestamp("us")),
        }
    )
    cdc.replay(fact_dir, cg.write_wal_chunks(t, str(tmp_path / "lw"), 1), spec,
               changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir)
    cdc.replay(dim_dir, _dim_wal_add(tmp_path, "late-tool", "dst-oob"), _tool_spec())

    before = _read_sorted(dn_dir)
    n_joined_before = before.num_rows - before.column("tool_dest").null_count
    rep = denorm.resolve_misses(dn_dir)
    assert rep["healed_fks"] == 1 and rep["updates"] == 3
    got = _read_sorted(dn_dir)
    # every previously-joined sibling row kept its value, plus 3 healed
    assert got.num_rows - got.column("tool_dest").null_count == n_joined_before + 3
    assert got.select(
        _expected_join(fact_dir, dim_dir).column_names
    ).equals(_expected_join(fact_dir, dim_dir))


def test_create_denorm_matches_left_join(ray_session, tmp_path):
    _, fact_dir, dim_dir, _, dn_dir, _, _ = _setup(tmp_path)
    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)
    # transcripts carry null tools — those rows must survive with null dim cols
    assert pc.sum(pc.is_null(got.column("tool"))).as_py() > 0


def test_refresh_folds_fact_and_dim_changes(ray_session, tmp_path):
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)

    # fact-side churn (adds/updates/deletes incl. fk reassignments)
    ev = cg.gen_change_events(3000, 120, seed=51)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=6)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)

    # dim-side churn (every tool's dest_name rewritten repeatedly, LWW)
    dev = cg.gen_tool_events(40, lsn_start=1)
    dpaths = cg.write_wal_chunks(dev, str(tmp_path / "dwal"), num_chunks=3)
    cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

    rep = denorm.refresh_denorm(dn_dir)
    assert rep["affected_keys"] > 0 and rep["events"] > 0
    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)

    # idle refresh is a no-op
    rep2 = denorm.refresh_denorm(dn_dir)
    assert rep2 == {"files": 0, "affected_keys": 0, "events": 0}

    # the joined lake is a REAL lake and audits clean under ITS OWN spec:
    # its hashes were written with falsy=() while fsck's default spec says
    # falsy=(text, tool) — the persisted falsy_cols metadata must win
    # (regression: fsck once recomputed with the caller spec's falsy rule
    # and flagged every ''/'None' row as bad_hash)
    audit = cdc.fsck(dn_dir)
    assert audit["clean"] is True, audit


def test_dim_only_change_via_index_fanout(ray_session, tmp_path):
    """A dim update with NO fact churn must still reach every joined row —
    that path exists only through the FK secondary index."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)

    dev = cg.gen_tool_events(8, lsn_start=1)
    dpaths = cg.write_wal_chunks(dev, str(tmp_path / "dwal"), num_chunks=2)
    cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

    rep = denorm.refresh_denorm(dn_dir)
    assert rep["affected_keys"] > 0
    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)
    # the new dest names actually landed
    new_dests = set(
        d for d in got.column("tool_dest").to_pylist() if d and d.startswith("dst-")
    )
    assert new_dests


def test_dim_delete_nulls_joined_columns(ray_session, tmp_path):
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)
    victim = cg.gen_tool_dim().column("tool_id")[0].as_py()

    del_ev = pa.table(
        {
            "lsn": pa.array([1], pa.int64()),
            "op": pa.array(["delete"], pa.string()),
            "tool_id": pa.array([victim], pa.string()),
            "dest_name": pa.array([None], pa.string()),
            "ts": pa.array([None], pa.timestamp("us")),
        }
    )
    dpaths = cg.write_wal_chunks(del_ev, str(tmp_path / "dwal"), num_chunks=1)
    cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

    before = _read_sorted(dn_dir)
    n_ref = pc.sum(pc.equal(before.column("tool"), victim)).as_py()
    assert n_ref > 0, "fixture must reference the victim tool"

    denorm.refresh_denorm(dn_dir)
    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)
    # LEFT JOIN semantics: rows survive, dim attribute nulls out
    mask = pc.equal(got.column("tool"), victim)
    assert pc.sum(mask).as_py() == n_ref
    assert pc.all(pc.is_null(got.filter(mask).column("tool_dest"))).as_py()


def test_refresh_idempotent_after_cursor_loss(ray_session, tmp_path):
    """Crash-consistency: losing the cursor file (crash after replay, before
    the cursor commit — or a full reset) re-picks EVERY feed file; the
    recompute-from-base design must converge to the identical state through
    content-hash NOOPs, never double-apply."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path)

    ev = cg.gen_change_events(1500, 120, seed=52)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=4)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir)
    settled = _read_sorted(dn_dir)

    os.unlink(os.path.join(dn_dir, "_denorm_state.json"))
    rep = denorm.refresh_denorm(dn_dir)
    assert rep["affected_keys"] > 0  # everything re-picked...
    got = _read_sorted(dn_dir)
    assert got.equals(settled)  # ...but the state is byte-identical

    rep2 = denorm.refresh_denorm(dn_dir)
    assert rep2["files"] == 0


def test_multi_round_interleaved_refresh(ray_session, tmp_path):
    """Several alternating fact/dim batches with a refresh after each —
    the joined lake tracks the bases at every step."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)

    lsn = 1
    for i in range(3):
        ev = cg.gen_change_events(800, 60, seed=60 + i, lsn_start=lsn)
        lsn += 2000
        paths = cg.write_wal_chunks(ev, str(tmp_path / f"fw{i}"), num_chunks=3)
        cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)

        dev = cg.gen_tool_events(12, lsn_start=100 * (i + 1))
        dpaths = cg.write_wal_chunks(dev, str(tmp_path / f"dw{i}"), num_chunks=2)
        cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

        denorm.refresh_denorm(dn_dir)
        got = _read_sorted(dn_dir)
        want = _expected_join(fact_dir, dim_dir)
        assert got.select(want.column_names).equals(want), f"diverged at round {i}"


def test_denorm_emits_its_own_feed_for_chaining(ray_session, tmp_path):
    """The joined lake is a first-class lake: refresh can emit ITS own
    change feed (CDC fan-out continues downstream)."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)
    out_feed = str(tmp_path / "dn_changes")

    ev = cg.gen_change_events(600, 60, seed=71)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=2)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)

    rep = denorm.refresh_denorm(dn_dir, changes_dir=out_feed)
    assert rep["events"] > 0
    feed = cdc.read_changes(out_feed)
    assert feed.num_rows > 0
    assert {"lsn", "op", "conv_id", "turn_idx", "tool_dest"} <= set(feed.column_names)


def test_follow_and_lag(ray_session, tmp_path):
    """denorm.follow drains both feeds like cdc.follow drains a WAL; lag
    reports pending feed files per side and zeroes after the drain."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)

    ev = cg.gen_change_events(800, 60, seed=81)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=3)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    dev = cg.gen_tool_events(10)
    dpaths = cg.write_wal_chunks(dev, str(tmp_path / "dwal"), num_chunks=2)
    cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

    before = denorm.lag(dn_dir)
    assert before["fact_files"] > 0 and before["dim_files"] > 0

    rep = denorm.follow(dn_dir, max_rounds=10)
    assert rep["events"] > 0 and rep["rounds"] >= 2  # work round(s) + idle

    assert denorm.lag(dn_dir) == {"fact_files": 0, "dim_files": 0}
    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)


def test_view_over_denorm_feed_chains(ray_session, tmp_path):
    """Full relay: fact WAL → fact lake → fact feed → denorm lake → DENORM
    feed → incremental view grouped on the JOINED attribute (tool_dest) —
    three exactly-once hops, each maintained at change volume."""
    from bcdc2bcdc_ray.pipelines import view as view_mod
    from bcdc2bcdc_ray.pipelines.view import AggSpec

    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)
    dn_feed = str(tmp_path / "dn_feed")
    vdir = str(tmp_path / "v")

    view_mod.create_view(
        vdir, dn_dir, ["tool_dest"],
        [AggSpec("n_rows", "count"), AggSpec("n_chars", "sum_len", "text")],
    )

    ev = cg.gen_change_events(1200, 60, seed=91)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=3)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir, changes_dir=dn_feed, changes_before=True)
    view_mod.refresh_view(vdir, dn_feed)

    got = view_mod.read_view(vdir).sort_by([("tool_dest", "ascending")])
    dn = denorm.read_denorm(dn_dir)
    df = dn.select(["tool_dest", "text"]).to_pandas()
    df["n_chars"] = df["text"].str.len().fillna(0).astype("int64")
    want = (
        df.groupby("tool_dest", dropna=False)
        .agg(n_rows=("tool_dest", "size"), n_chars=("n_chars", "sum"))
        .reset_index()
    )
    import pandas as pd

    gdf = got.to_pandas()
    want = want.sort_values("tool_dest", na_position="first").reset_index(drop=True)
    gdf = gdf.sort_values("tool_dest", na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        gdf[["tool_dest", "n_rows", "n_chars"]],
        want[["tool_dest", "n_rows", "n_chars"]],
        check_dtype=False,
    )


def test_schema_evolution_flows_through_denorm(ray_session, tmp_path):
    """Evolved fact events (new `lang` column, widened turn_idx) must widen
    the denorm lake on the next refresh — the recompute re-reads the fact
    partition schema fresh and replay's unify does the rest."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)

    ev = cg.gen_change_events(800, 60, seed=93, evolved=True)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=2)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir)

    got = _read_sorted(dn_dir)
    assert "lang" in got.column_names
    assert got.schema.field("turn_idx").type == pa.int64()
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)


def test_two_dim_chain_composes(ray_session, tmp_path):
    """Multi-dim denormalization needs NO new machinery: chain two
    single-dim denorms — fact ⋈ tools, then (that lake) ⋈ roles, the
    second maintained from the FIRST denorm's own change feed. Both hops
    stay exactly-once and change-proportional."""
    spec, fact_dir, dim_dir, _, dn1, fch, dch = _setup(tmp_path, n_convs=60)
    dn1_feed = str(tmp_path / "dn1_feed")

    roles_dir = str(tmp_path / "roles")
    roles = pa.table(
        {
            "role_id": pa.array(["user", "assistant", "system", "tool"]),
            "display": pa.array(["User", "Assistant", "System", "Tool"]),
        }
    )
    roles_spec = TableSpec(name="roles", schema=roles.schema, key=("role_id",))
    cdc.init_lake(roles, roles_dir, roles_spec, num_partitions=2)
    rch = str(tmp_path / "roles_changes")

    idx2 = str(tmp_path / "idx2")
    cdc.create_index(idx2, dn1, "role")
    dn2 = str(tmp_path / "dn2")
    denorm.create_denorm(
        dn2, dn1, roles_dir, "role", {"role_display": "display"},
        index_dir=idx2, fact_changes_dir=dn1_feed, dim_changes_dir=rch,
    )

    # fact churn ripples through both hops
    ev = cg.gen_change_events(1000, 60, seed=95)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=3)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn1, changes_dir=dn1_feed, changes_before=True)
    denorm.refresh_denorm(dn2)

    # dimB churn reaches dn2 through its own index fanout
    rev = pa.table(
        {
            "lsn": pa.array([1], pa.int64()),
            "op": pa.array(["upsert"], pa.string()),
            "role_id": pa.array(["assistant"], pa.string()),
            "display": pa.array(["AI Assistant"], pa.string()),
        }
    )
    rpaths = cg.write_wal_chunks(rev, str(tmp_path / "rwal"), num_chunks=1)
    cdc.replay(roles_dir, rpaths, roles_spec, changes_dir=rch)
    denorm.refresh_denorm(dn2)

    got = denorm.read_denorm(dn2).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    base = _expected_join(fact_dir, dim_dir)  # fact ⋈ tools
    roles_now = (
        cdc.read_lake_table(roles_dir)
        .select(["role_id", "display"])
        .rename_columns(["role_id", "role_display"])
    )
    want = base.join(
        roles_now, keys=["role"], right_keys=["role_id"], join_type="left outer"
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.select(want.column_names).equals(want)
    assert "AI Assistant" in set(
        d for d in got.column("role_display").to_pylist() if d
    )


def test_refresh_refuses_repartitioned_fact(ray_session, tmp_path):
    """split_partitions on the fact lake breaks the fact↔denorm
    co-partitioning the per-partition recompute pairs on — refresh must
    refuse loudly, not read wrong files."""
    import pytest

    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=40)
    cdc.split_partitions(fact_dir)
    ev = cg.gen_change_events(200, 40, seed=97)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=1)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    with pytest.raises(ValueError, match="re-partitioned"):
        denorm.refresh_denorm(dn_dir)


def test_refresh_survives_writer_crash(ray_session, tmp_path):
    """Fault injection on the DENORM lake during the refresh's replay: a
    writer actor hard-exits between partition rename and manifest commit,
    Ray retries, and the joined state still lands exactly on the LEFT JOIN
    oracle; the rerun is idle."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)

    ev = cg.gen_change_events(1200, 60, seed=99)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=3)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)

    with open(os.path.join(dn_dir, "_fault_once"), "w") as f:
        f.write("0")
    try:
        rep = denorm.refresh_denorm(dn_dir)
    finally:
        if os.path.exists(os.path.join(dn_dir, "_fault_once")):
            os.remove(os.path.join(dn_dir, "_fault_once"))
    assert rep["events"] > 0
    assert os.path.exists(os.path.join(dn_dir, "_crashed-0"))  # crash fired

    got = _read_sorted(dn_dir)
    want = _expected_join(fact_dir, dim_dir)
    assert got.select(want.column_names).equals(want)
    assert denorm.refresh_denorm(dn_dir)["files"] == 0
    assert cdc.fsck(dn_dir)["clean"] is True


def test_denorm_fsck_flags_staleness(ray_session, tmp_path):
    """denorm.fsck recomputes sampled convs from the bases: clean right
    after a refresh; a dim change that was replayed but NOT yet folded
    reads as stale (the correct answer), and clean again after refresh."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)

    rep = denorm.fsck(dn_dir, sample_frac=1.0)
    assert rep["clean"] is True and rep["rows_checked"] > 0

    dev = cg.gen_tool_events(6, lsn_start=1)
    dpaths = cg.write_wal_chunks(dev, str(tmp_path / "dwal"), num_chunks=1)
    cdc.replay(dim_dir, dpaths, _tool_spec(), changes_dir=dch)

    rep = denorm.fsck(dn_dir, sample_frac=1.0)
    assert rep["clean"] is False and rep["stale_rows"] > 0

    denorm.refresh_denorm(dn_dir)
    rep = denorm.fsck(dn_dir, sample_frac=1.0)
    assert rep["clean"] is True

    # sampled audit is a strict subset and still clean
    rep = denorm.fsck(dn_dir, sample_frac=0.2)
    assert rep["clean"] is True
    assert 0 < rep["convs_checked"] < 60


def test_windowed_view_over_denorm_feed(ray_session, tmp_path):
    """Capstone composition: fact WAL → fact feed → denorm join lake →
    denorm feed → TIME-BUCKETED view (derived pane) grouped with the
    JOINED attribute → read-time sliding windows. Every hop exactly-once;
    the windowed rollup equals a direct explode-aggregate of the joined
    lake."""
    import numpy as np
    import pyarrow.compute as pc

    from bcdc2bcdc_ray.pipelines import view as view_mod
    from bcdc2bcdc_ray.pipelines.view import AggSpec, DeriveSpec

    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)
    dn_feed = str(tmp_path / "dn_feed")
    vdir = str(tmp_path / "v")

    view_mod.create_view(
        vdir, dn_dir, ["pane", "tool_dest"],
        [AggSpec("n_rows", "count")],
        derive=[DeriveSpec("pane", "time_bucket", "ts", 1800)],
    )

    ev = cg.gen_change_events(1500, 60, seed=97)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fwal"), num_chunks=3)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir, changes_dir=dn_feed, changes_before=True)
    view_mod.refresh_view(vdir, dn_feed)

    W, S = 3600, 1800
    got = view_mod.read_window(vdir, W, S)

    dn = denorm.read_denorm(dn_dir).select(["ts", "tool_dest"])
    us = pc.cast(dn.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    s_us = S * 1_000_000
    k = W // S
    base = (us // s_us) * s_us
    starts = (
        base[:, None] - (np.arange(k - 1, -1, -1, dtype=np.int64) * s_us)
    ).ravel()
    df = dn.to_pandas().iloc[np.repeat(np.arange(len(us)), k)].reset_index(drop=True)
    df["ws"] = starts
    g = (
        df.groupby(["ws", "tool_dest"], dropna=False)
        .size().rename("n_rows").reset_index()
        .sort_values(["ws", "tool_dest"], na_position="last")
    )
    import pandas as pd

    gdf = got.to_pandas()
    gdf["ws"] = (
        got.column("window_start").cast(pa.int64()).to_numpy(zero_copy_only=False)
    )
    gdf = gdf.sort_values(["ws", "tool_dest"], na_position="last")
    pd.testing.assert_frame_equal(
        gdf[["ws", "tool_dest", "n_rows"]].reset_index(drop=True),
        g[["ws", "tool_dest", "n_rows"]].reset_index(drop=True),
        check_dtype=False,
    )


def test_recreate_denorm_rebuilds_from_scratch(ray_session, tmp_path):
    """create_denorm over an EXISTING denorm dir rebuilds: without the
    wipe, the bootstrap's lsn=0 events are watermark-skipped into a
    silent no-op while the cursors reset — the exact stale-lake trap the
    re-partition guard tells users to escape via re-create."""
    spec, fact_dir, dim_dir, idx_dir, dn_dir, fch, dch = _setup(tmp_path)

    # move the fact lake forward WITHOUT refreshing the denorm
    ev = cg.gen_change_events(1500, 120, seed=201)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fw2"), num_chunks=3)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    assert not _read_sorted(dn_dir).equals(_expected_join(fact_dir, dim_dir))

    # re-create over the existing dir: must equal a fresh left join
    denorm.create_denorm(
        dn_dir, fact_dir, dim_dir, "tool", {"tool_dest": "dest_name"},
        index_dir=idx_dir, fact_changes_dir=fch, dim_changes_dir=dch,
    )
    assert _read_sorted(dn_dir).equals(_expected_join(fact_dir, dim_dir))
    # and the rebuilt denorm keeps refreshing normally
    ev2 = cg.gen_change_events(800, 120, seed=203, lsn_start=50_000)
    paths = cg.write_wal_chunks(ev2, str(tmp_path / "fw3"), num_chunks=2)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    denorm.refresh_denorm(dn_dir)
    assert _read_sorted(dn_dir).equals(_expected_join(fact_dir, dim_dir))


def test_refresh_refuses_repartitioned_denorm(ray_session, tmp_path):
    """The symmetric guard: splitting the DENORM lake (legal — it's a
    first-class lake) breaks the per-pid delete detection; refresh must
    refuse loudly instead of leaving stale rows silently."""
    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)
    cdc.split_partitions(dn_dir)
    ev = cg.gen_change_events(500, 60, seed=207)
    paths = cg.write_wal_chunks(ev, str(tmp_path / "fw"), num_chunks=2)
    cdc.replay(fact_dir, paths, spec, changes_dir=fch, changes_before=True)
    with pytest.raises(ValueError, match="denorm lake itself was re-partitioned"):
        denorm.refresh_denorm(dn_dir)


def test_fsck_catches_wholly_missing_conversation(ray_session, tmp_path):
    """fsck samples keys from the FACT lake too: a conversation entirely
    absent from the denorm (the dropped-feed-file failure class) is
    sampleable and reported as missing — sampling only the derived table
    could never select it."""
    import pyarrow.parquet as pq_

    from bcdc2bcdc_ray.canonical import partition_ids

    spec, fact_dir, dim_dir, _, dn_dir, fch, dch = _setup(tmp_path, n_convs=60)
    assert denorm.fsck(dn_dir, sample_frac=1.0)["clean"]

    # simulate a lost feed file: hard-delete ONE conversation's rows from
    # the denorm partition file (bypassing the replay machinery)
    t = denorm.read_denorm(dn_dir)
    victim = t.column("conv_id")[0].as_py()
    meta = denorm.denorm_meta(dn_dir)
    pid = int(
        partition_ids(
            pa.table({"conv_id": pa.array([victim])}), ["conv_id"],
            int(meta["num_partitions"]),
        )[0]
    )
    from bcdc2bcdc_ray.pipelines.cdc import partition_path

    p = partition_path(dn_dir, pid)
    import pyarrow.compute as pc

    pt = pq_.read_table(p)
    kept = pt.filter(pc.invert(pc.equal(pt.column("conv_id"), victim)))
    pq_.write_table(kept.replace_schema_metadata(pt.schema.metadata), p)

    rep = denorm.fsck(dn_dir, sample_frac=1.0)
    assert rep["missing_rows"] > 0 and not rep["clean"]
