"""The flagship pipeline: WAL tail → classified delta → lake upsert merge.

End-to-end re-expression of the reference's run loop
(``/root/reference/bin/runBCDC2BCDC.py:40-201`` extract → normalize → delta →
apply, SURVEY §3.1) as one streaming Ray Data pipeline:

    read_parquet(WAL chunks)                       # S2 analog, streaming
      → map_batches(AssignPartition)               # hash(conv_id) % P + early
                                                   #   watermark drop (resume)
      → [map_batches(AddSalt)
         → groupby(part, salt).map_groups(LWW)]    # skew pre-reduce (opt-in)
      → groupby(__part)                            # THE one shuffle — change
                                                   #   stream only, never lake
      → map_groups(MergeWriter)                    # actor-pool merge-write,
                                                   #   atomic + exactly-once
      → lineage Dataset (small)                    # per-partition counters

The lake is a directory of hash-partitioned parquet files plus
``_manifests/`` (watermarks) and ``_meta.json`` (partition count + key) —
resumable output layout: a rerun skips every event at or below each
partition's committed watermark.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import plan
from ..canonical import partition_ids
from ..spec import TableSpec, transcripts_spec
from ..state import fs as lakefs
from ..state.fs import LakeLockedError  # noqa: F401 — re-export (both backends raise it)
from ..state.manifest import ManifestStore, PartitionManifest, atomic_write_parquet
from ..stages import evolve
from ..stages.merge import PART_COL, partition_path
from ..stages.skew import SALT_COL, AddSalt, make_pre_reducer


class ProtectedLakeError(RuntimeError):
    """Raised when a replay targets a protected lake without ``force=True`` —
    the sink-side do-not-write guard (the reference refuses to write to
    protected CKAN instances, ``/root/reference/bcdc2bcdc/CKAN.py:431-460``
    ``checkUrl``; VERDICT r1 missing #5)."""


def lake_lock(lake_dir: str, stale_after_s: float = 3600.0):
    """Writer mutual exclusion for this lake's storage backend: the
    link-create ``_LakeLock`` on posix lakes, the conditional-PUT
    :class:`~..state.fs.ObjectLease` on object-store lakes. Both raise
    :class:`LakeLockedError` on a live conflicting holder."""
    return lakefs.fs_for(lake_dir).lock(lake_dir, stale_after_s=stale_after_s)


def lake_meta(lake_dir: str, *, allow_maintenance: bool = False) -> dict:
    with open(os.path.join(lake_dir, "_meta.json")) as f:
        meta = json.load(f)
    mm = meta.get("maintenance")
    if mm and not allow_maintenance:
        # an interrupted split/merge committed its layout marker but not
        # all of its staged renames — reads under this meta would misroute
        # (a parent file still holds rows the new layout maps elsewhere).
        # Refuse loudly; the op's rerun resumes the staged commit.
        raise RuntimeError(
            f"lake {lake_dir} has an interrupted {mm['op']} "
            f"({mm['from']} → {meta['num_partitions']} partitions) — rerun "
            f"cdc.{mm['op']}_partitions / `maintain {mm['op']}` to finish "
            "the staged commit before reading or writing"
        )
    return meta


def _write_meta(lake_dir: str, meta: dict) -> None:
    """Atomic _meta.json commit — a crash mid-write must never leave a
    truncated meta that bricks every later call."""
    from ..state.manifest import atomic_write_json

    atomic_write_json(os.path.join(lake_dir, "_meta.json"), meta)


class _LakeLock:
    """Advisory writer lock: O_EXCL-create ``_lock.json`` holding
    {pid, host, token, started_utc}. Held only for the mutating section of
    one replay; ``dry_run`` never locks.

    Staleness (fixed per ADVICE r3 — the old version could reclaim a LIVE
    lock and two reclaimers could cascade-unlink each other's fresh locks):

    - same-host holder: pid liveness is authoritative. Alive → never stale
      (no matter how old — a multi-hour 100-TB replay keeps its lock);
      provably dead → stale immediately.
    - cross-host holder (shared storage): mtime lease only — and holders
      HEARTBEAT mtime from a daemon thread every ``stale_after_s/4`` (max
      60 s), so only a truly dead remote holder ever ages out.
    - reclaim is serialized through a second O_EXCL mutex file
      (``_lock.reclaim``, own ~60 s lease): exactly one waiter unlinks, and
      it re-checks staleness UNDER the mutex, so a lock freshly created by
      a previous reclaimer (alive, recent mtime) is never removed.
    - ``__exit__`` verifies the stored token before unlinking — it never
      removes a lock it doesn't own.
    - the lock file is created ATOMICALLY WITH ITS PAYLOAD (unique temp
      file + ``os.link`` into place): an O_EXCL-create-then-write leaves a
      momentarily EMPTY lock that a contender's staleness probe reads as
      unparseable → "stale" → reclaims, unlinking a LIVE holder's fresh
      lock (two writers; caught as a lost update by the 6-process hammer
      test). With link-create no reader can ever observe a torn lock; an
      unreadable file now means a crashed legacy writer and is only
      declared stale past a short grace age.
    """

    _UNREADABLE_GRACE_S = 5.0

    def __init__(self, lake_dir: str, stale_after_s: float = 3600.0):
        self.path = os.path.join(lake_dir, "_lock.json")
        self.stale_after_s = stale_after_s
        self._held = False
        self._token = f"{os.getpid()}-{uuid.uuid4().hex}"
        self._hb_stop = None
        self._hb_thread = None

    def _read_holder(self):
        try:
            with open(self.path) as f:
                info = json.load(f)
            st = os.stat(self.path)
        except (OSError, ValueError):
            return None, None
        return info, st

    def _holder_is_stale(self) -> bool:
        import socket
        import time as _time

        info, st = self._read_holder()
        if info is None:
            # unreadable/vanished lock. Creation is atomic-with-payload
            # (link-create), so this is never a concurrent writer mid-write
            # — but grant a short grace age anyway so a probe racing an
            # unlink/replace sequence can't misjudge; genuinely torn files
            # (crashed legacy writer) age out in seconds.
            try:
                st2 = os.stat(self.path)
            except OSError:
                return True  # vanished: stale by definition
            import time as _t

            return _t.time() - st2.st_mtime > self._UNREADABLE_GRACE_S
        pid = int(info.get("pid", -1))
        if info.get("host", "") == socket.gethostname():
            # pid liveness is authoritative on the same host — probe it
            # BEFORE any age test so a long-running live replay is never
            # reclaimed from under itself
            try:
                os.kill(pid, 0)  # liveness probe, no signal delivered
            except ProcessLookupError:
                return True
            except PermissionError:
                return False  # alive, owned by someone else
            return False
        # cross-host: pid means nothing; fall back to the mtime lease
        # (the holder heartbeats, so a live remote writer never ages out)
        return _time.time() - st.st_mtime > self.stale_after_s

    def _reclaim(self) -> None:
        """Remove a stale lock with exactly-one-winner semantics."""
        import time as _time

        mutex = self.path + ".reclaim"
        try:
            st = os.stat(mutex)
            # a reclaimer crashed mid-reclaim: its mutex is held for
            # microseconds normally, so a minute-old one is garbage
            if _time.time() - st.st_mtime > 60.0:
                try:
                    os.unlink(mutex)
                except FileNotFoundError:
                    pass
        except OSError:
            pass
        try:
            rfd = os.open(mutex, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            _time.sleep(0.05)  # another reclaimer active; retry the loop
            return
        try:
            # re-check UNDER the mutex: the lock present now may be a
            # fresh one created by the previous reclaimer — never unlink
            # a non-stale lock
            if self._holder_is_stale():
                try:
                    os.unlink(self.path)
                except FileNotFoundError:
                    pass
        finally:
            os.close(rfd)
            try:
                os.unlink(mutex)
            except FileNotFoundError:
                pass

    def _start_heartbeat(self) -> None:
        import threading

        interval = min(60.0, max(1.0, self.stale_after_s / 4.0))
        stop = threading.Event()

        def beat():
            while not stop.wait(interval):
                try:
                    os.utime(self.path)
                except OSError:
                    return  # lock gone (released or lost) — stop quietly

        t = threading.Thread(target=beat, daemon=True, name="lakelock-hb")
        t.start()
        self._hb_stop, self._hb_thread = stop, t

    def __enter__(self):
        import socket
        import time as _time

        payload = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "token": self._token,
                "started_utc": _time.time(),
            }
        ).encode()
        # stage the full payload in a uniquely-named sibling, then LINK it
        # into place: the lock either doesn't exist or exists with complete
        # content — no reader can ever observe the empty-file window an
        # O_EXCL-create-then-write leaves (which a contender judged "stale"
        # and reclaimed, losing mutual exclusion; see class docstring)
        tmp = f"{self.path}.{self._token}.tmp"
        with open(tmp, "wb") as f:
            f.write(payload)
        try:
            return self._acquire_linked(tmp)
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass

    def _acquire_linked(self, tmp: str):
        for _ in range(4):  # a few reclaim/contend attempts, then loud
            try:
                os.link(tmp, self.path)  # atomic create-with-content
                self._held = True
                self._start_heartbeat()
                return self
            except FileExistsError:
                if self._holder_is_stale():
                    self._reclaim()
                    continue
                raise LakeLockedError(
                    f"lake is locked by a live writer ({self.path}); "
                    "concurrent mutating replays are not allowed"
                )
        raise LakeLockedError(f"could not acquire lake lock {self.path}")

    def __exit__(self, *exc):
        if self._held:
            if self._hb_stop is not None:
                self._hb_stop.set()
            info, _ = self._read_holder()
            # only unlink a lock we still own — if a (buggy or clock-skewed)
            # reclaimer replaced it, removing the new holder's lock would
            # cascade the mutual-exclusion loss
            if info is not None and info.get("token") == self._token:
                try:
                    os.unlink(self.path)
                except FileNotFoundError:
                    pass
        return False


def mark_protected(lake_dir: str, protected: bool = True) -> None:
    """Flag a lake as do-not-write: every subsequent ``replay`` refuses
    unless called with ``force=True`` (or ``dry_run=True``)."""
    meta = lake_meta(lake_dir)
    meta["protected"] = bool(protected)
    _write_meta(lake_dir, meta)


def init_lake(
    table: pa.Table,
    lake_dir: str,
    spec: TableSpec,
    num_partitions: int,
    fs_kind: Optional[str] = None,
) -> None:
    """Seed the lake: hash-partition the initial table by conv_id and write
    one file per partition. Partition assignment must match AssignPartition
    exactly (same hash, same modulus) — co-partitioning invariant.

    ``fs_kind`` picks the storage commit protocol (``"posix"`` rename/
    hardlink, ``"object"`` object-store PUT/lease/copy — state/fs.py);
    default from ``$BCDC_LAKE_FS``, else posix. The choice persists in a
    ``_fs.json`` marker and is part of the lake's committed layout."""
    from ..canonical import HASH_VERSION

    os.makedirs(lake_dir, exist_ok=True)
    lakefs.mark_fs(lake_dir, lakefs.resolve_kind(fs_kind))
    _write_meta(
        lake_dir,
        {
            "num_partitions": num_partitions,
            "key": list(spec.key),
            "name": spec.name,
            # partition layout is a function of this hash — replay
            # refuses a lake written with a different hash version
            # rather than silently mis-routing keys
            "hash": HASH_VERSION,
        },
    )
    # persist per-row content hashes + the column list they cover: replays
    # then classify against stored hashes instead of re-hashing the lake
    from ..canonical import HASH_COL, add_content_hash
    from ..stages.delta import _compare_columns

    cmp_cols = _compare_columns(table.schema, spec)
    table = add_content_hash(table, cmp_cols, spec.falsy_null_columns, HASH_COL)
    table = table.replace_schema_metadata(
        {
            b"hash_cols": json.dumps(list(cmp_cols)).encode(),
            b"falsy_cols": json.dumps(list(spec.falsy_null_columns)).encode(),
        }
    )
    from ..canonical import partition_fingerprint

    pids = partition_ids(table, [spec.key[0]], num_partitions)
    order = np.argsort(pids, kind="stable")
    sorted_tbl = table.take(order)
    sorted_pids = pids[order]
    bounds = np.searchsorted(sorted_pids, np.arange(num_partitions + 1))
    store = ManifestStore(lake_dir)
    for pid in range(num_partitions):
        lo, hi = bounds[pid], bounds[pid + 1]
        if hi > lo:
            part = sorted_tbl.slice(lo, hi - lo).sort_by(
                [(k, "ascending") for k in spec.key]
            )
            atomic_write_parquet(part, partition_path(lake_dir, pid))
            # seed manifest: lsn_hi=-1 (no replay watermark — identical to
            # absent for every watermark consumer), but rows + content
            # fingerprint present so diff_lakes can skip unchanged
            # partitions and fsck can audit state at rest from day one
            store.commit(
                PartitionManifest(
                    partition=pid,
                    lsn_hi=-1,
                    rows=part.num_rows,
                    schema_names=list(part.schema.names),
                    data_file=f"part-{pid:05d}.parquet",
                    content_fp=partition_fingerprint(part, list(spec.key)),
                )
            )


def bootstrap_lake(
    source,
    lake_dir: str,
    spec: Optional[TableSpec] = None,
    num_partitions: int = 64,
    concurrency: Optional[int] = None,
    fs_kind: Optional[str] = None,
) -> dict:
    """100-TB-shape initial load: STREAM the snapshot into a new lake
    through the same distributed machinery as replay (AssignPartition →
    one groupby shuffle → writer actor pool), instead of :func:`init_lake`'s
    driver-side argsort (which is the fixture/tests path — it materializes
    the whole snapshot in the driver process).

    ``source`` is a Ray Dataset or parquet path(s). Rows become lsn=0
    ``add`` events, so the load inherits replay's exactly-once semantics
    for free: each partition's manifest commits watermark 0, a crashed
    bootstrap rerun skips committed partitions (idempotent resume), and
    the first real WAL replay (lsn ≥ 1) proceeds normally. Returns the
    replay-shaped report."""
    from ..canonical import HASH_VERSION
    from ..stages.merge import LINEAGE_SCHEMA, bound_writer

    plan.require_pool("bootstrap_lake")
    spec = spec or transcripts_spec()
    os.makedirs(lake_dir, exist_ok=True)
    meta_path = os.path.join(lake_dir, "_meta.json")
    if not os.path.exists(meta_path):  # idempotent re-run keeps the meta
        lakefs.mark_fs(lake_dir, lakefs.resolve_kind(fs_kind))
        _write_meta(
            lake_dir,
            {
                "num_partitions": num_partitions,
                "key": list(spec.key),
                "name": spec.name,
                "hash": HASH_VERSION,
            },
        )
    else:
        # resume path: the COMMITTED meta is authoritative — silently using
        # the caller's (possibly different) partitions/key here would route
        # rows against the committed layout and break the co-partitioning
        # every later merge/diff/lookup assumes. Adopt its partition count;
        # refuse a key/hash mismatch loudly (mirrors replay's hash guard).
        existing = lake_meta(lake_dir)
        if list(existing.get("key", [])) != list(spec.key):
            raise ValueError(
                f"lake {lake_dir} exists with key {existing.get('key')!r} "
                f"but bootstrap was called with spec key {list(spec.key)!r} "
                "— refusing to misroute rows against the committed layout"
            )
        if existing.get("hash", HASH_VERSION) != HASH_VERSION:
            raise ValueError(
                f"lake {lake_dir} was partitioned with hash "
                f"'{existing.get('hash')}' but this engine uses "
                f"'{HASH_VERSION}' — re-init or migrate the lake"
            )
        num_partitions = int(existing["num_partitions"])
    store = ManifestStore(lake_dir)

    import ray.data as rd

    if isinstance(source, (str, list, tuple)):
        # Ray's auto-split produced 372 blocks for a 1.4M-row snapshot
        # (measured 16.6s wall on ~2s of CPU); at plan.read_blocks the same
        # data sorts in ~3s
        paths = [source] if isinstance(source, str) else list(source)
        ds = rd.read_parquet(paths, override_num_blocks=plan.read_blocks(paths))
    else:
        ds = source  # caller-built Dataset: caller controls block sizing

    def as_add_events(b: pa.Table) -> pa.Table:
        n = b.num_rows
        b = b.append_column("lsn", pa.array(np.zeros(n, np.int64)))
        return b.append_column("op", pa.array(["add"] * n, pa.string()))

    P = num_partitions
    ds = ds.map_batches(as_add_events, batch_format="pyarrow")
    ds = ds.map_batches(
        AssignPartition(spec, P, store.watermarks()), batch_format="pyarrow"
    )
    if concurrency is None:
        concurrency = plan.writers(P, 0)
    with lake_lock(lake_dir):
        lineage_ds = ds.groupby(PART_COL).map_groups(
            bound_writer(lake_dir, spec, False, None),
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        batches = [
            b
            for b in lineage_ds.iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
    lineage = (
        pa.concat_tables(batches) if batches else LINEAGE_SCHEMA.empty_table()
    ).to_pandas()
    # lsn-0 snapshot durably applied → commit the lake-level watermark too
    # (replay does the same; without it, diff_lakes on a bootstrap-only
    # lake read global=-1, assigned base_lsn=0, and each partition's first
    # diff event was silently watermark-skipped — pinned by
    # test_diff_converges_bootstrapped_snapshot_clone)
    store.commit_global(0)
    report = {
        k: int(lineage[k].sum())
        for k in ("events", "adds", "updates", "deletes", "noops", "skipped")
    }
    report["partitions_touched"] = int(len(lineage))
    report["rows"] = int(lineage["rows"].sum())
    return report


def read_lake_table(lake_dir: str) -> pa.Table:
    """Driver-side full read (tests / small results only): unify partition
    schemas (evolution may have touched only some partitions) and return one
    key-sorted table."""
    from ..canonical import HASH_COL

    meta = lake_meta(lake_dir)
    parts = []
    for pid in range(meta["num_partitions"]):
        p = partition_path(lake_dir, pid)
        if os.path.exists(p):
            t = pq.read_table(p)
            if HASH_COL in t.column_names:  # internal column, not user data
                t = t.drop_columns([HASH_COL])
            t = t.replace_schema_metadata(None)
            if t.num_rows:
                parts.append(t)
    if not parts:
        return transcripts_spec().schema.empty_table()
    parts = evolve.unify_tables(parts)
    return pa.concat_tables(parts).sort_by(
        [(k, "ascending") for k in meta["key"]]
    )


def read_changes(changes_dir: str) -> pa.Table:
    """Driver-side read of an outbound change feed (``replay(...,
    changes_dir=...)``): unify schemas across partition files (schema
    evolution may appear mid-feed) and return one (lsn, key)-sorted
    WAL-shaped table — directly consumable by another lake's ``replay``
    (write it back out with ``changegen.write_wal_chunks``)."""
    files = sorted(
        os.path.join(changes_dir, f)
        for f in os.listdir(changes_dir)
        if f.startswith("changes-") and f.endswith(".parquet")
    )
    if not files:
        return pa.schema([("lsn", pa.int64()), ("op", pa.string())]).empty_table()
    parts = [pq.read_table(f).replace_schema_metadata(None) for f in files]
    parts = evolve.unify_tables(parts)
    out = pa.concat_tables(parts)
    sort_keys = [("lsn", "ascending")] + [
        (k, "ascending") for k in out.column_names if k in ("conv_id", "turn_idx")
    ]
    return out.sort_by(sort_keys)


def lookup(lake_dir: str, key_value) -> pa.Table:
    """O(1)-file point read (the reference's single-package GET,
    ``CKAN.py`` package_show analog): hash the partition key value with the
    lake's own partitioner, read ONLY that partition's file, filter to the
    key. At any lake size this touches one file — no scan, no shuffle.

    The key value is CAST to the lake's own key column type before hashing
    (the CLI always passes a string; a config-declared lake may key on
    int/timestamp — hashing the raw string would probe the wrong
    partition), and the empty-result schema is the lake's, not a
    hardcoded transcripts one."""
    from ..canonical import HASH_COL

    meta = lake_meta(lake_dir)
    key_col = meta["key"][0]
    lake_schema = None
    for pid in range(meta["num_partitions"]):
        p = partition_path(lake_dir, pid)
        if os.path.exists(p):
            lake_schema = pq.read_schema(p)
            break
    if lake_schema is None:  # lake has no data files at all
        return transcripts_spec().schema.empty_table()
    out_fields = [f for f in lake_schema if f.name != HASH_COL]
    out_schema = pa.schema(out_fields)

    arr = pa.array([key_value])
    kt = lake_schema.field(key_col).type
    if arr.type != kt:
        try:
            arr = arr.cast(kt)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
            raise ValueError(
                f"key value {key_value!r} is not castable to the lake's "
                f"key column type {kt} ({key_col})"
            ) from e
    pid = int(
        partition_ids(pa.table({key_col: arr}), [key_col], meta["num_partitions"])[0]
    )
    p = partition_path(lake_dir, pid)
    if not os.path.exists(p):
        return out_schema.empty_table()
    t = pq.read_table(p)
    if HASH_COL in t.column_names:
        t = t.drop_columns([HASH_COL])
    return t.filter(pc.equal(t.column(key_col), arr[0])).replace_schema_metadata(None)


def create_index(
    index_dir: str, lake_dir: str, col: str, num_partitions: int | None = None
) -> dict:
    """Feed-maintained SECONDARY INDEX on a non-key column: a materialized
    view grouped by ``[col, *lake_key]`` (liveness count only), partitioned
    by hash(col) so a value probe reads ONE index file. Maintained from the
    pre-image change feed exactly like any view (``view.refresh_view`` /
    ``view.follow`` — exactly-once, zero-count groups removed, group-moving
    updates retract+assert), so the index tracks the lake at O(change
    volume), never a rebuild.

    Re-expresses the reference's alternate-key LUTs (email↔name,
    ``DataCache.py:98-141`` + ``calcEmailLut`` ``CKANData.py:1689-1700``) —
    an in-driver dict rebuilt per run there; a co-maintained, partitioned,
    crash-consistent aggregate here. Point read: :func:`lookup_by`.

    ``col`` may be a LIST of columns — a COMPOSITE index grouped by
    ``[c1, c2, ..., *lake_key]``, partitioned by hash(c1): a probe on the
    full tuple still reads ONE index file (the leading column routes; the
    rest filter inside it), so order the most selective / most probed
    column first."""
    from . import view as view_mod

    meta = lake_meta(lake_dir)
    cols = [col] if isinstance(col, str) else list(col)
    if not cols:
        raise ValueError("index needs at least one column")
    for c in cols:
        if c in meta["key"]:
            raise ValueError(
                f"{c!r} is a partition key column — point reads on it are "
                "already O(1)-file via lookup(); an index would be redundant"
            )
    return view_mod.create_view(
        index_dir, lake_dir, [*cols, *meta["key"]], [],
        num_partitions=num_partitions,
    )


def lookup_by(lake_dir: str, index_dir: str, value) -> pa.Table:
    """Non-key point read through a secondary index (:func:`create_index`):
    ONE index file gives the matching ``(col, *key)`` groups, the key
    values hash to their lake partitions, and only THOSE files are read —
    a value probe costs 1 + (distinct key partitions) file reads at any
    lake size. Returns the exact matching lake rows (composite-key
    semi-join against the index pairs, so two conversations sharing a
    partition never cross-contaminate).

    For a COMPOSITE index (``create_index(..., ["c1", "c2"])``) pass the
    probe as a tuple/list in the indexed column order: the leading value
    routes to the one index file, the rest exact-match inside it."""
    from ..canonical import HASH_COL
    from . import view as view_mod

    meta = lake_meta(lake_dir)
    m = view_mod.view_meta(index_dir)
    key = list(meta["key"])
    gb = list(m["group_by"])
    if len(gb) <= len(key) or gb[-len(key):] != key:
        raise ValueError(
            f"view at {index_dir} (group_by={m['group_by']}) is not a "
            f"secondary index of this lake: expected group_by = "
            f"[<col>..., {', '.join(meta['key'])}]"
        )
    idx_cols = gb[: -len(key)]
    vals = tuple(value) if isinstance(value, (tuple, list)) else (value,)
    if len(vals) != len(idx_cols):
        raise ValueError(
            f"index covers columns {idx_cols} — probe with "
            f"{len(idx_cols)} value(s), got {len(vals)}"
        )
    key0 = key[0]
    pairs = view_mod.lookup(index_dir, vals[0])
    gt = dict(m["group_types"])
    for c, v in zip(idx_cols[1:], vals[1:]):
        ct = view_mod._type_from_str(gt[c])
        try:
            sv = pa.scalar(v, ct)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError, TypeError) as e:
            raise ValueError(
                f"probe value {v!r} is not castable to {c!r}'s type {ct}: {e}"
            ) from None
        pairs = pairs.filter(pc.equal(pairs.column(c), sv))
    pairs = pairs.select(key)

    lake_schema = None
    for pid in range(meta["num_partitions"]):
        p = partition_path(lake_dir, pid)
        if os.path.exists(p):
            lake_schema = pq.read_schema(p)
            break
    if lake_schema is None:
        return transcripts_spec().schema.empty_table()
    out_schema = pa.schema([f for f in lake_schema if f.name != HASH_COL])
    if pairs.num_rows == 0:
        return out_schema.empty_table()

    pids = sorted(set(partition_ids(pairs, [key0], meta["num_partitions"]).tolist()))
    key_vals = pairs.column(key0).combine_chunks()
    tabs = []
    for pid in pids:
        p = partition_path(lake_dir, pid)
        if not os.path.exists(p):
            continue
        t = pq.read_table(p)
        if HASH_COL in t.column_names:
            t = t.drop_columns([HASH_COL])
        tabs.append(
            t.filter(pc.is_in(t.column(key0), value_set=key_vals))
            .replace_schema_metadata(None)
        )
    if not tabs:
        return out_schema.empty_table()
    t = pa.concat_tables(tabs)
    # exact composite-key match (keys are non-null by construction, so the
    # arrow join's no-null-match rule cannot drop rows)
    for k in key:
        pairs = pairs.set_column(
            pairs.column_names.index(k), k, pairs.column(k).cast(t.schema.field(k).type)
        )
    t = t.join(pairs, keys=key, join_type="left semi")
    return t.sort_by([(k, "ascending") for k in key])


def lake_stats(lake_dir: str) -> dict:
    """Operational summary from METADATA only (no data read): partition
    count, rows/bytes per the parquet footers, watermark spread, committed
    counters — the reference's update-report rollup as an O(P) footer scan.
    Driver-side by design: footers are ~1 ms each, so even a 10⁵-partition
    lake answers in tens of seconds with zero cluster load; the same holds
    for the other metadata-loop APIs (snapshot/restore hardlinks,
    prune_changes listings)."""
    meta = lake_meta(lake_dir)
    store = ManifestStore(lake_dir)
    wms = store.watermarks()
    rows = 0
    bytes_ = 0
    files = 0
    for pid in range(meta["num_partitions"]):
        p = partition_path(lake_dir, pid)
        if os.path.exists(p):
            rows += pq.read_metadata(p).num_rows
            bytes_ += os.path.getsize(p)
            files += 1
    return {
        "name": meta["name"],
        "num_partitions": meta["num_partitions"],
        "files": files,
        "rows": rows,
        "bytes": bytes_,
        "watermark_min": min(wms.values(), default=-1),
        "watermark_max": max(wms.values(), default=-1),
        "global_watermark": store.global_watermark(),
        "counters": store.total_counts(),
        "protected": bool(meta.get("protected", False)),
    }


def _snapshot_dir(lake_dir: str, tag: str) -> str:
    if not tag or "/" in tag or tag.startswith("."):
        raise ValueError(f"invalid snapshot tag {tag!r}")
    return os.path.join(lake_dir, "_snapshots", tag)


def snapshot(lake_dir: str, tag: str) -> dict:
    """Named snapshot: clone every partition file and the (small) manifests
    + meta into ``_snapshots/<tag>/``. On a posix lake the clone is a
    hardlink — O(partitions) metadata work, zero data bytes move; correct
    because partition writers never modify a file in place (every rewrite
    publishes a NEW inode, leaving the snapshot's hardlinked old inode
    untouched — copy-on-write for free). On an object-store lake the clone
    is a server-side CopyObject per file (independent immutable objects —
    keys get overwritten in place there, so reference-sharing would be
    wrong). Taken under the lake writer lock, so the snapshot is a
    consistent (data + watermark) point: restoring it and re-replaying the
    same WAL resumes exactly from the snapshot's committed state. The
    reference has no state-versioning story at all — its closest analog is
    re-fetching everything into the JSON cache (``CacheFiles.py``)."""
    meta = lake_meta(lake_dir)
    fs = lakefs.fs_for(lake_dir)
    sdir = _snapshot_dir(lake_dir, tag)
    if os.path.exists(sdir):
        if os.path.exists(os.path.join(sdir, "_meta.json")):
            raise FileExistsError(f"snapshot {tag!r} already exists")
        # torn leftover from a crashed snapshot (its _meta.json — the
        # completion marker, cloned LAST — never landed): redo from scratch
        import shutil as _shutil

        _shutil.rmtree(sdir)
    with lake_lock(lake_dir):
        os.makedirs(os.path.join(sdir, "_manifests"))
        # the snapshot dir IS a complete lake — carry the backend marker so
        # it stays self-describing even if relocated
        lakefs.mark_fs(sdir, fs.kind)
        files = 0
        for pid in range(meta["num_partitions"]):
            p = partition_path(lake_dir, pid)
            if os.path.exists(p):
                fs.clone(p, os.path.join(sdir, os.path.basename(p)))
                files += 1
        mdir = os.path.join(lake_dir, "_manifests")
        for fn in os.listdir(mdir):
            if fn.endswith(".json"):
                fs.clone(
                    os.path.join(mdir, fn), os.path.join(sdir, "_manifests", fn)
                )
        fs.clone(
            os.path.join(lake_dir, "_meta.json"), os.path.join(sdir, "_meta.json")
        )
    return {"tag": tag, "files": files}


def snapshot_path(lake_dir: str, tag: str) -> str:
    """Validated filesystem path of a named snapshot (a snapshot directory
    IS a complete read-only lake: partitions + _meta.json + _manifests)."""
    sdir = _snapshot_dir(lake_dir, tag)
    if not os.path.isdir(sdir) or not os.path.exists(
        os.path.join(sdir, "_meta.json")
    ):
        raise FileNotFoundError(
            f"no complete snapshot {tag!r} under {lake_dir} "
            f"(have: {list_snapshots(lake_dir)})"
        )
    return sdir


def read_snapshot(lake_dir: str, tag: str, **read_lake_kwargs):
    """TIME-TRAVEL READ: stream a named snapshot as a Ray Dataset WITHOUT
    restoring it — zero data movement (the snapshot's hardlinked inodes are
    immutable; writers only ever os.replace new inodes in). Accepts every
    ``read_lake`` pruning knob (``columns`` / ``keys`` / ``predicate``),
    so a historical point read costs the same k files as a live one.
    ``lookup`` and ``lake_stats`` also accept :func:`snapshot_path`
    directly — a snapshot is a lake."""
    return read_lake(snapshot_path(lake_dir, tag), **read_lake_kwargs)


def list_snapshots(lake_dir: str) -> list[str]:
    """COMPLETE snapshots only (the per-snapshot _meta.json is the
    completion marker) — a torn leftover from a crashed snapshot() must
    not look restorable."""
    d = os.path.join(lake_dir, "_snapshots")
    if not os.path.isdir(d):
        return []
    return sorted(
        t
        for t in os.listdir(d)
        if not t.startswith(".")
        and os.path.exists(os.path.join(d, t, "_meta.json"))
    )


def snapshot_stats(lake_dir: str) -> list[dict]:
    """Per-snapshot disk accounting, oldest first. On posix lakes hardlinks
    make cost subtle: a snapshot's ``bytes_total`` is mostly shared with
    the live lake (same inodes); its ``bytes_exclusive`` counts only inodes
    whose SOLE remaining directory entry is this snapshot (``st_nlink ==
    1``) — the bytes actually reclaimed by pruning it. On object-store
    lakes every snapshot object is independent (CopyObject), so exclusive
    == total. Metadata-only (O(files) stats, no data read)."""
    fs = lakefs.fs_for(lake_dir)
    out = []
    for tag in list_snapshots(lake_dir):
        sdir = _snapshot_dir(lake_dir, tag)
        total = excl = files = 0
        for root, _, fns in os.walk(sdir):
            for fn in fns:
                p = os.path.join(root, fn)
                files += 1
                total += os.stat(p).st_size
                excl += fs.exclusive_size(p)
        out.append(
            {
                "tag": tag,
                "files": files,
                "bytes_total": total,
                "bytes_exclusive": excl,
                "created_utc": os.stat(sdir).st_mtime,
            }
        )
    out.sort(key=lambda r: r["created_utc"])
    return out


def prune_snapshots(
    lake_dir: str, keep: int = 0, tags: Optional[Sequence[str]] = None
) -> dict:
    """Snapshot retention GC: delete either the named ``tags`` or all but
    the ``keep`` NEWEST snapshots (by creation time). Runs under the
    writer lock so a concurrent ``restore`` can't read a half-deleted
    snapshot. Deleting a snapshot only drops directory entries — inodes
    still linked from the live lake or other snapshots survive untouched
    (restore of every remaining snapshot keeps working), and
    ``bytes_reclaimed`` reports what the filesystem actually freed (the
    pruned snapshots' exclusive inodes, re-stat'd as deletion proceeds so
    cross-snapshot-shared inodes count exactly once, at their last
    reference)."""
    import shutil

    stats = snapshot_stats(lake_dir)
    if tags is not None:
        victims = [r["tag"] for r in stats if r["tag"] in set(tags)]
        missing = set(tags) - set(victims)
        if missing:
            raise FileNotFoundError(f"no such snapshot(s): {sorted(missing)}")
    else:
        victims = [r["tag"] for r in stats[: max(0, len(stats) - int(keep))]]
    # torn leftovers from a crashed snapshot() (no _meta.json completion
    # marker) are invisible to list/stats — GC them here too
    snaps_root = os.path.join(lake_dir, "_snapshots")
    torn = [
        t
        for t in (os.listdir(snaps_root) if os.path.isdir(snaps_root) else [])
        if not t.startswith(".")
        and not os.path.exists(os.path.join(snaps_root, t, "_meta.json"))
    ]
    fs = lakefs.fs_for(lake_dir)
    reclaimed = 0
    with lake_lock(lake_dir):
        for tag in victims + torn:
            sdir = _snapshot_dir(lake_dir, tag)
            for root, _, fns in os.walk(sdir):
                for fn in fns:
                    # last reference → bytes freed (object: always exclusive)
                    reclaimed += fs.exclusive_size(os.path.join(root, fn))
            shutil.rmtree(sdir)
    return {
        "removed": victims + torn,
        "kept": [t for t in list_snapshots(lake_dir)],
        "bytes_reclaimed": reclaimed,
    }


def restore(lake_dir: str, tag: str) -> dict:
    """Roll the lake back to a snapshot (time travel): under the writer
    lock, drop current partition files + manifests and hardlink the
    snapshot's back. Watermarks restore WITH the data (they are one
    consistent point), so a subsequent replay of the same WAL re-applies
    exactly the events past the snapshot — the reprocessing loop
    (snapshot → experiment → restore → replay) costs O(partitions)
    metadata, never a data copy.

    Downstream-consumer contract: a restore does NOT touch any
    ``changes_dir`` this lake has emitted, so views/denorms that consumed
    feed files past the snapshot point stay consistent ONLY if the
    forward re-replay uses the SAME WAL chunk files (the feed's
    deterministic naming + byte-identical content then re-emits exactly
    the files consumers already folded, and their cursors skip them). A
    re-replay with DIFFERENT chunk boundaries emits overlapping feed
    files with new lsn_hi names — re-create downstream consumers in that
    case.

    Downstream-consumer caveat: a restore rewinds the LAKE only. Change
    feeds already emitted for the undone span, and consumers that folded
    them (views, FeedCursors), are NOT rewound. Re-replaying the SAME WAL
    reconverges — the merge is deterministic, so re-emitted feed files are
    byte-identical under their committed (pid, lsn) names and consumers
    past them are unaffected. Replaying a DIFFERENT WAL after restore
    diverges from what consumers already saw: rebuild downstream views
    (``create_view``) / reset cursors in that case."""
    meta = lake_meta(lake_dir)
    sdir = _snapshot_dir(lake_dir, tag)
    if not os.path.isdir(sdir):
        raise FileNotFoundError(f"no snapshot {tag!r} in {lake_dir}")
    if not os.path.exists(os.path.join(sdir, "_meta.json")):
        # the completion marker (linked LAST by snapshot()) is missing —
        # restoring a torn snapshot would wipe the live lake and replace
        # it with a fragment; refuse BEFORE anything destructive
        raise FileNotFoundError(
            f"snapshot {tag!r} is incomplete (interrupted snapshot; no "
            "_meta.json) — delete it and re-snapshot"
        )
    fs = lakefs.fs_for(lake_dir)
    with lake_lock(lake_dir):
        for pid in range(meta["num_partitions"]):
            fs.delete(partition_path(lake_dir, pid))
        mdir = os.path.join(lake_dir, "_manifests")
        for fn in os.listdir(mdir):
            if fn.endswith(".json"):
                fs.delete(os.path.join(mdir, fn))
        files = 0
        # fs.clone is atomic at the destination (posix: link-to-tmp +
        # rename; object: CopyObject) — a crash mid-restore cannot leave a
        # half-written directory entry
        for fn in os.listdir(sdir):
            if fn.endswith(".parquet"):
                fs.clone(os.path.join(sdir, fn), os.path.join(lake_dir, fn))
                files += 1
        for fn in os.listdir(os.path.join(sdir, "_manifests")):
            fs.clone(os.path.join(sdir, "_manifests", fn), os.path.join(mdir, fn))
        fs.clone(
            os.path.join(sdir, "_meta.json"), os.path.join(lake_dir, "_meta.json")
        )
    return {"tag": tag, "files": files}


class FeedCursor:
    """Named exactly-once consumer cursor over a change-feed directory —
    the generic form of the view maintainer's consumed-file tracking, for
    ANY downstream consumer (a second lake's ``follow``, an exporter, an
    alerting job). Offsets are per-source-partition lsn watermarks, stored
    as one small JSON per consumer name next to the feed (Kafka-style
    committed offsets for the file-based feed):

        cur = FeedCursor(changes_dir, "exporter")
        fresh = cur.fresh_files()       # feed files past the cursor
        ...process fresh exactly once...
        cur.commit(fresh)               # durable, atomic

    A consumer that crashes before ``commit`` re-reads the same files next
    time (at-least-once delivery; pair with an idempotent apply — e.g. the
    view writer's in-file watermark vectors — for exactly-once end to end).
    ``prune_changes`` can take the element-wise min across every consumer's
    ``consumed()`` for retention."""

    def __init__(self, changes_dir: str, name: str):
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid cursor name {name!r}")
        self.changes_dir = changes_dir
        self.path = os.path.join(changes_dir, f"_cursor-{name}.json")

    def consumed(self) -> dict[int, int]:
        if not os.path.exists(self.path):
            return {}
        with open(self.path) as f:
            return {int(k): int(v) for k, v in json.load(f).items()}

    def fresh_files(self) -> list[str]:
        import re as _re

        pat = _re.compile(r"changes-(\d{5})-(\d{12})\.parquet$")
        consumed = self.consumed()
        out = []
        for fn in sorted(os.listdir(self.changes_dir)):
            mm = pat.search(fn)
            if mm and int(mm.group(2)) > consumed.get(int(mm.group(1)), -1):
                out.append(os.path.join(self.changes_dir, fn))
        return out

    def commit(self, files) -> None:
        import re as _re

        pat = _re.compile(r"changes-(\d{5})-(\d{12})\.parquet$")
        consumed = self.consumed()
        for f in files:
            mm = pat.search(os.path.basename(f))
            if not mm:
                raise ValueError(f"not a feed file: {f}")
            pid, lsn = int(mm.group(1)), int(mm.group(2))
            if lsn > consumed.get(pid, -1):
                consumed[pid] = lsn
        lakefs.fs_for_path(self.path).put_json(
            self.path, {str(k): int(v) for k, v in consumed.items()}
        )


def prune_changes(changes_dir: str, consumed: dict[int, int]) -> dict:
    """Feed retention (GC): delete change files fully covered by every
    consumer's cursor — ``consumed`` maps source partition id → the lowest
    lsn watermark any consumer still needs (for a single view consumer,
    pass its ``view._load_consumed``; for many, the element-wise min).
    A file ``changes-PPPPP-LLLLLLLLLLLL.parquet`` is prunable iff
    ``L <= consumed[P]``. The feed stays append-only for producers;
    retention is a pure consumer-side contract — the same shape as log
    compaction by committed offsets."""
    import re as _re

    pat = _re.compile(r"changes-(\d{5})-(\d{12})\.parquet$")
    fs = lakefs.fs_for(changes_dir)
    removed = 0
    kept = 0
    for fn in sorted(os.listdir(changes_dir)):
        mm = pat.search(fn)
        if not mm:
            continue
        pid, lsn = int(mm.group(1)), int(mm.group(2))
        if lsn <= consumed.get(pid, -1):
            fs.delete(os.path.join(changes_dir, fn))
            removed += 1
        else:
            kept += 1
    return {"removed": removed, "kept": kept}


def read_changes_ds(changes_dir: str):
    """Streaming read of an outbound change feed as a Ray Dataset — the
    scale path for downstream consumers (the driver-side
    :func:`read_changes` is for tests/small results). Files are
    per-partition per-replay; consumers needing global LSN order sort the
    Dataset (or, like ``replay`` itself, reduce LWW per key instead)."""
    import ray.data as rd

    files = sorted(
        os.path.join(changes_dir, f)
        for f in os.listdir(changes_dir)
        if f.startswith("changes-") and f.endswith(".parquet")
    )
    if not files:
        raise FileNotFoundError(f"no change files in {changes_dir}")
    return rd.read_parquet(files, override_num_blocks=plan.read_blocks(files))


_PRED_OPS = ("<", "<=", ">", ">=", "==", "between")


def _predicate_mask(tbl: pa.Table, predicate) -> pa.ChunkedArray:
    """Vectorized row mask for a conjunctive predicate — a list of
    ``(column, op, value)`` with op ∈ {<, <=, >, >=, ==, between}
    (``between`` takes ``value=(lo, hi)``, both inclusive). NULLs never
    match (SQL comparison semantics)."""
    mask = None
    for col, op, val in predicate:
        c = tbl.column(col)
        if op == "<":
            m = pc.less(c, val)
        elif op == "<=":
            m = pc.less_equal(c, val)
        elif op == ">":
            m = pc.greater(c, val)
        elif op == ">=":
            m = pc.greater_equal(c, val)
        elif op == "==":
            m = pc.equal(c, val)
        elif op == "between":
            lo, hi = val
            m = pc.and_(pc.greater_equal(c, lo), pc.less_equal(c, hi))
        else:
            raise ValueError(f"unknown predicate op {op!r}; use one of {_PRED_OPS}")
        m = pc.fill_null(m, False)
        mask = m if mask is None else pc.and_(mask, m)
    return mask


def _footer_range(md, col_name: str):
    """(min, max) of ``col_name`` across a parquet file's row groups from
    FOOTER statistics only (no data read), or None when any row group
    lacks stats — unknown ranges must never prune."""
    lo = hi = None
    for rg in range(md.num_row_groups):
        g = md.row_group(rg)
        found = False
        for ci in range(g.num_columns):
            c = g.column(ci)
            if c.path_in_schema == col_name:
                found = True
                st = c.statistics
                if st is None or not st.has_min_max:
                    return None
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
        if not found:
            return None  # column absent in this file (evolution) — keep
    return None if lo is None else (lo, hi)


def _prune_paths_by_predicate(paths, predicate) -> list:
    """Zone-map partition pruning (the lake-side analog of the WAL's
    footer-stats chunk pruning, ``sources/wal.py``): keep only files whose
    footer [min, max] can satisfy every conjunct. Conservative by
    construction — missing/incomparable stats keep the file; the exact
    row filter downstream guarantees correctness either way. O(P) footer
    reads (~1 ms each), zero data read for skipped partitions."""
    kept = []
    for p in paths:
        md = pq.read_metadata(p)
        keep = True
        for col, op, val in predicate:
            rng = _footer_range(md, col)
            if rng is None:
                continue
            lo, hi = rng
            try:
                if op == "<":
                    keep = lo < val
                elif op == "<=":
                    keep = lo <= val
                elif op == ">":
                    keep = hi > val
                elif op == ">=":
                    keep = hi >= val
                elif op == "==":
                    keep = lo <= val <= hi
                elif op == "between":
                    keep = hi >= val[0] and lo <= val[1]
            except TypeError:
                keep = True  # incomparable stats vs value — cannot prune
            if not keep:
                break
        if keep:
            kept.append(p)
    return kept


def read_lake(lake_dir: str, columns=None, keys=None, predicate=None):
    """Streaming read of the lake as a Ray Dataset (scale path). Drops the
    internal persisted-hash column.

    ``columns`` prunes at the parquet reader (only those columns leave
    storage). ``keys`` — an iterable of partition-key values — prunes at
    the PARTITION level: the values hash to their partition ids with the
    lake's own partitioner, ONLY those files are listed, and a vectorized
    row filter keeps exactly the requested keys. A k-key read touches at
    most k files regardless of lake size (the multi-key generalization of
    :func:`lookup`). ``predicate`` — a list of ``(column, op, value)``
    conjuncts (see :func:`_predicate_mask`) — prunes at the partition
    level too, via parquet FOOTER min/max zone maps (skipped partitions
    read zero data; effective when the column's values cluster per
    partition, e.g. append-mostly ``ts``/``lsn``), then filters rows
    exactly."""
    import ray.data as rd

    paths, columns, strip = _lake_scan_plan(lake_dir, columns, keys, predicate)
    if not paths:
        return rd.from_arrow(strip(_lake_empty_table(lake_dir, columns)))
    return rd.read_parquet(
        paths, columns=columns, override_num_blocks=plan.read_blocks(paths)
    ).map_batches(strip, batch_format="pyarrow")


def _lake_scan_plan(lake_dir: str, columns, keys, predicate):
    """Shared pruning plan for lake scans: partition-level key/zone-map
    pruning + the per-batch strip (exact key/predicate filter, internal-
    column drop). Returns ``(paths, read_columns, strip)`` — consumed by
    :func:`read_lake` (Ray Dataset) and :func:`iter_lake_batches` (local
    short-circuit for tiny pruned reads)."""
    from ..canonical import HASH_COL

    meta = lake_meta(lake_dir)
    key_col = meta["key"][0]
    pids = range(meta["num_partitions"])
    key_set = None
    key_added = False
    if keys is not None:
        key_set = pa.array(sorted(set(keys)))
        kt = _lake_col_type(lake_dir, meta, key_col)
        if kt is not None and key_set.type != kt:
            # CLI callers always pass strings; probe the lake's own key
            # type (the fix lookup() already carries, generalized to the
            # multi-key scan — a wrong-typed probe hashes to the wrong
            # partitions and silently returns empty)
            try:
                key_set = key_set.cast(kt)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
                raise ValueError(
                    f"keys= values are not castable to {key_col!r}'s type "
                    f"{kt}: {e}"
                ) from None
        probe = pa.table({key_col: key_set})
        pids = sorted(set(partition_ids(probe, [key_col], meta["num_partitions"]).tolist()))
    pred_extra_cols: list = []
    if columns is not None:
        columns = list(columns)
        if key_set is not None and key_col not in columns:
            columns = [key_col] + columns
            key_added = True
        if predicate is not None:
            pred_extra_cols = [
                c for c, _, _ in predicate if c not in columns
            ]
            columns = columns + pred_extra_cols
    paths = [
        partition_path(lake_dir, pid)
        for pid in pids
        if os.path.exists(partition_path(lake_dir, pid))
    ]
    if predicate is not None and paths:
        paths = _prune_paths_by_predicate(paths, predicate)

    # Column-presence audit over the kept files: schema evolution leaves
    # OLDER partition files without later-added columns, and a parquet
    # projection naming an absent column fails the read outright. Columns
    # absent from SOME files read unprojected and pad as typed nulls per
    # batch; absent from EVERY file is a caller error.
    read_columns = columns
    pad_types: dict = {}
    want = list(columns or [])
    if predicate is not None and columns is None:
        want += [c for c, _, _ in predicate]
    if want and paths:
        types: dict = {}
        presence = []
        for p in paths:
            s = pq.read_schema(p)
            presence.append(set(s.names))
            for c in want:
                if c not in types and c in s.names:
                    types[c] = s.field(c).type
        unknown = sorted(set(want) - set(types))
        if unknown:
            raise ValueError(
                f"column(s) {unknown} not present in any scanned partition "
                f"of {lake_dir}"
            )
        pad_types = {
            c: types[c]
            for c in want
            if any(c not in names for names in presence)
        }
        if pad_types and columns is not None:
            read_columns = None  # heterogeneous fragments: no projection

    out_cols = (
        [
            c
            for c in columns
            if c not in pred_extra_cols and not (key_added and c == key_col)
        ]
        if columns is not None
        else None
    )

    def strip(b: pa.Table) -> pa.Table:
        for c, t in pad_types.items():
            if c not in b.column_names:
                b = b.append_column(c, pa.nulls(b.num_rows, t))
        if key_set is not None:
            ks = key_set
            bt = b.column(key_col).type
            if bt != ks.type:  # per-partition width drift (evolution)
                ks = ks.cast(bt)
            b = b.filter(pc.is_in(b.column(key_col), value_set=ks))
        if predicate is not None:
            b = b.filter(_predicate_mask(b, predicate))
        if out_cols is not None:
            b = b.select(out_cols)
        elif HASH_COL in b.column_names:
            b = b.drop_columns([HASH_COL])
        return b.replace_schema_metadata(None) if b.schema.metadata else b

    return paths, read_columns, strip


def _lake_col_type(lake_dir: str, meta: dict, col: str):
    """Type of ``col`` from the first partition file that carries it, or
    None (empty lake). Per-file footer reads only."""
    for pid in range(meta["num_partitions"]):
        p = partition_path(lake_dir, pid)
        if os.path.exists(p):
            s = pq.read_schema(p)
            if col in s.names:
                return s.field(col).type
    return None


def _lake_empty_table(lake_dir: str, columns) -> pa.Table:
    """Typed empty result for a scan whose pruning eliminated every file —
    schema from any existing partition (keys pruned to partitions that hold
    no file yet must still return the real lake schema)."""
    from ..canonical import HASH_COL

    meta = lake_meta(lake_dir)
    any_file = next(
        (
            partition_path(lake_dir, p)
            for p in range(meta["num_partitions"])
            if os.path.exists(partition_path(lake_dir, p))
        ),
        None,
    )
    if any_file is None:
        raise FileNotFoundError(f"empty lake {lake_dir}")
    schema = pq.read_schema(any_file)
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns if c in schema.names])
    if HASH_COL in schema.names:
        schema = pa.schema([f for f in schema if f.name != HASH_COL])
    return schema.empty_table()


def iter_parquet_batches(paths, columns=None, per_batch=None):
    """Yield pyarrow Tables from an explicit parquet file list, each passed
    through ``per_batch`` when given — in-process when the set is tiny (≤
    ``plan.SCAN_LOCAL_BYTES``), else through a block-sized Ray Data read
    with ``per_batch`` as its per-batch map (so it runs in the workers). The
    generic-file sibling of :func:`iter_lake_batches` for feed/index scans
    in the refresh paths."""
    paths = list(paths)
    if not paths:
        return
    if plan.fits(plan.file_bytes(paths), "SCAN_LOCAL_BYTES"):
        for p in paths:
            t = pq.read_table(p, columns=columns)
            if per_batch is not None:
                t = per_batch(t)
            if t.num_rows:
                yield t
        return
    import ray.data as rd

    ds = rd.read_parquet(
        paths, columns=columns, override_num_blocks=plan.read_blocks(paths)
    )
    if per_batch is not None:
        ds = ds.map_batches(per_batch, batch_format="pyarrow")
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            yield b


def iter_lake_batches(lake_dir: str, columns=None, keys=None, predicate=None):
    """Yield the same batches as ``read_lake(...).iter_batches()`` — but
    when the pruned file set is tiny (≤ ``plan.SCAN_LOCAL_BYTES``), read it
    in-process instead of paying a Ray Data launch. The refresh paths
    (view/denorm) do several k-file pruned reads per increment; at steady
    state each is a handful of partition files."""
    paths, read_cols, strip = _lake_scan_plan(lake_dir, columns, keys, predicate)
    yield from iter_parquet_batches(paths, read_cols, strip)


def _foreach_partition(pids, work_one, force_local: bool = False) -> None:
    """Run ``work_one(pid)`` for every partition id — as a Ray Data stage
    (one block per id) when Ray is up, serial driver loop otherwise.

    Lake maintenance is embarrassingly parallel (each child partition
    derives from exactly one parent file); at a 100 TB lake the per-pid
    read→repartition→rewrite passes are thousands of independent file
    rewrites, so routing them through the driver process would make
    maintenance a driver-bound multi-hour pass (VERDICT r2 wrong #3). Only
    the metadata commit phase (meta swap + renames) stays serial.

    ``force_local=True`` is the micro-increment escape hatch: when the
    caller KNOWS the total work is tiny (e.g. a denorm refresh touching a
    few small partition files), a serial driver loop beats the Ray stage
    launch by ~10×. Callers must gate it on measured bytes, never on pid
    count alone."""
    pids = [int(p) for p in pids]
    use_ray = False
    if len(pids) > 1 and not force_local:
        try:
            import ray

            use_ray = ray.is_initialized()
        except Exception:
            use_ray = False
    if not use_ray:
        for p in pids:
            work_one(p)
        return
    import ray.data as rd

    ds = rd.from_items([{"pid": p} for p in pids], override_num_blocks=len(pids))

    def work(b: pa.Table) -> pa.Table:
        for p in b.column("pid").to_pylist():
            work_one(int(p))
        return b

    # consume to drive execution; output is just the pid echo
    for _ in ds.map_batches(work, batch_format="pyarrow").iter_batches(
        batch_size=None
    ):
        pass


def split_partitions(lake_dir: str) -> None:
    """Double the lake's partition count in place (P → 2P).

    Because ``pid = hash(key) % P`` and P | 2P, each old partition splits
    into exactly two children ``{pid, pid+P}`` — no cross-partition data
    movement, each old file is read once and written as two. Children
    inherit the parent's manifest watermark exactly, so resume semantics
    are unchanged. Addresses the fixed-partition-count gap (VERDICT r1
    missing #7): partitions are kept at the few-hundred-MB target as the
    lake grows. Run as offline maintenance (no concurrent replay); the op
    is crash-consistent via a staged-commit marker: phase 1 stages every
    child file (+ manifests) with the OLD meta still authoritative (a
    crash there just reruns phase 1 over unchanged parents); only when
    all children are durably staged does the meta commit the new layout
    WITH a ``maintenance`` marker (atomic tmp+replace); phase 3 renames
    the staged files into place and phase 4 clears the marker. A crash
    between marker and clear leaves a lake whose reads would misroute —
    ``lake_meta`` refuses every op until a rerun of THIS function resumes
    the rename phase (pure ``os.replace`` of surviving staged files,
    idempotent). The heavy per-parent read→split→stage pass runs
    distributed (``_foreach_partition``)."""
    meta = lake_meta(lake_dir, allow_maintenance=True)
    mm = meta.get("maintenance")
    if mm:
        if mm["op"] != "split":
            raise RuntimeError(
                f"lake has an interrupted {mm['op']} — resume that first"
            )
        # resume: staging completed before the marker existed; only the
        # rename phase can be outstanding
        P = int(mm["from"])
        _split_commit(lake_dir, meta, P)
        return
    P = meta["num_partitions"]
    key0 = meta["key"][0]

    def split_one(pid: int) -> None:
        store = ManifestStore(lake_dir)
        p = partition_path(lake_dir, pid)
        if not os.path.exists(p):
            return
        t = pq.read_table(p)
        pids = partition_ids(t, [key0], 2 * P)
        m = store.load(pid)
        for child in (pid, pid + P):
            part = t.filter(pa.array(pids == child))
            atomic_write_parquet(part, partition_path(lake_dir, child) + ".split")
            if m is not None:
                from ..canonical import partition_fingerprint

                store.commit(
                    PartitionManifest(
                        partition=child,
                        lsn_hi=m.lsn_hi,
                        rows=part.num_rows,
                        counts=dict(m.counts) if child == pid else {},
                        schema_names=list(part.schema.names),
                        data_file=f"part-{child:05d}.parquet",
                        content_fp=partition_fingerprint(part, meta["key"]),
                    )
                )

    _foreach_partition(range(P), split_one)
    # commit point: layout + in-progress marker as ONE atomic meta write
    meta["num_partitions"] = 2 * P
    meta["maintenance"] = {"op": "split", "from": P}
    _write_meta(lake_dir, meta)
    _split_commit(lake_dir, meta, P)


def _split_commit(lake_dir: str, meta: dict, P: int) -> None:
    """Phase 3+4 of :func:`split_partitions`: land staged children, clear
    the marker. Idempotent — a rerun skips already-published children (on
    the object backend publish = CopyObject + DELETE; a crash between the
    two leaves the staged object, and this rerun re-publishes the same
    deterministic content over the final key)."""
    fs = lakefs.fs_for(lake_dir)
    for child in range(2 * P):
        staged = partition_path(lake_dir, child) + ".split"
        if os.path.exists(staged):
            fs.publish(staged, partition_path(lake_dir, child))
    meta = dict(meta)
    meta.pop("maintenance", None)
    _write_meta(lake_dir, meta)


def merge_partitions(lake_dir: str) -> None:
    """Halve the lake's partition count in place (P → P/2) — compaction for
    lakes whose partitions shrank below target. ``hash % (P/2) ==
    (hash % P) % (P/2)``, so partitions ``r`` and ``r + P/2`` concatenate
    into new partition ``r`` — again no cross-partition movement. The merged
    manifest takes the MIN of the two watermarks: re-applying an event the
    higher side already absorbed is a NOOP by content hash (deterministic
    merge + idempotent commit), while taking the max could silently skip
    the lower side's unapplied range. Per-pair concat+sort+stage runs
    distributed (``_foreach_partition``); the commit follows the same
    staged-commit marker protocol as :func:`split_partitions` (stage →
    atomic meta+marker → renames/cleanup → marker clear; an interrupted
    commit refuses every op until this function's rerun resumes it)."""
    meta = lake_meta(lake_dir, allow_maintenance=True)
    mm = meta.get("maintenance")
    if mm:
        if mm["op"] != "merge":
            raise RuntimeError(
                f"lake has an interrupted {mm['op']} — resume that first"
            )
        _merge_commit(lake_dir, meta, int(mm["from"]))
        return
    P = meta["num_partitions"]
    if P % 2:
        raise ValueError("merge_partitions requires an even partition count")
    H = P // 2
    key = meta["key"]

    def merge_one(pid: int) -> None:
        store = ManifestStore(lake_dir)
        parts, manifests = [], []
        for src in (pid, pid + H):
            p = partition_path(lake_dir, src)
            if os.path.exists(p):
                t = pq.read_table(p)
                if t.num_rows:
                    parts.append(t)
            m = store.load(src)
            if m is not None:
                manifests.append(m)
        if parts:
            merged = evolve.unify_tables(parts) if len(parts) > 1 else parts
            merged = pa.concat_tables(merged).sort_by(
                [(k, "ascending") for k in key]
            )
        else:
            merged = None
        if merged is not None:
            atomic_write_parquet(merged, partition_path(lake_dir, pid) + ".merge")
        if manifests:
            counts: dict = {}
            for m in manifests:
                for k, v in m.counts.items():
                    counts[k] = counts.get(k, 0) + v
            from ..canonical import partition_fingerprint

            store.commit(
                PartitionManifest(
                    partition=pid,
                    lsn_hi=min(m.lsn_hi for m in manifests),
                    rows=merged.num_rows if merged is not None else 0,
                    counts=counts,
                    schema_names=list(merged.schema.names)
                    if merged is not None
                    else [],
                    data_file=f"part-{pid:05d}.parquet",
                    content_fp=partition_fingerprint(merged, key)
                    if merged is not None
                    else 0,
                )
            )

    _foreach_partition(range(H), merge_one)
    meta["num_partitions"] = H
    meta["maintenance"] = {"op": "merge", "from": P}
    _write_meta(lake_dir, meta)
    _merge_commit(lake_dir, meta, P)


def _merge_commit(lake_dir: str, meta: dict, P: int) -> None:
    """Phase 3+4 of :func:`merge_partitions`: land staged merges, drop the
    high-half files + manifests, clear the marker. Idempotent."""
    fs = lakefs.fs_for(lake_dir)
    H = P // 2
    for pid in range(H):
        staged = partition_path(lake_dir, pid) + ".merge"
        if os.path.exists(staged):
            fs.publish(staged, partition_path(lake_dir, pid))
        fs.delete(partition_path(lake_dir, pid + H))
        fs.delete(os.path.join(lake_dir, "_manifests", f"part-{pid + H:05d}.json"))
    meta = dict(meta)
    meta.pop("maintenance", None)
    _write_meta(lake_dir, meta)


def compact(lake_dir: str, target_bytes: int = 256 << 20) -> int:
    """Keep partitions near ``target_bytes``: repeatedly double the count
    while the average partition exceeds 1.5× target, or halve it while the
    average is under target/3 (and P > 1). Returns the final partition
    count. The split/merge steps preserve watermarks, so replay/resume
    carry straight through maintenance."""
    prev_avg = None
    for _ in range(32):  # bounded: each step is a ×2/÷2
        meta = lake_meta(lake_dir)
        P = meta["num_partitions"]
        total = sum(
            os.path.getsize(partition_path(lake_dir, pid))
            for pid in range(P)
            if os.path.exists(partition_path(lake_dir, pid))
        )
        avg = total / max(P, 1)
        if avg > 1.5 * target_bytes and P < (1 << 20):
            # progress guard: parquet files have a ~2 KB floor (footer +
            # metadata), so a tiny target can become unreachable — stop
            # when a split no longer shrinks the average meaningfully
            if prev_avg is not None and avg > 0.75 * prev_avg:
                break
            prev_avg = avg
            split_partitions(lake_dir)
        elif avg < target_bytes / 3 and P > 1:
            prev_avg = avg
            merge_partitions(lake_dir)
        else:
            break
    return lake_meta(lake_dir)["num_partitions"]


def derive_dup_ignores(
    ds,
    derive_fn,
    key_col: str,
    min_count: int = 2,
    n_buckets: int = 16,
) -> frozenset:
    """Two-pass runtime-discovered ignore set — the reference's
    duplicate-email pre-scan feeding CachedIgnores
    (``/root/reference/bcdc2bcdc/DataCache.py:559-586`` +
    ``CKANData.py:1582-1637``; SURVEY §2.3 ST4, §2.7 D3): records whose
    derived dup-key is shared by ≥ ``min_count`` records are ALL marked
    ignored, and the returned key set feeds the same run's
    ``TableSpec.ignore_keys`` (state-ordering dependency: this pass runs
    BEFORE the replay, mirroring ``runBCDC2BCDC.py:71``).

    ``derive_fn``: ``pa.Table -> pa.Table`` with columns
    ``[key_col, "dup_key"]`` (it also prunes — e.g. keep only turn 0).
    Distributed: derive per batch → ONE bucketed shuffle on hash(dup_key) →
    per-bucket vectorized group-count + semi-join → tiny driver-side set
    (the ignore set is small by construction; it broadcasts into the spec)."""
    import pyarrow.compute as pc_

    from ..canonical import key_hash

    def tag(b: pa.Table) -> pa.Table:
        t = derive_fn(b)
        return t.append_column(
            "__b",
            pa.array((key_hash(t, ["dup_key"]) % n_buckets).astype("int32")),
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        counts = g.group_by(["dup_key"]).aggregate([([], "count_all")])
        bad = counts.filter(
            pc_.greater_equal(counts.column("count_all"), min_count)
        ).column("dup_key")
        mask = pc_.is_in(g.column("dup_key"), value_set=bad.combine_chunks())
        return g.filter(mask).select([key_col])

    out = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
    keys: set = set()
    for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            keys.update(b.column(key_col).to_pylist())
    return frozenset(keys)


class AssignPartition:
    """map_batches fn: add ``__part = hash(conv_id) % P`` and drop events at
    or below their partition's committed watermark (cheap resume filter; the
    MergeWriter re-checks authoritatively).

    Also precomputes the incoming content hash here — the WIDE, whole-
    cluster-parallel stage — for non-evolved, hook-free batches, so the
    CPU-pinned writer actors classify without hashing (stages/delta.py
    consumes ``PRE_HASH_COL`` after validating the compare set)."""

    def __init__(self, spec: TableSpec, num_partitions: int, watermarks: dict):
        self.spec = spec
        self.P = num_partitions
        # dense vector lookup: pid -> watermark (-1 = none). Manifests at
        # pid >= P are strays from a crashed split's staging phase (child
        # manifests commit before the layout marker) — not this layout's
        wm = np.full(num_partitions, -1, dtype=np.int64)
        for pid, w in watermarks.items():
            if pid < num_partitions:
                wm[pid] = w
        self.wm = wm
        from ..canonical import add_content_hash
        from ..stages.delta import PRE_HASH_COL, _compare_columns

        self._cmp = _compare_columns(spec.schema, spec)
        self._spec_data_cols = set(spec.schema.names)
        self._add_hash = add_content_hash
        self._pre_col = PRE_HASH_COL

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids = partition_ids(batch, [self.spec.key[0]], self.P)
        keep = batch.column("lsn").to_numpy(zero_copy_only=False) > self.wm[pids]
        if PART_COL in batch.column_names:
            batch = batch.drop_columns([PART_COL])
        batch = batch.append_column(PART_COL, pa.array(pids, pa.int64()))
        if not keep.all():
            batch = batch.filter(pa.array(keep))
        data_cols = {
            c for c in batch.column_names
            if c not in ("lsn", "op", PART_COL) and not c.startswith("__")
        }
        # the pre-hash is worth ~10% of replay wall at sf0.1 (A/B): it moves
        # incoming-side hashing off the CPU-pinned writer actors onto the
        # wide map stage
        if not self.spec.on_compare and data_cols == self._spec_data_cols:
            batch = self._add_hash(
                batch, self._cmp, self.spec.falsy_null_columns, self._pre_col
            )
        return batch




def _replay_execute(
    lake_dir, spec, P, store, watermarks, live_paths, wal_paths, *,
    salt, hot_key_threshold, concurrency, combine, dry_run, audit_dir,
    auto_compact_bytes, stats, changes_dir, changes_before,
):
    """The mutating half of :func:`replay` — runs under the lake lock
    (non-dry-run) so concurrent replays cannot interleave partition
    rewrites; all distributed execution happens here."""
    import ray.data as rd

    total_bytes = plan.file_bytes(live_paths)

    # Micro-batch fast path: a steady-state CDC increment (a follow poll's
    # tail chunk, a view/denorm refresh's recompute WAL) is a few KB–MB, and
    # the distributed plan charges it the full pipeline launch — read stage +
    # sort shuffle + writer actor-pool spawn, seconds of fixed overhead for
    # milliseconds of merge work (the latency-bound regime BASELINE.md
    # documents for small increments). Below REPLAY_LOCAL_BYTES of live
    # chunk bytes, run the IDENTICAL logical plan driver-side — the same
    # AssignPartition → per-block LWW combiner → MergeWriter calls, so
    # manifests, watermarks, change-feed files and exactly-once semantics
    # are the same code path, just without a cluster round-trip. Same
    # plan-picker pattern as the Jaccard verify's driver-gather cap.
    # Distributed is forced for: salting (a salted micro-batch is a
    # contradiction), stats=True (a probe OF the distributed pipeline), and
    # the _fault_once crash hook (it hard-exits the worker; the retry
    # machinery under test is Ray's). Below the writer pool's CPU floor the
    # local plan is the only one that can run: forced requests are refused,
    # every other replay runs locally whatever its size.
    forced = (
        "salt > 1" if salt and salt > 1
        else "stats=True" if stats
        else "a _fault_once hook"
        if os.path.exists(os.path.join(lake_dir, "_fault_once"))
        else None
    )
    if forced:
        plan.require_pool(f"replay with {forced}")
    else:
        pool_ok = plan.pool_ok()
        if not pool_ok or plan.fits(total_bytes, "REPLAY_LOCAL_BYTES"):
            lineage_tbl = _replay_local(
                lake_dir, spec, P, watermarks, live_paths,
                combine=combine, dry_run=dry_run, changes_dir=changes_dir,
                changes_before=changes_before, may_decline=pool_ok,
            )
            # None = the tiny WAL touches too many PARTITION bytes (the
            # merge is copy-on-write per touched file, so its cost tracks
            # partition size, not WAL size) — those merges want the writer
            # pool's parallelism; fall through to the distributed plan.
            if lineage_tbl is not None:
                return _replay_report(
                    lineage_tbl.to_pandas(), wal_paths, store,
                    dry_run=dry_run, audit_dir=audit_dir,
                    auto_compact_bytes=auto_compact_bytes, lake_dir=lake_dir,
                    spec=spec, stats_text=None, exec_mode="local",
                )
    # reading this 2M-event WAL at Ray's default split produced 224 blocks
    # and an 8-12s sort; at plan.read_blocks the same data sorts in ~1s
    ds = rd.read_parquet(
        list(live_paths), override_num_blocks=plan.read_blocks(live_paths)
    )
    ds = ds.map_batches(
        AssignPartition(spec, P, watermarks), batch_format="pyarrow"
    )

    if combine:
        from ..stages.skew import make_block_combiner

        ds = ds.map_batches(make_block_combiner(spec), batch_format="pyarrow")

    if salt and salt > 1:
        hot = None
        if hot_key_threshold is not None:
            from ..stages.skew import detect_hot_keys

            hot = detect_hot_keys(ds, spec.key[0], hot_key_threshold)
        ds = ds.map_batches(AddSalt(spec, salt, hot), batch_format="pyarrow")
        ds = ds.groupby([PART_COL, SALT_COL]).map_groups(
            make_pre_reducer(spec), batch_format="pyarrow"
        )

    # MergeWriter as a callable CLASS → actor pool: the spec/manifest-store
    # state is built once per actor, not per group. The class is closure-
    # BOUND (stages/merge.bound_writer) instead of taking fn_constructor_args
    # so actor restarts never depend on driver-held argument refs.
    if concurrency is None:
        # bytes-aware (VERDICT r4 next #8): live WAL + current partition
        # files; callers override for bench; on a real cluster size to
        # nodes × cores/writer
        concurrency = plan.writers(
            P,
            total_bytes
            + plan.file_bytes(partition_path(lake_dir, pid) for pid in range(P)),
        )
    from ..stages.merge import bound_writer

    lineage_ds = ds.groupby(PART_COL).map_groups(
        bound_writer(lake_dir, spec, dry_run, changes_dir, changes_before),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    # ≤ P rows — small by construction. Collect as Arrow (schema-less empty
    # boundary blocks would confuse a bare to_pandas()).
    from ..stages.merge import LINEAGE_SCHEMA

    batches = [
        b
        for b in lineage_ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    lineage = (
        pa.concat_tables(batches) if batches else LINEAGE_SCHEMA.empty_table()
    ).to_pandas()
    if stats:
        # Ray Data's per-stage wall/CPU/row breakdown for THIS run — the
        # feedback loop for block sizing / writer-pool tuning at scale.
        _stats_text = lineage_ds.stats()

    return _replay_report(
        lineage, wal_paths, store, dry_run=dry_run, audit_dir=audit_dir,
        auto_compact_bytes=auto_compact_bytes, lake_dir=lake_dir, spec=spec,
        stats_text=_stats_text if stats else None, exec_mode="ray",
    )


def _replay_report(
    lineage, wal_paths, store, *, dry_run, audit_dir, auto_compact_bytes,
    lake_dir, spec, stats_text, exec_mode,
):
    """Assemble the run report and commit the global watermark — shared by
    the distributed and the micro-batch (local) replay executors."""
    from ..sources import wal as wal_src

    report = {
        k: int(lineage[k].sum())
        for k in ("events", "adds", "updates", "deletes", "noops", "skipped")
    }
    # events dropped by the early watermark filter never reach a writer —
    # account for them from parquet footer row counts (no data read).
    total_wal = sum(pq.read_metadata(p).num_rows for p in wal_paths)
    report["skipped"] += total_wal - report["events"]
    report["events"] = total_wal
    report["partitions_touched"] = int(len(lineage))
    report["rows"] = int(lineage["rows"].sum())
    report["lsn_hi"] = int(lineage["lsn_hi"].max()) if len(lineage) else -1
    report["lineage"] = lineage.sort_values("partition").to_dict("records")
    # every event in wal_paths is now durably applied / no-op'd on every
    # partition → advance the lake-level replay watermark (enables whole-chunk
    # pruning, including the tail chunk, on any rerun).
    hi_all = max(
        (wal_src.chunk_stats(p).lsn_hi for p in wal_paths), default=-1
    )
    if not dry_run and 0 <= hi_all < 2**61:  # missing stats → unknown, skip
        store.commit_global(hi_all)
    if audit_dir:
        wal_src.write_audit_json(report, audit_dir, name=f"replay_{spec.name}")
    if auto_compact_bytes is not None and not dry_run:
        # post-replay maintenance: keep partitions near the target so a
        # growing lake never drifts away from the few-hundred-MB sweet spot
        # (split/merge preserve watermarks — resume carries through).
        # Runs AFTER the commit, so a crash here costs only the maintenance.
        report["partitions_after_compact"] = compact(
            lake_dir, target_bytes=auto_compact_bytes
        )
    if stats_text is not None:
        report["ray_stats"] = stats_text
    report["exec"] = exec_mode  # "local" (micro-batch) or "ray" (distributed)
    return report


def _replay_local(
    lake_dir, spec, P, watermarks, live_paths, *,
    combine, dry_run, changes_dir, changes_before, may_decline=True,
) -> Optional[pa.Table]:
    """Driver-side executor for micro-batch replays: the same logical plan
    as the distributed pipeline (AssignPartition → per-block LWW combiner →
    one MergeWriter call per touched partition), run in-process on the
    already-tiny live chunk set. Identical final state, manifests, feed
    files and counters by construction — the stages are the same callables
    the distributed plan ships to workers; equivalence is pytest-pinned
    (test_replay_local_matches_distributed). Returns the lineage table —
    or None when ``may_decline`` and the touched PARTITION files exceed
    ``plan.REPLAY_LOCAL_TOUCH_BYTES``: each merge is a
    copy-on-write rewrite of its partition file, so a 300-event WAL
    spread over 16 large partitions costs 16 partition rewrites that the
    distributed writer pool does in parallel — the caller then falls back
    to the distributed plan (the wasted work is one tiny capped read)."""
    from ..stages import evolve as evolve_mod
    from ..stages.merge import LINEAGE_SCHEMA, PART_COL as _PART, bound_writer
    from ..stages.skew import make_block_combiner

    tabs = [pq.read_table(p) for p in live_paths]
    tbl = (
        tabs[0]
        if len(tabs) == 1
        else pa.concat_tables(evolve_mod.unify_tables(tabs))
    )
    batch = AssignPartition(spec, P, watermarks)(tbl)
    if combine and batch.num_rows:
        batch = make_block_combiner(spec)(batch)
    rows = []
    if batch.num_rows:
        pid_col = batch.column(_PART)
        pids = sorted(pc.unique(pid_col).to_pylist())
        touched = plan.file_bytes(partition_path(lake_dir, pid) for pid in pids)
        if may_decline and not plan.fits(touched, "REPLAY_LOCAL_TOUCH_BYTES"):
            return None
        writer = bound_writer(
            lake_dir, spec, dry_run, changes_dir, changes_before
        )()
        for pid in pids:
            g = batch.filter(pc.equal(pid_col, pid))
            out = writer(g)
            if out.num_rows:
                rows.append(out)
    return pa.concat_tables(rows) if rows else LINEAGE_SCHEMA.empty_table()

def replay(
    lake_dir: str,
    wal_paths: Sequence[str] | str,
    spec: Optional[TableSpec] = None,
    *,
    salt: Optional[int] = None,
    hot_key_threshold: Optional[int] = None,
    concurrency: Optional[int] = None,
    combine: bool = True,
    dry_run: bool = False,
    force: bool = False,
    audit_dir: Optional[str] = None,
    auto_compact_bytes: Optional[int] = None,
    stats: bool = False,
    changes_dir: Optional[str] = None,
    changes_before: bool = False,
    _locked: bool = False,
) -> dict:
    """Replay WAL parquet chunks against the lake. Returns the run report:
    total adds/updates/deletes/noops/skipped + per-partition lineage rows.

    ``combine`` (default on) applies the shuffle-free per-block LWW combiner
    before the merge groupby — collapses duplicate keys (hot conversations
    especially) so the one all-to-all shuffle moves only surviving rows.
    ``salt=S`` additionally enables the salted pre-reduce SHUFFLE; with
    ``hot_key_threshold`` set, only detected hot conversations are salted
    (two-pass), otherwise every key is (single-pass, no detection scan).
    Reserve salting for streams where one partition's distinct keyspace
    exceeds a single writer's capacity; the combiner already flattens
    duplicate-heavy skew without moving data.

    Report note: ``skipped`` counts events that never reached a writer's
    classifier — watermark-filtered replays plus (when ``combine`` is on)
    lower-LSN duplicates collapsed by the combiner.

    ``dry_run=True`` runs the full pipeline — pruning, shuffle, classify,
    counters — but writes NOTHING (no partition files, no manifests, no
    watermark advance): the sink-side what-would-change report. A lake
    marked ``mark_protected`` refuses a mutating replay unless ``force=True``
    (the reference's do-not-write guard, ``CKAN.py:431-460``).
    ``audit_dir`` persists the run report + per-partition lineage as a JSON
    audit file (K2 debug-dump analog). ``changes_dir`` additionally emits
    the OUTBOUND change feed: per partition, one WAL-shaped parquet of the
    rows this replay actually added/updated/deleted (no-ops suppressed —
    the reference's debug dumps of changed records, ``CacheFiles.py``, as
    a first-class CDC fan-out: the feed replays into another lake; see
    :func:`read_changes`). ``changes_before=True`` adds Debezium-style
    ``before_<col>`` pre-image columns to the feed (null for adds) —
    required by incremental view maintenance (``pipelines/view.py``).
    ``auto_compact_bytes`` runs
    :func:`compact` toward that per-partition target after a successful
    mutating replay (post-commit maintenance; adds
    ``partitions_after_compact`` to the report)."""
    import ray.data as rd

    spec = spec or transcripts_spec()
    meta = lake_meta(lake_dir)
    P = meta["num_partitions"]
    from ..canonical import HASH_VERSION

    lake_hash = meta.get("hash", HASH_VERSION)
    if lake_hash != HASH_VERSION:
        raise ValueError(
            f"lake {lake_dir} was partitioned with hash '{lake_hash}' but this "
            f"engine uses '{HASH_VERSION}' — re-init or migrate the lake "
            "(partition assignment would silently mis-route keys otherwise)"
        )
    if meta.get("protected") and not (force or dry_run):
        raise ProtectedLakeError(
            f"lake {lake_dir} is marked protected (do-not-write); pass "
            "force=True to override or dry_run=True for a what-would-change "
            "report"
        )
    store = ManifestStore(lake_dir)

    from ..sources import wal as wal_src

    if isinstance(wal_paths, str):
        wal_paths = (
            wal_src.list_wal_chunks(wal_paths)
            if os.path.isdir(wal_paths)
            else [wal_paths]
        )
    # chunk-level resume: skip whole chunks committed on every partition
    # using parquet FOOTER lsn stats only (no data read).
    watermarks = store.watermarks()
    live_paths, pruned_rows = wal_src.prune_committed_chunks(
        wal_paths, watermarks, P, global_watermark=store.global_watermark()
    )
    if not live_paths:
        total_wal = sum(pq.read_metadata(p).num_rows for p in wal_paths)
        return {
            "events": total_wal, "adds": 0, "updates": 0, "deletes": 0,
            "noops": 0, "skipped": total_wal, "partitions_touched": 0,
            "rows": ManifestStore(lake_dir).total_counts()["rows"],
            "lsn_hi": max(watermarks.values(), default=-1),
            "lineage": [], "exec": "pruned",
        }
    if dry_run or _locked:
        # dry_run: read-only, no lock needed, safe beside a live writer.
        # _locked: the CALLER already holds the lake lock (delete_where /
        # update_where hold it across emit+apply so a concurrent writer
        # cannot advance watermarks past the emitted LSNs in between).
        return _replay_execute(
        lake_dir, spec, P, store, watermarks, live_paths, wal_paths,
        salt=salt, hot_key_threshold=hot_key_threshold,
        concurrency=concurrency, combine=combine, dry_run=dry_run,
        audit_dir=audit_dir, auto_compact_bytes=auto_compact_bytes,
        stats=stats, changes_dir=changes_dir, changes_before=changes_before,
        )
    with lake_lock(lake_dir):
        return _replay_execute(
        lake_dir, spec, P, store, watermarks, live_paths, wal_paths,
        salt=salt, hot_key_threshold=hot_key_threshold,
        concurrency=concurrency, combine=combine, dry_run=dry_run,
        audit_dir=audit_dir, auto_compact_bytes=auto_compact_bytes,
        stats=stats, changes_dir=changes_dir, changes_before=changes_before,
        )


def follow(
    lake_dir: str,
    wal_dir: str,
    spec: Optional[TableSpec] = None,
    *,
    max_rounds: int = 100,
    idle_rounds_to_stop: int = 1,
    poll_sleep_s: float = 0.0,
    **replay_kwargs,
) -> dict:
    """Streaming tail-consumption mode (SURVEY §2.9): poll ``wal_dir`` for
    chunks and replay whatever the committed watermarks haven't covered yet,
    until ``idle_rounds_to_stop`` consecutive polls find nothing new (or
    ``max_rounds``). Each round is one exactly-once ``replay`` — a chunk
    that was fully applied is footer-stats-pruned on every later poll, so
    an idle poll costs one directory listing + one metadata pass, no reads.

    This is the micro-batch continuous-ingest shape: a producer appends
    ordered chunk files; the follower keeps the lake at the WAL head. At
    cluster scale the same loop runs as a driver-side supervisor — all the
    actual work is the distributed replay pipeline.
    """
    from ..sources import wal as wal_src

    spec = spec or transcripts_spec()
    rounds = 0
    idle = 0
    totals = {"adds": 0, "updates": 0, "deletes": 0, "noops": 0, "events": 0}
    last = None
    while rounds < max_rounds and idle < idle_rounds_to_stop:
        paths = wal_src.list_wal_chunks(wal_dir)
        rep = replay(lake_dir, paths, spec, **replay_kwargs) if paths else {
            "events": 0, "adds": 0, "updates": 0, "deletes": 0,
            "noops": 0, "skipped": 0,
        }
        rounds += 1
        # `events` reports the WHOLE listed WAL (pruned rows count into
        # `skipped`) — a poll is idle iff nothing actually reached the merge
        fresh = rep["events"] - rep.get("skipped", 0)
        if fresh <= 0:
            idle += 1
        else:
            idle = 0
            last = rep
            for k in ("adds", "updates", "deletes", "noops"):
                totals[k] += rep.get(k, 0)
            totals["events"] += fresh
        if poll_sleep_s and idle < idle_rounds_to_stop:
            import time

            time.sleep(poll_sleep_s)
    return {
        "rounds": rounds,
        "lsn_hi": (last or {}).get("lsn_hi", -1),
        **totals,
    }


def diff_lakes(
    dst_dir: str,
    src_dir: str,
    out_dir: str,
    spec: Optional[TableSpec] = None,
) -> dict:
    """The reference's CORE semantic at lake scale: compare a DESTINATION
    lake against a SOURCE lake and emit the update plan — a WAL whose
    replay makes DST equal SRC (``runBCDC2BCDC.py``'s whole purpose:
    deltas of adds/updates/deletes from a source-vs-destination compare,
    ``CKANData.py:1426-1466`` + ``Diff.py:48-53`` — except the reference
    deep-diffs in one driver process while this runs one classify per
    co-partitioned pair, embarrassingly parallel and content-hash-backed).

    Both lakes must share the partition layout (key, count, hash version),
    which every lake pair produced by this engine from the same spec does
    — the compare then never shuffles: partition i of DST only ever meets
    partition i of SRC. Emitted per-partition chunk files
    ``diff-{pid}-*.parquet`` are WAL-shaped with LSNs above DST's global
    watermark, so ``replay(dst, <chunks>)`` applies them directly — the
    defining property ``replay(dst, diff_lakes(dst, src)) == src`` is
    pytest-pinned. NOOP-suppression comes free from the content-hash
    classify: identical rows yield no event."""
    from ..canonical import HASH_COL
    from ..stages import delta as delta_mod

    spec = spec or transcripts_spec()
    dmeta, smeta = lake_meta(dst_dir), lake_meta(src_dir)
    for k in ("num_partitions", "key", "hash"):
        if dmeta[k] != smeta[k]:
            raise ValueError(
                f"lakes are not co-partitioned: {k} differs "
                f"({dmeta[k]!r} vs {smeta[k]!r})"
            )
    P = dmeta["num_partitions"]
    os.makedirs(out_dir, exist_ok=True)
    # base ABOVE every watermark the destination holds — global AND
    # per-partition (a lake whose global marker trails its partition
    # watermarks, e.g. seeded by an engine path that forgot commit_global,
    # would otherwise get events at an already-committed lsn, which the
    # replay's exactly-once filter silently skips)
    dst_store = ManifestStore(dst_dir)
    base_lsn = (
        max(
            dst_store.global_watermark(),
            max(dst_store.watermarks().values(), default=-1),
        )
        + 1
    )
    key = list(spec.key)

    # Unchanged-partition skip: both sides' manifests carry an
    # order-independent key→content fingerprint committed with every write
    # (canonical.partition_fingerprint) — equal fp + equal rows means the
    # per-row classify below would emit ZERO events, so the pair of files
    # never needs to be read. O(P) driver-side JSON loads; at an
    # incremental 100-TB sync (most partitions untouched) this turns the
    # diff from "read both lakes" into "read the changed partitions".
    src_store = ManifestStore(src_dir)
    live_pids, skipped_parts = [], 0
    for pid in range(P):
        dm, sm = dst_store.load(pid), src_store.load(pid)
        if (
            dm is not None
            and sm is not None
            and dm.content_fp is not None
            and dm.content_fp == sm.content_fp
            and dm.rows == sm.rows
        ):
            skipped_parts += 1
            continue
        live_pids.append(pid)

    def diff_one(pid: int) -> None:
        dst = read_partition_file(dst_dir, pid)
        src = read_partition_file(src_dir, pid)
        if dst is None and src is None:
            return
        schema_hint = (src if src is not None else dst).schema
        if dst is None:
            dst = schema_hint.empty_table()
        if src is None:
            src = schema_hint.empty_table()
        # src rows as upsert events (unique per key already — a lake)
        ev = src
        if HASH_COL in ev.column_names:
            ev = ev.drop_columns([HASH_COL])
        ev = ev.append_column("op", pa.array(["upsert"] * ev.num_rows))
        ev = ev.append_column(
            "lsn", pa.array(np.arange(ev.num_rows, dtype=np.int64) + base_lsn)
        )
        joined, dschema = delta_mod.classify_delta(dst, ev, spec)
        feed = delta_mod.change_feed(joined, dschema, spec)
        # change_feed covers add/update; dst-only keys (KEEP with no
        # incoming side) become deletes
        has_inc = pc.is_valid(joined.column("__h_inc"))
        keep_dead = pc.and_(
            pc.equal(joined.column(delta_mod.OP_COL), delta_mod.KEEP),
            pc.invert(has_inc),
        )
        dead = joined.filter(keep_dead)
        if dead.num_rows:
            cols = {
                "lsn": pa.array(
                    np.arange(dead.num_rows, dtype=np.int64)
                    + base_lsn
                    + feed.num_rows,
                    pa.int64(),
                ),
                "op": pa.array(["delete"] * dead.num_rows),
            }
            for fld in dschema:
                cols[fld.name] = (
                    dead.column(fld.name)
                    if fld.name in key
                    else pa.nulls(dead.num_rows, fld.type)
                )
            feed = pa.concat_tables([feed, pa.table(cols, schema=feed.schema)])
        if feed.num_rows:
            # normalize op vocabulary to the WAL's (add/update → upsert)
            op = feed.column("op")
            op = pc.if_else(pc.equal(op, "delete"), op, pa.array(
                ["upsert"] * feed.num_rows
            ))
            feed = feed.set_column(feed.column_names.index("op"), "op", op)
            atomic_write_parquet(
                feed, os.path.join(out_dir, f"diff-{pid:05d}.parquet")
            )

    def read_partition_file(lake_dir, pid):
        p = partition_path(lake_dir, pid)
        return pq.read_table(p) if os.path.exists(p) else None

    _foreach_partition(live_pids, diff_one)
    files = sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.startswith("diff-") and f.endswith(".parquet")
    )
    events = sum(pq.read_metadata(f).num_rows for f in files)
    return {
        "chunks": len(files),
        "events": events,
        "base_lsn": base_lsn,
        "partitions_skipped": skipped_parts,
        "partitions_compared": len(live_pids),
    }


def sync_from(
    lake_dir: str,
    source,
    spec: Optional[TableSpec] = None,
    *,
    stage_dir: Optional[str] = None,
    keep_stage: bool = False,
    resume_stage: bool = False,
    **replay_kwargs,
) -> dict:
    """The reference's END-TO-END job as one call: make the lake equal an
    arbitrary full-state SOURCE — a Ray Dataset, pyarrow Table, or parquet
    path(s) — by reading full source + full destination, classifying every
    record ADD / UPDATE / DELETE / no-op and applying the delta (the whole
    of ``/root/reference/bin/runBCDC2BCDC.py:40-201`` ``updateX``; classify
    = ``CKANData.py:1468`` ``getDelta``). Three engine stages, each
    already exactly-once:

    1. the source STAGES as a temporary co-partitioned lake
       (:func:`bootstrap_lake` — the one shuffle; resumable, lsn=0 adds);
    2. :func:`diff_lakes` compares per co-located partition pair, skipping
       unchanged partitions by manifest content fingerprint WITHOUT
       reading them;
    3. :func:`replay` applies the emitted WAL (micro-batch local path when
       the delta is small). ``replay_kwargs`` flow to the apply — pass
       ``changes_dir=`` to propagate the sync's deltas into feeds / views
       / denorms downstream.

    Scale shape: cost = write(source) + read(changed partitions) +
    apply(delta). The staging write is the honest price of FULL-STATE
    sync (the reference re-reads the entire source every run too); for
    change-stream ingest use :func:`replay` directly. Crash anywhere →
    rerun: the stage bootstrap resumes, the diff re-emits
    deterministically, the replay no-ops applied events.

    Convergence is exact up to FALSY canonicalization (the M6
    both-falsy-equal rule, ``Diff.py:55-67``): a falsy source value
    (``""``) and a stored null are one record state, so the classify
    suppresses the no-op and the stored shape keeps its history — oracle
    comparisons should go through ``canonical.canonicalize`` on both
    sides.
    """
    import shutil as _shutil

    spec = spec or transcripts_spec()
    meta = lake_meta(lake_dir)
    if isinstance(source, pa.Table):
        import ray.data as rd

        source = rd.from_arrow(source)
    if stage_dir is None:
        stage_dir = os.path.join(
            "/tmp", f"sync_stage_{spec.name}_{uuid.uuid4().hex[:10]}"
        )
    out_dir = stage_dir + "_wal"
    if not resume_stage:
        # a surviving stage (keep_stage workflow / crashed earlier sync of
        # a DIFFERENT source) must not shadow this run's source: bootstrap
        # into an existing lake is watermark-skipped, so the diff would
        # silently run against the STALE staged contents — and stale diff
        # chunks in out_dir would be re-applied. resume_stage=True opts
        # into adopting both — only valid for a crashed sync of the
        # IDENTICAL source.
        _shutil.rmtree(stage_dir, ignore_errors=True)
        _shutil.rmtree(out_dir, ignore_errors=True)
    try:
        bootstrap_lake(
            source, stage_dir, spec, num_partitions=meta["num_partitions"]
        )
        d = diff_lakes(lake_dir, stage_dir, out_dir, spec)
        chunks = sorted(
            os.path.join(out_dir, f)
            for f in os.listdir(out_dir)
            if f.startswith("diff-") and f.endswith(".parquet")
        )
        rep = replay(lake_dir, chunks, spec, **replay_kwargs)
        rep["diff"] = {
            k: d[k]
            for k in (
                "events", "chunks", "partitions_skipped", "partitions_compared",
            )
        }
        return rep
    finally:
        if not keep_stage:
            _shutil.rmtree(stage_dir, ignore_errors=True)
            _shutil.rmtree(out_dir, ignore_errors=True)


def _emit_where(
    lake_dir: str,
    predicate,
    out_dir: str,
    spec: TableSpec,
    *,
    op: str,
    set_values: Optional[dict] = None,
    prefix: str,
    index_dir: Optional[str] = None,
    index_changes_dir: Optional[str] = None,
) -> dict:
    """Shared emitter for :func:`delete_where` / :func:`update_where`:
    scan only the partitions whose footer zone maps can satisfy the
    predicate (``_prune_paths_by_predicate`` — skipped partitions read
    ZERO data), filter rows exactly, and write one WAL-shaped chunk per
    touched partition with LSNs above every watermark the lake holds.
    Embarrassingly parallel (one task per partition, never a shuffle);
    the emitted chunks feed the ordinary exactly-once :func:`replay`."""
    if not predicate:
        raise ValueError(
            "predicate must have at least one (column, op, value) conjunct "
            "— a full-table mutation should be explicit (read + re-init)"
        )
    meta = lake_meta(lake_dir)
    P = meta["num_partitions"]
    names = set(spec.schema.names)
    # evolved columns live in the LAKE but not in a (possibly stale)
    # caller spec: legal predicate targets, and — for updates — payload
    # that must round-trip through the emitted upsert (an upsert replaces
    # the whole row; dropping them would silently null them)
    evolved_types: dict = {}
    for col, _o, _v in predicate:
        if col not in names:
            t = _lake_col_type(lake_dir, meta, col)
            if t is None:
                raise ValueError(
                    f"predicate column {col!r} not in table schema "
                    f"{sorted(names)} nor in any lake partition"
                )
            evolved_types[col] = t
    key = list(spec.key)
    if set_values:
        for col in set_values:
            if col not in names:
                raise ValueError(f"set column {col!r} not in table schema")
            if col in key:
                raise ValueError(
                    f"cannot update key column {col!r} — a key change is a "
                    "delete + add, not an update (row identity would fork)"
                )
    store = ManifestStore(lake_dir)
    base_lsn = (
        max(
            store.global_watermark(),
            max(store.watermarks().values(), default=-1),
        )
        + 1
    )
    os.makedirs(out_dir, exist_ok=True)
    # clear stale chunks from any previous emit into this out_dir (e.g. an
    # inspected apply=False run): the post-emit listing below is by prefix
    # glob, and a leftover chunk's LSNs sit above the never-advanced
    # watermarks — a later apply would execute the OLD predicate too
    for fn in os.listdir(out_dir):
        if fn.startswith(f"{prefix}-") and fn.endswith(".parquet"):
            os.unlink(os.path.join(out_dir, fn))

    # Index acceleration: with a secondary index whose LEADING column has
    # an equality conjunct in the predicate, resolve the matching keys
    # through ONE index file and scan only the partitions that hold them
    # — O(matching rows) instead of O(lake) for the common "mutate by
    # attribute value" shape (retention by tool, erasure by user). The
    # exact predicate mask still runs on every read row, so the index only
    # PRUNES; contract (same as lookup_by/denorm): the index must be at
    # the lake head — pass ``index_changes_dir`` to refresh it first, and
    # replay the lake with ``changes_dir=`` so the feed exists.
    live_pids = range(P)
    key_filter = None
    if index_dir is not None:
        from . import view as view_mod

        if index_changes_dir and os.path.isdir(index_changes_dir):
            view_mod.refresh_view(index_dir, index_changes_dir)
        im = view_mod.view_meta(index_dir)
        gb = list(im["group_by"])
        if len(gb) <= len(key) or gb[-len(key):] != key:
            raise ValueError(
                f"view at {index_dir} (group_by={gb}) is not a secondary "
                f"index of this lake (expected [...cols, {', '.join(key)}])"
            )
        idx_cols = gb[: -len(key)]
        eq = {c: v for c, o, v in predicate if o == "=="}
        if idx_cols[0] not in eq:
            raise ValueError(
                f"index at {index_dir} leads on {idx_cols[0]!r} — the "
                "predicate needs an equality conjunct on it to be "
                "index-accelerated (drop index_dir= for a zone-map scan)"
            )
        pairs = view_mod.lookup(index_dir, eq[idx_cols[0]])
        gt = dict(im["group_types"])
        for c in idx_cols[1:]:
            if c in eq:
                pairs = pairs.filter(
                    pc.equal(
                        pairs.column(c),
                        pa.scalar(eq[c], view_mod._type_from_str(gt[c])),
                    )
                )
        key_filter = pc.unique(pairs.column(key[0]).combine_chunks())
        live_pids = (
            sorted(
                set(
                    partition_ids(
                        pa.table({key[0]: key_filter}), [key[0]], P
                    ).tolist()
                )
            )
            if len(key_filter)
            else []
        )

    # delete needs only key + predicate columns off storage; update needs
    # the full payload (an upsert replaces the row) INCLUDING columns the
    # lake evolved past the caller's spec
    if op == "delete":
        read_cols = sorted(set(key) | {c for c, _, _ in predicate})
    else:
        from ..canonical import HASH_COL as _HC

        lake_cols: dict = {}
        for pid in range(P):
            p = partition_path(lake_dir, pid)
            if os.path.exists(p):
                s = pq.read_schema(p)
                for f in s:
                    if f.name != _HC and f.name not in lake_cols:
                        lake_cols[f.name] = f.type
        evolved_types.update(
            {c: t for c, t in lake_cols.items() if c not in names}
        )
        read_cols = sorted(set(spec.schema.names) | set(lake_cols))
    col_type = {
        **{f.name: f.type for f in spec.schema},
        **evolved_types,
    }

    def emit_one(pid: int) -> None:
        p = partition_path(lake_dir, pid)
        if not os.path.exists(p):
            return
        if not _prune_paths_by_predicate([p], predicate):
            return  # zone-map skip: this partition cannot hold a match
        # older files may predate an evolved column (schema drift is legal
        # per partition): project what exists, pad the rest as spec-typed
        # nulls — a predicate on the padded column simply never matches
        have = set(pq.read_schema(p).names)
        t = pq.read_table(p, columns=[c for c in read_cols if c in have])
        for c in read_cols:
            if c not in have:
                t = t.append_column(c, pa.nulls(t.num_rows, col_type[c]))
        if key_filter is not None:
            t = t.filter(pc.is_in(t.column(key[0]), value_set=key_filter))
        t = t.filter(_predicate_mask(t, predicate))
        if t.num_rows == 0:
            return
        n = t.num_rows
        cols = {
            "lsn": pa.array(
                np.arange(n, dtype=np.int64) + base_lsn, pa.int64()
            ),
            "op": pa.array([op] * n, pa.string()),
        }
        for fld in spec.schema:
            if fld.name in key:
                cols[fld.name] = t.column(fld.name).cast(fld.type)
            elif op == "delete":
                cols[fld.name] = pa.nulls(n, fld.type)
            elif set_values is not None and fld.name in set_values:
                cols[fld.name] = pa.array(
                    [set_values[fld.name]] * n, fld.type
                )
            else:
                cols[fld.name] = t.column(fld.name).cast(fld.type)
        if op != "delete":
            # evolved payload passes through the upsert unchanged
            for c, ct in evolved_types.items():
                cols[c] = t.column(c).cast(ct)
        atomic_write_parquet(
            pa.table(cols), os.path.join(out_dir, f"{prefix}-{pid:05d}.parquet")
        )

    _foreach_partition(list(live_pids), emit_one)
    files = sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.startswith(f"{prefix}-") and f.endswith(".parquet")
    )
    return {
        "chunks": len(files),
        "events": sum(pq.read_metadata(f).num_rows for f in files),
        "base_lsn": base_lsn,
        "partitions_scanned": len(list(live_pids)),
        "files": files,
    }


def delete_where(
    lake_dir: str,
    predicate,
    spec: Optional[TableSpec] = None,
    *,
    out_dir: Optional[str] = None,
    apply: bool = True,
    index_dir: Optional[str] = None,
    index_changes_dir: Optional[str] = None,
    **replay_kw,
) -> dict:
    """Predicate-driven bulk delete (retention / right-to-erasure): emit
    delete events for every lake row matching a conjunctive ``predicate``
    (see :func:`_predicate_mask`) and — with ``apply=True`` (default) —
    replay them through the ordinary exactly-once merge path, so
    downstream consumers stay correct for free: the change feed
    (``changes_dir=``/``changes_before=`` pass through to :func:`replay`)
    carries the deletions into incremental views and chained lakes.

    The reference has no bulk mutation (every delete is one hand-picked
    API POST, ``CKANUpdate.py:251-305``); at lake scale the natural form
    is declarative. The scan is zone-map pruned per partition (an
    append-mostly ``ts`` predicate touches only the matching time range's
    partitions) and column-pruned to key + predicate columns — the wide
    payload never leaves storage. ``apply=False`` emits the WAL into
    ``out_dir`` without applying (the what-would-change dry run; replay it
    later or inspect it). Rerunning the same delete is a no-op (matching
    rows are gone; nothing is emitted).

    ``index_dir=`` (a :func:`create_index` on a predicate column with an
    equality conjunct) resolves the matching keys through ONE index file
    and scans only the partitions that hold them — O(matching) instead of
    O(lake); ``index_changes_dir=`` refreshes the index to the feed head
    first. The exact predicate still filters every read row."""
    import shutil
    import tempfile

    spec = spec or transcripts_spec()
    tmp = None
    if out_dir is None:
        if not apply:
            raise ValueError("apply=False requires out_dir= to keep the WAL")
        tmp = tempfile.mkdtemp(prefix="delete_where_")
        out_dir = tmp
    try:
        if apply:
            # one lock across emit + apply: a concurrent writer cannot
            # advance watermarks past the emitted LSNs in between (the
            # exactly-once filter would silently skip them)
            with lake_lock(lake_dir):
                rep = _emit_where(
                    lake_dir, predicate, out_dir, spec,
                    op="delete", prefix="del",
                    index_dir=index_dir, index_changes_dir=index_changes_dir,
                )
                rep = {"matched": rep["events"], **rep}
                if rep["files"]:
                    rep["replay"] = replay(
                        lake_dir, rep["files"], spec, _locked=True, **replay_kw
                    )
        else:
            rep = _emit_where(
                lake_dir, predicate, out_dir, spec, op="delete", prefix="del",
                index_dir=index_dir, index_changes_dir=index_changes_dir,
            )
            rep = {"matched": rep["events"], **rep}
        rep.pop("files", None)
        return rep
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def update_where(
    lake_dir: str,
    predicate,
    set_values: dict,
    spec: Optional[TableSpec] = None,
    *,
    out_dir: Optional[str] = None,
    apply: bool = True,
    index_dir: Optional[str] = None,
    index_changes_dir: Optional[str] = None,
    **replay_kw,
) -> dict:
    """Predicate-driven bulk update: for every lake row matching
    ``predicate``, emit an upsert whose ``set_values`` columns are
    overwritten with the given constants (key columns refused — a key
    change forks row identity) and replay it exactly-once. Rows whose
    target columns already hold those constants classify NOOP by content
    hash, so re-running the same update costs a pruned scan and changes
    nothing. Same pruning, feed propagation and ``apply``/``out_dir``
    semantics as :func:`delete_where`."""
    import shutil
    import tempfile

    spec = spec or transcripts_spec()
    if not set_values:
        raise ValueError("set_values must name at least one column")
    tmp = None
    if out_dir is None:
        if not apply:
            raise ValueError("apply=False requires out_dir= to keep the WAL")
        tmp = tempfile.mkdtemp(prefix="update_where_")
        out_dir = tmp
    try:
        if apply:
            with lake_lock(lake_dir):  # see delete_where: emit+apply atomic
                rep = _emit_where(
                    lake_dir, predicate, out_dir, spec,
                    op="upsert", set_values=set_values, prefix="upd",
                    index_dir=index_dir, index_changes_dir=index_changes_dir,
                )
                rep = {"matched": rep["events"], **rep}
                if rep["files"]:
                    rep["replay"] = replay(
                        lake_dir, rep["files"], spec, _locked=True, **replay_kw
                    )
        else:
            rep = _emit_where(
                lake_dir, predicate, out_dir, spec,
                op="upsert", set_values=set_values, prefix="upd",
                index_dir=index_dir, index_changes_dir=index_changes_dir,
            )
            rep = {"matched": rep["events"], **rep}
        rep.pop("files", None)
        return rep
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def fsck(
    lake_dir: str, spec: Optional[TableSpec] = None, parallel: bool = False
) -> dict:
    """Lake integrity audit — verifies, per partition, the invariants every
    other operation SILENTLY relies on: (a) each row's persisted content
    hash matches a fresh recompute over the file's hash_cols (a stale/
    corrupt stored hash turns future classifies into phantom updates or
    missed ones — exactly the class of the null-context hash bug this
    check would have caught on first run); (b) every row's key hashes to
    the partition that holds it (mis-routing breaks the co-partitioning
    every join/merge/diff assumes); (c) rows are key-sorted and key-unique
    (the O1 determinism + LWW contracts); (d) the manifest row count
    matches the file. Runs one task per partition via the same distributed
    scaffolding as maintenance; report aggregates per-check violation
    counts. Read-only."""
    import json as _json

    from ..canonical import HASH_COL, add_content_hash, partition_ids as _pids

    spec = spec or transcripts_spec()
    meta = lake_meta(lake_dir)
    P = meta["num_partitions"]
    key = list(meta["key"])
    store = ManifestStore(lake_dir)
    results: dict = {}

    def _check_partition(pid: int, results: dict) -> None:
        p = partition_path(lake_dir, pid)
        if not os.path.exists(p):
            return
        t = pq.read_table(p)
        rep = {"rows": t.num_rows, "bad_hash": 0, "misrouted": 0,
               "unsorted": 0, "dup_keys": 0, "manifest_mismatch": 0,
               "bad_fp": 0}
        if HASH_COL in t.column_names:
            md = t.schema.metadata or {}
            hc = _json.loads(md.get(b"hash_cols", b"null"))
            if hc:
                # the falsy canonicalization is part of the hash's identity
                # and travels in the file metadata (a lake written under a
                # different spec than the caller's — e.g. a denorm lake,
                # falsy=() — must be audited under ITS OWN rules); files
                # from before falsy_cols was persisted fall back to the spec
                fc = md.get(b"falsy_cols")
                falsy = (
                    tuple(_json.loads(fc))
                    if fc is not None
                    else spec.falsy_null_columns
                )
                rh = add_content_hash(
                    t.drop_columns([HASH_COL]), hc, falsy, "__rh",
                )
                neq = pc.invert(pc.equal(t.column(HASH_COL), rh.column("__rh")))
                rep["bad_hash"] = int(
                    pc.sum(pc.cast(pc.fill_null(neq, True), pa.int64())).as_py() or 0
                )
        if t.num_rows:
            routed = _pids(t, [key[0]], P)
            rep["misrouted"] = int((routed != pid).sum())
            srt = t.select(key)
            idx = pc.sort_indices(
                srt, sort_keys=[(k, "ascending") for k in key]
            ).to_numpy(zero_copy_only=False)
            rep["unsorted"] = int((idx != np.arange(len(idx))).sum() > 0)
            import pandas as _pd

            rep["dup_keys"] = int(
                _pd.DataFrame(
                    {k: t.column(k).to_numpy(zero_copy_only=False) for k in key}
                ).duplicated().sum()
            )
        m = store.load(pid)
        if m is not None and m.rows != t.num_rows:
            rep["manifest_mismatch"] = 1
        if (
            m is not None
            and m.content_fp is not None
            and HASH_COL in t.column_names
        ):
            # the at-rest audit of the diff-skip invariant: a stale stored
            # fingerprint would make diff_lakes silently skip a CHANGED
            # partition
            from ..canonical import partition_fingerprint as _pfp

            if _pfp(t, key) != m.content_fp:
                rep["bad_fp"] = 1
        results[pid] = rep

    if parallel:
        # distributed audit: one task per partition, report rows flow back
        # through the dataset (the 100 TB shape — each check is independent)
        import ray.data as rd

        def work(b: pa.Table) -> pa.Table:
            local: dict = {}
            for pid in b.column("pid").to_pylist():
                _check_partition(int(pid), local)
            if not local:
                return pa.table({"pid": pa.array([], pa.int64())})
            keys = ("rows", "bad_hash", "misrouted", "unsorted",
                    "dup_keys", "manifest_mismatch", "bad_fp")
            return pa.table(
                {"pid": pa.array(sorted(local), pa.int64())}
                | {
                    k: pa.array(
                        [local[p][k] for p in sorted(local)], pa.int64()
                    )
                    for k in keys
                }
            )

        ds = rd.from_items(
            [{"pid": p} for p in range(P)], override_num_blocks=P
        )
        for b in ds.map_batches(work, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        ):
            for row in b.to_pylist():
                pid = row.pop("pid")
                results[pid] = row
    else:
        for pid in range(P):
            _check_partition(pid, results)
    totals = {
        k: int(sum(r[k] for r in results.values()))
        for k in ("rows", "bad_hash", "misrouted", "unsorted", "dup_keys",
                  "manifest_mismatch", "bad_fp")
    }
    totals["partitions_checked"] = len(results)
    totals["clean"] = all(
        totals[k] == 0
        for k in ("bad_hash", "misrouted", "unsorted", "dup_keys",
                  "manifest_mismatch", "bad_fp")
    )
    return totals
