"""Vectorized reference answers for the benchmark's correctness checks.

``lww_apply`` is the last-writer-wins replay: per (conv_id, turn_idx) the
max-LSN event wins, a delete removes the row, and an upsert whose content
equals the current row (text/tool falsy forms canonicalized to null) is a
no-op that keeps the current row. It is pinned against the row-at-a-time
``changegen.oracle_replay`` in check_perfbench.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

KEY = ["conv_id", "turn_idx"]
_FALSY = ("text", "tool")


def _canon(col):
    """'' and 'None' read as null, the engine's falsy canonicalization."""
    return pc.if_else(pc.is_in(col, pa.array(["", "None"])), pa.scalar(None, col.type), col)


def _same(a, b):
    """Null-safe elementwise equality."""
    eq = pc.fill_null(pc.equal(a, b), False)
    return pc.or_(eq, pc.and_(pc.is_null(a), pc.is_null(b)))


def last_per_key(events: pa.Table) -> pa.Table:
    """The max-LSN event of every key (duplicates of one LSN are copies)."""
    s = events.take(
        pc.sort_indices(events, [(k, "ascending") for k in KEY] + [("lsn", "ascending")])
    )
    n = s.num_rows
    last = np.ones(n, dtype=bool)
    if n > 1:
        conv = s.column("conv_id").to_numpy(zero_copy_only=False)
        turn = s.column("turn_idx").to_numpy(zero_copy_only=False)
        last[:-1] = (conv[1:] != conv[:-1]) | (turn[1:] != turn[:-1])
    return s.filter(pa.array(last))


def lww_apply(state: pa.Table, events: pa.Table) -> tuple[pa.Table, dict]:
    """(state after ``events``, adds/updates/deletes/noops the engine must
    report for them). ``state`` is key-sorted with the lake's columns; the
    result is too."""
    cols = state.column_names
    payload = [c for c in cols if c not in KEY]
    last = last_per_key(events)
    cur = state.append_column("__present", pa.array(np.ones(state.num_rows, dtype=bool)))
    cur = cur.rename_columns([c if c in KEY else f"__cur_{c}" for c in cur.column_names])
    j = last.join(cur, keys=KEY, join_type="left outer")
    present = pc.fill_null(j.column("__cur___present"), False)
    is_del = pc.equal(j.column("op"), "delete")
    same = None
    for c in payload:
        a, b = j.column(c), j.column(f"__cur_{c}")
        if c in _FALSY:
            a, b = _canon(a), _canon(b)
        eq = _same(a, b)
        same = eq if same is None else pc.and_(same, eq)
    pr = present.to_numpy(zero_copy_only=False)
    dl = is_del.to_numpy(zero_copy_only=False)
    sm = same.to_numpy(zero_copy_only=False)
    ups = ~dl
    counts = {
        "adds": int((ups & ~pr).sum()),
        "updates": int((ups & pr & ~sm).sum()),
        "deletes": int((dl & pr).sum()),
        "noops": int((ups & pr & sm).sum() + (dl & ~pr).sum()),
    }
    # keys whose current row goes away (deleted or replaced) vs. new rows
    changed = pa.array(dl | ~(pr & sm))
    gone = j.filter(changed).select(KEY)
    kept = state.join(gone, keys=KEY, join_type="left anti")
    new_rows = j.filter(pa.array(ups & ~(pr & sm))).select(cols).cast(state.schema)
    out = pa.concat_tables([kept.select(cols), new_rows])
    return out.sort_by([(k, "ascending") for k in KEY]), counts


def view_recompute(lake: pa.Table) -> pa.Table:
    """count / sum_len(text) / max(turn_idx) per conv_id, sorted by conv_id:
    the full re-aggregation an incremental view must equal."""
    t = pa.table(
        {
            "conv_id": lake.column("conv_id"),
            "len": pc.fill_null(pc.cast(pc.utf8_length(lake.column("text")), pa.int64()), 0),
            "turn_idx": lake.column("turn_idx"),
        }
    )
    g = t.group_by("conv_id").aggregate(
        [("conv_id", "count"), ("len", "sum"), ("turn_idx", "max")]
    )
    return pa.table(
        {
            "conv_id": g.column("conv_id"),
            "n_rows": pc.cast(g.column("conv_id_count"), pa.int64()),
            "n_chars": pc.cast(g.column("len_sum"), pa.int64()),
            "max_turn": g.column("turn_idx_max"),
        }
    ).sort_by([("conv_id", "ascending")])


class RowIndex:
    """Per-conv_id row slices of a conv_id-sorted table, for point-read
    checks."""

    def __init__(self, table: pa.Table, col: str = "conv_id"):
        self.table = table
        keys = table.column(col).to_numpy(zero_copy_only=False)
        start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if len(keys) else []
        end = np.append(start[1:], len(keys))
        self._slices = {keys[s]: (int(s), int(e)) for s, e in zip(start, end)}

    def rows(self, key) -> pa.Table:
        s, e = self._slices.get(key, (0, 0))
        return self.table.slice(s, e - s)
