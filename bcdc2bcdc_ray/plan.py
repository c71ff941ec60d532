"""Plan sizing: the one home of the engine's local-vs-distributed crossovers.

Every crossover applies one rule — run on the driver at or under a byte cap,
else run on Ray — and the distributed plans share three sizing rules: the
cluster CPU count, the read-block count and the writer-pool size.

Three caps take an environment override, read on every call so one process
can switch plans between calls (``0`` forces the distributed plan):

- ``REPLAY_LOCAL_BYTES``: live WAL bytes (``cdc.replay``) or feed bytes
  (``view.refresh_view``) under which the driver-side micro-batch plan runs;
- ``REPLAY_LOCAL_TOUCH_BYTES``: touched partition-file bytes above which
  that micro-batch plan hands its merges to the distributed writer pool;
- ``DRIVER_GATHER_BYTES``: the payload a crossover may gather on the driver
  (view repair dirty set and lake slice, ``read_window`` pane fold, denorm
  affected set, Jaccard candidate verify, near-dup drop set).

The other caps are plain constants; callers read them as ``plan.X`` at call
time, so tests can ``monkeypatch.setattr`` them.
"""

from __future__ import annotations

import os

REPLAY_LOCAL_BYTES = 1 << 20
REPLAY_LOCAL_TOUCH_BYTES = 32 << 20
DRIVER_GATHER_BYTES = 64 << 20
_ENV_CAPS = ("REPLAY_LOCAL_BYTES", "REPLAY_LOCAL_TOUCH_BYTES", "DRIVER_GATHER_BYTES")

# pruned k-file reads (cdc.iter_parquet_batches / iter_lake_batches) and the
# denorm per-partition recompute run in-process under this many bytes: at
# steady state the cluster round-trip costs ~100x the read itself
SCAN_LOCAL_BYTES = 8 << 20

# Ray's auto-split shreds small reads into hundreds of tiny blocks and the
# sort-based groupby exchange grows with the SQUARE of the block count, so
# every distributed read sizes its blocks explicitly: ~one per CPU, capped at
# 16 (more concurrent sort/merge tasks saturate one node's memory bandwidth;
# 16 blocks beat 32 at 32 CPUs), and ~128 MB each once the bytes term wins
MAX_CPU_BLOCKS = 16
BLOCK_BYTES = 128 << 20

# writer pool: one writer per ~2 partitions (P//2 doubled throughput over
# P//4 at 32 CPUs), lifted to min(P, FAT_WRITERS) when the average touched
# bytes per partition exceed WRITER_FAT_BYTES (few fat partitions would
# otherwise queue behind a 2-writer pool), never more than MAX_WRITERS
WRITER_FAT_BYTES = 32 << 20
FAT_WRITERS = 8
MAX_WRITERS = 16
# the pool leaves one CPU to the read/shuffle stages that feed it; below two
# cluster CPUs it would take the only one and the streaming executor hangs
MIN_POOL_CPUS = 2


def fits(nbytes: float, cap: str) -> bool:
    """Whether ``nbytes`` is at or under the cap named ``cap`` — i.e. the
    driver-side plan runs."""
    limit = globals()[cap]
    if cap in _ENV_CAPS:
        limit = int(os.environ.get(cap, limit))
    return nbytes <= limit


def file_bytes(paths) -> int:
    """Total on-disk size of ``paths``; a missing file counts as 0."""
    total = 0
    for p in paths:
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


def cpus() -> int:
    """Cluster CPU count (8 before Ray is up)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def read_blocks(paths) -> int:
    """``override_num_blocks`` for a distributed parquet read of ``paths``."""
    return max(min(cpus(), MAX_CPU_BLOCKS), file_bytes(paths) // BLOCK_BYTES, 1)


def pool_ok() -> bool:
    """Whether the cluster has the CPUs a writer pool needs."""
    return cpus() >= MIN_POOL_CPUS


def require_pool(what: str) -> None:
    """Refuse ``what`` — a request that can only run on the writer pool —
    on a cluster below the pool's CPU floor, instead of hanging."""
    if not pool_ok():
        raise ValueError(
            f"{what} needs a Ray writer pool, which needs at least "
            f"{MIN_POOL_CPUS} cluster CPUs (this cluster has {cpus()}): the "
            "pool would take the only CPU from the stage that feeds it"
        )


def writers(P: int, touched_bytes: int) -> int:
    """Writer-pool size for a merge over ``P`` partitions whose live input
    plus current partition files total ``touched_bytes``."""
    target = P // 2
    if touched_bytes / max(P, 1) > WRITER_FAT_BYTES:
        target = max(target, min(P, FAT_WRITERS))
    return max(1, min(MAX_WRITERS, target, cpus() - 1))
