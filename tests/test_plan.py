"""Plan sizing (bcdc2bcdc_ray/plan.py): the writer-pool rule and its CPU
floor."""

import os
import subprocess
import sys
import textwrap

import pytest

from bcdc2bcdc_ray import plan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "cpus, P, touched_mb, want",
    [
        (2, 16, 0, 1),  # perfbench's 2-CPU session: one writer
        (4, 16, 0, 3),  # one CPU left to the feeding stages
        (32, 16, 0, 8),  # P // 2
        (32, 64, 0, 16),  # MAX_WRITERS
        (32, 4, 0, 2),  # thin partitions: P // 2
        (32, 4, 4 * 33, 4),  # fat partitions lift to min(P, 8)
        (32, 16, 16 * 33, 8),  # fat never changes the P >= 16 shapes
    ],
)
def test_writers_pool_sizes(monkeypatch, cpus, P, touched_mb, want):
    monkeypatch.setattr(plan, "cpus", lambda: cpus)
    assert plan.writers(P, touched_mb << 20) == want


_ONE_CPU_DRIVE = textwrap.dedent(
    """
    import os, sys

    import pyarrow.parquet as pq
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from bcdc2bcdc_ray import changegen as cg
    from bcdc2bcdc_ray.pipelines import cdc
    from bcdc2bcdc_ray.spec import transcripts_spec

    d = sys.argv[1]
    spec = transcripts_spec()
    lake = cg.gen_transcripts(200, seed=42)
    events = cg.gen_change_events(3000, 200, seed=43)
    cdc.init_lake(lake, os.path.join(d, "lake"), spec, num_partitions=8)
    paths = cg.write_wal_chunks(events, os.path.join(d, "wal"), num_chunks=4)
    refused = []
    for kw in ({"salt": 4}, {"stats": True}):
        try:
            cdc.replay(os.path.join(d, "lake"), paths, spec, **kw)
        except ValueError as e:
            refused.append("2 cluster CPUs" in str(e))
    rep = cdc.replay(os.path.join(d, "lake"), paths, spec)
    got = cdc.read_lake_table(os.path.join(d, "lake"))
    pq.write_table(lake, os.path.join(d, "snap.parquet"))
    try:
        cdc.bootstrap_lake(os.path.join(d, "snap.parquet"),
                           os.path.join(d, "boot"), spec, num_partitions=8)
    except ValueError as e:
        refused.append("2 cluster CPUs" in str(e))
    ray.shutdown()
    print(rep["exec"], got.equals(cg.oracle_replay(lake, events)), refused)
    """
)


def test_one_cpu_cluster_replays_locally_and_refuses_pool(tmp_path):
    """On a 1-CPU Ray session a writer pool would take the only CPU and the
    streaming executor would hang. ``replay`` must take its driver-side
    local plan even with ``REPLAY_LOCAL_BYTES=0`` and land on the oracle;
    requests only the pool can run (salt, stats, ``bootstrap_lake``) must
    raise instead of hanging. Runs in its own process and Ray session."""
    env = dict(os.environ, REPLAY_LOCAL_BYTES="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_DRIVE, str(tmp_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    assert r.stdout.strip().splitlines()[-1] == "local True [True, True, True]"
