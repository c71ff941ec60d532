"""The benchmark's own tests, run explicitly from the repository root:

    python3 -m pytest perfbench/check_perfbench.py -q

The file name keeps them out of a bare ``pytest`` run of the repository's
own suite. The smoke runs start Ray (2 CPUs) once per workload and mode,
about two minutes in all."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import oracle, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(result: dict, trace: bool) -> None:
    """The result contract: exactly these keys, whole counts, and every
    metric of the mode with its declared unit and a finite value."""
    bench = _bench()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_benchmark_json_shape():
    b = _bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in b["workloads"]] == ["bulk_replay", "tail_follow", "view_refresh"]
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in b["end_to_end"])
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["bulk_replay", "tail_follow", "view_refresh"])
def test_smoke_run_meets_contract(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1, p.stdout  # stdout carries the result only
    validate(json.loads(lines[0]), bool(trace))


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("tail_follow", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_matches_reference_replay(seed):
    from bcdc2bcdc_ray import changegen as cg

    lake = cg.gen_transcripts(60, seed=seed)
    events = cg.gen_change_events(3000, 60, seed=seed + 10)
    got, counts = oracle.lww_apply(lake, events)
    assert got.equals(cg.oracle_replay(lake, events))
    assert sum(counts.values()) == oracle.last_per_key(events).num_rows
    # applying in two halves lands on the same state
    half = events.num_rows // 2
    mid, _ = oracle.lww_apply(lake, events.slice(0, half))
    end, _ = oracle.lww_apply(mid, events.slice(half))
    assert end.equals(got)


def test_untraced_patch_points_hold_the_engine_callables():
    assert tracing.installed_wrappers() == []
    t = tracing.Tracer()
    with tracing.patched(t):
        assert len(tracing.installed_wrappers()) == len(tracing.PATCH_POINTS)
    assert tracing.installed_wrappers() == []


def test_wrappers_record_spans_where_the_engine_calls():
    from bcdc2bcdc_ray import canonical
    from bcdc2bcdc_ray import changegen as cg

    lake = cg.gen_transcripts(20, seed=1)
    t = tracing.Tracer()
    with tracing.patched(t):
        canonical.partition_ids(lake, ["conv_id"], 4)  # -> key_hash -> content_hash
    assert [s.name for s in t.spans] == ["canonical.content_hash"]
