"""Benchmark entry point.

    python3 perfbench/run.py --workload bulk_replay --seed 1 --seconds 15 --trace 0

Run from the repository root. Prints one JSON object as the last (and only)
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Everything else, Ray's output included, goes to stderr.
Exits non-zero without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

T_PROCESS = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bulk_replay", "tail_follow", "view_refresh")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="input size; smoke is for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, ROOT)
    try:
        import bcdc2bcdc_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench import workloads

    # only the result goes to stdout: route fd 1 (Python, Ray, native
    # libraries) to stderr for the run and keep the real stdout aside
    out_fd = os.dup(1)
    sys.stdout.flush()
    os.dup2(2, 1)
    work = os.path.join(ROOT, ".pbwork")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = workloads.execute(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size,
            ROOT, work, T_PROCESS,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(out_fd, 1)
        os.close(out_fd)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
