"""Ray bring-up and host readings for one benchmark run.

The run owns its Ray session: a fixed CPU count, a private temp dir in the
checkout, workers that can import the package from the checkout,
and ``ray.shutdown()`` on every exit path.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shutil
import tempfile
import time

import numpy as np

# At 1 CPU the replay's writer pool, max(1, min(16, target, cpus - 1)),
# takes the only CPU and the read/sort tasks never schedule (the replay
# hangs). 2 CPUs is the smallest width on which the distributed plan runs.
RAY_CPUS = 2
OBJECT_STORE_BYTES = 768 << 20

# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<pid>/sockets/plasma_store (up to ~65
# bytes past the temp dir).
_MAX_TEMP_DIR_LEN = 40


def other_raylets() -> int:
    """Raylet processes alive on this host (other Ray sessions)."""
    n = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/comm") as f:
                if f.read().strip() == "raylet":
                    n += 1
        except OSError:
            continue
    return n


def host_probe_ms(reps: int = 5) -> float:
    """Median wall of a fixed single-core numpy loop. Reported raw, never
    used to rescale a timing."""
    x = np.arange(1 << 20, dtype=np.float64)
    y = np.empty_like(x)  # in place: no allocator or page-fault cost
    walls = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(20):
            np.multiply(x, 1.0001, out=y)
            np.add(y, acc, out=y)
            np.sqrt(y, out=y)
            acc += float(y.sum())
        walls.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(walls[1:]))  # the first pass warms the pages


def reset_peak_rss() -> None:
    """Reset this process's peak RSS (VmHWM) to its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM) since the last reset, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _ray_temp_dir(root: str) -> str:
    """Ray's temp dir: ``<root>/.pbray`` when its socket paths fit, else a
    short private dir under the system temp dir."""
    inside = os.path.join(root, ".pbray")
    if len(inside) <= _MAX_TEMP_DIR_LEN:
        os.makedirs(inside, exist_ok=True)
        return inside
    return tempfile.mkdtemp(prefix="pbray-")


@contextlib.contextmanager
def ray_session(root: str):
    """Start a local Ray instance for this run; yields its start wall (s).
    The temp dir is removed after shutdown."""
    # workers start from the raylet's environment: without the checkout on
    # PYTHONPATH, a run launched outside the package dir fails in ReadParquet
    # with ModuleNotFoundError
    prev = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = root + (os.pathsep + prev if prev else "")
    temp_dir = _ray_temp_dir(root)
    t0 = time.perf_counter()
    import ray
    from ray.data import DataContext

    try:
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=temp_dir,
        )
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        yield time.perf_counter() - t0
    finally:
        ray.shutdown()
        shutil.rmtree(temp_dir, ignore_errors=True)
