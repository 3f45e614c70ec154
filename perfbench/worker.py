"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py RUN_DIR SPAWN_TIME [SPANS_FILE]

Reads ``RUN_DIR/job.json`` (the verb and the config dict), makes the one
experiment call with ``threads=1`` and writes ``RUN_DIR/result.json``.
``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it
started this interpreter (the clock is system-wide on Linux), so
``setup_s`` runs from interpreter start to the experiment call: Python
start-up, ``import pathfv.experiments``, then ``load_config`` and
``validate_config``.  With ``SPANS_FILE`` the call is traced and the spans
are written there after the call.

Right before and right after the call the worker times a fixed calibration
kernel that runs no pathfv code (``calibrate``); ``run.py`` divides the
repetition's times by it, so a box that runs slower for a while reads the
same.
"""

import json
import logging
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CALIBRATION_REPS = 2  # calibration kernels before the call, and again after


def calibration_kernel():
    """Fixed Python and NumPy work that touches no pathfv code.

    It mixes what the workloads spend their time on: a per-item Python loop
    with scalar arithmetic and tiny arrays, and vectorized passes over a few
    thousand values.  Its time measures the speed of the box at the moment,
    and no change to pathfv can change it.
    """
    import numpy as np

    values = np.random.default_rng(20080808).random(4096)
    acc = 0.0
    for i in range(12000):
        x = float(values[i % 4096])
        pair = np.array([x, 1.0 - x])
        acc += math.sqrt(9.81 * x) * 0.5 + float(pair.sum())
        if (pair == pair[::-1]).all():
            acc += 1.0
    for _ in range(150):
        order = np.argsort(values * acc)
        values = np.sqrt(values[order] + 1.0) - 0.5
    return acc + float(values.sum())


def calibrate():
    """Times of ``CALIBRATION_REPS`` calibration kernels, one after another."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return times


class CountingHandler(logging.Handler):
    """Counts log records instead of printing them."""

    def __init__(self):
        super().__init__()
        self.events = 0

    def emit(self, record):
        self.events += 1


def main(argv):
    run_dir, spawn = argv[0], float(argv[1])
    spans_file = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, SRC)
    import pathfv.experiments as px

    if not os.path.abspath(px.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"pathfv imported from {px.__file__}, not from {SRC}")
    with open(os.path.join(run_dir, "job.json")) as fh:
        job = json.load(fh)
    cfg = px.validate_config(px.load_config(job["config"]))
    ready = time.perf_counter()

    # inadmissible-cell warnings are counted, not printed
    warnings = CountingHandler()
    schemes_log = logging.getLogger("pathfv.schemes")
    schemes_log.addHandler(warnings)
    schemes_log.propagate = False
    from pathfv.paths import _equilibrium_h_cached as cache

    cache_before = cache.cache_info()
    calibration = calibrate()
    tracer = None
    if spans_file:
        from tracer import Tracer  # the script's directory is on sys.path

        tracer = Tracer(run_id=job["run_id"])
        tracer.install()
    fn = px.run if job["verb"] == "run" else px.sweep_hugoniot
    error = None
    t0 = time.perf_counter()
    try:
        fn(cfg, os.path.join(run_dir, "out"), threads=1)
    except Exception as exc:  # reported as a failed operation
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache_after = cache.cache_info()
    calibration += calibrate()

    if tracer is not None:
        tracer.save(spans_file)
    result = {
        "setup_s": ready - spawn,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "calibration_s": calibration,
        "error": error,
        "inadmissible_events": warnings.events,
        "cache_hits": cache_after.hits - cache_before.hits,
        "cache_misses": cache_after.misses - cache_before.misses,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
