"""pathfv benchmark: wall time of one experiment call, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --smoke              # tiny sizes, self-test
    python3 perfbench/run.py --store-reference    # rewrite seed-0 artifacts

Each repetition runs in a fresh interpreter (``worker.py``), one at a
time, and makes one call of ``pathfv.experiments.run`` or
``sweep_hugoniot`` with ``threads=1`` on the workload's config.  The
config is generated here from ``--seed``; the program receives only that
dict.  Repetitions continue while another one fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json (medians over
the repetitions).  Each repetition's times are divided by the time of a
calibration kernel the worker runs around the call, and multiplied by
``CALIBRATION_REF_S``: the box's speed swings by up to a factor of two
within seconds, and the ratio stays put.  The raw medians are printed too.  ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics (medians over the traced
ones); the traced calls are wrapped by ``tracer.py`` from outside the
package.  Every repetition's artifacts are checked; the last line of
standard output is one JSON object, and the exit code is 1 when a check
failed.
"""

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
REP_TIMEOUT_S = 150
MIN_UNTRACED = 3  # repetitions per run without tracing
MIN_EACH_TRACED = 2  # untraced and traced repetitions per traced run
# wall_s and setup_s are given at the speed at which the worker's calibration
# kernel takes this long (about the 2-vCPU test box's usual speed)
CALIBRATION_REF_S = 0.075


def _repetition(wl, cfg, run_id, traced, seed, tiny, keep_artifacts=False):
    """Run one repetition in a worker process and check its artifacts."""
    import numpy as np
    import workloads
    from metrics import layer_metrics

    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    started = time.perf_counter()
    try:
        job = {"verb": wl.verb, "config": cfg, "run_id": run_id}
        (run_dir / "job.json").write_text(json.dumps(job))
        spans_file = WORK / f"{wl.name}.spans.npz"
        cmd = [sys.executable, str(HERE / "worker.py"), str(run_dir)]
        spawn = time.perf_counter()
        cmd.append(repr(spawn))
        if traced:
            cmd.append(str(spans_file))
        try:
            code = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                  timeout=REP_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = f"timeout after {REP_TIMEOUT_S} s"
        result_file = run_dir / "result.json"
        if result_file.is_file():
            worker = json.loads(result_file.read_text())
        else:
            worker = {"error": f"worker failed: {code}"}
        rep = {"traced": traced, "worker": worker, "problems": []}
        out = run_dir / "out" / cfg["name"]
        operations = workloads.operations(wl, cfg)
        if worker["error"] is None:
            try:
                operations, failures, summary = wl.check(cfg, out)
            except (OSError, ValueError, KeyError) as exc:
                failures, summary = operations, {"check_error": repr(exc)}
        else:
            failures, summary = operations, {"error": worker["error"]}
        if failures:
            rep["problems"].append(f"{failures}/{operations} operations failed: {summary}")
        rep.update(operations=operations, failures=failures, summary=summary)
        files = workloads.artifact_files(out) if out.is_dir() else {}
        rep["bytes_written"] = sum(len(b) for b in files.values())
        if keep_artifacts:
            rep["artifacts"] = files
        if seed == 0 and not tiny and out.is_dir():
            rep["reference"] = workloads.compare_with_reference(wl.name, out)
        if traced and worker["error"] is None:
            with np.load(spans_file) as z:
                spans = {k: z[k] for k in z.files}
            names = [str(n) for n in spans.pop("names")]
            spans.pop("run_id")
            rep["layers"], calls = layer_metrics(names, spans, worker, rep)
            missing = [n for n in wl.required if calls.get(n, 0) == 0]
            if missing:
                rep["problems"].append(f"traced layers recorded no calls: {missing}")
            # the root span's own entry and exit (about 20 us) lie outside it
            wall = rep["layers"]["trace.wall_s"]
            unattributed = wall * (1.0 - rep["layers"]["trace.self_sum_frac"])
            if abs(unattributed) > 1e-3 * wall + 1e-4:
                rep["problems"].append("layer self times do not sum to the traced wall")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rep["elapsed"] = time.perf_counter() - started
    return rep


def measure(wl, seed, seconds, trace, tiny=False, keep_artifacts=False, reps=None):
    """Repetitions of one workload for about ``seconds`` (or ``reps`` of them)."""
    import workloads

    cfg = workloads.make_config(wl.name, seed, tiny)
    start = time.perf_counter()
    done = []
    longest = 0.0
    while True:
        traced = trace and len(done) % 2 == 1
        run_id = f"{wl.name}-seed{seed}-rep{len(done)}"
        rep = _repetition(wl, cfg, run_id, traced, seed, tiny, keep_artifacts)
        done.append(rep)
        longest = max(longest, rep["elapsed"])
        if reps is not None:
            if len(done) >= reps:
                break
            continue
        untraced = sum(not r["traced"] for r in done)
        enough = (untraced >= MIN_EACH_TRACED and len(done) - untraced >= MIN_EACH_TRACED
                  if trace else untraced >= MIN_UNTRACED)
        if enough and time.perf_counter() - start + longest > seconds:
            break
    return done


class Summary(NamedTuple):
    metrics: dict  # name -> {"value", "unit"}, in BENCHMARK.json order
    attempted: int
    failed: int
    problems: list
    notes: dict  # sample counts, failed_frac, artifact comparison, checks


def summarize(wl, reps, trace, spec):
    """The metrics and outcome of one workload's repetitions."""
    plain = [r for r in reps if not r["traced"] and r["worker"]["error"] is None]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["operations"] for r in reps)
    failed = sum(r["failures"] for r in reps)

    def med(values):
        return statistics.median(values) if values else math.nan

    def scaled(r, key):  # the repetition's time at the reference speed
        return r["worker"][key] * CALIBRATION_REF_S / statistics.median(
            r["worker"]["calibration_s"])

    wall = med([scaled(r, "wall_s") for r in plain])
    metrics = {}
    if trace:
        for name in traced[0]["layers"] if traced else ():
            metrics[name] = med([r["layers"][name] for r in traced])
        if traced:
            metrics["trace.overhead_frac"] = (
                med([scaled(r, "wall_s") for r in traced]) / wall - 1.0)
            metrics["trace.dominant_share"] = (
                sum(metrics[m] for m in wl.dominant) / metrics["trace.wall_s"])
        wanted = spec["per_layer"]
    else:
        metrics["wall_s"] = wall
        metrics["setup_s"] = med([scaled(r, "setup_s") for r in plain])
        metrics["peak_rss_mb"] = med([r["worker"]["peak_rss_mb"] for r in plain])
        wanted = spec["end_to_end"]
    printed = {}
    for m in wanted:
        value = metrics.get(m["name"], math.nan)
        printed[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}
    missing = [name for name, m in printed.items() if m["value"] is None]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    refs = [r["reference"] for r in reps if "reference" in r]
    notes = {
        "samples": len(plain),
        "raw_wall_s": med([r["worker"]["wall_s"] for r in plain]),
        "raw_setup_s": med([r["worker"]["setup_s"] for r in plain]),
        "calibration_s": med([statistics.median(r["worker"]["calibration_s"])
                              for r in plain]),
        "traced_samples": len(traced),
        "failed_frac": failed / attempted if attempted else math.nan,
        "artifacts_identical": all(same for same, _ in refs) if refs else None,
        "artifact_max_abs_diff": max((d for _, d in refs), default=None),
        "checks": reps[-1]["summary"],
    }
    return Summary(printed, attempted, failed, problems, notes)


def report(wl, seed, s):
    notes = s.notes
    print(f"== {wl.name} (seed {seed}): {notes['samples']} untraced and "
          f"{notes['traced_samples']} traced repetitions")
    for name, m in s.metrics.items():
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value} {m['unit']}")
    print(f"  {'failed_frac':40s} {notes['failed_frac']:.6g} ratio "
          f"({s.failed} of {s.attempted} operations)")
    if notes["artifact_max_abs_diff"] is not None:
        same = "byte-identical" if notes["artifacts_identical"] else "differ"
        print(f"  {'artifact_max_abs_diff':40s} {notes['artifact_max_abs_diff']:.6g} "
              f"(artifacts {same} to the seed-0 reference)")
    print(f"  raw wall_s {notes['raw_wall_s']:.6g} s, raw setup_s "
          f"{notes['raw_setup_s']:.6g} s, calibration kernel "
          f"{notes['calibration_s']:.6g} s")
    print(f"  checks: {json.dumps(notes['checks'], sort_keys=True)}")
    for p in s.problems:
        print(f"  FAILED: {p}")


def smoke(spec, all_workloads):
    """Tiny sizes: metric names and units, and traced == untraced artifacts."""
    ok = True
    for wl in all_workloads.values():
        reps = measure(wl, 0, 0, trace=True, tiny=True, keep_artifacts=True, reps=2)
        same = reps[0]["artifacts"] == reps[1]["artifacts"] and reps[0]["artifacts"]
        for trace in (False, True):
            s = summarize(wl, reps, trace, spec)
            wanted = spec["per_layer" if trace else "end_to_end"]
            names_ok = list(s.metrics) == [m["name"] for m in wanted] and all(
                m["unit"] and m["value"] is not None for m in s.metrics.values())
            ok &= names_ok and not s.problems
            print(f"{wl.name:16s} trace={int(trace)} metrics "
                  f"{'ok' if names_ok else 'MISSING'} ({len(s.metrics)}), "
                  f"problems: {s.problems or 'none'}")
        ok &= bool(same)
        print(f"{wl.name:16s} traced and untraced artifacts "
              f"{'byte-identical' if same else 'DIFFER'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--store-reference", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running worker is killed and
    # reaped and its directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pathfv" / "__init__.py").is_file():
        print(f"error: no pathfv sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    WORK.mkdir(exist_ok=True)
    if args.smoke:
        ok = smoke(spec, workloads.WORKLOADS)
        print(json.dumps({"smoke": ok}))
        return 0 if ok else 1
    if args.store_reference:
        for wl in workloads.WORKLOADS.values():
            rep = measure(wl, 0, 0, trace=False, keep_artifacts=True, reps=1)[0]
            if rep["problems"]:
                print(f"{wl.name}: {rep['problems']}", file=sys.stderr)
                return 1
            workloads.store_reference(wl.name, rep["artifacts"])
            print(f"{wl.name}: stored {len(rep['artifacts'])} files")
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        reps = measure(wl, args.seed, seconds, bool(args.trace))
        results[name] = summarize(wl, reps, bool(args.trace), spec)
        report(wl, args.seed, results[name])
    attempted = sum(s.attempted for s in results.values())
    failed = sum(s.failed for s in results.values())
    correct = failed == 0 and not any(s.problems for s in results.values())
    if len(results) == 1:
        metrics = results[names[0]].metrics
    else:
        metrics = {f"{name}.{k}": v for name, s in results.items()
                   for k, v in s.metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
