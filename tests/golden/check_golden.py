"""Golden digests of the built-in experiments' artifacts.

``digests.json`` beside this script holds one SHA-256 per file that each
built-in ``run`` or ``sweep`` writes, with the environment it was recorded
on and the seconds each config took.  The digests hold for that Python,
NumPy and platform only: elsewhere libm and NumPy may round differently,
and the check says so instead of failing.

    python tests/golden/check_golden.py [NAME ...] [--out DIR] [--reference DIR]
        rerun the named built-ins (default: all) and compare every file with
        its digest; name the first differing file.  With --reference, a tree
        of the same outputs from another checkout, print the largest absolute
        difference of each differing CSV or JSON file.
    python tests/golden/check_golden.py --record [NAME ...]
        rerun and store the digests of the named built-ins.
    python tests/golden/check_golden.py --compare DIR_A DIR_B
        compare two output trees file by file; no rerun.

Run it with ``src`` on PYTHONPATH, or with the package installed.  The
configs run in two worker processes, the largest recorded one first; the
lines come out in the order of the names, each with the seconds its config
took in its worker.  Exit status: 0 all match, 1 a file differs or is
missing, 2 another environment.
A PR that moves a number re-records the digests and reports the largest
difference per file; re-recording only to turn a red check green hides it.
"""

import argparse
import hashlib
import json
import math
import multiprocessing
import platform
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
# worker processes over the configs; the largest config takes about 40 %
# of the total, so a third worker would shorten the check little
WORKERS = 2


def environment():
    """What the digests depend on: interpreter, NumPy and the C library."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}-"
                    f"{'-'.join(platform.libc_ver())}",
    }


def environment_mismatch(recorded):
    """A reason the digests do not apply here, or None."""
    here = environment()
    diff = [f"{key} {recorded.get(key)} here {here[key]}"
            for key in here if recorded.get(key) != here[key]]
    return ("digests recorded on another environment: " + "; ".join(diff)) if diff else None


def run_builtin(name, out):
    """Run built-in ``name`` with its own verb into ``out``; return the seconds."""
    from pathfv.experiments import load_config, run, sweep_hugoniot

    verb = sweep_hugoniot if "sweep" in load_config(name) else run
    start = time.perf_counter()
    verb(name, out)
    return time.perf_counter() - start


def run_and_digest(name, root):
    """Run built-in ``name`` into ``root``; return its seconds and the
    digests of its files, keyed ``name/<file>``."""
    seconds = run_builtin(name, root)
    return seconds, {f"{name}/{k}": v for k, v in file_digests(Path(root) / name).items()}


def largest_first(names, configs):
    """``names`` by recorded seconds in ``configs``, largest first; a name
    without a record goes first, as its size is unknown."""
    return sorted(names, key=lambda n: -configs.get(n, {}).get("seconds", math.inf))


def file_digests(root):
    """``{relative path: sha256}`` of every file under ``root``."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _csv_values(path):
    rows = Path(path).read_text().splitlines()[1:]
    return [[float(v) for v in row.split(",")] for row in rows]


def _leaves(value, path=()):
    """(path, leaf) pairs of a JSON value, object keys in sorted order."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key], path + (key,))]
    if isinstance(value, list):
        return [leaf for i, entry in enumerate(value) for leaf in _leaves(entry, path + (i,))]
    return [(path, value)]


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def max_abs_difference(path_a, path_b):
    """Largest absolute difference between two CSV or JSON files with the
    same shape (NaN matches NaN), or a string saying why there is none."""
    suffix = Path(path_a).suffix
    if suffix == ".csv":
        a, b = _csv_values(path_a), _csv_values(path_b)
        if [len(r) for r in a] != [len(r) for r in b]:
            return "shapes differ"
        pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    elif suffix == ".json":
        a = _leaves(json.loads(Path(path_a).read_text()))
        b = _leaves(json.loads(Path(path_b).read_text()))
        if [k for k, _ in a] != [k for k, _ in b]:
            return "structures differ"
        pairs = []
        for (_, x), (_, y) in zip(a, b):
            if _number(x) and _number(y):
                pairs.append((float(x), float(y)))
            elif x != y:
                return "non-numeric entries differ"
    else:
        return "not a CSV or JSON file"
    worst = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)  # NaN against a number counts as infinitely far
        worst = math.inf if math.isnan(diff) else max(worst, diff)
    return worst


def differing(expected, actual):
    """Sorted (file, what) for each file missing, extra or with another digest."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            out.append((key, "missing"))
        elif key not in expected:
            out.append((key, "not in the digests"))
        elif expected[key] != actual[key]:
            out.append((key, "digest differs"))
    return out


def report(diffs, root, reference):
    for key, what in diffs:
        line = f"{key}: {what}"
        if reference is not None and what == "digest differs":
            ref = Path(reference) / key
            diff = max_abs_difference(root / key, ref) if ref.is_file() else "no reference file"
            line += f"; largest absolute difference {diff}"
        print(line)
    if diffs:
        print(f"first differing file: {diffs[0][0]}")


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"configs": {}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="built-in names (default: all)")
    parser.add_argument("--record", action="store_true", help="store the digests")
    parser.add_argument("--out", help="output directory (default: a temporary one)")
    parser.add_argument("--reference", help="output tree to measure differences against")
    parser.add_argument("--compare", nargs=2, metavar="DIR", help="compare two trees")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (Path(d) for d in args.compare)
        diffs = differing(file_digests(b), file_digests(a))
        report(diffs, a, b)
        return 1 if diffs else 0

    from pathfv.experiments import builtin_names

    golden = load_digests()
    names = args.names or builtin_names()
    if not args.record:
        why = environment_mismatch(golden.get("environment", {}))
        if why:
            print(why)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.out or tmp)
        diffs = []
        # fresh interpreters, as a CLI run would have
        pool = ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn"))
        try:
            runs = {name: pool.submit(run_and_digest, name, root)
                    for name in largest_first(names, golden["configs"])}
            for name in names:
                seconds, files = runs[name].result()
                print(f"{name}: {len(files)} files, {seconds:.1f} s", flush=True)
                if args.record:
                    golden["configs"][name] = {"seconds": round(seconds, 1), "files": files}
                else:
                    diffs += differing(golden["configs"].get(name, {}).get("files", {}),
                                       files)
        finally:
            pool.shutdown(cancel_futures=True)
        if args.record:
            golden["environment"] = environment()
            golden["configs"] = dict(sorted(golden["configs"].items()))
            DIGESTS.write_text(json.dumps(golden, indent=2) + "\n")
            return 0
        report(diffs, root, args.reference)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
