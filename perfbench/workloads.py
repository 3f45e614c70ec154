"""The benchmark's workloads: seeded experiment configs and output checks.

Each workload is one call of the public experiment API
(``pathfv.experiments.run`` or ``sweep_hugoniot``) on a config derived from
a built-in experiment.  Seed 0 keeps the built-in physical parameters;
other seeds draw them from ranges where every correctness check holds and
the amount of work stays within a few percent, so a seed changes the data
and not the size of the run.

Sizes are scaled down from the built-in experiments so that one run of the
benchmark holds several repetitions of each; each workload keeps the
property it exists to show (see README.md in this directory).
"""

import csv
import gzip
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pathfv
from pathfv import experiments as px

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

CONTACT_DRIFT_BOUND = 1e-10  # criterion 5
LEDGER_BOUND = 1e-12  # criterion 8
MASS_BOUND = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "run" or "sweep"
    make: object  # (rng or None, tiny) -> config dict
    check: object  # (cfg, out_dir) -> (operations, failures, summary)
    required: tuple  # span names that must record calls when traced
    dominant: tuple  # per-layer metrics whose sum is the predicted dominant share


def _rng(seed):
    return None if seed == 0 else np.random.default_rng(seed)


def _uniform(rng, lo, hi, default):
    return default if rng is None else float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# Config generators


def _twolayer_sweep(rng, tiny):
    cfg = px.load_config("twolayer_paths_roe")
    sweep = cfg["sweep"]
    sweep["xi_targets"] = [
        _uniform(rng, 0.15, 0.19, 0.17),
        _uniform(rng, 0.235, 0.25, 0.25),
    ]
    sweep["epsilons"] = [0.0, 0.05]
    sweep["meshes_dx"] = [0.012 if tiny else 0.01]
    return cfg


def _sw_contact(rng, tiny):
    cfg = px.load_config("contact_equilibrium_roe")
    left = cfg["initial"]["left"]
    if rng is not None:
        h, g = left[0], cfg["system"]["g"]
        left[1] = float(rng.uniform(1.95, 2.05)) * h * math.sqrt(g * h)
    cfg["meshes"] = [50] if tiny else [100, 200]
    cfg["t_end"] = 0.2 if tiny else 1.0
    cfg["output"]["snapshot_times"] = [cfg["t_end"]]
    return cfg


def _rmp_godunov(rng, tiny):
    cfg = px.load_config("simplified_rmp")
    if rng is not None:
        w_l = cfg["initial"]["left"]
        h_r = float(rng.uniform(1.75, 1.85))
        q_r = pathfv.shock_curve_1(w_l, h_r)
        cfg["initial"]["right"] = [h_r, q_r]
        cfg["output"]["mass_ledger"]["flux_rate"] = w_l[1] - q_r
    cfg["grid"]["cells"] = 200 if tiny else 600
    return cfg


def _sw_dambreak(rng, tiny):
    cfg = px.load_config("dambreak")
    init = cfg["initial"]
    init["surface_lift"] = _uniform(rng, 0.45, 0.55, init["surface_lift"])
    init["bump_amplitude"] = _uniform(rng, 0.45, 0.55, init["bump_amplitude"])
    cfg["meshes"] = [400] if tiny else [1600, 3200]
    cfg["t_end"] = 0.1 if tiny else 0.2
    cfg["output"]["snapshot_times"] = [cfg["t_end"]]
    return cfg


# ---------------------------------------------------------------------------
# Output checks.  Each returns (operations, failures, summary); an operation
# is one run, or one job of a sweep.


def _read_profile(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


def _profile(out, cells, t):
    return _read_profile(out / f"profile_m{cells}_t{t:.6f}.csv")


def _initial(cfg, cells):
    system, _, _ = px.build_components(cfg)
    return px.initial_solution(cfg, system, cells).states


def _check_twolayer_sweep(cfg, out):
    jobs = operations(WORKLOADS["twolayer_sweep"], cfg)
    report = json.loads((out / "report.json").read_text())
    failed = len(report["failures"])
    dists = [d["distance"] for key in ("to_exact", "epsilon_pairs")
             for d in report["distances"][key]]
    finite = bool(dists) and all(d is not None and math.isfinite(d) for d in dists)
    if not finite:
        failed = jobs
    return jobs, failed, {"failures": len(report["failures"]),
                          "distances_finite": finite}


def _check_sw_contact(cfg, out):
    drift = 0.0
    for cells in cfg["meshes"]:
        final = _profile(out, cells, cfg["t_end"])[:, 1:]
        drift = max(drift, float(np.abs(final - _initial(cfg, cells)).max()))
    ok = drift <= CONTACT_DRIFT_BOUND
    return 1, 0 if ok else 1, {"contact_drift": drift}


def _check_rmp_godunov(cfg, out):
    cells = cfg["grid"]["cells"]
    diag = json.loads((out / "diagnostics.json").read_text())[f"m{cells}"]
    ledger = diag["mass_ledger"]
    ok = (ledger["truncated_at"] is None and ledger["deviation"] < LEDGER_BOUND
          and "shock_fit" in diag)
    return 1, 0 if ok else 1, {"ledger_deviation": ledger["deviation"],
                               "ledger_truncated_at": ledger["truncated_at"]}


def _check_sw_dambreak(cfg, out):
    mass_change = 0.0
    sigma_frozen = True
    for cells in cfg["meshes"]:
        final = _profile(out, cells, cfg["t_end"])
        initial = _initial(cfg, cells)
        dx = final[1, 0] - final[0, 0]
        mass_change = max(mass_change,
                          float(abs(dx * final[:, 1].sum() - dx * initial[:, 0].sum())))
        sigma_frozen &= bool(np.array_equal(final[:, 3], initial[:, 2]))
    ok = mass_change < MASS_BOUND and sigma_frozen
    return 1, 0 if ok else 1, {"h_mass_change": mass_change,
                               "sigma_frozen": sigma_frozen}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "twolayer_sweep", "sweep", _twolayer_sweep, _check_twolayer_sweep,
            required=(
                "systems.solve_characteristic_quartic",
                "schemes.RoeScheme.fluctuations",
                "paths.SkewedSegmentsPath.closed_form_integral",
                "paths.path_integral",
                "hugoniot.trace_exact",
                "hugoniot._newton_free_state",
                "hugoniot.extract_shock",
                "hugoniot.curve_distance",
                "diagnostics.rh_residual",
                "experiments.write_csv",
            ),
            dominant=("systems.quartic_s",),
        ),
        Workload(
            "sw_contact", "run", _sw_contact, _check_sw_contact,
            required=(
                "hugoniot.stationary_contact_state",
                "schemes.RoeScheme.fluctuations",
                "schemes.step",
                "paths.EquilibriumPath.closed_form_integral",
                "paths.EquilibriumPath.intermediate_state",
                "systems.ShallowWaterSystem.flux",
                "experiments.write_csv",
            ),
            dominant=("systems.flux_s", "paths.self_s"),
        ),
        Workload(
            "rmp_godunov", "run", _rmp_godunov, _check_rmp_godunov,
            required=(
                "schemes.GodunovScheme.fluctuations",
                "riemann.solve_riemann",
                "riemann.fan_split_integrals",
                "hugoniot.extract_shock",
                "diagnostics.mass_track",
                "diagnostics.rh_residual",
                "experiments.write_csv",
            ),
            dominant=("riemann.self_s",),
        ),
        Workload(
            "sw_dambreak", "run", _sw_dambreak, _check_sw_dambreak,
            required=(
                "schemes.RoeScheme.fluctuations",
                "schemes.step",
                "systems.ShallowWaterSystem.eigenvalues",
                "systems.ShallowWaterSystem.is_admissible",
                "paths.SegmentsPath.closed_form_integral",
                "experiments.write_csv",
            ),
            dominant=("schemes.fluctuations_self_s",),
        ),
    )
}


def operations(wl, cfg):
    """Operations one call attempts: one run, or every job of a sweep."""
    if wl.verb == "run":
        return 1
    sweep = cfg["sweep"]
    return len(sweep["xi_targets"]) * len(sweep["epsilons"]) * len(sweep["meshes_dx"])


def make_config(name, seed, tiny=False):
    """The config dict of one workload; the program receives only this."""
    return WORKLOADS[name].make(_rng(seed), tiny)


# ---------------------------------------------------------------------------
# Reference artifacts (default seed, full size)


def _numbers(path, data):
    """Every number in one artifact, in a fixed order (JSON keys sorted)."""
    text = data.decode()
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        return np.array(rows[1:], dtype=float).ravel()
    out = []

    def walk(node):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k])
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.append(float(node))

    walk(json.loads(text))
    return np.array(out)


def artifact_files(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def compare_with_reference(name, out):
    """(byte-identical, largest absolute difference) against stored artifacts.

    The difference is inf when the file sets or a file's layout differ.
    """
    ref_dir = REFERENCE / name
    refs = {p.relative_to(ref_dir).as_posix()[:-3]: gzip.decompress(p.read_bytes())
            for p in sorted(ref_dir.rglob("*.gz"))}
    got = artifact_files(out)
    if set(refs) != set(got):
        return False, math.inf
    identical = True
    worst = 0.0
    for rel, data in got.items():
        if data == refs[rel]:
            continue
        identical = False
        a, b = _numbers(Path(rel), data), _numbers(Path(rel), refs[rel])
        if a.shape != b.shape:
            return False, math.inf
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        worst = max(worst, float(np.nan_to_num(diff, nan=math.inf).max(initial=0.0)))
    return identical, worst


def store_reference(name, files):
    ref_dir = REFERENCE / name
    shutil.rmtree(ref_dir, ignore_errors=True)
    for rel, data in files.items():
        dest = ref_dir / f"{rel}.gz"
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(gzip.compress(data, mtime=0))
