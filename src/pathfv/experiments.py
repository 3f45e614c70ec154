"""Declarative experiment definitions, runners, and artifact writers.

An experiment is a JSON document naming a system, a path family, a scheme,
a grid, an initial condition, and output controls; shock-curve sweeps add
a ``sweep`` section.  Built-in experiments ship as package data and are
addressed by name.  A run writes, under ``<out>/<name>/``:

    manifest.json            config echo + seed + package version
    profile_m{M}_t{T}.csv    cell-center snapshots (x, components)
    diagnostics.json         mass ledger / shock fit / residuals

A sweep writes the exact curve, one numerical curve per (mesh, epsilon),
and a report with curve distances.  Reruns with the same config and seed
produce byte-identical files; a manifest can be fed back in as the config.
"""

import inspect
import json
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .diagnostics import mass_track, rh_residual
from .errors import ConfigError, PathFVError, TraceError
from .hugoniot import (
    extract_shock,
    numerical_curve,
    solve_rh_at,
    stationary_contact_state,
    trace_exact,
)
from .hugoniot import curve_distance as _curve_distance
from .hugoniot import _newton_free_state
from .paths import PATHS
from .schemes import SCHEMES, DirichletBoundary, FreeBoundary, Grid, Solution, evolve
from .systems import SYSTEMS

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["system", "path", "scheme", "cfl"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "system": {
            "type": "object",
            "required": ["id"],
            "additionalProperties": False,
            "properties": {
                "id": {"enum": list(SYSTEMS)},
                "g": _POS,
                "r": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
        },
        "path": {
            "type": "object",
            "required": ["id"],
            "additionalProperties": False,
            "properties": {
                "id": {"enum": list(PATHS)},
                "epsilon": {"type": "number", "minimum": 0},
            },
        },
        "scheme": {
            "type": "object",
            "required": ["id"],
            "additionalProperties": False,
            "properties": {"id": {"enum": list(SCHEMES)}},
        },
        "grid": {
            "type": "object",
            "required": ["x_min", "x_max", "cells"],
            "additionalProperties": False,
            "properties": {
                "x_min": _NUM,
                "x_max": _NUM,
                "cells": {"type": "integer", "minimum": 3},
            },
        },
        "meshes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 3},
            "minItems": 1,
        },
        "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "t_end": _POS,
        "initial": {"type": "object", "required": ["id"]},
        "boundary": {
            "type": "object",
            "required": ["id"],
            "properties": {"id": {"enum": ["free", "inflow_left"]}},
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "snapshot_times": {"type": "array", "items": _NUM},
                "mass_ledger": {
                    "type": "object",
                    "required": ["component", "half_width", "flux_rate"],
                    "properties": {
                        "component": {"type": "integer", "minimum": 0},
                        "half_width": _POS,
                        "flux_rate": _NUM,
                    },
                },
                "shock_fit": {
                    "type": "object",
                    "required": ["component", "window"],
                    "properties": {
                        "component": {"type": "integer", "minimum": 0},
                        "window": {
                            "type": "array",
                            "items": _NUM,
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "threshold": _POS,
                        "plateau_cells": {"type": "integer", "minimum": 1},
                        "margin_cells": {"type": "integer", "minimum": 0},
                        "fit_order": {"type": "integer", "minimum": 1},
                        "flatten": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            },
        },
        "sweep": {
            "type": "object",
            "required": ["fixed_state", "fixed_side", "family", "meshes_dx",
                         "domain", "t_end", "snapshot_times", "window"],
            "additionalProperties": False,
            "properties": {
                "fixed_state": {"type": "array", "items": _NUM},
                "fixed_side": {"enum": ["left", "right"]},
                "family": {"type": "integer", "minimum": 1},
                "xi_targets": {"type": "array", "items": _NUM, "minItems": 1},
                "component_targets": {
                    "type": "object",
                    "required": ["component", "values"],
                    "properties": {
                        "component": {"type": "integer", "minimum": 0},
                        "values": {"type": "array", "items": _NUM, "minItems": 1},
                    },
                },
                "epsilons": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "meshes_dx": {"type": "array", "items": _POS, "minItems": 1},
                "domain": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
                "t_end": _POS,
                "snapshot_times": {"type": "array", "items": _NUM, "minItems": 2},
                "window": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
                "extract_component": {"type": "integer", "minimum": 0},
                "threshold": _POS,
                "trace_steps": {"type": "integer", "minimum": 4},
                "trace_pad": {"type": "number", "minimum": 0},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

_validator = Draft202012Validator(SCHEMA)


def builtin_names():
    files = resources.files("pathfv") / "configs"
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_config(source):
    """Accept a builtin name, a JSON file path, a manifest, or a dict."""
    if isinstance(source, dict):
        cfg = source
    else:
        source = str(source)
        if source.endswith(".json"):
            with open(source) as fh:
                cfg = json.load(fh)
        else:
            files = resources.files("pathfv") / "configs" / f"{source}.json"
            try:
                cfg = json.loads(files.read_text())
            except FileNotFoundError:
                raise ConfigError(
                    f"unknown experiment {source!r}; "
                    f"known: {', '.join(builtin_names())}",
                    field="name",
                )
    if "config" in cfg and "system" not in cfg:  # a manifest round-trips
        inner = dict(cfg["config"])
        if "seed" in cfg and "seed" not in inner:
            inner["seed"] = cfg["seed"]
        cfg = inner
    return cfg


def validate_config(cfg):
    """Schema plus semantic checks; raises ConfigError with a field path."""
    errors = sorted(_validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"{where}: {e.message}", field=where)
    system_id, path_id = cfg["system"]["id"], cfg["path"]["id"]
    scheme = SCHEMES[cfg["scheme"]["id"]]
    for ok, field, why in (
        (cfg["cfl"] <= scheme.max_cfl, "cfl",
         f"{scheme.name} requires cfl <= {scheme.max_cfl}"),
        (system_id in scheme.systems, "scheme/id",
         f"{scheme.name} is not available for the {system_id} system"),
        (system_id in PATHS[path_id].couplings, "path/id",
         f"{path_id} is not defined for the {system_id} system"),
    ):
        if not ok:
            raise ConfigError(f"{field}: {why}", field=field)
    if "sweep" not in cfg:
        if "grid" not in cfg and "meshes" not in cfg:
            raise ConfigError("grid: required unless a sweep is given", field="grid")
        if "t_end" not in cfg or "initial" not in cfg:
            raise ConfigError(
                "t_end/initial: required unless a sweep is given", field="t_end"
            )
    sweep = cfg.get("sweep")
    if sweep is not None:
        if ("xi_targets" in sweep) == ("component_targets" in sweep):
            raise ConfigError(
                "sweep: give exactly one of xi_targets / component_targets",
                field="sweep",
            )
    return cfg


def build_components(cfg, seed=None):
    cls = SYSTEMS[cfg["system"]["id"]]
    # a system takes the physical parameters its constructor names
    params = inspect.signature(cls).parameters
    system = cls(**{k: v for k, v in cfg["system"].items() if k in params})
    path = _path(cfg, system, cfg["path"].get("epsilon", 0.0))
    if seed is None:
        seed = cfg.get("seed", 0)
    return system, path, _scheme(cfg, system, path, seed)


def _path(cfg, system, epsilon):
    return PATHS[cfg["path"]["id"]].for_system(system, epsilon)


def _scheme(cfg, system, path, seed):
    return SCHEMES[cfg["scheme"]["id"]](system, path, seed=seed)


def _topography(x, spec):
    if spec["id"] == "dam_break_over_bump":
        return spec.get("base_depth", 1.0) - spec.get("bump_amplitude", 0.5) * np.exp(
            -((x - spec.get("bump_center", 5.0)) ** 2)
        )
    raise ConfigError(f"no topography for initial id {spec['id']!r}")


def initial_solution(cfg, system, cells):
    grid_cfg = cfg["grid"]
    grid = Grid(grid_cfg["x_min"], grid_cfg["x_max"], cells)
    x = grid.centers
    spec = cfg["initial"]
    kind = spec["id"]
    if kind == "riemann":
        left = np.asarray(spec["left"], dtype=float)
        right = np.asarray(spec["right"], dtype=float)
        x0 = spec.get("x0", 0.0)
        states = np.where(x[:, None] < x0, left, right)
    elif kind == "dam_break_over_bump":
        H = _topography(x, spec)
        lift = spec.get("surface_lift", 0.5)
        x_dam = spec.get("x_dam", 4.0)
        h = np.where(x < x_dam, H + lift, H)
        states = np.stack([h, np.zeros_like(h), H], axis=-1)
    elif kind == "stationary_contact":
        left = np.asarray(spec["left"], dtype=float)
        right = stationary_contact_state(system, left, spec["sigma_right"])
        x0 = spec.get("x0", 0.0)
        states = np.where(x[:, None] < x0, left, right)
    elif kind == "still_water_over_step":
        x0 = spec.get("x_step", 0.0)
        sig = np.where(x < x0, spec.get("sigma_left", 0.0), spec.get("sigma_right", 1.0))
        h = spec.get("surface", 1.0) + sig
        states = np.stack([h, np.zeros_like(h), sig], axis=-1)
    else:
        raise ConfigError(f"unknown initial id {kind!r}", field="initial/id")
    return Solution(grid, 0.0, states)


def boundary_for(cfg, sol):
    b = cfg.get("boundary", {"id": "free"})
    if b["id"] == "free":
        return FreeBoundary()
    if b["id"] == "inflow_left":
        return DirichletBoundary(left=sol.states[0])
    raise ConfigError(f"unknown boundary id {b['id']!r}", field="boundary/id")


# ---------------------------------------------------------------------------
# Artifact writers


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(out, name, cfg, seed):
    manifest = {
        "package": "pathfv",
        "version": __version__,
        "name": name,
        "seed": seed,
        "config": cfg,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Runners


def run(cfg, out_dir, seed=None, threads=1):
    """Time-evolution experiment: profiles + diagnostics per mesh."""
    cfg = validate_config(load_config(cfg))
    if "initial" not in cfg:
        raise ConfigError(
            "config has no time-evolution section; use the sweep verb",
            field="initial",
        )
    seed = cfg.get("seed", 0) if seed is None else int(seed)
    name = cfg.get("name", "experiment")
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    system, path, _ = build_components(cfg, seed=seed)
    meshes = cfg.get("meshes", [cfg["grid"]["cells"]]) if "grid" in cfg else cfg["meshes"]
    names = list(system.components)

    def one_mesh(cells):
        _, _, scheme = build_components(cfg, seed=seed)
        sol0 = initial_solution(cfg, system, cells)
        bc = boundary_for(cfg, sol0)
        snap_times = cfg.get("output", {}).get("snapshot_times", [cfg["t_end"]])
        snaps = evolve(scheme, sol0, cfg["t_end"], cfg["cfl"], bc=bc,
                       snapshot_times=snap_times)
        return sol0, snaps

    if threads > 1 and len(meshes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_mesh, meshes))
    else:
        results = [one_mesh(m) for m in meshes]

    diagnostics = {}
    for cells, (sol0, snaps) in zip(meshes, results):
        for s in snaps:
            fname = out / f"profile_m{cells}_t{s.t:.6f}.csv"
            rows = np.column_stack([s.grid.centers, s.states])
            write_csv(fname, ["x"] + names, rows)
        dkey = f"m{cells}"
        entry = {}
        ocfg = cfg.get("output", {})
        if "mass_ledger" in ocfg:
            m = ocfg["mass_ledger"]
            ledger = mass_track([sol0] + snaps, m["component"], m["half_width"],
                                m["flux_rate"])
            entry["mass_ledger"] = {
                "times": [float(t) for t in ledger.times],
                "numeric": [float(v) for v in ledger.numeric],
                "exact": [float(v) for v in ledger.exact],
                "deviation": ledger.deviation,
                "truncated_at": ledger.truncated_at,
            }
        if "shock_fit" in ocfg:
            f = ocfg["shock_fit"]
            fit = extract_shock(
                snaps, f["component"], threshold=f.get("threshold", 0.1),
                window=tuple(f["window"]),
                plateau_cells=f.get("plateau_cells", 10),
                margin_cells=f.get("margin_cells", 3),
                fit_order=f.get("fit_order", 1),
                flatten=tuple(f["flatten"]) if "flatten" in f else None,
            )
            noncons, cons = rh_residual(system, fit, path)
            entry["shock_fit"] = {
                "xi": fit.xi,
                "w_minus": [float(v) for v in fit.w_minus],
                "w_plus": [float(v) for v in fit.w_plus],
                "nonconservative_residual": noncons,
                "conservative_residual": cons,
            }
        diagnostics[dkey] = entry
    _write_json(out / "diagnostics.json", diagnostics)
    _write_manifest(out, name, cfg, seed)
    return out


def _exact_sweep_points(system, path, sweep):
    """Exact curve and the exact states at the requested targets."""
    fixed = np.asarray(sweep["fixed_state"], dtype=float)
    side = sweep["fixed_side"]
    k = sweep["family"] - 1
    lam = system.eigenvalues(fixed)
    xi0 = float(lam[k])
    steps = sweep.get("trace_steps", 64)
    pad = sweep.get("trace_pad", 0.05)
    points = []
    if "xi_targets" in sweep:
        xi_targets = sorted(sweep["xi_targets"])
        far = max(xi_targets, key=lambda t: abs(t - xi0))
        xi_end = far + np.sign(far - xi0) * pad
        curve = trace_exact(system, path, fixed, side, xi0, xi_end, steps)
        for xi_t in xi_targets:
            j = int(np.argmin(np.abs(curve.xi - xi_t)))
            w, _ = _newton_free_state(system, path, fixed, side, xi_t,
                                      curve.states[j])
            points.append((xi_t, w))
    else:
        # component-pinned targets walk the branch with decreasing speed
        # (the entropic side for a family-1 curve from a fixed left state)
        comp = sweep["component_targets"]["component"]
        values = sweep["component_targets"]["values"]
        curve = trace_exact(system, path, fixed, side, xi0, xi0 - 0.8 - pad, steps)
        for v in sorted(values, key=lambda t: abs(t - fixed[comp])):
            j = int(np.argmin(np.abs(curve.states[:, comp] - v)))
            w, xi_t = solve_rh_at(system, path, fixed, side, comp, v,
                                  curve.states[j], curve.xi[j])
            points.append((xi_t, w))
        points.sort(key=lambda p: p[0])
    return curve, points


def sweep_hugoniot(cfg, out_dir, seed=None, threads=1):
    """Exact-vs-numerical shock-curve comparison over meshes (and epsilons)."""
    cfg = validate_config(load_config(cfg))
    if "sweep" not in cfg:
        raise ConfigError("config has no sweep section", field="sweep")
    seed = cfg.get("seed", 0) if seed is None else int(seed)
    name = cfg.get("name", "sweep")
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    system, base_path, _ = build_components(cfg, seed=seed)
    sweep = cfg["sweep"]
    names = list(system.components)
    epsilons = sweep.get("epsilons")
    if epsilons is None:
        path_variants = [(None, base_path)]
    else:
        path_variants = [(eps, _path(cfg, system, eps)) for eps in epsilons]

    fixed = np.asarray(sweep["fixed_state"], dtype=float)
    side = sweep["fixed_side"]
    free_side = "right" if side == "left" else "left"
    comp = sweep.get("extract_component", 0)
    threshold = sweep.get("threshold", 0.1)
    window = tuple(sweep["window"])
    domain = sweep["domain"]
    t_end = sweep["t_end"]
    snap_times = sweep["snapshot_times"]

    exact_curves = {}
    target_points = {}
    for eps, path in path_variants:
        curve, points = _exact_sweep_points(system, path, sweep)
        exact_curves[eps] = curve
        target_points[eps] = points
        tag = "" if eps is None else f"_eps{_eps_tag(eps)}"
        write_csv(
            out / f"exact_curve{tag}.csv",
            ["xi"] + names + ["residual"],
            np.column_stack([curve.xi, curve.states, curve.residuals]),
        )

    jobs = []
    for eps, path in path_variants:
        for xi_t, w_free in target_points[eps]:
            for dx in sweep["meshes_dx"]:
                jobs.append((eps, path, xi_t, w_free, dx))

    def one_job(job):
        eps, path, xi_t, w_free, dx = job
        cells = int(round((domain[1] - domain[0]) / dx))
        grid = Grid(domain[0], domain[1], cells)
        if side == "left":
            wl, wr = fixed, w_free
        else:
            wl, wr = w_free, fixed
        states = np.where(grid.centers[:, None] < 0.0, wl, wr)
        sol = Solution(grid, 0.0, states)
        scheme = _scheme(cfg, system, path, seed)
        snaps = evolve(scheme, sol, t_end, cfg["cfl"], snapshot_times=snap_times)
        plateau = max(10, int(round(0.04 / dx)))
        margin = max(3, int(round(0.01 / dx)))
        try:
            fit = extract_shock(snaps, comp, threshold=threshold, window=window,
                                plateau_cells=plateau, margin_cells=margin)
        except PathFVError as exc:  # record and continue sweeping
            return ("failed", f"{type(exc).__name__}: {exc}")
        noncons, cons = rh_residual(system, fit, path)
        return ("ok", fit, noncons, cons)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one_job, jobs))
    else:
        outcomes = [one_job(j) for j in jobs]

    by_variant = {}
    failures = []
    for job, outcome in zip(jobs, outcomes):
        eps, path, xi_t, w_free, dx = job
        if outcome[0] == "failed":
            failures.append({"epsilon": eps, "xi_target": xi_t, "dx": dx,
                             "error": outcome[1]})
            continue
        _, fit, noncons, cons = outcome
        by_variant.setdefault((eps, dx), []).append((xi_t, fit, noncons, cons))

    report = {
        "name": name,
        "failures": failures,
        "numerical_curves": [],
        "distances": {"to_exact": [], "mesh_to_mesh": [], "epsilon_pairs": []},
    }
    curves = {}
    for (eps, dx), entries in sorted(
        by_variant.items(), key=lambda kv: (kv[0][0] or 0.0, kv[0][1])
    ):
        fits = [e[1] for e in entries]
        curve = numerical_curve(fixed, side, fits)
        curves[(eps, dx)] = curve
        tag = "" if eps is None else f"_eps{_eps_tag(eps)}"
        fname = f"numerical{tag}_dx{_dx_tag(dx)}.csv"
        rows = []
        for xi_t, fit, noncons, cons in sorted(entries, key=lambda e: e[0]):
            free = fit.w_plus if side == "left" else fit.w_minus
            rows.append([fit.xi] + list(free) + [noncons,
                                                 cons if cons is not None else np.nan,
                                                 xi_t])
        write_csv(out / fname,
                  ["xi"] + names + ["residual_path", "residual_flux", "xi_target"],
                  rows)
        report["numerical_curves"].append(
            {"epsilon": eps, "dx": dx, "file": fname, "points": len(rows)}
        )
        report["distances"]["to_exact"].append(
            {"epsilon": eps, "dx": dx,
             "distance": _distance(curves[(eps, dx)], exact_curves[eps])}
        )

    meshes = sorted(set(dx for _, dx in curves), reverse=True)
    eps_list = sorted(set(e for e, _ in curves), key=lambda e: -1 if e is None else e)
    for eps in eps_list:
        for a, b in zip(meshes[:-1], meshes[1:]):
            if (eps, a) in curves and (eps, b) in curves:
                report["distances"]["mesh_to_mesh"].append(
                    {"epsilon": eps, "dx_pair": [a, b],
                     "distance": _distance(curves[(eps, a)], curves[(eps, b)])}
                )
    for dx in meshes:
        have = [e for e in eps_list if (e, dx) in curves and e is not None]
        for i, ea in enumerate(have):
            for eb in have[i + 1:]:
                report["distances"]["epsilon_pairs"].append(
                    {"dx": dx, "epsilons": [ea, eb],
                     "distance": _distance(curves[(ea, dx)], curves[(eb, dx)])}
                )
    _write_json(out / "report.json", report)
    _write_manifest(out, name, cfg, seed)
    return out


def _distance(curve_a, curve_b):
    """Curve distance, or None when the curves share no speed range (a curve
    with a single measured point shares none)."""
    try:
        return _curve_distance(curve_a, curve_b)
    except TraceError:
        return None


def _eps_tag(eps):
    return format(float(eps), "g").replace(".", "p")


def _dx_tag(dx):
    return format(float(dx), "g").replace(".", "p")
