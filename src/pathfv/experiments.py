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
from .hugoniot import _newton_free_state, _ordered_pair
from .paths import PATHS
from .schemes import SCHEMES, DirichletBoundary, FreeBoundary, Grid, Solution, evolve
from .systems import SYSTEMS


# ---------------------------------------------------------------------------
# Initial conditions and boundaries, keyed by config id


def _jump(x, x0, left, right):
    """Riemann data: ``left`` in the cells with centre below x0, ``right`` beyond."""
    return np.where(x[:, None] < x0, np.asarray(left, dtype=float),
                    np.asarray(right, dtype=float))


def _riemann(spec, system, x):
    return _jump(x, spec.get("x0", 0.0), spec["left"], spec["right"])


def _dam_break_over_bump(spec, system, x):
    H = spec.get("base_depth", 1.0) - spec.get("bump_amplitude", 0.5) * np.exp(
        -((x - spec.get("bump_center", 5.0)) ** 2)
    )
    h = np.where(x < spec.get("x_dam", 4.0), H + spec.get("surface_lift", 0.5), H)
    return np.stack([h, np.zeros_like(h), H], axis=-1)


def _stationary_contact(spec, system, x):
    left = np.asarray(spec["left"], dtype=float)
    right = stationary_contact_state(system, left, spec["sigma_right"])
    return _jump(x, spec.get("x0", 0.0), left, right)


# initial-condition id -> builder (spec, system, cell centres) -> states
INITIALS = {
    "riemann": _riemann,
    "dam_break_over_bump": _dam_break_over_bump,
    "stationary_contact": _stationary_contact,
}

# boundary id -> builder (initial solution) -> boundary
BOUNDARIES = {
    "free": lambda sol0: FreeBoundary(),
    "inflow_left": lambda sol0: DirichletBoundary(left=sol0.states[0]),
}

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
        "initial": {
            "type": "object",
            "required": ["id"],
            "properties": {"id": {"enum": list(INITIALS)}},
        },
        "boundary": {
            "type": "object",
            "required": ["id"],
            "properties": {"id": {"enum": list(BOUNDARIES)}},
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
    # a system takes the physical parameters its constructor names
    params = inspect.signature(SYSTEMS[system_id]).parameters
    for key in cfg["system"]:
        if key != "id" and key not in params:
            raise ConfigError(f"system/{key}: the {system_id} system takes no {key}",
                              field=f"system/{key}")
    scheme = SCHEMES[cfg["scheme"]["id"]]
    sweep = cfg.get("sweep")
    shaped = PATHS[path_id].epsilon is not None
    refused, reason = scheme._refusal(system_id, PATHS[path_id]) or (None, None)
    for ok, field, why in (
        (cfg["cfl"] <= scheme.max_cfl, "cfl",
         f"{scheme.name} requires cfl <= {scheme.max_cfl}"),
        (refused is None, refused, reason),
        (shaped or "epsilon" not in cfg["path"], "path/epsilon",
         f"{path_id} has no shape parameter"),
        (shaped or "epsilons" not in (sweep or {}), "sweep/epsilons",
         f"{path_id} has no shape parameter"),
        (sweep is not None or "grid" in cfg or "meshes" in cfg, "grid",
         "required unless a sweep is given"),
        (sweep is not None or ("t_end" in cfg and "initial" in cfg), "t_end",
         "t_end and initial are required unless a sweep is given"),
        (sweep is None or ("xi_targets" in sweep) != ("component_targets" in sweep),
         "sweep", "give exactly one of xi_targets / component_targets"),
    ):
        if not ok:
            raise ConfigError(f"{field}: {why}", field=field)
    return cfg


def build_components(cfg, seed=None):
    """(system, path, scheme) of a validated config; the seed defaults to its own."""
    system = SYSTEMS[cfg["system"]["id"]](
        **{k: v for k, v in cfg["system"].items() if k != "id"})
    path = PATHS[cfg["path"]["id"]].for_system(system, cfg["path"].get("epsilon", 0.0))
    if seed is None:
        seed = cfg.get("seed", 0)
    return system, path, SCHEMES[cfg["scheme"]["id"]](system, path, seed=seed)


def initial_solution(cfg, system, cells):
    grid = Grid(cfg["grid"]["x_min"], cfg["grid"]["x_max"], cells)
    spec = cfg["initial"]
    return Solution(grid, 0.0, INITIALS[spec["id"]](spec, system, grid.centers))


def boundary_for(cfg, sol):
    return BOUNDARIES[cfg["boundary"]["id"]](sol) if "boundary" in cfg else FreeBoundary()


# ---------------------------------------------------------------------------
# Artifact writers


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tag(key, value):
    """File-name part ``_<key><value>``, with the decimal point as ``p``."""
    return "" if value is None else f"_{key}{format(float(value), 'g').replace('.', 'p')}"


# ---------------------------------------------------------------------------
# Runners.  Both verbs go config -> set-up -> jobs (``_map``) -> ``_finish``.


def _setup(cfg, out_dir, seed, section, missing, default_name):
    """Validate, require the verb's section, pick the seed, make <out>/<name>."""
    cfg = validate_config(load_config(cfg))
    if section not in cfg:
        raise ConfigError(missing, field=section)
    seed = cfg.get("seed", 0) if seed is None else int(seed)
    name = cfg.get("name", default_name)
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    return cfg, seed, name, out


def _map(fn, items, threads):
    """``[fn(item) for item in items]``, on a thread pool when that can help."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _finish(out, filename, payload, name, cfg, seed):
    """Write the verb's JSON, then the manifest; return the output directory."""
    _write_json(out / filename, payload)
    _write_json(out / "manifest.json", {"package": "pathfv", "version": __version__,
                                        "name": name, "seed": seed, "config": cfg})
    return out


def run(cfg, out_dir, seed=None, threads=1):
    """Time-evolution experiment: profiles + diagnostics per mesh."""
    cfg, seed, name, out = _setup(
        cfg, out_dir, seed, "initial",
        "config has no time-evolution section; use the sweep verb", "experiment")
    meshes = cfg.get("meshes", [cfg["grid"]["cells"]]) if "grid" in cfg else cfg["meshes"]
    ocfg = cfg.get("output", {})

    def one_mesh(cells):
        system, path, scheme = build_components(cfg, seed=seed)
        sol0 = initial_solution(cfg, system, cells)
        snaps = evolve(scheme, sol0, cfg["t_end"], cfg["cfl"], bc=boundary_for(cfg, sol0),
                       snapshot_times=ocfg.get("snapshot_times", [cfg["t_end"]]))
        for s in snaps:
            write_csv(out / f"profile_m{cells}_t{s.t:.6f}.csv",
                      ["x"] + list(system.components),
                      np.column_stack([s.grid.centers, s.states]))
        entry = {}
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
                snaps, f["component"], window=tuple(f["window"]),
                flatten=tuple(f["flatten"]) if "flatten" in f else None,
                # extract_shock's own defaults stand for the keys left out
                **{key: f[key] for key in ("threshold", "plateau_cells",
                                           "margin_cells", "fit_order") if key in f},
            )
            noncons, cons = rh_residual(system, fit, path)
            entry["shock_fit"] = {
                "xi": fit.xi,
                "w_minus": [float(v) for v in fit.w_minus],
                "w_plus": [float(v) for v in fit.w_plus],
                "nonconservative_residual": noncons,
                "conservative_residual": cons,
            }
        return f"m{cells}", entry

    return _finish(out, "diagnostics.json", dict(_map(one_mesh, meshes, threads)),
                   name, cfg, seed)


def _exact_sweep_points(system, path, sweep, fixed, side):
    """Exact curve and the exact states at the requested targets."""
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
    cfg, seed, name, out = _setup(cfg, out_dir, seed, "sweep",
                                  "config has no sweep section", "sweep")
    sweep = cfg["sweep"]
    names = list(SYSTEMS[cfg["system"]["id"]].components)
    # one path variant per listed epsilon, else the config's own path
    epsilons = sweep.get("epsilons")
    variants = [(None, cfg)] if epsilons is None else [
        (eps, {**cfg, "path": {**cfg["path"], "epsilon": eps}}) for eps in epsilons
    ]
    fixed = np.asarray(sweep["fixed_state"], dtype=float)
    side = sweep["fixed_side"]
    domain = sweep["domain"]

    exact_curves = {}
    jobs = []
    for eps, vcfg in variants:
        system, path, _ = build_components(vcfg, seed=seed)
        curve, points = _exact_sweep_points(system, path, sweep, fixed, side)
        exact_curves[eps] = curve
        write_csv(
            out / f"exact_curve{_tag('eps', eps)}.csv",
            ["xi"] + names + ["residual"],
            np.column_stack([curve.xi, curve.states, curve.residuals]),
        )
        jobs += [(eps, vcfg, xi_t, w_free, dx)
                 for xi_t, w_free in points for dx in sweep["meshes_dx"]]

    def one_job(job):
        eps, vcfg, xi_t, w_free, dx = job
        system, path, scheme = build_components(vcfg, seed=seed)
        grid = Grid(domain[0], domain[1], int(round((domain[1] - domain[0]) / dx)))
        sol = Solution(grid, 0.0,
                       _jump(grid.centers, 0.0, *_ordered_pair(fixed, w_free, side)))
        snaps = evolve(scheme, sol, sweep["t_end"], cfg["cfl"],
                       snapshot_times=sweep["snapshot_times"])
        plateau = max(10, int(round(0.04 / dx)))
        margin = max(3, int(round(0.01 / dx)))
        try:
            fit = extract_shock(snaps, sweep.get("extract_component", 0),
                                window=tuple(sweep["window"]),
                                plateau_cells=plateau, margin_cells=margin,
                                **{key: sweep[key] for key in ("threshold",) if key in sweep})
        except PathFVError as exc:  # record and continue sweeping
            return None, {"epsilon": eps, "xi_target": xi_t, "dx": dx,
                          "error": f"{type(exc).__name__}: {exc}"}
        return (xi_t, fit, *rh_residual(system, fit, path)), None

    by_variant = {}
    failures = []
    for (eps, _, _, _, dx), (entry, failure) in zip(jobs, _map(one_job, jobs, threads)):
        if failure is None:
            by_variant.setdefault((eps, dx), []).append(entry)
        else:
            failures.append(failure)

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
        fname = f"numerical{_tag('eps', eps)}{_tag('dx', dx)}.csv"
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
    return _finish(out, "report.json", report, name, cfg, seed)


def _distance(curve_a, curve_b):
    """Curve distance, or None when the curves share no speed range (a curve
    with a single measured point shares none)."""
    try:
        return _curve_distance(curve_a, curve_b)
    except TraceError:
        return None
