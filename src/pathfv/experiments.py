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

``validate_config`` checks a config against one rule table, built from a few
rule constructors, and against the rules that depend on the chosen system,
path and scheme; a refusal is a ConfigError naming the field's JSON path.
"""

import inspect
import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

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
from .schemes import _march
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


# initial-condition id -> (builder (spec, system, cell centres) -> states,
# the keys it requires, the keys it may take), each key "state" or "number"
INITIALS = {
    "riemann": (_riemann, {"left": "state", "right": "state"}, {"x0": "number"}),
    "dam_break_over_bump": (_dam_break_over_bump, {}, dict.fromkeys(
        ("base_depth", "bump_amplitude", "bump_center", "x_dam", "surface_lift"), "number")),
    "stationary_contact": (_stationary_contact, {"left": "state", "sigma_right": "number"},
                           {"x0": "number"}),
}

# boundary id -> builder (initial solution) -> boundary
BOUNDARIES = {
    "free": lambda sol0: FreeBoundary(),
    "inflow_left": lambda sol0: DirichletBoundary(left=sol0.states[0]),
}


# ---------------------------------------------------------------------------
# Config rules.  A rule is a function (value, field) that raises ConfigError
# at ``field``, the value's JSON path ("" at the root).  It checks a value
# before its entries, and a section's keys in sorted order.


def _refuse(field, reason):
    raise ConfigError(f"{field}: {reason}", field=field)


_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def _number(integer=False, **bounds):
    """A finite JSON number (integer if ``integer``) within ``bounds``: gt,
    ge, lt or le, where None is no bound.  Booleans are not numbers, and
    the Infinity and NaN that ``json`` reads are refused."""
    kinds = int if integer else (int, float)

    def check(value, field):
        if isinstance(value, bool) or not isinstance(value, kinds):
            _refuse(field, "must be an integer" if integer else "must be a number")
        if isinstance(value, float) and not math.isfinite(value):
            _refuse(field, "must be finite")
        for key, bound in bounds.items():
            holds, sign = _BOUNDS[key]
            if bound is not None and not holds(value, bound):
                _refuse(field, f"must be {sign} {bound}")
    return check


def _string(value, field):
    if not isinstance(value, str):
        _refuse(field, "must be a string")


def _one_of(keys):
    """One of ``keys``; a registry gives its config ids."""
    def check(value, field):
        if not (isinstance(value, str) and value in keys):
            _refuse(field, f"must be one of {', '.join(keys)}")
    return check


def _list(item, min_len=None, max_len=None):
    """A JSON array of ``min_len`` to ``max_len`` entries, each passing ``item``."""
    def check(value, field):
        if not isinstance(value, list):
            _refuse(field, "must be a list")
        if len(value) < (min_len or 0):
            _refuse(field, f"needs at least {min_len} entries")
        if max_len is not None and len(value) > max_len:
            _refuse(field, f"takes at most {max_len} entries")
        for i, entry in enumerate(value):
            item(entry, f"{field}/{i}")
    return check


def _tags(key, rule):
    """``rule``, then no two entries with one file-name tag ``_tag(key, v)``:
    their files would overwrite each other."""
    def check(value, field):
        rule(value, field)
        tags = [_tag(key, v) for v in value]
        for i, tag in enumerate(tags):
            if tags.index(tag) < i:
                _refuse(field, f"entries {tags.index(tag)} and {i} share the file tag {tag!r}")
    return check


def _section(required, optional=None):
    """A JSON object with ``required`` and ``optional`` keys (key -> rule) and
    no other.  A missing key is named by its own path."""
    rules = {**required, **(optional or {})}

    def check(value, field):
        if not isinstance(value, dict):
            _refuse(field or "<root>", "must be an object")
        for key in required:
            if key not in value:
                _refuse(f"{field}/{key}" if field else key, "missing required key")
        for key in value:
            if key not in rules:
                _refuse(field or "<root>", f"unknown key {key!r}")
        for key in sorted(rules):
            if key in value:
                rules[key](value[key], f"{field}/{key}" if field else key)
    return check


def _tagged(sections):
    """A JSON object whose ``id``, one of the keys of ``sections``, picks the
    section rule that checks the whole object."""
    def check(value, field):
        if not isinstance(value, dict):
            _refuse(field, "must be an object")
        if "id" not in value:
            _refuse(f"{field}/id", "missing required key")
        _one_of(sections)(value["id"], f"{field}/id")
        sections[value["id"]](value, field)
    return check


_NUMBER = _number()
_POSITIVE = _number(gt=0)
_NATURAL = _number(integer=True, ge=0)
_CELLS = _number(integer=True, ge=3)
_INTERVAL = _list(_NUMBER, 2, 2)


def _rules(n):
    """The rule table of a config whose system has ``n`` components (None:
    component indices, families and states unbounded)."""
    index = _number(integer=True, ge=0, lt=n)
    kinds = {"state": _list(_NUMBER, n, n), "number": _NUMBER}

    def declared(keys):
        return {key: kinds[kind] for key, kind in keys.items()}

    return _section(
        required={
            "system": _section({"id": _one_of(SYSTEMS)},
                               {"g": _POSITIVE, "r": _number(ge=0, lt=1)}),
            "path": _section({"id": _one_of(PATHS)}, {"epsilon": _number(ge=0)}),
            "scheme": _section({"id": _one_of(SCHEMES)}),
            "cfl": _number(gt=0, le=1),
        },
        optional={
            "name": _string,
            "description": _string,
            "seed": _NATURAL,
            "grid": _section({"x_min": _NUMBER, "x_max": _NUMBER, "cells": _CELLS}),
            "meshes": _list(_CELLS, min_len=1),
            "t_end": _POSITIVE,
            # each builder declares the keys it reads
            "initial": _tagged({
                name: _section({"id": _string, **declared(required)}, declared(optional))
                for name, (_, required, optional) in INITIALS.items()}),
            "boundary": _section({"id": _one_of(BOUNDARIES)}),
            "output": _section({}, {
                "snapshot_times": _list(_NUMBER),
                "mass_ledger": _section({"component": index, "half_width": _POSITIVE,
                                         "flux_rate": _NUMBER}),
                "shock_fit": _section({"component": index, "window": _INTERVAL}, {
                    "threshold": _POSITIVE,
                    "plateau_cells": _number(integer=True, ge=1),
                    "margin_cells": _NATURAL,
                    "fit_order": _number(integer=True, ge=1),
                    "flatten": _list(index, 2, 2),
                }),
            }),
            "sweep": _section({
                "fixed_state": kinds["state"],
                "fixed_side": _one_of(("left", "right")),
                "family": _number(integer=True, ge=1, le=n),
                "meshes_dx": _tags("dx", _list(_POSITIVE, min_len=1)),
                "domain": _INTERVAL,
                "t_end": _POSITIVE,
                "snapshot_times": _list(_NUMBER, min_len=2),
                "window": _INTERVAL,
            }, {
                "xi_targets": _list(_NUMBER, min_len=1),
                "component_targets": _section({"component": index,
                                               "values": _list(_NUMBER, min_len=1)}),
                "epsilons": _tags("eps", _list(_number(ge=0))),
                "extract_component": index,
                "threshold": _POSITIVE,
                "trace_steps": _number(integer=True, ge=4),
                "trace_pad": _number(ge=0),
            }),
        },
    )


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
    if isinstance(cfg, dict) and "config" in cfg and "system" not in cfg:
        # a manifest round-trips
        inner = dict(cfg["config"])
        if "seed" in cfg and "seed" not in inner:
            inner["seed"] = cfg["seed"]
        cfg = inner
    return cfg


def validate_config(cfg):
    """The rule table, the checks that depend on the chosen system, path and
    scheme, then the table again, bounded by the system's component count;
    raises ConfigError with a field path."""
    _rules(None)(cfg, "")
    system_id, path_id = cfg["system"]["id"], cfg["path"]["id"]
    # a system takes the physical parameters its constructor names
    params = inspect.signature(SYSTEMS[system_id]).parameters
    for key in cfg["system"]:
        if key != "id" and key not in params:
            _refuse(f"system/{key}", f"the {system_id} system takes no {key}")
    scheme = SCHEMES[cfg["scheme"]["id"]]
    sweep = cfg.get("sweep", {})
    shaped = PATHS[path_id].epsilon is not None
    refused, reason = scheme._refusal(system_id, PATHS[path_id]) or (None, None)
    # a time evolution is what the run verb takes: no sweep, or an initial section
    evolves = "sweep" not in cfg or "initial" in cfg
    for ok, field, why in (
        (cfg["cfl"] <= scheme.max_cfl, "cfl",
         f"{scheme.name} requires cfl <= {scheme.max_cfl}"),
        (refused is None, refused, reason),
        (shaped or "epsilon" not in cfg["path"], "path/epsilon",
         f"{path_id} has no shape parameter"),
        (shaped or "epsilons" not in sweep, "sweep/epsilons",
         f"{path_id} has no shape parameter"),
        (not evolves or "grid" in cfg, "grid", "a time evolution needs a grid"),
        (not evolves or ("t_end" in cfg and "initial" in cfg), "t_end",
         "a time evolution needs t_end and initial"),
        ("sweep" not in cfg or ("xi_targets" in sweep) != ("component_targets" in sweep),
         "sweep", "give exactly one of xi_targets / component_targets"),
    ):
        if not ok:
            _refuse(field, why)
    _rules(len(SYSTEMS[system_id].components))(cfg, "")
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
    return Solution(grid, 0.0, INITIALS[spec["id"]][0](spec, system, grid.centers))


def boundary_for(cfg, sol):
    return BOUNDARIES[cfg["boundary"]["id"]](sol) if "boundary" in cfg else FreeBoundary()


# ---------------------------------------------------------------------------
# Artifact writers


def write_csv(path, header, rows):
    """``rows`` under ``header``, each number as ``format(v, ".17g")``; one
    format per row, so no text of the whole array is held at once."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(line % tuple(row.tolist()))


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
    meshes = cfg.get("meshes", [cfg["grid"]["cells"]])
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


# A group steps at most this many lanes (jobs x cells).  Larger groups ran
# slower than their jobs one at a time, because from about 1,800 two-layer
# lanes (6,000 2x2 lanes) on a step faulted memory pages in on every step:
# two-layer steps of 2 x 800 cells took 0.83-0.86 of the jobs' time alone
# with no minor fault, 2 x 900 took 1.03-1.11 with 60,000-87,000 faults per
# run (glibc, 2-vCPU Linux guest).
_GROUP_LANES = 1600


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
    failures = {}  # per path variant, in job order
    for eps, vcfg in variants:
        system, path, _ = build_components(vcfg, seed=seed)
        try:
            curve, points = _exact_sweep_points(system, path, sweep, fixed, side)
        except TraceError as exc:  # the variant's jobs fail; the others go on
            failures[eps] = [{"epsilon": eps, "xi_target": xi_t, "dx": dx,
                              "error": f"{type(exc).__name__}: {exc}"}
                             for xi_t in sorted(sweep.get("xi_targets", [None]))
                             for dx in sweep["meshes_dx"]]
            continue
        exact_curves[eps] = curve
        write_csv(
            out / f"exact_curve{_tag('eps', eps)}.csv",
            ["xi"] + names + ["residual"],
            np.column_stack([curve.xi, curve.states, curve.residuals]),
        )
        jobs += [(eps, vcfg, xi_t, w_free, dx)
                 for xi_t, w_free in points for dx in sweep["meshes_dx"]]

    def cells(dx):
        return int(round((domain[1] - domain[0]) / dx))

    # the jobs of one mesh share the grid: they evolve in lockstep, in groups
    # of bounded size, each path variant's jobs by its own scheme
    by_mesh = {}
    for i, (_, _, _, _, dx) in enumerate(jobs):
        by_mesh.setdefault(dx, []).append(i)
    groups = []
    for dx, members in by_mesh.items():
        size = max(1, _GROUP_LANES // cells(dx))
        groups += [members[k:k + size] for k in range(0, len(members), size)]

    def measure(job, snaps, system, path):
        """(xi target, fit, residuals) of a job's snapshots and None, or None
        and the failure record of a job whose front is not found."""
        eps, _, xi_t, _, dx = job
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

    def one_group(members):
        """(each member's (entry, failure) from ``measure``; the job index and
        the error of the first member whose evolution fails, or None)."""
        # each group builds its own components (a sampler starts afresh)
        variants = {jobs[i][0]: jobs[i][1] for i in members}
        built = {eps: build_components(vcfg, seed=seed) for eps, vcfg in variants.items()}
        grid = Grid(domain[0], domain[1], cells(jobs[members[0]][4]))
        sols = [Solution(grid, 0.0, _jump(grid.centers, 0.0,
                                          *_ordered_pair(fixed, jobs[i][3], side)))
                for i in members]
        runs, failure = _march([built[jobs[i][0]][2] for i in members], sols,
                               sweep["t_end"], cfg["cfl"], None,
                               sweep["snapshot_times"], None)
        if failure is not None:
            return [], (members[failure[0]], failure[1])
        return [measure(jobs[i], snaps, *built[jobs[i][0]][:2])
                for i, snaps in zip(members, runs)], None

    outcomes = [None] * len(jobs)
    errors = []
    for members, (measured, error) in zip(groups, _map(one_group, groups, threads)):
        for i, outcome in zip(members, measured):
            outcomes[i] = outcome
        if error is not None:
            errors.append(error)
    if errors:
        # the error that evolving the jobs one after another raises first
        _, exc = min(errors, key=lambda e: e[0])
        raise exc

    by_variant = {}
    for (eps, _, _, _, dx), (entry, failure) in zip(jobs, outcomes):
        if failure is None:
            by_variant.setdefault((eps, dx), []).append(entry)
        else:
            failures.setdefault(eps, []).append(failure)

    report = {
        "name": name,
        "failures": [f for eps, _ in variants for f in failures.get(eps, [])],
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
