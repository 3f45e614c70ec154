"""Per-layer metrics of one traced repetition, computed from its spans.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``,
named after the module that defines the function, so an alias such as
``experiments._curve_distance`` records as ``hugoniot.curve_distance``.
Times marked inclusive count only the outermost span of a group, so a
recursive or nested call is not counted twice.
"""

import numpy as np

from tracer import LAYERS, SpanTable


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(names, spans, worker, rep):
    """Every per-layer metric of one traced repetition, by name.

    ``worker`` is the worker's result; ``rep`` carries what the parent
    measured outside the process (operations, failures, bytes written).
    """
    t = SpanTable(names, spans)

    def named(*wanted):
        return t.select(lambda n: n in wanted)

    def method(layer, meth):
        return t.select(lambda n: n.startswith(layer + ".") and n.endswith("." + meth))

    advance = method("schemes", "advance")
    cell_steps = float(t.qty[advance].sum())
    step_ms = t.dur[advance] * 1e3
    quartic = named("systems.solve_characteristic_quartic")
    closed = method("paths", "closed_form_integral")
    flux = method("systems", "flux")
    path_integral = named("paths.path_integral")
    adaptive = named("quadrature.adaptive_gl")
    solves = named("riemann.solve_riemann")
    godunov = named("schemes.GodunovScheme.fluctuations")
    extract = named("hugoniot.extract_shock")
    hits, misses = worker["cache_hits"], worker["cache_misses"]
    wall = worker["wall_s"]
    self_by_layer = {layer: t.layer_self(layer) for layer in LAYERS}

    m = {
        "experiments.write_s": t.inclusive(named(
            "experiments.write_csv", "experiments._write_json",
            "experiments._write_manifest")),
        "experiments.bytes_written": rep["bytes_written"],
        "experiments.jobs": rep["operations"],
        "experiments.job_failures": rep["failures"],
        "schemes.steps": t.count(advance),
        "schemes.cell_steps": cell_steps,
        "schemes.inadmissible_events": worker["inadmissible_events"],
        "schemes.step_self_s": t.self_sum(
            advance | named("schemes.evolve", "schemes.step", "schemes.glimm_step")),
        "schemes.fluctuations_self_s": t.self_sum(method("schemes", "fluctuations")),
        "schemes.ns_per_cell_step": _ratio(t.dur[advance].sum() * 1e9, cell_steps),
        "schemes.step_p50_ms": float(np.percentile(step_ms, 50)) if step_ms.size else 0.0,
        "schemes.step_p99_ms": float(np.percentile(step_ms, 99)) if step_ms.size else 0.0,
        "systems.quartic_calls": t.count(quartic),
        "systems.quartic_states": float(t.qty[quartic].sum()),
        "systems.quartic_s": t.inclusive(quartic),
        "systems.states_solved_per_cell_step": _ratio(t.qty[quartic].sum(), cell_steps),
        "systems.eigenvalues_s": t.inclusive(method("systems", "eigenvalues")),
        "systems.flux_calls": t.count(flux),
        "systems.flux_s": t.inclusive(flux),
        "paths.closed_form_calls": t.count(closed),
        "paths.closed_form_pairs": float(t.qty[t.outermost(closed)].sum()),
        "paths.closed_form_s": t.inclusive(closed),
        "paths.intermediate_state_calls": t.count(
            named("paths.EquilibriumPath.intermediate_state")),
        "paths.equilibrium_cache_hit_rate": _ratio(hits, hits + misses),
        "paths.path_integral_calls": t.count(path_integral),
        "paths.path_integral_s": t.inclusive(path_integral),
        "quadrature.adaptive_gl_calls": t.count(adaptive),
        "quadrature.adaptive_gl_s": t.inclusive(adaptive),
        "riemann.solves": t.count(solves),
        "riemann.solve_s": t.inclusive(solves),
        "riemann.us_per_solve": _ratio(t.inclusive(solves) * 1e6, t.count(solves)),
        "riemann.fan_split_s": t.inclusive(named("riemann.fan_split_integrals")),
        "riemann.fallbacks": t.count(named("riemann.brentq")),
        "riemann.nontrivial_ratio": _ratio(t.count(solves), t.qty[godunov].sum()),
        "hugoniot.trace_s": t.inclusive(named("hugoniot.trace_exact")),
        "hugoniot.newton_solves": t.count(named("hugoniot._newton_free_state")),
        "hugoniot.extract_s": t.inclusive(extract),
        "hugoniot.extract_failures": int((extract & t.failed).sum()),
        "hugoniot.curve_distance_s": t.inclusive(named("hugoniot.curve_distance")),
        "diagnostics.rh_residual_s": t.inclusive(named("diagnostics.rh_residual")),
        "diagnostics.mass_track_s": t.inclusive(named("diagnostics.mass_track")),
        "trace.wall_s": wall,
        "trace.spans": int(t.name.size),
        "trace.self_sum_frac": _ratio(sum(self_by_layer.values()), wall),
    }
    for layer, value in self_by_layer.items():
        m[f"{layer}.self_s"] = value
    calls = np.bincount(t.name, minlength=len(t.names))
    return m, dict(zip(t.names, calls.tolist()))
