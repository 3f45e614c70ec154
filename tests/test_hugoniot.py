import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathfv import hugoniot
from pathfv.hugoniot import _newton_free_state
from pathfv import (
    EquilibriumPath,
    FrontExtractionError,
    Grid,
    PathConstructionError,
    SegmentsPath,
    ShallowWaterSystem,
    SimplifiedSystem,
    SkewedSegmentsPath,
    Solution,
    TraceError,
    TwoLayerSystem,
    TwoSegmentPath,
    curve_distance,
    extract_shock,
    path_integral,
    shock_curve_1,
    solve_rh_at,
    stationary_contact_state,
    trace_exact,
)
from pathfv.systems import SYSTEMS
from conftest import (
    random_shallow_water_states,
    random_simplified_states,
    random_two_layer_states,
)

G = 9.81
Q_R = 0.530039370688997
XI_SHOCK = (Q_R - 1.0) / 0.8
WR_INT = np.array(
    [0.392034161025472, -0.198826959396196, 1.588829011097482, 0.186046955388750]
)

SIMPLE = SimplifiedSystem()
TWO_SEG = TwoSegmentPath()


def _break_closed_form_after(monkeypatch, ncalls):
    """Make the two-segment closed form raise TypeError after ``ncalls``."""
    real = TwoSegmentPath.closed_form_integral
    calls = []

    def broken(self, system, u_l, u_r):
        calls.append(1)
        if len(calls) > ncalls:
            raise TypeError("broken closed form")
        return real(self, system, u_l, u_r)

    monkeypatch.setattr(TwoSegmentPath, "closed_form_integral", broken)


class TestLineSearchLetsBugsThrough:
    # one residual at the seed and one for the Jacobian's 2 n points: the
    # next call is the first trial step of the line search
    def test_newton_free_state(self, monkeypatch):
        _break_closed_form_after(monkeypatch, 2)
        with pytest.raises(TypeError):
            _newton_free_state(SIMPLE, TWO_SEG, np.array([1.0, 1.0]), "left",
                               XI_SHOCK, np.array([1.7, 0.6]))

    def test_solve_rh_at(self, monkeypatch):
        _break_closed_form_after(monkeypatch, 2)
        with pytest.raises(TypeError):
            solve_rh_at(SIMPLE, TWO_SEG, np.array([1.0, 1.0]), "left", 0, 1.8,
                        np.array([1.7, 0.6]), -0.5)


class TestSingularJacobian:
    # a singular Jacobian is a TraceError, never numpy's LinAlgError
    @pytest.fixture(autouse=True)
    def singular(self, monkeypatch):
        monkeypatch.setattr(hugoniot, "_fd_jacobian",
                            lambda resid, z: np.zeros((len(z), len(z))))

    def test_solve_rh_at(self):
        with pytest.raises(TraceError):
            solve_rh_at(SIMPLE, TWO_SEG, np.array([1.0, 1.0]), "left", 0, 1.8,
                        np.array([1.7, 0.6]), -0.5)

    def test_newton_free_state_keeps_xi(self):
        with pytest.raises(TraceError) as err:
            _newton_free_state(SIMPLE, TWO_SEG, np.array([1.0, 1.0]), "left",
                               XI_SHOCK, np.array([1.7, 0.6]))
        assert err.value.xi == XI_SHOCK


class TestTraceExact:
    def test_starts_at_trivial_solution(self):
        curve = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.1, 4)
        assert np.allclose(curve.states[0], [1.0, 1.0])
        assert curve.xi[0] == 0.0

    def test_residual_invariant(self):
        curve = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.62, 40)
        assert curve.failed_at is None
        fixed = np.array([1.0, 1.0])
        for xi, w in zip(curve.xi[1:], curve.states[1:]):
            resid = xi * (w - fixed) - path_integral(TWO_SEG, SIMPLE, fixed, w)
            assert np.abs(resid).max() < 1e-10

    def test_reverified_by_independent_quadrature(self):
        # Newton uses the closed form; re-verify samples against quadrature
        curve = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.6, 12)
        fixed = np.array([1.0, 1.0])
        for xi, w in zip(curve.xi[1:], curve.states[1:]):
            I = path_integral(TWO_SEG, SIMPLE, fixed, w, method="quadrature")
            assert np.abs(xi * (w - fixed) - I).max() < 1e-9

    def test_matches_closed_form_curve(self):
        curve = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.62, 50)
        j = int(np.argmin(np.abs(curve.states[:, 0] - 1.8)))
        w, xi = solve_rh_at(
            SIMPLE, TWO_SEG, np.array([1.0, 1.0]), "left", 0, 1.8,
            curve.states[j], curve.xi[j],
        )
        assert w[1] == pytest.approx(shock_curve_1([1.0, 1.0], 1.8), abs=1e-12)
        assert w[1] == pytest.approx(Q_R, abs=1e-10)
        assert xi == pytest.approx(XI_SHOCK, abs=1e-10)

    def test_bad_start_speed_rejected(self):
        with pytest.raises(TraceError):
            trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.7, 1.0, 4)

    def test_two_layer_internal_branch_exists(self):
        sys = TwoLayerSystem(G, 0.95)
        seg = SegmentsPath()
        lam3 = sys.eigenvalues(WR_INT)[2]
        curve = trace_exact(sys, seg, WR_INT, "right", lam3, lam3 + 0.3, 24)
        assert curve.failed_at is None
        assert len(curve.xi) >= 25
        for xi, w in zip(curve.xi[1:], curve.states[1:]):
            resid = xi * (WR_INT - w) - path_integral(seg, sys, w, WR_INT)
            assert np.abs(resid).max() < 1e-10

    def test_skewed_family_curves_differ(self):
        sys = TwoLayerSystem(G, 0.95)
        lam3 = sys.eigenvalues(WR_INT)[2]
        c0 = trace_exact(sys, SkewedSegmentsPath(0.0), WR_INT, "right",
                         lam3, lam3 + 0.25, 16)
        c5 = trace_exact(sys, SkewedSegmentsPath(0.05), WR_INT, "right",
                         lam3, lam3 + 0.25, 16)
        assert curve_distance(c0, c5) > 10 * 1e-10

    def test_predictor_solves_its_two_states_in_one_call(self, monkeypatch):
        sys = TwoLayerSystem(G, 0.95)
        lam3 = sys.eigenvalues(WR_INT)[2]
        shapes = []
        solve = TwoLayerSystem.eigenvalues
        monkeypatch.setattr(TwoLayerSystem, "eigenvalues",
                            lambda self, w: shapes.append(np.shape(w)) or solve(self, w))
        trace_exact(sys, SegmentsPath(), WR_INT, "right", lam3, lam3 + 0.1, 2)
        assert shapes == [(4,), (2, 4)]  # eigensystem, then the predictor

    @pytest.mark.parametrize("name, states", [("simplified", random_simplified_states),
                                              ("shallow_water", random_shallow_water_states),
                                              ("two_layer", random_two_layer_states)])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_predictor_pair_solves_like_two_single_states(self, name, states, seed):
        # the slope of lambda_k comes from fixed -+ eps r_k solved as one
        # (2, N) batch; each lane gives the bits of a one-state call
        w = states(np.random.default_rng(seed), 1)[0]
        sys = SYSTEMS[name]()
        lam, K = sys.eigensystem(w)
        eps = 1e-6 * max(1.0, float(np.abs(w).max()))
        for r_k in K.T:
            pair = sys.eigenvalues(w + np.multiply.outer((eps, -eps), r_k))
            alone = [sys.eigenvalues(w + eps * r_k), sys.eigenvalues(w - eps * r_k)]
            assert pair.tobytes() == np.array(alone).tobytes()

    def test_linearly_degenerate_field_refused(self):
        sw = ShallowWaterSystem(G)
        path = EquilibriumPath(G)
        w = np.array([1.0, np.sqrt(4 * G), 0.0])
        lam = sw.eigenvalues(w)
        zero_idx = int(np.argmin(np.abs(lam)))
        with pytest.raises(TraceError):
            trace_exact(sw, path, w, "left", lam[zero_idx], lam[zero_idx] + 0.2, 4)


class TestStationaryContact:
    sw = ShallowWaterSystem(G)

    def test_identity_jump(self):
        w = np.array([1.0, 2.0, 0.25])
        out = stationary_contact_state(self.sw, w, 0.25)
        assert np.allclose(out, w, atol=1e-14)

    def test_no_sigma_jump_at_froude_one_keeps_the_state(self):
        for h in np.linspace(0.2, 3.0, 57):
            w = np.array([h, h * np.sqrt(G * h), 0.4])
            assert np.array_equal(stationary_contact_state(self.sw, w, w[2]), w)

    def test_reference_cubic_root(self):
        w = np.array([1.0, np.sqrt(4 * G), 0.0])
        out = stationary_contact_state(self.sw, w, 1.0)
        assert out[0] == pytest.approx(0.7892441190408083, abs=1e-12)
        assert out[1] == w[1]
        assert out[2] == 1.0

    def test_zero_flow(self):
        w = np.array([1.0, 0.0, 0.0])
        out = stationary_contact_state(self.sw, w, 0.3)
        assert out[0] == pytest.approx(1.3, abs=1e-14)

    def test_unreachable(self):
        w = np.array([1.0, np.sqrt(4 * G), 0.0])
        with pytest.raises(PathConstructionError):
            stationary_contact_state(self.sw, w, -5.0)


class TestFlatTopographyCurvesAreConservative:
    """With the topography frozen, traced jump loci obey the flux conditions."""

    def test_constant_sigma_matches_flux_jump(self):
        sw = ShallowWaterSystem(G)
        w0 = np.array([1.0, 3.8, 0.4])  # subcritical-ish, away from resonance
        lam = sw.eigenvalues(w0)
        for path in (SegmentsPath(), EquilibriumPath(G)):
            k = int(np.argmax(lam))  # fast family
            curve = trace_exact(sw, path, w0, "left", lam[k], lam[k] + 0.8, 12)
            for xi, w in zip(curve.xi[1:], curve.states[1:]):
                assert abs(w[2] - w0[2]) < 1e-10  # sigma stays frozen
                dF = sw.flux(w) - sw.flux(w0)
                resid = xi * (w - w0)[:2] - dF
                assert np.abs(resid).max() < 1e-10


def _step_history(xi, times, m=500, span=(-1.0, 1.0)):
    wl = np.array([1.0, 1.0])
    wr = np.array([1.8, Q_R])
    out = []
    for t in times:
        grid = Grid(span[0], span[1], m)
        states = np.where(grid.centers[:, None] < xi * t, wl, wr)
        out.append(Solution(grid, t, states))
    return out


class TestExtractShock:
    def test_synthetic_step_recovery(self):
        times = [0.1, 0.3, 0.5]
        hist = _step_history(XI_SHOCK, times)
        fit = extract_shock(hist, 0)
        dx = hist[0].grid.dx
        assert abs(fit.xi - XI_SHOCK) < dx / (times[-1] - times[0])
        assert np.allclose(fit.w_minus, [1.0, 1.0], atol=1e-14)
        assert np.allclose(fit.w_plus, [1.8, Q_R], atol=1e-14)

    def test_constant_profile_rejected(self):
        grid = Grid(-1.0, 1.0, 100)
        hist = [
            Solution(grid, t, np.tile([1.0, 1.0], (100, 1))) for t in (0.0, 0.1)
        ]
        with pytest.raises(FrontExtractionError):
            extract_shock(hist, 0)

    def test_two_fronts_rejected_with_count(self):
        grid = Grid(-1.0, 1.0, 200)
        x = grid.centers
        h = 1.0 + 0.5 * (x > -0.5) + 0.5 * (x > 0.5)
        states = np.stack([h, np.ones_like(h)], axis=-1)
        hist = [Solution(grid, t, states) for t in (0.0, 0.1)]
        with pytest.raises(FrontExtractionError) as err:
            extract_shock(hist, 0)
        assert err.value.count == 2

    def test_window_restricts_scan(self):
        grid = Grid(-1.0, 1.0, 200)
        x = grid.centers
        h = 1.0 + 0.5 * (x > -0.5) + 0.5 * (x > 0.5)
        states = np.stack([h, np.ones_like(h)], axis=-1)
        hist = [Solution(grid, t, states) for t in (0.0, 0.1)]
        fit = extract_shock(hist, 0, window=(-0.9, 0.0))
        assert fit.xi == pytest.approx(0.0, abs=1e-12)


class TestCurveDistance:
    def test_self_distance_zero(self):
        curve = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.5, 10)
        assert curve_distance(curve, curve) == 0.0

    def test_disjoint_ranges_rejected(self):
        c1 = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.3, 6)
        c2 = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.3, 6)
        c2 = type(c2)(
            fixed_state=c2.fixed_state, side=c2.side, xi=c2.xi - 1.0,
            states=c2.states, residuals=c2.residuals,
        )
        with pytest.raises(TraceError):
            curve_distance(c1, c2)

    def test_interpolation_consistency(self):
        curve = trace_exact(SIMPLE, TWO_SEG, [1.0, 1.0], "left", 0.0, -0.5, 20)
        mid = 0.5 * (curve.xi[3] + curve.xi[4])
        w = curve.interpolate(mid)
        assert np.allclose(w, 0.5 * (curve.states[3] + curve.states[4]), atol=1e-12)


# ---------------------------------------------------------------------------
# The recovery paths of the continuation, reached through trace_exact.  The
# pinned inputs were found by a random search over fixed states, families,
# sides, ranges and step counts, with a line trace of hugoniot.py:
# (system, path, fixed state, side, family index, xi range, steps).
RECOVERY = {
    # a corrector fails (its Newton stalls, then gives up), the halved step
    # succeeds and the trace reaches its end
    "trace_halves_and_recovers": (SimplifiedSystem(), TwoSegmentPath(), [1.35, 1.99],
                                  "right", 1, -2.0, 6),
    # a Newton trial step leaves the hyperbolic region; the halved one lands
    "newton_halves_after_an_error": (TwoLayerSystem(G, 0.95), SegmentsPath(),
                                     [0.35, 0.15, 0.86, 0.02], "left", 1, -1.0, 2),
    # a full Newton step raises the residual; a halved one lowers it
    "newton_halves_a_step_that_does_not_descend": (SimplifiedSystem(), TwoSegmentPath(),
                                                   [1.0, 1.0], "left", 0, -0.8, 1),
    # every halving of one continuation step fails: the curve is truncated
    "trace_gives_up": (TwoLayerSystem(G, 0.95), SegmentsPath(), [0.5, 0.1, 1.0, 0.0],
                       "left", 1, -0.25, 2),
}


def traced(case):
    system, path, fixed, side, k, d, steps = RECOVERY[case]
    xi0 = float(system.eigenvalues(np.array(fixed))[k])
    return system, path, fixed, side, xi0, xi0 + d, trace_exact(system, path, fixed, side,
                                                                xi0, xi0 + d, steps)


@pytest.mark.parametrize("case", RECOVERY)
def test_a_recovered_trace_holds_the_jump_conditions(case):
    system, path, fixed, side, xi0, xi_end, curve = traced(case)
    w_l, w_r = (np.broadcast_to(fixed, curve.states.shape), curve.states)
    if side == "right":
        w_l, w_r = w_r, w_l
    resid = curve.xi[:, None] * (w_r - w_l) - path_integral(path, system, w_l, w_r)
    scale = max(1.0, abs(xi_end), float(np.abs(fixed).max()))
    assert np.abs(resid).max() <= 1e-10 * scale
    assert np.all(np.diff(curve.xi) * np.sign(xi_end - xi0) > 0)
    if case == "trace_gives_up":
        # the last traced speed stops short of the one no halving reached
        assert curve.failed_at is not None
        assert (curve.xi[-1] - xi0) / (xi_end - xi0) < (curve.failed_at - xi0) / (
            xi_end - xi0) < 1.0
        assert curve.failed_at == pytest.approx(-0.35536205467942683, abs=1e-12)
    else:
        assert curve.failed_at is None
        assert curve.xi[-1] == pytest.approx(xi_end, abs=1e-12)


def test_the_pinned_inputs_run_the_recovery_lines():
    # a line trace of hugoniot.py: each recovery statement runs for one of
    # the pinned inputs
    import sys

    source = hugoniot.__file__
    lines = open(source).read().splitlines()

    def numbered(text):
        return [i + 1 for i, line in enumerate(lines) if line.strip() == text]

    after_error, no_descent = numbered("lam *= 0.5")
    want = {"trace_halves_and_recovers": numbered("remaining *= 0.5"),
            "newton_halves_after_an_error": [after_error],
            "newton_halves_a_step_that_does_not_descend": [no_descent],
            "trace_gives_up": numbered("failed_at = xi_next")}
    for case, targets in want.items():
        hits = set()

        def trace(frame, event, arg):
            if frame.f_code.co_filename != source:
                return None
            if event == "line":
                hits.add(frame.f_lineno)
            return trace

        sys.settrace(trace)
        try:
            traced(case)
        finally:
            sys.settrace(None)
        assert len(targets) == 1 and targets[0] in hits, case


@settings(max_examples=15, deadline=None)
@given(h=st.floats(0.6, 1.8), q=st.floats(0.5, 4.0), side=st.sampled_from(["left", "right"]),
       k=st.integers(0, 1), d=st.sampled_from([-2.0, -1.0, -0.8, -0.5, 0.5]),
       steps=st.integers(1, 6))
@example(h=1.35, q=1.99, side="right", k=1, d=-2.0, steps=6)  # trace_halves_and_recovers
@example(h=1.0, q=1.0, side="left", k=0, d=-0.8, steps=1)  # newton_halves_a_step_that...
def test_a_coarse_trace_holds_the_jump_conditions_or_truncates(h, q, side, k, d, steps):
    assume(h < np.cbrt(16.0 * q))
    system, path, fixed = SimplifiedSystem(), TwoSegmentPath(), np.array([h, q])
    xi0 = float(system.eigenvalues(fixed)[k])
    curve = trace_exact(system, path, fixed, side, xi0, xi0 + d, steps)
    w_l, w_r = np.broadcast_to(fixed, curve.states.shape), curve.states
    if side == "right":
        w_l, w_r = w_r, w_l
    resid = curve.xi[:, None] * (w_r - w_l) - path_integral(path, system, w_l, w_r)
    assert np.abs(resid).max() <= 1e-10 * max(1.0, abs(xi0 + d), float(np.abs(fixed).max()))
    if curve.failed_at is None:
        assert curve.xi[-1] == pytest.approx(xi0 + d, abs=1e-12)
    else:
        assert 0.0 < (curve.xi[-1] - xi0) / d < (curve.failed_at - xi0) / d < 1.0
