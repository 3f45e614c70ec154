import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import oracles
import pathfv
from pathfv import (
    CurveRangeError,
    DomainError,
    RiemannSolutionError,
    SimplifiedSystem,
    TwoSegmentPath,
    fan_split_integrals,
    path_integral,
    sample,
    shock_curve_1,
    solve_riemann,
)
from pathfv.riemann import (NULL, RAREFACTION, SHOCK, _bisect_intersection, _curves_at,
                            _lane_point, _lane_state, _newton_lane, _wave_curves)
from conftest import random_simplified_states
from oracles import FanPath, ends, hugoniot_q_from_unit_left, rarefaction_curve, waves

Q_R = 0.530039370688997
XI_SHOCK = (Q_R - 1.0) / 0.8

SYS = SimplifiedSystem()


def lam1(w):
    u = w[1] / w[0]
    return u - w[0] * np.sqrt(u)


def lam2(w):
    u = w[1] / w[0]
    return u + w[0] * np.sqrt(u)


class TestWaveCurves:
    def test_zero_strength_shock(self):
        assert shock_curve_1([1.0, 1.0], 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_reference_point(self):
        assert shock_curve_1([1.0, 1.0], 1.8) == pytest.approx(Q_R, abs=1e-14)
        assert shock_curve_1([1.0, 1.0], 1.8) == pytest.approx(
            hugoniot_q_from_unit_left(1.8), abs=1e-14
        )

    def test_shock_curve_satisfies_jump_conditions(self, rng):
        path = TwoSegmentPath()
        W = random_simplified_states(rng, 20)
        for wl in W:
            for hr in (wl[0] * 1.1, wl[0] * 1.6):
                qr = shock_curve_1(wl, hr)
                wr = np.array([hr, qr])
                xi = (qr - wl[1]) / (hr - wl[0])
                I = path_integral(path, SYS, wl, wr)
                assert np.abs(xi * (wr - wl) - I).max() < 1e-11

    def test_family2_branch_tangency(self):
        # d q / d h at the base point equals the matching eigenvalue
        wl = np.array([1.2, 0.9])
        eps = 1e-6
        s1 = (shock_curve_1(wl, wl[0] + eps) - wl[1]) / eps
        s2 = (oracles._shock_q_from_left(*wl, wl[0] + eps, family=2) - wl[1]) / eps
        assert s1 == pytest.approx(lam1(wl), abs=1e-5)
        assert s2 == pytest.approx(lam2(wl), abs=1e-5)

    def test_rarefaction_curve_values(self):
        assert rarefaction_curve(1, [1.0, 1.0], 1.0) == pytest.approx(1.0)
        # family 1 from (1,1) at h = 0.5: sqrt(u) = 1.25
        assert rarefaction_curve(1, [1.0, 1.0], 0.5) == pytest.approx(0.78125)

    def test_rarefaction_eigenvalue_monotone(self):
        wl = np.array([1.0, 1.0])
        hs = np.linspace(1.0, 0.3, 30)
        lams = [lam1([h, rarefaction_curve(1, wl, h)]) for h in hs]
        assert np.all(np.diff(lams) > 0)  # increases left to right in the fan

    def test_curve_leaves_state_space(self):
        with pytest.raises(CurveRangeError):
            rarefaction_curve(2, [2.0, 0.02], 0.01)


class TestSolveRiemann:
    def test_trivial(self):
        fan = solve_riemann([1.0, 1.0], [1.0, 1.0])
        assert all(w.kind == "null" for w in waves(fan))
        assert np.allclose(sample(fan, 0.0), [1.0, 1.0])

    def test_pure_one_shock(self):
        fan = solve_riemann([1.0, 1.0], [1.8, Q_R])
        kinds = [(w.family, w.kind) for w in waves(fan)]
        assert kinds == [(1, "shock"), (2, "null")]
        assert waves(fan)[0].speed == pytest.approx(XI_SHOCK, abs=1e-10)

    def test_rarefaction_then_shock(self):
        fan = solve_riemann([1.0, 1.0], [0.5, 0.5])
        kinds = [(w.family, w.kind) for w in waves(fan)]
        assert kinds == [(1, "rarefaction"), (2, "shock")]
        assert 0.5 < fan.w_star[0] < 1.0

    def test_lax_inequalities(self, rng):
        W = random_simplified_states(rng, 40, h_range=(0.8, 1.3), u_range=(0.8, 1.5))
        for wl, wr in zip(W[::2], W[1::2]):
            fan = solve_riemann(wl, wr)
            for w in waves(fan):
                if w.kind != "shock":
                    continue
                lam = lam1 if w.family == 1 else lam2
                assert lam(w.left) > w.speed - 1e-9
                assert w.speed > lam(w.right) - 1e-9

    def test_round_trip_on_shock_locus(self, rng):
        # any admissible point produced by the forward shock curve comes back
        # as a single 1-shock whose speed satisfies the jump conditions
        path = TwoSegmentPath()
        W = random_simplified_states(rng, 10)
        for wl in W:
            hr = wl[0] * 1.25
            wr = np.array([hr, shock_curve_1(wl, hr)])
            if not SYS.is_admissible(wr):
                continue
            fan = solve_riemann(wl, wr)
            assert [w.kind for w in waves(fan)] == ["shock", "null"]
            xi = waves(fan)[0].speed
            I = path_integral(path, SYS, wl, wr)
            assert np.abs(xi * (wr - wl) - I).max() < 1e-10

    def test_classification_stable_under_perturbation(self, rng):
        W = random_simplified_states(rng, 30, h_range=(0.8, 1.2), u_range=(0.9, 1.4))
        for wl, wr in zip(W[::2], W[1::2]):
            fan = solve_riemann(wl, wr)
            kinds = [w.kind for w in waves(fan)]
            if "null" in kinds:
                continue  # at a classification boundary by construction
            for _ in range(3):
                wl2 = wl * (1 + 1e-8 * rng.standard_normal(2))
                wr2 = wr * (1 + 1e-8 * rng.standard_normal(2))
                fan2 = solve_riemann(wl2, wr2)
                assert [w.kind for w in waves(fan2)] == kinds


class TestSample:
    fan = solve_riemann([1.0, 1.0], [0.5, 0.5])

    def test_outside_fan(self):
        lo = waves(self.fan)[0].speed_left
        hi = waves(self.fan)[1].speed_right
        assert np.allclose(sample(self.fan, lo - 0.5), [1.0, 1.0])
        assert np.allclose(sample(self.fan, hi + 0.5), [0.5, 0.5])

    def test_shock_with_negative_speed_at_origin(self):
        fan = solve_riemann([1.0, 1.0], [1.8, Q_R])
        assert np.allclose(sample(fan, 0.0), [1.8, Q_R])

    def test_piecewise_continuity(self):
        xs = np.linspace(-1.5, 3.0, 1200)
        vals = np.array([sample(self.fan, x) for x in xs])
        jumps = np.abs(np.diff(vals, axis=0)).max(axis=1)
        shock_speed = waves(self.fan)[1].speed
        big = xs[:-1][jumps > 1e-2]
        assert np.all(np.abs(big - shock_speed) < 2 * (xs[1] - xs[0]))

    def test_inside_rarefaction_matches_eigenvalue(self):
        w1 = waves(self.fan)[0]
        xi = 0.5 * (w1.speed_left + w1.speed_right)
        w = sample(self.fan, xi)
        assert lam1(w) == pytest.approx(xi, abs=1e-12)


class TestFanIntegrals:
    def test_trivial(self):
        fan = solve_riemann([1.0, 1.0], [1.0, 1.0])
        mm, mp = fan_split_integrals(fan)
        assert np.abs(mm).max() == 0.0 and np.abs(mp).max() == 0.0

    def test_single_negative_shock_goes_left(self):
        wl = np.array([1.0, 1.0])
        wr = np.array([1.8, Q_R])
        fan = solve_riemann(wl, wr)
        mm, mp = fan_split_integrals(fan)
        assert np.abs(mp).max() == 0.0
        I = path_integral(TwoSegmentPath(), SYS, wl, wr)
        assert np.abs(mm - I).max() < 1e-10

    def test_conservative_component_telescopes(self, rng):
        W = random_simplified_states(rng, 30, h_range=(0.7, 1.4), u_range=(0.8, 1.6))
        for wl, wr in zip(W[::2], W[1::2]):
            fan = solve_riemann(wl, wr)
            mm, mp = fan_split_integrals(fan)
            assert (mm + mp)[0] == pytest.approx(wr[1] - wl[1], abs=1e-12)

    def test_sum_matches_wave_path_quadrature(self, rng):
        # the two parts add up to the path integral along the wave-curve path
        W = random_simplified_states(rng, 16, h_range=(0.8, 1.3), u_range=(0.9, 1.5))
        for wl, wr in zip(W[::2], W[1::2]):
            fan = solve_riemann(wl, wr)
            mm, mp = fan_split_integrals(fan)
            fanpath = FanPath(fan)
            I = path_integral(fanpath, SYS, wl, wr, method="quadrature")
            assert np.abs((mm + mp) - I).max() < 1e-10

    def test_transonic_rarefaction_splits_at_sonic_state(self):
        # a 1-rarefaction straddling x/t = 0: left of the split has lam1 < 0
        wl = np.array([1.0, 1.0])  # lam1(wl) = 0
        wr_h = 0.55
        wr = np.array([wr_h, rarefaction_curve(1, wl, wr_h)])
        fan = solve_riemann(wl * np.array([1.02, 0.98]), wr)
        w1 = waves(fan)[0]
        if not (w1.kind == "rarefaction" and w1.speed_left < 0 < w1.speed_right):
            pytest.skip("datum no longer transonic")
        mm, mp = fan_split_integrals(fan)
        fanpath = FanPath(fan)
        I = path_integral(fanpath, SYS, fan.w_l, fan.w_r, method="quadrature")
        assert np.abs((mm + mp) - I).max() < 1e-10
        assert np.abs(mm).max() > 0 and np.abs(mp).max() > 0


# ---------------------------------------------------------------------------
# The batched solver against the scalar oracle, on random pairs around (1, 1)


@st.composite
def riemann_pair(draw):
    """One pair near (1, 1): equal states, a 1-shock, a 1-rarefaction, a
    1-rarefaction straddling x/t = 0, or two unrelated states; the right
    state of a simple wave is jittered half of the time, which adds a
    2-wave."""
    kind = draw(st.sampled_from(["null", "shock", "rarefaction", "sonic", "any"]))
    h_l = draw(st.floats(0.8, 1.3))
    if kind == "sonic":  # lam_1(w_l) < 0 < lam_1(w_r)
        psi_l = h_l * draw(st.floats(0.7, 0.97))
        w_l = (h_l, h_l * psi_l * psi_l)
        h = (2.0 * psi_l + h_l) / 3.0 * draw(st.floats(0.6, 0.95))
        w_r = (h, rarefaction_curve(1, w_l, h))
    else:
        w_l = (h_l, h_l * draw(st.floats(0.7, 1.5)))
        if kind == "null":
            return w_l, w_l
        if kind == "any":
            h = draw(st.floats(0.8, 1.3))
            return w_l, (h, h * draw(st.floats(0.7, 1.5)))
        if kind == "shock":
            h = h_l * draw(st.floats(1.0, 1.6))
            w_r = (h, shock_curve_1(w_l, h))
        else:
            h = h_l * draw(st.floats(0.6, 1.0))
            w_r = (h, rarefaction_curve(1, w_l, h))
    if draw(st.booleans()):
        w_r = (w_r[0] * draw(st.floats(0.97, 1.03)), w_r[1] * draw(st.floats(0.97, 1.03)))
    return w_l, w_r


PAIR_BATCH = st.lists(riemann_pair(), min_size=1, max_size=12)
WL_SONIC = (1.02, 0.98)
SIMPLE_WAVES = [  # null, pure 1-shock, rarefaction then shock, transonic
    ((1.0, 1.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.8, Q_R)),
    ((1.0, 1.0), (0.5, 0.5)),
    (WL_SONIC, (0.55, rarefaction_curve(1, (1.0, 1.0), 0.55))),
]
# a 1-rarefaction whose middle state lands 1.9e-13 from w_r: a 2-shock of
# that strength, which the quotient of its differences moved at 0.629 where
# lam_2 = 1.088, so that the round trip found its speeds disordered
NEAR_NULL_SHOCK = [((0.875, 0.3442043587565422),
                    (0.42698796590169275, 0.30937286187168545))]

# Newton's line search runs out of its 40 step halvings on this pair, which
# then takes the fallback: found among 400,000 pairs with h and q log-uniform
# on [e^-6, e^6], rounded to two digits
LINE_SEARCH_RUNS_OUT = ((200.0, 0.15), (3.6, 0.15))


def _solve_batch(pairs):
    w_l = np.array([p[0] for p in pairs], dtype=float)
    w_r = np.array([p[1] for p in pairs], dtype=float)
    return w_l, w_r, solve_riemann(w_l, w_r)


class TestBatchedSolverAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(PAIR_BATCH)
    @example(SIMPLE_WAVES)
    @example([LINE_SEARCH_RUNS_OUT])
    def test_each_lane_equals_the_scalar_oracle_bit_for_bit(self, pairs):
        w_l, w_r, fan = _solve_batch(pairs)
        mm, mp = fan_split_integrals(fan)
        for i in range(len(pairs)):
            ref = oracles.solve_riemann(w_l[i], w_r[i])
            assert np.array_equal(fan.w_star[i], np.array(ref.w_star))
            for f, wave in enumerate(ref.waves):
                assert (("null", "shock", "rarefaction")[fan.kind[f, i]], fan.speed_left[f, i],
                        fan.speed_right[f, i]) == (wave.kind, wave.speed_left, wave.speed_right)
            ref_m, ref_p = oracles.fan_split_integrals(ref)
            assert np.array_equal(mm[i], ref_m) and np.array_equal(mp[i], ref_p)
            # on the wave edges, at the sonic point and inside the fans
            edges = [s for w in ref.waves for s in (w.speed_left, w.speed_right)]
            for xi in edges + [0.0, 0.5 * (edges[0] + edges[1]), edges[0] - 1.0,
                               edges[-1] + 1.0]:
                assert np.array_equal(sample(fan, xi)[i], oracles.sample(ref, xi))

    @settings(max_examples=150, deadline=None)
    @given(PAIR_BATCH)
    @example(SIMPLE_WAVES)
    @example(NEAR_NULL_SHOCK)
    def test_lax_inequalities_and_speed_order_hold_on_every_lane(self, pairs):
        _, _, fan = _solve_batch(pairs)
        lam = {1: lam1, 2: lam2}
        for i in range(len(pairs)):
            speeds = []
            for f in (1, 2):
                left, right = (w[i] for w in ends(fan, f))
                kind = fan.kind[f - 1, i]
                sl, sr = fan.speed_left[f - 1, i], fan.speed_right[f - 1, i]
                if kind == SHOCK:
                    assert sl == sr
                # a 1-shock stronger than 1.3 may break the inequality (see
                # test_strong_one_shock_satisfies_lax)
                thin, thick = sorted((left[0], right[0]))
                if kind == SHOCK and thick <= 1.3 * thin:
                    assert lam[f](left) > sl - 1e-9 and sl > lam[f](right) - 1e-9
                if kind == RAREFACTION:
                    assert sl <= sr
                if kind != NULL:
                    speeds += [sl, sr]
            assert np.all(np.diff(speeds) >= -1e-9)

    @settings(max_examples=150, deadline=None)
    @given(PAIR_BATCH)
    @example(SIMPLE_WAVES)
    @example(NEAR_NULL_SHOCK)
    def test_forward1_backward2_round_trip_closes(self, pairs):
        w_l, w_r, fan = _solve_batch(pairs)
        h, q = fan.w_star[:, 0], fan.w_star[:, 1]
        anchors = (*w_l.T, np.sqrt(w_l[:, 1] / w_l[:, 0]), *w_r.T, np.sqrt(w_r[:, 1] / w_r[:, 0]))
        q1, q2, bad = _wave_curves(anchors, h)
        scale = np.maximum(np.abs(w_l[:, 1]), np.maximum(np.abs(w_r[:, 1]), 1.0))
        assert not bad.any()
        assert np.all(np.abs(q1 - q) <= 1e-9 * scale)
        assert np.all(np.abs(q2 - q) <= 1e-9 * scale)
        # w_l -> w_star is a lone 1-wave and w_star -> w_r a lone 2-wave: the
        # middle state comes back, so the other family's wave has no strength
        first = solve_riemann(w_l, fan.w_star)
        second = solve_riemann(fan.w_star, w_r)
        assert np.allclose(first.w_star, fan.w_star, rtol=1e-9, atol=0.0)
        assert np.allclose(second.w_star, fan.w_star, rtol=1e-9, atol=0.0)


def _anchors(w_l, w_r):
    return (w_l[0], w_l[1], np.sqrt(w_l[1] / w_l[0]), w_r[0], w_r[1], np.sqrt(w_r[1] / w_r[0]))


@st.composite
def lane_point(draw):
    """The anchors of one pair and a point (h, q): on both sides of h_l and
    of h_r, at h <= 0, and, from a slow right state, where the 2-curve's
    sqrt(u) = sqrt(u_r) + (h - h_r)/2 is negative."""
    w_l, w_r = draw(riemann_pair())
    if draw(st.booleans()):
        w_r = (w_r[0], w_r[1] * draw(st.floats(0.0, 0.05)))
    near = [st.floats(0.98 * h, 1.02 * h) for h in (w_l[0], w_r[0])]
    h = draw(st.one_of(st.floats(-1.0, 0.0), st.floats(0.0, 3.0),
                       st.sampled_from([w_l[0], w_r[0]]), *near))
    return _anchors(w_l, w_r), h, draw(st.floats(0.0, 3.0))


def _rows_and_columns(points):
    """Each point's ``_lane_point`` row and its ``_lane_state`` column."""
    anchors = np.repeat(np.array([p[0] for p in points]).T[:, None], 3, axis=1)
    h, q = (np.array([p[k] for p in points]) for k in (1, 2))
    with np.errstate(all="ignore"):
        state = _lane_state(anchors, h, q)
    return [(np.array(_lane_point(*p)), state[:, i]) for i, p in enumerate(points)]


# first, last: Newton stalls and brentq brackets the root; middle: Newton
STALLING_PAIRS = [((0.3746355364538239, 1.4254421794028227), (1.0028084839530083, 1.6595744557076246)),
                  ((1.0, 1.0), (0.5, 0.5)),
                  ((1.0074094373342195, 3.23586421586436), (1.6530346391837758, 0.1505159210002071))]


class TestScalarKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(lane_point(), min_size=1, max_size=8))
    def test_a_lane_row_equals_the_batched_column_bit_for_bit(self, points):
        for row, column in _rows_and_columns(points):
            assert row.tobytes() == column.tobytes()

    def test_a_lane_row_equals_the_batched_column_on_many_points(self):
        # pow(x, 2.0) and x * x round apart on a few points in ten thousand
        rng = np.random.default_rng(19)
        pairs = rng.uniform(0.3, 3.0, (10_000, 4)) * [1.0, 1.0, 1.0, 0.5]
        h, q = rng.uniform(-0.5, 4.0, 10_000), rng.uniform(0.0, 4.0, 10_000)
        points = [(_anchors(p[:2], p[2:]), h[i], q[i]) for i, p in enumerate(pairs.tolist())]
        for row, column in _rows_and_columns(points):
            assert row.tobytes() == column.tobytes()

    def test_a_lane_row_follows_numpy_past_the_float_range(self):
        # a square that overflows, a shock denominator h_r/h that underflows
        # to 0, points that are not finite, and a residual inf - inf
        wide = _anchors((1.0, 1.0), (1e-20, 1e-20))
        points = [(wide, h, q) for h in (1e200, 1e306, np.inf, -np.inf, np.nan)
                  for q in (1.0, np.inf)]
        for row, column in _rows_and_columns(points):
            assert np.array_equal(row, column, equal_nan=True)
            assert np.array_equal(np.signbit(row), np.signbit(column))
        assert np.isinf(_lane_point(wide, 1e306, 1.0)[7])  # q2 at h + dh

    def test_a_lane_leaves_where_its_jacobian_is_off_range_or_singular(self):
        anchors = _anchors((1.0, 1.0), (0.5, 0.5))
        row = _lane_point(anchors, 0.75, 0.7)
        off_range = row[:9] + (1.0, 0.0)
        singular = row[:5] + (row[6], row[6], row[8], row[8], 0.0, 0.0)  # q(h + dh) = q(h - dh)
        for stalled in (off_range, singular):
            assert _newton_lane(anchors, stalled, 0.0, 100) is stalled

    def test_the_hand_off_passes_the_steps_left_of_the_cap(self, monkeypatch):
        # the 41 easy lanes leave together after some NumPy steps, and the
        # two stalling ones go on in Python floats with the rest of their 100
        import pathfv.riemann as R

        steps, handed = [], []
        monkeypatch.setattr(R, "_newton_step",
                            lambda *a, real=R._newton_step: steps.append(1) or real(*a))
        monkeypatch.setattr(R, "_newton_lane",
                            lambda *a, real=R._newton_lane: handed.append(a[-1]) or real(*a))
        _solve_batch(STALLING_PAIRS + [((1.0, 1.0), (0.5, 0.5))] * 40)
        assert steps and handed == [100 - len(steps)] * 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(riemann_pair(), min_size=1, max_size=40))
    @example(STALLING_PAIRS)
    @example(STALLING_PAIRS + [((1.0, 1.0), (0.5, 0.5))] * 30)
    def test_the_hand_off_threshold_moves_no_lane(self, pairs):
        # 0: NumPy to the end; 10**9: Python floats after the start state
        import pathfv.riemann

        default = _solve_batch(pairs)[2]
        for lanes in (0, 10**9):
            with mock.patch.object(pathfv.riemann, "_SCALAR_LANES", lanes):
                fan = _solve_batch(pairs)[2]
            assert fan.w_star.tobytes() == default.w_star.tobytes()
            for field in ("kind", "speed_left", "speed_right"):
                assert np.array_equal(getattr(fan, field), getattr(default, field))


@st.composite
def log_uniform_anchors(draw):
    """The anchors of a pair whose h and u = q/h are log-uniform over many
    decades: about a third of such pairs have a midpoint off the 2-curve."""
    h_l, u_l, h_r, u_r = (np.exp(draw(st.floats(-12.0, 12.0))) for _ in range(4))
    return _anchors((h_l, h_l * u_l), (h_r, h_r * u_r))


START_REFUSED = _anchors((1.0, 1.0), (3.0, 0.03))  # lane 1 of the start refusal


@settings(max_examples=400, deadline=None)
@given(log_uniform_anchors())
@example(START_REFUSED)
def test_a_midpoint_off_range_means_w_l_off_range_and_an_inadmissible_w_r(anchors):
    # the 2-curve's sqrt(u) = psi_r + (h - h_r)/2 grows with h, and h_l <= h
    # wherever it is negative: a restart from w_l could never help
    h_l, q_l, _, h_r, q_r, psi_r = anchors
    if _lane_point(anchors, 0.5 * (h_l + h_r), 0.5 * (q_l + q_r))[10]:
        assert _lane_point(anchors, h_l, q_l)[10]
        assert h_r >= 4.0 * psi_r


@settings(max_examples=400, deadline=None)
@given(log_uniform_anchors(), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_brentq_sees_no_off_range_point_inside_an_in_range_bracket(anchors, low, width,
                                                                    inside):
    # both ends in range as _wave_curves marks them, as the fallback's bracket
    # is: then so is every point between them
    h_r, psi_r = anchors[3], anchors[5]
    a = max(h_r - 2.0 * psi_r, 0.0) + low * h_r  # near where the 2-curve ends
    b = a * (1.0 + width) + 1e-300
    with np.errstate(all="ignore"):
        assume(not _wave_curves(anchors, np.array([a, b]))[2].any())
    for h in [np.nextafter(a, b), np.nextafter(b, a)] + [a + f * (b - a) for f in inside]:
        assert not _curves_at(anchors, float(h))[2]


@pytest.mark.xfail(strict=True, reason="1-shocks are admitted by thickness order "
                   "alone, and this strong one moves faster than lam_1 behind it")
def test_strong_one_shock_satisfies_lax():
    w_l, h = (1.25, 0.9375), 1.875
    wave = waves(solve_riemann(w_l, (h, shock_curve_1(w_l, h))))[0]
    assert wave.kind == "shock"
    assert lam1(wave.left) > wave.speed > lam1(wave.right)


def test_lanes_where_newton_stalls_fall_back_to_brentq(monkeypatch):
    # Newton stalls on the first and last pair, and both solvers bracket the
    # root with brentq instead; the middle pair converges by Newton
    import pathfv.riemann

    calls = []
    real = pathfv.riemann.brentq
    monkeypatch.setattr(pathfv.riemann, "brentq",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    w_l = np.array([[0.3746355364538239, 1.4254421794028227], [1.0, 1.0],
                    [1.0074094373342195, 3.23586421586436]])
    w_r = np.array([[1.0028084839530083, 1.6595744557076246], [0.5, 0.5],
                    [1.6530346391837758, 0.1505159210002071]])
    fan = solve_riemann(w_l, w_r)
    assert len(calls) == 2
    for i in range(3):
        ref = oracles.solve_riemann(w_l[i], w_r[i])
        assert np.array_equal(fan.w_star[i], np.array(ref.w_star))


@settings(max_examples=300, deadline=None)
@given(log_uniform_anchors())
@example(_anchors(*STALLING_PAIRS[0]))
@example(_anchors(*STALLING_PAIRS[-1]))
def test_brentq_returns_scipys_bits_on_the_fallbacks_brackets(anchors):
    # the bracket and the gap are the ones _bisect_intersection hands over,
    # from its own scan; about half of these pairs have no sign change on it
    import pathfv.riemann

    anchors = tuple(float(a) for a in anchors)
    handed = []
    with mock.patch.object(pathfv.riemann, "brentq", lambda *a: handed.append(a) or 0.0):
        with np.errstate(all="ignore"):
            try:
                _bisect_intersection(anchors, 3)
            except RiemannSolutionError:
                return
    gap, a, b, lane = handed[0]
    assert lane == 3
    try:
        ref = scipy_brentq(gap, a, b, xtol=1e-15, rtol=1e-15)
    except (ValueError, RuntimeError):
        with pytest.raises(RiemannSolutionError) as err:
            pathfv.riemann.brentq(gap, a, b, lane)
        assert err.value.index == lane
        return
    assert pathfv.riemann.brentq(gap, a, b, lane).hex() == ref.hex()


def _step(h):
    return math.copysign(1.0, h - 0.5)


# functions on which Brent's method leaves the path a smooth gap takes: a
# flat root, a step, a tiny scale, an exponential
HARD_FUNCTIONS = [lambda h: (h - 0.3) ** 5, _step, lambda h: math.atan(h - 1.7) * 1e-200,
                  lambda h: math.exp(h) - 10.0, lambda h: math.cos(h) - h]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HARD_FUNCTIONS), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_brentq_returns_scipys_bits_off_the_smooth_path(f, a, b):
    try:
        ref = scipy_brentq(f, a, b, xtol=1e-15, rtol=1e-15)
    except (ValueError, RuntimeError):  # ends of one sign, no convergence
        with pytest.raises(RiemannSolutionError):
            pathfv.riemann.brentq(f, a, b, 0)
        return
    assert pathfv.riemann.brentq(f, a, b, 0).hex() == ref.hex()


# (f, a, b, message) on which scipy's brentq raises: ends of one sign; a NaN
# at the first iterate, h = 0.5; and a step function whose root needs about
# a thousand bisections of this bracket
BRENTQ_FAILURES = {
    "one sign": (lambda h: h + 1.0, 0.0, 1.0,
                 "the wave-curve gap has one sign at both bracket ends (lane 4)"),
    "NaN": (lambda h: _step(h) if abs(h - 0.5) > 0.25 else math.nan, 0.0, 1.0,
            "the wave-curve gap is NaN at h = 0.5 (lane 4)"),
    "no convergence": (_step, -1e300, 1e300,
                       "the bracketed root did not converge in 100 iterations (lane 4)"),
}


@pytest.mark.parametrize("case", list(BRENTQ_FAILURES))
def test_brentq_raises_the_typed_error_where_scipy_raises(case):
    f, a, b, message = BRENTQ_FAILURES[case]
    with pytest.raises((ValueError, RuntimeError)):
        scipy_brentq(f, a, b, xtol=1e-15, rtol=1e-15)
    with pytest.raises(RiemannSolutionError) as err:
        pathfv.riemann.brentq(f, a, b, 4)
    assert str(err.value) == message and err.value.index == 4


def test_a_lane_whose_line_search_runs_out_falls_back_to_brentq(monkeypatch):
    import pathfv.riemann

    trials, rows, calls = [], [], []
    for name, log in (("_lane_point", trials), ("_newton_lane", rows), ("brentq", calls)):
        real = getattr(pathfv.riemann, name)
        monkeypatch.setattr(pathfv.riemann, name,
                            lambda *a, real=real, log=log: log.append(real(*a)) or log[-1])
    fan = solve_riemann(*LINE_SEARCH_RUNS_OUT)
    # the lane leaves with the row it had before its last step: each of the
    # last 40 trial points is off range or no better
    row = rows[-1]
    assert len(trials) >= 40 and trials[-1] is not row
    assert all(t[10] or not t[4] < row[4] for t in trials[-40:])
    assert len(calls) == 1
    ref = oracles.solve_riemann(*LINE_SEARCH_RUNS_OUT)
    assert np.array_equal(fan.w_star, np.array(ref.w_star))


def test_importing_the_package_loads_no_scipy():
    # nor does solving the two stalling pairs, which take the bracketed fallback
    code = ("import sys, pathfv.experiments; "
            f"pathfv.solve_riemann(*zip({STALLING_PAIRS[0]}, {STALLING_PAIRS[-1]})); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(pathfv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_lane_that_leaves_the_iteration_is_not_evaluated_again(monkeypatch):
    # a stalling pair runs Newton to its line-search limit and then brentq;
    # the 40 easy pairs beside it must not be carried along: the batch
    # evaluates the wave curves at exactly the points its lanes do alone,
    # counted over the NumPy and the Python-float kernel
    import pathfv.riemann

    points = []
    for name in ("_wave_curves", "_curves_at"):
        real = getattr(pathfv.riemann, name)
        monkeypatch.setattr(pathfv.riemann, name,
                            lambda a, h, real=real: points.append(np.size(h)) or real(a, h))
    w_l = np.array([[0.3746355364538239, 1.4254421794028227]] + [[1.0, 1.0]] * 40)
    w_r = np.array([[1.0028084839530083, 1.6595744557076246]] + [[0.5, 0.5]] * 40)
    alone = 0
    for pair in zip(w_l, w_r):
        solve_riemann(*pair)
        alone += sum(points)
        points.clear()
    solve_riemann(w_l, w_r)
    assert sum(points) == alone


class TestSolverErrors:
    def test_negative_flow_names_its_lane(self):
        w_l = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -0.5]])
        w_r = np.array([[1.2, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RiemannSolutionError) as err:
            solve_riemann(w_l, w_r)
        assert err.value.index == 2
        assert "lane 2" in str(err.value)

    def test_equal_states_with_negative_flow_raise_the_typed_error(self):
        # the scalar oracle fails inside math.sqrt with a bare ValueError
        with pytest.raises(ValueError, match="math domain error"):
            oracles.solve_riemann([1.0, -1.0], [1.0, -1.0])
        with pytest.raises(RiemannSolutionError) as err:
            solve_riemann([1.0, -1.0], [1.0, -1.0])
        assert err.value.index == 0

    def test_the_oracle_refuses_the_same_start(self):
        with pytest.raises(CurveRangeError, match="^no admissible start"):
            oracles.solve_riemann((1.0, 1.0), (3.0, 0.03))

    def test_waves_are_listed_for_one_pair_only(self):
        fan = solve_riemann([[1.0, 1.0]], [[0.5, 0.5]])
        assert fan.w_star.shape == (1, 2)
        with pytest.raises(DomainError):
            waves(fan)
