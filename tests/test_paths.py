import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathfv import (
    DomainError,
    EquilibriumPath,
    PathConstructionError,
    SegmentsPath,
    ShallowWaterSystem,
    SimplifiedSystem,
    SkewedSegmentsPath,
    TwoLayerSystem,
    TwoSegmentPath,
    path_integral,
)
import pathfv.paths as paths_mod
from pathfv.paths import (
    PATHS,
    _SCALAR_LANES,
    _equilibrium_h,
    _equilibrium_h_cached,
    _newton_scalar,
)
from pathfv.systems import SYSTEMS
from conftest import (
    random_shallow_water_states,
    random_simplified_states,
    random_two_layer_states,
)
from oracles import dense_path_integral

G = 9.81
Q_R = 0.530039370688997
RANDOM_STATES = {
    SimplifiedSystem.name: random_simplified_states,
    ShallowWaterSystem.name: random_shallow_water_states,
    TwoLayerSystem.name: random_two_layer_states,
}


def declared_pairs():
    """(family class, system) for every pair a family declares a coupling for."""
    return [(cls, SYSTEMS[name]()) for cls in PATHS.values() for name in cls.couplings]


def _family_cases(rng, n):
    return [
        (cls.for_system(system, 0.03), system, RANDOM_STATES[system.name](rng, n))
        for cls, system in declared_pairs()
    ]


def test_declared_pairs_name_known_systems():
    for cls in PATHS.values():
        assert cls.couplings and set(cls.couplings) <= set(SYSTEMS), cls.name
    pairs = {(cls.name, system.name) for cls, system in declared_pairs()}
    assert (SegmentsPath.name, ShallowWaterSystem.name) in pairs
    assert (TwoSegmentPath.name, ShallowWaterSystem.name) not in pairs


def test_undeclared_pair_has_no_closed_form():
    a = np.array([1.0, 0.5, 0.0])
    b = np.array([1.2, 0.4, 0.1])
    with pytest.raises(PathConstructionError):
        path_integral(TwoSegmentPath(), ShallowWaterSystem(G), a, b, method="closed")
    with pytest.raises(PathConstructionError):
        TwoSegmentPath().coupling(ShallowWaterSystem(G), a, b)


def test_endpoint_conditions(rng):
    # Phi(0) = u_l, Phi(1) = u_r, Phi(s; u, u) = u
    for path, system, W in _family_cases(rng, 2000):
        ul, ur = W[::2], W[1::2]
        if isinstance(path, EquilibriumPath):
            # pair by pair: a pair whose sigma jump the curve cannot reach
            # raises and is skipped
            ul, ur = ul[:50], ur[:50]
            for a, b in zip(ul, ur):
                try:
                    p0 = path.evaluate(0.0, a, b)
                    p1 = path.evaluate(1.0, a, b)
                except PathConstructionError:
                    continue
                assert np.abs(p0 - a).max() < 1e-14
                assert np.abs(p1 - b).max() < 1e-14
                s = np.linspace(0, 1, 7)
                assert np.abs(path.evaluate(s, a, a) - a).max() < 1e-14
        else:
            for a, b in zip(ul[:200], ur[:200]):
                assert np.abs(path.evaluate(0.0, a, b) - a).max() < 1e-14
                assert np.abs(path.evaluate(1.0, a, b) - b).max() < 1e-14
                s = np.linspace(0, 1, 7)
                assert np.abs(path.evaluate(s, a, a) - a).max() < 1e-14


def test_tangent_matches_finite_difference(rng):
    for path, system, W in _family_cases(rng, 40):
        for a, b in zip(W[::2][:8], W[1::2][:8]):
            svals = rng.uniform(0.02, 0.98, size=9)
            # keep away from the interior breakpoints of piecewise paths
            svals = svals[np.abs(svals - 0.5) > 0.02]
            try:
                tan = path.tangent(svals, a, b)
            except PathConstructionError:
                continue
            eps = 1e-7
            fd = (path.evaluate(svals + eps, a, b) - path.evaluate(svals - eps, a, b)) / (
                2 * eps
            )
            assert np.abs(tan - fd).max() < 1e-6


def test_batched_evaluate_and_tangent_equal_the_pair_calls(rng):
    # the pair axis must not be read as the component axis; two and three
    # pairs are the sizes that used to broadcast or to pass silently wrong
    for path, system, W in _family_cases(rng, 40):
        u_l, u_r = W[::2], W[1::2]
        if isinstance(path, EquilibriumPath):
            u_r[:, 2] = u_l[:, 2] + np.abs(u_r[:, 2] - u_l[:, 2])  # a rise is reachable
        s = rng.uniform(0.0, 1.0, len(u_l))
        for fn in (path.evaluate, path.tangent):
            alone = np.array([fn(t, a, b) for t, a, b in zip(s, u_l, u_r)])
            at_03 = np.array([fn(0.3, a, b) for a, b in zip(u_l, u_r)])
            for n in (2, 3, len(u_l)):
                assert fn(s[:n], u_l[:n], u_r[:n]).tobytes() == alone[:n].tobytes()
                assert fn(0.3, u_l[:n], u_r[:n]).tobytes() == at_03[:n].tobytes()


def test_segments_midpoint():
    p = SegmentsPath()
    assert np.allclose(p.evaluate(0.5, [0.0, 0.0], [2.0, 4.0]), [1.0, 2.0])
    assert np.allclose(p.evaluate(0.3, [3.0, 7.0], [3.0, 7.0]), [3.0, 7.0])


def test_two_segment_legs():
    p = TwoSegmentPath()
    assert np.allclose(p.evaluate(0.25, [1.0, 1.0], [2.0, 3.0]), [1.5, 1.0])
    assert np.allclose(p.evaluate(0.75, [1.0, 1.0], [2.0, 3.0]), [2.0, 2.0])


def test_two_segment_jump_conditions():
    # first leg carries q_l, so the induced momentum jump term is q_l [h^2/2]
    s = SimplifiedSystem()
    p = TwoSegmentPath()
    wl = np.array([1.0, 1.0])
    wr = np.array([1.8, Q_R])
    I = path_integral(p, s, wl, wr)
    assert I[0] == pytest.approx(Q_R - 1.0, abs=1e-15)
    expect = Q_R**2 / 1.8 - 1.0 + 1.0 * (1.8**2 - 1.0) / 2.0
    assert I[1] == pytest.approx(expect, abs=1e-14)


def test_two_layer_segment_coupling_value():
    # int Phi_h1 dPhi_h2 with h1: 1 -> 3 and h2: 2 -> 4 is midpoint * jump = 4
    sys = TwoLayerSystem(G, r=0.0)
    seg = SegmentsPath()
    ul = np.array([1.0, 0.0, 2.0, 0.0])
    ur = np.array([3.0, 0.0, 4.0, 0.0])
    I = path_integral(seg, sys, ul, ur)
    coupling = (I[1] - (sys.conservative_flux(ur) - sys.conservative_flux(ul))[1]) / G
    assert coupling == pytest.approx((1 + 3) / 2 * (4 - 2), rel=1e-13)


def test_skewed_closed_form_vs_quadrature():
    sys = TwoLayerSystem(G, 0.5)
    path = SkewedSegmentsPath(0.05)
    ul = np.array([1.0, 0.2, 0.5, -0.1])
    ur = np.array([2.0, -0.3, 1.5, 0.4])  # h1: 1 -> 2, h2: 0.5 -> 1.5
    closed = path.closed_form_integral(sys, ul, ur)
    quad = path_integral(path, sys, ul, ur, method="quadrature")
    assert np.abs(closed - quad).max() < 1e-10


@pytest.mark.parametrize("epsilon, reason", [(float("nan"), "finite"),
                                             (float("inf"), "finite"), (-0.1, ">= 0")])
def test_skewed_refuses_a_non_finite_or_negative_parameter(epsilon, reason):
    with pytest.raises(DomainError) as err:
        SkewedSegmentsPath(epsilon)
    assert str(err.value) == f"skew parameter must be {reason}"


def test_skewed_coupling_coefficients_by_parts():
    path = SkewedSegmentsPath(0.037)
    h1l, h1r, h2l, h2r = 0.7, 2.3, 1.9, 0.4
    c1, c2 = path.coupling_coefficients(h1l, h1r, h2l, h2r)
    assert c1 * (h2r - h2l) + c2 * (h1r - h1l) == pytest.approx(
        h1r * h2r - h1l * h2l, rel=1e-13
    )


def test_skewed_zero_parameter_reduces_to_segments(rng):
    sys = TwoLayerSystem(G, 0.95)
    seg, sk0 = SegmentsPath(), SkewedSegmentsPath(0.0)
    W = random_two_layer_states(rng, 40)
    s = np.linspace(0, 1, 17)
    for a, b in zip(W[::2], W[1::2]):
        assert np.array_equal(sk0.evaluate(s, a, b), seg.evaluate(s, a, b))
        assert (
            np.abs(
                path_integral(sk0, sys, a, b) - path_integral(seg, sys, a, b)
            ).max()
            < 1e-13
        )


def test_path_integral_trivial_and_conservative(rng):
    s = SimplifiedSystem()
    for path in (SegmentsPath(), TwoSegmentPath()):
        w = np.array([1.2, 0.9])
        assert np.abs(path_integral(path, s, w, w)).max() == 0.0
    # first equation is a conservation law: the first component is exactly [q]
    W = random_simplified_states(rng, 60)
    for path in (SegmentsPath(), TwoSegmentPath()):
        for a, b in zip(W[::2], W[1::2]):
            I = path_integral(path, s, a, b)
            assert I[0] == pytest.approx(b[1] - a[1], abs=1e-12)
    wl = np.array([1.0, 1.0])
    wr = np.array([1.8, Q_R])
    assert path_integral(TwoSegmentPath(), s, wl, wr)[0] == pytest.approx(
        -0.469960629311003, abs=1e-14
    )


def test_quadrature_matches_closed_forms(rng):
    for path, system, W in _family_cases(rng, 30):
        for a, b in zip(W[::2][:6], W[1::2][:6]):
            try:
                closed = path.closed_form_integral(system, a, b)
                quad = path_integral(path, system, a, b, method="quadrature")
            except PathConstructionError:
                continue
            assert np.abs(closed - quad).max() < 1e-10


def test_quadrature_integrates_a_batch_pair_by_pair(rng):
    # eight two-layer pairs, as many as the nodes of one 8-point panel: a
    # batch broadcast against the nodes would not even raise
    system = TwoLayerSystem(G, 0.95)
    path = SkewedSegmentsPath(0.05)
    UL, UR = random_two_layer_states(rng, 8), random_two_layer_states(rng, 8)
    UR[3] = UL[3]  # a pair of equal states integrates to zero
    one = [path_integral(path, system, a, b, method="quadrature") for a, b in zip(UL, UR)]
    got = path_integral(path, system, UL, UR, method="quadrature")
    assert got.shape == (8, 4)
    assert got.tobytes() == np.array(one).tobytes()
    got = path_integral(path, system, UL.reshape(2, 4, 4), UR.reshape(2, 4, 4),
                        method="quadrature")
    assert got.tobytes() == np.array(one).tobytes()
    # a single left state broadcasts against the right states
    got = path_integral(path, system, UL[0], UR, method="quadrature")
    assert got.tobytes() == np.array(
        [path_integral(path, system, UL[0], b, method="quadrature") for b in UR]).tobytes()


def test_quadrature_matches_dense_oracle():
    s = SimplifiedSystem()
    p = TwoSegmentPath()
    a = np.array([0.8, 1.1])
    b = np.array([1.7, 0.6])
    quad = path_integral(p, s, a, b, method="quadrature")
    dense = dense_path_integral(p, s, a, b)
    assert np.abs(quad - dense).max() < 1e-8


def test_conservative_rows_are_flux_differences(rng):
    sys = TwoLayerSystem(G, 0.95)
    W = random_two_layer_states(rng, 40)
    for path in (SegmentsPath(), SkewedSegmentsPath(0.05)):
        for a, b in zip(W[::2][:8], W[1::2][:8]):
            I = path_integral(path, sys, a, b)
            dF = sys.conservative_flux(b) - sys.conservative_flux(a)
            assert np.abs((I - dF)[[0, 2]]).max() < 1e-12


class TestEquilibriumPath:
    sys = ShallowWaterSystem(G)
    path = EquilibriumPath(G)

    def test_flat_sigma_is_pure_segment(self):
        # (the frozen-topography requirement): sigma_l = sigma_r keeps
        # the path inside the plane sigma = const
        a = np.array([1.0, 2.0, 0.4])
        b = np.array([1.5, 1.0, 0.4])
        s = np.linspace(0, 1, 21)
        states = self.path.evaluate(s, a, b)
        assert np.abs(states[:, 2] - 0.4).max() < 1e-14
        seg = SegmentsPath()
        # the in-plane part traverses (h, q): leg one is trivial
        assert np.allclose(states[-1], b, atol=1e-14)

    def test_continuous_sigma_keeps_h_without_a_solve(self, rng, monkeypatch):
        # [sigma] = 0 exactly: h* = h_l bit for bit, also at Froude 1 where
        # the energy curve is flat, and only the jump lanes reach the solver
        import pathfv.paths as paths_mod

        h = rng.uniform(0.2, 3.0, 400)
        fr = np.concatenate([rng.uniform(0.1, 0.8, 100), rng.uniform(1.2, 2.5, 100),
                             np.ones(100), np.zeros(100)])
        u_l = np.stack([h, fr * h * np.sqrt(G * h), rng.uniform(-1.0, 1.0, 400)], axis=-1)
        u_r = u_l.copy()
        jump = (np.arange(400) % 2 == 0) & (fr != 1.0)
        u_r[jump, 2] += 1e-3 * np.where(fr[jump] < 1.0, 1.0, -1.0)  # reachable
        seen = []

        def counting(h_l, q, delta_sigma, g):
            seen.append(np.size(h_l))
            return _equilibrium_h(h_l, q, delta_sigma, g)

        monkeypatch.setattr(paths_mod, "_equilibrium_h", counting)
        w_star = self.path.intermediate_state(u_l, u_r)
        assert np.array_equal(w_star[~jump, 0], u_l[~jump, 0])
        assert seen == [int(jump.sum())]
        assert np.array_equal(w_star[jump], self.path.intermediate_state(u_l[jump], u_r[jump]))

    def test_zero_flow_intermediate(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([1.7, 0.0, 0.7])
        w_star = self.path.intermediate_state(a, b)
        assert w_star[0] == pytest.approx(1.0 + 0.7, abs=1e-14)

    def test_supercritical_branch_value(self):
        # the standing-wave curve through (1, sqrt(4 g)) reaches sigma = 1 at
        # the thickness solving h^3 - 4 h^2 + 2 = 0 on the same branch
        a = np.array([1.0, np.sqrt(4 * G), 0.0])
        b_h = self.path.intermediate_state(a, np.array([0.5, np.sqrt(4 * G), 1.0]))[0]
        assert b_h == pytest.approx(0.7892441190408083, abs=1e-13)
        assert b_h**3 - 4 * b_h**2 + 2 == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_sigma_raises(self):
        a = np.array([1.0, np.sqrt(4 * G), 0.0])
        with pytest.raises(PathConstructionError):
            self.path.intermediate_state(a, np.array([1.0, np.sqrt(4 * G), -3.0]))

    def test_follows_equilibria_exactly(self):
        # both endpoints on one standing-wave curve: the path stays on it
        a = np.array([1.0, np.sqrt(4 * G), 0.0])
        b = np.array([0.7892441190408083, np.sqrt(4 * G), 1.0])
        s = np.linspace(0, 1, 41)
        states = self.path.evaluate(s, a, b)
        energy = states[:, 0] + states[:, 1] ** 2 / (2 * G * states[:, 0] ** 2)
        invariant = energy - states[:, 2]
        assert np.abs(invariant - invariant[0]).max() < 1e-10

    def test_integral_reduces_to_flux_difference_of_second_leg(self):
        a = np.array([1.0, np.sqrt(4 * G), 0.0])
        b = np.array([0.9, np.sqrt(4 * G) * 0.97, 1.0])
        closed = self.path.closed_form_integral(self.sys, a, b)
        quad = path_integral(self.path, self.sys, a, b, method="quadrature")
        assert np.abs(closed - quad).max() < 1e-10
        assert closed[2] == 0.0


def _energy_terms(h_l, q):
    """a = q^2/(2 g), the critical thickness and E(h_c) - E(h_l) <= 0."""
    a = q * q / (2.0 * G)
    h_c = (q * q / G) ** (1.0 / 3.0)
    return a, h_c, h_c + a / h_c**2 - (h_l + a / h_l**2)


@st.composite
def equilibrium_lanes(draw):
    """(h_l, q, delta_sigma) off the critical line, jumps of both signs."""
    h_l = draw(st.floats(0.05, 5.0))
    froude = draw(st.one_of(st.floats(0.05, 0.8), st.floats(1.25, 5.0)))
    q = draw(st.sampled_from((-1.0, 1.0))) * froude * h_l * float(np.sqrt(G * h_l))
    _, _, fall = _energy_terms(h_l, q)
    # a fall in sigma stops short of the critical energy level
    ds = draw(st.one_of(st.floats(0.0, 0.95).map(lambda t: t * fall),
                        st.floats(0.0, 3.0)))
    return h_l, q, ds


def _random_lanes(rng, n):
    """``n`` lanes drawn like ``equilibrium_lanes``, for batches of any size."""
    h_l = rng.uniform(0.05, 5.0, n)
    froude = np.where(rng.random(n) < 0.5, rng.uniform(0.05, 0.8, n),
                      rng.uniform(1.25, 5.0, n))
    q = rng.choice([-1.0, 1.0], n) * froude * h_l * np.sqrt(G * h_l)
    fall = _energy_terms(h_l, q)[2]
    ds = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.95, n) * fall,
                  rng.uniform(0.0, 3.0, n))
    return list(zip(h_l.tolist(), q.tolist(), ds.tolist()))


# the batch checks in the order the solve runs them, with the error of each
EQUILIBRIUM_CHECKS = (
    (DomainError, "equilibrium solve requires h > 0"),
    (PathConstructionError, "equilibrium curve leaves h > 0 for this sigma jump"),
    (PathConstructionError, "equilibrium curve does not reach the requested sigma"),
)


def bad_lane(check):
    """A lane that passes the checks before ``EQUILIBRIUM_CHECKS[check]``
    and fails that one."""
    return (
        # h_l <= 0
        st.tuples(st.floats(-5.0, 0.0), st.floats(-5.0, 5.0), st.floats(-1.0, 1.0)),
        # q = 0 and the jump empties the layer
        st.floats(0.05, 5.0).flatmap(lambda h: st.tuples(
            st.just(h), st.just(0.0), st.floats(-h - 3.0, -h))),
        # sigma beyond the critical energy level
        equilibrium_lanes().map(lambda lane: (
            lane[0], lane[1], _energy_terms(*lane[:2])[2] - 0.01 - abs(lane[2]))),
    )[check]


def _solve_lanes(lanes):
    return _equilibrium_h(*(np.array(v) for v in zip(*lanes)), G)


class TestBatchedEquilibriumSolve:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(equilibrium_lanes(), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    def test_the_vector_kernel_equals_the_scalar_kernel(self, drawn, seed):
        # the vector kernel runs on the lanes as the solve prepares them;
        # the scalar kernel must return the same bits on each of them.  A
        # power that rounds differently moves about one lane in a thousand,
        # so random lanes join the drawn ones
        lanes = drawn + _random_lanes(np.random.default_rng(seed), 100)
        calls = []
        vector = paths_mod._newton_vector

        def recording(*args):
            calls.append((args, vector(*args)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paths_mod, "_newton_vector", recording)
            mp.setattr(paths_mod, "_SCALAR_LANES", 0)
            solved = _solve_lanes(lanes)
        for args, out in calls:
            scalar = [_newton_scalar(*lane) for lane in zip(*(v.tolist() for v in args))]
            assert np.array(scalar).tobytes() == out.tobytes()
        for h, (h_l, q, _) in zip(solved, lanes):
            h_c = _energy_terms(h_l, q)[1]
            assert (h >= h_c) == (h_l >= h_c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(equilibrium_lanes(), min_size=1, max_size=8),
           st.integers(1, 3 * _SCALAR_LANES), st.integers(0, 2**32 - 1))
    @example([(1.0, 2.0, 0.5)], _SCALAR_LANES, 0)
    @example([(1.0, 2.0, 0.5)], _SCALAR_LANES + 1, 0)
    def test_a_batch_equals_its_lanes_solved_alone(self, drawn, size, seed):
        # a lane solved alone takes the scalar kernel; its batch takes the
        # vector kernel above the threshold
        lanes = (drawn + _random_lanes(np.random.default_rng(seed), size))[:size]
        alone = np.array([_equilibrium_h(*lane, G) for lane in lanes])
        assert _solve_lanes(lanes).tobytes() == alone.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(equilibrium_lanes(), max_size=4), st.integers(0, 2**32 - 1))
    def test_bad_lanes_raise_the_first_failed_checks_error(self, data, good, seed):
        # each check runs over the whole batch before the next, so the lane
        # failing the earlier check decides even when it comes last, on
        # both sides of the threshold
        first, later = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2,
                                          unique=True).map(sorted))
        early, late = data.draw(bad_lane(first)), data.draw(bad_lane(later))
        pad = _random_lanes(np.random.default_rng(seed), _SCALAR_LANES)
        for lanes, check in (([late], later), ([early], first),
                             (good + [late, early], first),
                             (good + [late] + pad + [early], first)):
            want, message = EQUILIBRIUM_CHECKS[check]
            with pytest.raises(want) as got:
                _solve_lanes(lanes)
            assert str(got.value) == message

    @pytest.mark.parametrize("lane", [(1.0, 1.0, 1e200), (1e-109, 1e-160, 1e-104)])
    def test_python_float_errors_fall_back_to_the_vector_kernel(self, lane, monkeypatch):
        # the scalar kernel's h**3 overflows on the first lane and
        # underflows to 0 on the second, where 2 a / h**3 then divides by
        # zero; NumPy returns inf there
        vector, calls = paths_mod._newton_vector, []
        monkeypatch.setattr(paths_mod, "_newton_vector",
                            lambda *args: calls.append(1) or vector(*args))
        with np.errstate(divide="ignore", invalid="ignore"):
            alone = _equilibrium_h(*lane, G)
            batch = _solve_lanes([lane] + _random_lanes(np.random.default_rng(0),
                                                        _SCALAR_LANES))
        assert calls == [1, 1]
        assert alone.tobytes() == batch[:1].tobytes()

    @pytest.mark.parametrize("q", [1e-170, -1e-170, 1e-162])
    def test_an_underflowing_flow_takes_the_still_water_rule(self, q):
        # q^2 / (2 g) is 0 here: the lane is still water, h_l + [sigma],
        # refused where that empties the layer, without a NumPy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _equilibrium_h(1.0, q, 0.5, G) == 1.5
            assert _equilibrium_h([1.0, 2.0], [q, 1.0], [-0.25, 0.0], G).tolist() == [
                0.75, 2.0]
            with pytest.raises(PathConstructionError, match="leaves h > 0"):
                _equilibrium_h(1.0, q, -1.0, G)

    def test_no_sigma_jump_returns_h_l_bit_for_bit(self, rng):
        # at Froude 1 the bracketed Newton iteration used to stop up to 1.6e-8
        # (relative) away from h_l although sigma does not jump
        h_l = rng.uniform(0.05, 5.0, 2000)
        q = rng.choice([-1.0, 1.0], 2000) * h_l * np.sqrt(G * h_l)
        assert _equilibrium_h(h_l, q, 0.0, G).tobytes() == h_l.tobytes()
        for h, flow in zip(h_l[:200], q[:200]):
            assert _equilibrium_h_cached(float(h), float(flow), 0.0, G) == h

    def test_flux_calls_do_not_grow_with_the_pairs(self, monkeypatch):
        calls = []
        flux = ShallowWaterSystem.flux

        def counting(self, w):
            calls.append(1)
            return flux(self, w)

        monkeypatch.setattr(ShallowWaterSystem, "flux", counting)
        system, path = ShallowWaterSystem(G), EquilibriumPath(G)
        counts = []
        for n in (1, 10, 100):
            u_l = np.tile([1.0, 1.0, 0.0], (n, 1))
            u_r = np.tile([0.9, 1.1, 0.0], (n, 1))
            u_r[::2, 2] = np.linspace(-0.05, 0.05, len(u_r[::2]))  # some jumps
            calls.clear()
            path.closed_form_integral(system, u_l, u_r)
            path.coupling(system, u_l, u_r)
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] <= 2
