import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathfv import (
    BlowUpError,
    CFLViolationError,
    DirichletBoundary,
    DomainError,
    EigenDecompositionError,
    FreeBoundary,
    GlimmScheme,
    GodunovScheme,
    Grid,
    HyperbolicityLossError,
    LaxFriedrichsScheme,
    ModifiedLaxFriedrichsScheme,
    PathFVError,
    RiemannSolutionError,
    RoeConstructionError,
    RoeScheme,
    SegmentsPath,
    ShallowWaterSystem,
    SimplifiedSystem,
    SkewedSegmentsPath,
    Solution,
    StepLimitError,
    TwoLayerSystem,
    TwoSegmentPath,
    VanDerCorputSampler,
    cfl_dt,
    evolve,
    path_integral,
    roe_matrix,
    step,
)
from conftest import (
    random_shallow_water_states,
    random_simplified_states,
    random_two_layer_states,
)
import oracles
from pathfv.experiments import build_components, initial_solution, load_config
from pathfv.paths import PATHS, PathFamily
from pathfv.systems import SYSTEMS, distinct
from oracles import lf_single_interface_update, roe_fluctuations

G = 9.81
Q_R = 0.530039370688997
SIMPLE = SimplifiedSystem()
SW = ShallowWaterSystem(G)
TWO = TwoLayerSystem(G, 0.95)


def make_solution(states, x_min=0.0, x_max=1.0):
    states = np.asarray(states, dtype=float)
    return Solution(Grid(x_min, x_max, states.shape[0]), 0.0, states)


class TestGridSolution:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            Grid(1.0, 0.0, 10)
        g = Grid(-1.0, 1.0, 10)
        assert g.dx == pytest.approx(0.2)
        assert g.centers[0] == pytest.approx(-0.9)

    def test_solution_rejects_nonfinite(self):
        with pytest.raises(BlowUpError) as err:
            make_solution([[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]])
        assert err.value.cell == 1

    def test_a_step_refuses_nan_before_the_admissibility_pass(self):
        # the quartic of the two-layer admissibility pass refuses non-finite
        # coefficients with its own DomainError; the step must name the cell
        # first, from the Solution's one scan
        class NaNMomentum(LaxFriedrichsScheme):
            def fluctuations(self, UL, UR, dx, dt):
                mm, mp = super().fluctuations(UL, UR, dx, dt)
                mm[3, 1] = np.nan  # interface 3 updates cell 2
                return mm, mp

        scheme = NaNMomentum(TWO, SegmentsPath())
        sol = make_solution(np.tile([1.0, 0.1, 0.8, -0.1], (6, 1)))
        with pytest.raises(BlowUpError, match="cell 2") as err:
            step(scheme, sol, 1e-4)
        assert err.value.cell == 2


class TestCflDt:
    def test_simplified_uniform(self):
        sol = make_solution(np.tile([1.0, 1.0], (5, 1)))
        # max |lam| = 2 at (1, 1)
        assert cfl_dt(SIMPLE, sol, 0.9) == pytest.approx(0.9 * sol.grid.dx / 2.0)

    def test_godunov_cap(self):
        sol = make_solution(np.tile([1.0, 1.0], (5, 1)))
        assert cfl_dt(SIMPLE, sol, 0.9, max_cfl=0.5) == pytest.approx(
            0.5 * sol.grid.dx / 2.0
        )

    def test_still_water(self):
        sol = make_solution(np.tile([1.0, 0.0, 0.0], (5, 1)))
        assert cfl_dt(SW, sol, 0.9) == pytest.approx(0.9 * sol.grid.dx / np.sqrt(G))

    def test_invalid_cfl(self):
        sol = make_solution(np.tile([1.0, 1.0], (5, 1)))
        with pytest.raises(DomainError):
            cfl_dt(SIMPLE, sol, 1.5)

    def test_nonhyperbolic_cell_is_named(self):
        states = np.tile([1.0, 0.0, 1.0, 0.0], (7, 1))
        # shear indicator 4 at cell 4: complex internal eigenvalues
        du = 2.0 * np.sqrt((1.0 - TWO.r) * G * 2.0)
        states[4] = [1.0, 0.5 * du, 1.0, -0.5 * du]
        with pytest.raises(HyperbolicityLossError) as err:
            cfl_dt(TWO, make_solution(states), 0.9)
        assert "cell 4" in str(err.value)
        assert err.value.indices == (4,)

    def test_zero_wave_speed_is_refused_by_every_sizing(self):
        # q = 0 on the 2x2 model: both eigenvalues vanish
        sol = make_solution(np.tile([1.0, 0.0], (5, 1)))
        scheme = RoeScheme(SIMPLE, TwoSegmentPath())
        for size in (lambda: cfl_dt(SIMPLE, sol, 0.9),
                     lambda: step(scheme, sol, 0.01),
                     lambda: step(scheme, sol, 0.01, lambda_max=0.0),
                     lambda: evolve(scheme, sol, 0.1, 0.9)):
            with pytest.raises(DomainError, match="zero wave speed"):
                size()


def all_schemes():
    return [
        RoeScheme(SIMPLE, TwoSegmentPath()),
        LaxFriedrichsScheme(SIMPLE, TwoSegmentPath()),
        LaxFriedrichsScheme(SIMPLE, SegmentsPath()),
        GodunovScheme(SIMPLE),
        RoeScheme(SW, SegmentsPath()),
        ModifiedLaxFriedrichsScheme(SW, SegmentsPath()),
        LaxFriedrichsScheme(SW, SegmentsPath()),
        RoeScheme(TWO, SegmentsPath()),
        RoeScheme(TWO, SkewedSegmentsPath(0.05)),
        LaxFriedrichsScheme(TWO, SegmentsPath()),
        LaxFriedrichsScheme(TWO, SkewedSegmentsPath(0.05)),
    ]


def constant_state_for(system):
    return {
        "simplified": np.array([1.0, 1.0]),
        "shallow_water": np.array([1.2, 0.4, 0.3]),
        "two_layer": np.array([0.8, 0.1, 1.1, -0.1]),
    }[system.name]


class TestStep:
    def test_constant_data_preserved(self):
        for scheme in all_schemes():
            w = constant_state_for(scheme.system)
            sol = make_solution(np.tile(w, (6, 1)))
            dt = cfl_dt(scheme.system, sol, 0.4, max_cfl=scheme.max_cfl)
            out = scheme.advance(sol, dt)
            assert np.array_equal(out.states, sol.states), scheme.name

    def test_cfl_violation_refused(self):
        sol = make_solution(np.tile([1.0, 1.0], (6, 1)))
        scheme = RoeScheme(SIMPLE, TwoSegmentPath())
        dt_max = cfl_dt(SIMPLE, sol, 1.0)
        with pytest.raises(CFLViolationError) as err:
            step(scheme, sol, 2.0 * dt_max)
        assert err.value.required_dt == pytest.approx(dt_max)

    def test_lf_update_matches_hand_oracle(self):
        # three cells, dt/dx = 0.1, middle-cell update against the dense
        # single-interface formula
        states = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
        sol = make_solution(states, 0.0, 3.0)
        for path in (TwoSegmentPath(), SegmentsPath()):
            scheme = LaxFriedrichsScheme(SIMPLE, path)
            out = step(scheme, sol, 0.1)
            expect = lf_single_interface_update(
                states[0], states[1], states[2], SIMPLE, path, 0.1
            )
            assert np.abs(out.states[1] - expect).max() < 1e-10

    def test_lf_frozen_values(self):
        # frozen expected middle-cell values for the two path families
        states = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
        sol = make_solution(states, 0.0, 3.0)
        out_two = step(LaxFriedrichsScheme(SIMPLE, TwoSegmentPath()), sol, 0.1)
        assert np.allclose(out_two.states[1], [0.775, 0.79375], atol=1e-14)
        out_seg = step(LaxFriedrichsScheme(SIMPLE, SegmentsPath()), sol, 0.1)
        assert np.allclose(
            out_seg.states[1], [0.775, 0.75 + 0.05 * (0.5 + 0.5 * 0.58333333333333337)],
            atol=1e-12,
        )

    def test_conservative_component_telescopes(self, rng):
        # total change of a conservative component equals the boundary
        # fluctuation difference
        W = random_simplified_states(rng, 12, h_range=(0.8, 1.3), u_range=(0.8, 1.4))
        sol = make_solution(W, 0.0, 1.0)
        for scheme in (
            RoeScheme(SIMPLE, TwoSegmentPath()),
            LaxFriedrichsScheme(SIMPLE, TwoSegmentPath()),
            GodunovScheme(SIMPLE),
        ):
            dt = cfl_dt(SIMPLE, sol, 0.4, max_cfl=scheme.max_cfl)
            ext = FreeBoundary().extend(sol.states)
            mm, mp = scheme.fluctuations(ext[:-1], ext[1:], sol.grid.dx, dt)
            out = scheme.advance(sol, dt)
            change = (out.states[:, 0] - sol.states[:, 0]).sum() * sol.grid.dx
            # interior interfaces telescope to flow-rate jumps; only the
            # boundary fluctuations survive
            interior_dq = (ext[1:, 1] - ext[:-1, 1])[1:-1].sum()
            expect = -dt * (mp[0, 0] + mm[-1, 0] + interior_dq)
            assert change == pytest.approx(expect, abs=1e-12), scheme.name


class TestConsistencyProperties:
    def test_zero_fluctuations_at_coincident_states(self, rng):
        for scheme in all_schemes():
            w = constant_state_for(scheme.system)
            UL = np.tile(w, (4, 1))
            mm, mp = scheme.fluctuations(UL, UL.copy(), 0.01, 0.001)
            assert np.abs(mm).max() < 1e-13 and np.abs(mp).max() < 1e-13, scheme.name

    def _random_pairs(self, rng, system, n):
        draw = {
            "simplified": lambda: random_simplified_states(
                rng, 2 * n, h_range=(0.8, 1.3), u_range=(0.8, 1.5)
            ),
            "shallow_water": lambda: random_shallow_water_states(rng, 2 * n),
            "two_layer": lambda: random_two_layer_states(rng, 2 * n),
        }[system.name]
        W = draw()
        W = W[system.is_admissible(W)]
        m = len(W) // 2
        return W[:m], W[m : 2 * m]

    def test_fluctuation_sum_is_path_integral(self, rng):
        for scheme in all_schemes():
            if isinstance(scheme, GodunovScheme):
                continue  # its path follows the wave fan; checked in riemann tests
            UL, UR = self._random_pairs(rng, scheme.system, 50)
            dx, dt = 0.01, 0.0005
            mm, mp = scheme.fluctuations(UL, UR, dx, dt)
            for a, b, s in zip(UL, UR, mm + mp):
                I = path_integral(scheme.path, scheme.system, a, b)
                assert np.abs(s - I).max() < 1e-10, scheme.name


class TestRoe:
    def test_matrix_reference_entries(self):
        A = roe_matrix(SIMPLE, TwoSegmentPath(), [1.0, 1.0], [4.0, 8.0])
        assert A[1, 0] == pytest.approx(-25.0 / 9.0 + 2.5, abs=1e-13)
        assert A[1, 1] == pytest.approx(10.0 / 3.0, abs=1e-13)
        assert A[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert A[0, 1] == pytest.approx(1.0, abs=1e-13)

    def test_matrix_consistency_at_coincident_states(self):
        w = np.array([1.3, 0.9])
        A = roe_matrix(SIMPLE, TwoSegmentPath(), w, w)
        assert np.abs(A - SIMPLE.matrix(w)).max() < 1e-12
        W = np.array([1.1, 0.7, 0.2])
        Asw = roe_matrix(SW, SegmentsPath(), W, W)
        assert np.abs(Asw - SW.matrix(W)).max() < 1e-11

    def test_jump_identity(self):
        wl = np.array([1.0, 1.0])
        wr = np.array([1.8, Q_R])
        A = roe_matrix(SIMPLE, TwoSegmentPath(), wl, wr)
        I = path_integral(TwoSegmentPath(), SIMPLE, wl, wr)
        assert np.abs(A @ (wr - wl) - I).max() < 1e-12

    def test_two_layer_jump_identity(self, rng):
        W = random_two_layer_states(rng, 20)
        for path in (SegmentsPath(), SkewedSegmentsPath(0.04)):
            for a, b in zip(W[::2], W[1::2]):
                A = roe_matrix(TWO, path, a, b)
                I = path_integral(path, TWO, a, b)
                assert np.abs(A @ (b - a) - I).max() < 1e-9

    def test_two_layer_jump_identity_without_density_coupling(self, rng):
        # r = 0: the lower layer no longer feels the upper one, and each
        # layer's pair of eigenvalues separates from the other's
        system = TwoLayerSystem(G, 0.0)
        W = random_two_layer_states(rng, 400, r=0.0)
        W = W[system.is_admissible(W)][:200]
        W_r = W * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=W.shape))
        for path in (SegmentsPath(), SkewedSegmentsPath(0.04)):
            # the step checks the identity on every interface at 1e-9
            mm, mp = RoeScheme(system, path).fluctuations(W, W_r, 0.01, 0.001)
            I = path.closed_form_integral(system, W, W_r)
            assert np.abs(mm + mp - I).max() < 1e-9 * max(1.0, np.abs(I).max())
            for a, b in zip(W[:10], W_r[:10]):
                A = roe_matrix(system, path, a, b)
                assert np.abs(A @ (b - a) - path_integral(path, system, a, b)).max() < 1e-9

    def test_upwind_limits(self):
        # all speeds positive: the whole jump integral travels right (enters
        # the cell on the right through M+), and symmetrically for negative
        A = np.array([[2.0, 0.3], [0.1, 1.5]])  # both eigenvalues positive
        du = np.array([0.4, -0.2])
        mm, mp = roe_fluctuations(A, [0.0, 0.0], du)
        assert np.abs(mp - A @ du).max() < 1e-13
        assert np.abs(mm).max() < 1e-13
        mm, mp = roe_fluctuations(-A, [0.0, 0.0], du)
        assert np.abs(mp).max() < 1e-13
        assert np.abs(mm + A @ du).max() < 1e-13

    def test_split_matches_dense_eigendecomposition(self):
        wl, wr = np.array([1.0, 1.0]), np.array([4.0, 8.0])
        A = roe_matrix(SIMPLE, TwoSegmentPath(), wl, wr)
        lam, K = np.linalg.eig(A)
        order = np.argsort(lam)
        lam, K = lam[order].real, K[:, order].real
        du = wr - wl
        coeff = np.linalg.solve(K, du)
        mm_ref = K @ (np.minimum(lam, 0) * coeff)
        mp_ref = K @ (np.maximum(lam, 0) * coeff)
        mm, mp = roe_fluctuations(A, wl, wr)
        assert np.abs(mm - mm_ref).max() < 1e-12
        assert np.abs(mp - mp_ref).max() < 1e-12
        scheme = RoeScheme(SIMPLE, TwoSegmentPath())
        mm2, mp2 = scheme.fluctuations(wl, wr, 0.1, 0.01)
        assert np.abs(mm2 - mm_ref).max() < 1e-12


RANDOM_STATES = {
    SimplifiedSystem.name: random_simplified_states,
    ShallowWaterSystem.name: random_shallow_water_states,
    TwoLayerSystem.name: random_two_layer_states,
}

every_declared_pair = pytest.mark.parametrize(
    "family, system_name",
    [(cls, name) for cls in PATHS.values() for name in cls.couplings],
    ids=lambda v: getattr(v, "name", v),
)


@every_declared_pair
def test_roe_jump_identity_for_every_declared_pair(family, system_name, rng):
    system = SYSTEMS[system_name]()
    path = family.for_system(system, 0.04)
    RoeScheme(system, path)  # every declared pair has a Roe scheme
    W = RANDOM_STATES[system_name](rng, 40)
    W = W[system.is_admissible(W)][:20]
    # nearby right states keep sigma jumps within reach of equilibrium paths
    W_r = W * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=W.shape))
    for a, b in zip(W, W_r):
        A = roe_matrix(system, path, a, b)
        I = path_integral(path, system, a, b)
        assert np.abs(A @ (b - a) - I).max() < 1e-9


@every_declared_pair
def test_wave_strengths_equal_the_solve_for_every_declared_pair(family, system_name, rng):
    system = SYSTEMS[system_name]()
    path = family.for_system(system, 0.04)
    W = RANDOM_STATES[system_name](rng, 400)
    W = W[system.is_admissible(W)][:200]
    W_r = W * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=W.shape))
    lam, vectors = system.roe_eigensystem(W, W_r, path.coupling(system, W, W_r))
    K = system.eigenvector_matrix(lam, vectors)
    du = W_r - W
    alpha = system.wave_strengths(lam, vectors, du)
    ref = np.linalg.solve(K, du[..., None])[..., 0]
    assert np.all(np.abs(alpha - ref) <= 1e-12 * np.abs(ref).max(axis=-1, keepdims=True))
    one = system.wave_strengths(lam[3], None if vectors is None else vectors[3], du[3])
    assert one.shape == du[3].shape and np.array_equal(one, alpha[3])


CLOSED_FORM_ROE = pytest.mark.parametrize("system, path", [
    (SIMPLE, TwoSegmentPath()), (SIMPLE, SegmentsPath()), (SW, SegmentsPath()),
    (SW, PATHS["equilibrium"].for_system(SW)),
], ids=lambda v: getattr(v, "name", None) or repr(v))


def _roe_type_steps(system, path, rng):
    """One Roe step, and one modified-LF step on shallow water, over a
    smooth profile with trivial interfaces too; each result must be finite."""
    base = RANDOM_STATES[system.name](rng, 40)
    base = base[system.is_admissible(base)][0]
    x = np.linspace(0.0, 1.0, 120)[:, None]
    W = base * (1.0 + 0.05 * np.sin(2.0 * np.pi * x + np.arange(base.size)))
    W[60::2] = W[61::2]
    schemes = [RoeScheme(system, path)]
    if system is SW:
        schemes.append(ModifiedLaxFriedrichsScheme(system, path))
    for scheme in schemes:
        sol = make_solution(W)
        out = scheme.advance(sol, 0.5 * cfl_dt(system, sol, scheme.max_cfl))
        assert np.all(np.isfinite(out.states))


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the Roe step called {what}")
    return refuse


@CLOSED_FORM_ROE
def test_roe_step_solves_no_linear_system(system, path, rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", _refuse("a dense linear-algebra routine"))
    monkeypatch.setattr(np.linalg, "inv", _refuse("a dense linear-algebra routine"))
    _roe_type_steps(system, path, rng)


@CLOSED_FORM_ROE
def test_roe_step_builds_no_eigenvector_matrix(system, path, rng, monkeypatch):
    monkeypatch.setattr(type(system), "eigenvector_matrix", _refuse("a K builder"))
    monkeypatch.setattr(np, "einsum", _refuse("einsum"))
    _roe_type_steps(system, path, rng)


def _simplified_state():
    return st.builds(lambda h, u: [h, h * u], st.floats(0.5, 2.0), st.floats(0.6, 2.5))


def _two_layer_state():
    # bounded interfacial shear, as in random_two_layer_states
    def state(h1, h2, shear, ubar):
        du = shear * np.sqrt(0.5 * (1.0 - TWO.r) * G * (h1 + h2))
        return [h1, h1 * (ubar + 0.5 * du), h2, h2 * (ubar - 0.5 * du)]

    return st.builds(state, st.floats(0.3, 1.5), st.floats(0.3, 1.5),
                     st.floats(-1.0, 1.0), st.floats(-0.3, 0.3))


def _pair_of(state):
    """A left state and a right one of its own or, at times, the same."""
    return state.flatmap(lambda a: st.tuples(st.just(a), st.one_of(st.just(a), state)))


@st.composite
def _shallow_water_pair(draw):
    """sigma continuous, jumping by less than the equilibrium coupling's
    1e-10 * scale threshold, or rising (always reachable); q = 0 at times."""
    froude = st.one_of(st.just(0.0), st.floats(0.05, 0.8), st.floats(1.25, 3.0))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    h_l, h_r = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    q_l = sign * draw(froude) * h_l * np.sqrt(G * h_l)
    q_r = sign * draw(froude) * h_r * np.sqrt(G * h_r)
    sigma_l = draw(st.floats(-2.0, 2.0))
    sigma_r = sigma_l + draw(st.one_of(
        st.just(0.0),
        st.floats(1e-14, 5e-11).flatmap(lambda d: st.sampled_from((d, -d))),
        st.floats(1e-3, 1.0)))
    return [h_l, q_l, sigma_l], [h_r, q_r, sigma_r]


PAIRS = {
    SimplifiedSystem.name: _pair_of(_simplified_state()),
    ShallowWaterSystem.name: _shallow_water_pair(),
    TwoLayerSystem.name: _pair_of(_two_layer_state()),
}


def _bits(value):
    """The bytes of an array, or of each array of a tuple."""
    return [np.asarray(v).tobytes() for v in (value if isinstance(value, tuple) else (value,))]


def _fluctuation_bits(scheme, UL, UR):
    try:
        return _bits(scheme.fluctuations(UL, UR, 0.1, 0.001))
    except PathFVError as exc:
        return type(exc)


@every_declared_pair
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coupling_and_integral_equal_the_two_calls(family, system_name, data):
    system = SYSTEMS[system_name]()
    path = family.for_system(system, 0.03)
    pairs = data.draw(st.lists(PAIRS[system_name], min_size=1, max_size=6))
    UL, UR = (np.array(side, dtype=float) for side in zip(*pairs))
    for u_l, u_r in ((UL, UR), (UL[0], UR[0])):
        coupling, integral = path.coupling_and_integral(system, u_l, u_r)
        assert _bits(coupling) == _bits(path.coupling(system, u_l, u_r))
        assert _bits(integral()) == _bits(path.closed_form_integral(system, u_l, u_r))
    # the same family computing the two by separate calls
    two_calls = type("TwoCalls", (family,), {
        "coupling_and_integral": PathFamily.coupling_and_integral,
    }).for_system(system, 0.03)
    schemes = [RoeScheme]
    if system_name == SW.name:
        schemes.append(ModifiedLaxFriedrichsScheme)
    for cls in schemes:
        assert _fluctuation_bits(cls(system, path), UL, UR) == _fluctuation_bits(
            cls(system, two_calls), UL, UR)


def _einsum_bits(K, c):
    return np.einsum("...ij,...j->...i", K, c).tobytes()


def _coefficients(draw, shape):
    """Coefficient vectors of ``shape`` with zeros and negative zeros."""
    entry = st.one_of(st.sampled_from((0.0, -0.0)),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    values = draw(st.lists(entry, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=float).reshape(shape)


@every_declared_pair
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_applied_eigenvectors_are_einsums_bits(family, system_name, data):
    system = SYSTEMS[system_name]()
    path = family.for_system(system, 0.03)
    pairs = data.draw(st.lists(PAIRS[system_name], min_size=1, max_size=6))
    UL, UR = (np.array(side, dtype=float) for side in zip(*pairs))
    lam, vectors = system.roe_eigensystem(UL, UR, path.coupling(system, UL, UR))
    ok = distinct(lam)  # the step refuses the other lanes before applying
    assume(ok.any())
    lam = lam[ok]
    vectors = None if vectors is None else vectors[ok]
    K = system.eigenvector_matrix(lam, vectors)
    coeff = system.wave_strengths(lam, vectors, UR[ok] - UL[ok])
    drawn = _coefficients(data.draw, lam.shape)
    for c in (np.minimum(lam, 0.0) * coeff, np.maximum(lam, 0.0) * coeff,
              0.0 * coeff, -0.0 * coeff, drawn):
        assert system.apply_eigenvectors(lam, vectors, c).tobytes() == _einsum_bits(K, c)
        one = system.apply_eigenvectors(lam[0], None if vectors is None else vectors[0],
                                        c[0])
        assert one.tobytes() == _einsum_bits(K[0], c[0])


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_shallow_water_standing_column_in_every_position(position, rng):
    # lam ascending with the standing 0 at ``position``; coefficient vectors
    # with zeros and negative zeros in every column
    speeds = np.sort(rng.uniform(0.1, 5.0, size=(400, 2)), axis=-1)
    moving = {0: speeds, 1: speeds * [-1.0, 1.0], 2: -speeds[:, ::-1]}[position]
    lam = np.insert(moving, position, 0.0, axis=-1)
    k = rng.uniform(-3.0, 3.0, size=400)
    c = rng.standard_normal((400, 3))
    c[rng.random(c.shape) < 0.3] = 0.0
    c[rng.random(c.shape) < 0.3] = -0.0
    K = SW.eigenvector_matrix(lam, k)
    assert SW.apply_eigenvectors(lam, k, c).tobytes() == _einsum_bits(K, c)
    for i in (0, 1, 2, 399):
        assert SW.apply_eigenvectors(lam[i], k[i], c[i]).tobytes() == _einsum_bits(K[i], c[i])


FLUCTUATION_SCHEMES = (RoeScheme, LaxFriedrichsScheme, ModifiedLaxFriedrichsScheme)
# the Roe step's jump-identity bound: below a sigma jump of 1e-10 * scale
# the equilibrium coupling is -g hbar, which leaves about g [h] [sigma]
FLUCTUATION_SUM_RTOL = 1e-9


@every_declared_pair
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fluctuations_sum_to_the_path_integral(family, system_name, data):
    system = SYSTEMS[system_name]()
    path = family.for_system(system, 0.03)
    pairs = data.draw(st.lists(PAIRS[system_name], min_size=1, max_size=6))
    UL, UR = (np.array(side, dtype=float) for side in zip(*pairs))
    integral = path_integral(path, system, UL, UR)
    bound = FLUCTUATION_SUM_RTOL * np.maximum(1.0, np.abs(integral).max(axis=-1))
    for cls in FLUCTUATION_SCHEMES:
        if cls._refusal(system_name, path) is not None:
            continue
        try:
            mm, mp = cls(system, path).fluctuations(UL, UR, 0.1, 0.001)
        except EigenDecompositionError:  # coincident Roe eigenvalues
            continue
        assert np.all(np.abs(mm + mp - integral).max(axis=-1) <= bound), cls.name


@pytest.mark.parametrize("scheme_cls", [RoeScheme, ModifiedLaxFriedrichsScheme])
def test_equilibrium_step_solves_the_intermediate_states_once(scheme_cls, monkeypatch):
    import pathfv.paths as paths_mod

    solve = paths_mod._equilibrium_h
    lanes = []

    def counting(h_l, q, delta_sigma, g):
        lanes.append(np.size(h_l))
        return solve(h_l, q, delta_sigma, g)

    monkeypatch.setattr(paths_mod, "_equilibrium_h", counting)
    intermediate = paths_mod.EquilibriumPath.intermediate_state
    states = []

    def counting_states(self, u_l, u_r):
        states.append(1)
        return intermediate(self, u_l, u_r)

    monkeypatch.setattr(paths_mod.EquilibriumPath, "intermediate_state", counting_states)
    # sigma jumps at three interfaces, one of them below the coupling's
    # 1e-10 threshold
    sigma = [0.0, 0.0, 1e-12, 0.05, 0.05, 0.1]
    W = np.stack([[1.0, 1.0, 1.0, 1.1, 1.2, 1.2], np.full(6, 0.5), sigma], axis=-1)
    sol = make_solution(W)
    scheme = scheme_cls(SW, PATHS["equilibrium"].for_system(SW))
    dt = 0.5 * cfl_dt(SW, sol, scheme.max_cfl)
    scheme.advance(sol, dt)
    assert lanes == [3]
    assert len(states) == 1  # one intermediate_state call per step
    scheme.advance(scheme.advance(sol, dt), dt)
    assert len(states) == 3


@pytest.mark.parametrize("scheme_cls", [RoeScheme, ModifiedLaxFriedrichsScheme])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_critical_roe_state_raises_with_its_interface(scheme_cls, sign):
    # g = 4, h = 1, q = +-2: the Roe velocity is +-2 = cbar exactly, so
    # g hbar - u^2 = 0 and a double zero eigenvalue meet at interface 2
    system = ShallowWaterSystem(4.0)
    UL = np.array([[1.5, 0.3, 0.0], [1.2, -0.4, 0.1], [1.0, 2.0 * sign, 0.0],
                   [1.1, 0.2, 0.0]])
    UR = np.array([[1.2, 0.4, 0.1], [1.5, 0.3, 0.0], [1.0, 2.0 * sign, 0.5],
                   [0.9, 0.1, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenDecompositionError) as exc:
            scheme_cls(system, SegmentsPath()).fluctuations(UL, UR, 0.1, 0.01)
        assert exc.value.index == 2
        assert "interface 2" in str(exc.value)
        # the first two interfaces alone go through
        scheme_cls(system, SegmentsPath()).fluctuations(UL[:2], UR[:2], 0.1, 0.01)


def test_jump_identity_is_checked_on_every_call(rng, monkeypatch):
    path = SegmentsPath()
    W = random_shallow_water_states(rng, 6)
    UL, UR = W[:-1], W[1:]
    calls = [lambda cls=cls: cls(SW, path).fluctuations(UL, UR, 0.1, 0.001)
             for cls in (RoeScheme, ModifiedLaxFriedrichsScheme)]
    calls.append(lambda: roe_matrix(SW, path, UL[-1], UR[-1]))
    for call in calls:
        call()
    exact = path.closed_form_integral

    def shifted(system, u_l, u_r):
        out = exact(system, u_l, u_r).copy()
        out.reshape(-1, out.shape[-1])[-1, 0] += 1e-6  # the last lane only
        return out

    monkeypatch.setattr(path, "closed_form_integral", shifted)
    for call in calls:
        with pytest.raises(RoeConstructionError):
            call()


@pytest.mark.parametrize("system, path", [
    (SIMPLE, TwoSegmentPath()), (SW, SegmentsPath()), (TWO, SegmentsPath()),
], ids=["simplified", "shallow_water", "two_layer"])
def test_roe_fluctuations_vanish_at_bit_equal_pairs(system, path, rng):
    W = RANDOM_STATES[system.name](rng, 40)
    W = W[system.is_admissible(W)][:20]
    W_r = W * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=W.shape))
    W_r[::2] = W[::2]
    mm, mp = RoeScheme(system, path).fluctuations(W, W_r, 0.1, 0.001)
    assert np.all(mm[::2] == 0.0) and np.all(mp[::2] == 0.0)
    assert np.all(np.abs(mm[1::2] - mp[1::2]).max(axis=-1) > 0.0)


def test_bit_equal_batch_at_a_critical_state_raises():
    # a bit-equal pair has no wave, but its Roe matrix is the cell's own: at
    # g = 4, h = 1, q = 2 (u = c) the zero eigenvalue is double, so a batch of
    # bit-equal pairs raises at that interface as a mixed batch does
    system = ShallowWaterSystem(4.0)
    U = np.array([[1.5, 0.3, 0.0], [1.0, 2.0, 0.0], [1.2, 0.1, 0.4]])
    with pytest.raises(EigenDecompositionError) as exc:
        RoeScheme(system, SegmentsPath()).fluctuations(U, U.copy(), 0.1, 0.01)
    assert exc.value.index == 1
    assert not system.is_admissible(U)[1]


@pytest.mark.parametrize("scheme_cls", [RoeScheme, ModifiedLaxFriedrichsScheme])
def test_empty_batch_gives_empty_fluctuations(scheme_cls):
    empty = np.zeros((0, 3))
    mm, mp = scheme_cls(SW, SegmentsPath()).fluctuations(empty, empty, 0.1, 0.01)
    assert mm.shape == mp.shape == (0, 3)


@pytest.mark.parametrize("ncomp", [2, 3, 4])
def test_differs_equals_the_reduction_forms(ncomp, rng):
    from pathfv.schemes import _differs

    a = rng.choice([-1.0, -0.0, 0.0, 1e-300, 2.5], size=(3000, ncomp))
    b = a.copy()
    flip = rng.random(a.shape) < 0.2
    b[flip] = rng.choice([-1.0, -0.0, 0.0, 1e-300, 2.5, np.nan], size=int(flip.sum()))
    mask = _differs(a, b)
    assert np.array_equal(mask, ~(np.abs(b - a).max(axis=-1) == 0.0))
    assert np.array_equal(mask, (a != b).any(axis=-1))
    assert _differs(a[0], b[0]) == mask[0]


@pytest.mark.parametrize("system_name", list(SYSTEMS))
def test_eigenvector_matrices_are_c_ordered(system_name, rng):
    # the two-layer fluctuations apply K with einsum, whose rounding depends
    # on K's memory layout; byte-identical artifacts rest on C order
    system = SYSTEMS[system_name]()
    W = RANDOM_STATES[system_name](rng, 40)
    W = W[system.is_admissible(W)][:20]
    W_r = W * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=W.shape))
    assert system.eigensystem(W)[1].flags.c_contiguous
    assert system.eigensystem(W[0])[1].flags.c_contiguous
    for family in PATHS.values():
        if system_name in family.couplings:
            path = family.for_system(system, 0.04)
            lam, vectors = system.roe_eigensystem(W, W_r, path.coupling(system, W, W_r))
            K = system.eigenvector_matrix(lam, vectors)
            assert K.flags.c_contiguous, family.name


def test_undeclared_pair_is_refused():
    with pytest.raises(DomainError):
        RoeScheme(SW, TwoSegmentPath())
    with pytest.raises(DomainError):
        LaxFriedrichsScheme(SIMPLE, SkewedSegmentsPath(0.05))
    # the exact solver uses the two-segment jump conditions
    for scheme_cls in (GodunovScheme, GlimmScheme):
        with pytest.raises(DomainError, match="segments path"):
            scheme_cls(SIMPLE, SegmentsPath())


class TestModifiedLF:
    def test_needs_balance_law(self):
        with pytest.raises(DomainError):
            ModifiedLaxFriedrichsScheme(SIMPLE, TwoSegmentPath())
        with pytest.raises(DomainError):
            ModifiedLaxFriedrichsScheme(TWO, SegmentsPath())

    def test_sigma_bit_identical(self, rng):
        W = random_shallow_water_states(rng, 12)
        sol = make_solution(W, 0.0, 1.0)
        scheme = ModifiedLaxFriedrichsScheme(SW, SegmentsPath())
        dt = cfl_dt(SW, sol, 0.5)
        out = scheme.advance(sol, dt)
        assert np.array_equal(out.states[:, 2], sol.states[:, 2])

    def test_reduces_to_roe_linearized_lf_without_standing_mode(self):
        # with the standing-mode filter replaced by the identity the update
        # is (1/2)(-+ (dx/dt) Id + A_roe) du; verified through the eigenbasis
        from pathfv.schemes import _roe_eigendata

        wl = np.array([1.1, 0.8])
        wr = np.array([1.4, 0.6])
        lam, vectors, _, _ = _roe_eigendata(SIMPLE, TwoSegmentPath(), wl, wr)
        K = SIMPLE.eigenvector_matrix(lam, vectors)
        du = wr - wl
        coeff = np.linalg.solve(K, du)
        dx, dt = 0.01, 0.002
        mm = K @ (0.5 * (-(dx / dt) + lam) * coeff)  # identity weight: no zero modes
        A = roe_matrix(SIMPLE, TwoSegmentPath(), wl, wr)
        mm_ref = 0.5 * (-(dx / dt) * np.eye(2) + A) @ du
        assert np.abs(mm - mm_ref).max() < 1e-12

    def test_still_water_equilibrium_is_exact(self):
        x = np.linspace(-1, 1, 24)
        sig = np.where(x < 0, 0.0, 1.0)
        W = np.stack([1.0 + sig, np.zeros_like(sig), sig], axis=-1)
        sol = make_solution(W, -1.0, 1.0)
        for scheme in (
            ModifiedLaxFriedrichsScheme(SW, SegmentsPath()),
            RoeScheme(SW, SegmentsPath()),
        ):
            out = sol
            for _ in range(20):
                out = scheme.advance(out, cfl_dt(SW, out, 0.9))
            assert np.abs(out.states - sol.states).max() < 1e-13, scheme.name


class TestGodunov:
    def test_requires_simple_system(self):
        with pytest.raises(DomainError):
            GodunovScheme(SW)

    def test_single_negative_shock_fluctuations(self):
        scheme = GodunovScheme(SIMPLE)
        wl = np.array([1.0, 1.0])
        wr = np.array([1.8, Q_R])
        mm, mp = scheme.fluctuations(wl, wr, 0.01, 0.001)
        I = path_integral(TwoSegmentPath(), SIMPLE, wl, wr)
        assert np.abs(mm - I).max() < 1e-10
        assert np.abs(mp).max() == 0.0

    def test_max_cfl_is_half(self):
        assert GodunovScheme(SIMPLE).max_cfl == 0.5


class TestGlimm:
    def test_van_der_corput_values(self):
        s = VanDerCorputSampler()
        assert [s.take() for _ in range(7)] == [
            0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875,
        ]

    def test_seed_offsets_sequence(self):
        a = VanDerCorputSampler(offset=3)
        b = VanDerCorputSampler()
        for _ in range(3):
            b.take()
        assert a.take() == b.take()

    def test_constant_data_unchanged(self):
        sol = make_solution(np.tile([1.0, 1.0], (8, 1)))
        out = GlimmScheme(SIMPLE).advance(sol, 1e-3)
        assert np.array_equal(out.states, sol.states)

    def test_advance_checks_the_cfl_bound_itself(self):
        wl, wr = np.array([1.0, 1.0]), np.array([1.8, Q_R])
        grid = Grid(-1.0, 1.0, 20)
        sol = Solution(grid, 0.0, np.where(grid.centers[:, None] < 0, wl, wr))
        dt_max = cfl_dt(SIMPLE, sol, 0.5, max_cfl=0.5)
        with pytest.raises(CFLViolationError) as err:
            GlimmScheme(SIMPLE).advance(sol, 2.0 * dt_max)
        assert err.value.required_dt == pytest.approx(dt_max)
        with pytest.raises(DomainError):
            GlimmScheme(SIMPLE).advance(sol, 0.0)

    def test_isolated_shock_advances_by_cells(self):
        # the sampled shock moves by exactly 0 or dx each step and its mean
        # drift tracks the true speed
        wl = np.array([1.0, 1.0])
        wr = np.array([1.8, Q_R])
        m = 400
        grid = Grid(-1.0, 1.0, m)
        states = np.where(grid.centers[:, None] < 0, wl, wr)
        sol = Solution(grid, 0.0, states)
        scheme = GlimmScheme(SIMPLE, seed=0)
        n_steps = 160
        positions = []
        for _ in range(n_steps):
            dt = cfl_dt(SIMPLE, sol, 0.5, max_cfl=0.5)
            new = scheme.advance(sol, dt)
            assert np.all(np.isin(np.abs(new.states[:, 0] - sol.states[:, 0]),
                                  np.abs(np.array([0.0, wl[0] - wr[0]]))))
            sol = new
            positions.append(grid.centers[np.argmax(np.abs(np.diff(sol.states[:, 0])))])
        xi = (Q_R - 1.0) / 0.8
        drift_err = abs(positions[-1] - xi * sol.t)
        n = n_steps
        assert drift_err < 2 * grid.dx + 2 * np.log2(n + 1) * grid.dx

    def test_step_warns_about_inadmissible_cells_and_carries_the_speed(self, caplog):
        # the last three cells lie above h = (16 q)^(1/3), outside the region
        grid = Grid(-1.0, 1.0, 20)
        states = np.where(grid.centers[:, None] < 0.0, [1.0, 1.0], [1.5, 0.9])
        states[-3:] = [2.0, 0.268]
        with caplog.at_level(logging.WARNING, logger="pathfv.schemes"):
            new = GlimmScheme(SIMPLE).advance(Solution(grid, 0.0, states), 0.01)
        assert "step 1: 3 cells left the admissible region (first at cell 17)" \
            in caplog.text
        assert new.max_speed == SIMPLE.max_abs_speed(new.states)


def test_evolve_hits_snapshot_times_exactly():
    sol = make_solution(np.tile([1.0, 1.0], (8, 1)))
    scheme = RoeScheme(SIMPLE, TwoSegmentPath())
    snaps = evolve(scheme, sol, 0.05, 0.9, snapshot_times=[0.02, 0.035, 0.05])
    assert [s.t for s in snaps] == pytest.approx([0.02, 0.035, 0.05], abs=1e-13)


# ---------------------------------------------------------------------------
# Exact-Riemann schemes: one batched solve per step, lane for lane equal to
# a per-interface loop over the scalar oracle


@pytest.fixture(scope="module")
def developed_rmp():
    """The built-in simplified_rmp run (Godunov, 4000 cells) at t = 0.1: a
    smeared shock with about a hundred non-trivial interfaces."""
    cfg = load_config("simplified_rmp")
    system, _, scheme = build_components(cfg)
    sol = initial_solution(cfg, system, cfg["grid"]["cells"])
    return evolve(scheme, sol, 0.1, cfg["cfl"])[-1]


def test_godunov_fluctuations_equal_the_oracle_loop(developed_rmp):
    ext = FreeBoundary().extend(developed_rmp.states)
    UL, UR = ext[:-1], ext[1:]
    lanes = np.flatnonzero((UL != UR).any(axis=-1))
    assert lanes.size > 50
    mm, mp = GodunovScheme(SIMPLE).fluctuations(UL, UR, developed_rmp.grid.dx, 1e-4)
    ref_m, ref_p = np.zeros_like(UL), np.zeros_like(UL)
    for i in lanes:
        ref_m[i], ref_p[i] = oracles.fan_split_integrals(oracles.solve_riemann(UL[i], UR[i]))
    assert np.array_equal(mm, ref_m) and np.array_equal(mp, ref_p)


@pytest.mark.parametrize("seed", [0, 3])
def test_glimm_advance_equals_the_oracle_loop(developed_rmp, seed):
    sol = developed_rmp
    dt = cfl_dt(SIMPLE, sol, 0.5, max_cfl=0.5)
    new = GlimmScheme(SIMPLE, seed=seed).advance(sol, dt)
    # the same step by hand: one theta, one sampled fan per non-trivial cell
    theta = VanDerCorputSampler(offset=seed).take()
    dx, m = sol.grid.dx, sol.grid.m
    shift, xi = (0, theta * dx / dt) if theta < 0.5 else (1, (theta - 1.0) * dx / dt)
    ext = FreeBoundary().extend(sol.states)
    left, right = ext[shift:shift + m], ext[shift + 1:shift + m + 1]
    ref = left.copy()
    lanes = np.flatnonzero((left != right).any(axis=-1))
    assert lanes.size > 50
    for i in lanes:
        ref[i] = oracles.sample(oracles.solve_riemann(left[i], right[i]), xi)
    assert np.array_equal(new.states, ref)


def test_godunov_names_the_interface_of_a_bad_state():
    UL = np.tile([1.0, 1.0], (6, 1))
    UR = UL.copy()
    UR[1] = [1.2, 0.9]
    UR[4] = [1.1, -0.2]  # q < 0: off the wave curves
    with pytest.raises(RiemannSolutionError) as err:
        GodunovScheme(SIMPLE).fluctuations(UL, UR, 0.1, 0.01)
    assert err.value.index == 4
    assert "interface 4" in str(err.value)


def test_glimm_names_the_interface_of_a_bad_state():
    states = np.tile([1.0, 1.0], (8, 1))
    states[5] = [1.1, -0.2]
    sol = make_solution(states)
    scheme = GlimmScheme(SIMPLE)  # theta = 1/2: cells sample their right interface
    with pytest.raises(RiemannSolutionError) as err:
        scheme.advance(sol, 1e-3, lambda_max=1.0)
    # cell 4 meets the bad state first, at interface 5 of the extended mesh
    assert err.value.index == 5
    assert "interface 5" in str(err.value)


@pytest.mark.parametrize("scheme", [GodunovScheme(SIMPLE), GlimmScheme(SIMPLE),
                                    RoeScheme(SW, SegmentsPath())],
                         ids=lambda s: s.name)
def test_solution_with_the_wrong_component_count_is_refused(scheme):
    ncomp = len(scheme.system.components)
    sol = make_solution(np.tile(np.arange(1.0, ncomp + 2.0), (6, 1)))
    with pytest.raises(DomainError, match=f"{ncomp + 1} components.*has {ncomp}"):
        scheme.advance(sol, 1e-3, lambda_max=1.0)


def test_dirichlet_boundary_fixes_ghost():
    bc = DirichletBoundary(left=np.array([9.0, 9.0]))
    states = np.tile([1.0, 1.0], (4, 1))
    ext = bc.extend(states)
    assert np.allclose(ext[0], [9.0, 9.0])
    assert np.allclose(ext[-1], [1.0, 1.0])


@pytest.mark.parametrize("side", ["left", "right"])
def test_dirichlet_ghost_state_of_the_wrong_size(side):
    bc = DirichletBoundary(**{side: np.array([1.0, 0.5, 0.0])})
    with pytest.raises(DomainError, match=f"the {side} ghost state has 3 components"):
        bc.extend(np.tile([1.0, 1.0], (4, 1)))


# ---------------------------------------------------------------------------
# Time-step policy: evolve reuses the wave speed each step carries


TWO_LAYER_PAIR = ([0.8, 0.1, 1.1, -0.1], [0.6, 0.05, 1.2, -0.05])
RIEMANN_CASES = {
    "godunov": (GodunovScheme(SIMPLE), [1.0, 1.0], [1.8, Q_R], 0.5),
    "sw_roe": (RoeScheme(SW, SegmentsPath()), [1.0, 0.0, 0.0], [0.5, 0.0, 0.0], 0.9),
    "two_layer_roe": (RoeScheme(TWO, SegmentsPath()), *TWO_LAYER_PAIR, 0.9),
    "two_layer_lf": (LaxFriedrichsScheme(TWO, SegmentsPath()), *TWO_LAYER_PAIR, 0.9),
}


def riemann_solution(wl, wr, m=40):
    grid = Grid(-1.0, 1.0, m)
    states = np.where(grid.centers[:, None] < 0.0, np.asarray(wl), np.asarray(wr))
    return Solution(grid, 0.0, states)


@pytest.mark.parametrize("case", RIEMANN_CASES)
def test_carried_speed_gives_identical_step_sequence(case):
    scheme, wl, wr, cfl = RIEMANN_CASES[case]
    t_end = 0.2
    sol0 = riemann_solution(wl, wr)
    times = []
    evolve(scheme, sol0, t_end, cfl, on_step=lambda s: times.append(s.t))

    # reference: ask the system for the speed before every step
    sol, ref = sol0, []
    while sol.t < t_end - 1e-13:
        lam = float(scheme.system.max_abs_speed(sol.states))
        dt = min(cfl * sol.grid.dx / lam, t_end - sol.t)
        sol = scheme.advance(sol, dt, lambda_max=lam)
        ref.append(sol.t)
    assert len(ref) > 5
    assert times == ref


def test_two_layer_evolve_solves_each_state_once_per_step(monkeypatch):
    import pathfv.systems

    calls = []
    quartic = pathfv.systems.solve_characteristic_quartic

    def counting(*args, **kwargs):
        calls.append(1)
        return quartic(*args, **kwargs)

    # the Roe eigensystem and the admissibility pass both solve in systems
    monkeypatch.setattr(pathfv.systems, "solve_characteristic_quartic", counting)
    scheme = RoeScheme(TWO, SegmentsPath())
    steps = []
    evolve(scheme, riemann_solution(*TWO_LAYER_PAIR), 0.2, 0.9, on_step=steps.append)
    n = len(steps)
    assert n > 5
    # one interface solve and one admissibility solve per step, plus the
    # first step's speed
    assert len(calls) <= 2 * n + 1


def test_a_step_too_small_to_move_t_ends_at_the_step_budget(monkeypatch):
    # at t = 1e17 the spacing of floats is 16, so a step of dt ~ 0.1 leaves
    # t where it was and the loop would never reach t_end
    import pathfv.schemes

    monkeypatch.setattr(pathfv.schemes, "_STEP_BUDGET", 5)
    grid = Grid(-1.0, 1.0, 20)
    sol = Solution(grid, 1e17, np.tile([1.0, 1.0], (20, 1)))
    steps = []
    with pytest.raises(StepLimitError) as err:
        evolve(RoeScheme(SIMPLE, TwoSegmentPath()), sol, 1e17 + 64.0, 0.9,
               on_step=steps.append)
    assert str(err.value) == "evolve exceeded the step guard"
    assert err.value.t == 1e17 and len(steps) == 6
