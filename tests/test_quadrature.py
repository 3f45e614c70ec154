import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfv import PathFVError, QuadratureError, diagnostics, equivalent_eq_i2, hugoniot
from pathfv.hugoniot import _rh_residual_vec, solve_rh_at
from pathfv.paths import PATHS
from pathfv.quadrature import _central_differences, adaptive_gl, composite_gl
from pathfv.systems import SYSTEMS
from conftest import (
    random_shallow_water_states,
    random_simplified_states,
    random_two_layer_states,
)
from oracles import central_differences, endpoint_matrix


def test_polynomial_exactness():
    # 8-point Gauss-Legendre integrates degree-15 polynomials exactly
    coeffs = np.arange(1.0, 17.0)

    def f(s):
        return np.polynomial.polynomial.polyval(s, coeffs)[..., None]

    exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
    got = composite_gl(f, 0.0, 1.0, 1)
    assert got[0] == pytest.approx(exact, rel=1e-14)


def test_adaptive_converges_on_smooth_integrand():
    def f(s):
        return np.stack([np.exp(s) * np.sin(9 * s), np.cos(5 * s)], axis=-1)

    got = adaptive_gl(f, 0.0, 2.0)
    exact0 = (np.exp(2) * (np.sin(18) - 9 * np.cos(18)) + 9) / 82.0
    exact1 = np.sin(10) / 5.0
    assert got[0] == pytest.approx(exact0, abs=1e-11)
    assert got[1] == pytest.approx(exact1, abs=1e-11)


def test_adaptive_reports_failure_with_achieved_tolerance():
    # a jump at an irrational point defeats dyadic refinement
    def f(s):
        return np.where(s < 1 / np.sqrt(2), 0.0, 1.0)[..., None]

    with pytest.raises(QuadratureError) as err:
        adaptive_gl(f, 0.0, 1.0, max_depth=6)
    assert err.value.achieved is not None
    assert err.value.achieved > 0


# every (system, path) pair with a closed form
DECLARED = [(system, path) for path, cls in PATHS.items() for system in cls.couplings]
STATES = {
    "simplified": random_simplified_states,
    "shallow_water": random_shallow_water_states,
    "two_layer": random_two_layer_states,
}


def _draw(system_name, path_name, seed):
    """The pair's system and path (a random skew) and two random states,
    the second near the first so that the equilibrium path reaches it."""
    rng = np.random.default_rng(seed)
    system = SYSTEMS[system_name]()
    path = PATHS[path_name].for_system(system, float(rng.uniform(0.0, 0.1)))
    w = STATES[system_name](rng, 2)
    if system_name == "shallow_water":
        w[1, 2] = w[0, 2] + rng.uniform(-0.05, 0.05)
    return rng, system, path, w[0], w[1]


def _same_jacobian(f, v, rel_step):
    """The batched central differences equal the per-point loop bit for
    bit, or both raise where some perturbed point is refused."""
    try:
        want = central_differences(f, v, rel_step)
    except PathFVError:
        with pytest.raises(PathFVError):
            _central_differences(f, v, rel_step)
        return
    got = _central_differences(f, v, rel_step)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBatchedCentralDifferences:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("system_name, path_name", DECLARED)
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_jump_residual(self, system_name, path_name, side, seed):
        rng, system, path, fixed, free = _draw(system_name, path_name, seed)
        xi = float(rng.uniform(-3.0, 3.0))
        _same_jacobian(lambda v: _rh_residual_vec(system, path, fixed, side, v, xi),
                       free, 1e-7)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("system_name, path_name", DECLARED)
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pinned_jump_residual(self, system_name, path_name, side, seed):
        # the residual in (free components, xi) that solve_rh_at hands Newton
        rng, system, path, fixed, free = _draw(system_name, path_name, seed)
        component = int(rng.integers(len(fixed)))
        newton = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hugoniot, "_damped_newton",
                       lambda resid, z, *args: newton.append((resid, z)) or (z, 0.0))
            solve_rh_at(system, path, fixed, side, component, free[component], free,
                        float(rng.uniform(-3.0, 3.0)))
        (resid, z), = newton
        _same_jacobian(resid, z, 1e-7)

    @pytest.mark.parametrize("system_name", sorted(STATES))
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_system_matrix(self, system_name, seed):
        rng = np.random.default_rng(seed)
        _same_jacobian(SYSTEMS[system_name]().matrix, STATES[system_name](rng, 1)[0],
                       1e-6)

    @pytest.mark.parametrize("which", ["l", "r"])
    @pytest.mark.parametrize("system_name, path_name", DECLARED)
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_endpoint_matrix(self, system_name, path_name, which, seed):
        rng, _, path, v, _ = _draw(system_name, path_name, seed)
        svals = np.sort(rng.uniform(0.0, 1.0, 12))
        for fun in (path.evaluate, path.tangent):
            got = diagnostics._endpoint_matrix(fun, svals, v, which)
            want = endpoint_matrix(fun, svals, v, which)
            assert got.shape == want.shape == (12, v.size, v.size)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("system_name, path_name", DECLARED)
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_modified_equation_term(self, system_name, path_name, seed):
        rng, system, path, v, _ = _draw(system_name, path_name, seed)
        vx = rng.standard_normal(v.size)
        assert _i2_bits(system, path, v, vx) == _i2_bits(system, path, v, vx, loop=True)

    def test_criterion_7_inputs(self, rng):
        # the draws and probes of the criterion-7 acceptance tests, in order
        simple, two = SYSTEMS["simplified"](), SYSTEMS["two_layer"](9.81, 0.95)
        cases = [(simple, PATHS["segments"](), random_simplified_states(rng, 1)[0],
                  rng.standard_normal(2)) for _ in range(34)]
        for eps in (0.0, 0.017, 0.05):
            cases += [(two, PATHS["skewed_segments"](eps),
                       random_two_layer_states(rng, 1)[0], rng.standard_normal(4))
                      for _ in range(22)]
        cases += [(simple, PATHS["two_segment"](), np.array([1.0, 1.0]), np.array(vx))
                  for vx in ([1.0, 0.0], [1.0, 1.0])]
        for system, path, v, vx in cases:
            assert _i2_bits(system, path, v, vx) == _i2_bits(system, path, v, vx,
                                                             loop=True)


def _i2_bits(system, path, v, vx, loop=False):
    """``equivalent_eq_i2``, with ``loop`` on the per-point oracles."""
    with pytest.MonkeyPatch.context() as mp:
        if loop:
            mp.setattr(diagnostics, "_central_differences", central_differences)
            mp.setattr(diagnostics, "_endpoint_matrix", endpoint_matrix)
        return equivalent_eq_i2(system, path, v, vx).tobytes()
