import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathfv import (
    DomainError,
    EigenDecompositionError,
    HyperbolicityLossError,
    ShallowWaterSystem,
    SimplifiedSystem,
    TwoLayerSystem,
)
from conftest import (
    random_shallow_water_states,
    random_simplified_states,
    random_two_layer_states,
)
from pathfv.systems import DISTINCTNESS_RTOL, distinct, normalize_eigenvectors
from oracles import (
    distinct_by_reduction,
    normalize_eigenvectors_loop,
    quasilinear_momentum_row,
    shallow_water_eigensystem_by_sort,
    shallow_water_roe_eigensystem_by_sort,
)


class TestSimplified:
    sys = SimplifiedSystem()

    def test_matrix_at_unit_state(self):
        A = self.sys.matrix([1.0, 1.0])
        assert np.allclose(A, [[0.0, 1.0], [0.0, 2.0]], atol=0.0)

    def test_matrix_matches_quasilinear_expansion(self):
        # momentum equation q_t + (q^2/h)_x + q h h_x = 0: the h-column of the
        # second row is d(q^2/h)/dh + q h, cross-checked by finite differences
        for w in ([0.5, 0.5], [1.3, 0.7], [0.9, 2.1]):
            w = np.array(w)
            row = quasilinear_momentum_row(
                w, lambda v: v[1] ** 2 / v[0], lambda v: v[1] * v[0]
            )
            assert np.allclose(self.sys.matrix(w)[1], row, atol=1e-6)

    def test_matrix_value_half_half(self):
        A = self.sys.matrix([0.5, 0.5])
        assert A[1, 0] == pytest.approx(-0.75, abs=1e-15)
        assert A[1, 1] == pytest.approx(2.0)

    def test_eigenvalues_closed_form(self, rng):
        # lam = u -+ h sqrt(u) on admissible states
        W = random_simplified_states(rng, 300)
        W = W[self.sys.is_admissible(W)]
        lam = self.sys.eigenvalues(W)
        h, q = W[:, 0], W[:, 1]
        u = q / h
        expect = np.stack([u - h * np.sqrt(u), u + h * np.sqrt(u)], axis=-1)
        assert np.abs(lam - expect).max() < 1e-12

    def test_eigenvalues_at_unit_state(self):
        assert np.allclose(self.sys.eigenvalues([1.0, 1.0]), [0.0, 2.0])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            self.sys.matrix([-1.0, 1.0])
        with pytest.raises(DomainError):
            self.sys.matrix([0.0, 1.0])

    def test_negative_velocity_lanes_are_named(self):
        W = np.array([[1.0, 1.0], [1.0, -0.5], [1.0, 1.0], [2.0, -1.0]])
        with pytest.raises(HyperbolicityLossError) as err:
            self.sys.eigenvalues(W)
        assert err.value.indices == (1, 3)

    def test_admissibility_region(self):
        assert self.sys.is_admissible([1.0, 1.0])
        assert not self.sys.is_admissible([1.0, -0.5])  # needs q > 0
        # h above (16 q)^(1/3) leaves the region
        q = 0.1
        h_hi = (16 * q) ** (1 / 3)
        assert self.sys.is_admissible([0.9 * h_hi, q])
        assert not self.sys.is_admissible([1.1 * h_hi, q])


class TestShallowWater:
    sys = ShallowWaterSystem(g=9.81)

    def test_still_water_eigenvalues(self):
        lam = self.sys.eigenvalues([1.0, 0.0, 0.3])
        assert np.allclose(lam, [-np.sqrt(9.81), 0.0, np.sqrt(9.81)], atol=1e-14)

    def test_zero_flow_symmetry(self, rng):
        for _ in range(20):
            h = rng.uniform(0.2, 3.0)
            lam = self.sys.eigenvalues([h, 0.0, 0.0])
            assert lam[0] == pytest.approx(-lam[2], abs=1e-13)

    def test_block_structure(self, rng):
        W = random_shallow_water_states(rng, 50)
        A = self.sys.matrix(W)
        assert np.all(A[:, 2, :] == 0.0)  # frozen-topography row
        # first rows are [J | -S]
        h = W[:, 0]
        assert np.allclose(A[:, 1, 2], -9.81 * h)

    def test_resonance_rejected(self):
        h = 1.0
        q = h * np.sqrt(9.81 * h)  # u = c exactly
        assert not self.sys.is_admissible([h, q, 0.0])
        assert self.sys.is_admissible([h, 0.5 * q, 0.0])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            self.sys.matrix([0.0, 1.0, 0.0])


class TestTwoLayer:
    def test_decoupled_limit_exact(self):
        sys = TwoLayerSystem(g=9.81, r=0.0)
        c = np.sqrt(9.81)
        lam = sys.eigenvalues([1.0, 0.0, 4.0, 0.0])
        assert np.abs(lam - np.array([-2 * c, -c, c, 2 * c])).max() < 1e-12

    def test_decoupled_equal_depth_rejected(self):
        # r = 0 with equal depths gives doubly degenerate eigenvalues; at the
        # exact degeneracy the root finder may report either defectiveness or
        # a complex pair, and both must reject the state
        sys = TwoLayerSystem(g=9.81, r=0.0)
        assert not sys.is_admissible([1.0, 0.0, 1.0, 0.0])
        with pytest.raises((EigenDecompositionError, HyperbolicityLossError)):
            sys.eigensystem([1.0, 0.0, 1.0, 0.0])

    def test_symmetric_rest_closed_form(self):
        g, r, h = 9.81, 0.5, 1.3
        sys = TwoLayerSystem(g=g, r=r)
        lam = sys.eigenvalues([h, 0.0, h, 0.0])
        ext = np.sqrt(g * h * (1 + np.sqrt(r)))
        inner = np.sqrt(g * h * (1 - np.sqrt(r)))
        assert np.allclose(lam, [-ext, -inner, inner, ext], atol=1e-12)

    def test_quartic_vs_dense_eigensolver(self, rng):
        sys = TwoLayerSystem(g=9.81, r=0.95)
        W = random_two_layer_states(rng, 1000, r=0.95)
        W = W[sys.is_admissible(W)]
        lam = sys.eigenvalues(W)
        A = sys.matrix(W)
        ref = np.sort(np.linalg.eigvals(A).real, axis=-1)
        assert np.abs(lam - ref).max() < 1e-9

    def test_eigensystem_residual(self, rng):
        sys = TwoLayerSystem(g=9.81, r=0.9)
        W = random_two_layer_states(rng, 200, r=0.9)
        W = W[sys.is_admissible(W)]
        lam, K = sys.eigensystem(W)
        A = sys.matrix(W)
        resid = A @ K - K * lam[..., None, :]
        assert np.abs(resid).max() < 1e-10
        norms = np.linalg.norm(K, axis=-2)
        assert np.abs(norms - 1.0).max() < 1e-12
        assert np.all(K[..., 0, :] > 0)  # first component positive

    def test_near_unity_ratio_approximation(self):
        # at rest with equal depths the quartic roots stay within 15% of the
        # spread from the weak-coupling closed forms
        g, r = 9.81, 0.98
        sys = TwoLayerSystem(g=g, r=r)
        h1 = h2 = 1.0
        lam = sys.eigenvalues([h1, 0.0, h2, 0.0])
        gprime = (1 - r) * g
        ext = np.sqrt(g * (h1 + h2))
        inner = np.sqrt(gprime * h1 * h2 / (h1 + h2))
        approx = np.array([-ext, -inner, inner, ext])
        spread = lam.max() - lam.min()
        assert np.abs(lam - approx).max() < 0.15 * spread

    def test_shear_instability_raises(self):
        g, r = 9.81, 0.98
        sys = TwoLayerSystem(g=g, r=r)
        gprime = (1 - r) * g
        h1 = h2 = 0.5
        du = np.sqrt(2.0 * gprime * (h1 + h2))  # indicator = 2
        w = [h1, h1 * du / 2, h2, -h2 * du / 2]
        assert sys.hyperbolicity_indicator(w) == pytest.approx(2.0)
        with pytest.raises(HyperbolicityLossError) as err:
            sys.eigenvalues(w)
        assert err.value.discriminant is not None

    def test_indicator_values(self):
        sys = TwoLayerSystem(g=10.0, r=0.9)
        assert sys.hyperbolicity_indicator([1.0, 0.3, 1.0, 0.3]) == pytest.approx(0.0)
        du = np.sqrt(2.0)
        w = [1.0, du, 1.0, 0.0]
        assert sys.hyperbolicity_indicator(w) == pytest.approx(1.0)
        sys2 = TwoLayerSystem(g=9.81, r=0.98)
        w2 = [0.5, 0.5 * 0.1, 0.5, 0.0]
        assert sys2.hyperbolicity_indicator(w2) == pytest.approx(
            0.01 / (0.02 * 9.81), rel=1e-12
        )

    def test_unit_density_ratio_rejected(self):
        with pytest.raises(DomainError):
            TwoLayerSystem(g=9.81, r=1.0)

    def test_domain_error(self):
        sys = TwoLayerSystem()
        with pytest.raises(DomainError):
            sys.matrix([1.0, 0.0, -0.2, 0.0])
        with pytest.raises(DomainError):
            sys.eigenvalues([1.0, np.nan, 1.0, 0.0])


# One valid state per system and a Roe coupling that fits it.
STATE_RULE_CASES = [
    (SimplifiedSystem(), [1.0, 1.0], np.array(1.0)),
    (ShallowWaterSystem(9.81), [1.0, 0.5, 0.2], np.array(-9.81)),
    (TwoLayerSystem(9.81, 0.95), [1.0, 0.1, 0.8, -0.1], (np.array(1.0), np.array(0.8))),
]
STATE_METHODS = {
    "matrix": lambda sys, w, c: sys.matrix(w),
    "eigenvalues": lambda sys, w, c: sys.eigenvalues(w),
    "eigensystem": lambda sys, w, c: sys.eigensystem(w),
    "conservative_flux": lambda sys, w, c: sys.conservative_flux(w),
    "roe_eigensystem": lambda sys, w, c: sys.roe_eigensystem(w, w, c),
}


@pytest.mark.parametrize("method", sorted(STATE_METHODS))
@pytest.mark.parametrize("case", STATE_RULE_CASES, ids=lambda c: c[0].name)
def test_each_thickness_component_must_be_positive(case, method):
    sys, state, coupling = case
    call = STATE_METHODS[method]
    good = np.array([state, state])
    call(sys, good, coupling)  # the valid states pass
    for i in sys.thickness:
        for value in (0.0, -0.5):
            bad = good.copy()
            bad[1, i] = value
            with pytest.raises(DomainError, match=f"{sys.components[i]}.* > 0"):
                call(sys, bad, coupling)
            # the admissibility mask reads the same declaration, and refuses
            # nothing but flags the lane
            assert sys.is_admissible(bad).tolist() == [True, False]


@pytest.mark.parametrize("method", sorted(STATE_METHODS))
@pytest.mark.parametrize("case", STATE_RULE_CASES, ids=lambda c: c[0].name)
def test_a_wrong_component_count_is_refused(case, method):
    sys, state, coupling = case
    n = len(sys.components)
    for states in (np.array([state[:-1]] * 2), np.array([state + [1.0]] * 2)):
        with pytest.raises(DomainError, match=f"must have {n} components"):
            STATE_METHODS[method](sys, states, coupling)


def test_thickness_names_the_layer_depths():
    assert [[s.components[i] for i in s.thickness] for s, _, _ in STATE_RULE_CASES] == [
        ["h"], ["h"], ["h1", "h2"]]
    with pytest.raises(DomainError, match="h1, h2 > 0"):
        TwoLayerSystem().hyperbolicity_indicator([1.0, 0.0, 0.0, 0.0])


def test_admissibility_speed_is_max_abs_speed(rng):
    # the speed a step carries must equal max_abs_speed bit for bit, and be
    # None exactly where max_abs_speed raises
    cases = [
        (SimplifiedSystem(), random_simplified_states(rng, 200), [1.0, -0.5]),
        (ShallowWaterSystem(9.81), random_shallow_water_states(rng, 200), [0.0, 1.0, 0.0]),
        (TwoLayerSystem(9.81, 0.95), random_two_layer_states(rng, 200),
         [1.0, 1.0, 1.0, -1.0]),
    ]
    for sys, W, bad in cases:
        ok, speed = sys.is_admissible(W, with_speed=True)
        assert np.array_equal(ok, sys.is_admissible(W)), sys.name
        assert speed == sys.max_abs_speed(W), sys.name
        W = np.vstack([W, bad])
        with pytest.raises((DomainError, HyperbolicityLossError)):
            sys.max_abs_speed(W)
        ok, speed = sys.is_admissible(W, with_speed=True)
        assert speed is None and not ok[-1], sys.name


def test_eigendecomposition_residual_all_systems(rng):
    # || A K - K diag(lam) ||_inf < 1e-10 across random admissible states
    cases = [
        (SimplifiedSystem(), random_simplified_states(rng, 1000)),
        (ShallowWaterSystem(9.81), random_shallow_water_states(rng, 1000)),
        (TwoLayerSystem(9.81, 0.95), random_two_layer_states(rng, 1000)),
    ]
    for sys, W in cases:
        W = W[sys.is_admissible(W)]
        assert len(W) > 500
        lam, K = sys.eigensystem(W)
        resid = sys.matrix(W) @ K - K * lam[..., None, :]
        assert np.abs(resid).max() < 1e-10, sys.name
        assert np.all(np.diff(lam, axis=-1) > 0), sys.name


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def shallow_water_regimes(rng, n=100, g=9.81):
    """States by Froude number u/c: subcritical, supercritical either way,
    and within 1e-9 of u = -c and of u = +c (in that order, n each)."""
    froude = np.concatenate([
        rng.uniform(-0.95, 0.95, n),
        rng.uniform(1.05, 4.0, n),
        rng.uniform(-4.0, -1.05, n),
        -1.0 + rng.uniform(-1e-9, 1e-9, n),
        1.0 + rng.uniform(-1e-9, 1e-9, n),
    ])
    h = rng.uniform(0.05, 3.0, froude.size)
    return np.stack([h, h * froude * np.sqrt(g * h), rng.uniform(-1.0, 1.0, h.size)],
                    axis=-1)


def test_shallow_water_eigenpairs_equal_the_sorting_oracle(rng):
    # ascending order built from the flow regime, without a sort, gives the
    # sorted eigenvalues and permuted columns bit for bit, sign bits included
    sys = ShallowWaterSystem(9.81)
    W = shallow_water_regimes(rng)
    lam, _ = shallow_water_eigensystem_by_sort(9.81, W)
    assert bitwise_equal(sys.eigenvalues(W), lam)
    moving = W[:300]
    for w in (moving, moving[0], moving[150], moving[250]):
        lam, K = sys.eigensystem(w)
        lam_o, K_o = shallow_water_eigensystem_by_sort(9.81, w)
        assert bitwise_equal(lam, lam_o) and bitwise_equal(K, K_o)
    W_r = W * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=W.shape))
    for u_r in (W, W_r):  # the Roe state of (w, w) is w itself: near-critical
        coupling = -9.81 * 0.5 * (W[:, 0] + u_r[:, 0])
        lam, k = sys.roe_eigensystem(W, u_r, coupling)
        K = sys.eigenvector_matrix(lam, k)
        lam_o, K_o = shallow_water_roe_eigensystem_by_sort(9.81, W, u_r, coupling)
        assert bitwise_equal(lam, lam_o) and bitwise_equal(K, K_o)


@pytest.mark.parametrize("sys, w", [
    (SimplifiedSystem(), [1.0, 0.0]),  # q = 0: u -+ h sqrt(u) are both 0
    (ShallowWaterSystem(9.81), [1.0, np.sqrt(9.81), 0.0]),  # u = c meets the standing 0
    (ShallowWaterSystem(9.81), [1.0, -np.sqrt(9.81), 0.0]),  # u = -c
], ids=["simplified", "shallow_water_u=c", "shallow_water_u=-c"])
def test_coincident_eigenvalues_raise(sys, w):
    assert not distinct(sys.eigenvalues(w))
    with pytest.raises(EigenDecompositionError):
        sys.eigensystem(w)
    with pytest.raises(EigenDecompositionError) as exc:
        sys.eigensystem(np.stack([np.ones_like(w), w]))
    assert exc.value.index == 1


def test_near_critical_shallow_water_eigensystem_raises(rng):
    # within 1e-9 of u = -+c the gap to the standing 0 is below the
    # distinctness bound, so no eigenvector matrix comes back
    W = shallow_water_regimes(rng)[300:]
    assert not distinct(ShallowWaterSystem(9.81).eigenvalues(W)).any()
    for w in W[::50]:
        with pytest.raises(EigenDecompositionError):
            ShallowWaterSystem(9.81).eigensystem(w)


def test_distinct_is_one_strict_rule():
    lam = np.array([[-1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0 + 1e-9]])
    assert distinct(lam).tolist() == [True, False, False, False]
    assert distinct(lam[0]) and distinct(np.array([0.0, 1e-300]))
    # a gap equal to the bound DISTINCTNESS_RTOL * max |lam| is coincident
    assert not distinct(np.array([-1.0, 0.0, DISTINCTNESS_RTOL]))
    assert distinct(np.array([-1.0, 0.0, 2.0 * DISTINCTNESS_RTOL]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_distinct_equals_the_reduction_form(n, rng):
    # the column-by-column mask is the np.diff / min / abs().max one, bit
    # for bit, on ascending lanes: random, with equal gaps, gaps at the
    # bound, zeros and signed zeros, and NaN in any column
    lam = np.sort(rng.normal(scale=rng.choice([1e-3, 1.0, 1e3], size=(4000, 1)),
                             size=(4000, n)), axis=-1)
    lam[:500] = np.arange(n) * rng.choice([0.0, 1.0, 2.0], size=(500, 1))
    lam[500:1000] = np.sort(rng.choice([-1.0, -0.0, 0.0, 1.0], size=(500, n)), axis=-1)
    lam[1000:1250, -1] = lam[1000:1250, -2] + DISTINCTNESS_RTOL * np.abs(
        lam[1000:1250]).max(axis=-1) * rng.choice([0.5, 1.0, 2.0], size=250)
    if n > 2:  # (-S, ..., 0, RTOL S): the smallest gap equals the bound exactly
        base = np.append(np.linspace(-1.0, 0.0, n - 1), DISTINCTNESS_RTOL)
        lam[1250:1500] = base * rng.choice([0.25, 1.0, 8.0], size=(250, 1))
    lam[1500:2000][np.arange(500), rng.integers(0, n, 500)] = np.nan
    assert np.array_equal(distinct(lam), distinct_by_reduction(lam))
    assert np.array_equal(distinct(lam.reshape(40, 100, n)),
                          distinct_by_reduction(lam).reshape(40, 100))
    for row in lam[::97]:
        assert distinct(row) == distinct_by_reduction(row)


@pytest.mark.parametrize("shape", [(3, 3), (200, 2, 2), (4, 50, 4, 4)])
def test_normalize_eigenvectors_equals_the_loop(shape, rng):
    K = rng.normal(size=shape)
    # leading entries at, below and above the 1e-14 sign threshold (after
    # the columns are scaled to unit length), of either sign, and zeros
    small = rng.choice([0.0, 1e-17, 5e-15, 1e-14, 2e-14, 1.0], size=shape[:-2] + shape[-1:])
    K[..., 0, :] *= small
    K[..., 1, :] *= rng.choice([1e-16, 1.0], size=small.shape)
    out = normalize_eigenvectors(K)
    assert bitwise_equal(out, normalize_eigenvectors_loop(K))
    assert out.flags.c_contiguous


# ---------------------------------------------------------------------------
# Closed-form quartic against the dense eigensolver

G = 9.81
depth = st.floats(0.2, 2.0)
velocity = st.floats(-1.0, 1.0)
unit = st.floats(-1.0, 1.0)


def layered_state(h1, h2, ubar, du):
    """Two-layer state with mean velocity ubar and shear u1 - u2 = du."""
    return np.array([h1, h1 * (ubar + 0.5 * du), h2, h2 * (ubar - 0.5 * du)])


def dense_roots(system, w):
    lam = np.linalg.eigvals(system.matrix(w))
    return np.sort(lam.real), lam


def dense_complex(system, w):
    _, lam = dense_roots(system, w)
    return bool(np.abs(lam.imag).max() > 1e-9 * max(1.0, np.abs(lam).max()))


def separated(lam, rtol):
    return np.diff(lam).min() > rtol * max(1.0, np.abs(lam).max())


class TestQuarticClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(h1=depth, h2=depth, r=st.floats(0.0, 0.99), ubar=velocity, shear=unit)
    def test_matches_dense_eigensolver(self, h1, h2, r, ubar, shear):
        sys = TwoLayerSystem(G, r)
        w = layered_state(h1, h2, ubar, shear * np.sqrt((1 - r) * G * (h1 + h2)))
        assume(sys.is_admissible(w))
        ref, _ = dense_roots(sys, w)
        # the dense roots themselves are only accurate to about eps / gap
        assume(separated(ref, 1e-4))
        assert np.abs(sys.eigenvalues(w) - ref).max() < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(h1=depth, h2=depth, r=st.floats(0.0, 0.99), u=velocity)
    def test_equal_velocities_biquadratic(self, h1, h2, r, u):
        # u1 = u2 makes q = 0: (lam - u)^2 solves a quadratic
        sys = TwoLayerSystem(G, r)
        a1, a2 = G * h1, G * h2
        big = 0.5 * (a1 + a2 + np.sqrt((a1 - a2) ** 2 + 4.0 * r * a1 * a2))
        small = (1.0 - r) * a1 * a2 / big
        expect = u + np.array([-np.sqrt(big), -np.sqrt(small),
                               np.sqrt(small), np.sqrt(big)])
        assume(separated(expect, 1e-4))
        lam = sys.eigenvalues(layered_state(h1, h2, u, 0.0))
        assert np.abs(lam - expect).max() < 1e-12
        assert np.abs(lam - dense_roots(sys, layered_state(h1, h2, u, 0.0))[0]).max() < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(h1=depth, h2=depth, ubar=velocity, shear=unit)
    def test_decoupled_roots_exact(self, h1, h2, ubar, shear):
        # r = 0: k = 0 and the roots are u1 -+ c1, u2 -+ c2
        sys = TwoLayerSystem(G, 0.0)
        du = 3.0 * shear
        u1, u2 = ubar + 0.5 * du, ubar - 0.5 * du
        c1, c2 = np.sqrt(G * h1), np.sqrt(G * h2)
        expect = np.sort([u1 - c1, u1 + c1, u2 - c2, u2 + c2])
        # coincident roots are sqrt(eps)-conditioned
        assume(separated(expect, 1e-3))
        lam = sys.eigenvalues(layered_state(h1, h2, ubar, du))
        assert np.abs(lam - expect).max() < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(h=depth, r=st.floats(0.01, 0.99))
    def test_equal_depths_at_rest(self, h, r):
        sys = TwoLayerSystem(G, r)
        ext = np.sqrt(G * h * (1 + np.sqrt(r)))
        inner = np.sqrt(G * h * (1 - np.sqrt(r)))
        lam = sys.eigenvalues([h, 0.0, h, 0.0])
        assert np.abs(lam - np.array([-ext, -inner, inner, ext])).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(h1=depth, h2=depth, r=st.floats(0.5, 0.99), ubar=velocity)
    @example(h1=0.5, h2=0.5, r=0.98, ubar=0.0)  # symmetric: q = 0 on both sides
    def test_loss_raised_iff_dense_roots_complex_at_boundary(self, h1, h2, r, ubar):
        sys = TwoLayerSystem(G, r)
        lo, hi = 0.0, 2.0 * np.sqrt((1 - r) * G * (h1 + h2))
        assume(dense_complex(sys, layered_state(h1, h2, ubar, hi)))
        # the dense oracle locates the shear-instability boundary
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if dense_complex(sys, layered_state(h1, h2, ubar, mid)):
                hi = mid
            else:
                lo = mid
        for du, expect in ((hi * (1 - 1e-6), False), (hi * (1 + 1e-6), True)):
            w = layered_state(h1, h2, ubar, du)
            assert dense_complex(sys, w) == expect
            try:
                sys.eigenvalues(w)
                raised = False
            except HyperbolicityLossError as err:
                raised = True
                assert err.discriminant < 0.0 and err.max_imag > 0.0
                assert err.indices == (0,)
            assert raised == expect

    def test_batch_is_lane_wise(self, rng):
        # admissibility retries and carried speeds rely on a state's roots
        # not depending on the rest of its batch
        sys = TwoLayerSystem(G, 0.95)
        W = random_two_layer_states(rng, 50, max_shear=1.5)
        ok = sys.is_admissible(W)
        assert 0 < ok.sum() < len(W)
        with pytest.raises(HyperbolicityLossError) as err:
            sys.eigenvalues(W)
        bad = np.array(err.value.indices)
        for i in bad:
            with pytest.raises(HyperbolicityLossError):
                sys.eigenvalues(W[i])
        good = np.setdiff1d(np.arange(len(W)), bad)
        lam = sys.eigenvalues(W[good])
        for j, i in enumerate(good):
            assert np.array_equal(lam[j], sys.eigenvalues(W[i]))
        assert not ok[bad].any()
