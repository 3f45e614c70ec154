"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the package's public
surface only (path evaluation, matrix evaluation), using brute-force
numerics (dense trapezoid quadrature, plain finite differences), so each
oracle stays independent of the code path it checks.  The exact Riemann
solver's Newton iteration is the exception: it is the package's one-lane
kernel, which ``tests/test_riemann.py`` compares with the batched one.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from pathfv.errors import CurveRangeError, DomainError, RiemannSolutionError
from pathfv.paths import PathFamily
from pathfv.riemann import NULL, _lane_point, _newton_lane
from pathfv.systems import DISTINCTNESS_RTOL


def dense_path_integral(path, system, u_l, u_r, n=160_000):
    """Midpoint-rule integration of A(Phi) Phi_s over a fine s grid, per leg.

    Midpoints never coincide with the leg boundaries, where piecewise paths
    have ambiguous tangents.
    """
    u_l = np.asarray(u_l, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    total = np.zeros_like(u_l)
    pts = path.breakpoints
    for a, b in zip(pts[:-1], pts[1:]):
        step = (b - a) / n
        s = a + (np.arange(n) + 0.5) * step
        states = path.evaluate(s, u_l, u_r)
        tangents = path.tangent(s, u_l, u_r)
        A = system.matrix(states)
        integrand = np.einsum("sij,sj->si", A, tangents)
        total = total + integrand.sum(axis=0) * step
    return total


def lf_single_interface_update(u_lm, u_m, u_rp, system, path, dt_over_dx):
    """Hand-rolled Lax-Friedrichs cell update from the three-point formula.

    u_new = (u_{i-1} + u_{i+1})/2 - (dt/2dx) (I(u_{i-1}, u_i) + I(u_i, u_{i+1}))
    with I the dense path integral above.
    """
    u_lm = np.asarray(u_lm, dtype=float)
    u_m = np.asarray(u_m, dtype=float)
    u_rp = np.asarray(u_rp, dtype=float)
    I = dense_path_integral(path, system, u_lm, u_m) + dense_path_integral(
        path, system, u_m, u_rp
    )
    return 0.5 * (u_lm + u_rp) - 0.5 * dt_over_dx * I


def roe_fluctuations(a_roe, u_l, u_r):
    """Upwind split of a given linearization: M-+ = A-+ (u_r - u_l).

    A-+ = K diag(lam-+) K^-1 built from a dense eigendecomposition of
    ``a_roe``; requires distinct real eigenvalues and a well-conditioned
    eigenvector matrix (condition number <= 1e12).
    """
    a_roe = np.asarray(a_roe, dtype=float)
    lam, K = np.linalg.eig(a_roe)
    if np.abs(lam.imag).max() > 1e-10 * max(1.0, np.abs(lam).max()):
        raise ValueError("linearization has complex eigenvalues")
    order = np.argsort(lam.real)
    lam, K = lam.real[order], K.real[:, order]
    if np.diff(lam).min() < 1e-8 * max(np.abs(lam).max(), 1e-300):
        raise ValueError("eigenvalues are not distinct")
    if np.linalg.cond(K) > 1e12:
        raise ValueError("eigenvector matrix is ill-conditioned")
    du = np.asarray(u_r, dtype=float) - np.asarray(u_l, dtype=float)
    coeff = np.linalg.solve(K, du)
    mm = K @ (np.minimum(lam, 0.0) * coeff)
    mp = K @ (np.maximum(lam, 0.0) * coeff)
    return mm, mp


def quasilinear_momentum_row(w, flux, noncons_coeff, step=1e-7):
    """Row of A for an equation  q_t + flux(w)_x + noncons_coeff(w) h_x = 0.

    The flux gradient is taken by central differences; the nonconservative
    term adds to the h column.  Used to cross-check hand-written matrices.
    """
    w = np.asarray(w, dtype=float)
    row = np.empty(2)
    for k in range(2):
        h = step * max(1.0, abs(w[k]))
        wp = w.copy()
        wp[k] += h
        wm = w.copy()
        wm[k] -= h
        row[k] = (flux(wp) - flux(wm)) / (2.0 * h)
    row[0] += noncons_coeff(w)
    return row


def normalize_eigenvectors_loop(K):
    """Unit columns, each negated when its first entry of |x| > 1e-14 is
    negative: a Python loop over every matrix and every column."""
    K = np.array(K, dtype=float)
    K = K / np.linalg.norm(K, axis=-2, keepdims=True)
    n = K.shape[-1]
    flat = K.reshape(-1, n, n)
    for M in flat:
        for j in range(n):
            col = M[:, j]
            nz = np.nonzero(np.abs(col) > 1e-14)[0]
            if nz.size and col[nz[0]] < 0:
                M[:, j] = -col
    return flat.reshape(K.shape)


def distinct_by_reduction(lam):
    """The distinctness mask by reductions along the last axis: the scale
    from ``np.abs(lam).max`` and the smallest gap from ``np.diff`` and
    ``min``, for lanes of ascending eigenvalues."""
    scale = np.maximum(np.abs(lam).max(axis=-1), 1e-300)
    return np.diff(lam, axis=-1).min(axis=-1) > DISTINCTNESS_RTOL * scale


def _shallow_water_pairs_by_sort(u, c, k_standing):
    """Eigenvalues (u - c, u + c, 0) with the columns (1, lam, 0), (1, lam, 0)
    and (k_standing, 0, 1), both put in ascending order by argsort."""
    lam = np.stack([u - c, u + c, np.zeros_like(u)], axis=-1)
    K = np.zeros(lam.shape + (3,))
    K[..., 0, 0] = 1.0
    K[..., 1, 0] = lam[..., 0]
    K[..., 0, 1] = 1.0
    K[..., 1, 1] = lam[..., 1]
    K[..., 0, 2] = k_standing
    K[..., 2, 2] = 1.0
    order = np.argsort(lam, axis=-1)
    return (np.take_along_axis(lam, order, axis=-1),
            np.take_along_axis(K, order[..., None, :], axis=-1))


def shallow_water_eigensystem_by_sort(g, w):
    """Ascending eigenvalues and unit eigenvectors of the shallow-water
    matrix at the states ``w`` (..., 3)."""
    h, q = w[..., 0], w[..., 1]
    u = q / h
    gh = g * h
    # the standing column is the kernel vector (g h/(g h - u^2), 0, 1)
    lam, K = _shallow_water_pairs_by_sort(u, np.sqrt(gh), gh / (gh - u * u))
    return lam, normalize_eigenvectors_loop(K)


def shallow_water_roe_eigensystem_by_sort(g, u_l, u_r, coupling):
    """Eigenpairs of the shallow-water Roe matrix: Roe velocity, mean depth
    and ``coupling`` the path average of -g h against sigma."""
    h_l, q_l = u_l[..., 0], u_l[..., 1]
    h_r, q_r = u_r[..., 0], u_r[..., 1]
    sl, sr = np.sqrt(h_l), np.sqrt(h_r)
    u = (sl * (q_l / h_l) + sr * (q_r / h_r)) / (sl + sr)
    hbar = 0.5 * (h_l + h_r)
    return _shallow_water_pairs_by_sort(u, np.sqrt(g * hbar),
                                        -coupling / (g * hbar - u * u))


def i2_dense(system, path, v, v_x, npts=10_001, rel_step=1e-3):
    """Dense-quadrature evaluation of the path-dependent modified-equation term.

    Trapezoid over ``npts`` points per leg with Richardson-extrapolated
    central differences for the endpoint-derivative matrices; independent of
    the package's Gauss-Legendre implementation.
    """
    v = np.asarray(v, dtype=float)
    v_x = np.asarray(v_x, dtype=float)
    n = v.size

    dA = np.empty((n, n, n))
    for k in range(n):
        h = 1e-6 * max(1.0, abs(v[k]))
        vp = v.copy()
        vp[k] += h
        vm = v.copy()
        vm[k] -= h
        dA[k] = (system.matrix(vp) - system.matrix(vm)) / (2.0 * h)

    def dmat(fun, s, which):
        cols = []
        for k in range(n):
            h = rel_step * max(1.0, abs(v[k]))

            def fd(hh):
                vp = v.copy()
                vp[k] += hh
                vm = v.copy()
                vm[k] -= hh
                if which == "l":
                    return (fun(s, vp, v) - fun(s, vm, v)) / (2.0 * hh)
                return (fun(s, v, vp) - fun(s, v, vm)) / (2.0 * hh)

            cols.append((4.0 * fd(h / 2) - fd(h)) / 3.0)
        return np.stack(cols, axis=-1)

    total = np.zeros(n)
    for a, b in zip(path.breakpoints[:-1], path.breakpoints[1:]):
        # midpoints avoid the ambiguous tangent at interior breakpoints
        step = (b - a) / npts
        s = a + (np.arange(npts) + 0.5) * step
        acc = np.zeros((npts, n))
        for which in ("l", "r"):
            dphi = dmat(path.evaluate, s, which)
            dphis = dmat(path.tangent, s, which)
            p = dphi @ v_x
            w = dphis @ v_x
            mats = np.einsum("sk,kij->sij", p, dA)
            acc += np.einsum("sij,sj->si", mats, w)
        total += acc.sum(axis=0) * step
    return total


def i2_second_difference(system, path, v, v_x, t=1e-4):
    """I2 as half the second difference of the two one-sided jump integrals.

    Expanding the interface sums of the three-point scheme around a smooth
    state shows that the path-dependent second-order term equals
    (1/2) d^2/dt^2 [ g(v + t w, v) + g(v, v + t w) ] at t = 0, where g is
    the path integral of A between its two arguments.  Entirely independent
    of the endpoint-derivative formula.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(v_x, dtype=float)

    def g(a, b):
        return dense_path_integral(path, system, a, b, n=20_001)

    second = (
        g(v + t * w, v) + g(v - t * w, v) + g(v, v + t * w) + g(v, v - t * w)
    ) / (t * t)
    return 0.5 * second


def hugoniot_q_from_unit_left(h_r):
    """Closed-form flow rate on the slow-family shock locus through (1, 1)."""
    return h_r * (1.0 - np.sqrt((h_r + 1.0) / (2.0 * h_r)) * (h_r - 1.0))


# ---------------------------------------------------------------------------
# Scalar exact Riemann solver for the 2x2 simplified system
#
# The reference for the package's batched ``riemann`` module: one pair of
# Python floats at a time, the same damped Newton iteration with the same
# bracketed fallback, and fans made of ``Wave`` tuples.

_TRIV_TOL = 1e-13  # relative scale below which a wave counts as null


def _shock_q_from_left(h_l, q_l, h_r, family):
    if h_r <= 0 or h_l <= 0:
        raise CurveRangeError("shock curve requires positive thickness")
    arg = q_l * h_r * (h_r + h_l) / (2.0 * h_l)
    if arg < 0:
        raise CurveRangeError("shock curve has no real branch here (q_l < 0)")
    root = math.sqrt(arg)
    sign = -1.0 if family == 1 else 1.0
    return q_l * h_r / h_l + sign * (h_r - h_l) * root


def rarefaction_curve(family, w_l, h):
    """q on the integral curve of ``family`` through ``w_l`` at thickness h.

    sqrt(u) = sqrt(u_l) -+ (h - h_l)/2 for family 1 / 2.  Raises
    ``CurveRangeError`` when the curve leaves u >= 0.
    """
    h_l, q_l = float(w_l[0]), float(w_l[1])
    if h <= 0:
        raise CurveRangeError("rarefaction curve requires h > 0")
    u_l = q_l / h_l
    if u_l < 0:
        raise CurveRangeError("integral curve needs u >= 0 at the anchor state")
    sign = -1.0 if family == 1 else 1.0
    su = math.sqrt(u_l) + sign * (h - h_l) / 2.0
    if su < 0:
        raise CurveRangeError("integral curve leaves the state space (u < 0)")
    return h * su * su


def _forward1_q(w_l, h):
    """Right states reachable from ``w_l`` through an admissible 1-wave."""
    h_l = w_l[0]
    if h >= h_l:
        return _shock_q_from_left(h_l, w_l[1], h, family=1)
    return rarefaction_curve(1, w_l, h)


def _backward2_q(w_r, h):
    """Left states w of an admissible 2-wave with right state ``w_r``.

    On the shock side (h > h_r) the unknown state sits on the LEFT of the
    jump, so its own q enters the jump condition; eliminating xi leaves

        (h_r/h) q^2 - (2 q_r + (h_r-h)^2 (h_r+h)/2) q + q_r^2 h/h_r = 0

    and the family-2 branch is the root whose slope at h = h_r is lam_2.
    """
    h_r, q_r = w_r[0], w_r[1]
    if h <= 0:
        raise CurveRangeError("wave curve requires h > 0")
    if q_r < 0:
        raise CurveRangeError("wave curve needs q >= 0 at the anchor state")
    if h <= h_r:
        u_r = q_r / h_r
        su = math.sqrt(u_r) + (h - h_r) / 2.0
        if su < 0:
            raise CurveRangeError("integral curve leaves the state space (u < 0)")
        return h * su * su
    # shock side: family-2 root of (h_r/h) q^2 - b q + q_r^2 h/h_r = 0 with
    # b = 2 q_r + t, t = (h_r-h)^2 (h_r+h)/2.  The discriminant factors as
    # t (4 q_r + t), which avoids the cancellation in b^2 - 4ac for small
    # jumps.
    a = h_r / h
    t = 0.5 * (h_r - h) ** 2 * (h_r + h)
    b = 2.0 * q_r + t
    disc = t * (4.0 * q_r + t)
    if disc < 0:
        raise CurveRangeError("backward shock branch is complex here")
    return (b + math.sqrt(disc)) / (2.0 * a)


@dataclass(frozen=True)
class Wave:
    """One simple wave: family 1 or 2, shock / rarefaction / null."""

    family: int
    kind: str  # "shock" | "rarefaction" | "null"
    left: tuple
    right: tuple
    speed_left: float
    speed_right: float

    @property
    def speed(self):
        return self.speed_left


@dataclass(frozen=True)
class WaveFan:
    """Self-similar solution of a Riemann problem: two waves, one middle state."""

    w_l: tuple
    w_star: tuple
    w_r: tuple
    waves: tuple

    def validate(self, tol=1e-9):
        speeds = []
        for w in self.waves:
            if w.kind != "null":
                speeds.extend([w.speed_left, w.speed_right])
        if any(b < a - tol for a, b in zip(speeds, speeds[1:])):
            raise RiemannSolutionError(f"wave speeds not ordered: {speeds}")
        return self


def _lam1(h, q):
    u = q / h
    return u - h * math.sqrt(u)


def _lam2(h, q):
    u = q / h
    return u + h * math.sqrt(u)


def _classify(h_from, h_to, scale):
    if abs(h_to - h_from) <= _TRIV_TOL * scale:
        return "null"
    return "shock" if h_to > h_from else "rarefaction"


def _build_fan(w_l, w_r, h_m, q_m):
    h_l, q_l = w_l
    h_r, q_r = w_r
    scale = max(h_l, h_r, h_m, 1.0)
    waves = []

    kind1 = _classify(h_l, h_m, scale)
    if kind1 == "null":
        s = _lam1(h_l, q_l)
        waves.append(Wave(1, "null", (h_l, q_l), (h_l, q_l), s, s))
        h_m, q_m = h_l, q_l
    elif kind1 == "shock":
        xi = q_l / h_l - math.sqrt(q_l * h_m * (h_m + h_l) / (2.0 * h_l))
        waves.append(Wave(1, "shock", (h_l, q_l), (h_m, q_m), xi, xi))
    else:
        waves.append(
            Wave(1, "rarefaction", (h_l, q_l), (h_m, q_m),
                 _lam1(h_l, q_l), _lam1(h_m, q_m))
        )

    kind2 = _classify(h_r, h_m, scale)  # backward curve: shock when h_m > h_r
    if kind2 == "null":
        s = _lam2(h_r, q_r)
        waves.append(Wave(2, "null", (h_r, q_r), (h_r, q_r), s, s))
    elif kind2 == "shock":
        h_sum = h_r + h_m
        t = 0.5 * (h_r - h_m) ** 2 * h_sum
        xi = (2.0 * q_r + h_m * (0.5 * (h_m - h_r) * h_sum
                                 + math.sqrt(0.5 * h_sum * (4.0 * q_r + t)))) / (2.0 * h_r)
        waves.append(Wave(2, "shock", (h_m, q_m), (h_r, q_r), xi, xi))
    else:
        waves.append(
            Wave(2, "rarefaction", (h_m, q_m), (h_r, q_r),
                 _lam2(h_m, q_m), _lam2(h_r, q_r))
        )
    return WaveFan((h_l, q_l), (h_m, q_m), (h_r, q_r), tuple(waves)).validate()


def solve_riemann(w_l, w_r, max_iter=100, tol=1e-13):
    """Intersect the forward 1-curve from w_l with the backward 2-curve to w_r.

    Damped 2-D Newton on (h, q) starting from the two-rarefaction state (the
    meeting point of the two integral curves; Toro, *Riemann Solvers and
    Numerical Methods for Fluid Dynamics*, 4.3.2) or, where that is off the
    state space, from the midpoint, halving the step until the residual
    decreases, by the package's one-lane kernel; falls
    back to a bracketed scalar solve in h when Newton stalls, on the curves
    above.  Raises ``RiemannSolutionError`` with the last residual if both
    fail.
    """
    h_l, q_l = float(w_l[0]), float(w_l[1])
    h_r, q_r = float(w_r[0]), float(w_r[1])
    scale = max(abs(q_l), abs(q_r), 1.0)
    if abs(h_l - h_r) <= _TRIV_TOL * max(h_l, h_r) and abs(q_l - q_r) <= _TRIV_TOL * scale:
        return _build_fan((h_l, q_l), (h_r, q_r), h_l, q_l)

    def residual(h, q):
        return (q - _forward1_q((h_l, q_l), h), q - _backward2_q((h_r, q_r), h))

    # the Newton iteration is the package's one-lane kernel; it starts where
    # the two integral curves meet, where that point is in the state space,
    # and else at the midpoint, which must be in range
    psi_l, psi_r = math.sqrt(q_l / h_l), math.sqrt(q_r / h_r)
    anchors = (h_l, q_l, psi_l, h_r, q_r, psi_r)
    h, q = 0.5 * (h_l + h_r), 0.5 * (q_l + q_r)
    if psi_r + (h - h_r) / 2.0 < 0:  # the 2-curve's sqrt(u) at the midpoint
        raise CurveRangeError("no admissible start for the Newton iteration")
    h0 = psi_l - psi_r + h
    su0 = psi_l - (h0 - h_l) / 2.0
    if h0 > 0 and su0 >= 0:
        h, q = h0, h0 * su0 * su0
    row = _lane_point(anchors, h, q)
    if not row[4] <= tol * scale:
        row = _newton_lane(anchors, row, tol * scale, max_iter)
    h, q, rnorm = row[0], row[1], row[4]
    converged = rnorm <= tol * scale
    # the rarefaction branches meet only at h0: no root below h_l and h_r
    vacuum = h0 <= 0 and h < min(h_l, h_r)

    if vacuum or not converged and rnorm > 1e-10 * scale:
        h = _bisect_intersection((h_l, q_l), (h_r, q_r))
        q = _forward1_q((h_l, q_l), h)
        r1, r2 = residual(h, q)
        rnorm = max(abs(r1), abs(r2))
        if rnorm > 1e-9 * max(scale, abs(q)):
            raise RiemannSolutionError(
                "Riemann intersection did not converge", residual=rnorm
            )
    return _build_fan((h_l, q_l), (h_r, q_r), h, q)


def _bisect_intersection(w_l, w_r):
    def gap(h):
        return _forward1_q(w_l, h) - _backward2_q(w_r, h)

    h_lo = None
    g_lo = None
    grid = np.geomspace(1e-4 * min(w_l[0], w_r[0]), 50.0 * max(w_l[0], w_r[0]), 400)
    for h in grid:
        try:
            g = gap(h)
        except CurveRangeError:
            h_lo = None  # bracket must not span an invalid region
            continue
        if h_lo is not None and g_lo * g <= 0.0:
            return brentq(gap, h_lo, h, xtol=1e-15, rtol=1e-15)
        h_lo, g_lo = h, g
    raise RiemannSolutionError("no sign change found for the wave-curve gap")


def _rarefaction_state_at(anchor, family, xi):
    """State inside a fan of ``family`` anchored at ``anchor`` where lam = xi.

    Along family 1, with psi = sqrt(u) and kap = h_a + 2 psi_a,
    lam_1 = 3 psi^2 - kap psi, inverted by the quadratic formula (taking the
    branch continuous with the anchor); family 2 is analogous with
    kap2 = 2 psi_a - h_a and lam_2 = 3 psi^2 - kap2 psi.
    """
    h_a, q_a = anchor
    psi_a = math.sqrt(q_a / h_a)
    if family == 1:
        kap = h_a + 2.0 * psi_a
        disc = kap * kap + 12.0 * xi
        psi = (kap + math.sqrt(max(disc, 0.0))) / 6.0
        h = h_a + 2.0 * (psi_a - psi)
    else:
        kap = 2.0 * psi_a - h_a
        disc = kap * kap + 12.0 * xi
        psi = (kap + math.sqrt(max(disc, 0.0))) / 6.0
        h = h_a + 2.0 * (psi - psi_a)
    return (h, h * psi * psi)


def sample(fan, xi):
    """Self-similar evaluation of the fan at x/t = xi, returned as ndarray."""
    w1, w2 = fan.waves
    if w1.kind != "null":
        if xi < w1.speed_left:
            return np.array(fan.w_l, dtype=float)
        if w1.kind == "rarefaction" and xi < w1.speed_right:
            return np.array(_rarefaction_state_at(fan.w_l, 1, xi))
        if w1.kind == "shock" and xi == w1.speed_left:
            return np.array(fan.w_star, dtype=float)
    else:
        if xi < w1.speed_left:
            return np.array(fan.w_l, dtype=float)
    if w2.kind != "null":
        if xi < w2.speed_left:
            return np.array(fan.w_star, dtype=float)
        if w2.kind == "rarefaction" and xi < w2.speed_right:
            return np.array(_rarefaction_state_at(fan.w_r, 2, xi))
    return np.array(fan.w_r, dtype=float)


def _rarefaction_arc_integral(anchor, family, h_a, h_b):
    """int A dPhi along a rarefaction arc, in closed form.

    Along an integral curve dq = lam dh and A dPhi = lam dPhi, so the first
    component is q(h_b) - q(h_a) and the second int lam^2 dh.  With
    h = h(psi) linear in psi = sqrt(u) the latter is a polynomial integral.
    """
    h_anchor, q_anchor = anchor
    psi_anchor = math.sqrt(q_anchor / h_anchor)
    # family 1: psi = psi_anchor - (h - h_anchor)/2 ; family 2: + (h - h_anchor)/2
    if family == 1:
        psi_a = psi_anchor - (h_a - h_anchor) / 2.0
        psi_b = psi_anchor - (h_b - h_anchor) / 2.0
        kap = h_anchor + 2.0 * psi_anchor

        def anti(psi):
            # integral of -2 (3 psi^2 - kap psi)^2 dpsi
            return -2.0 * (9.0 * psi**5 / 5.0 - 1.5 * kap * psi**4 + kap * kap * psi**3 / 3.0)

    else:
        psi_a = psi_anchor + (h_a - h_anchor) / 2.0
        psi_b = psi_anchor + (h_b - h_anchor) / 2.0
        kap = h_anchor - 2.0 * psi_anchor  # lam_2 = 3 psi^2 + kap psi

        def anti(psi):
            # integral of +2 (3 psi^2 + kap psi)^2 dpsi
            return 2.0 * (9.0 * psi**5 / 5.0 + 1.5 * kap * psi**4 + kap * kap * psi**3 / 3.0)

    q_a = h_a * psi_a * psi_a
    q_b = h_b * psi_b * psi_b
    return np.array([q_b - q_a, anti(psi_b) - anti(psi_a)])


def fan_split_integrals(fan):
    """Left- and right-going parts of the path integral across a wave fan.

    Shock arcs contribute xi * (jump), written as (dq, xi dq) so the
    conservative component telescopes exactly; rarefaction arcs use the
    closed form above, split at the sonic state when the fan straddles
    x/t = 0.  A stationary shock contributes nothing either way.
    """
    minus = np.zeros(2)
    plus = np.zeros(2)
    for w in fan.waves:
        if w.kind == "null":
            continue
        if w.kind == "shock":
            dq = w.right[1] - w.left[1]
            contrib = np.array([dq, w.speed * dq])
            if w.speed < 0.0:
                minus += contrib
            else:
                plus += contrib
            continue
        anchor = fan.w_l if w.family == 1 else fan.w_r
        h_a, h_b = w.left[0], w.right[0]
        if w.speed_right <= 0.0:
            minus += _rarefaction_arc_integral(anchor, w.family, h_a, h_b)
        elif w.speed_left >= 0.0:
            plus += _rarefaction_arc_integral(anchor, w.family, h_a, h_b)
        else:
            h_sonic = _rarefaction_state_at(anchor, w.family, 0.0)[0]
            minus += _rarefaction_arc_integral(anchor, w.family, h_a, h_sonic)
            plus += _rarefaction_arc_integral(anchor, w.family, h_sonic, h_b)
    return minus, plus


# ---------------------------------------------------------------------------
# Per-wave view of the package's batched fans, and the path along their arcs

_KINDS = ("null", "shock", "rarefaction")  # by the batched fan's kind codes


def ends(fan, family):
    """(left, right) states of each lane's ``family`` wave of a batched fan,
    (..., 2); a null 2-wave sits at ``w_r``."""
    if family == 1:
        return fan.w_l, fan.w_star
    null = (fan.kind[1] == NULL)[..., None]
    return np.where(null, fan.w_r, fan.w_star), fan.w_r


def waves(fan):
    """The two ``Wave`` records of a one-pair batched fan."""
    if fan.kind.ndim != 1:
        raise DomainError("waves lists the waves of a one-pair fan only")
    return tuple(
        Wave(f + 1, _KINDS[fan.kind[f]], tuple(map(float, left)),
             tuple(map(float, right)), float(fan.speed_left[f]),
             float(fan.speed_right[f]))
        for f, (left, right) in enumerate(ends(fan, family) for family in (1, 2))
    )


class FanPath(PathFamily):
    """Path following the wave arcs of a one-pair fan (shocks via the
    two-segment path, rarefactions along integral curves).  Used to
    cross-check fan integrals by generic quadrature, so it declares no
    couplings."""

    name = "fan"

    def __init__(self, fan):
        legs = []
        for w in waves(fan):
            if w.kind == "shock":
                legs += [("seg_h", w.left, w.right), ("seg_q", w.left, w.right)]
            elif w.kind == "rarefaction":
                anchor = fan.w_l if w.family == 1 else fan.w_r
                legs.append(("rar", (anchor, w.family), (w.left[0], w.right[0])))
        self._legs = legs or [("seg_h", fan.w_l, fan.w_r), ("seg_q", fan.w_l, fan.w_r)]
        self.breakpoints = tuple(np.linspace(0.0, 1.0, len(self._legs) + 1))
        self.fan = fan

    @staticmethod
    def _leg(leg, t):
        """Point and d/dt tangent of one leg at its own parameter t."""
        kind, a, b = leg
        if kind == "seg_h":
            (h0, q0), (h1, _q1) = a, b
            return ([h0 + t * (h1 - h0), np.full_like(t, q0)],
                    [np.full_like(t, h1 - h0), np.zeros_like(t)])
        if kind == "seg_q":
            (_h0, q0), (h1, q1) = a, b
            return ([np.full_like(t, h1), q0 + t * (q1 - q0)],
                    [np.zeros_like(t), np.full_like(t, q1 - q0)])
        (anchor, family), (h_a, h_b) = a, b
        h = h_a + t * (h_b - h_a)
        psi_anchor = math.sqrt(anchor[1] / anchor[0])
        if family == 1:
            psi = psi_anchor - (h - anchor[0]) / 2.0
            lam = psi * psi - h * psi
        else:
            psi = psi_anchor + (h - anchor[0]) / 2.0
            lam = psi * psi + h * psi
        dh = np.full_like(t, h_b - h_a)
        return [h, h * psi * psi], [dh, lam * dh]

    def _by_leg(self, s, part, scale):
        """One ``part`` (0 point, 1 tangent) of each leg times ``scale`` on
        the leg's share of s, mapped to the leg's own parameter t in [0, 1]."""
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        out = np.empty(flat.shape + (2,))
        nlegs = len(self._legs)
        idx = np.minimum((flat * nlegs).astype(int), nlegs - 1)
        for i, leg in enumerate(self._legs):
            m = idx == i
            if np.any(m):
                out[m] = np.stack(self._leg(leg, flat[m] * nlegs - i)[part], axis=-1) * scale
        return out if s.ndim else out[0]

    def evaluate(self, s, u_l, u_r):
        return self._by_leg(s, 0, 1.0)

    def tangent(self, s, u_l, u_r):
        return self._by_leg(s, 1, len(self._legs))


def central_differences(f, v, rel_step):
    """df/dv_k at v by central differences with the step
    ``rel_step * max(1, |v_k|)``, stacked over k along a new first axis;
    ``f`` is called once per perturbed point."""
    v = np.asarray(v, dtype=float)
    out = []
    for k, h in enumerate(rel_step * np.maximum(1.0, np.abs(v))):
        vp = v.copy()
        vp[k] += h
        vm = v.copy()
        vm[k] -= h
        out.append((f(vp) - f(vm)) / (2.0 * h))
    return np.array(out)


def endpoint_matrix(fun, svals, v, which):
    """``diagnostics._endpoint_matrix`` on ``central_differences``: each
    perturbed endpoint is one (N,) state against the nodes ``svals``."""
    g = (lambda u: fun(svals, u, v)) if which == "l" else (lambda u: fun(svals, v, u))
    d1, d2 = (central_differences(g, v, step) for step in (1e-3, 5e-4))
    return np.stack(tuple((4.0 * d2 - d1) / 3.0), axis=-1)


def evolve_alone(scheme, sol, t_end, cfl, bc=None, snapshot_times=(), on_step=None):
    """One job evolved alone, one ``scheme.advance`` of one Solution per
    step, on the public step API: the loop ``evolve_group`` must reproduce
    bit for bit for each of its jobs."""
    from pathfv.errors import StepLimitError
    from pathfv.schemes import _STEP_BUDGET, _courant_dt, _max_speed

    marks = sorted(t for t in set(snapshot_times) if sol.t < t <= t_end)
    snaps = []
    guard = 0
    lam_max = None
    while sol.t < t_end - 1e-13:
        if lam_max is None:
            lam_max = _max_speed(scheme.system, sol.states)
        dt = min(_courant_dt(cfl, sol.grid.dx, lam_max), t_end - sol.t)
        if marks:
            dt = min(dt, marks[0] - sol.t)
        sol = scheme.advance(sol, dt, bc=bc, lambda_max=lam_max)
        lam_max = sol.max_speed
        if marks and sol.t >= marks[0] - 1e-13:
            snaps.append(sol)
            marks.pop(0)
        if on_step is not None:
            on_step(sol)
        guard += 1
        if guard > _STEP_BUDGET:
            raise StepLimitError("evolve exceeded the step guard", t=sol.t)
    if not snaps or snaps[-1].t < sol.t - 1e-13:
        snaps.append(sol)
    return snaps
