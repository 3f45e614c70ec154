"""Exact Riemann solver for the 2x2 simplified system.

Wave structure
--------------
The system has two genuinely nonlinear fields with eigenvalues
lam_1 = u - h sqrt(u) and lam_2 = u + h sqrt(u), u = q/h.  Integral curves
are sqrt(u) + h/2 = const (family 1) and sqrt(u) - h/2 = const (family 2).
Shock curves follow from the two-segment-path jump conditions

    xi [h] = [q],      xi [q] = [q^2/h] + q_minus [h^2/2],

where q_minus is the flow component of the state on the LEFT of the jump.
Eliminating xi gives, for the forward curve from a left state (h_l, q_l),

    q = q_l h/h_l -+ (h - h_l) sqrt(q_l h (h + h_l) / (2 h_l)),

with - for family 1 and + for family 2 (the branch tangent to the matching
integral curve).  Because the jump conditions are not symmetric in the two
states, the backward family-2 curve through a right state solves a
different quadratic; see ``_backward2_q``.

Admissibility uses the Lax inequalities: along 1-curves lam_1 decreases
with h, so 1-shocks have increasing thickness and 1-rarefactions
decreasing thickness (and symmetrically for family 2).

The solution of a Riemann problem is a fan w_l -> w_star -> w_r made of
one wave per family.  ``solve_riemann`` intersects the forward 1-curve
from w_l with the backward 2-curve from w_r using a damped 2-D Newton
iteration with a bracketed scalar fallback.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import CurveRangeError, RiemannSolutionError
from .paths import PathFamily

_TRIV_TOL = 1e-13  # relative scale below which a wave counts as null


def shock_curve_1(w_l, h_r):
    """Flow component q_r on the 1-family shock locus through ``w_l``.

    For w_l = (1, 1) this is q_r = h_r (1 - sqrt((h_r+1)/(2 h_r)) (h_r-1));
    the general form comes from eliminating xi between the two jump
    conditions and taking the branch tangent to the 1-integral curve.
    Entropy-admissible 1-shocks have h_r > h_l.
    """
    h_l, q_l = float(w_l[0]), float(w_l[1])
    return _shock_q_from_left(h_l, q_l, float(h_r), family=1)


def shock_curve_2(w_l, h_r):
    """Family-2 branch of the shock locus through the left state ``w_l``."""
    h_l, q_l = float(w_l[0]), float(w_l[1])
    return _shock_q_from_left(h_l, q_l, float(h_r), family=2)


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
        xi = (q_m - q_l) / (h_m - h_l)
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
        xi = (q_r - q_m) / (h_r - h_m)
        waves.append(Wave(2, "shock", (h_m, q_m), (h_r, q_r), xi, xi))
    else:
        waves.append(
            Wave(2, "rarefaction", (h_m, q_m), (h_r, q_r),
                 _lam2(h_m, q_m), _lam2(h_r, q_r))
        )
    return WaveFan((h_l, q_l), (h_m, q_m), (h_r, q_r), tuple(waves)).validate()


def solve_riemann(w_l, w_r, max_iter=100, tol=1e-13):
    """Intersect the forward 1-curve from w_l with the backward 2-curve to w_r.

    Damped 2-D Newton on (h, q) starting from the midpoint, halving the step
    until the residual decreases; falls back to a bracketed scalar solve in h
    when Newton stalls.  Raises ``RiemannSolutionError`` with the last
    residual if both fail.
    """
    h_l, q_l = float(w_l[0]), float(w_l[1])
    h_r, q_r = float(w_r[0]), float(w_r[1])
    scale = max(abs(q_l), abs(q_r), 1.0)
    if abs(h_l - h_r) <= _TRIV_TOL * max(h_l, h_r) and abs(q_l - q_r) <= _TRIV_TOL * scale:
        return _build_fan((h_l, q_l), (h_r, q_r), h_l, q_l)

    def residual(h, q):
        return (q - _forward1_q((h_l, q_l), h), q - _backward2_q((h_r, q_r), h))

    h, q = 0.5 * (h_l + h_r), 0.5 * (q_l + q_r)
    try:
        r1, r2 = residual(h, q)
    except CurveRangeError:
        h, q = h_l, q_l
        r1, r2 = residual(h, q)
    rnorm = max(abs(r1), abs(r2))
    converged = rnorm <= tol * scale
    for _ in range(max_iter):
        if converged:
            break
        # finite-difference Jacobian in h; dq column is (1, 1)
        dh = 1e-7 * max(h, 1.0)
        try:
            p1, p2 = residual(h + dh, q)
            m1, m2 = residual(h - dh, q)
        except CurveRangeError:
            break
        j11 = (p1 - m1) / (2.0 * dh)
        j21 = (p2 - m2) / (2.0 * dh)
        det = j11 - j21
        if det == 0.0:
            break
        # solve [[j11, 1], [j21, 1]] (dh, dq) = -(r1, r2)
        step_h = -(r1 - r2) / det
        step_q = -(r1 + j11 * step_h)
        lam = 1.0
        improved = False
        for _ in range(40):
            h_new, q_new = h + lam * step_h, q + lam * step_q
            if h_new > 0:
                try:
                    n1, n2 = residual(h_new, q_new)
                except CurveRangeError:
                    lam *= 0.5
                    continue
                if max(abs(n1), abs(n2)) < rnorm:
                    h, q, r1, r2 = h_new, q_new, n1, n2
                    rnorm = max(abs(n1), abs(n2))
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            break
        converged = rnorm <= tol * scale

    if not converged and rnorm > 1e-10 * scale:
        h = _bisect_intersection((h_l, q_l), (h_r, q_r))
        q = _forward1_q((h_l, q_l), h)
        r1, r2 = residual(h, q)
        rnorm = max(abs(r1), abs(r2))
        if rnorm > 1e-9 * scale:
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


class FanPath(PathFamily):
    """Path following the wave arcs of a fan (shocks via the two-segment path,
    rarefactions along integral curves).  Built for one fixed pair of states;
    used to cross-check fan integrals by generic quadrature, so it declares
    no couplings."""

    name = "fan"

    def __init__(self, fan):
        legs = []
        for w in fan.waves:
            if w.kind == "null":
                continue
            if w.kind == "shock":
                legs.append(("seg_h", w.left, w.right))
                legs.append(("seg_q", w.left, w.right))
            else:
                anchor = fan.w_l if w.family == 1 else fan.w_r
                legs.append(("rar", (anchor, w.family), (w.left[0], w.right[0])))
        if not legs:
            legs = [("seg_h", fan.w_l, fan.w_r), ("seg_q", fan.w_l, fan.w_r)]
        self._legs = legs
        self.breakpoints = tuple(np.linspace(0.0, 1.0, len(legs) + 1))
        self.fan = fan

    def _leg_eval(self, leg, t):
        kind, a, b = leg
        if kind == "seg_h":
            (h0, q0), (h1, _q1) = a, b
            return np.stack([h0 + t * (h1 - h0), np.full_like(t, q0)], axis=-1)
        if kind == "seg_q":
            (_h0, q0), (h1, q1) = a, b
            return np.stack([np.full_like(t, h1), q0 + t * (q1 - q0)], axis=-1)
        (anchor, family), (h_a, h_b) = a, b
        h = h_a + t * (h_b - h_a)
        psi_anchor = math.sqrt(anchor[1] / anchor[0])
        if family == 1:
            psi = psi_anchor - (h - anchor[0]) / 2.0
        else:
            psi = psi_anchor + (h - anchor[0]) / 2.0
        return np.stack([h, h * psi * psi], axis=-1)

    def _by_leg(self, s, leg_fn, scale):
        """``leg_fn`` times ``scale`` on each leg's share of s, mapped to the
        leg's own parameter t in [0, 1]."""
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        out = np.empty(flat.shape + (2,))
        nlegs = len(self._legs)
        idx = np.minimum((flat * nlegs).astype(int), nlegs - 1)
        for i, leg in enumerate(self._legs):
            m = idx == i
            if np.any(m):
                out[m] = leg_fn(leg, flat[m] * nlegs - i) * scale
        return out if s.ndim else out[0]

    def evaluate(self, s, u_l, u_r):
        return self._by_leg(s, self._leg_eval, 1.0)

    def _leg_tangent(self, leg, t):
        kind, a, b = leg
        if kind == "seg_h":
            (h0, _q0), (h1, _q1) = a, b
            return np.stack([np.full_like(t, h1 - h0), np.zeros_like(t)], axis=-1)
        if kind == "seg_q":
            (_h0, q0), (_h1, q1) = a, b
            return np.stack([np.zeros_like(t), np.full_like(t, q1 - q0)], axis=-1)
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
        return np.stack([dh, lam * dh], axis=-1)

    def tangent(self, s, u_l, u_r):
        return self._by_leg(s, self._leg_tangent, len(self._legs))
