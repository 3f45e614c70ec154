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
different quadratic; see ``_wave_curves``.

Admissibility uses the Lax inequalities: along 1-curves lam_1 decreases
with h, so 1-shocks have increasing thickness and 1-rarefactions
decreasing thickness (and symmetrically for family 2).

The solution of a Riemann problem is a fan w_l -> w_star -> w_r made of
one wave per family.  ``solve_riemann`` solves ``(..., 2)`` arrays of
pairs, one lane each, in one damped Newton iteration over all lanes; a lane
leaves it when its own test passes, so its result does not depend on the
rest of the batch.  The iteration has two kernels.  It steps in NumPy
(``_newton_step``) while more than ``_SCALAR_LANES`` lanes iterate, since
one step costs about the same at any small lane count; then it hands each
remaining lane, from its current row and with the steps left of its cap,
to a loop in Python floats (``_newton_lane``).  That loop performs the
lane's operations in the batched order, so every lane has the same bits
whichever kernel finishes it.  A lane where Newton stalls falls back to
``brentq``, Brent's method transcribed from scipy, on the gap between the
curves; both run in Python floats (``_curves_at``), so the package needs
NumPy alone.  ``fan_split_integrals`` and ``sample`` take the fan,
and ``shock_curve_1`` gives one point of the forward 1-shock locus.  The
scalar wave curves, a per-wave view of a one-pair fan and the path along
its wave arcs are reference code and live in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurveRangeError, RiemannSolutionError

_TRIV_TOL = 1e-13  # relative scale below which a wave counts as null
NULL, SHOCK, RAREFACTION = 0, 1, 2  # wave kind codes of a WaveFan
_STENCIL = np.array([[0.0], [1.0], [-1.0]])  # h, h + dh, h - dh

# Every lane of a batch goes through the floating-point operations it would
# go through alone.  Powers use np.float_power, which calls the C library's
# pow as math.pow does; np.power may round differently (SIMD pow).

# a Newton iteration with at most this many lanes left finishes them in
# Python floats: the largest size of BENCH_19.json's crossover table at which
# stepping every lane in Python beat one NumPy step in every run (the kernels
# meet between 32 and 64 lanes)
_SCALAR_LANES = 32


def _shock_q(h_l, q_l, h):
    """q on the forward 1-shock locus from the left state (h_l, q_l) at h."""
    return q_l * h / h_l - (h - h_l) * np.sqrt(q_l * h * (h + h_l) / (2.0 * h_l))


def _wave_curves(anchors, h):
    """q on the forward 1-curve from w_l and the backward 2-curve into w_r
    at thickness h, lane by lane, as (q1, q2, bad); ``bad`` marks lanes off
    either curve's range.  ``anchors`` is (h_l, q_l, sqrt(u_l), h_r, q_r,
    sqrt(u_r)) with h > 0 and q >= 0.  The 1-curve is a shock for h >= h_l
    and a rarefaction below.  On the 2-curve's shock side (h > h_r) the
    unknown state sits on the LEFT of the jump, so its own q enters the jump
    condition; eliminating xi leaves

        (h_r/h) q^2 - (2 q_r + (h_r-h)^2 (h_r+h)/2) q + q_r^2 h/h_r = 0

    and the family-2 branch is the root whose slope at h = h_r is lam_2.
    With positive anchors neither shock branch leaves its range for h > 0.
    """
    h_l, q_l, psi_l, h_r, q_r, psi_r = anchors
    # integral curves: q = h su^2 while su >= 0, which only the 2-curve's
    # rarefaction side can break
    su = psi_l - (h - h_l) / 2.0
    q1 = h * su * su
    np.copyto(q1, _shock_q(h_l, q_l, h), where=h >= h_l)
    su = psi_r + (h - h_r) / 2.0
    q2 = h * su * su
    bad = (su < 0) | (h <= 0)
    # root of a q^2 - b q + q_r^2/a = 0 with a = h_r/h, b = 2 q_r + t,
    # t = (h_r-h)^2 (h_r+h)/2.  The discriminant factors as t (4 q_r + t),
    # which avoids the cancellation in b^2 - 4ac for small jumps.
    t = 0.5 * np.float_power(h_r - h, 2.0) * (h_r + h)
    root = np.sqrt(t * (4.0 * q_r + t))
    np.copyto(q2, (2.0 * q_r + t + root) / (2.0 * (h_r / h)), where=h > h_r)
    return q1, q2, bad


def _lane_state(anchors, h, q):
    """One column per lane: h, q, the residuals r1 = q - q1, r2 = q - q2 at h
    and their max norm, q1 and q2 at the Jacobian's points h -+ dh, dh =
    1e-7 max(h, 1), then 1.0 where those points and where h are off range.
    ``anchors`` (6, 3, k) repeats each lane's anchors for its three points."""
    points = h + 1e-7 * np.maximum(h, 1.0) * _STENCIL
    q1, q2, bad = (v.reshape(points.shape)
                   for v in _wave_curves(anchors.reshape(6, -1), points.ravel()))
    r1, r2 = q - q1[0], q - q2[0]
    return np.array((h, q, r1, r2, np.maximum(np.abs(r1), np.abs(r2)), q1[1], q1[2],
                     q2[1], q2[2], bad[1] | bad[2], bad[0]))


def _curves_at(anchors, h):
    """``_wave_curves`` at one thickness in Python floats, by the same
    operations in the same order, so with the same bits.  Where NumPy
    returns inf without raising (a square past the float range, a shock
    denominator h_r/h that underflows to 0) so does this."""
    h_l, q_l, psi_l, h_r, q_r, psi_r = anchors
    if h >= h_l:
        q1 = q_l * h / h_l - (h - h_l) * math.sqrt(q_l * h * (h + h_l) / (2.0 * h_l))
    else:
        su = psi_l - (h - h_l) / 2.0
        q1 = h * su * su
    su = psi_r + (h - h_r) / 2.0
    if h > h_r:
        try:
            t = 0.5 * math.pow(h_r - h, 2.0) * (h_r + h)
        except OverflowError:
            t = math.inf
        den = 2.0 * (h_r / h)
        # the numerator exceeds t > 0, so NumPy's quotient by 0 is inf
        q2 = (2.0 * q_r + t + math.sqrt(t * (4.0 * q_r + t))) / den if den else math.inf
    else:
        q2 = h * su * su
    return q1, q2, su < 0 or h <= 0


def _lane_point(anchors, h, q):
    """``_lane_state``'s column of one lane at (h, q), in Python floats.  Its
    maxima return NaN when either argument is NaN, as ``np.maximum`` does."""
    dh = 1e-7 * (1.0 if h < 1.0 else h)
    # the stencil's h + 0 dh, which is not h at h = -0.0 or inf
    q1, q2, bad = _curves_at(anchors, h + dh * 0.0)
    p1, p2, bad_p = _curves_at(anchors, h + dh)
    m1, m2, bad_m = _curves_at(anchors, h - dh)
    r1, r2 = q - q1, q - q2
    a1, a2 = abs(r1), abs(r2)
    return (h, q, r1, r2, a1 if a1 >= a2 or a1 != a1 else a2, p1, m1, p2, m2,
            float(bad_p or bad_m), float(bad))


def _newton_lane(anchors, row, tol, steps):
    """At most ``steps`` steps of ``solve_riemann``'s Newton iteration on one
    lane in Python floats, from and to its row of ``state`` (``_lane_point``).
    It performs ``_newton_step``'s operations in the same order, so it
    returns the same bits."""
    for _ in range(steps):
        h, q, r1, r2, rn, p1, m1, p2, m2, fd_bad, _ = row
        dh2 = 2.0 * (1e-7 * (1.0 if h < 1.0 else h))
        j11 = ((q - p1) - (q - m1)) / dh2
        j21 = ((q - p2) - (q - m2)) / dh2
        det = j11 - j21
        if fd_bad != 0.0 or det == 0.0:
            return row
        step_h = -(r1 - r2) / det
        step_q = -(r1 + j11 * step_h)
        lam = 1.0
        for _ in range(40):
            trial = _lane_point(anchors, h + lam * step_h, q + lam * step_q)
            if trial[10] == 0.0 and trial[4] < rn:
                break
            lam *= 0.5
        else:
            return row
        row = trial
        if row[4] <= tol:
            break
    return row


def _newton_step(anchors, state, act, tol_scale):
    """One step of ``solve_riemann``'s Newton iteration on the lanes ``act``
    of ``state`` (``_lane_state``'s rows), in NumPy; writes the lanes that
    improve and returns those still iterating."""
    h, q, r1, r2, rn, p1, m1, p2, m2, fd_bad = state[:10, act]
    # finite-difference Jacobian in h; dq column is (1, 1)
    dh2 = 2.0 * (1e-7 * np.maximum(h, 1.0))
    j11 = ((q - p1) - (q - m1)) / dh2
    j21 = ((q - p2) - (q - m2)) / dh2
    det = j11 - j21
    # solve [[j11, 1], [j21, 1]] (dh, dq) = -(r1, r2)
    step_h = -(r1 - r2) / det
    search = np.array((h, q, step_h, -(r1 + j11 * step_h), rn))
    todo = np.flatnonzero((fd_bad == 0.0) & (det != 0.0))  # into act
    improved = np.zeros(act.size, dtype=bool)
    lam = 1.0
    for _ in range(40):
        if not todo.size:
            break
        h0, q0, dh0, dq0, rn0 = search[:, todo]
        trial = _lane_state(anchors[..., act[todo]], h0 + lam * dh0, q0 + lam * dq0)
        take = (trial[10] == 0.0) & (trial[4] < rn0)
        done = todo[take]
        state[:, act[done]] = trial[:, take]
        improved[done] = True
        todo = todo[~take]
        lam *= 0.5
    return act[improved & ~(state[4, act] <= tol_scale[act])]


def shock_curve_1(w_l, h_r):
    """Flow component q_r on the 1-family shock locus through ``w_l``.

    For w_l = (1, 1) this is q_r = h_r (1 - sqrt((h_r+1)/(2 h_r)) (h_r-1));
    the general form comes from eliminating xi between the two jump
    conditions and taking the branch tangent to the 1-integral curve.
    Entropy-admissible 1-shocks have h_r > h_l.
    """
    h_l, q_l, h_r = float(w_l[0]), float(w_l[1]), float(h_r)
    if h_r <= 0 or h_l <= 0:
        raise CurveRangeError("shock curve requires positive thickness")
    if q_l * h_r * (h_r + h_l) / (2.0 * h_l) < 0:
        raise CurveRangeError("shock curve has no real branch here (q_l < 0)")
    return float(_shock_q(h_l, q_l, h_r))


@dataclass(frozen=True)
class WaveFan:
    """Self-similar solutions of a batch of Riemann problems.

    Each lane has one wave per family and one middle state.  ``w_l``,
    ``w_star`` and ``w_r`` have shape (..., 2).  ``kind``, ``speed_left``
    and ``speed_right`` have shape (2, ...), indexed first by family - 1;
    kinds are coded NULL / SHOCK / RAREFACTION.  After a null 1-wave
    ``w_star`` is ``w_l``.
    """

    w_l: np.ndarray
    w_star: np.ndarray
    w_r: np.ndarray
    kind: np.ndarray
    speed_left: np.ndarray
    speed_right: np.ndarray


def _lam(h, q, sign):
    """lam_1 (sign -1) or lam_2 (sign +1) = u + sign h sqrt(u)."""
    u = q / h
    return u + sign * h * np.sqrt(u)


def _lane_error(message, lanes):
    """RiemannSolutionError naming the first of the failing ``lanes``."""
    i = int(lanes[0])
    return RiemannSolutionError(f"{message} (lane {i})", index=i)


def _build_fan(shape, w_l, w_r, h_m, q_m):
    """Classify both waves of every lane of the (n, 2) pairs, check that the
    wave speeds are ordered to within 1e-9, and pack the fan with leading
    shape ``shape``."""
    h_l, q_l, h_r, q_r = w_l[:, 0], w_l[:, 1], w_r[:, 0], w_r[:, 1]
    scale = np.maximum(np.maximum(h_l, h_r), np.maximum(h_m, 1.0))
    null1 = np.abs(h_m - h_l) <= _TRIV_TOL * scale
    kind1 = np.where(null1, NULL, np.where(h_m > h_l, SHOCK, RAREFACTION))
    np.copyto(h_m, h_l, where=null1)
    np.copyto(q_m, q_l, where=null1)
    # backward curve: shock when h_m > h_r
    null2 = np.abs(h_m - h_r) <= _TRIV_TOL * scale
    kind2 = np.where(null2, NULL, np.where(h_m > h_r, SHOCK, RAREFACTION))
    # a null wave moves at its state's eigenvalue, a rarefaction spans the
    # eigenvalues of its ends, a shock moves at its jump speed
    lam1_l, lam2_r = _lam(h_l, q_l, -1.0), _lam(h_r, q_r, 1.0)
    sl1, sr1 = lam1_l, np.where(null1, lam1_l, _lam(h_m, q_m, -1.0))
    sl2, sr2 = np.where(null2, lam2_r, _lam(h_m, q_m, 1.0)), lam2_r
    # a shock's speed [q]/[h] on its curve, as a function of h_m: the quotient
    # of the differences cancels in a weak shock and is no more accurate than
    # the middle state, so a wave of 1e-13 could move at any speed
    xi1 = q_l / h_l - np.sqrt(q_l * h_m * (h_m + h_l) / (2.0 * h_l))
    h_sum = h_r + h_m
    t = 0.5 * np.float_power(h_r - h_m, 2.0) * h_sum
    xi2 = (2.0 * q_r + h_m * (0.5 * (h_m - h_r) * h_sum
                              + np.sqrt(0.5 * h_sum * (4.0 * q_r + t)))) / (2.0 * h_r)
    for kind, xi, speeds in ((kind1, xi1, (sl1, sr1)), (kind2, xi2, (sl2, sr2))):
        for s in speeds:
            np.copyto(s, xi, where=kind == SHOCK)
    # the non-null waves' speeds, read left to right, must not decrease
    on1, on2 = ~null1, ~null2
    disordered = (on1 & (sr1 < sl1 - 1e-9)) | (on2 & (sr2 < sl2 - 1e-9)) | (
        on1 & on2 & (sl2 < sr1 - 1e-9))
    if disordered.any():
        raise _lane_error("wave speeds not ordered", np.flatnonzero(disordered))
    states, per_family = shape + (2,), (2,) + shape
    return WaveFan(w_l.reshape(states), np.array((h_m, q_m)).T.reshape(states),
                   w_r.reshape(states),
                   np.array((kind1, kind2)).reshape(per_family),
                   np.array((sl1, sl2)).reshape(per_family),
                   np.array((sr1, sr2)).reshape(per_family))


def solve_riemann(w_l, w_r):
    """Intersect the forward 1-curve from w_l with the backward 2-curve to w_r.

    ``w_l`` and ``w_r`` broadcast to (..., 2), one Riemann problem per lane.
    Damped 2-D Newton on (h, q) from the midpoint, halving the step until
    the residual decreases, for at most 100 steps or until the max-norm
    residual is 1e-13 relative; lanes where Newton stalls fall back to a
    bracketed scalar solve in h.  Raises
    ``RiemannSolutionError`` with the first failing lane (C order) in
    ``index``: h <= 0 or q < 0, no admissible start, the bracketed solve
    failing (no sign change, a NaN gap, no convergence, or a residual above
    1e-9 relative to the largest of 1, |q_l|, |q_r| and |q| at the root,
    given in ``residual``), or disordered wave speeds.
    """
    w_l, w_r = np.broadcast_arrays(np.asarray(w_l, dtype=float),
                                   np.asarray(w_r, dtype=float))
    shape = w_l.shape[:-1]
    w_l, w_r = np.array(w_l).reshape(-1, 2), np.array(w_r).reshape(-1, 2)
    h_l, q_l, h_r, q_r = w_l[:, 0], w_l[:, 1], w_r[:, 0], w_r[:, 1]
    outside = ~((h_l > 0) & (q_l >= 0) & (h_r > 0) & (q_r >= 0))
    if outside.any():
        raise _lane_error("state outside the wave-curve domain h > 0, q >= 0",
                          np.flatnonzero(outside))
    scale = np.maximum(np.maximum(np.abs(q_l), np.abs(q_r)), 1.0)
    trivial = (np.abs(h_l - h_r) <= _TRIV_TOL * np.maximum(h_l, h_r)) & (
        np.abs(q_l - q_r) <= _TRIV_TOL * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        anchors = np.repeat(np.array((h_l, q_l, np.sqrt(q_l / h_l), h_r, q_r,
                                      np.sqrt(q_r / h_r)))[:, None], 3, axis=1)
        h, q = 0.5 * (h_l + h_r), 0.5 * (q_l + q_r)
        state = _lane_state(anchors, h, q)
        start_bad = (state[10] != 0.0) & ~trivial  # trivial lanes need no iteration
        # w_l would be off range too: su grows with h, and h_l <= h where su < 0
        if start_bad.any():
            raise _lane_error("no admissible start for the Newton iteration",
                              np.flatnonzero(start_bad))
        tol_scale = 1e-13 * scale
        # a lane that leaves is dropped, so a hard lane costs the rest nothing;
        # a trial point brings its own h -+ dh, so a step needs no evaluation
        act = np.flatnonzero(~trivial & ~(state[4] <= tol_scale))
        for left in range(100, 0, -1):
            if act.size <= _SCALAR_LANES:
                # each lane finishes its remaining steps in Python floats
                rows = zip(anchors[:, 0, act].T.tolist(), state[:, act].T.tolist(),
                           tol_scale[act].tolist())
                state[:, act] = np.array(
                    [_newton_lane(a, row, tol, left) for a, row, tol in rows]).T
                break
            act = _newton_step(anchors, state, act, tol_scale)

        state[:2, trivial] = w_l[trivial].T
        h, q, rn = state[0], state[1], state[4]
        for i in np.flatnonzero(~trivial & ~(rn <= tol_scale) & (rn > 1e-10 * scale)):
            lane = anchors[:, 0, i].tolist()
            h[i] = h_i = _bisect_intersection(lane, i)
            q1, q2, _ = _curves_at(lane, h_i)
            # q = q1, so the larger residual is |q1 - q2|; it is measured on
            # the scale of q at the root too, where the gap rounds
            res = abs(q1 - q2)
            if res > 1e-9 * max(scale[i], abs(q1)):
                raise RiemannSolutionError(
                    f"Riemann intersection did not converge (lane {i})",
                    residual=res, index=i)
            q[i] = q1
        # the speeds at the middle state are computed on every lane
        return _build_fan(shape, w_l, w_r, h, q)


def brentq(f, a, b, lane):
    """Root of ``f`` on the bracket [a, b] by Brent's method (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4) in Python
    floats, with xtol = rtol = 1e-15 and at most 100 iterations.  It is
    scipy.optimize.brentq transcribed: the same operations in the same order,
    so the same bits.  Where scipy raises (ends of one sign, a NaN value, no
    convergence) this raises ``RiemannSolutionError`` naming ``lane``.  The
    name stays scipy's because the benchmark's tracer counts the solver's
    fallbacks as calls to ``riemann.brentq``."""
    def value(x):
        fx = f(x)
        if fx != fx:
            raise _lane_error(f"the wave-curve gap is NaN at h = {x!r}", (lane,))
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(a), value(b)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise _lane_error("the wave-curve gap has one sign at both bracket ends", (lane,))
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        # fpre != 0 here; fcur = 0 returns below whichever way this goes
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-15 + 1e-15 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise _lane_error("the bracketed root did not converge in 100 iterations", (lane,))


def _bisect_intersection(anchors, lane):
    """Root in h of the gap between the two wave curves of one lane, by
    ``brentq`` on the first sign change of a geometric grid whose bracket
    starts in range: su grows with h, so the whole bracket is in range.
    Every refusal, here or in ``brentq``, is a ``RiemannSolutionError`` whose
    ``index`` is ``lane``."""
    def gap(h):
        q1, q2, _ = _curves_at(anchors, h)
        return q1 - q2

    h_l, h_r = anchors[0], anchors[3]
    grid = np.geomspace(1e-4 * min(h_l, h_r), 50.0 * max(h_l, h_r), 400)
    q1, q2, bad = _wave_curves(anchors, grid)
    g = q1 - q2
    pair = ~bad[:-1] & (g[:-1] * g[1:] <= 0.0)
    if not pair.any():
        raise RiemannSolutionError(
            f"no sign change found for the wave-curve gap (lane {lane})", index=lane)
    k = int(np.argmax(pair))
    return brentq(gap, *grid[k:k + 2].tolist(), lane)


def _rarefaction_state_at(anchor, family, xi):
    """State inside a fan of ``family`` anchored at ``anchor`` (..., 2) where
    lam = xi, as (h, q).

    Along family 1, with psi = sqrt(u) and kap = h_a + 2 psi_a,
    lam_1 = 3 psi^2 - kap psi, inverted by the quadratic formula (taking the
    branch continuous with the anchor); family 2 is analogous with
    kap2 = 2 psi_a - h_a and lam_2 = 3 psi^2 - kap2 psi.
    """
    h_a, q_a = anchor[..., 0], anchor[..., 1]
    psi_a = np.sqrt(q_a / h_a)
    kap = h_a + 2.0 * psi_a if family == 1 else 2.0 * psi_a - h_a
    psi = (kap + np.sqrt(np.maximum(kap * kap + 12.0 * xi, 0.0))) / 6.0
    h = h_a + 2.0 * ((psi_a - psi) if family == 1 else (psi - psi_a))
    return h, h * psi * psi


def _flat(fan):
    """The fan's states as (n, 2) and its per-family fields as (2, n)."""
    return ([w.reshape(-1, 2) for w in (fan.w_l, fan.w_star, fan.w_r)]
            + [v.reshape(2, -1) for v in (fan.kind, fan.speed_left, fan.speed_right)])


def sample(fan, xi):
    """Self-similar evaluation of every lane of the fan at x/t = xi.

    Returns the states, shape (..., 2).
    """
    w_l, w_star, w_r, (k1, k2), (sl1, sl2), (sr1, sr2) = _flat(fan)
    out = w_r.copy()
    # the first case that holds wins: write them from the last to the first
    inside = (k2 == RAREFACTION) & (xi < sr2)
    if inside.any():
        out[inside, 0], out[inside, 1] = _rarefaction_state_at(w_r[inside], 2, xi)
    middle = ((k2 != NULL) & (xi < sl2)) | ((k1 == SHOCK) & (xi == sl1))
    np.copyto(out, w_star, where=middle[:, None])
    inside = (k1 == RAREFACTION) & (xi < sr1)
    if inside.any():
        out[inside, 0], out[inside, 1] = _rarefaction_state_at(w_l[inside], 1, xi)
    np.copyto(out, w_l, where=(xi < sl1)[:, None])
    return out.reshape(fan.w_l.shape)


def _rarefaction_primitive(anchor, family, h):
    """Antiderivative P(h), shape (..., n, 2), of A dPhi along the integral
    curve through each lane's ``anchor`` (n, 2): a rarefaction arc from h_a
    to h_b contributes P(h_b) - P(h_a).  Along an integral curve dq = lam dh
    and A dPhi = lam dPhi, so P = (q, int lam^2 dh), a polynomial in
    psi = sqrt(u) since h is linear in psi.
    """
    h_anchor, q_anchor = anchor[:, 0], anchor[:, 1]
    psi_anchor = np.sqrt(q_anchor / h_anchor)
    sign = -1.0 if family == 1 else 1.0
    # psi = psi_anchor -+ (h - h_anchor)/2 and lam = 3 psi^2 -+ kap psi, with
    # kap = h_anchor +- 2 psi_anchor; the integral of +-2 lam^2 dpsi is
    psi = psi_anchor + sign * (h - h_anchor) / 2.0
    kap = h_anchor - sign * 2.0 * psi_anchor
    p5, p4, p3 = (np.float_power(psi, k) for k in (5.0, 4.0, 3.0))
    anti = 2.0 * sign * (9.0 * p5 / 5.0 + sign * (1.5 * kap * p4) + kap * kap * p3 / 3.0)
    return np.moveaxis(np.array((h * psi * psi, anti)), 0, -1)


def fan_split_integrals(fan):
    """Left- and right-going parts of the path integral across each fan.

    Shock arcs contribute xi * (jump), written as (dq, xi dq) so the
    conservative component telescopes exactly; rarefaction arcs use the
    closed form above, split at the sonic state when the fan straddles
    x/t = 0.  A stationary shock contributes nothing either way.  Returns
    (minus, plus), each shaped like ``fan.w_l``.
    """
    w_l, w_star, w_r, kinds, s_left, s_right = _flat(fan)
    minus = np.zeros_like(w_l)
    plus = np.zeros_like(w_l)
    # family 1 runs w_l -> w_star, family 2 w_star -> w_r (a null 2-wave
    # contributes nothing, whatever its left state)
    for family, left, right, anchor in ((1, w_l, w_star, w_l), (2, w_star, w_r, w_r)):
        kind, sl, sr = kinds[family - 1], s_left[family - 1], s_right[family - 1]
        dq = right[:, 1] - left[:, 1]
        jump = np.array((dq, sl * dq)).T
        shock = kind == SHOCK
        minus += np.where((shock & (sl < 0.0))[:, None], jump, 0.0)
        plus += np.where((shock & ~(sl < 0.0))[:, None], jump, 0.0)
        rar = kind == RAREFACTION
        if not rar.any():
            continue
        to_minus = rar & (sr <= 0.0)
        to_plus = rar & ~to_minus & (sl >= 0.0)
        split = (rar & ~to_minus & ~to_plus)[:, None]
        h_sonic = _rarefaction_state_at(anchor, family, 0.0)[0]
        p_a, p_s, p_b = _rarefaction_primitive(
            anchor, family, np.array((left[:, 0], h_sonic, right[:, 0])))
        minus += np.where(to_minus[:, None] | split, np.where(split, p_s, p_b) - p_a, 0.0)
        plus += np.where(to_plus[:, None] | split, p_b - np.where(split, p_s, p_a), 0.0)
    return minus.reshape(fan.w_l.shape), plus.reshape(fan.w_l.shape)
