"""Families of paths joining pairs of states, and the path integral of A.

A path family Phi(s; u_l, u_r), s in [0, 1], fixes the meaning of the
nonconservative product across a discontinuity: the jump condition for a
shock of speed xi is

    xi (u_r - u_l) = int_0^1 A(Phi(s; u_l, u_r)) dPhi/ds (s; u_l, u_r) ds.

Every family satisfies Phi(0) = u_l, Phi(1) = u_r and Phi(s; u, u) = u.

A family's ``couplings`` table maps each system it is defined for, by
name, to the function giving the path averages of the system's
nonconservative coefficients (q h against h for the 2x2 model, -g h
against sigma for shallow water, (c1, c2) = h1 against h2 and h2 against
h1 for two layers).  The keys are the only list of supported (system,
path) pairs.  The coupling carries all the path dependence: the closed
form is ``system.jump_integral`` of it and the Roe linearization
``system.roe_eigensystem`` of it.  ``path_integral`` uses the closed form
for a declared pair and otherwise adaptive Gauss-Legendre quadrature per
leg (piecewise paths have a tangent jump between legs).  ``PATHS`` maps
config ids to the families.

A Roe-type step needs both the coupling and the closed form; it takes them
from ``coupling_and_integral``, which a family overrides when the two share
work.  The equilibrium family's intermediate states come from one solve,
``_equilibrium_h``, over every pair of a call: once per step through
``coupling_and_integral``, once per call of ``coupling`` or
``closed_form_integral`` on their own.  It checks the whole batch, then
iterates up to ``_SCALAR_LANES`` lanes in Python floats and more in NumPy;
both kernels return the same bits.  Its memoized one-lane entry
``_equilibrium_h_cached``, which serves ``hugoniot.stationary_contact_state``
only, runs the scalar kernel.
"""

from functools import lru_cache

import numpy as np

from .errors import DomainError, PathConstructionError
from .quadrature import adaptive_gl
from .systems import ShallowWaterSystem, SimplifiedSystem, TwoLayerSystem


class PathFamily:
    """Base class; subclasses implement ``evaluate`` and ``tangent``.

    ``breakpoints`` lists the leg boundaries in s (smooth pieces between
    them), ``epsilon`` is the shape parameter (its default on the class)
    and None for a family without one, where a config may not set it.
    Families with a closed form declare ``couplings`` and implement
    ``closed_form_integral``.
    """

    name = "path"
    breakpoints = (0.0, 1.0)
    epsilon = None
    couplings = {}

    @classmethod
    def for_system(cls, system, epsilon=0.0):
        """The member used with ``system``, at shape parameter ``epsilon``."""
        return cls()

    def coupling(self, system, u_l, u_r):
        """Path averages of the system's nonconservative coefficients, batched."""
        fn = self.couplings.get(system.name)
        if fn is None:
            raise PathConstructionError(f"{self!r} is not defined for {system.name}")
        return fn(self, system, np.asarray(u_l, dtype=float),
                  np.asarray(u_r, dtype=float))

    def coupling_and_integral(self, system, u_l, u_r):
        """The coupling of the pairs and a function of no arguments giving
        their closed-form integral, bit for bit what ``coupling`` and
        ``closed_form_integral`` return; for a step that needs both.  A
        family whose two computations share work overrides it."""
        return (self.coupling(system, u_l, u_r),
                lambda: self.closed_form_integral(system, u_l, u_r))

    def __repr__(self):
        eps = "" if self.epsilon is None else f"(epsilon={self.epsilon})"
        return f"<{type(self).__name__}{eps}>"


def _mean(u_l, u_r, k):
    return 0.5 * (u_l[..., k] + u_r[..., k])


def _segment_qh(path, system, u_l, u_r):
    """Mean of q(s) h(s) along the segment (quadratic in s)."""
    h_l, q_l = u_l[..., 0], u_l[..., 1]
    dh, dq = u_r[..., 0] - h_l, u_r[..., 1] - q_l
    return q_l * h_l + 0.5 * (q_l * dh + h_l * dq) + dq * dh / 3.0


class SegmentsPath(PathFamily):
    """Straight segments Phi = u_l + s (u_r - u_l); works for every system."""

    name = "segments"
    couplings = {
        SimplifiedSystem.name: _segment_qh,
        ShallowWaterSystem.name: lambda path, system, u_l, u_r: (
            -system.g * _mean(u_l, u_r, 0)
        ),
        TwoLayerSystem.name: lambda path, system, u_l, u_r: (
            _mean(u_l, u_r, 0), _mean(u_l, u_r, 2)
        ),
    }

    def evaluate(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        return u_l + np.asarray(s, dtype=float)[..., None] * (u_r - u_l)

    def tangent(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        d = np.asarray(u_r, dtype=float) - u_l
        batch = np.broadcast_shapes(np.shape(s), d.shape[:-1])
        return np.broadcast_to(d, batch + d.shape[-1:]).copy()

    def closed_form_integral(self, system, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        return system.jump_integral(u_l, u_r, self.coupling(system, u_l, u_r))


class TwoSegmentPath(PathFamily):
    """L-shaped path for 2-component states: first the thickness, then the flow.

    For s in [0, 1/2] the path moves h from h_l to h_r at frozen q = q_l;
    for s in [1/2, 1] it moves q at frozen h = h_r.  The induced jump
    conditions for the simplified system are

        xi [h] = [q],      xi [q] = [q^2/h] + q_l [h^2/2].
    """

    name = "two_segment"
    breakpoints = (0.0, 0.5, 1.0)
    couplings = {
        # q = q_l along the only leg where h moves
        SimplifiedSystem.name: lambda path, system, u_l, u_r: (
            u_l[..., 1] * _mean(u_l, u_r, 0)
        ),
    }

    def evaluate(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        s = np.asarray(s, dtype=float)
        h = np.where(s <= 0.5, u_l[..., 0] + 2.0 * s * (u_r[..., 0] - u_l[..., 0]),
                     u_r[..., 0])
        q = np.where(s <= 0.5, u_l[..., 1],
                     u_l[..., 1] + (2.0 * s - 1.0) * (u_r[..., 1] - u_l[..., 1]))
        return np.stack([h, q], axis=-1)

    def tangent(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        s = np.asarray(s, dtype=float)
        th = np.where(s <= 0.5, 2.0 * (u_r[..., 0] - u_l[..., 0]), 0.0)
        tq = np.where(s <= 0.5, 0.0, 2.0 * (u_r[..., 1] - u_l[..., 1]))
        return np.stack([th, tq], axis=-1)

    def closed_form_integral(self, system, u_l, u_r):
        # q_l [h^2/2] equals the coupling q_l hbar times [h] but rounds
        # differently; this form is the one the reference results use
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        h_l, q_l = u_l[..., 0], u_l[..., 1]
        h_r, q_r = u_r[..., 0], u_r[..., 1]
        out = np.empty_like(u_l)
        out[..., 0] = q_r - q_l
        out[..., 1] = q_r**2 / h_r - q_l**2 / h_l + q_l * 0.5 * (h_r**2 - h_l**2)
        return out


class SkewedSegmentsPath(PathFamily):
    """One-parameter deformation of segments for the two-layer system.

    The thickness pair (h1, h2) follows the curve

        h2 = h2_l + ( t + eps * (h1^2 - h1_l^2)/(h1_r^2 - h1_l^2) )
                    * (h2_r - h2_l) / (1 + eps),
        t  = (h1 - h1_l)/(h1_r - h1_l),

    traversed with h1 linear in s, which blends linear and quadratic
    interpolation with weight eps >= 0.  The flow components q1, q2 are
    straight segments (the jump conditions do not depend on them).  At
    eps = 0 the family reduces exactly to plain segments.

    The coupling integrals have the closed forms

        int Phi_h1 dPhi_h2 = C1 * (h2_r - h2_l),
        int Phi_h2 dPhi_h1 = C2 * (h1_r - h1_l),

        C1 = ((3+4e)(h1_l^2 + h1_r^2) + 2(3+2e) h1_l h1_r)
             / (6 (1+e) (h1_l + h1_r)),
        C2 = (h1_r ((3+4e) h2_l + (3+2e) h2_r)
              + h1_l ((3+2e) h2_l + (3+4e) h2_r)) / (6 (1+e) (h1_l + h1_r)),

    which satisfy the integration-by-parts identity
    C1 dh2 + C2 dh1 = h1_r h2_r - h1_l h2_l.
    """

    name = "skewed_segments"
    epsilon = 0.0
    couplings = {
        TwoLayerSystem.name: lambda path, system, u_l, u_r: path.coupling_coefficients(
            u_l[..., 0], u_r[..., 0], u_l[..., 2], u_r[..., 2]
        ),
    }

    @classmethod
    def for_system(cls, system, epsilon=0.0):
        return cls(epsilon)

    def __init__(self, epsilon=0.0):
        if epsilon < 0:
            raise DomainError("skew parameter must be >= 0")
        self.epsilon = float(epsilon)

    def _eta(self, s, h1_l, h1_r):
        e = self.epsilon
        # smooth through coincident thicknesses: (h1^2-h1_l^2)/(h1_r^2-h1_l^2)
        # equals s(2 h1_l + s dh1)/(h1_l + h1_r) with h1 linear in s
        dh1 = h1_r - h1_l
        quad = s * (2.0 * h1_l + s * dh1) / (h1_l + h1_r)
        return (s + e * quad) / (1.0 + e)

    def _eta_ds(self, s, h1_l, h1_r):
        e = self.epsilon
        dh1 = h1_r - h1_l
        h1 = h1_l + s * dh1
        return (1.0 + 2.0 * e * h1 / (h1_l + h1_r)) / (1.0 + e)

    def evaluate(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        s = np.asarray(s, dtype=float)
        d = u_r - u_l
        eta = self._eta(s, u_l[..., 0], u_r[..., 0])
        return np.stack(
            [
                u_l[..., 0] + s * d[..., 0],
                u_l[..., 1] + s * d[..., 1],
                u_l[..., 2] + eta * d[..., 2],
                u_l[..., 3] + s * d[..., 3],
            ],
            axis=-1,
        )

    def tangent(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        s = np.asarray(s, dtype=float)
        d = u_r - u_l
        deta = self._eta_ds(s, u_l[..., 0], u_r[..., 0])
        one = np.ones_like(s)
        return np.stack(
            [one * d[..., 0], one * d[..., 1], deta * d[..., 2], one * d[..., 3]],
            axis=-1,
        )

    def coupling_coefficients(self, h1_l, h1_r, h2_l, h2_r):
        e = self.epsilon
        den = 6.0 * (1.0 + e) * (h1_l + h1_r)
        c1 = ((3 + 4 * e) * (h1_l**2 + h1_r**2) + 2 * (3 + 2 * e) * h1_l * h1_r) / den
        c2 = (
            h1_r * ((3 + 4 * e) * h2_l + (3 + 2 * e) * h2_r)
            + h1_l * ((3 + 2 * e) * h2_l + (3 + 4 * e) * h2_r)
        ) / den
        return c1, c2

    def closed_form_integral(self, system, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        return system.jump_integral(u_l, u_r, self.coupling(system, u_l, u_r))


# batches of up to this many iterating lanes take the scalar kernel: the
# largest size of BENCH_17.json's crossover table at which it was clearly
# faster in every run (the kernels meet between 128 and 256 lanes)
_SCALAR_LANES = 64


@lru_cache(maxsize=4096)
def _equilibrium_h_cached(h_l, q, delta_sigma, g):
    """One memoized scalar solve, for ``hugoniot.stationary_contact_state``."""
    return float(_equilibrium_h(h_l, q, delta_sigma, g))


def _equilibrium_h(h_l, q, delta_sigma, g):
    """Thickness on the equilibrium curve through (h_l, q) after a sigma jump.

    Solves E(h) = E(h_l) + delta_sigma with E(h) = h + q^2/(2 g h^2) on the
    branch (sub- or supercritical) containing h_l, for every lane of the
    broadcast arguments.  The checks run over the whole batch before any
    lane iterates, so every batch raises the first failed check's error.
    Then batches of up to ``_SCALAR_LANES`` iterating lanes run the scalar
    kernel, larger ones the vector kernel; the two return the same bits,
    so a lane's result does not depend on the rest of the batch.
    """
    h_l, q, ds = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (h_l, q, delta_sigma)))
    shape = h_l.shape
    h_l, q, ds = h_l.ravel(), q.ravel(), ds.ravel()
    if (h_l <= 0).any():
        raise DomainError("equilibrium solve requires h > 0")
    # the solution where the kinetic term a vanishes (q = 0, or q^2
    # underflows) or where sigma does not jump
    out = h_l + ds
    a = q * q / (2.0 * g)
    if ((a == 0.0) & (out <= 0)).any():
        raise PathConstructionError(
            "equilibrium curve leaves h > 0 for this sigma jump"
        )
    idx = np.flatnonzero((a != 0.0) & (ds != 0.0))
    h_l, q, ds, a = h_l[idx], q[idx], ds[idx], a[idx]
    target = h_l + a / h_l**2 + ds
    h_c = (q * q / g) ** (1.0 / 3.0)  # critical point, E'(h_c) = 0
    e_min = h_c + a / h_c**2
    scale = np.maximum(1.0, np.abs(target))
    if (target < e_min - 1e-14 * scale).any():
        raise PathConstructionError(
            "equilibrium curve does not reach the requested sigma"
        )
    # bracketed Newton on the monotone branch; E increases on the
    # subcritical branch and decreases on the supercritical one
    sub = h_l >= h_c
    lo = np.where(sub, h_c, 1e-12 * h_c)
    hi = np.where(sub, np.maximum(target, h_c) + 1.0, h_c)
    h = np.where(sub, np.maximum(h_l + ds, h_c), np.minimum(h_l, h_c))
    lanes = (a, target, scale, sub, lo, hi, np.minimum(np.maximum(h, lo), hi))
    if idx.size <= _SCALAR_LANES:
        try:
            out[idx] = [_newton_scalar(*lane)
                        for lane in zip(*(v.tolist() for v in lanes))]
            return out.reshape(shape)
        except (OverflowError, ZeroDivisionError):
            pass  # where Python raises, NumPy returns inf or nan: iterate there
    out[idx] = _newton_vector(*lanes)
    return out.reshape(shape)


def _newton_scalar(a, target, scale, sub, lo, hi, h):
    """One lane of the bracketed Newton iteration, in Python floats.  The
    square is a product and the cube a C-library ``pow``, as in
    ``_newton_vector``, so the two return the same bits."""
    for _ in range(100):
        f = h + a / (h * h) - target
        if (f > 0) == sub:
            hi = min(hi, h)
        else:
            lo = max(lo, h)
        df = 1.0 - 2.0 * a / h**3
        mid = 0.5 * (lo + hi)
        h_new = h - f / df if df != 0.0 else mid
        if not lo <= h_new <= hi:
            h_new = mid
        if abs(h_new - h) < 1e-15 * max(1.0, abs(h)) and abs(f) < 1e-13 * scale:
            return h_new
        h = h_new
    if not abs(h + a / (h * h) - target) < 1e-10 * scale:
        raise PathConstructionError("equilibrium solve did not converge")
    return h


def _newton_vector(a, target, scale, sub, lo, hi, h):
    """``_newton_scalar`` on every lane of the arrays at once; a lane leaves
    the iteration when its own test passes."""
    out = np.empty_like(h)
    idx = np.arange(h.size)
    # finished lanes leave the arrays only on the iterations where some finish
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):
            if not idx.size:
                return out
            f = h + a / h**2 - target
            above = (f > 0) == sub
            hi = np.where(above, np.minimum(hi, h), hi)
            lo = np.where(above, lo, np.maximum(lo, h))
            df = 1.0 - 2.0 * a / np.float_power(h, 3.0)
            mid = 0.5 * (lo + hi)
            h_new = np.where(df != 0.0, h - f / df, mid)
            h_new = np.where((lo <= h_new) & (h_new <= hi), h_new, mid)
            done = (np.abs(h_new - h) < 1e-15 * np.maximum(1.0, np.abs(h))) & (
                np.abs(f) < 1e-13 * scale)
            h = h_new
            if done.any():
                out[idx[done]] = h[done]
                keep = ~done
                idx, a, target, scale, sub, lo, hi, h = (
                    v[keep] for v in (idx, a, target, scale, sub, lo, hi, h))
        if not np.all(np.abs(h + a / h**2 - target) < 1e-10 * scale):
            raise PathConstructionError("equilibrium solve did not converge")
    out[idx] = h
    return out


class EquilibriumPath(PathFamily):
    """Path for shallow water that follows a smooth-steady-state curve first.

    Leg one runs from W_l along the curve q = const,
    h + q^2/(2 g h^2) - sigma = const to the intermediate state at
    sigma = sigma_r;  leg two is a straight segment at frozen sigma.  Along
    the first leg A(Phi) Phi_s vanishes identically (the curve is an
    integral curve of the standing wave field), so the whole integral
    reduces to the flux difference of the second leg.

    When sigma_l = sigma_r the first leg is trivial and the path is a plain
    segment in (h, q) at frozen sigma.
    """

    name = "equilibrium"
    breakpoints = (0.0, 0.5, 1.0)

    @classmethod
    def for_system(cls, system, epsilon=0.0):
        return cls(system.g)

    def __init__(self, g=9.81):
        self.g = float(g)

    def intermediate_state(self, u_l, u_r):
        """W* = (h*, q_l, sigma_r) for (..., 3) arrays of pairs.

        Only pairs with [sigma] != 0 are solved: elsewhere h* = h_l, which
        is also what the solve returns there, bit for bit.
        """
        u_l, u_r = np.broadcast_arrays(np.asarray(u_l, dtype=float),
                                       np.asarray(u_r, dtype=float))
        dsig = u_r[..., 2] - u_l[..., 2]
        h = u_l[..., 0].copy()
        jump = dsig != 0.0
        if np.any(jump):
            h[jump] = _equilibrium_h(u_l[..., 0][jump], u_l[..., 1][jump],
                                     dsig[jump], self.g)
        return np.stack([h, u_l[..., 1], u_r[..., 2]], axis=-1)

    def _energy(self, h, q):
        return h + q * q / (2.0 * self.g * h * h)

    def evaluate(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        s = np.asarray(s, dtype=float)
        h_l, q_l = u_l[..., 0], u_l[..., 1]
        h_star = self.intermediate_state(u_l, u_r)[..., 0]
        h1 = h_l + 2.0 * np.minimum(s, 0.5) * (h_star - h_l)
        sig1 = u_l[..., 2] + self._energy(h1, q_l) - self._energy(h_l, q_l)
        t2 = np.clip(2.0 * s - 1.0, 0.0, 1.0)
        h = np.where(s <= 0.5, h1, h_star + t2 * (u_r[..., 0] - h_star))
        q = np.where(s <= 0.5, q_l, q_l + t2 * (u_r[..., 1] - q_l))
        sig = np.where(s <= 0.5, sig1, u_r[..., 2])
        return np.stack([h, q, sig], axis=-1)

    def tangent(self, s, u_l, u_r):
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        s = np.asarray(s, dtype=float)
        h_l, q_l = u_l[..., 0], u_l[..., 1]
        h_star = self.intermediate_state(u_l, u_r)[..., 0]
        dh1 = 2.0 * (h_star - h_l)
        h1 = h_l + 2.0 * np.minimum(s, 0.5) * (h_star - h_l)
        # dE/dh along the curve gives the sigma rate on leg one
        dsig1 = (1.0 - q_l**2 / (self.g * h1**3)) * dh1
        th = np.where(s <= 0.5, dh1, 2.0 * (u_r[..., 0] - h_star))
        tq = np.where(s <= 0.5, 0.0, 2.0 * (u_r[..., 1] - q_l))
        tsig = np.where(s <= 0.5, dsig1, 0.0)
        return np.stack([th, tq, tsig], axis=-1)

    def _minus_gh(self, system, u_l, u_r, w_star=None):
        """(F2(w_l) - F2(w_star)) / [sigma], the factor that makes the jump
        identity hold; -g hbar where sigma is continuous, its limit.  The
        intermediate states are solved here unless ``w_star`` gives them."""
        dsig = u_r[..., 2] - u_l[..., 2]
        out = np.asarray(-system.g * 0.5 * (u_l[..., 0] + u_r[..., 0]))
        scale = np.maximum(1.0, np.maximum(np.abs(u_l[..., 2]), np.abs(u_r[..., 2])))
        jump = ~(np.abs(dsig) < 1e-10 * scale)
        wl = u_l[jump]
        ws = self.intermediate_state(wl, u_r[jump]) if w_star is None else w_star[jump]
        f2 = system.flux(np.stack([wl, ws]))[..., 1]
        out[jump] = (f2[0] - f2[1]) / dsig[jump]
        return out

    couplings = {ShallowWaterSystem.name: _minus_gh}

    def coupling_and_integral(self, system, u_l, u_r):
        # W* is solved once.  The integral from W* to u_r is the one from
        # u_l bit for bit: leg one carries none, q* = q_l exactly, and
        # sigma does not jump from W* to u_r, so closed_form_integral takes
        # W* itself as the intermediate state there.
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        w_star = self.intermediate_state(u_l, u_r)
        return (self._minus_gh(system, u_l, u_r, w_star),
                lambda: self.closed_form_integral(system, w_star, u_r))

    def closed_form_integral(self, system, u_l, u_r):
        # F2(w_r) - F2(w_star) equals [F2] plus the coupling times [sigma]
        # but rounds differently; this form is the one the reference
        # results use.  Where no pair's sigma jumps, W* is u_l in every
        # component F2 reads, and no intermediate state is built.
        u_l, u_r = np.broadcast_arrays(np.asarray(u_l, dtype=float),
                                       np.asarray(u_r, dtype=float))
        jump = (u_r[..., 2] - u_l[..., 2] != 0.0).any()
        w_star = self.intermediate_state(u_l, u_r) if jump else u_l
        f2 = system.flux(np.stack([u_r, w_star]))[..., 1]
        out = np.zeros_like(u_l)
        out[..., 0] = u_r[..., 1] - u_l[..., 1]
        out[..., 1] = f2[0] - f2[1]
        return out


def path_integral(path, system, u_l, u_r, method="auto"):
    """int_0^1 A(Phi(s; u_l, u_r)) dPhi/ds ds for pairs of states (..., N).

    ``method`` is "auto" (closed form when the pair is declared), "closed"
    (fail if it is not) or "quadrature".  Components of A that are exact
    derivatives integrate to flux differences no matter the path; this is
    what the closed forms exploit.  Quadrature integrates one pair at a
    time, so each pair of a batch gets the bits of a one-pair call.
    """
    u_l = np.asarray(u_l, dtype=float)
    u_r = np.asarray(u_r, dtype=float)
    if method in ("auto", "closed") and system.name in path.couplings:
        return path.closed_form_integral(system, u_l, u_r)
    if method == "closed":
        raise PathConstructionError(
            f"no closed-form integral for {path!r} on {system.name}"
        )
    u_l, u_r = np.broadcast_arrays(u_l, u_r)
    out = np.zeros(u_l.shape)
    for pair in np.ndindex(u_l.shape[:-1]):
        out[pair] = _quadrature_integral(path, system, u_l[pair], u_r[pair])
    return out


def _quadrature_integral(path, system, u_l, u_r):
    """``path_integral`` of one pair (N,) by adaptive Gauss-Legendre per leg."""
    if np.allclose(u_l, u_r, rtol=0.0, atol=0.0):
        return np.zeros_like(u_l)

    def integrand(svals):
        states = path.evaluate(svals, u_l, u_r)
        tangents = path.tangent(svals, u_l, u_r)
        A = system.matrix(states)
        return np.einsum("...ij,...j->...i", A, tangents)

    total = np.zeros_like(u_l)
    pts = path.breakpoints
    for a, b in zip(pts[:-1], pts[1:]):
        total = total + adaptive_gl(integrand, a, b)
    return total


PATHS = {
    cls.name: cls
    for cls in (SegmentsPath, TwoSegmentPath, SkewedSegmentsPath, EquilibriumPath)
}
