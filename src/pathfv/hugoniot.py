"""Exact shock-curve tracing and extraction of shocks from computed profiles.

A state u_free is connected to a fixed state across a discontinuity of
speed xi when

    R(u_free, xi) = xi (u_r - u_l) - int_0^1 A(Phi) Phi_s ds = 0,

with (u_l, u_r) the fixed/free pair in left-right order.  ``trace_exact``
follows the solution branch that bifurcates from the trivial solution at
xi = lambda_k(fixed) by predictor-corrector continuation in xi: the
previous sample seeds a damped Newton solve at the next xi, the first step
leaves the fixed point along the k-th eigenvector.

``extract_shock`` is the measurement side: it locates a single steep front
in a sequence of profiles using first divided differences as a smoothness
indicator, averages the adjacent plateaus for the limit states, and fits
the front trajectory over time for the speed.  ``curve_distance`` compares
two curves over their shared speed range.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FrontExtractionError, PathFVError, TraceError
from .paths import _equilibrium_h_cached, path_integral
from .quadrature import _central_differences

# halvings of one continuation step before ``trace_exact`` gives up
_TRACE_HALVINGS = 8

@dataclass(frozen=True)
class HugoniotCurve:
    """Samples (xi_j, state_j) of one branch of the shock locus.

    ``side`` records which side the fixed state sits on ("left" or
    "right"); ``states`` are the free states.  ``failed_at`` is the xi
    where continuation stopped early, or None.
    """

    fixed_state: np.ndarray
    side: str
    xi: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    failed_at: float = None

    def interpolate(self, xi):
        """Componentwise linear interpolation in xi (curve must be monotone)."""
        order = np.argsort(self.xi)
        xs = self.xi[order]
        return np.stack(
            [np.interp(xi, xs, self.states[order, k])
             for k in range(self.states.shape[1])],
            axis=-1,
        )


@dataclass(frozen=True)
class ShockFit:
    """A discontinuity measured from a profile sequence.

    ``xi`` comes from a least-squares fit of the front position over time;
    the limits are plateau averages on each side of the front at the final
    snapshot.
    """

    xi: float
    w_minus: np.ndarray
    w_plus: np.ndarray
    front_positions: np.ndarray
    times: np.ndarray


def _ordered_pair(fixed_state, free, side):
    if side == "left":
        return fixed_state, free
    return free, fixed_state


def _rh_residual_vec(system, path, fixed_state, side, free, xi):
    """R(free, xi) for free states (..., N) and speeds broadcasting against
    their batch shape."""
    fixed = np.broadcast_to(fixed_state, np.shape(free))
    u_l, u_r = _ordered_pair(fixed, free, side)
    return (np.asarray(xi)[..., None] * (u_r - u_l)
            - path_integral(path, system, u_l, u_r))


def _fd_jacobian(resid, z):
    """Central-difference Jacobian of ``resid`` at z."""
    return _central_differences(resid, z, 1e-7).T


def _damped_newton(resid, z, tol, scale, max_iter, max_halvings, where, xi=None):
    """Damped Newton for resid(z) = 0 with a finite-difference Jacobian,
    which evaluates ``resid`` once on a stack (2n, n) of points, row by row.

    Each step tries the full Newton step and up to ``max_halvings - 1``
    halvings of it, and stops when none lowers the residual.  Returns
    (z, |resid(z)|_inf); a singular Jacobian or a final residual above
    1e-10 * scale raises ``TraceError`` (message ending in ``where``,
    carrying ``xi``).
    """
    r = resid(z)
    rnorm = np.abs(r).max()
    for _ in range(max_iter):
        if rnorm <= tol * scale:
            break
        try:
            delta = np.linalg.solve(_fd_jacobian(resid, z), -r)
        except np.linalg.LinAlgError as exc:
            raise TraceError(f"singular Jacobian (fold?) {where}", xi=xi) from exc
        lam = 1.0
        for _ in range(max_halvings):
            z_new = z + lam * delta
            try:
                r_new = resid(z_new)
            except PathFVError:  # left the region where the residual is defined
                lam *= 0.5
                continue
            if np.abs(r_new).max() < rnorm:
                break
            lam *= 0.5
        else:
            break
        z, r, rnorm = z_new, r_new, np.abs(r_new).max()
    if rnorm > 1e-10 * scale:
        raise TraceError(f"Newton did not converge {where}", xi=xi)
    return z, float(rnorm)


def _newton_free_state(system, path, fixed_state, side, xi, seed):
    """Damped Newton for the free state at fixed xi, to a residual of 1e-12
    relative in at most 60 steps.  Returns (state, resid)."""
    return _damped_newton(
        lambda v: _rh_residual_vec(system, path, fixed_state, side, v, xi),
        np.array(seed, dtype=float), 1e-12,
        max(1.0, abs(xi), float(np.abs(fixed_state).max())), 60, 40,
        f"at xi = {xi}", xi=xi,
    )


def trace_exact(system, path, fixed_state, side, xi_start, xi_end, steps):
    """Continuation of the shock curve in the speed parameter.

    ``xi_start`` is an eigenvalue of the fixed state: the curve starts at
    the trivial zero-strength solution.  On a Newton failure the local step
    is halved up to ``_TRACE_HALVINGS`` times; if that fails too, the curve
    is returned truncated with ``failed_at`` set.
    """
    fixed_state = np.asarray(fixed_state, dtype=float)
    if side not in ("left", "right"):
        raise DomainError("side must be 'left' or 'right'")
    xi_values = [float(xi_start)]
    states = [np.array(fixed_state)]
    residuals = [0.0]
    lam, K = system.eigensystem(fixed_state)
    k = int(np.argmin(np.abs(lam - xi_start)))
    spread = max(np.abs(lam).max(), 1.0)
    if abs(lam[k] - xi_start) > 1e-6 * spread:
        raise TraceError("xi_start is not an eigenvalue of the fixed state", xi=xi_start)
    r_k = K[:, k]
    # growth rate of lambda_k along its eigenvector fixes the predictor;
    # fixed -+ eps r_k are solved as one batch
    eps = 1e-6 * max(1.0, float(np.abs(fixed_state).max()))
    pair = fixed_state + np.multiply.outer((eps, -eps), r_k)
    lam_p, lam_m = system.eigenvalues(pair)[:, k]
    slope = (lam_p - lam_m) / (2.0 * eps)
    if abs(slope) < 1e-8:
        raise TraceError(
            "field is linearly degenerate along this eigenvector; "
            "no shock branch to follow", xi=xi_start,
        )

    targets = np.linspace(xi_start, xi_end, steps + 1)[1:]
    failed_at = None
    for target in targets:
        xi_prev = xi_values[-1]
        w_prev = states[-1]
        remaining = target - xi_prev
        halvings = 0
        while abs(remaining) > 0:
            xi_next = xi_prev + remaining
            if len(states) == 1:
                seed = fixed_state + (2.0 * (xi_next - xi_values[0]) / slope) * r_k
            elif xi_values[-1] != xi_values[-2]:
                slope_w = (states[-1] - states[-2]) / (xi_values[-1] - xi_values[-2])
                seed = w_prev + slope_w * (xi_next - xi_prev)
            else:
                seed = w_prev
            try:
                w_new, resid = _newton_free_state(
                    system, path, fixed_state, side, xi_next, seed
                )
            except TraceError:
                halvings += 1
                if halvings > _TRACE_HALVINGS:
                    failed_at = xi_next
                    break
                remaining *= 0.5
                continue
            xi_values.append(xi_next)
            states.append(w_new)
            residuals.append(resid)
            xi_prev, w_prev = xi_next, w_new
            remaining = target - xi_prev
        if failed_at is not None:
            break
    return HugoniotCurve(
        fixed_state=fixed_state,
        side=side,
        xi=np.array(xi_values),
        states=np.array(states),
        residuals=np.array(residuals),
        failed_at=failed_at,
    )


def solve_rh_at(system, path, fixed_state, side, component, value, seed_state,
                seed_xi):
    """Solve the jump conditions with one free-state component pinned.

    Unknowns are the remaining components and xi, solved to a residual of
    1e-13 relative in at most 80 Newton steps; used to land exactly on a
    requested thickness along a traced curve.  Returns (state, xi).
    """
    fixed_state = np.asarray(fixed_state, dtype=float)
    n = len(fixed_state)
    free_idx = [k for k in range(n) if k != component]

    def unpack(z):
        w = np.empty(z.shape[:-1] + (n,))
        w[..., component] = value
        w[..., free_idx] = z[..., :-1]
        return w, z[..., -1]

    def resid(z):
        w, xi = unpack(z)
        return _rh_residual_vec(system, path, fixed_state, side, w, xi)

    z = np.concatenate([np.asarray(seed_state, float)[free_idx], [seed_xi]])
    z, _ = _damped_newton(resid, z, 1e-13, max(1.0, float(np.abs(fixed_state).max())),
                          80, 20, "in the pinned jump-condition solve")
    w, xi = unpack(z)
    return w, float(xi)


def stationary_contact_state(sw_system, w_l, sigma_r):
    """State joined to ``w_l`` by a stationary contact at a topography jump.

    Same flow rate, sigma = sigma_r, thickness on the standing-wave curve
    h + q^2/(2 g h^2) - sigma = const through w_l, staying on the branch
    (sub- or supercritical) of the left state.
    """
    w_l = np.asarray(w_l, dtype=float)
    h = _equilibrium_h_cached(
        float(w_l[0]), float(w_l[1]), float(sigma_r - w_l[2]), sw_system.g
    )
    return np.array([h, w_l[1], float(sigma_r)])


# ---------------------------------------------------------------------------
# Measurement of numerical shocks


def _front_cells(x, vals, dx, threshold, window):
    d = np.abs(np.diff(vals)) / dx
    xm = 0.5 * (x[:-1] + x[1:])
    if window is not None:
        inside = (xm >= window[0]) & (xm <= window[1])
    else:
        inside = np.ones_like(xm, dtype=bool)
    if not np.any(inside):
        raise FrontExtractionError("scan window contains no interfaces", count=0)
    dmax = d[inside].max()
    if dmax <= 0:
        raise FrontExtractionError("profile is flat in the scan window", count=0)
    rough = inside & (d > threshold * dmax)
    idx = np.nonzero(rough)[0]
    if idx.size == 0:
        raise FrontExtractionError("no front found", count=0)
    # group contiguous runs, tolerating single-interface gaps
    groups = [[idx[0]]]
    for j in idx[1:]:
        if j - groups[-1][-1] <= 2:
            groups[-1].append(j)
        else:
            groups.append([j])
    if len(groups) != 1:
        raise FrontExtractionError(
            f"expected one front, found {len(groups)}", count=len(groups)
        )
    cells = np.array(groups[0])
    centroid = float(np.sum(d[cells] * xm[cells]) / np.sum(d[cells]))
    return cells, centroid


def extract_shock(sol_sequence, component, threshold=0.1, window=None,
                  plateau_cells=10, margin_cells=3, fit_order=1,
                  flatten=None):
    """Fit one traveling discontinuity from a sequence of solutions.

    The front is the single contiguous group of interfaces whose first
    divided difference exceeds ``threshold`` times the in-window maximum.
    The limits w-+ average ``plateau_cells`` cells beyond a ``margin_cells``
    guard on each side of the front (final snapshot); the speed is the
    least-squares fit of the indicator-weighted front centroid over time,
    evaluated at the final snapshot.  ``fit_order > 1`` removes the bias a
    linear fit picks up when the front accelerates (for example while it
    crosses varying topography).

    ``flatten=(i, j)`` averages component i as the difference i - j and
    reconstitutes it with component j interpolated at the front position
    (both limits then also carry that front value of component j).  Use it
    when a conserved quantity slopes with a frozen field, e.g. thickness
    over topography: the difference is flat on both plateaus, so the limits
    refer to the front location instead of the plateau midpoints.
    """
    if len(sol_sequence) < 2:
        raise FrontExtractionError("need at least two snapshots to fit a speed")
    times = np.array([s.t for s in sol_sequence])
    positions = []
    for sol in sol_sequence:
        cells, front_x = _front_cells(sol.grid.centers, sol.states[:, component],
                                      sol.grid.dx, threshold, window)
        positions.append(front_x)
    positions = np.array(positions)
    order = min(fit_order, len(times) - 1)
    poly = np.polyfit(times, positions, order)
    xi = float(np.polyval(np.polyder(poly), times[-1]))

    # the loop ended on the last snapshot: its front gives the limits
    last = sol_sequence[-1]
    lo = cells[0] - margin_cells
    hi = cells[-1] + 1 + margin_cells
    left_lo = max(lo - plateau_cells, 0)
    right_hi = min(hi + plateau_cells, last.grid.m)
    if left_lo >= lo or hi >= right_hi:
        raise FrontExtractionError("front too close to the scan boundary")
    work = last.states.copy()
    if flatten is not None:
        i, j = flatten
        work[:, i] = work[:, i] - work[:, j]
    w_minus = work[left_lo:lo].mean(axis=0)
    w_plus = work[hi:right_hi].mean(axis=0)
    if flatten is not None:
        i, j = flatten
        at_front = float(np.interp(front_x, last.grid.centers, last.states[:, j]))
        for w in (w_minus, w_plus):
            w[i] = w[i] + at_front
            w[j] = at_front
    return ShockFit(
        xi=xi,
        w_minus=w_minus,
        w_plus=w_plus,
        front_positions=positions,
        times=times,
    )


def curve_distance(curve_a, curve_b):
    """Sup over the shared xi range of the Euclidean distance between curves.

    Both curves are linearly interpolated in xi onto a common grid of 256
    points.  Raises
    if the xi ranges do not overlap.
    """
    lo = max(curve_a.xi.min(), curve_b.xi.min())
    hi = min(curve_a.xi.max(), curve_b.xi.max())
    if not hi > lo:
        raise TraceError("curves do not share a speed range")
    xs = np.linspace(lo, hi, 256)
    pa = curve_a.interpolate(xs)
    pb = curve_b.interpolate(xs)
    return float(np.linalg.norm(pa - pb, axis=-1).max())


def numerical_curve(fixed_state, side, fits):
    """Bundle ShockFits into a HugoniotCurve of the measured free states."""
    fits = sorted(fits, key=lambda f: f.xi)
    xi = np.array([f.xi for f in fits])
    free = np.array([f.w_plus if side == "left" else f.w_minus for f in fits])
    return HugoniotCurve(
        fixed_state=np.asarray(fixed_state, dtype=float),
        side=side,
        xi=xi,
        states=free,
        residuals=np.full(len(fits), np.nan),
    )
