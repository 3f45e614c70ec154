"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the package's public
surface only (path evaluation, matrix evaluation), using brute-force
numerics (dense trapezoid quadrature, plain finite differences), so each
oracle stays independent of the code path it checks.
"""

import numpy as np

from pathfv.errors import DomainError, PathConstructionError


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


def synthetic_step_history(grid_factory, w_left, w_right, xi, times, x0=0.0):
    """Exact traveling-step profiles sampled on a grid (for extractor tests)."""
    out = []
    for t in times:
        sol = grid_factory(t)
        x = sol.grid.centers
        states = np.where(x[:, None] < x0 + xi * t, w_left, w_right)
        out.append(type(sol)(sol.grid, t, states, sol.n))
    return out


def equilibrium_h(h_l, q, delta_sigma, g):
    """Thickness on the equilibrium curve through (h_l, q) after a sigma jump.

    The scalar reference for the package's batched ``paths._equilibrium_h``:
    the same bracketed Newton iteration, one Python float at a time.

    Solves E(h) = E(h_l) + delta_sigma with E(h) = h + q^2/(2 g h^2) on the
    branch (sub- or supercritical) containing h_l.
    """
    if h_l <= 0:
        raise DomainError("equilibrium solve requires h > 0")
    if q == 0.0:
        h = h_l + delta_sigma
        if h <= 0:
            raise PathConstructionError(
                "equilibrium curve leaves h > 0 for this sigma jump"
            )
        return h
    a = q * q / (2.0 * g)
    target = h_l + a / h_l**2 + delta_sigma
    h_c = (q * q / g) ** (1.0 / 3.0)  # critical point, E'(h_c) = 0
    e_min = h_c + a / h_c**2
    if target < e_min - 1e-14 * max(1.0, abs(target)):
        raise PathConstructionError(
            "equilibrium curve does not reach the requested sigma"
        )
    subcritical = h_l >= h_c
    # bracketed Newton on the monotone branch; E increases on the
    # subcritical branch and decreases on the supercritical one
    if subcritical:
        lo, hi = h_c, max(target, h_c) + 1.0
        h = max(h_l + delta_sigma, h_c)
    else:
        lo, hi = 1e-12 * h_c, h_c
        h = min(h_l, h_c)
    h = min(max(h, lo), hi)
    increasing = subcritical
    for _ in range(100):
        f = h + a / h**2 - target
        if (f > 0) == increasing:
            hi = min(hi, h)
        else:
            lo = max(lo, h)
        df = 1.0 - 2.0 * a / h**3
        if df != 0.0:
            step = f / df
            h_new = h - step
        else:
            h_new = 0.5 * (lo + hi)
        if not (lo <= h_new <= hi):
            h_new = 0.5 * (lo + hi)
        if abs(h_new - h) < 1e-15 * max(1.0, abs(h)) and abs(f) < 1e-13 * max(
            1.0, abs(target)
        ):
            return h_new
        h = h_new
    if abs(h + a / h**2 - target) < 1e-10 * max(1.0, abs(target)):
        return h
    raise PathConstructionError("equilibrium solve did not converge")
