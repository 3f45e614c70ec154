"""Quantitative diagnostics: modified-equation term, conservation, residuals.

``equivalent_eq_i2`` evaluates the only term of the second-order modified
equation of the Lax-Friedrichs scheme that depends on the path family,

    I2(v) = int_0^1 DA(v)(D_ul Phi . v_x, D_ul Phi_s . v_x) ds
          + int_0^1 DA(v)(D_ur Phi . v_x, D_ur Phi_s . v_x) ds,

with all endpoint derivatives taken at coincident states u_l = u_r = v and
DA(v)(p, w) = (sum_k p_k dA/du_k) w.  For plain segments the two integrals
cancel exactly; families whose endpoint derivatives reduce to the segment
ones at coincidence (the skewed-segments family does) inherit the
cancellation, while genuinely asymmetric paths such as the two-segment one
leave a nonzero term.

Everything here is finite-difference based: no symbolic derivatives.
Endpoint-derivative matrices use Richardson-extrapolated central
differences with a relative step of 1e-3, which keeps both truncation and
roundoff near 1e-12 (a 1e-6 step would floor the roundoff near 1e-10,
too coarse for the vanishing cases).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .paths import path_integral
from .quadrature import _central_differences, composite_gl


def _endpoint_matrix(fun, svals, v, which):
    """Richardson-extrapolated D_{u_which} fun at coincident states.

    Returns an array (ns, N, N): per s, the matrix with columns indexed by
    the endpoint component.
    """
    # the perturbed states (2N, 1, N) broadcast against the nodes (ns,)
    g = ((lambda u: fun(svals, u[:, None, :], v)) if which == "l"
         else (lambda u: fun(svals, v, u[:, None, :])))
    # 5e-4 is exactly half of 1e-3 in binary, so the second step is
    # exactly half of the first
    d1, d2 = (_central_differences(g, v, step) for step in (1e-3, 5e-4))
    return np.stack(tuple((4.0 * d2 - d1) / 3.0), axis=-1)


def equivalent_eq_i2(system, path, v, v_x):
    """Path-dependent term of the second-order modified equation at state v.

    ``v_x`` is the local gradient the expansion is taken against.  Uses
    16-panel composite Gauss-Legendre on each smooth leg of the path with
    the endpoint-derivative matrices evaluated at the quadrature nodes, and
    dA/du_k by central differences with a relative step of 1e-6.
    """
    v = np.asarray(v, dtype=float)
    v_x = np.asarray(v_x, dtype=float)
    dA = _central_differences(system.matrix, v, 1e-6)

    def bilinear(p, w):
        # DA(v)(p, w) for stacked p, w of shape (ns, N)
        mats = np.einsum("sk,kij->sij", p, dA)
        return np.einsum("sij,sj->si", mats, w)

    def integrand(svals):
        terms = np.zeros((len(svals), v.size))
        for which in ("l", "r"):
            dphi = _endpoint_matrix(path.evaluate, svals, v, which)
            dphis = _endpoint_matrix(path.tangent, svals, v, which)
            p = np.einsum("sij,j->si", dphi, v_x)
            w = np.einsum("sij,j->si", dphis, v_x)
            terms += bilinear(p, w)
        return terms

    total = np.zeros(v.size)
    pts = path.breakpoints
    for a, b in zip(pts[:-1], pts[1:]):
        total += composite_gl(integrand, a, b, 16)
    return total


@dataclass(frozen=True)
class MassLedger:
    """Windowed integral of one component against its exact evolution.

    ``truncated_at`` is the index of the first snapshot where waves reached
    the window edge (that snapshot and later ones are unreliable), or None.
    """

    component: int
    half_width: float
    times: np.ndarray
    numeric: np.ndarray
    exact: np.ndarray
    truncated_at: int = None

    @property
    def deviation(self):
        stop = self.truncated_at if self.truncated_at is not None else len(self.times)
        return float(np.abs(self.numeric[:stop] - self.exact[:stop]).max())


def mass_track(sol_history, component, half_width, exact_flux_rate):
    """Track int_{-A}^{A} u_component dx against the exact linear-in-t law.

    The exact reference is the initial integral plus t times the boundary
    flux difference supplied by the caller.  Waves reaching +-A are detected
    by comparing the window-edge cells with the first snapshot; the ledger
    is truncated (with a logged warning) from the first such snapshot on.
    """
    import logging

    log = logging.getLogger(__name__)
    first = sol_history[0]
    x = first.grid.centers
    mask = np.abs(x) <= half_width
    if not np.any(mask):
        raise DomainError("window [-A, A] contains no cells")
    edge_idx = [np.nonzero(mask)[0][0], np.nonzero(mask)[0][-1]]
    dx = first.grid.dx
    times = np.array([s.t for s in sol_history])
    numeric = np.array(
        [dx * s.states[mask, component].sum() for s in sol_history]
    )
    exact = numeric[0] + (times - times[0]) * exact_flux_rate
    truncated_at = None
    scale = max(1.0, float(np.abs(first.states[:, component]).max()))
    for j, s in enumerate(sol_history):
        edge_change = max(
            float(np.abs(s.states[e] - first.states[e]).max()) for e in edge_idx
        )
        if edge_change > 1e-10 * scale:
            truncated_at = j
            log.warning(
                "mass ledger truncated at t = %.6g: waves reached the window edge",
                s.t,
            )
            break
    return MassLedger(
        component=component,
        half_width=half_width,
        times=times,
        numeric=numeric,
        exact=exact,
        truncated_at=truncated_at,
    )


def rh_residual(system, fit, path):
    """Jump-condition residuals of a measured shock.

    Returns ``(nonconservative, conservative)`` where the first is
    || xi (w+ - w-) - int A(Phi) Phi_s ds ||_inf under the given path and
    the second restricts xi (w+ - w-) - (F(w+) - F(w-)) to the components
    that are genuine conservation laws (None when the system has none).
    """
    dw = fit.w_plus - fit.w_minus
    integral = path_integral(path, system, fit.w_minus, fit.w_plus)
    noncons = float(np.abs(fit.xi * dw - integral).max())
    cons = None
    mask = system.conservative_mask
    if np.any(mask):
        dF = system.conservative_flux(fit.w_plus) - system.conservative_flux(
            fit.w_minus
        )
        cons = float(np.abs((fit.xi * dw - dF)[..., mask]).max())
    return noncons, cons


def well_balance_check(scheme, steady, steps, bc=None, cfl=0.9):
    """Advance a steady state and report the largest drift from it.

    Returns max over cells and steps of ||u^n - u^0||_inf.
    """
    from .schemes import cfl_dt

    drift = 0.0
    sol = steady
    for _ in range(steps):
        dt = cfl_dt(scheme.system, sol, cfl, max_cfl=scheme.max_cfl)
        sol = scheme.advance(sol, dt, bc=bc)
        drift = max(drift, float(np.abs(sol.states - steady.states).max()))
    return drift
