"""Model systems of the form u_t + A(u) u_x = 0.

Three quasilinear systems are provided:

``SimplifiedSystem``
    A 2x2 model with state w = (h, q),

        h_t + q_x = 0,
        q_t + (q^2/h)_x + q h h_x = 0,

    strictly hyperbolic on the region 0 < q, 0 < h < (16 q)^(1/3) with
    eigenvalues u -+ h*sqrt(u), u = q/h.  The second equation is genuinely
    nonconservative: the coefficient matrix is not a Jacobian of any flux.

``ShallowWaterSystem``
    Shallow water over bottom topography written as a 3x3 quasilinear
    system.  The state is W = (h, q, sigma) where sigma is the bottom
    depth below a reference level, appended as an unknown with
    sigma_t = 0.  The matrix has block form [[J(w), -S(w)], [0, 0]] with
    J the Jacobian of the flux (q, q^2/h + g h^2/2) and S = (0, g h);
    eigenvalues are u - c, u + c and 0 with c = sqrt(g h).

``TwoLayerSystem``
    Two superposed immiscible shallow-water layers over a flat bottom,
    state w = (h1, q1, h2, q2), layer 1 on top.  The layers couple through
    nonconservative pressure terms;  the characteristic polynomial is the
    quartic

        ((lam - u1)^2 - c1^2) ((lam - u2)^2 - c2^2) = r c1^2 c2^2,

    r = rho1/rho2 in [0, 1).  It is solved in closed form, batched over
    states, by ``solve_characteristic_quartic`` (Ferrari's method).
    Internal eigenvalues turn complex when the interfacial shear is too
    large, and such states are rejected.

Each system subclasses ``System`` and declares its config id (``name``),
``components`` and ``thickness``, the components that must be positive,
which ``System._columns`` checks.  It states its eigenstructure once:
``eigenvalues`` in ascending order and ``_eigenvectors`` for them; ``System``
derives ``eigensystem`` and ``max_abs_speed`` from the two, and ``distinct``
is the one rule for coincident eigenvalues.  Given a path's coupling (see
``paths``), ``jump_integral`` is the path integral of A and
``roe_eigensystem`` the eigenvalues of the Roe matrix with the data its
eigenvectors are made of: nothing more for the 2x2 model, whose columns are
(1, lam); the standing column's k for shallow water; the matrix K itself
for two layers.  From those, ``wave_strengths`` gives the coordinates of a
jump in the eigenvectors, ``apply_eigenvectors`` the combination K c of the
columns and ``eigenvector_matrix`` the one builder of K.

``apply_eigenvectors`` returns the bits of ``np.einsum("...ij,...j->...i",
K, c)`` on the built K, for every finite c, without building K: NumPy's
einsum sums a row's even-index products in one accumulator and its
odd-index products in another, adds the two, and never returns -0.0.  The
closed forms add in that order and end with ``+ 0.0``, which turns a -0.0
sum into +0.0 and leaves every other value as it is.

All state arrays have shape (..., N) and matrix evaluations broadcast over
leading axes.  Instances are immutable and safe to share between workers.
"""

import numpy as np

from .errors import (
    DomainError,
    EigenDecompositionError,
    HyperbolicityLossError,
    RoeConstructionError,
)

# Relative gap under which eigenvalues count as coincident (Roe-type splits
# need strictly distinct eigenvalues).
DISTINCTNESS_RTOL = 1e-8
# Relative imaginary part above which quartic roots count as complex.
COMPLEX_RTOL = 1e-9


def distinct(lam):
    """Mask of the lanes whose ascending eigenvalues ``lam`` (..., N) are
    distinct: every gap above DISTINCTNESS_RTOL times the lane's max |lam|.

    Column by column, as NumPy reductions along a short last axis are slow:
    the max |lam| of ascending lam is at one of its ends, and the smallest
    gap is the running minimum over adjacent columns.  A NaN anywhere
    makes the lane coincident.
    """
    scale = np.maximum(np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1])), 1e-300)
    gap = lam[..., 1] - lam[..., 0]
    for j in range(2, lam.shape[-1]):
        gap = np.minimum(gap, lam[..., j] - lam[..., j - 1])
    return gap > DISTINCTNESS_RTOL * scale


def require_distinct(lam, what, lane):
    """Raise ``EigenDecompositionError`` with ``index`` at the first lane of
    ``lam`` (C order) whose eigenvalues are not ``distinct``; ``what`` names
    the matrix and ``lane`` a lane in the message."""
    ok = distinct(lam)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise EigenDecompositionError(
            f"{what} eigenvalues are not distinct at {lane} {i}", index=i)


def _job_speeds(w, top, fine):
    """``is_admissible``'s carried speed from the max |lambda| ``top`` of each
    state of ``w`` and the mask ``fine`` of the states where
    ``max_abs_speed`` does not raise: the max over all of ``w``, or a list
    of the maxima over each job of a (J, m, N) stack; None for a job with a
    state that is not fine."""
    if w.ndim < 3:
        return float(top.max(initial=0.0)) if fine.all() else None
    top = top.reshape(len(w), -1).max(axis=-1, initial=0.0).tolist()
    fine = fine.reshape(len(w), -1).all(axis=-1).tolist()
    return [t if f else None for t, f in zip(top, fine)]


def _roe_velocity(h_l, u_l, h_r, u_r):
    sl, sr = np.sqrt(h_l), np.sqrt(h_r)
    return (sl * u_l + sr * u_r) / (sl + sr)


def normalize_eigenvectors(K):
    """Unit Euclidean columns with the first entry of |x| > 1e-14 positive."""
    K = np.asarray(K, dtype=float)
    K = K / np.linalg.norm(K, axis=-2, keepdims=True)
    big = np.abs(K) > 1e-14
    lead = big & (np.cumsum(big, axis=-2) == 1)
    flip = (lead & (K < 0)).any(axis=-2, keepdims=True)
    return np.where(flip, -K, K)


class System:
    """Base of the systems: ``eigensystem`` and ``max_abs_speed`` from the
    subclass's ascending ``eigenvalues(w)`` and its eigenvector columns
    ``_eigenvectors(w, lam)``, and the state checks from its ``thickness``:
    the indices of the components that must be positive."""

    def _columns(self, w):
        """The components of the states ``w`` (..., N), one array each;
        refuses a wrong component count or a non-positive thickness with
        ``DomainError``."""
        w = np.asarray(w, dtype=float)
        n = len(self.components)
        if w.shape[-1] != n:
            raise DomainError(f"state must have {n} components, got shape {w.shape}")
        if any((w[..., i] <= 0).any() for i in self.thickness):
            names = ", ".join(self.components[i] for i in self.thickness)
            raise DomainError(f"the {self.name} system requires {names} > 0")
        return [w[..., i] for i in range(n)]

    def _positive(self, w):
        """Mask of the states ``w`` (..., N) whose thickness is positive."""
        return np.logical_and.reduce([w[..., i] > 0 for i in self.thickness])

    def eigensystem(self, w):
        """Ascending eigenvalues and unit right eigenvectors (columns of K);
        coincident eigenvalues raise ``EigenDecompositionError``."""
        w = np.asarray(w, dtype=float)
        lam = self.eigenvalues(w)
        require_distinct(lam, self.name, "state")
        return lam, normalize_eigenvectors(self._eigenvectors(w, lam))

    def max_abs_speed(self, w):
        return np.abs(self.eigenvalues(w)).max()


class SimplifiedSystem(System):
    """2x2 nonconservative model system, state w = (h, q)."""

    name = "simplified"
    components = ("h", "q")
    thickness = (0,)
    # Only the first equation is a conservation law (flux q).
    conservative_mask = np.array([True, False])

    def matrix(self, w):
        """Coefficient matrix A(w) = [[0, 1], [q h - u^2, 2 u]], u = q/h.

        The (2,1) entry q h - u^2 is the one consistent with the quasilinear
        expansion of the momentum equation and with the stated eigenvalues
        u -+ h sqrt(u); see tests for a finite-difference cross-check.
        """
        h, q = self._columns(w)
        u = q / h
        A = np.zeros(h.shape + (2, 2))
        A[..., 0, 1] = 1.0
        A[..., 1, 0] = q * h - u * u
        A[..., 1, 1] = 2.0 * u
        return A

    def eigenvalues(self, w):
        """lam = (u - h sqrt(u), u + h sqrt(u)), sorted ascending."""
        h, q = self._columns(w)
        u = q / h
        if np.any(u < 0):
            raise HyperbolicityLossError(
                "simplified system requires u = q/h >= 0",
                indices=np.flatnonzero(u < 0),
            )
        s = h * np.sqrt(u)
        return np.stack([u - s, u + s], axis=-1)

    def _eigenvectors(self, w, lam):
        return self.eigenvector_matrix(lam, None)

    def roe_eigensystem(self, u_l, u_r, coupling):
        """Eigenvalues of [[0, 1], [c - u^2, 2 u]], u the Roe velocity and c
        the path average of q h against h, and None: the eigenvector columns
        (1, lam) need nothing more."""
        h_l, q_l = self._columns(u_l)
        h_r, q_r = self._columns(u_r)
        u = _roe_velocity(h_l, q_l / h_l, h_r, q_r / h_r)
        if np.any(coupling <= 0):
            raise RoeConstructionError(
                "Roe matrix loses real eigenvalues (path average of q h <= 0)"
            )
        s = np.sqrt(coupling)
        return np.stack([u - s, u + s], axis=-1), None

    def eigenvector_matrix(self, lam, vectors):
        """K with the columns (1, lam), C-ordered."""
        K = np.zeros(lam.shape + (2,))
        K[..., 0, :] = 1.0
        K[..., 1, :] = lam
        return K

    def wave_strengths(self, lam, vectors, du):
        """alpha = K^-1 du for the columns (1, lam) of ``roe_eigensystem``,
        by Cramer's rule; ``lam`` must be ``distinct``."""
        l0, l1 = lam[..., 0], lam[..., 1]
        d0, d1 = du[..., 0], du[..., 1]
        return np.stack([_pair_strengths(l0, l1, d0, d1),
                         _pair_strengths(l1, l0, d0, d1)], axis=-1)

    def apply_eigenvectors(self, lam, vectors, c):
        """K c = c0 (1, lam0) + c1 (1, lam1), in einsum's order."""
        out = np.empty(np.shape(c))
        out[..., 0] = (c[..., 0] + c[..., 1]) + 0.0
        out[..., 1] = (lam[..., 0] * c[..., 0] + lam[..., 1] * c[..., 1]) + 0.0
        return out

    def jump_integral(self, u_l, u_r, coupling):
        """([q], [q^2/h] + c [h]) for the path average c of q h against h."""
        h_l, q_l = u_l[..., 0], u_l[..., 1]
        h_r, q_r = u_r[..., 0], u_r[..., 1]
        out = np.empty_like(u_l)
        out[..., 0] = q_r - q_l
        out[..., 1] = q_r**2 / h_r - q_l**2 / h_l + coupling * (h_r - h_l)
        return out

    def is_admissible(self, w, *, with_speed=False):
        """Region 0 < q and 0 < h < (16 q)^(1/3), plus distinct eigenvalues.

        With ``with_speed`` the result is ``(ok, speed)``: speed is what
        ``max_abs_speed(w)`` returns, from the same pass, or None where that
        call would raise; for a (J, m, 2) stack of jobs, one such speed per
        job.
        """
        w = np.asarray(w, dtype=float)
        h, q = w[..., 0], w[..., 1]
        positive = self._positive(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = q / h
            s = h * np.sqrt(u)
            ok = (q > 0) & positive & (h < np.cbrt(16.0 * q))
            ok &= s > 0.5 * DISTINCTNESS_RTOL * (u + s)
            if not with_speed:
                return ok
            top = np.maximum(np.abs(u - s), np.abs(u + s))
        return ok, _job_speeds(w, top, positive & (u >= 0))

    def conservative_flux(self, w):
        h, q = self._columns(w)
        F = np.zeros(h.shape + (2,))
        F[..., 0] = q
        return F


def _pair_strengths(lam, other, d0, d1):
    """Strength of the column (1, lam) in d = (d0, d1) when the one other
    column is (1, other): the row of the 2x2 inverse, (d1 - other d0)
    / (lam - other)."""
    return (d1 - other * d0) / (lam - other)


def _shallow_water_eigenvalues(u, c):
    """The eigenvalues u - c, 0 and u + c in ascending order, without a sort:
    u - c < u + c always, and the flow regime places the standing 0."""
    lam = np.empty(np.shape(u) + (3,))
    lam[..., 0] = np.minimum(u - c, 0.0)
    lam[..., 1] = np.maximum(u - c, np.minimum(u + c, 0.0))
    lam[..., 2] = np.maximum(u + c, 0.0)
    return lam


class ShallowWaterSystem(System):
    """Shallow water over topography as a 3x3 system, W = (h, q, sigma)."""

    name = "shallow_water"
    components = ("h", "q", "sigma")
    thickness = (0,)
    conservative_mask = np.array([True, True, False])

    def __init__(self, g=9.81):
        self.g = float(g)

    def flux(self, w):
        """Flux of the conservative pair (h, q) at frozen topography."""
        w = np.asarray(w, dtype=float)
        h, q = w[..., 0], w[..., 1]
        return np.stack([q, q * q / h + 0.5 * self.g * h * h], axis=-1)

    def matrix(self, w):
        h, q, _ = self._columns(w)
        u = q / h
        g = self.g
        A = np.zeros(h.shape + (3, 3))
        A[..., 0, 1] = 1.0
        A[..., 1, 0] = g * h - u * u
        A[..., 1, 1] = 2.0 * u
        A[..., 1, 2] = -g * h
        # last row identically zero: sigma_t = 0
        return A

    def eigenvalues(self, w):
        h, q, _ = self._columns(w)
        return _shallow_water_eigenvalues(q / h, np.sqrt(self.g * h))

    def _eigenvectors(self, w, lam):
        h, q = w[..., 0], w[..., 1]
        u = q / h
        gh = self.g * h
        # kernel vector of [[J, -S],[0,0]]: (g h/(g h - u^2), 0, 1)
        return self.eigenvector_matrix(lam, gh / (gh - u * u))

    def roe_eigensystem(self, u_l, u_r, coupling):
        """Eigenvalues of [[J, (0, c)^T], [0, 0]], J the flux Jacobian at the
        Roe velocity and hbar and c the path average of -g h against sigma,
        and the first entry k of the standing eigenvector (k, 0, 1)."""
        h_l, q_l, _ = self._columns(u_l)
        h_r, q_r, _ = self._columns(u_r)
        u = _roe_velocity(h_l, q_l / h_l, h_r, q_r / h_r)
        hbar = 0.5 * (h_l + h_r)
        cbar = np.sqrt(self.g * hbar)
        a21 = self.g * hbar - u * u
        lam = _shallow_water_eigenvalues(u, cbar)
        # a21 = 0 only where u = +-cbar, a double zero eigenvalue that the
        # Roe step refuses; a NaN there keeps the division quiet
        a21 = np.where(a21 == 0.0, np.nan, a21)
        return lam, -coupling / a21

    def eigenvector_matrix(self, lam, k):
        """K with the columns (1, lam, 0) of a moving field and (k, 0, 1) of
        the standing one, where lam == 0; C-ordered."""
        standing = lam == 0.0
        K = np.zeros(lam.shape + (3,))
        K[..., 0, :] = np.where(standing, np.expand_dims(k, -1), 1.0)
        K[..., 1, :] = lam
        K[..., 2, :] = standing
        return K

    def wave_strengths(self, lam, k, du):
        """alpha = K^-1 du for the eigenpairs of ``roe_eigensystem``;
        ``lam`` must be ``distinct``.

        The standing column (k, 0, 1), where lam == 0, takes [sigma].  The
        two moving columns (1, a, 0) and (1, b, 0), a = u - c < b = u + c,
        split (dh - k [sigma], dq) by the 2x2 rule.  The standing 0 sits
        first when a > 0 and last when b < 0.  Column by column, as NumPy
        broadcasting along the short last axis is slow.
        """
        l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
        first, last = l0 == 0.0, l2 == 0.0
        a = np.where(first, l1, l0)
        b = np.where(last, l1, l2)
        dq, dsig = du[..., 1], du[..., 2]
        r = du[..., 0] - k * dsig
        alpha_a = _pair_strengths(a, b, r, dq)
        alpha_b = _pair_strengths(b, a, r, dq)
        return np.stack([np.where(first, dsig, alpha_a),
                         np.where(first, alpha_a, np.where(last, alpha_b, dsig)),
                         np.where(last, dsig, alpha_b)], axis=-1)

    def apply_eigenvectors(self, lam, k, c):
        """K c for the columns of ``eigenvector_matrix(lam, k)``, in einsum's
        order: columns 0 and 2 first, then column 1.  The first component
        takes c_j from a moving column and k c_s from the standing one, the
        second lam_j c_j from each, and the third is c_s: the moving columns
        add only signed zeros there, and the ``+ 0.0`` drops their sign."""
        l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
        c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
        first, last = l0 == 0.0, l2 == 0.0
        standing = np.where(first, c0, np.where(last, c2, c1))
        kc = k * standing
        out = np.empty(np.shape(c))
        out[..., 0] = (np.where(first, kc, c0) + np.where(last, kc, c2)
                       + np.where(first | last, c1, kc)) + 0.0
        out[..., 1] = (l0 * c0 + l2 * c2 + l1 * c1) + 0.0
        out[..., 2] = standing + 0.0
        return out

    def jump_integral(self, u_l, u_r, coupling):
        """([q], [q^2/h + g h^2/2] + c [sigma], 0) for the path average c of
        -g h against sigma."""
        F = self.flux(u_r) - self.flux(u_l)
        out = np.zeros_like(u_l)
        out[..., 0] = F[..., 0]
        out[..., 1] = F[..., 1] + coupling * (u_r[..., 2] - u_l[..., 2])
        return out

    def is_admissible(self, w, *, with_speed=False):
        """h > 0 away from resonance (u != +-c, so no eigenvalue collides with 0).

        With ``with_speed`` the result is ``(ok, speed)``: speed is what
        ``max_abs_speed(w)`` returns, from the same pass, or None where that
        call would raise; for a (J, m, 3) stack of jobs, one such speed per
        job.
        """
        w = np.asarray(w, dtype=float)
        h, q = w[..., 0], w[..., 1]
        positive = self._positive(w)
        u = np.where(positive, q / np.where(positive, h, 1.0), 0.0)
        c = np.sqrt(self.g * np.abs(h))
        scale = np.abs(u) + c
        slow, fast = np.abs(u - c), np.abs(u + c)
        ok = positive & (np.minimum(slow, fast) > DISTINCTNESS_RTOL * scale)
        if not with_speed:
            return ok
        return ok, _job_speeds(w, np.maximum(slow, fast), positive)

    def conservative_flux(self, w):
        h, _, _ = self._columns(w)
        F = np.zeros(h.shape + (3,))
        F[..., :2] = self.flux(w)
        return F


def _resolvent_root(p, q, r):
    """Largest real root z of the resolvent z^3 + 2p z^2 + (p^2 - 4r) z - q^2.

    Also returns the discriminant of y^4 + p y^2 + q y + r, which equals the
    resolvent's.  Lanes with three real roots take the trigonometric form;
    the rest (discriminant < 0: one real root, so the quartic has a complex
    pair) take Cardano's.
    """
    # depressed resolvent t^3 + P t + Q with z = t - 2p/3
    P = -p * p / 3.0 - 4.0 * r
    Q = p * (8.0 * r / 3.0 - 2.0 * p * p / 27.0) - q * q
    disc = -(4.0 * P * P * P + 27.0 * Q * Q)
    rho = np.sqrt(np.maximum(-P / 3.0, 0.0))
    cos3 = -0.5 * Q / np.maximum(rho * rho * rho, 1e-300)
    t = 2.0 * rho * np.cos(np.arccos(np.minimum(np.maximum(cos3, -1.0), 1.0)) / 3.0)
    one_real = disc < 0.0
    if one_real.any():
        half = np.sqrt(-disc[one_real] / 108.0)
        qh = -0.5 * Q[one_real]
        t[one_real] = np.cbrt(qh + half) + np.cbrt(qh - half)
    return t - 2.0 * p / 3.0, disc


def solve_characteristic_quartic(u1, u2, a1, a2, k):
    """Real roots of ((lam-u1)^2 - a1)((lam-u2)^2 - a2) = k, batched.

    Closed form by Ferrari's method.  Centred at s = (u1+u2)/2 with
    d = (u1-u2)/2, the quartic reads y^4 + p y^2 + q y + r = 0 in
    y = lam - s, with p = -2d^2 - (a1+a2), q = 2d(a2-a1) and
    r = (d^2-a1)(d^2-a2) - k.  The largest root z of the resolvent cubic
    splits it into the quadratics y^2 -+ sqrt(z) y + (z+p)/2 +- q/(2 sqrt z),
    and one Newton step on the centred quartic polishes each root.

    A lane is non-hyperbolic when a quadratic's discriminant is negative
    (always so when the resolvent has a single real root) and the imaginary
    part it gives exceeds ``COMPLEX_RTOL`` relative to the root magnitude;
    smaller imaginary parts are truncated.  Non-hyperbolic lanes raise
    ``HyperbolicityLossError`` carrying the quartic's discriminant, the
    largest imaginary part and the lanes' flat (C-order) indices.
    The roots come back sorted along a new last axis.
    """
    u1, u2, a1, a2, k = np.broadcast_arrays(
        *[np.asarray(x, dtype=float) for x in (u1, u2, a1, a2, k)]
    )
    shape = u1.shape
    u1, u2, a1, a2, k = (x.ravel() for x in (u1, u2, a1, a2, k))
    s = 0.5 * (u1 + u2)
    d = 0.5 * (u1 - u2)
    dd = d * d
    p = -2.0 * dd - (a1 + a2)
    q = 2.0 * d * (a2 - a1)
    r = (dd - a1) * (dd - a2) - k

    z, disc = _resolvent_root(p, q, r)
    z = np.maximum(z, 0.0)
    sz = np.sqrt(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = q / (2.0 * sz)
    # q/(2 sqrt z) squares to m^2 - r, m = (z+p)/2; that form serves z ~ 0
    tiny = z <= 1e-8 * (np.abs(p) + np.sqrt(np.abs(r)))
    if tiny.any():
        m = 0.5 * (z[tiny] + p[tiny])
        w[tiny] = np.copysign(np.sqrt(np.maximum(m * m - r[tiny], 0.0)), q[tiny])
    # discriminants of y^2 - sz y + (m + w) and y^2 + sz y + (m - w)
    da = -z - 2.0 * p - 4.0 * w
    db = da + 8.0 * w
    dmin = np.minimum(da, db)
    if (dmin < 0.0).any():
        imag = 0.5 * np.sqrt(np.maximum(-dmin, 0.0))
        big = 0.5 * np.sqrt(np.maximum(np.abs(da), np.abs(db)))
        bad = imag > COMPLEX_RTOL * np.maximum(1.0, np.abs(s) + 0.5 * sz + big)
        if bad.any():
            raise HyperbolicityLossError(
                "complex characteristic roots: system is not hyperbolic here",
                discriminant=float(disc[bad][0]),
                max_imag=float(imag[bad].max()),
                indices=np.flatnonzero(bad),
            )
    hz = 0.5 * sz
    ha = 0.5 * np.sqrt(np.maximum(da, 0.0))
    hb = 0.5 * np.sqrt(np.maximum(db, 0.0))
    y = np.empty((4, u1.size))
    y[0] = -hz - hb
    y[1] = -hz + hb
    y[2] = hz - ha
    y[3] = hz + ha

    # one Newton polish per root on ((y-d)^2 - a1)((y+d)^2 - a2) - k
    ym = y - d
    yp = y + d
    f1 = ym * ym - a1
    f2 = yp * yp - a2
    f = f1 * f2 - k
    df = 2.0 * (ym * f2 + yp * f1)
    safe = np.abs(df) > 1e-300
    y -= np.where(safe, f, 0.0) / np.where(safe, df, 1.0)
    lam = np.sort((y + s).T, axis=-1)
    if not np.isfinite(lam).all():
        raise DomainError("characteristic quartic needs finite coefficients")
    return lam.reshape(shape + (4,))


class TwoLayerSystem(System):
    """Two-layer shallow water over a flat bottom, w = (h1, q1, h2, q2)."""

    name = "two_layer"
    components = ("h1", "q1", "h2", "q2")
    thickness = (0, 2)
    conservative_mask = np.array([True, False, True, False])

    def __init__(self, g=9.81, r=0.95):
        if not 0.0 <= r < 1.0:
            raise DomainError("density ratio must satisfy 0 <= r < 1")
        self.g = float(g)
        self.r = float(r)

    def matrix(self, w):
        h1, q1, h2, q2 = self._columns(w)
        u1, u2 = q1 / h1, q2 / h2
        c1sq, c2sq = self.g * h1, self.g * h2
        A = np.zeros(h1.shape + (4, 4))
        A[..., 0, 1] = 1.0
        A[..., 1, 0] = c1sq - u1 * u1
        A[..., 1, 1] = 2.0 * u1
        A[..., 1, 2] = c1sq
        A[..., 2, 3] = 1.0
        A[..., 3, 0] = self.r * c2sq
        A[..., 3, 2] = c2sq - u2 * u2
        A[..., 3, 3] = 2.0 * u2
        return A

    def eigenvalues(self, w):
        h1, q1, h2, q2 = self._columns(w)
        u1, u2 = q1 / h1, q2 / h2
        c1sq, c2sq = self.g * h1, self.g * h2
        return solve_characteristic_quartic(u1, u2, c1sq, c2sq, self.r * c1sq * c2sq)

    def _eigenvectors(self, w, lam):
        """For a root lam the eigenvector is (1, lam, kappa, lam*kappa) with
        kappa = ((lam - u1)^2 - c1^2)/c1^2, which follows from the first two
        block rows of A."""
        h1, q1, _, _ = self._columns(w)
        u1 = q1 / h1
        c1sq = self.g * h1
        kappa = ((lam - u1[..., None]) ** 2 - c1sq[..., None]) / c1sq[..., None]
        return _two_layer_vectors(lam, kappa)

    def roe_eigensystem(self, u_l, u_r, coupling):
        """Eigenpairs of A with Roe-averaged layer speeds and the path
        averages (c1, c2) of h1 against h2 and h2 against h1 in its coupling
        entries g h1 and r g h2."""
        h1l, q1l, h2l, q2l = self._columns(u_l)
        h1r, q1r, h2r, q2r = self._columns(u_r)
        u1 = _roe_velocity(h1l, q1l / h1l, h1r, q1r / h1r)
        u2 = _roe_velocity(h2l, q2l / h2l, h2r, q2r / h2r)
        c1, c2 = coupling
        g = self.g
        c1sq = g * 0.5 * (h1l + h1r)
        c2sq = g * 0.5 * (h2l + h2r)
        bcoup = g * c1
        ccoup = self.r * g * c2
        lam = solve_characteristic_quartic(u1, u2, c1sq, c2sq, bcoup * ccoup)
        kappa = ((lam - u1[..., None]) ** 2 - c1sq[..., None]) / bcoup[..., None]
        return lam, _two_layer_vectors(lam, kappa)

    def eigenvector_matrix(self, lam, K):
        """K, which ``roe_eigensystem`` returns as it is."""
        return K

    def wave_strengths(self, lam, K, du):
        """alpha = K^-1 du for the eigenpairs of ``roe_eigensystem``, by a
        batched solve.

        The left eigenvectors (e (lam - 2 u1), e, b (lam - 2 u2), b), with
        e = (lam - u2)^2 - c2^2 and b = g c1, agree with the solve to 1e-14
        at r = 0.95, but at r = 0, where e vanishes on the lower layer's
        eigenvalues, they leave jump residuals up to 3e-6 on 40,000 random
        pairs, far above the Roe step's 1e-9 bound; the solve leaves 6e-12.
        """
        return np.linalg.solve(K, du[..., None])[..., 0]

    def apply_eigenvectors(self, lam, K, c):
        """K c, by einsum on the matrix that ``wave_strengths`` solves with."""
        return np.einsum("...ij,...j->...i", K, c)

    def jump_integral(self, u_l, u_r, coupling):
        """Flux differences plus the coupling terms g c1 [h2] and r g c2 [h1]
        for the path averages (c1, c2) of h1 against h2 and h2 against h1."""
        c1, c2 = coupling
        F = self.conservative_flux(u_r) - self.conservative_flux(u_l)
        dh1 = u_r[..., 0] - u_l[..., 0]
        dh2 = u_r[..., 2] - u_l[..., 2]
        out = np.empty_like(u_l)
        out[..., 0] = F[..., 0]
        out[..., 1] = F[..., 1] + self.g * c1 * dh2
        out[..., 2] = F[..., 2]
        out[..., 3] = F[..., 3] + self.r * self.g * c2 * dh1
        return out

    def hyperbolicity_indicator(self, w):
        """Interfacial shear measure (u1-u2)^2 / (g' (h1+h2)), g' = (1-r) g.

        Values above ~1 signal loss of hyperbolicity of the internal fields.
        This is an a-priori indicator only; the eigenvalue solver is the
        actual decision rule.
        """
        h1, q1, h2, q2 = self._columns(w)
        u1, u2 = q1 / h1, q2 / h2
        gprime = (1.0 - self.r) * self.g
        return (u1 - u2) ** 2 / (gprime * (h1 + h2))

    def is_admissible(self, w, *, with_speed=False):
        """Positive depths, real and distinct eigenvalues, in one batched solve.

        With ``with_speed`` the result is ``(ok, speed)``: speed is what
        ``max_abs_speed(w)`` returns, from the same solve, or None where that
        call would raise; for a (J, m, 4) stack of jobs, one such speed per
        job.
        """
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 1
        batch = w.reshape(-1, 4)
        ok = self._positive(batch)
        idx = np.flatnonzero(ok)
        try:
            lam = self.eigenvalues(batch[idx])
        except HyperbolicityLossError as exc:
            # the solve is lane-wise, so the other lanes solve to the same roots
            ok[idx[list(exc.indices)]] = False
            idx = np.flatnonzero(ok)
            lam = self.eigenvalues(batch[idx])
        if with_speed:
            top = np.zeros(ok.size)
            top[idx] = np.abs(lam).max(axis=-1)
            speed = _job_speeds(w, top, ok)
        ok[idx] = distinct(lam)
        ok = bool(ok[0]) if scalar else ok.reshape(w.shape[:-1])
        return (ok, speed) if with_speed else ok

    def conservative_flux(self, w):
        h1, q1, h2, q2 = self._columns(w)
        F = np.zeros(h1.shape + (4,))
        F[..., 0] = q1
        F[..., 1] = q1 * q1 / h1 + 0.5 * self.g * h1 * h1
        F[..., 2] = q2
        F[..., 3] = q2 * q2 / h2 + 0.5 * self.g * h2 * h2
        return F


def _two_layer_vectors(lam, kappa):
    """Eigenvector columns (1, lam, kappa, lam kappa) of the two-layer system."""
    K = np.zeros(lam.shape + (4,))  # C order: einsum's rounding follows layout
    K[..., 0, :] = 1.0
    K[..., 1, :] = lam
    K[..., 2, :] = kappa
    K[..., 3, :] = lam * kappa
    return K


SYSTEMS = {
    cls.name: cls for cls in (SimplifiedSystem, ShallowWaterSystem, TwoLayerSystem)
}
