"""Adaptive composite Gauss-Legendre quadrature for vector-valued integrands,
and the central differences that every finite-difference derivative in the
package takes (shock-curve Newton Jacobians, the modified-equation term)."""

from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=1)
def _gl_nodes():
    """The 8-point Gauss-Legendre nodes and weights on [-1, 1], built on
    first use so that runs that never integrate skip importing
    ``np.polynomial`` (about 1.5 MB of peak RSS)."""
    return np.polynomial.legendre.leggauss(8)


def composite_gl(f, a, b, panels):
    """Composite 8-point Gauss-Legendre estimate of int_a^b f(s) ds.

    ``f`` maps an array of points (m,) to values (m, ...); the integral is
    taken componentwise.
    """
    x, w = _gl_nodes()
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * x[None, :]).ravel()
    vals = f(pts)
    vals = vals.reshape((panels, len(x)) + vals.shape[1:])
    return half * np.einsum("j,pj...->...", w, vals)


def adaptive_gl(f, a, b, max_depth=12):
    """Dyadically refined composite Gauss-Legendre integral.

    Refines until two successive estimates differ by less than
    ``max(1e-12, 1e-10 * |I|)`` in the max norm, else raises
    ``QuadratureError`` with the achieved difference attached.
    """
    prev = composite_gl(f, a, b, 1)
    for depth in range(1, max_depth + 1):
        cur = composite_gl(f, a, b, 2**depth)
        diff = np.max(np.abs(cur - prev))
        if diff < max(1e-12, 1e-10 * np.max(np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureError(
        f"quadrature did not converge within {max_depth} refinements",
        achieved=float(diff),
    )


def _central_differences(f, v, rel_step):
    """df/dv_k at v by central differences with the step
    ``rel_step * max(1, |v_k|)``, stacked over k along a new first axis.

    ``f`` is called once, on the (2n, n) stack of the points v + h_k e_k
    (rows 0..n-1) and v - h_k e_k (rows n..2n-1), and must map each row as
    it would map that point alone.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    h = rel_step * np.maximum(1.0, np.abs(v))
    pts = np.tile(v, (2, n, 1))
    k = np.arange(n)
    pts[0, k, k] += h
    pts[1, k, k] -= h
    vals = f(pts.reshape(2 * n, n))
    return (vals[:n] - vals[n:]) / (2.0 * h).reshape((n,) + (1,) * (vals.ndim - 1))
