"""Quadrature for hybrid measures (atoms plus density segments).

Density integrands may carry an integrable power singularity at the lower
endpoint of their segment.  The production rule is ``nodes``, a fixed
double-exponential rule evaluated over arrays; it also integrates the
direct Volterra scheme's kernels, which may be singular at t = 0, over its
steps.  ``integrate_density`` is adaptive QAGS after the substitution
theta = lower + s**2, which flattens (theta - lower)**(-g) for g < 1; it is
kept as the reference oracle, and it is the only function that needs
scipy, which it imports when called.
"""

from __future__ import annotations

import warnings

import numpy as np

PROBE_DEPTH = 12
# a nonintegrable power tail pins successive sliver ratios at or above 1;
# integrable exponents near 1 can sit in the high 0.9s, so keep margin thin
DIVERGENCE_RATIO = 0.99
HUGE = 1e12


def integrate_density(f, lower, upper, tol=1e-10):
    """Integrate scalar f(theta) over (lower, upper); upper=None means +inf."""
    from scipy import integrate

    hi = np.inf if upper is None else float(upper)
    lo = float(lower)
    if hi <= lo:
        return 0.0
    s_hi = np.inf if hi == np.inf else np.sqrt(hi - lo)

    def g(s):
        return 2.0 * s * f(lo + s * s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if s_hi == np.inf:
            # split at s = 1: the finite piece isolates the endpoint
            # singularity (QAGS handles it), the tail piece is smooth
            v1, _ = integrate.quad(g, 0.0, 1.0, epsabs=tol, epsrel=tol,
                                   limit=400)
            v2, _ = integrate.quad(g, 1.0, np.inf, epsabs=tol, epsrel=tol,
                                   limit=400)
            val = v1 + v2
        else:
            val, _ = integrate.quad(g, 0.0, s_hi, epsabs=tol, epsrel=tol,
                                    limit=400)
    return val


# No caller in the package: kept only while perfbench/tracer.py wraps it by
# name, and deleted with that span.
def diverges_at_lower(integral, span, depth=PROBE_DEPTH):
    """Heuristic divergence flag for a suspected lower-endpoint singularity.

    integral(lo, hi) integrates over offset intervals from the endpoint.
    Shrink a cutoff geometrically toward the endpoint; the successive sliver
    contributions of a convergent power singularity decay geometrically,
    while a non-integrable one yields ratios pinned at or above 1.  The
    threshold below is a documented heuristic, not a certificate.
    """
    span = min(1.0, span / 2.0)
    if span <= 0.0:
        return False
    # cutoffs halve in sqrt(offset), the variable of integrate_density
    vals = integral(span * 4.0 ** -np.arange(1.0, depth + 1.0), span)
    if not np.all(np.isfinite(vals)):
        return True
    if abs(vals[-1]) >= HUGE:
        return True
    inc = np.diff(vals)
    total = abs(vals[-1]) + 1e-300
    if inc[-1] <= 1e-8 * total:
        return False
    tail = inc[-4:]
    if np.any(tail[:-1] <= 0.0):
        return False
    ratios = tail[1:] / tail[:-1]
    return bool(np.mean(ratios) > DIVERGENCE_RATIO)


# Double-exponential rule (Takahasi & Mori 1974): t in [-6, 6] with step
# 1/32 (step 1/8 is off by 4e-5 on the integral of exp(-0.01 u) u^-1/2),
# mapped through s = pi sinh(t).  The tanh-sinh offset 1 / (1 + e^-s) and
# the exp-sinh offset e^s both reach e^-633 at t = -6 without cancellation.
_T = np.arange(-192, 193) / 32.0
_S = np.pi * np.sinh(_T)
_DS = np.pi * np.cosh(_T) / 32.0
_U_FINITE = 1.0 / (1.0 + np.exp(-_S))  # on (0, 1)
_W_FINITE = _DS / (2.0 * np.cosh(0.5 * _S)) ** 2
_U_INF = np.exp(_S)  # on (0, inf)
_W_INF = _U_INF * _DS


def nodes(a, b):
    """Offsets from a and weights of the double-exponential rule on (a, b).

    a and b broadcast, b may be inf, and the node axis is appended last.
    An integrand singular at a is evaluated at the offsets, which keep
    their relative precision there.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float)[..., None],
                               np.asarray(b, float)[..., None])
    inf = np.isinf(b)
    span = np.where(inf, 1.0, b - a)
    return (np.where(inf, _U_INF, span * _U_FINITE),
            np.where(inf, _W_INF, span * _W_FINITE))


def opnorm(mat):
    """Operator (spectral) norm of a matrix, or of each matrix of a stack."""
    a = np.asarray(mat, dtype=float)
    if a.ndim <= 2:
        return float(np.linalg.norm(np.atleast_2d(a), 2))
    # top eigenvalue of the Gram matrix G = M^T M, in closed form for n <= 2
    n = a.shape[-1]
    if n == 1:
        top = a[..., 0, 0] ** 2
    elif n == 2:
        c0, c1 = a[..., 0], a[..., 1]
        g11 = c0[..., 0] ** 2 + c0[..., 1] ** 2
        g22 = c1[..., 0] ** 2 + c1[..., 1] ** 2
        g12 = c0[..., 0] * c1[..., 0] + c0[..., 1] * c1[..., 1]
        top = 0.5 * (g11 + g22 + np.hypot(g11 - g22, 2.0 * g12))
    else:
        top = np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))
