"""Lifting bases for completely monotone kernel pairs.

A basis is a measure mu on [0, inf) given as atoms plus density segments,
together with matrix weights Mb(theta), Ms(theta).  It generates the kernel
pair K(t) = integral of exp(-theta*t) * M(theta) mu(dtheta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .quad import diverges_at_lower, integrate_density, opnorm

DRIFT = "drift"
DIFFUSION = "diffusion"


@dataclass(frozen=True)
class Atom:
    theta: float
    mass: float
    Mb: np.ndarray
    Ms: np.ndarray


@dataclass(frozen=True)
class DensitySegment:
    lower: float
    upper: float | None          # None encodes an unbounded segment
    rho: object                  # scalar density theta -> float
    Mb: object                   # theta -> (n, n) array
    Ms: object
    family: str = "table"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LiftingBasis:
    n: int
    atoms: tuple
    segments: tuple
    # optional exact kernels for built-ins: {"drift": t -> (n, n), ...}
    closed_forms: dict = field(default_factory=dict)


def _as_matrix(m, n):
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} != ({n}, {n})")
    return a


def make_expsum_basis(terms):
    """Purely atomic basis: mu = sum of unit Dirac masses at the rates.

    terms: list of (rate, Mb, Ms).  Generates K(t) = sum exp(-rate*t) * M.
    """
    if not terms:
        raise ValueError("expsum basis needs at least one term")
    rates = [float(t[0]) for t in terms]
    if len(set(rates)) != len(rates):
        raise ValueError("expsum rates must be pairwise distinct")
    if any(r < 0.0 for r in rates):
        raise ValueError("expsum rates must be nonnegative")
    n = np.atleast_2d(np.asarray(terms[0][1], dtype=float)).shape[0]
    atoms = tuple(
        Atom(theta=r, mass=1.0, Mb=_as_matrix(mb, n), Ms=_as_matrix(ms, n))
        for r, mb, ms in terms
    )

    def _closed(which):
        idx = 1 if which == DRIFT else 2
        mats = [_as_matrix(t[idx], n) for t in terms]

        def k(t):
            return sum(math.exp(-r * t) * m for r, m in zip(rates, mats))

        return k

    return LiftingBasis(
        n=n, atoms=atoms, segments=(),
        closed_forms={DRIFT: _closed(DRIFT), DIFFUSION: _closed(DIFFUSION)},
    )


def _tf_callables(p):
    """Density and matrix-weight callables for the tempered fractional family.

    rho(theta) = (theta-kb)^(-gb) 1_{theta>kb} + (theta-ks)^(-gs) 1_{theta>ks}
    Mb(theta)  = cb * (theta-kb)^(-ab) / rho(theta) * I on {theta > kb}
    Ms(theta)  = cs * (theta-ks)^(-as) / rho(theta) * I on {theta > ks}
    """
    ab, as_ = p["alpha_b"], p["alpha_s"]
    kb, ks = p["kappa_b"], p["kappa_s"]
    gb, gs = p["gamma_b"], p["gamma_s"]
    n = p["n"]
    eye = np.eye(n)
    cb = 1.0 / (_gamma(ab) * _gamma(1.0 - ab))
    cs = 1.0 / (_gamma(as_) * _gamma(1.0 - as_))

    def rho(theta):
        v = 0.0
        if theta > kb:
            v += (theta - kb) ** (-gb)
        if theta > ks:
            v += (theta - ks) ** (-gs)
        return v

    def mb(theta):
        if theta <= kb:
            return 0.0 * eye
        return (cb * (theta - kb) ** (-ab) / rho(theta)) * eye

    def ms(theta):
        if theta <= ks:
            return 0.0 * eye
        return (cs * (theta - ks) ** (-as_) / rho(theta)) * eye

    return rho, mb, ms


def make_tempered_fractional_basis(alpha_b, alpha_s, kappa_b, kappa_s,
                                   gamma_b=None, gamma_s=None, n=1):
    """Density basis generating K_b(t) = t^(a-1) e^(-kb t) / Gamma(a) * I
    and the analogous diffusion kernel."""
    if not 0.0 < alpha_b < 1.0:
        raise ValueError("alpha_b must lie in (0, 1)")
    if not 0.5 < alpha_s < 1.0:
        raise ValueError("alpha_s must lie in (1/2, 1)")
    if kappa_b <= 0.0 or kappa_s <= 0.0:
        raise ValueError("tempering rates must be positive")
    if gamma_b is None:
        gamma_b = (alpha_b + 1.0) / 2.0
    if gamma_s is None:
        gamma_s = alpha_s
    gb_lo, gb_hi = max(2 * alpha_b - 1.0, 0.5), min(2 * alpha_b + 0.5, 1.0)
    gs_lo, gs_hi = max(2 * alpha_s - 1.0, 0.5), min(2 * alpha_s - 0.5, 1.0)
    if not gb_lo < gamma_b < gb_hi:
        raise ValueError(f"gamma_b must lie in ({gb_lo}, {gb_hi})")
    if not gs_lo < gamma_s < gs_hi:
        raise ValueError(f"gamma_s must lie in ({gs_lo}, {gs_hi})")

    params = dict(alpha_b=alpha_b, alpha_s=alpha_s, kappa_b=kappa_b,
                  kappa_s=kappa_s, gamma_b=gamma_b, gamma_s=gamma_s, n=n)
    rho, mb, ms = _tf_callables(params)

    klo, khi = min(kappa_b, kappa_s), max(kappa_b, kappa_s)
    segs = []
    if klo < khi:
        segs.append(DensitySegment(klo, khi, rho, mb, ms,
                                   family="tempered_fractional",
                                   params=dict(params)))
    segs.append(DensitySegment(khi, None, rho, mb, ms,
                               family="tempered_fractional",
                               params=dict(params)))

    eye = np.eye(n)

    def k_drift(t):
        return (t ** (alpha_b - 1.0) * math.exp(-kappa_b * t)
                / _gamma(alpha_b)) * eye

    def k_diff(t):
        return (t ** (alpha_s - 1.0) * math.exp(-kappa_s * t)
                / _gamma(alpha_s)) * eye

    return LiftingBasis(n=n, atoms=(), segments=tuple(segs),
                        closed_forms={DRIFT: k_drift, DIFFUSION: k_diff})


def eval_kernel(basis, which, t, quad_tol=1e-10):
    """K(t) = sum over atoms + density integral of exp(-theta t) M(theta)."""
    if t <= 0.0:
        raise ValueError("kernel evaluation requires t > 0")
    if which not in (DRIFT, DIFFUSION):
        raise ValueError(f"unknown kernel tag {which!r}")
    out = np.zeros((basis.n, basis.n))
    for a in basis.atoms:
        m = a.Mb if which == DRIFT else a.Ms
        out += a.mass * math.exp(-a.theta * t) * m
    for seg in basis.segments:
        mfun = seg.Mb if which == DRIFT else seg.Ms
        for p in range(basis.n):
            for q in range(basis.n):
                out[p, q] += integrate_density(
                    lambda th: math.exp(-th * t) * mfun(th)[p, q] * seg.rho(th),
                    seg.lower, seg.upper, tol=quad_tol)
    return out


@dataclass(frozen=True)
class IntegrabilityReport:
    I_mu: float
    I_b: float
    I_sigma: float
    diverges_mu: bool
    diverges_b: bool
    diverges_sigma: bool

    @property
    def all_finite(self):
        return not (self.diverges_mu or self.diverges_b or self.diverges_sigma)


def _measure_integral(basis, f, quad_tol):
    """Integral of scalar f(theta) against mu, with a divergence flag."""
    total = 0.0
    diverges = False
    for a in basis.atoms:
        v = f(a.theta)
        if not np.isfinite(v):
            diverges = True
        else:
            total += a.mass * v
    for seg in basis.segments:
        g = lambda th: f(th) * seg.rho(th)
        if diverges_at_lower(g, seg.lower, seg.upper):
            diverges = True
            continue
        v = integrate_density(g, seg.lower, seg.upper, tol=quad_tol)
        if not np.isfinite(v):
            diverges = True
        else:
            total += v
    return total, diverges


def validate_basis(basis, quad_tol=1e-10):
    """Report the three integrability integrals; divergence is an outcome."""
    def f_mu(th):
        return (1.0 + th) ** -0.5

    def f_b(th):
        return (1.0 + th) ** -1.5 * _opnorm_at(basis, DRIFT, th) ** 2

    def f_s(th):
        return (1.0 + th) ** -0.5 * _opnorm_at(basis, DIFFUSION, th) ** 2

    i_mu, d_mu = _measure_integral(basis, f_mu, quad_tol)
    i_b, d_b = _measure_integral(basis, f_b, quad_tol)
    i_s, d_s = _measure_integral(basis, f_s, quad_tol)
    return IntegrabilityReport(i_mu, i_b, i_s, d_mu, d_b, d_s)


def _opnorm_at(basis, which, theta):
    """Operator norm of M(theta); resolves which atom/segment covers theta."""
    for a in basis.atoms:
        if a.theta == theta:
            return opnorm(a.Mb if which == DRIFT else a.Ms)
    for seg in basis.segments:
        hi = np.inf if seg.upper is None else seg.upper
        if seg.lower <= theta < hi:
            m = (seg.Mb if which == DRIFT else seg.Ms)(theta)
            return opnorm(m)
    return 0.0


def _segment_mass(seg, quad_tol=1e-9):
    # removability probe only; truncate infinite tails (raw segment mass may
    # be infinite for heavy-tailed densities, which still means "not removable")
    hi = seg.upper if seg.upper is not None else seg.lower + 16.0
    return integrate_density(seg.rho, seg.lower, hi, tol=quad_tol)


def inf_support(basis):
    """kappa = inf supp mu: min over atoms and nonzero-mass segment lowers."""
    lows = [a.theta for a in basis.atoms]
    for seg in basis.segments:
        hi = seg.upper if seg.upper is not None else seg.lower + 10.0
        probes = np.linspace(seg.lower, hi, 33)[1:]
        if any(seg.rho(float(t)) > 0.0 for t in probes):
            lows.append(seg.lower)
    if not lows:
        raise ValueError("empty basis has no support")
    return min(lows)


def is_compact_embedding(basis, quad_tol=1e-9):
    """True iff mu is purely atomic (zero-mass segments are removable)."""
    for seg in basis.segments:
        if diverges_at_lower(seg.rho, seg.lower, seg.upper):
            return False
        if _segment_mass(seg, quad_tol) > 0.0:
            return False
    return True


def merge_bases(a, b):
    """Union of atom and segment lists (linear combination of liftable pairs).

    No simplification of redundant representations is attempted.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    thetas = [x.theta for x in a.atoms] + [x.theta for x in b.atoms]
    if len(set(thetas)) != len(thetas):
        raise ValueError("merged bases would duplicate an atom location")
    return LiftingBasis(n=a.n, atoms=a.atoms + b.atoms,
                        segments=a.segments + b.segments, closed_forms={})


# -- serialization ----------------------------------------------------------

def make_table_segment(lower, upper, thetas, rhos, Mbs, Mss, n):
    """Density segment from sampled rows with log-linear interpolation."""
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or th.size < 2 or np.any(np.diff(th) <= 0):
        raise ValueError("table thetas must be strictly increasing, >= 2 rows")
    lr = np.log(np.maximum(np.asarray(rhos, dtype=float), 1e-300))
    mb = np.asarray(Mbs, dtype=float).reshape(th.size, n, n)
    ms = np.asarray(Mss, dtype=float).reshape(th.size, n, n)
    lth = np.log(th)

    def rho(t):
        return float(np.exp(np.interp(np.log(t), lth, lr)))

    def interp_mat(tab, t):
        x = np.log(t)
        out = np.empty((n, n))
        for p in range(n):
            for q in range(n):
                out[p, q] = np.interp(x, lth, tab[:, p, q])
        return out

    return DensitySegment(
        lower=float(lower), upper=None if upper is None else float(upper),
        rho=rho, Mb=lambda t: interp_mat(mb, t), Ms=lambda t: interp_mat(ms, t),
        family="table",
        params=dict(thetas=th.tolist(), rhos=np.asarray(rhos, float).tolist(),
                    Mbs=mb.tolist(), Mss=ms.tolist(), n=n))


def basis_to_json(basis):
    doc = {"n": basis.n, "atoms": [], "segments": []}
    for a in basis.atoms:
        doc["atoms"].append({"theta": a.theta, "mass": a.mass,
                             "Mb": a.Mb.tolist(), "Ms": a.Ms.tolist()})
    for seg in basis.segments:
        # segments are "table" or "tempered_fractional"; params rebuild both
        doc["segments"].append({"lower": seg.lower, "upper": seg.upper,
                                "family": seg.family, **seg.params})
    return json.dumps(doc, indent=2, sort_keys=True)


def basis_from_json(text):
    doc = json.loads(text)
    n = int(doc["n"])
    atoms = tuple(
        Atom(theta=float(a["theta"]), mass=float(a["mass"]),
             Mb=_as_matrix(a["Mb"], n), Ms=_as_matrix(a["Ms"], n))
        for a in doc.get("atoms", ()))
    segs = []
    for s in doc.get("segments", ()):
        if s["family"] == "tempered_fractional":
            params = {k: s[k] for k in ("alpha_b", "alpha_s", "kappa_b",
                                        "kappa_s", "gamma_b", "gamma_s")}
            params["n"] = n
            rho, mb, ms = _tf_callables(params)
            segs.append(DensitySegment(float(s["lower"]),
                                       None if s["upper"] is None
                                       else float(s["upper"]),
                                       rho, mb, ms,
                                       family="tempered_fractional",
                                       params=params))
        elif s["family"] == "table":
            segs.append(make_table_segment(s["lower"], s["upper"],
                                           s["thetas"], s["rhos"],
                                           s["Mbs"], s["Mss"], n))
        else:
            raise ValueError(f"unknown segment family {s['family']!r}")
    if segs and not atoms and all(s.family == "tempered_fractional"
                                  for s in segs):
        # rebuilt by the family's constructor, which adds the closed forms
        p = segs[0].params
        return make_tempered_fractional_basis(
            p["alpha_b"], p["alpha_s"], p["kappa_b"], p["kappa_s"],
            p["gamma_b"], p["gamma_s"], n)
    return LiftingBasis(n=n, atoms=atoms, segments=tuple(segs))
