"""Lifting bases for completely monotone kernel pairs.

A basis is a measure mu on [0, inf) given as atoms plus density segments,
together with matrix weights Mb(theta), Ms(theta).  It generates the kernel
pair K(t) = integral of exp(-theta*t) * M(theta) mu(dtheta).

A segment's density and matrices are functions of the offset
u = theta - lower, evaluated over arrays: rho maps u to an array of u's
shape, Mb and Ms to u's shape + (n, n) (a constant matrix may come back as
a single (n, n)).  Offsets keep their relative precision next to a
singular lower endpoint, where theta itself would round to the endpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .quad import diverges_at_lower, nodes, opnorm

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
    rho: object                  # density, offsets u -> u.shape
    Mb: object                   # offsets u -> u.shape + (n, n)
    Ms: object
    family: str = "table"
    params: dict = field(default_factory=dict)
    kinks: tuple = ()            # offsets where rho, Mb or Ms have a kink

    @property
    def span(self):
        return np.inf if self.upper is None else self.upper - self.lower


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


def _tf_callables(p, lower):
    """Density and matrix weights of the tempered fractional family at the
    offsets u = theta - lower of a segment.

    rho(theta) = (theta-kb)^(-gb) 1_{theta>kb} + (theta-ks)^(-gs) 1_{theta>ks}
    Mb(theta)  = cb * (theta-kb)^(-ab) / rho(theta) * I on {theta > kb}
    Ms(theta)  = cs * (theta-ks)^(-as) / rho(theta) * I on {theta > ks}
    """
    ab, as_ = p["alpha_b"], p["alpha_s"]
    kb, ks = p["kappa_b"], p["kappa_s"]
    gb, gs = p["gamma_b"], p["gamma_s"]
    eye = np.eye(p["n"])
    cb = 1.0 / (math.gamma(ab) * math.gamma(1.0 - ab))
    cs = 1.0 / (math.gamma(as_) * math.gamma(1.0 - as_))

    def power(u, kappa, g):
        # theta - kappa formed as (lower - kappa) + u: exact when lower == kappa
        d = (lower - kappa) + np.asarray(u, dtype=float)
        # zero at and below kappa, where no power is taken
        return np.power(d, -g, out=np.zeros_like(d), where=d > 0.0)

    def rho(u):
        return power(u, kb, gb) + power(u, ks, gs)

    def mb(u):
        return (cb * power(u, kb, ab) / rho(u))[..., None, None] * eye

    def ms(u):
        return (cs * power(u, ks, as_) / rho(u))[..., None, None] * eye

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
    klo, khi = min(kappa_b, kappa_s), max(kappa_b, kappa_s)
    bounds = [(klo, khi), (khi, None)] if klo < khi else [(khi, None)]
    segs = [DensitySegment(lo, hi, *_tf_callables(params, lo),
                           family="tempered_fractional", params=dict(params))
            for lo, hi in bounds]

    eye = np.eye(n)

    def k_drift(t):
        return (t ** (alpha_b - 1.0) * math.exp(-kappa_b * t)
                / math.gamma(alpha_b)) * eye

    def k_diff(t):
        return (t ** (alpha_s - 1.0) * math.exp(-kappa_s * t)
                / math.gamma(alpha_s)) * eye

    return LiftingBasis(n=n, atoms=(), segments=tuple(segs),
                        closed_forms={DRIFT: k_drift, DIFFUSION: k_diff})


def _offset_nodes(seg, lo, hi):
    """Offsets u and rule weights w, shape (I, N), of the offset intervals
    (lo, hi) of a segment: the integral of g(u) over interval i is
    sum(w[i] * g(u[i])).

    lo and hi broadcast to 1-d (hi may be inf).  Each interval is split at
    the segment's kinks and each piece gets the rule of ``quad.nodes``.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.asarray(hi, dtype=float))
    kinks = np.asarray(seg.kinks, dtype=float)
    first = np.searchsorted(kinks, lo, "right")[:, None]
    inner = np.maximum(np.searchsorted(kinks, hi, "left")[:, None] - first, 0)
    # piece j of an interval lies between its cuts j and j + 1; an interval
    # with fewer kinks than another repeats its last piece with zero weight
    j = np.arange(inner.max() + 1)
    piece = np.minimum(j, inner)
    cuts = np.append(kinks, np.nan)
    a = np.where(piece == 0, lo[:, None], cuts[first + piece - 1])
    b = np.where(piece == inner, hi[:, None], cuts[first + piece])
    u, w = nodes(a, b)
    return ((a[..., None] + u).reshape(lo.size, -1),
            np.where((j <= inner)[..., None], w, 0.0).reshape(lo.size, -1))


def segment_nodes(seg, lo, hi):
    """Quadrature nodes of the offset intervals (lo, hi) of a segment.

    Returns theta and the rho-weighted weights, shape (I, N), and Mb, Ms,
    shape (I, N, n, n), at the nodes of ``_offset_nodes``: the integral of
    f(theta) rho over interval i is sum(w[i] * f(theta[i])).
    """
    u, w = _offset_nodes(seg, lo, hi)

    def mats(f):
        m = np.asarray(f(u), dtype=float)
        return np.broadcast_to(m, u.shape + m.shape[-2:])

    return seg.lower + u, w * seg.rho(u), mats(seg.Mb), mats(seg.Ms)


def _segment_integral(seg, f, lo, hi):
    """Integrals of f(theta, Mb, Ms) rho over the offset intervals (lo, hi)."""
    th, w, mb, ms = segment_nodes(seg, lo, hi)
    return np.sum(w * f(th, mb, ms), axis=-1)


def eval_kernel(basis, which, t):
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
        th, w, mb, ms = segment_nodes(seg, 0.0, seg.span)
        out += np.einsum("ik,ikpq->pq", w * np.exp(-th * t),
                         mb if which == DRIFT else ms)
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


def _measure_integral(basis, f):
    """Integral of f(theta, Mb, Ms) against mu, with a divergence flag."""
    total = 0.0
    diverges = False
    for a in basis.atoms:
        v = f(a.theta, a.Mb, a.Ms)
        if not np.isfinite(v):
            diverges = True
        else:
            total += a.mass * v
    for seg in basis.segments:
        if diverges_at_lower(partial(_segment_integral, seg, f), seg.span):
            diverges = True
            continue
        v = _segment_integral(seg, f, 0.0, seg.span)[0]
        if not np.isfinite(v):
            diverges = True
        else:
            total += v
    return total, diverges


def validate_basis(basis):
    """Report the three integrability integrals; divergence is an outcome."""
    def f_mu(th, mb, ms):
        return (1.0 + th) ** -0.5

    def f_b(th, mb, ms):
        return (1.0 + th) ** -1.5 * opnorm(mb) ** 2

    def f_s(th, mb, ms):
        return (1.0 + th) ** -0.5 * opnorm(ms) ** 2

    i_mu, d_mu = _measure_integral(basis, f_mu)
    i_b, d_b = _measure_integral(basis, f_b)
    i_s, d_s = _measure_integral(basis, f_s)
    return IntegrabilityReport(i_mu, i_b, i_s, d_mu, d_b, d_s)


def _density(th, mb, ms):
    return 1.0


def _segment_mass(seg):
    # removability probe only; truncate infinite tails (raw segment mass may
    # be infinite for heavy-tailed densities, which still means "not removable")
    u, w = _offset_nodes(seg, 0.0, min(seg.span, 16.0))
    return np.sum(w * seg.rho(u), axis=-1)[0]


def inf_support(basis):
    """kappa = inf supp mu: min over atoms and nonzero-mass segment lowers."""
    lows = [a.theta for a in basis.atoms]
    lows += [seg.lower for seg in basis.segments if _segment_mass(seg) > 0.0]
    if not lows:
        raise ValueError("empty basis has no support")
    return min(lows)


def is_compact_embedding(basis):
    """True iff mu is purely atomic (zero-mass segments are removable)."""
    return not any(
        diverges_at_lower(partial(_segment_integral, seg, _density), seg.span)
        or _segment_mass(seg) > 0.0 for seg in basis.segments)


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
    lower = float(lower)
    lr = np.log(np.maximum(np.asarray(rhos, dtype=float), 1e-300))
    mb = np.asarray(Mbs, dtype=float).reshape(th.size, n, n)
    ms = np.asarray(Mss, dtype=float).reshape(th.size, n, n)
    lth = np.log(th)

    def interp(tab, u):
        # np.interp in log theta (clamped at the end rows), over the rows
        # of a table of any trailing shape
        x = np.log(lower + np.asarray(u, dtype=float))
        i = np.clip(np.searchsorted(lth, x), 1, th.size - 1)
        f = np.clip((x - lth[i - 1]) / (lth[i] - lth[i - 1]), 0.0, 1.0)
        f = f.reshape(f.shape + (1,) * (tab.ndim - 1))
        return (1.0 - f) * tab[i - 1] + f * tab[i]

    return DensitySegment(
        lower=lower, upper=None if upper is None else float(upper),
        rho=lambda u: np.exp(interp(lr, u)), Mb=lambda u: interp(mb, u),
        Ms=lambda u: interp(ms, u), family="table",
        params=dict(thetas=th.tolist(), rhos=np.asarray(rhos, float).tolist(),
                    Mbs=mb.tolist(), Mss=ms.tolist(), n=n),
        kinks=tuple(th - lower))


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
            lower = float(s["lower"])
            segs.append(DensitySegment(lower,
                                       None if s["upper"] is None
                                       else float(s["upper"]),
                                       *_tf_callables(params, lower),
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
