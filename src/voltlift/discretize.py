"""Finite approximating components of a lifting basis.

A component is a finite family of cells (interval or atom), each carrying a
node a_i, a mass w_i = mu(cell), mu-averaged matrices, and the two norm
weights hH_i, hV_i used by the embedding of finite states into the lifted
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernelbasis import DIFFUSION, DRIFT, LiftingBasis, inf_support
from .quad import integrate_density, opnorm

FIRST_CELL_FRACTION = 1e-6


@dataclass(frozen=True)
class ApproximatingComponent:
    n: int
    a: np.ndarray        # (I,) nodes
    w: np.ndarray        # (I,) cell masses, > 0
    Mb: np.ndarray       # (I, n, n)
    Ms: np.ndarray       # (I, n, n)
    hH: np.ndarray       # (I,)  integral of (1+theta)^(-1/2) over the cell
    hV: np.ndarray       # (I,)  integral of (1+theta)^(+1/2) over the cell
    lo: np.ndarray       # (I,) cell lower bounds (== hi for atoms)
    hi: np.ndarray
    is_atom: np.ndarray  # (I,) bool
    seg_idx: np.ndarray  # (I,) index into source.segments, -1 for atoms
    theta_max: float
    source: LiftingBasis | None = None

    @property
    def size(self):
        return self.a.size


def _cell_quads(seg, lo, hi, n, quad_tol):
    """Mass, mean node, averaged matrices and norm weights of one cell."""
    w = integrate_density(seg.rho, lo, hi, tol=quad_tol)
    m1 = integrate_density(lambda t: t * seg.rho(t), lo, hi, tol=quad_tol)
    node = min(max(m1 / w, lo), hi) if w > 0.0 else 0.5 * (lo + hi)
    hH = integrate_density(lambda t: (1 + t) ** -0.5 * seg.rho(t), lo, hi,
                           tol=quad_tol)
    hV = integrate_density(lambda t: (1 + t) ** 0.5 * seg.rho(t), lo, hi,
                           tol=quad_tol)
    mb = np.empty((n, n))
    ms = np.empty((n, n))
    for p in range(n):
        for q in range(n):
            mb[p, q] = integrate_density(
                lambda t: seg.Mb(t)[p, q] * seg.rho(t), lo, hi, tol=quad_tol)
            ms[p, q] = integrate_density(
                lambda t: seg.Ms(t)[p, q] * seg.rho(t), lo, hi, tol=quad_tol)
    if w > 0.0:
        mb /= w
        ms /= w
    return w, node, mb, ms, hH, hV


def _segment_edges(lo, hi, m, f0=FIRST_CELL_FRACTION):
    """Geometric cell edges on [lo, hi]: a sliver against the (possibly
    singular) lower endpoint followed by m-1 geometrically growing cells.
    The sliver width is tied to the local scale 1 + lo, not the clipped
    span, so a large cutoff cannot starve the endpoint of resolution."""
    span = hi - lo
    if m == 1:
        return np.array([lo, hi])
    first = f0 * min(span, 1.0 + lo)
    offsets = np.geomspace(first, span, m)
    return np.concatenate(([lo], lo + offsets))


def build_component(basis, node_count, theta_max="auto", quad_tol=1e-10):
    """Discretize a basis: atoms below theta_max kept exactly, density
    segments partitioned geometrically with mu-averaged matrices."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if theta_max == "auto":
        theta_max = auto_theta_max(basis, node_count, quad_tol)
    theta_max = float(theta_max)
    kappa = inf_support(basis)
    if theta_max <= kappa:
        raise ValueError("theta_max must exceed inf_support of the basis")

    atoms = [a for a in basis.atoms if a.theta < theta_max]
    if node_count < len(atoms):
        raise ValueError("node_count smaller than the number of atoms kept")

    rows = []
    for a in atoms:
        rows.append(dict(
            a=a.theta, w=a.mass, Mb=a.Mb, Ms=a.Ms,
            hH=a.mass * (1 + a.theta) ** -0.5,
            hV=a.mass * (1 + a.theta) ** 0.5,
            lo=a.theta, hi=a.theta, is_atom=True, seg=-1))

    clipped = []
    for j, seg in enumerate(basis.segments):
        hi = theta_max if seg.upper is None else min(seg.upper, theta_max)
        if hi > seg.lower:
            clipped.append((j, seg, seg.lower, hi))
    budget = node_count - len(atoms)
    if clipped:
        if budget < len(clipped):
            raise ValueError("node_count leaves no room for density cells")
        spans = np.array([np.log((1 + h) / (1 + l)) for _, _, l, h in clipped])
        alloc = np.maximum(1, np.round(budget * spans / spans.sum()).astype(int))
        while alloc.sum() > budget:
            alloc[np.argmax(alloc)] -= 1
        while alloc.sum() < budget:
            alloc[np.argmin(alloc)] += 1
        for (j, seg, l, h), m in zip(clipped, alloc):
            edges = _segment_edges(l, h, int(m))
            for lo_c, hi_c in zip(edges[:-1], edges[1:]):
                w, node, mb, ms, hh, hv = _cell_quads(seg, lo_c, hi_c,
                                                      basis.n, quad_tol)
                if w <= 0.0:
                    continue
                rows.append(dict(a=node, w=w, Mb=mb, Ms=ms,
                                 hH=hh, hV=hv, lo=lo_c, hi=hi_c,
                                 is_atom=False, seg=j))

    if not rows:
        raise ValueError("no cells below theta_max")
    order = np.argsort([r["a"] for r in rows], kind="stable")
    rows = [rows[i] for i in order]
    return ApproximatingComponent(
        n=basis.n,
        a=np.array([r["a"] for r in rows]),
        w=np.array([r["w"] for r in rows]),
        Mb=np.stack([np.atleast_2d(r["Mb"]) for r in rows]),
        Ms=np.stack([np.atleast_2d(r["Ms"]) for r in rows]),
        hH=np.array([r["hH"] for r in rows]),
        hV=np.array([r["hV"] for r in rows]),
        lo=np.array([r["lo"] for r in rows]),
        hi=np.array([r["hi"] for r in rows]),
        is_atom=np.array([r["is_atom"] for r in rows]),
        seg_idx=np.array([r["seg"] for r in rows]),
        theta_max=theta_max,
        source=basis)


def _interior_matrix_errors(basis, component, quad_tol):
    """Squared weighted L2 distances of Mb, Ms to the cell averages."""
    e_b = 0.0
    e_s = 0.0
    for i in range(component.size):
        if component.is_atom[i]:
            continue
        seg = basis.segments[component.seg_idx[i]]
        mb_i = component.Mb[i]
        ms_i = component.Ms[i]
        e_b += integrate_density(
            lambda t: (1 + t) ** -1.5 * opnorm(seg.Mb(t) - mb_i) ** 2
            * seg.rho(t),
            component.lo[i], component.hi[i], tol=quad_tol)
        e_s += integrate_density(
            lambda t: (1 + t) ** -0.5 * opnorm(seg.Ms(t) - ms_i) ** 2
            * seg.rho(t),
            component.lo[i], component.hi[i], tol=quad_tol)
    return e_b, e_s


def tail_matrix_errors(basis, theta_max, quad_tol=1e-9):
    """Squared tail contributions: the whole |M|^2 is charged above theta_max."""
    t_b = 0.0
    t_s = 0.0
    for a in basis.atoms:
        if a.theta >= theta_max:
            t_b += a.mass * (1 + a.theta) ** -1.5 * opnorm(a.Mb) ** 2
            t_s += a.mass * (1 + a.theta) ** -0.5 * opnorm(a.Ms) ** 2
    for seg in basis.segments:
        hi = np.inf if seg.upper is None else seg.upper
        if hi <= theta_max:
            continue
        lo = max(seg.lower, theta_max)
        t_b += integrate_density(
            lambda t: (1 + t) ** -1.5 * opnorm(seg.Mb(t)) ** 2 * seg.rho(t),
            lo, seg.upper, tol=quad_tol)
        t_s += integrate_density(
            lambda t: (1 + t) ** -0.5 * opnorm(seg.Ms(t)) ** 2 * seg.rho(t),
            lo, seg.upper, tol=quad_tol)
    return t_b, t_s


def epsilon_k(basis, component, quad_tol=1e-9):
    """Error functional: node displacement plus the two weighted matrix
    approximation errors (uncovered tail charged in full)."""
    if component.source is not basis:
        raise ValueError("component was not built from this basis")
    disp = 0.0
    for i in range(component.size):
        if component.is_atom[i]:
            continue
        lo, hi, a = component.lo[i], component.hi[i], component.a[i]
        # |theta - a| / (1 + theta) is piecewise monotone about a
        disp = max(disp, abs(lo - a) / (1 + lo), abs(hi - a) / (1 + hi))
    e_b, e_s = _interior_matrix_errors(basis, component, quad_tol)
    t_b, t_s = tail_matrix_errors(basis, component.theta_max, quad_tol)
    return disp + np.sqrt(e_b + t_b) + np.sqrt(e_s + t_s)


def auto_theta_max(basis, node_count, quad_tol=1e-9):
    """Doubling search: pick the cutoff minimizing the total error
    functional. Raising the cutoff shrinks the uncovered tail but spreads
    the fixed node budget thinner, so the proxy is unimodal in practice;
    stop once it has worsened on two consecutive doublings."""
    kappa = inf_support(basis)
    top_atom = max((a.theta for a in basis.atoms), default=0.0)
    if not basis.segments:
        return top_atom + 1.0
    cand = max(16.0, 4.0 * max(kappa, 1.0), 2.0 * top_atom)
    # the search itself runs on a capped budget: the argmin moves little
    # with the node count while the cost grows linearly in it
    probe = min(node_count, max(48, len(basis.atoms) + len(basis.segments)))
    best, best_val, worse = cand, np.inf, 0
    for _ in range(16):
        comp = build_component(basis, probe, cand, quad_tol)
        val = epsilon_k(basis, comp, quad_tol)
        if val < best_val:
            best, best_val, worse = cand, val, 0
        else:
            worse += 1
            if worse >= 2:
                break
        cand *= 2.0
    return best


def reconstructed_kernel(component, which, t):
    """Exact sum-of-exponentials kernel of the component."""
    if which == DRIFT:
        mats = component.Mb
    elif which == DIFFUSION:
        mats = component.Ms
    else:
        raise ValueError(f"unknown kernel tag {which!r}")
    damp = component.w * np.exp(-component.a * t)
    return np.einsum("i,ipq->pq", damp, mats)


def observe(component, z):
    """(X, normH, normV) of a finite state z with shape (..., I, n)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-2] != component.size or z.shape[-1] != component.n:
        raise ValueError("state shape does not match the component")
    x = np.einsum("i,...ip->...p", component.w, z)
    sq = np.einsum("...ip,...ip->...i", z, z)
    nh = np.sqrt(np.einsum("i,...i->...", component.hH, sq))
    nv = np.sqrt(np.einsum("i,...i->...", component.hV, sq))
    return x, nh, nv

