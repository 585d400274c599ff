"""Finite approximating components of a lifting basis.

A component is a finite family of cells (interval or atom), each carrying a
node a_i, a mass w_i = mu(cell) and mu-averaged matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernelbasis import (DIFFUSION, DRIFT, LiftingBasis, inf_support,
                          segment_nodes)
from .quad import opnorm

FIRST_CELL_FRACTION = 1e-6


@dataclass(frozen=True)
class ApproximatingComponent:
    n: int
    a: np.ndarray        # (I,) nodes
    w: np.ndarray        # (I,) cell masses, > 0
    Mb: np.ndarray       # (I, n, n)
    Ms: np.ndarray       # (I, n, n)
    lo: np.ndarray       # (I,) cell lower bounds (== hi for atoms)
    hi: np.ndarray
    is_atom: np.ndarray  # (I,) bool
    seg_idx: np.ndarray  # (I,) index into source.segments, -1 for atoms
    theta_max: float
    source: LiftingBasis | None = None

    @property
    def size(self):
        return self.a.size


def _cell_quads(seg, lo, hi):
    """Mean nodes, masses and averaged matrices of the cells (lo, hi) of a
    segment (theta arrays)."""
    th, w, mb, ms = segment_nodes(seg, lo - seg.lower, hi - seg.lower)
    mass = w.sum(axis=-1)
    m1 = np.einsum("ik,ik->i", w, th)
    mb = np.einsum("ik,ikpq->ipq", w, mb)
    ms = np.einsum("ik,ikpq->ipq", w, ms)
    safe = np.where(mass > 0.0, mass, 1.0)[:, None, None]  # 0: cell dropped
    node = np.clip(m1 / safe[:, 0, 0], lo, hi)
    return node, mass, mb / safe, ms / safe


def _segment_edges(lo, hi, m):
    """Geometric cell edges on [lo, hi]: a sliver against the (possibly
    singular) lower endpoint followed by m-1 geometrically growing cells.
    The sliver width is tied to the local scale 1 + lo, not the clipped
    span, so a large cutoff cannot starve the endpoint of resolution."""
    span = hi - lo
    if m == 1:
        return np.array([lo, hi])
    first = FIRST_CELL_FRACTION * min(span, 1.0 + lo)
    offsets = np.geomspace(first, span, m)
    return np.concatenate(([lo], lo + offsets))


def build_component(basis, node_count, theta_max="auto"):
    """Discretize a basis: atoms below theta_max kept exactly, density
    segments partitioned geometrically with mu-averaged matrices."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if theta_max == "auto":
        theta_max = auto_theta_max(basis, node_count)
    theta_max = float(theta_max)
    kappa = inf_support(basis)
    if theta_max <= kappa:
        raise ValueError("theta_max must exceed inf_support of the basis")

    atoms = [a for a in basis.atoms if a.theta < theta_max]
    if node_count < len(atoms):
        raise ValueError("node_count smaller than the number of atoms kept")

    # one row per cell, in the field order of ApproximatingComponent
    rows = [(a.theta, a.mass, a.Mb, a.Ms, a.theta, a.theta, True, -1)
            for a in atoms]

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
            cells = zip(*_cell_quads(seg, edges[:-1], edges[1:]),
                        edges[:-1], edges[1:])
            rows += [(*cell, False, j) for cell in cells if cell[1] > 0.0]

    if not rows:
        raise ValueError("no cells below theta_max")
    rows.sort(key=lambda row: row[0])  # by node, stable on ties
    return ApproximatingComponent(basis.n, *map(np.array, zip(*rows)),
                                  theta_max=theta_max, source=basis)


def _matrix_errors(basis, component):
    """Squared weighted L2 distances of Mb, Ms to the cell averages, with
    the whole |M|^2 charged on the uncovered tail above theta_max."""
    theta_max = component.theta_max
    e_b = 0.0
    e_s = 0.0
    for a in basis.atoms:
        if a.theta >= theta_max:
            e_b += a.mass * (1 + a.theta) ** -1.5 * opnorm(a.Mb) ** 2
            e_s += a.mass * (1 + a.theta) ** -0.5 * opnorm(a.Ms) ** 2
    zero = np.zeros((1, basis.n, basis.n))
    for j, seg in enumerate(basis.segments):
        # one offset interval per cell, plus the tail with zero matrices
        cells = component.seg_idx == j
        lo = component.lo[cells] - seg.lower
        hi = component.hi[cells] - seg.lower
        mb, ms = component.Mb[cells], component.Ms[cells]
        tail = max(theta_max - seg.lower, 0.0)
        if seg.span > tail:
            lo, hi = np.append(lo, tail), np.append(hi, seg.span)
            mb, ms = np.concatenate((mb, zero)), np.concatenate((ms, zero))
        if lo.size == 0:
            continue
        th, w, mb_at, ms_at = segment_nodes(seg, lo, hi)
        e_b += np.sum(w * (1 + th) ** -1.5
                      * opnorm(mb_at - mb[:, None]) ** 2)
        e_s += np.sum(w * (1 + th) ** -0.5
                      * opnorm(ms_at - ms[:, None]) ** 2)
    return e_b, e_s


def epsilon_k(basis, component):
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
    e_b, e_s = _matrix_errors(basis, component)
    return disp + np.sqrt(e_b) + np.sqrt(e_s)


def auto_theta_max(basis, node_count):
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
        comp = build_component(basis, probe, cand)
        val = epsilon_k(basis, comp)
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
