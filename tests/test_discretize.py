import numpy as np
import pytest

from voltlift.discretize import (build_component, epsilon_k,
                                 reconstructed_kernel)
from voltlift.kernelbasis import (DIFFUSION, DRIFT, DensitySegment,
                                  LiftingBasis, eval_kernel,
                                  make_expsum_basis, make_table_segment,
                                  make_tempered_fractional_basis)
from voltlift.quad import integrate_density, opnorm

EYE = np.eye(1)


def uniform_basis(lo=1.0, hi=2.0):
    seg = DensitySegment(lower=lo, upper=hi,
                         rho=lambda t: np.ones_like(np.asarray(t, float)),
                         Mb=lambda t: EYE, Ms=lambda t: EYE,
                         family="table", params={})
    return LiftingBasis(n=1, atoms=[], segments=[seg], closed_forms={})


def test_atoms_kept_exactly():
    basis = make_expsum_basis([(0.5, 2.0 * EYE, EYE), (4.0, EYE, 3.0 * EYE)])
    comp = build_component(basis, 2, theta_max=8.0)
    assert comp.size == 2
    np.testing.assert_allclose(comp.a, [0.5, 4.0])
    np.testing.assert_allclose(comp.w, [1.0, 1.0])
    np.testing.assert_allclose(comp.Mb[0], 2.0 * EYE)
    np.testing.assert_allclose(comp.Ms[1], 3.0 * EYE)


def test_cells_partition_and_nodes_inside():
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    comp = build_component(basis, 32, theta_max=100.0)
    assert np.all(comp.w > 0)
    assert np.all(comp.a >= comp.lo) and np.all(comp.a <= comp.hi)
    # cells tile [kappa, theta_max] without gaps
    order = np.argsort(comp.lo)
    np.testing.assert_allclose(comp.lo[order][1:], comp.hi[order][:-1],
                               rtol=1e-12)
    assert comp.lo[order][0] == pytest.approx(1.0)
    assert comp.hi[order][-1] == pytest.approx(100.0)


def test_reconstruction_exact_for_atomic_basis():
    basis = make_expsum_basis([(1.0, EYE, EYE), (3.0, 2.0 * EYE, EYE)])
    comp = build_component(basis, 2, theta_max=10.0)
    for t in (0.0, 0.7, 2.0):
        want = np.exp(-t) + 2.0 * np.exp(-3.0 * t)
        assert reconstructed_kernel(comp, DRIFT, t)[0, 0] == pytest.approx(
            want, rel=1e-14)


def test_epsilon_zero_for_pure_expsum():
    basis = make_expsum_basis([(1.0, EYE, EYE), (3.0, EYE, EYE)])
    comp = build_component(basis, 2, theta_max=10.0)
    assert epsilon_k(basis, comp) == 0.0


def test_epsilon_displacement_oracle_single_uniform_cell():
    # One cell on [1, 2] with unit density: the mean node is 1.5 and the
    # displacement term is max(0.5/2, 0.5/3) = 1/4; constant matrices and
    # a fully covered support contribute nothing else.
    basis = uniform_basis(1.0, 2.0)
    comp = build_component(basis, 1, theta_max=2.0)
    assert comp.size == 1
    assert comp.a[0] == pytest.approx(1.5, rel=1e-10)
    assert comp.w[0] == pytest.approx(1.0, rel=1e-10)
    assert epsilon_k(basis, comp) == pytest.approx(0.25, abs=1e-8)


def test_epsilon_requires_matching_basis():
    b1 = make_expsum_basis([(1.0, EYE, EYE)])
    b2 = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(b1, 1, theta_max=2.0)
    with pytest.raises(ValueError):
        epsilon_k(b2, comp)


def test_build_component_validates_arguments():
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_component(basis, 0)
    with pytest.raises(ValueError):
        build_component(basis, 8, theta_max=0.5)
    two_atoms = make_expsum_basis([(1.0, EYE, EYE), (2.0, EYE, EYE)])
    with pytest.raises(ValueError):
        build_component(two_atoms, 1, theta_max=10.0)


def test_epsilon_strictly_decreasing_on_refinement():
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    eps = [epsilon_k(basis, build_component(basis, k, theta_max=200.0))
           for k in (4, 8, 16)]
    assert eps[0] > eps[1] > eps[2]


def table_basis():
    seg = make_table_segment(1.0, 100.0, [1.0, 10.0, 100.0], [1.0, 0.3, 0.1],
                             [[[1.0]], [[2.0]], [[0.5]]],
                             [[[0.5]], [[1.0]], [[2.0]]], n=1)
    return LiftingBasis(n=1, atoms=(), segments=(seg,))


def _qags(f, lo, hi):
    # the QAGS oracle in offset form: f takes u = theta - segment lower
    return integrate_density(f, lo, hi, tol=1e-13)


# Every cell quantity, epsilon_k and the kernel against per-entry QAGS.
@pytest.mark.parametrize("make, theta_max", [
    (lambda: make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0), 64.0),
    (lambda: make_tempered_fractional_basis(0.6, 0.8, 1.0, 2.0), 64.0),
    (lambda: make_tempered_fractional_basis(0.3, 0.95, 0.5, 0.5, n=2), 64.0),
    (table_basis, 50.0),
], ids=["tempered", "two_segments", "n2", "table"])
def test_quadrature_matches_qags_oracle(make, theta_max):
    basis = make()
    comp = build_component(basis, 12, theta_max=theta_max)
    n = basis.n
    err = {DRIFT: 0.0, DIFFUSION: 0.0}
    weight = {DRIFT: -1.5, DIFFUSION: -0.5}
    for i in range(comp.size):
        seg = basis.segments[comp.seg_idx[i]]
        lo, hi, low = comp.lo[i] - seg.lower, comp.hi[i] - seg.lower, seg.lower
        w = _qags(seg.rho, lo, hi)
        want = [w, _qags(lambda u: (low + u) * seg.rho(u), lo, hi) / w]
        got = [comp.w[i], comp.a[i]]
        np.testing.assert_allclose(got, want, rtol=1e-9)
        for which, mfun, mat in ((DRIFT, seg.Mb, comp.Mb[i]),
                                 (DIFFUSION, seg.Ms, comp.Ms[i])):
            want = [[_qags(lambda u: mfun(u)[p, q] * seg.rho(u), lo, hi) / w
                     for q in range(n)] for p in range(n)]
            np.testing.assert_allclose(mat, want, rtol=1e-9)
            err[which] += _qags(
                lambda u: (1 + low + u) ** weight[which]
                * opnorm(mfun(u) - mat) ** 2 * seg.rho(u), lo, hi)
    for seg in basis.segments:
        upper = None if seg.upper is None else seg.upper - seg.lower
        tail = max(theta_max - seg.lower, 0.0)
        for which, mfun in ((DRIFT, seg.Mb), (DIFFUSION, seg.Ms)):
            if upper is None or upper > tail:
                err[which] += _qags(
                    lambda u: (1 + seg.lower + u) ** weight[which]
                    * opnorm(mfun(u)) ** 2 * seg.rho(u), tail, upper)
    disp = max(max(abs(lo - a) / (1 + lo), abs(hi - a) / (1 + hi))
               for lo, hi, a in zip(comp.lo, comp.hi, comp.a))
    assert epsilon_k(basis, comp) == pytest.approx(
        disp + np.sqrt(err[DRIFT]) + np.sqrt(err[DIFFUSION]), rel=1e-9)
    for which in (DRIFT, DIFFUSION):
        for t in (0.01, 0.1, 1.0, 5.0):
            want = np.zeros((n, n))
            for seg in basis.segments:
                upper = None if seg.upper is None else seg.upper - seg.lower
                mfun = seg.Mb if which == DRIFT else seg.Ms
                want += [[_qags(lambda u: np.exp(-(seg.lower + u) * t)
                                * mfun(u)[p, q] * seg.rho(u), 0.0, upper)
                          for q in range(n)] for p in range(n)]
            np.testing.assert_allclose(eval_kernel(basis, which, t), want,
                                       rtol=1e-9)


def _opnorm_by_eigvalsh(a):
    top = np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def test_opnorm_closed_forms_match_eigvalsh():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        rand = rng.standard_normal((500, 3, n, n))
        rank_one = np.einsum("kp,kq->kpq", rng.standard_normal((200, n)),
                             rng.standard_normal((200, n)))
        # singular values 1 and 1e-12 under random rotations
        q1, _ = np.linalg.qr(rng.standard_normal((200, n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((200, n, n)))
        ill = q1 @ (np.eye(n) * np.r_[1.0, 1e-12][:n]) @ q2
        for stack in (rand, rank_one, ill, 1e-80 * rand, 1e80 * rand):
            want = _opnorm_by_eigvalsh(stack)
            if n == 1:
                assert np.array_equal(opnorm(stack), want)
            else:
                np.testing.assert_allclose(opnorm(stack), want, rtol=1e-12)
        assert np.array_equal(opnorm(np.zeros((4, n, n))), np.zeros(4))
    stack = rng.standard_normal((50, 3, 3))
    assert np.array_equal(opnorm(stack), _opnorm_by_eigvalsh(stack))


def test_sliver_cell_mass_is_exact():
    # rho = u^-gb + u^-gs next to kappa, gb = gs = 3/4: the first cell's
    # mass is the sum of w^(1 - g) / (1 - g), w its width.  Forming
    # theta - kappa after theta has rounded to kappa loses 0.28% of it.
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    comp = build_component(basis, 16, theta_max=64.0)
    width = comp.hi[0] - comp.lo[0]
    g = basis.segments[0].params["gamma_b"], basis.segments[0].params["gamma_s"]
    want = sum(width ** (1 - gi) / (1 - gi) for gi in g)
    assert comp.w[0] == pytest.approx(want, rel=1e-12)
