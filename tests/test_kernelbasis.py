import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from voltlift.kernelbasis import (DIFFUSION, DRIFT, DensitySegment,
                                  LiftingBasis, basis_from_json,
                                  basis_to_json, eval_kernel, inf_support,
                                  make_expsum_basis, make_table_segment,
                                  make_tempered_fractional_basis)

EYE = np.eye(1)


def test_expsum_kernel_matches_direct_sum():
    terms = [(0.5, 2.0 * EYE, 1.0 * EYE), (3.0, 1.0 * EYE, 0.5 * EYE)]
    basis = make_expsum_basis(terms)
    for t in (0.01, 0.1, 1.0, 7.5):
        kb = eval_kernel(basis, DRIFT, t)
        ks = eval_kernel(basis, DIFFUSION, t)
        assert kb[0, 0] == pytest.approx(
            2.0 * math.exp(-0.5 * t) + math.exp(-3.0 * t), rel=1e-14)
        assert ks[0, 0] == pytest.approx(
            math.exp(-0.5 * t) + 0.5 * math.exp(-3.0 * t), rel=1e-14)


def test_expsum_closed_forms_agree_with_quadrature_path():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    for t in (0.2, 1.0, 4.0):
        assert basis.closed_forms[DRIFT](t)[0, 0] == pytest.approx(
            math.exp(-t), rel=1e-14)
    # an array of times, given trailing matrix axes, maps to t.shape + (n, n)
    t = np.array([0.2, 1.0, 4.0])
    got = basis.closed_forms[DRIFT](t[:, None, None])
    assert got.shape == (3, 1, 1)
    np.testing.assert_allclose(got[:, 0, 0], np.exp(-t), rtol=1e-14)


def test_expsum_rejects_bad_rates():
    with pytest.raises(ValueError):
        make_expsum_basis([(-1.0, EYE, EYE)])
    with pytest.raises(ValueError):
        make_expsum_basis([(1.0, EYE, EYE), (1.0, EYE, EYE)])


# Laplace-transform oracle: the density quadrature must reproduce the
# closed-form power-law kernel t^(a-1) e^(-kappa t) / Gamma(a).
@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_tempered_fractional_laplace_identity(alpha):
    basis = make_tempered_fractional_basis(alpha, 0.75, 1.0, 1.0)
    for t in (0.1, 1.0, 3.0):
        got = eval_kernel(basis, DRIFT, t)[0, 0]
        want = t ** (alpha - 1.0) * math.exp(-t) / math.gamma(alpha)
        assert got == pytest.approx(want, rel=1e-7)


def test_tempered_fractional_frozen_values():
    # t = 1, kappa = 1: K(1) = e^(-1) / Gamma(alpha)
    b1 = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    assert eval_kernel(b1, DRIFT, 1.0)[0, 0] == pytest.approx(
        0.20755374871029735, rel=1e-7)   # e^(-1) / sqrt(pi)
    assert eval_kernel(b1, DIFFUSION, 1.0)[0, 0] == pytest.approx(
        0.3002076276840173, rel=1e-7)   # e^(-1) / Gamma(3/4)


def test_tempered_fractional_rejects_out_of_range_exponents():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            make_tempered_fractional_basis(bad, 0.75, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_tempered_fractional_basis(0.5, bad, 1.0, 1.0)
    # gamma_b outside its admissible window
    with pytest.raises(ValueError):
        make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0, gamma_b=0.3)
    with pytest.raises(ValueError):
        make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0, gamma_s=0.49)


def test_inf_support_and_compact_embedding():
    atoms_only = make_expsum_basis([(2.0, EYE, EYE), (5.0, EYE, EYE)])
    assert inf_support(atoms_only) == pytest.approx(2.0)
    with_density = make_tempered_fractional_basis(0.5, 0.75, 3.0, 3.0)
    assert inf_support(with_density) == pytest.approx(3.0, abs=1e-6)


def test_inf_support_evaluates_only_the_density():
    def no_matrix(u):
        raise AssertionError("inf_support evaluated a matrix weight")

    seg = DensitySegment(lower=3.0, upper=None,
                         rho=lambda u: np.exp(-np.asarray(u, float)),
                         Mb=no_matrix, Ms=no_matrix)
    basis = LiftingBasis(n=1, atoms=(), segments=(seg,))
    assert inf_support(basis) == 3.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.55, 0.75, 0.95])
def test_tempered_fractional_constants_match_scipy_gamma(alpha):
    # kappa_b = kappa_s = 1 gives one segment with rho(u = 1) = 2, where
    # Mb = cb / 2 and Ms = cs / 2 exactly
    alpha_s = alpha if alpha > 0.5 else 0.75
    basis = make_tempered_fractional_basis(alpha, alpha_s, 1.0, 1.0)
    seg, = basis.segments
    for got, a in ((2.0 * seg.Mb(1.0)[0, 0], alpha),
                   (2.0 * seg.Ms(1.0)[0, 0], alpha_s)):
        assert got == pytest.approx(1.0 / (gamma(a) * gamma(1.0 - a)),
                                    rel=1e-15)
    for which, a in ((DRIFT, alpha), (DIFFUSION, alpha_s)):
        for t in (0.01, 1.0, 7.5):
            want = t ** (a - 1.0) * math.exp(-t) / gamma(a)
            assert basis.closed_forms[which](t)[0, 0] == pytest.approx(
                want, rel=1e-15)
        t = np.array([0.01, 1.0, 7.5])
        got = basis.closed_forms[which](t[:, None, None])
        assert got.shape == (3, 1, 1)
        np.testing.assert_allclose(
            got[:, 0, 0], t ** (a - 1.0) * np.exp(-t) / gamma(a), rtol=1e-15)


def atoms_plus_tempered_fractional():
    atom = make_expsum_basis([(2.5, 1.5 * EYE, 0.5 * EYE)])
    frac = make_tempered_fractional_basis(0.6, 0.8, 1.0, 2.0)
    union = LiftingBasis(n=1, atoms=atom.atoms, segments=frac.segments)
    return atom, frac, union


def test_merge_bases_adds_kernels():
    a = make_expsum_basis([(1.0, EYE, EYE)])
    b = make_expsum_basis([(4.0, 2.0 * EYE, EYE)])
    pairs = [(a, b, LiftingBasis(n=1, atoms=a.atoms + b.atoms, segments=[])),
             atoms_plus_tempered_fractional()]
    for left, right, union in pairs:
        for which in (DRIFT, DIFFUSION):
            for t in (0.05, 0.5, 2.0):  # the kernel of a union is the sum
                want = (eval_kernel(left, which, t)
                        + eval_kernel(right, which, t))
                assert eval_kernel(union, which, t)[0, 0] == pytest.approx(
                    want[0, 0], rel=1e-12)


def test_json_round_trip_atoms_and_tempered_fractional():
    basis = atoms_plus_tempered_fractional()[2]
    doc = basis_to_json(basis)
    back = basis_from_json(doc)
    assert back.n == basis.n
    for which in (DRIFT, DIFFUSION):
        for t in (0.1, 1.0, 5.0):
            assert eval_kernel(back, which, t)[0, 0] == pytest.approx(
                eval_kernel(basis, which, t)[0, 0], rel=1e-6)
    json.loads(doc)  # well-formed document


def test_table_segment_log_linear_interpolation():
    thetas = np.array([1.0, 10.0, 100.0])
    rhos = np.array([1.0, 0.1, 0.01])   # exact power law theta^(-1)
    seg = make_table_segment(1.0, 100.0, thetas, rhos,
                             [EYE] * 3, [EYE] * 3, n=1)
    # log-linear interpolation reproduces the power law in between
    assert seg.rho(31.622776601683793 - 1.0) == pytest.approx(
        1.0 / 31.622776601683793, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(rates=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=4,
                      unique=True),
       t=st.floats(0.01, 5.0))
def test_expsum_kernel_is_laplace_transform(rates, t):
    basis = make_expsum_basis([(r, EYE, EYE) for r in rates])
    got = eval_kernel(basis, DIFFUSION, t)[0, 0]
    assert got == pytest.approx(sum(math.exp(-r * t) for r in rates),
                                rel=1e-12)
