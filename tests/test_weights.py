import numpy as np
import pytest

from voltlift.discretize import build_component
from voltlift.dynamics import make_preset
from voltlift.kernelbasis import (make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.weights import (build_custom, build_phi_coupling,
                              build_psi_lyapunov, check_lyapunov_sufficient,
                              compute_coupling_constants, distance_dphi,
                              distance_dphipsi, find_certified_constants,
                              mu_sigma_phi, weighted_norms)

EYE = np.eye(1)


def atom_component(rates=(1.0,), mb=1.0, ms=1.0):
    terms = [(r, mb * EYE, ms * EYE) for r in rates]
    basis = make_expsum_basis(terms)
    return build_component(basis, len(rates), theta_max=max(rates) + 1.0)


def test_custom_identity_constant():
    comp = atom_component((3.0,))
    table = build_custom(comp, [EYE])
    assert table.C_phi == pytest.approx(2.0, rel=1e-12)


def test_custom_rejects_bad_matrices():
    comp = atom_component((1.0,))
    with pytest.raises(ValueError):
        build_custom(comp, [-EYE])
    comp2 = build_component(make_expsum_basis(
        [(1.0, np.eye(2), np.eye(2)), (2.0, np.eye(2), np.eye(2))]), 2,
        theta_max=3.0)
    with pytest.raises(ValueError, match="cell 1"):
        build_custom(comp2, [np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])


def test_custom_rejects_a_list_short_of_the_cells():
    # one matrix for a two-cell component would broadcast over both cells
    comp = atom_component((1.0, 3.0))
    with pytest.raises(ValueError, match="2 cells"):
        build_custom(comp, [2.0 * EYE])
    with pytest.raises(ValueError, match="2 cells"):
        build_custom(comp, [np.eye(2), np.eye(2)])


def test_weighted_norms_hand_computed():
    comp = atom_component((1.0, 3.0))
    table = build_custom(comp, [2.0 * EYE, 0.5 * EYE])
    z = np.array([[1.0], [2.0]])
    assert weighted_norms(comp, table, z) == pytest.approx(np.sqrt(2.0 + 2.0))


def test_weighted_functionals_hand_computed():
    comp = atom_component((1.0, 4.0), mb=2.0, ms=3.0)
    table = build_custom(comp, [EYE, EYE])
    ones = np.array([[1.0], [1.0]])
    # mu_{sigma,Phi}[z] = sum of w * Ms^T Phi z = 3*1 + 3*1
    assert mu_sigma_phi(comp, table, ones)[0] == pytest.approx(6.0)
    z = np.array([[1.0], [2.0]])
    assert mu_sigma_phi(comp, table, z)[0] == pytest.approx(9.0)  # 3 + 3*2


def test_coupling_weight_four_branches():
    basis = make_expsum_basis([
        (1.0, EYE, 2.0 * EYE),      # invertible, in both membership sets
        (2.0, EYE, 0.1 * EYE),      # sym PD but poorly invertible
        (3.0, EYE, 0.0 * EYE),      # not positive definite
        (50.0, EYE, EYE),           # above the split point m
    ])
    comp = build_component(basis, 4, theta_max=100.0)
    table = build_phi_coupling(comp, m=10.0, delta=0.5, L=4.0, R=100.0)
    assert table.Phi[0, 0, 0] == pytest.approx(0.5)             # Ms^-1
    assert table.Phi[1, 0, 0] == pytest.approx(
        1.0 / (0.5 * np.sqrt(2.0) + 0.1))                       # shifted
    assert table.Phi[2, 0, 0] == pytest.approx(1.0)             # identity
    assert table.Phi[3, 0, 0] == pytest.approx(np.sqrt(10.0 / 50.0))


def test_weight_tables_branch_by_branch_at_n2():
    ms = [np.array([[2.0, 0.5], [0.5, 1.5]]),    # in A_L and B_R
          np.array([[0.2, 0.05], [0.05, 0.1]]),  # B_R only: 1/lambda_min > L
          np.array([[1.0, 0.4], [-0.2, 1.0]]),   # not symmetric
          np.eye(2)]                             # tail a >= m
    mb = [np.array([[1.0, 0.2], [0.2, 0.5]]),    # in A_m
          np.array([[1.0, 0.5], [0.0, 1.0]]),    # not symmetric
          np.diag([20.0, 1.0]),                  # spectrum above m
          np.eye(2)]                             # a >= m
    rates = [1.0, 2.0, 3.0, 50.0]
    comp = build_component(make_expsum_basis(list(zip(rates, mb, ms))), 4,
                           theta_max=100.0)
    m, delta, eye = 10.0, 0.5, np.eye(2)
    phi = build_phi_coupling(comp, m=m, delta=delta, L=4.0, R=100.0).Phi
    psi = build_psi_lyapunov(comp, m=m).Phi
    want_phi = [np.linalg.inv(ms[0]),
                np.linalg.inv(delta * np.sqrt(2.0) * eye + ms[1]),
                eye,
                np.sqrt(m / 50.0) * eye]
    want_psi = [np.linalg.inv(1.0 / m * eye + mb[0])] + [
        eye / np.sqrt(a) for a in rates[1:]]
    for i in range(4):
        np.testing.assert_allclose(phi[i], want_phi[i], rtol=1e-14)
        np.testing.assert_allclose(psi[i], want_psi[i], rtol=1e-14)


def test_coupling_weight_validates_arguments():
    comp = atom_component((1.0,))
    with pytest.raises(ValueError):
        build_phi_coupling(comp, m=0.5, delta=0.1, L=1.0, R=1.0)
    with pytest.raises(ValueError):
        build_phi_coupling(comp, m=4.0, delta=-1.0, L=1.0, R=1.0)


def test_lyapunov_weight_branches():
    basis = make_expsum_basis([(1.0, 2.0 * EYE, EYE), (50.0, EYE, EYE)])
    comp = build_component(basis, 2, theta_max=100.0)
    table = build_psi_lyapunov(comp, m=10.0)
    assert table.Phi[0, 0, 0] == pytest.approx(1.0 / (0.1 + 2.0))
    assert table.Phi[1, 0, 0] == pytest.approx(50.0 ** -0.5)


def test_beta_constant_oracle():
    comp = atom_component((1.0,))
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = compute_coupling_constants(comp, coeffs, m=4.0, delta=0.5, L=3.0)
    # beta = max(L sqrt(m), 1/delta, sqrt(m)) = max(6, 2, 2)
    assert consts.beta == pytest.approx(6.0, rel=1e-12)


def test_atomic_basis_certifies_with_zero_alpha():
    comp = atom_component((1.0,))
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = find_certified_constants(comp, coeffs)
    assert consts is not None
    assert consts.alpha == pytest.approx(0.0, abs=1e-14)
    assert consts.epsilon == pytest.approx(0.0, abs=1e-12)
    assert consts.certified
    # schedule for an atom below m: tail = 0, so delta = 1/m, L = sqrt(m)
    assert consts.delta == pytest.approx(1.0 / consts.m, rel=1e-12)
    assert consts.L == pytest.approx(np.sqrt(consts.m), rel=1e-12)
    # lam = 2 beta C_bLip^2 * integral theta^(-3/2)|Mb|^2 dmu = 2 m (1.1)^2
    assert consts.lam == pytest.approx(2.0 * consts.m * 1.1 ** 2, rel=1e-12)


def test_distance_dphi_caps_at_one():
    comp = atom_component((1.0,))
    table = build_custom(comp, [EYE])
    z1 = np.full((1, 1), 10.0)
    z2 = np.zeros((1, 1))
    assert distance_dphi(z1, z2, comp, table) == pytest.approx(1.0)
    assert distance_dphi(z2, z2, comp, table) == pytest.approx(0.0)


def test_distance_dphipsi_at_origin():
    comp = atom_component((1.0,))
    phi = build_custom(comp, [EYE])
    psi = build_psi_lyapunov(comp, m=4.0)
    z = np.zeros((1, 1))
    assert distance_dphipsi(z, z, comp, phi, psi) == pytest.approx(0.0)
    z1 = np.full((1, 1), 0.25)
    d = distance_dphi(z1, z, comp, phi)
    n1 = weighted_norms(comp, psi, z1)
    want = np.sqrt(d * (1.0 + n1 ** 2))
    assert distance_dphipsi(z1, z, comp, phi, psi) == pytest.approx(
        float(want), rel=1e-12)


def test_lyapunov_check_atom_ground_truth():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    ok = make_preset("double_well", sigma0=1.0, gamma=0.25)
    rep = check_lyapunov_sufficient(basis, ok)
    assert rep.I == pytest.approx(1.0, rel=1e-12)
    assert rep.passed
    bad = make_preset("double_well", sigma0=1.0, gamma=1.5)
    assert not check_lyapunov_sufficient(basis, bad).passed


def test_lyapunov_check_tempered_fractional_closed_form():
    basis = make_tempered_fractional_basis(0.5, 0.75, 2.0, 2.0)
    coeffs = make_preset("linear", beta=1.0, sigma0=1.0)
    rep = check_lyapunov_sufficient(basis, coeffs)
    assert rep.I == pytest.approx(2.0 ** -0.5, abs=1e-6)
