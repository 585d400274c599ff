import numpy as np
import pytest

from voltlift.coupling import contraction_report, simulate_coupled_pair
from voltlift.discretize import build_component
from voltlift.dynamics import CoefficientModel, make_plans, make_preset
from voltlift.kernelbasis import make_expsum_basis
from voltlift.weights import build_custom, build_phi_coupling

EYE = np.eye(1)


def atom_setup():
    basis = make_expsum_basis([(1.0, EYE, EYE)])
    comp = build_component(basis, 1, theta_max=2.0)
    return comp


def test_deterministic_benchmark_rate():
    # b = 0, sigma = 1, identity weight on a single atom: the difference
    # contracts at exactly kappa + lam * w per unit time as h -> 0
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    lam = 0.5
    plans = make_plans(0, 2, 1e-3, 3.0, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, lam,
                                np.full((1, 1), 0.1), np.zeros((1, 1)),
                                plans)
    rep = contraction_report(run, kappa=1.0, lam=lam, c_ue=1.0)
    assert rep.r_hat == pytest.approx(1.5, rel=5e-3)


def test_zero_initial_distance_is_trivially_contracted():
    comp = atom_setup()
    coeffs = make_preset("tanh", scale=0.2, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(1, 8, 1e-2, 1.0, d=1)
    z = np.full((1, 1), 0.3)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0, z, z, plans)
    rep = contraction_report(run, kappa=1.0, lam=1.0)
    assert rep.r_hat is None
    assert rep.contraction_ok
    assert np.all(run.dist_phi <= 1e-12)


def test_energy_is_left_point_quadrature_of_control():
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(2, 1, 0.05, 0.5, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, 0.7,
                                np.full((1, 1), 1.0), np.zeros((1, 1)),
                                plans)
    u_sq = np.sum(run.control ** 2, axis=-1)
    want = 0.5 * 0.05 * np.cumsum(u_sq[:-1], axis=0)
    np.testing.assert_allclose(run.energy[1:], want, rtol=1e-12)
    assert np.all(np.diff(run.energy[:, 0]) >= 0.0)


def test_common_noise_cancels_for_constant_sigma():
    # with additive noise the difference process is deterministic, so every
    # trajectory reports the same distance curve
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(5, 6, 1e-2, 1.0, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0,
                                np.full((1, 1), 0.2), np.zeros((1, 1)),
                                plans)
    spread = run.dist_phi.max(axis=1) - run.dist_phi.min(axis=1)
    assert np.max(spread) < 1e-14


def test_degenerate_diffusion_aborts():
    comp = atom_setup()
    degenerate = CoefficientModel(
        b=lambda x: -x, sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        n=1, d=1)
    table = build_custom(comp, [EYE])
    plans = make_plans(0, 1, 0.1, 0.5, d=1)
    with pytest.raises(FloatingPointError):
        simulate_coupled_pair(comp, degenerate, table, 1.0,
                              np.full((1, 1), 1.0), np.zeros((1, 1)), plans)


def test_invalid_gain_rejected():
    comp = atom_setup()
    coeffs = make_preset("linear")
    table = build_custom(comp, [EYE])
    plans = make_plans(0, 1, 0.1, 0.5, d=1)
    with pytest.raises(ValueError):
        simulate_coupled_pair(comp, coeffs, table, 0.0,
                              np.zeros((1, 1)), np.zeros((1, 1)), plans)


def test_kl_budget_arithmetic():
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_phi_coupling(comp, m=2.0, delta=0.5, L=2.0, R=10.0)
    plans = make_plans(3, 16, 1e-2, 4.0, d=1)
    lam = 2.0
    run = simulate_coupled_pair(comp, coeffs, table, lam,
                                np.full((1, 1), 0.5), np.zeros((1, 1)),
                                plans)
    rep = contraction_report(run, kappa=1.0, lam=lam, c_ue=1.0)
    d0 = rep.mean_dist[0]
    assert rep.kl_budget == pytest.approx(0.5 * lam * d0 ** 2, rel=1e-12)
    assert isinstance(rep.kl_ok, bool)
    assert rep.mean_energy_final >= 0.0
