import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from voltlift.cli import _build_inputs, main, resolve_config
from voltlift.coupling import (_control, contraction_report,
                               simulate_coupled_pair)
from voltlift.discretize import build_component
from voltlift.dynamics import (CoefficientModel, NoisePlan, make_plans,
                               make_preset)
from voltlift.kernelbasis import (make_expsum_basis,
                                  make_tempered_fractional_basis)
from voltlift.weights import (build_custom, build_phi_coupling,
                              build_psi_lyapunov, compute_coupling_constants,
                              distance_dphipsi, find_certified_constants)

EYE = np.eye(1)
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "coupling.json"


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
    assert np.all(run.mean_dist <= 1e-12)


def test_energy_is_left_point_quadrature_of_control():
    # sigma = 1, one atom and the identity weight: u = lam (y - yh), so
    # |u| = lam * dist at every step; a single trajectory's mean distance
    # is its distance, and its standard error is zero
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    energies = []
    for T in (0.25, 0.5):
        run = simulate_coupled_pair(comp, coeffs, table, 0.7,
                                    np.full((1, 1), 1.0), np.zeros((1, 1)),
                                    make_plans(2, 1, 0.05, T, d=1))
        assert np.all(run.stderr_dist == 0.0)
        u_sq = (0.7 * run.mean_dist) ** 2
        want = 0.5 * 0.05 * np.sum(u_sq[:-1])
        np.testing.assert_allclose(run.energy, [want], rtol=1e-12)
        energies.append(run.energy[0])
    assert 0.0 < energies[0] <= energies[1]


def test_common_noise_cancels_for_constant_sigma():
    # with additive noise the difference process is deterministic, so every
    # trajectory reports the same distance curve: no spread across them
    comp = atom_setup()
    coeffs = make_preset("linear", beta=0.0, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(5, 6, 1e-2, 1.0, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0,
                                np.full((1, 1), 0.2), np.zeros((1, 1)),
                                plans)
    assert run.mean_dist[0] == pytest.approx(0.2, rel=1e-15)
    assert np.max(run.stderr_dist) < 1e-14


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


def test_control_divides_a_1x1_gram_matrix_as_solve_does():
    rng = np.random.default_rng(5)
    coeffs = CoefficientModel(
        b=lambda x: -x, sigma=lambda x: (0.2 + np.exp(np.sin(3.0 * x)))[
            ..., None], n=1, d=1)
    for n_traj in (1, 2, 7, 1000):
        xh = rng.normal(size=(1, n_traj)) * 3.0
        v = rng.normal(size=(1, n_traj)) * 10.0 ** rng.uniform(-8, 8)
        s = coeffs.sigma(xh.T)
        gram = np.einsum("tpd,tqd->tpq", s, s)
        sol = np.linalg.solve(gram, v.T[..., None])[..., 0]
        want = 1.3 * np.einsum("tpd,tp->td", s, sol)
        np.testing.assert_array_equal(_control(coeffs, xh, v, 1.3), want)


def test_zero_gram_matrix_raises_not_warns():
    coeffs = CoefficientModel(
        b=lambda x: -x, sigma=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        n=1, d=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="singular diffusion"):
            _control(coeffs, np.ones((1, 3)), np.ones((1, 3)), 1.0)


def test_coupled_trajectory_bits_do_not_depend_on_its_batch():
    basis = make_tempered_fractional_basis(0.5, 0.75, 1.0, 1.0)
    comp = build_component(basis, 16, 64.0)
    coeffs = make_preset("tanh", scale=0.1, sigma0=1.0)
    consts = compute_coupling_constants(comp, coeffs, m=8.0)
    table = build_phi_coupling(comp, consts.m, consts.delta, consts.L, 1e300)
    y1, y2 = np.ones((16, 1)), np.zeros((16, 1))
    plans = make_plans(7, 5, 0.01, 0.3, d=1)
    batch = simulate_coupled_pair(comp, coeffs, table, consts.lam, y1, y2,
                                  plans)
    for j in (0, 2, 4):
        solo = simulate_coupled_pair(comp, coeffs, table, consts.lam, y1, y2,
                                     plans[j:j + 1])
        for name in ("energy", "y_final", "yh_final"):
            np.testing.assert_array_equal(getattr(solo, name)[0],
                                          getattr(batch, name)[j], name)


def test_coupled_pair_rejects_plans_of_another_shape():
    comp = atom_setup()
    coeffs = make_preset("linear")
    table = build_custom(comp, [EYE])
    plans = make_plans(0, 2, 0.01, 1.0, d=1) + [NoisePlan(0, 2, 0.5, 1.0)]
    with pytest.raises(ValueError, match="trajectory 2"):
        simulate_coupled_pair(comp, coeffs, table, 1.0, np.ones((1, 1)),
                              np.zeros((1, 1)), plans)


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
    d0 = run.mean_dist[0]
    assert rep.kl_budget == pytest.approx(0.5 * lam * d0 ** 2, rel=1e-12)
    assert isinstance(rep.kl_ok, bool)
    assert rep.mean_energy_final >= 0.0


def test_verdict_d_phipsi_matches_a_direct_coupled_run(tmp_path):
    assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "verdict.json").read_text())["d_phipsi"]
    cfg = resolve_config(json.loads(CONFIG.read_text()))
    bases, coeffs = _build_inputs(cfg)
    d = cfg["discretization"]
    comp = build_component(bases["basis"], d["k"], d["theta_max"])
    consts = find_certified_constants(comp, coeffs)
    phi = build_phi_coupling(comp, consts.m, consts.delta, consts.L, 1e300)
    psi = build_psi_lyapunov(comp, consts.m)
    y1 = np.full((comp.size, 1), cfg["initial"]["y1"])
    y2 = np.full((comp.size, 1), cfg["initial"]["y2"])
    plans = make_plans(cfg["rng"]["seed"], cfg["rng"]["trajectories"],
                       cfg["scheme"]["h"], cfg["scheme"]["T"])
    run = simulate_coupled_pair(comp, coeffs, phi, consts.lam, y1, y2, plans)
    d_end = distance_dphipsi(run.y_final, run.yh_final, comp, phi, psi)
    assert got["t0"] == distance_dphipsi(y1, y2, comp, phi, psi)
    assert got["T"] == d_end.mean()
    assert got["T_stderr"] == pytest.approx(
        d_end.std(ddof=1) / np.sqrt(d_end.size), rel=1e-12)
    assert got["ratio"] == got["T"] / got["t0"]
    assert got["ratio"] < 1.0


def test_final_states_are_the_last_step():
    comp = atom_setup()
    coeffs = make_preset("tanh", scale=0.2, sigma0=1.0)
    table = build_custom(comp, [EYE])
    plans = make_plans(4, 3, 1e-2, 0.5, d=1)
    run = simulate_coupled_pair(comp, coeffs, table, 1.0,
                                np.full((1, 1), 0.4), np.zeros((1, 1)), plans)
    assert run.y_final.shape == run.yh_final.shape == (3, 1, 1)
    # the last recorded distance is the mean weighted norm of the final gap
    gap = np.abs(run.y_final - run.yh_final)[:, 0, 0]
    np.testing.assert_allclose(run.mean_dist[-1], gap.mean(), rtol=1e-14)
    np.testing.assert_allclose(run.stderr_dist[-1],
                               gap.std(ddof=1) / np.sqrt(3), rtol=1e-14)


def test_verdict_ratio_is_null_at_zero_initial_distance(tmp_path):
    doc = json.loads(CONFIG.read_text())
    doc.update(initial={"y1": 0.5, "y2": 0.5}, scheme={"h": 0.01, "T": 0.5},
               rng={"seed": 1, "trajectories": 4})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "verdict.json").read_text())["d_phipsi"]
    assert got["t0"] == 0.0
    assert got["ratio"] is None
