"""Simulation and diagnostics toolkit for stochastic Volterra equations via
Markovian lifting: finite-dimensional lifted approximations, stiff-safe
integration, coupling/ergodicity diagnostics, and kernel-error reporting."""

from .kernelbasis import (DIFFUSION, DRIFT, LiftingBasis, basis_from_json,
                          basis_to_json, eval_kernel, inf_support,
                          make_expsum_basis, make_tempered_fractional_basis)
from .discretize import (ApproximatingComponent, build_component, epsilon_k,
                         reconstructed_kernel)
from .dynamics import (CoefficientModel, NoiseBatch, NoisePlan, make_plans,
                       make_preset, simulate_lifted, simulate_lifted_ensemble,
                       simulate_volterra_direct, truncate_coefficients,
                       volterra_weights)
from .weights import (CouplingConstants, WeightTable, build_custom,
                      build_phi_coupling, build_psi_lyapunov,
                      check_lyapunov_sufficient, compute_coupling_constants,
                      distance_dphi, distance_dphipsi,
                      find_certified_constants, weighted_norms)
from .coupling import contraction_report, simulate_coupled_pair
from .ergodics import (ergodic_decay, ipm_convergence, lift_independence_test,
                       noise_floor, run_ensemble, sliced_w1,
                       stationarity_test, wasserstein1_1d)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
