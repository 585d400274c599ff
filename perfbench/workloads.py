"""The benchmark's three `voltlift run` workloads: configs, output checks
and the work each run does.

Configs are fixed; the benchmark seed reaches the program only through
``--seed-override``.  Every check holds for any correct implementation on
any seed; none compares output bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CONFIGS = {
    # Tempered fractional kernel, ladder of factor counts with automatic
    # cutoffs: set-up is QAGS quadrature inside build_component,
    # auto_theta_max and epsilon_k, and the ensembles run up to 64 factors
    # per step.
    "frac_ladder": {
        "experiment": "ipm_convergence",
        "basis": {"kind": "tempered_fractional", "alpha_b": 0.5,
                  "alpha_s": 0.55, "kappa_b": 1.0, "kappa_s": 1.0},
        "coefficients": {"preset": "linear", "beta": 1.0, "sigma0": 1.0},
        "ladder": [4, 8, 16, 64],
        "scheme": {"h": 0.02, "T": 8.0},
        "rng": {"seed": 31, "trajectories": 4096},
    },
    # Two-dimensional exponential kernel (one atom, no quadrature): one
    # factor per step, so per-step call overhead and noise generation
    # dominate, followed by the sliced-W1 bootstrap.
    "ergodic_2d": {
        "experiment": "ergodic",
        "basis": {"kind": "expsum", "terms": [
            {"rate": 1.0, "Mb": [[1.0, 0.0], [0.0, 1.0]],
             "Ms": [[1.0, 0.3], [0.3, 1.0]]}]},
        "coefficients": {"preset": "tanh", "n": 2, "scale": 0.5,
                         "sigma0": 1.0},
        "scheme": {"h": 0.01, "T": 16.0},
        "t_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
        "rng": {"seed": 17, "trajectories": 4096},
        "initial": {"y1": 1.0, "y2": 0.0},
    },
    # Reflection-coupled pair on a 16-factor fractional lift: its own step,
    # no thread pool, full-horizon records and the weights module.
    "coupling_frac": {
        "experiment": "coupling",
        "basis": {"kind": "tempered_fractional", "alpha_b": 0.5,
                  "alpha_s": 0.75, "kappa_b": 1.0, "kappa_s": 1.0},
        "coefficients": {"preset": "tanh", "scale": 0.1, "sigma0": 1.0},
        "discretization": {"k": 16, "theta_max": 64.0},
        "scheme": {"h": 0.01, "T": 20.0},
        "rng": {"seed": 7, "trajectories": 2048},
        "initial": {"y1": 1.0, "y2": 0.0},
    },
}


def read_results(out_dir):
    """results.csv rows as dicts, and verdict.json."""
    with open(Path(out_dir, "results.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    verdict = json.loads(Path(out_dir, "verdict.json").read_text())
    return rows, verdict


def check_output(name, rows, verdict):
    """List of failed checks (empty when the run's output is correct)."""
    est = [float(r["estimate"]) for r in rows]
    failed = []
    if name == "frac_ladder":
        eps = [float(r["t_or_lag"]) for r in rows]
        ks = [int(r["k"]) for r in rows]
        if verdict.get("trend_positive") is not True:
            failed.append("trend_positive")
        if ks != sorted(ks) or any(b >= a for a, b in zip(eps, eps[1:])):
            failed.append("epsilon_k falls strictly along the ladder")
        if not est or not est[0] > verdict["finest_floor"]:
            failed.append("coarsest W1 above finest_floor")
    elif name == "ergodic_2d":
        r_hat = verdict.get("r_hat")
        if not (isinstance(r_hat, float) and math.isfinite(r_hat)
                and r_hat > 0.0):
            failed.append("r_hat finite and positive")
        if len(est) < 2 or not est[0] > est[-1]:
            failed.append("W1 at first record time above W1 at last")
    elif name == "coupling_frac":
        bounds = verdict.get("bounds", {})
        for key, ok in (("certified", verdict.get("certified")),
                        ("bounds.contraction", bounds.get("contraction")),
                        ("bounds.kl", bounds.get("kl"))):
            if ok is not True:
                failed.append(key)
    return failed


def factor_steps(name, cfg, rows):
    """Trajectories x steps x factors I advanced by one run.

    I is the ``k`` column of results.csv.  ipm_convergence writes no row for
    its finest rung, so that rung counts the largest ladder value.  A
    coupled pair and the two ensembles of the ergodic experiment count as
    two trajectories each.
    """
    n_traj = cfg["rng"]["trajectories"]
    h, T = cfg["scheme"]["h"], cfg["scheme"]["T"]
    if name == "frac_ladder":
        factors = sum(int(r["k"]) for r in rows) + max(cfg["ladder"])
        return n_traj * round(T / h) * factors
    if name == "ergodic_2d":
        t_end = max(t for t in cfg["t_grid"] if 0 < t <= T)
        return 2 * n_traj * round(t_end / h) * int(rows[0]["k"])
    if name == "coupling_frac":
        return 2 * n_traj * round(T / h) * int(rows[0]["k"])
    raise KeyError(name)


def epsilon_k(name, rows):
    """The epsilon_k that results.csv reports at its largest k, or 0."""
    if name != "frac_ladder":
        return 0.0
    return float(max(rows, key=lambda r: int(r["k"]))["t_or_lag"])
