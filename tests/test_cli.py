import contextlib
import copy
import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voltlift import cli
from voltlift.cli import EXPERIMENTS, SCHEMA, main
from voltlift.discretize import build_component
from voltlift.dynamics import (NoisePlan, make_preset, simulate_lifted,
                               truncate_coefficients)
from voltlift.kernelbasis import basis_to_json, make_expsum_basis

try:
    import resource
except ImportError:  # not on Windows
    resource = None

ATOM_BASIS = {"kind": "expsum",
              "terms": [{"rate": 1.0, "Mb": [[1.0]], "Ms": [[1.0]]}]}


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def simulate_config(out_dir):
    return {"experiment": "simulate",
            "basis": ATOM_BASIS,
            "discretization": {"k": 1, "theta_max": 2.0},
            "coefficients": {"preset": "linear", "beta": 0.0, "sigma0": 1.0},
            "scheme": {"h": 0.01, "T": 1.0},
            "rng": {"seed": 3, "trajectories": 1},
            "output_dir": str(out_dir)}


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.json", simulate_config(tmp_path / "o"))
    assert main(["validate", "--config", cfg]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_unknown_key_by_name(tmp_path, capsys):
    doc = simulate_config(tmp_path / "o")
    doc["scheme"]["step"] = 0.1
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["validate", "--config", cfg]) == 2
    assert "step" in capsys.readouterr().err


def test_validate_rejects_bad_values(tmp_path, capsys):
    doc = simulate_config(tmp_path / "o")
    doc["scheme"]["h"] = -0.5
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["validate", "--config", cfg]) == 2
    assert "scheme.h" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("scheme", "h", "0.01"),
    ("scheme", "h", float("nan")),
    ("scheme", "T", 0),
    ("rng", "seed", -1),
    ("rng", "seed", 2.5),
    ("rng", "trajectories", 0),
    ("discretization", "k", "auto"),
])
def test_run_rejects_bad_numbers_by_key(tmp_path, capsys, section, key,
                                        value):
    doc = simulate_config(tmp_path / "o")
    doc[section][key] = value
    cfg = write_config(tmp_path, "bad.json", doc)
    # an exception escaping main, a traceback on the command line, fails here
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert "Traceback" not in err


def test_basis_file_resolves_against_config_dir(tmp_path, monkeypatch,
                                                capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    basis = make_expsum_basis([(1.0, [[1.0]], [[1.0]])])
    (cfg_dir / "atom_basis.json").write_text(basis_to_json(basis))
    doc = simulate_config(tmp_path / "o")
    doc["basis"] = {"file": "atom_basis.json"}
    cfg = write_config(cfg_dir, "sim.json", doc)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "o" / "path.csv").exists()

    doc["basis"] = {"file": "missing_basis.json"}
    cfg = write_config(cfg_dir, "sim.json", doc)
    assert main(["run", "--config", cfg]) == 2
    assert "basis.file" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "sim.json", simulate_config(out))
    assert main(["run", "--config", cfg]) == 0
    for name in ("results.csv", "verdict.json", "resolved_config.json",
                 "run_meta.json", "path.csv"):
        assert (out / name).exists(), name
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == "experiment,k,t_or_lag,estimate,stderr,floor"


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, "sim.json", simulate_config(tmp_path / "x"))
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == \
        (out2 / "results.csv").read_bytes()
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()


def test_simulate_memory_does_not_grow_with_k(tmp_path):
    # path.csv holds X alone, so a run keeps no (M+1, k, n) states: a
    # 4000-step path of k atoms (no quadrature) peaks no higher at k = 64
    # than at k = 8, give or take the step operators and the formatting of
    # its rows; the states alone would take 2 MB at k = 64
    def peak(k):
        doc = simulate_config(tmp_path / f"o{k}")
        terms = [{"rate": rate, "Mb": [[1.0 / k]], "Ms": [[1.0 / k]]}
                 for rate in np.geomspace(0.5, 50.0, k)]
        doc.update(basis={"kind": "expsum", "terms": terms},
                   discretization={"k": k, "theta_max": 100.0},
                   scheme={"h": 0.01, "T": 40.0})
        cfg = write_config(tmp_path, f"k{k}.json", doc)
        tracemalloc.start()
        try:
            assert main(["run", "--config", cfg]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # a first run also makes what every later one reuses
    assert peak(64) <= 1.2 * peak(8)


def test_truncate_reaches_the_coefficients(tmp_path):
    # sigma = 0 and b(x) = -x clamped to radius 1: from x = 10 the path is
    # the API's truncated one, not the plain linear decay
    doc = simulate_config(tmp_path / "o")
    doc.update(initial={"y1": 10.0}, coefficients={
        "preset": "linear", "beta": 1.0, "sigma0": 0.0, "truncate": 1.0})
    assert main(["run", "--config", write_config(tmp_path, "t.json",
                                                 doc)]) == 0
    final = json.loads((tmp_path / "o" / "verdict.json").read_text())
    comp = build_component(make_expsum_basis([(1.0, [[1.0]], [[1.0]])]), 1,
                           2.0)
    plan = NoisePlan(3, 0, 0.01, 1.0)
    plain = make_preset("linear", beta=1.0, sigma0=0.0)
    x = [simulate_lifted(comp, c, np.full((1, 1), 10.0),
                         plan).observables[-1, 0]
         for c in (truncate_coefficients(plain, 1.0), plain)]
    assert final["final_X"] == [x[0]]
    assert x[0] > x[1]


def test_seed_override_changes_results(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, "sim.json", simulate_config(tmp_path / "x"))
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2),
                 "--seed-override", "99"]) == 0
    resolved = json.loads((out2 / "resolved_config.json").read_text())
    assert resolved["rng"]["seed"] == 99
    assert (out1 / "results.csv").read_bytes() != \
        (out2 / "results.csv").read_bytes()


def test_seed_override_out_of_range_exits_2(tmp_path, capsys):
    # the override takes the check of rng.seed, in [0, 2**64)
    cfg = write_config(tmp_path, "sim.json", simulate_config(tmp_path / "o"))
    for seed in (2 ** 64, -1):
        assert main(["run", "--config", cfg,
                     f"--seed-override={seed}"]) == 2, seed
        err = capsys.readouterr().err
        assert "rng.seed" in err and "Traceback" not in err
    # the largest seed runs, and so do the stationarity floors' seed + lag
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment="stationarity", burn_in=0.1, lags=[0.1, 0.2])
    doc["rng"]["trajectories"] = 8
    cfg = write_config(tmp_path, "stat.json", doc)
    assert main(["run", "--config", cfg,
                 f"--seed-override={2 ** 64 - 1}"]) == 0


def boom_config(out_dir):
    doc = simulate_config(out_dir)
    # strongly expansive drift with a coarse step overflows in finite time
    doc["coefficients"] = {"preset": "linear", "beta": -50.0, "sigma0": 1.0}
    doc["scheme"] = {"h": 0.5, "T": 200.0}
    return doc


def test_numerical_abort_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "boom.json", boom_config(tmp_path / "o"))
    assert main(["run", "--config", cfg]) == 3
    assert "numerical abort" in capsys.readouterr().err


@pytest.mark.parametrize("initial,where", [
    ({"y1": 1.0, "y2": 0.0}, r"at step \d+, trajectory \d+$"),
    # both copies step as one batch, so the earliest step of either aborts:
    # the copy from 1e300 overflows at step 7, where the copy from 0 alone
    # runs to step 237, and its first row is trajectory 0's
    ({"y1": 0.0, "y2": 1e300}, r"at step 7, trajectory 0$"),
], ids=["from_1_and_0", "from_0_and_1e300"])
def test_an_ergodic_abort_names_step_and_trajectory(tmp_path, capsys,
                                                     initial, where):
    doc = boom_config(tmp_path / "o")
    doc.update(experiment="ergodic", initial=initial, t_grid=[100.0, 200.0])
    doc["rng"]["trajectories"] = 16
    cfg = write_config(tmp_path, "boom.json", doc)
    with pytest.warns(UserWarning, match="Lyapunov"):
        assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical abort: non-finite lifted state"), err
    assert re.search(where, err), err


def test_unknown_experiment_rejected(tmp_path):
    doc = simulate_config(tmp_path / "o")
    doc["experiment"] = "frobnicate"
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["validate", "--config", cfg]) == 2


def test_lyapunov_check_experiment(tmp_path):
    out = tmp_path / "out"
    doc = {"experiment": "lyapunov_check",
           "basis": ATOM_BASIS,
           "coefficients": {"preset": "double_well", "sigma0": 1.0},
           "output_dir": str(out)}
    cfg = write_config(tmp_path, "lyap.json", doc)
    assert main(["run", "--config", cfg]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["I"] == pytest.approx(1.0)


def test_kernel_error_experiment(tmp_path):
    out = tmp_path / "out"
    doc = {"experiment": "kernel_error",
           "basis": {"kind": "tempered_fractional", "alpha_b": 0.5,
                     "alpha_s": 0.75, "kappa_b": 1.0, "kappa_s": 1.0},
           "discretization": {"k": 32, "theta_max": 100.0},
           "t_grid": [0.1, 1.0, 5.0],
           "output_dir": str(out)}
    cfg = write_config(tmp_path, "ker.json", doc)
    assert main(["run", "--config", cfg]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["max_rel_err"] < 0.05
    assert (out / "kernel_error.csv").exists()


def test_run_meta_is_the_only_timestamped_file(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, "sim.json", simulate_config(tmp_path / "x"))
    main(["run", "--config", cfg, "--out", str(out1)])
    main(["run", "--config", cfg, "--out", str(out2)])
    # everything except run_meta.json is reproducible byte for byte
    for name in ("results.csv", "verdict.json", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


TF_BASIS = {"kind": "tempered_fractional", "alpha_b": 0.5, "alpha_s": 0.75,
            "kappa_b": 1.0, "kappa_s": 1.0}
TANH = {"preset": "tanh", "scale": 0.1, "sigma0": 1.0}


# (experiment, top-level keys replaced in the simulate config, text the
# messages must name, exit code of validate, exit code of run)
@pytest.mark.parametrize("experiment,patch,key,validate_rc,run_rc", [
    ("simulate", {"coefficients": {"preset": "tanh", "beta": 1.0}}, "beta",
     2, 2),
    ("simulate", {"basis": {k: v for k, v in TF_BASIS.items()
                            if k != "alpha_s"}}, "alpha_s", 2, 2),
    ("simulate", {"basis": {"kind": "expsum"}}, "terms", 2, 2),
    ("simulate", {"basis": {"kind": "expsum",
                            "terms": [{"rate": 1.0, "Mb": [[1.0]]}]}},
     "Ms", 2, 2),
    ("simulate", {"basis": {"kind": "foo"}}, "basis.kind", 2, 2),
    ("simulate", {"coefficients": {"preset": "foo"}}, "coefficients.preset",
     2, 2),
    ("simulate", {"initial": {"y1": "a"}}, "initial.y1", 2, 2),
    ("simulate", {"discretization": {"k": 1, "theta_max": "big"}},
     "discretization.theta_max", 2, 2),
    ("simulate", {"coefficients": {"preset": "linear", "truncate": "x"}},
     "coefficients.truncate", 2, 2),
    ("ergodic", {"t_grid": 5}, "t_grid", 2, 2),
    ("coupling", {"coupling": {"m": "x"}}, "coupling.m", 2, 2),
    ("lift_independence", {}, "basis_b", 2, 2),
    # checked by the diagnostic itself, which validate does not run
    ("stationarity", {"lags": []}, "lags", 0, 2),
    ("ipm_convergence", {"ladder": [8]}, "ladder", 0, 2),
    # a partial section takes the rest from its default (initial.y2)
    ("coupling", {"initial": {"y1": 2.0}, "coefficients": TANH}, None, 0, 0),
    # a builder's own type or shape check names the argument
    ("simulate", {"basis": {"kind": "expsum", "terms": 5}}, "terms must",
     2, 2),
    ("simulate", {"coefficients": {"preset": "linear", "c": [1.0, 2.0],
                                   "n": 1}}, "c must", 2, 2),
    # no t_grid entry in (0, scheme.T], which the runner checks
    ("ergodic", {"t_grid": [5.0]}, "t_grid", 0, 2),
    # certification chooses m, delta and L together
    ("coupling", {"coupling": {"delta": 5.0}, "coefficients": TANH},
     "coupling.delta", 0, 2),
    ("coupling", {"coupling": {"L": 0.01}, "coefficients": TANH},
     "coupling.L", 0, 2),
    # a coupling constant must be positive, with or without m
    ("coupling", {"coupling": {"R": -1.0}, "coefficients": TANH},
     "coupling.R", 2, 2),
    ("coupling", {"coupling": {"m": 4.0, "R": -1.0}, "coefficients": TANH},
     "coupling.R", 2, 2),
    ("coupling", {"coupling": {"m": 0.0}, "coefficients": TANH},
     "coupling.m", 2, 2),
    ("coupling", {"coupling": {"m": 4.0, "delta": -1.0},
                  "coefficients": TANH}, "coupling.delta", 2, 2),
    ("coupling", {"coupling": {"m": 4.0, "L": 0.0}, "coefficients": TANH},
     "coupling.L", 2, 2),
    ("coupling", {"coupling": {"lam": -1.0}, "coefficients": TANH},
     "coupling.lam", 2, 2),
    # a preset's sigma0 is a number or an (n, n) matrix
    ("simulate", {"coefficients": {"preset": "tanh", "sigma0": [1.0, 2.0]}},
     "sigma0 must be a number or an (n, d) = (1, 1) matrix, got shape (2,)",
     2, 2),
    # a seed is the first word of a Philox key
    ("simulate", {"rng": {"seed": 2 ** 64}}, "rng.seed", 2, 2),
    # an integer beyond the range of a float is not a finite number
    ("simulate", {"discretization": {"k": 10 ** 400}}, "discretization.k",
     2, 2),
    # record times on step 0, or two on one step, would repeat a row
    ("ergodic", {"scheme": {"h": 0.01, "T": 0.001}, "t_grid": [0.001]},
     "t_grid entry 0.001 rounds to step 0", 2, 2),
    ("ergodic", {"t_grid": [0.5, 0.5, 1.0]}, "t_grid entries 0.5 and 0.5",
     2, 2),
    ("ergodic", {"t_grid": [0.5, 0.504, 1.0]},
     "t_grid entries 0.5 and 0.504 round to the same step 50", 2, 2),
    # a horizon of no step
    ("coupling", {"scheme": {"h": 1.0, "T": 0.5}, "coefficients": TANH},
     "scheme.h", 2, 2),
    ("simulate", {"scheme": {"h": 1e-310, "T": 1.0}}, "scheme.h", 2, 2),
    # a record time at 0 is no positive number, before any step check
    ("ergodic", {"t_grid": [0.0, 1.0]},
     "t_grid entry must be a finite positive number", 2, 2),
    # a lag on burn_in's step (5.2 / 0.5 rounds to 10), or two lags on one
    # step, would write a row of W1 = 0 or repeat a row
    ("stationarity", {"scheme": {"h": 0.5, "T": 10.0}, "lags": [0.2, 1.0]},
     "lags entry 0.2 puts burn_in + lag on step 10", 2, 2),
    ("stationarity", {"scheme": {"h": 0.5, "T": 10.0}, "lags": [1.1, 1.2]},
     "lags entries 1.1 and 1.2", 2, 2),
    # the square of a Lipschitz constant of 1e300 overflows the coupling
    # constants, with or without m
    ("coupling", {"coefficients": {"preset": "tanh", "scale": 1e300}},
     "coefficients: the coupling constants overflow", 0, 2),
    ("coupling", {"coupling": {"m": 4.0}, "coefficients": {
        "preset": "linear", "beta": 1e300}},
     "coefficients: the coupling constants overflow", 0, 2),
    # an ergodic run compares two samples, and a kernel_error run of no
    # time would pass over no row
    ("ergodic", {"rng": {"seed": 3, "trajectories": 1}}, "rng.trajectories",
     2, 2),
    ("kernel_error", {"t_grid": []}, "t_grid", 2, 2),
])
def test_malformed_config_exits_2_naming_key(tmp_path, capsys, experiment,
                                             patch, key, validate_rc, run_rc):
    doc = simulate_config(tmp_path / "o")
    doc["rng"]["trajectories"] = 4
    doc.update(experiment=experiment, **patch)
    cfg = write_config(tmp_path, "cfg.json", doc)
    for command, rc in (("validate", validate_rc), ("run", run_rc)):
        # an exception escaping main, a traceback on the command line, fails
        assert main([command, "--config", cfg]) == rc, command
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc == 2:
            assert key in err, (command, err)


@pytest.mark.parametrize("experiment", [
    exp for exp, (keys, _) in EXPERIMENTS.items() if "scheme" in keys])
def test_zero_step_horizon_exits_2_naming_scheme_h(tmp_path, capsys,
                                                   experiment):
    doc = simulate_config(tmp_path / "o")
    # ergodic's record time 1.0 lies beyond T, so no entry rounds to 0
    doc.update(experiment=experiment, basis_b=ATOM_BASIS, t_grid=[1.0],
               scheme={"h": 0.5, "T": 0.25})
    cfg = write_config(tmp_path, "cfg.json", doc)
    for command in ("validate", "run"):
        assert main([command, "--config", cfg]) == 2, command
        assert "scheme.h = 0.5 leaves scheme.T = 0.25 no step" in \
            capsys.readouterr().err


def test_ergodic_default_t_grid_keeps_one_entry_a_step(tmp_path):
    # the default's first entries, 0.01 and 0.0133, share step 1 of h = 0.01
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment="ergodic", scheme={"h": 0.01, "T": 0.5})
    doc["rng"]["trajectories"] = 16
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg]) == 0
    times = json.loads((tmp_path / "o" / "resolved_config.json")
                       .read_text())["t_grid"]
    # the first default entry on each step up to T: 14 entries, 12 steps
    assert [round(t / 0.01) for t in times] == [1, 2, 3, 4, 6, 7, 10, 13, 18,
                                                24, 32, 42]
    assert set(times) <= set(SCHEMA["t_grid"])
    rows = (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == len(times)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verdict_writes_a_non_finite_float_as_null(tmp_path):
    # two rungs leave one pair to rank, whose Spearman correlation is NaN
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment="ipm_convergence", ladder=[1, 2],
               scheme={"h": 0.05, "T": 0.5})
    doc["rng"]["trajectories"] = 16
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["run", "--config", cfg]) == 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text(),
                         parse_constant=_reject_constant)
    assert verdict["spearman"] is None
    # fewer than two full lane blocks give the ergodic rate no standard error
    doc.update(experiment="ergodic", t_grid=[0.25, 0.5])
    doc["rng"]["trajectories"] = 511
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["run", "--config", cfg]) == 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text(),
                         parse_constant=_reject_constant)
    assert verdict["r_stderr"] is None and verdict["r_hat"] > 0.0


_FORKED_RUN = """
import json, resource, sys
import voltlift.cli as cli
cfg, out = sys.argv[1:]
assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss == 0
assert cli.main(["run", "--config", cfg, "--out", out]) == 0
print(open(out + "/run_meta.json").read())
"""


def test_run_meta_records_memory_and_versions(tmp_path):
    # a fresh interpreter with no child before the run: the children's peak
    # RSS is then the coupled pair's forked part, 4096 one-atom trajectories
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment="coupling", coefficients=TANH,
               scheme={"h": 0.01, "T": 0.2})
    doc["rng"]["trajectories"] = 4096
    cfg = write_config(tmp_path, "cfg.json", doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FORKED_RUN, cfg,
                           str(tmp_path / "o")], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads(proc.stdout)
    assert sorted(meta) == ["children_ru_maxrss_kb", "ru_maxrss_kb",
                            "versions", "wall_time"]
    assert meta["versions"] == {"python": platform.python_version(),
                                "numpy": np.__version__}
    assert meta["ru_maxrss_kb"] > 0
    # the pair forks where sched_getaffinity shows two CPUs (not on macOS)
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1:
        assert 0 < meta["children_ru_maxrss_kb"]
    else:
        assert meta["children_ru_maxrss_kb"] == 0


def test_coupling_R_reaches_certification(tmp_path, capsys):
    # the atom's M_sigma = 1 lies in B_R for R = 1 but not for R = 0.5, and
    # the constants certify only when it does
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment="coupling", coefficients=TANH)
    doc["rng"]["trajectories"] = 4
    for R, rc in ((1.0, 0), (0.5, 2)):
        doc["coupling"] = {"R": R}
        cfg = write_config(tmp_path, "cfg.json", doc)
        assert main(["run", "--config", cfg]) == rc, R
    assert "no certified coupling constants" in capsys.readouterr().err


def test_resolved_config_holds_only_the_keys_read(tmp_path):
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment="lyapunov_check", t_grid=[0.5, 1.0])
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["run", "--config", cfg]) == 0
    resolved = json.loads((tmp_path / "o" / "resolved_config.json")
                          .read_text())
    assert sorted(resolved) == ["basis", "coefficients", "experiment",
                                "output_dir", "rng"]
    doc.update(experiment="coupling", coefficients=TANH, initial={"y2": -1.0})
    doc["rng"]["trajectories"] = 4
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["run", "--config", cfg]) == 0
    resolved = json.loads((tmp_path / "o" / "resolved_config.json")
                          .read_text())
    assert resolved["initial"] == {"y1": 1.0, "y2": -1.0}
    assert resolved["coupling"] == dict.fromkeys(("L", "R", "delta", "lam",
                                                  "m"))
    assert "t_grid" not in resolved


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# *_basis.json files are data that configs name, not configs
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.json")
                 if not p.stem.endswith("_basis"))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_validate(name, capsys):
    assert main(["validate", "--config", str(CONFIGS / name)]) == 0, \
        capsys.readouterr().err


# sha256 of the CSV and verdict.json files the shipped configs write, in
# the format scripts/run_all_configs.py prints
SHIPPED_SHA256 = Path(__file__).resolve().parent / "shipped_outputs.sha256"


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Output directory of every shipped config, by config name, each run
    from the repository root by its relative path."""
    out = tmp_path_factory.mktemp("shipped")
    with contextlib.chdir(CONFIGS.parent):
        for name in SHIPPED:
            rc = main(["run", "--config", f"configs/{name}", "--out",
                       str(out / Path(name).stem)])
            assert rc == 0, name
    return {Path(name).stem: out / Path(name).stem for name in SHIPPED}


def _digests(out_dirs):
    """'<config>/<file>' -> sha256 of each CSV and verdict.json."""
    return {f"{stem}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for stem, out in out_dirs.items()
            for f in [*out.glob("*.csv"), out / "verdict.json"]}


def test_shipped_outputs_keep_their_bytes(shipped_runs):
    lines = SHIPPED_SHA256.read_text().splitlines()
    want = {name: digest for digest, name in
            (line.split() for line in lines if not line.startswith("#"))}
    got = _digests(shipped_runs)
    moved = sorted(k for k in want.keys() | got.keys()
                   if want.get(k) != got.get(k))
    assert not moved, (
        f"output bytes moved: {moved}. Regenerate {SHIPPED_SHA256.name} "
        f"only with a reason in CHANGES.md. The list was {lines[0][2:]}; "
        f"this is numpy {np.__version__}")


def test_resolved_configs_rerun_to_the_same_bytes(shipped_runs, tmp_path):
    for stem, out in shipped_runs.items():
        rc = main(["run", "--config", str(out / "resolved_config.json"),
                   "--out", str(tmp_path / stem)])
        assert rc == 0, stem
    assert _digests({stem: tmp_path / stem for stem in shipped_runs}) \
        == _digests(shipped_runs)


def test_two_dimensional_run_keeps_its_bytes(tmp_path):
    # the ergodic_2d benchmark workload, shortened: no shipped config has
    # n = 2, so this pins the d = 2 noise, the 32 directions and the
    # lane-block standard error
    doc = {"experiment": "ergodic",
           "basis": {"kind": "expsum", "terms": [
               {"rate": 1.0, "Mb": [[1.0, 0.0], [0.0, 1.0]],
                "Ms": [[1.0, 0.3], [0.3, 1.0]]}]},
           "coefficients": {"preset": "tanh", "n": 2, "scale": 0.5,
                            "sigma0": 1.0},
           "scheme": {"h": 0.01, "T": 4.0},
           "t_grid": [0.5, 1, 2, 4],
           "rng": {"seed": 17, "trajectories": 512},
           "initial": {"y1": 1.0, "y2": 0.0}}
    cfg = write_config(tmp_path, "ergodic_2d.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert _digests({"ergodic_2d": tmp_path / "o"}) == {
        "ergodic_2d/results.csv":
            "624bebcf57535dd35444144ea6a860e15c684dc9c33f7c20962ff5c8a488e27e",
        "ergodic_2d/verdict.json":
            "ea8209260eb6c93d309e102a67bdc8ac21780882be91f3b3f40cbb6c16f39e55"}


_NO_SCIPY_RUN = """
import sys
import voltlift
import voltlift.cli as cli
configs, out = sys.argv[1:]
for name in ("ipm_convergence", "kernel_error"):
    rc = cli.main(["run", "--config", f"{configs}/{name}.json",
                   "--out", f"{out}/{name}", "--threads", "1"])
    assert rc == 0, (name, rc)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_path_loads_no_scipy(tmp_path):
    # a fresh interpreter: this process has scipy loaded by other tests
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(CONFIGS),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _limit_address_space():
    # 2 GiB holds the interpreter and numpy, but not the records of 10**9
    # steps: simulate's record times and observables, or the coupled
    # pair's mean and stderr, 7.45 GiB each
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


@pytest.mark.skipif(resource is None or sys.platform != "linux",
                    reason="needs RLIMIT_AS, which only Linux enforces")
@pytest.mark.parametrize("name", ["simulate", "coupling"])
def test_a_run_out_of_memory_exits_2(tmp_path, name):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["scheme"].update(h=1e-9, T=1.0)
    cfg = write_config(tmp_path, "cfg.json", doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    # one BLAS thread: a thread per core would reserve address space of its
    # own on a many-core machine
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "voltlift.cli", "run",
                           "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    for part in ("scheme.h = 1e-09", "scheme.T = 1.0", "1000000000 steps"):
        assert part in proc.stderr, proc.stderr


def test_out_of_memory_without_a_scheme_exits_2(tmp_path, monkeypatch,
                                                capsys):
    # lyapunov_check reads no scheme, so the message names none
    doc = simulate_config(tmp_path / "o")
    doc["experiment"] = "lyapunov_check"
    cfg = write_config(tmp_path, "cfg.json", doc)

    def out_of_memory(cfg, out_dir):
        raise MemoryError

    monkeypatch.setattr(cli, "run_experiment", out_of_memory)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == "precondition failure: out of memory\n"


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_survives_one_mutated_leaf(tmp_path, capsys, data):
    doc = json.loads((CONFIGS / data.draw(st.sampled_from(SHIPPED)))
                     .read_text())
    if "basis_b" in doc:  # the mutated config is written elsewhere
        doc["basis_b"]["file"] = str(CONFIGS / doc["basis_b"]["file"])
    path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    leaf = path[-1]
    mutation = data.draw(st.sampled_from(
        ["drop", "string", "null", "list"]
        + (["sibling"] if isinstance(parent, dict) else [])))
    if mutation == "drop":
        del parent[leaf]
    elif mutation == "sibling":
        parent["unknown_key"] = copy.deepcopy(parent[leaf])
    else:
        parent[leaf] = {"string": "x", "null": None,
                        "list": [parent[leaf]]}[mutation]
    cfg = write_config(tmp_path, "mutated.json", doc)
    # an exception escaping main, a traceback on the command line, fails
    assert main(["validate", "--config", cfg]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def _shrunk(name):
    """A shipped config cut down to a run of well under a second."""
    doc = json.loads((CONFIGS / name).read_text())
    doc.pop("output_dir", None)
    if "basis_b" in doc:  # the mutated config is written elsewhere
        doc["basis_b"]["file"] = str(CONFIGS / doc["basis_b"]["file"])
    if "rng" in doc:
        doc["rng"]["trajectories"] = min(doc["rng"]["trajectories"], 16)
    if "scheme" in doc:
        doc["scheme"]["T"] = min(doc["scheme"]["T"], 0.2)
    if "discretization" in doc:
        doc["discretization"]["k"] = min(doc["discretization"]["k"], 4)
    if doc["experiment"] == "ergodic":
        doc["t_grid"] = [0.1, 0.2]
    if "ladder" in doc:
        doc["ladder"] = [2, 4]
    if "burn_in" in doc:
        doc.update(burn_in=0.1, lags=[0.05, 0.1])
    return doc


def _numeric_mutations(count, seed):
    """count (config, leaf path, value) cases drawn by seed from every
    numeric leaf of every shrunk shipped config and every value of the
    list below."""
    values = (0, -1, -0.0, 0.5, 2.5, 1e-300, 1e300)
    cases = [(name, path, value) for name in SHIPPED
             for path in _leaf_paths(_shrunk(name))
             if cli._is_number(_leaf(_shrunk(name), path))
             for value in values]
    return random.Random(seed).sample(cases, count)


def _leaf(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@pytest.mark.skipif(resource is None or sys.platform != "linux",
                    reason="needs RLIMIT_AS, which only Linux enforces")
@pytest.mark.parametrize(
    "name,path,value", _numeric_mutations(16, seed=26),
    ids=lambda c: (c if isinstance(c, str) else
                   ".".join(map(str, c)) if isinstance(c, tuple) else
                   repr(c)))
def test_run_of_a_mutated_numeric_leaf_exits_0_2_or_3(tmp_path, name, path,
                                                      value):
    # a shrunk shipped config with one numeric leaf set to an edge value
    # runs in a fresh interpreter under the 2 GiB address-space limit:
    # success, a config error or a numerical abort, never a traceback, a
    # crash or a hang
    doc = _shrunk(name)
    _leaf(doc, path[:-1])[path[-1]] = value
    cfg = write_config(tmp_path, "mutated.json", doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "voltlift.cli", "run",
                           "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True,
                          timeout=20, preexec_fn=_limit_address_space)
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
