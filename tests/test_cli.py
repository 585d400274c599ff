import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voltlift.cli import main
from voltlift.kernelbasis import basis_to_json, make_expsum_basis

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


def test_numerical_abort_exit_code(tmp_path, capsys):
    doc = simulate_config(tmp_path / "o")
    # strongly expansive drift with a coarse step overflows in finite time
    doc["coefficients"] = {"preset": "linear", "beta": -50.0, "sigma0": 1.0}
    doc["scheme"] = {"h": 0.5, "T": 200.0}
    cfg = write_config(tmp_path, "boom.json", doc)
    assert main(["run", "--config", cfg]) == 3
    assert "numerical abort" in capsys.readouterr().err


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
])
def test_malformed_config_exits_2_naming_key(tmp_path, capsys, experiment,
                                             patch, key, validate_rc, run_rc):
    doc = simulate_config(tmp_path / "o")
    doc.update(experiment=experiment, **patch)
    doc["rng"]["trajectories"] = 4
    cfg = write_config(tmp_path, "cfg.json", doc)
    for command, rc in (("validate", validate_rc), ("run", run_rc)):
        # an exception escaping main, a traceback on the command line, fails
        assert main([command, "--config", cfg]) == rc, command
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc == 2:
            assert key in err, (command, err)


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
