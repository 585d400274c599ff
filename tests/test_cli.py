import json

import pytest

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
