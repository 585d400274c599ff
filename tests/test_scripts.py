"""Every script under scripts/ runs end to end at a toy size."""

import runpy
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("kernel_convergence.py", ["--ladder", "8", "16", "--k-fine", "16"]),
    ("coupled_pair_break_even.py", ["--one-factor", "8", "--sixteen-factor",
                                    "520", "--steps", "20", "--repeats", "1"]),
])
def test_script_runs(script, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert capsys.readouterr().out


def test_run_all_configs_runs(tmp_path, monkeypatch, capsys):
    # a copy of the script finds the configs next to it: two cheap ones
    (tmp_path / "scripts").mkdir()
    (tmp_path / "configs").mkdir()
    script = shutil.copy(ROOT / "scripts" / "run_all_configs.py",
                         tmp_path / "scripts")
    for name in ("kernel_error", "lyapunov_check"):
        shutil.copy(ROOT / "configs" / f"{name}.json", tmp_path / "configs")
    monkeypatch.setattr(sys, "argv", ["run_all_configs.py", "--out",
                                      str(tmp_path / "out")])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert "kernel_error/verdict.json" in out
    assert "lyapunov_check/verdict.json" in out
