import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pmichannel

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_feedback_model_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "feedback_model.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "softmax pmf of the whole history: shape (1000, 4)" in out
    assert "MLE solve: converged" in out
    assert list(tmp_path.iterdir()) == []


def test_tau_ablation_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "tau_ablation.py"), run_name="__main__")
    printed = re.findall(r"^ +(\S+) T= ?(\d+)  improvement [+-]\d\.\d{4}$", capsys.readouterr().out, re.M)
    variants = [f"tau={g}" for g in (0.1, 0.5, 1.0, 5.0, 10.0, 100.0)]
    variants += [f"init={g}" for g in ("identity", "random", "spectral")]
    assert sorted(printed) == sorted((f"subspace-mle[{v}]", T) for v in variants for T in ("5", "10"))
    assert list(tmp_path.iterdir()) == []


def test_readme_python_blocks_run(tmp_path):
    """Every ``python`` block of README.md runs as written in a fresh interpreter."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    src = str(Path(pmichannel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for code in blocks:
        subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True)
    assert list(tmp_path.iterdir()) == []


def test_theory_checks_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "theory_checks.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = re.findall(r"^\[pass\] (\w+) +value=\S+  threshold=\S+  rule=(.+)$", out, re.M)
    assert len(rows) == 13
    assert rows[0] == ("gauge_nullity", "<=") and rows[-1] == ("excess_risk_slope", "in [-1.15; -0.85]")
    assert "\n13/13 checks passed\n" in out
    assert list(tmp_path.iterdir()) == []
