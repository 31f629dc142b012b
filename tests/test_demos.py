import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_feedback_model_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "feedback_model.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "softmax pmf of the whole history: shape (1000, 4)" in out
    assert "MLE solve: converged" in out
    assert list(tmp_path.iterdir()) == []
