"""Run the short demos end to end, so an API change cannot break them
unseen. Demo 06 is left out: it is a full LOSO run."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SHORT = (
    "01_synthetic_landmarks.py",
    "02_graph_building.py",
    "03_autodiff.py",
    "04_model_forward.py",
    "05_losses.py",
)


@pytest.mark.parametrize("name", SHORT)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
