"""Every registry entry at quick size, and the ledger it is held to.

``test_quick`` is the whole contract for an experiment in tier-1: run it
at its quick parameters, apply its ``check`` (the paper's claim, or the
beyond-paper guarantee, as a shape assertion), and require everything
deterministic about the result to equal the committed ``quick`` section
of ``benchmarks/results/<name>.json``. No wall-clock figure is read
here; the two wall floors belong to ``python -m repro.bench``.
"""

import json

import pytest

from repro.bench import (
    ALL_EXPERIMENTS,
    Experiment,
    Result,
    Table,
    harness,
    run_experiment,
)
from repro.bench.__main__ import main

SECTION = {"params", "table", "detail", "digests"}


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_quick(name):
    exp = ALL_EXPERIMENTS[name]
    result = run_experiment(exp, quick=True)
    harness.check_ledger(name, exp, result, quick=True)


def test_ledger_has_one_file_per_experiment_in_one_shape():
    files = sorted(path.name for path in harness.RESULTS_DIR.iterdir())
    assert files == sorted(f"{name}.json" for name in ALL_EXPERIMENTS)
    for name in ALL_EXPERIMENTS:
        ledger = harness.read_ledger(name)
        assert set(ledger) == {"experiment", "commit", "host", "full",
                               "quick"}, name
        assert ledger["experiment"] == name
        assert ledger["commit"], name
        assert set(ledger["host"]) == {"cpus", "python", "platform"}, name
        assert set(ledger["full"]) == SECTION | {"wall"}, name
        assert set(ledger["quick"]) == SECTION, name


def test_write_is_the_only_writer(tmp_path, monkeypatch, capsys):
    """``--write`` runs both sizes into the ledger directory; without
    it a run leaves the directory alone."""
    committed = (harness.RESULTS_DIR / "e4.json").read_text()
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    (tmp_path / "e4.json").write_text(committed)
    assert main(["e4", "--quick"]) == 0
    assert (tmp_path / "e4.json").read_text() == committed
    assert main(["e4", "--write"]) == 0
    assert "wrote" in capsys.readouterr().out
    written = json.loads((tmp_path / "e4.json").read_text())
    assert written["quick"] == json.loads(committed)["quick"]
    assert set(written["full"]) == SECTION | {"wall"}


def test_floor_and_its_one_override(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    (tmp_path / "x.json").write_text(
        json.dumps({"full": {"wall": {"rate": 100.0}}}))
    exp = Experiment(run=None, check=None, full={}, quick={},
                     floor=("rate", 0.8))
    slow = Result(Table("t", []), wall={"rate": 70.0})
    monkeypatch.delenv("SMOKE_MIN_FRACTION", raising=False)
    with pytest.raises(AssertionError, match="rate regression"):
        harness.check_floor("x", exp, slow)
    monkeypatch.setenv("SMOKE_MIN_FRACTION", "0.5")
    harness.check_floor("x", exp, slow)
