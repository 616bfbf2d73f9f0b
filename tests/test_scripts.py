"""Smoke tests of the experiment scripts: each ``main()`` runs end to end on
two trials and writes the expected header and number of rows."""
import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, argv: list[str], monkeypatch) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.mark.parametrize(
    "name, header, rows",
    [
        ("run_beta_sweep", ["scheme", "beta", "mean_min_secrecy_rate"], 5 * 21),
        ("run_gain_vs_users", ["n_users", "mean_policy_value", "mean_benchmark_value", "gain_percent"], 3),
    ],
)
def test_script_writes_header_and_rows(name, header, rows, tmp_path, monkeypatch, capsys):
    out = tmp_path / f"{name}.csv"
    _run_script(name, ["--trials", "2", "--out", str(out)], monkeypatch)
    table = _read(out)
    assert table[0] == header
    assert len(table) == 1 + rows
    assert f"wrote {out}" in capsys.readouterr().out
