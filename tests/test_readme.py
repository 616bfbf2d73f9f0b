"""README's ``## Library`` and trial-averaged sweep examples run as
written, and its ``## CLI`` examples print the lines they show."""
import re
from pathlib import Path

import pytest

from untrusted_noma import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# each CLI example that shows output, as README writes it, and the argv that
# prints those lines: the gain defaults run N = 2, 3, 4, and N = 2 alone
# prints the header and the first row
CLI_RUNS = {
    "untrusted-noma count --users 3": "count --users 3",
    "untrusted-noma policy --users 3 --beta -0.5": "policy --users 3 --beta -0.5",
    "untrusted-noma gain [--users 2,3,4] [--trials 1000] [--seed 20250810]": "gain --users 2",
}


def cli_examples() -> dict[str, list[str]]:
    """Each command of the ``## CLI`` block, without its trailing comment,
    and the output lines shown under it (``# ...`` elisions dropped)."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    examples: dict[str, list[str]] = {}
    for line in block.splitlines():
        if line.startswith("untrusted-noma "):
            shown = examples.setdefault(line.split("  #")[0].rstrip(), [])
        elif line.startswith("# ") and line != "# ...":
            shown.append(line[2:])
    return examples


def python_block(heading: str) -> str:
    """The first ``python`` block after the README heading line."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    code = python_block("## Library")
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == code.count("print(")


def test_sweep_example_writes_a_row_per_scheme_and_beta(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(python_block("## Trial-averaged beta sweep"), "README.md", "exec"), {})
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "scheme,beta,mean_min_secrecy_rate"
    assert len(rows) == 1 + 5 * 21


def test_every_cli_example_with_output_is_run():
    assert {command for command, shown in cli_examples().items() if shown} == set(CLI_RUNS)


@pytest.mark.parametrize("command", CLI_RUNS)
def test_cli_example_prints_what_it_shows(command, capsys):
    assert cli.main(CLI_RUNS[command].split()) == 0
    assert capsys.readouterr().out.splitlines() == cli_examples()[command]


def test_example_config_runs_as_written(capsys, tmp_path, monkeypatch):
    # its first line is a whole-line comment; simulate mirrors stdout to runs.csv
    section = README.read_text().split("\n### Config files\n", 1)[1]
    example = tmp_path / "example.cfg"
    example.write_text(re.search(r"```\n(.*?)```", section, re.S).group(1))
    assert cli.read_config_file(str(example))["output_path"] == "runs.csv"
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", str(example)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 + 1000 * 5 * 3
    assert (tmp_path / "runs.csv").read_bytes() == out.encode()
