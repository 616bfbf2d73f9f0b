"""README's ``## Library`` example runs as written, and its ``## CLI``
examples print the lines they show."""
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


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == code.count("print(")


def test_every_cli_example_with_output_is_run():
    assert {command for command, shown in cli_examples().items() if shown} == set(CLI_RUNS)


@pytest.mark.parametrize("command", CLI_RUNS)
def test_cli_example_prints_what_it_shows(command, capsys):
    assert cli.main(CLI_RUNS[command].split()) == 0
    assert capsys.readouterr().out.splitlines() == cli_examples()[command]
