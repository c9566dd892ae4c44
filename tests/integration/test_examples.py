"""The shipped examples must actually run (they are the documentation)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Every example but the EXPERIMENTS.md generator, which has its own CI step.
FAST_EXAMPLES = sorted(
    p.name for p in EXAMPLES.glob("*.py") if p.name != "generate_experiments_md.py"
)


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_to_completion(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"


def test_example_scripts_all_have_docstrings_and_main_guard():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.lstrip().startswith('"""'), f"{script.name} lacks a docstring"
        if script.name != "generate_experiments_md.py":
            assert 'if __name__ == "__main__":' in text, script.name


# The EXPERIMENTS.md generator itself is exercised through the benchmark
# suite (every figure driver it calls runs there at quick scale); running
# it here at full scale would take minutes per test session.
