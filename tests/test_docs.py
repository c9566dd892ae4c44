"""The documents name only what exists: every backticked dotted ``repro.…``
name resolves by import and ``getattr``, and every ``examples/…``,
``benchmarks/…`` and ``tests/…`` path is a file or directory of the tree."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = sorted(
    path.relative_to(ROOT).as_posix()
    for path in [
        *ROOT.glob("docs/*.md"),
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / ".claude/skills/verify/SKILL.md",
    ]
    if path.exists()
)

_FENCE = re.compile(r"^\s*```.*?^\s*```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"(?<![\w./$-])(?:examples|benchmarks|tests)/[\w.-][\w./-]*")


def _text(doc: str) -> str:
    return (ROOT / doc).read_text(encoding="utf-8")


def _names(doc: str) -> set[str]:
    """The dotted ``repro.…`` names of the inline code spans (a name broken
    across lines after a dot is joined)."""
    spans = _SPAN.findall(_FENCE.sub("", _text(doc)))
    return {name for span in spans for name in _NAME.findall(re.sub(r"\.\s*\n\s*", ".", span))}


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then ``getattr`` the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_documents_are_found():
    assert {"README.md", "DESIGN.md", "docs/architecture.md"} <= set(DOCS)


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_repro_name_resolves(doc):
    missing = sorted(name for name in _names(doc) if not _resolves(name))
    assert not missing, f"{doc} names what does not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    paths = {path.rstrip(".") for path in _PATH.findall(_text(doc))}
    missing = sorted(path for path in paths if not (ROOT / path).exists())
    assert not missing, f"{doc} names paths that do not exist: {missing}"
