import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/file-formats.md")


def _mentions(pattern):
    """Every match of ``pattern``'s first group in the documents, by document."""
    return {doc: set(re.findall(pattern, (ROOT / doc).read_text(encoding="utf-8")))
            for doc in DOCS}


def test_every_path_the_docs_mention_exists():
    # a repository path in prose or a link: tools/..., src/..., docs/...,
    # tests/... or demos/..., up to the first character no path holds
    found = _mentions(r"(?<![\w./<>-])((?:tools|src|docs|tests|demos)/[\w./-]*\w)")
    assert found["README.md"]
    missing = {doc: sorted(p for p in paths if not (ROOT / p).exists())
               for doc, paths in found.items()}
    assert missing == {doc: [] for doc in DOCS}


def test_every_test_the_docs_name_is_defined():
    # a test named in prose, not a test module (test_cli.py)
    found = _mentions(r"\b(test_\w+)\b(?!\.py)")
    assert found["README.md"]
    defined = {name for module in (ROOT / "tests").glob("*.py")
               for name in re.findall(r"^def (test_\w+)", module.read_text(encoding="utf-8"),
                                      re.MULTILINE)}
    missing = {doc: sorted(names - defined) for doc, names in found.items()}
    assert missing == {doc: [] for doc in DOCS}
