"""The package's source parses as the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_the_oldest_supported_python():
    """Checks syntax only, not library APIs: a call to a function that the
    oldest version's standard library or numpy lacks still passes. ast's
    feature_version is best effort, so this catches most, not all, newer
    grammar."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
