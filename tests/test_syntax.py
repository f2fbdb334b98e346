"""Checks on the source itself: it parses as the oldest Python that
pyproject.toml allows, and only harness/formats.py parses JSON."""

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


def _json_loads_calls(tree):
    """Line numbers of the calls to json.loads in a module, by any name
    that `import json [as m]` or `from json import loads [as f]` binds."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {a.asname or a.name for a in node.names if a.name == "loads"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id in functions
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
        )
    ]


def test_only_formats_parses_json():
    """Every JSON input is decoded, parsed and refused in harness/formats.py."""
    package = ROOT / "src" / "freqfuse"
    formats = package / "harness" / "formats.py"
    assert _json_loads_calls(ast.parse(formats.read_text(encoding="utf-8")))
    elsewhere = {
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.rglob("*.py"))
        if path != formats
        for line in _json_loads_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not elsewhere, f"json.loads called outside harness/formats.py: {sorted(elsewhere)}"
