"""Checks on the source itself: it parses as the oldest Python that
pyproject.toml allows, only harness/formats.py parses JSON, only
spectral.py imports threads or numbers, only harness/oracle.py imports
shlex, and every name the benchmark's tracer wraps exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from freqfuse.harness.oracle import CaptionOracle

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


def _imports(tree, wanted):
    """Line numbers of the imports of the top-level modules wanted, or of
    their submodules, in a module, in any form."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in wanted for name in names):
            lines.append(node.lineno)
    return lines


def _imported_only_in(owner, wanted):
    """Where a module of src/freqfuse other than owner imports one of wanted,
    as "<module>:<line>"; owner must import one."""
    package = ROOT / "src" / "freqfuse"
    assert _imports(ast.parse((package / owner).read_text(encoding="utf-8")), wanted)
    return sorted(
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.rglob("*.py"))
        if path != package / owner
        for line in _imports(ast.parse(path.read_text(encoding="utf-8")), wanted)
    )


def test_only_spectral_starts_threads():
    """The transforms' one worker thread lives in spectral.py; no other
    module imports threading or concurrent.futures."""
    elsewhere = _imported_only_in("spectral.py", ("threading", "concurrent"))
    assert not elsewhere, f"threads imported outside spectral.py: {elsewhere}"


@pytest.mark.parametrize(
    "owner, module",
    [
        # check_real is the one rule for a real number
        ("spectral.py", "numbers"),
        # parse_command is the one parser of a captioner command
        ("harness/oracle.py", "shlex"),
    ],
)
def test_one_module_owns_each_input_rule(owner, module):
    elsewhere = _imported_only_in(owner, (module,))
    assert not elsewhere, f"{module} imported outside {owner}: {elsewhere}"


def _literal_tables(path, names):
    """The literal values assigned to each of names at the top of a module,
    read without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }


def test_every_name_the_tracer_wraps_exists():
    """bench/tracing.py wraps functions and CaptionOracle methods by name;
    a rename would break only a traced benchmark run."""
    tables = _literal_tables(ROOT / "bench" / "tracing.py", {"FUNCTIONS", "ORACLE_METHODS"})
    assert set(tables) == {"FUNCTIONS", "ORACLE_METHODS"}
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tables["FUNCTIONS"]
        if not hasattr(importlib.import_module(module), attr)
    ]
    missing += [
        f"CaptionOracle.{attr}"
        for attr, _ in tables["ORACLE_METHODS"]
        if attr not in vars(CaptionOracle)
    ]
    assert not missing, f"bench/tracing.py wraps names that do not exist: {missing}"
