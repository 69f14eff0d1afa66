"""The tests' plain-data references stand apart from the engine."""

import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent


@pytest.mark.parametrize("name", ["reference.py", "closed_forms.py", "central.py", "golden_runs.py"])
def test_plain_references_import_only_the_standard_library(name):
    # so no engine code, envnorm or a test helper that imports it, stands
    # behind a reference the engine is judged by; and the golden runs, as a
    # script, exercise the installed console script and nothing else
    tree = ast.parse((HERE / name).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert [m for m in imported if m.split(".")[0] not in sys.stdlib_module_names] == []


def test_src_catches_no_broad_exception():
    # a bare except, Exception or BaseException would turn a resource error,
    # a RecursionError or a MemoryError, into a report line or a wrong exit
    # code; src/ names the errors it handles
    broad = {"Exception", "BaseException"}
    paths = sorted((HERE.parent / "src" / "envnorm").rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in broad for c in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
