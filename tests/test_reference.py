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


def test_normal_order_and_the_verdicts_compose_raw_cores():
    # normal_order and every verdict read raw terms and build no element
    # on the way; the one boxed step left is normal_order's second check,
    # env_eq on mu_state of its result
    boxed = {"section_s", "oracle_normal_order", "state_canon", "state_eq", "straighten",
             "act", "act_word"}
    normal_order_only = {"env_eq", "mu_state"}
    found = []
    for name in ("normalform.py", "checks.py"):
        tree = ast.parse((HERE.parent / "src" / "envnorm" / name).read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in boxed or (callee in normal_order_only and func.name != "normal_order"):
                    found.append(f"{name}:{node.lineno} {func.name} calls {callee}")
    assert found == []
