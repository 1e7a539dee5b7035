import ast
import pathlib
import sys

import pytest

import semimod


def test_no_assert_statements_in_the_package():
    # soundness checks must raise typed errors: `python -O` strips asserts
    root = pathlib.Path(semimod.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []


def test_test_extra_declares_every_test_dependency():
    # a dependency missing from the extra makes importorskip skip silently
    tomllib = pytest.importorskip("tomllib")
    repo = pathlib.Path(__file__).parent.parent
    declared = set(
        tomllib.loads((repo / "pyproject.toml").read_text(encoding="utf-8"))
        ["project"]["optional-dependencies"]["test"]
    )
    local = {p.stem for p in (repo / "tests").glob("*.py")} | {"semimod"}
    used = set()
    for path in (repo / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                used.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module.split(".")[0])
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "importorskip"
            ):
                used.add(node.args[0].value)
    assert used - set(sys.stdlib_module_names) - local <= declared
