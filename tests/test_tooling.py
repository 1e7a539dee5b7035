import ast
import pathlib

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
