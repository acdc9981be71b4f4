import ast
from pathlib import Path

import isotypic


def test_library_has_no_assert_statements():
    """Correctness checks must raise typed errors: ``python -O`` strips asserts."""
    root = Path(isotypic.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
