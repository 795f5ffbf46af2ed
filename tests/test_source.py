"""Source checks that hold for every module of the package."""

import ast
import pathlib

import pursuit

SOURCE = pathlib.Path(pursuit.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so no proof check may rely on one.
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        found += [f"{module.relative_to(SOURCE)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
