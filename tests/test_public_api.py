"""The package root holds exactly the README's library API, and the README's
library example runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

import jetlift

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_root_exports_the_readme_api():
    (imported,) = [
        node
        for node in ast.parse(library_block()).body
        if isinstance(node, ast.ImportFrom) and node.module == "jetlift"
    ]
    readme_names = {alias.name for alias in imported.names}
    # ``evaluate`` takes a LiftTable and AlgebraElements.
    expected = readme_names | {"AlgebraElement", "LiftTable", "__version__"}
    assert sorted(jetlift.__all__) == sorted(expected)
    assert len(jetlift.__all__) == len(set(jetlift.__all__)) == 11
    assert all(hasattr(jetlift, name) for name in jetlift.__all__)


def test_readme_library_example_gives_its_commented_results():
    block = library_block()
    lines = block.splitlines()
    env: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env)
            comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
            assert repr(value) == comment
            checked.append(comment)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    assert checked == ["3", "True"]
