"""Every module of the package uses each name it imports, and the package compiles each regular expression once."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import ravu

MODULES = sorted(p for p in Path(ravu.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, loads)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def compiled_patterns(source: str) -> list[str]:
    """The literal pattern of each ``re.compile`` call, with its groups' parentheses left out."""
    return [
        re.sub(r"(?<!\\)[()]", "", node.args[0].value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "compile"
        and isinstance(node.args[0], ast.Constant)
    ]


def test_checker_reads_patterns_without_their_groups():
    assert compiled_patterns('A = re.compile(r"\\[E(\\d+)\\]")\nB = re.compile(r"[.!?]")') == [r"\[E\d+\]", "[.!?]"]


def test_each_pattern_is_compiled_once_in_the_package():
    counts = Counter(pattern for path in MODULES for pattern in compiled_patterns(path.read_text()))
    assert [pattern for pattern, n in counts.items() if n > 1] == []
