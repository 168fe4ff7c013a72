"""Every name an example script imports from ``repro`` exists.

The example scripts train for minutes, and nothing runs some of them
(``end_to_end_iot.py``, ``search_architecture.py``), so a renamed or
deleted library name would otherwise break them unnoticed.  This parses
each script and resolves its ``repro`` imports without running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _repro_imports(path):
    """``(module, name)`` per ``from repro... import name``, and
    ``(module, None)`` per ``import repro...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def _resolves(module, name):
    owner = importlib.import_module(module)
    if name is None or hasattr(owner, name):
        return True
    try:  # a submodule, as in ``from repro import rng``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    missing = [f"{module}:{name}" for module, name in imports
               if not _resolves(module, name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
