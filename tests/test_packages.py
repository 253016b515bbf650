"""Package ``__init__`` files hold their docstring and nothing else.

So every name has one import path, its defining module, and importing
one module loads only what that module imports.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_package_inits_are_docstrings_alone():
    inits = sorted(PACKAGE_ROOT.rglob("__init__.py"))
    assert len(inits) > 1
    for path in inits:
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), path
        assert len(tree.body) == 1, path
