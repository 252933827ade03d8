"""Every imported name is read in its file.

An AST pass over the package modules (not ``__init__.py``, whose star
imports are its exports), the tests, the golden writer and the demos.  A
name counts as read when an expression loads it or its module's
``__all__`` lists it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "quantloc").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "tests" / "data").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    # the check itself: os is never read; np and pi are, and __all__ lists tau
    source = (
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "__all__ = ['tau']\nnp.zeros(pi)\n"
    )
    assert unused_imports(source) == ["os"]
    assert len(FILES) > 20
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in FILES
        for name in unused_imports(path.read_text())
    ]
    assert unused == []
