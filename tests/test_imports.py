"""Every name a zetasphere module imports is used in that module, except
the few kept on purpose for other importers."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "zetasphere"
MODULES = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem != "__init__")

# (module, name): why the import stays although the module never uses it
KEPT = {
    ("zeros", "completed_zeta"): "perfbench/spans.py WRAPPED patches zeros.completed_zeta",
    ("verify", "functional_rhs"): "perfbench/spans.py WRAPPED patches verify.functional_rhs",
    ("modulus", "f_factor"): "the acceptance tests import it from modulus; perfbench/spans.py WRAPPED patches it",
}


def unused_imports(module: str) -> set[str]:
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    kept = {name for mod, name in KEPT if mod == module}
    # a kept name that is used again, or no longer imported, leaves KEPT
    assert unused_imports(module) == kept
