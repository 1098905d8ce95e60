"""Every module-level function and class of the package has a caller in the
package, so ``src/`` holds what ``gh`` runs and nothing kept only for tests."""

from __future__ import annotations

import ast
from pathlib import Path

import ghlab

PACKAGE = Path(ghlab.__file__).resolve().parent

# names kept with no caller in the package, and why; a name that gains a
# caller or goes must leave this set too
ALLOWED = {
    # constructions from the paper, for ROADMAP item 11 to check as `gh verify` entries
    "lipschitz.band_lift",
    "gluing.glue_triple_w",
    # a span that perfbench/tracing.py wraps by name
    "gluing.validate_gluing",
    # ROADMAP item 3 deletes it with the row search it names
    "gluing.enumerate_correspondences",
    # ROADMAP item 6: the tests' line-metric constructor, at about 80 call sites
    "metric_core.line_space",
}


def _registered(node: ast.AST) -> bool:
    """A ``gh`` handler: ``cli._command`` registers it, and ``main`` calls it
    through the parsed arguments."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in getattr(node, "decorator_list", ())
    )


def _uncalled() -> list:
    """Qualified names of the module-level functions and classes that no
    code of the package names outside their own definition; ``__init__``
    only re-exports, and docstrings and comments are not code."""
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _registered(top):
                    defined.append((path.stem, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    named.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in named)


def test_every_function_and_class_in_src_has_a_caller_in_src():
    assert _uncalled() == sorted(ALLOWED)
