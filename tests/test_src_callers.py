"""Every module-level function and class of the package, and every method
and property of those classes, has a caller in the package, so ``src/``
holds what ``gh`` runs and nothing kept only for tests."""

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
    # ROADMAP item 6: the tests' line-metric constructor, at about 80 call sites
    "metric_core.line_space",
    # the tests' exact LP oracle (oracles.lift_bounds_lp, test_kantorovich),
    # and a span that perfbench/tracing.py wraps by name; w1 no longer solves
    # with it, and it goes once the tracer skips absent names (ROADMAP item 1)
    "simplex.solve_lp",
}


def _registered(node: ast.AST) -> bool:
    """A ``gh`` handler: ``cli._command`` registers it, and ``main`` calls it
    through the parsed arguments."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in getattr(node, "decorator_list", ())
    )


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCTIONS + (ast.ClassDef,)


def _named(node: ast.AST, inside: frozenset = frozenset()) -> set:
    """The names that code under node uses, each definition's own name left
    out inside that definition."""
    if isinstance(node, _DEFS):
        inside = inside | {node.name}
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _named(child, inside)
    return found - inside


def _uncalled() -> list:
    """Qualified names of the module-level functions and classes, and of the
    non-dunder methods and properties of those classes, that no code of the
    package names outside their own definition; ``__init__`` only
    re-exports, and docstrings and comments are not code."""
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, _DEFS) and not _registered(top):
                defined.append((f"{path.stem}.{top.name}", top.name))
            if isinstance(top, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{top.name}.{item.name}", item.name)
                    for item in top.body
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("__")
                ]
        named |= _named(tree)
    return sorted(qualified for qualified, name in defined if name not in named)


def test_every_function_and_class_in_src_has_a_caller_in_src():
    assert _uncalled() == sorted(ALLOWED)
