"""The package holds production code only.

Every top-level function and class of ``superbraid`` (``__init__`` aside),
and every public method of such a class, must be named somewhere in the
package, as a name or an attribute, or sit on the allowlist below with the
reason it stays; a method is listed as ``Class.method``.  Code whose only callers
are tests belongs in ``tests/``, next to ``casimir_oracle``,
``commutant_oracle``, ``schur_oracle`` and ``weight_oracle``.  ``__init__``
re-exports nothing: each name has one import path, its module.
"""

import ast
from pathlib import Path

import superbraid

PACKAGE = Path(superbraid.__file__).parent

# name -> why it stays in the package with no caller there
ALLOWED = {
    "rho_images": "negative control (the unshifted action), and a perfbench tracer target",
    "with_unsigned_swaps": "negative control (plain swaps in place of signed ones)",
    "commutant_dimension": "oracle that a perfbench tracer target pins until a benchmark change drops it",
    "s_action_on_paths": "seminormal-form prediction; its production caller waits on ROADMAP item 4",
    "module_to_json": "documented serialization of a realized module",
    "GeneratorImages.named_ops": "every image built, by name: the perfbench tracer counts their nonzeros, and the centralizer oracle reads it",
}


def _trees() -> dict:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _definitions(trees: dict) -> dict:
    """``{name: module}`` for each top-level function and class, and
    ``{"Class.method": module}`` for each public method of such a class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                out[node.name] = module
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = module
    return out


def _bare(name: str) -> str:
    """The name a caller writes: a method's own name, without its class."""
    return name.rpartition(".")[2]


def _named(trees: dict) -> set:
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_definition_is_named_in_the_package():
    trees = _trees()
    named = _named(trees)
    orphans = sorted(
        f"{module}:{name}"
        for name, module in _definitions(trees).items()
        if _bare(name) not in named and name not in ALLOWED
    )
    assert not orphans, f"no caller in the package; move to tests/ or allowlist with a reason: {orphans}"


def test_allowlist_is_current():
    trees = _trees()
    assert not sorted(set(ALLOWED) - set(_definitions(trees))), "allowlisted name no longer defined"
    called = sorted(name for name in ALLOWED if _bare(name) in _named(trees))
    assert not called, f"allowlisted name now has a caller in the package: {called}"


def test_init_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    bound = [ast.unparse(t) for node in body for t in getattr(node, "targets", [node])]
    assert bound == ["__version__"] and isinstance(body[0], ast.Assign), bound
