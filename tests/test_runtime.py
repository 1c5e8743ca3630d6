"""The runtime depends on the standard library only: every module of the
package imports nothing but stdlib modules and the package itself."""

import ast
import pathlib
import sys

import weierforge


def _imported_top_level_modules(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_stdlib():
    paths = sorted(pathlib.Path(weierforge.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for name in _imported_top_level_modules(path.read_text()):
            assert name == "weierforge" or name in sys.stdlib_module_names, (path.name, name)


def test_no_assert_statement_survives_in_the_package():
    # python -O drops assert statements; invariant checks raise
    # AssertionError themselves, which the CLI maps to exit 3
    for path in sorted(pathlib.Path(weierforge.__file__).parent.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_every_imported_name_is_used():
    # a name a module imports is read in that module; the package's
    # __init__ re-exports its imports, so there they must be in __all__
    for path in sorted(pathlib.Path(weierforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        if path.name == "__init__.py":
            used = set(weierforge.__all__)
        else:
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, (path.name, sorted(imported - used))


def test_every_private_helper_is_referenced():
    # a module-level _name is read in the package outside its own
    # definition, so a helper goes when its last caller goes; references
    # are names in the code (Name and Attribute nodes), not in comments or
    # docstrings
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(weierforge.__file__).parent.glob("*.py"))}
    refs = [(ref.id if isinstance(ref, ast.Name) else ref.attr, id(ref))
            for tree in trees.values() for ref in ast.walk(tree)
            if isinstance(ref, (ast.Name, ast.Attribute))]
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                inside = {id(n) for n in ast.walk(node)}
                assert any(ref == node.name and i not in inside for ref, i in refs), (name, node.name)
