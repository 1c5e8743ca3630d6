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

