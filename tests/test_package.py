"""The package's export list."""

import ast
import inspect

import deeplda


def test_all_resolves_and_lists_every_public_import():
    assert all(hasattr(deeplda, name) for name in deeplda.__all__)
    tree = ast.parse(inspect.getsource(deeplda))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(deeplda.__all__) == sorted(public | {"__version__"})
