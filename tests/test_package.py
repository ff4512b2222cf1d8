"""The package's export list, and the names the benchmark imports from it."""

import ast
import importlib
import inspect
from pathlib import Path

import deeplda

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_all_resolves_and_lists_every_public_import():
    assert all(hasattr(deeplda, name) for name in deeplda.__all__)
    tree = ast.parse(inspect.getsource(deeplda))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(deeplda.__all__) == sorted(public | {"__version__"})


def test_every_name_the_benchmark_imports_exists():
    # The benchmark imports inside functions, so a deleted name would
    # otherwise surface only when its check runs.
    tree = ast.parse(BENCHMARK.read_text(encoding="utf-8"))
    wanted = [(node.module, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and node.module in ("deeplda", "deeplda.network", "deeplda.pipeline")
              for alias in node.names]
    assert ("deeplda", "load_two_phase") in wanted  # the walk sees the imports
    missing = [f"{module}.{name}" for module, name in wanted
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
