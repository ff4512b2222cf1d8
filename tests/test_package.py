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


GUARDED = {"json.load", "json.dump", "os.replace", "os.fsync", "np.savez", "_adam_update",
           "np.median", "np.copyto"}


class _GuardedCalls(ast.NodeVisitor):
    """Each call of a GUARDED function, as (module, enclosing function, name)."""

    def __init__(self, module: str):
        self.module, self.where, self.found = module, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_ImportFrom(self, node):
        for alias in node.names:
            for name in (f"{node.module}.{alias.name}", alias.name):
                if name in GUARDED:
                    self.found.add((self.module, "<import>", name))

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute):
            names = {f.attr} | ({f"{f.value.id}.{f.attr}"} if isinstance(f.value, ast.Name)
                                else set())
        else:
            names = {getattr(f, "id", None)}
        for name in names & GUARDED:
            self.found.add((self.module, self.where[-1], name))
        self.generic_visit(node)


def _guarded_calls():
    found = set()
    for path in sorted(Path(deeplda.__file__).resolve().parent.glob("*.py")):
        visitor = _GuardedCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    return found


def test_json_files_and_directory_swaps_each_have_one_implementation():
    # Copies of these drifted apart in their error handling before; network
    # headers are parsed in memory with json.loads, which is not guarded, and
    # model archives are written by save_network alone.
    found = {call for call in _guarded_calls()
             if call[2] not in {"_adam_update", "np.median", "np.copyto"}}
    assert found == {("data", "read_json", "json.load"), ("data", "write_json", "json.dump"),
                     ("pipeline", "replacing", "os.replace"), ("pipeline", "_fsync", "os.fsync"),
                     ("network", "save_network", "np.savez")}


def test_adam_is_applied_in_one_place():
    # fit and adam_step both update through _adam_apply, which keeps the step
    # number, the moments and the version bump; a second loop over
    # _adam_update would be a second copy of those rules.
    assert {call for call in _guarded_calls() if call[2] == "_adam_update"} == {
        ("network", "_adam_apply", "_adam_update")}


def test_column_medians_are_taken_in_one_place():
    # train, baseline and clean all take their medians from _medians. A
    # second np.median once read the stored medians back from a table imputed
    # over all its rows, so validation cells reached the model.
    assert {call for call in _guarded_calls() if call[2] == "np.median"} == {
        ("data", "_medians", "np.median")}


def test_missing_cells_are_filled_in_one_place():
    # clean, load_split and read_blocks all fill through _dataset, each with
    # the medians it fitted or loaded, so a scored file is filled as the
    # training rows were.
    assert {call for call in _guarded_calls()
            if call[0] == "data" and call[2] == "np.copyto"} == {
        ("data", "_dataset", "np.copyto")}
