"""The package's export list, and the names the benchmark imports from it."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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


def _benchmark_module(monkeypatch):
    """perfbench/run.py, loaded by its path; its dataclasses need it in sys.modules
    while it runs, and monkeypatch takes it out again."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCHMARK)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_model_attribute_the_benchmark_reads_exists(tmp_path, monkeypatch):
    # The evaluate oracle reads a loaded model's fields, and apply_standardizer
    # the standardizer's, so a rename would otherwise surface only there.
    oracle = next(node for node in ast.walk(ast.parse(BENCHMARK.read_text(encoding="utf-8")))
                  if isinstance(node, ast.FunctionDef) and node.name == "expected_evaluate_report")
    read = {ast.unparse(node) for node in ast.walk(oracle) if isinstance(node, ast.Attribute)
            and ast.unparse(node).startswith("model.")}
    assert {"model.standardizer", "model.config2.threshold"} <= read  # the walk sees them
    g = np.random.default_rng(5)
    x = g.normal(size=(40, 3)) * [1.0, 10.0, 100.0]
    y = np.arange(40) % 2
    standardizer = deeplda.Standardizer(x.mean(axis=0), x.std(axis=0), np.median(x, axis=0),
                                        ("a", "b", "c"))
    model = deeplda.TwoPhaseModel(
        phase1=deeplda.init_network(deeplda.build_phase1_spec(3), deeplda.SplitMix64(0)),
        phase2=deeplda.init_network(deeplda.build_phase2_spec(), deeplda.SplitMix64(1)),
        standardizer=standardizer)
    # A threshold inside the probabilities, so the report has both labels.
    probs, _ = deeplda.predict_two_phase(model, (x - standardizer.mean) / standardizer.std)
    model = dataclasses.replace(model, config2=deeplda.TrainConfig(
        threshold=float(np.median(probs))))
    deeplda.save_two_phase(model, tmp_path / "m")
    (tmp_path / "schema.json").write_text('{"target": "label"}', encoding="utf-8")
    (tmp_path / "eval.csv").write_text("a,b,c,label\n" + "".join(
        f"{r[0]!r},{r[1]!r},{r[2]!r},{t}\n" for r, t in zip(x.tolist(), y)), encoding="utf-8")
    loaded = deeplda.load_two_phase(tmp_path / "m")
    for chain in read | {"model.standardizer.mean", "model.standardizer.std"}:
        value = loaded
        for attr in chain.split(".")[1:]:
            assert hasattr(value, attr), chain
            value = getattr(value, attr)
    # The oracle's own call, on the one preprocessing record.
    report = _benchmark_module(monkeypatch).expected_evaluate_report(
        SimpleNamespace(model_dir=tmp_path / "m", directory=tmp_path))
    counts = deeplda.evaluate_two_phase(loaded, tmp_path / "eval.csv",
                                        deeplda.load_schema(tmp_path / "schema.json"))
    assert counts.tp and counts.tn  # both labels predicted and right at least once
    assert report == deeplda.format_report(counts) + "\n"


GUARDED = {"json.load", "json.dump", "os.replace", "os.fsync", "np.savez", "_adam_update",
           "np.median", "np.copyto", "_check_inputs"}


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
             if call[2] not in {"_adam_update", "np.median", "np.copyto", "_check_inputs"}}
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


def test_features_are_standardized_in_one_place():
    # train, load_split's overflow probe and read_blocks all scale through
    # _standardize. The probe once repeated the arithmetic, and the two copies
    # must agree bit for bit, or a cell passes the probe and then overflows.
    found = set()
    for path in sorted(Path(deeplda.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]:
            for node in ast.walk(fn):
                if isinstance(node, ast.BinOp):
                    op, operand = node.op, node.right
                elif isinstance(node, ast.AugAssign):
                    op, operand = node.op, node.value
                else:
                    continue
                if isinstance(operand, ast.Attribute) and (type(op), operand.attr) in {
                        (ast.Sub, "mean"), (ast.Div, "std")}:
                    found.add((path.stem, fn.name))
    assert found == {("data", "_standardize")}


def test_a_models_preprocessing_is_checked_by_one_rule():
    # A model checks that its standardizer names each phase-1 input when it is
    # made, and train_two_phase applies the same rule before it trains; a second
    # copy of the rule once let a model save that load_two_phase then refused.
    assert {call for call in _guarded_calls() if call[2] == "_check_inputs"} == {
        ("pipeline", "__post_init__", "_check_inputs"),
        ("pipeline", "train_two_phase", "_check_inputs")}
