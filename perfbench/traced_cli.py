"""Run one deeplda CLI command with every public library function timed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <deeplda arguments>

Before the command runs, each public function of the layer modules (and
each public method of the classes in ``deeplda.rng``) is replaced by a
wrapper that records a span: name, start, end and the index of the
enclosing span. The wrapper is bound in every ``deeplda`` module namespace
that holds the original function, so a name imported elsewhere (``forward``
in ``pipeline``, ``matmul`` in ``network``) is timed as well. A module or
function that does not exist is skipped, never an error, so the same file
traces older and newer versions of the library.

The spans, the import time of ``deeplda.cli`` and the command's exit code
are written to SPANS_JSON when the command ends; the process exits with the
command's own code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "data", "rng", "network", "linalg", "pipeline", "metrics")

clock = time.perf_counter_ns


class Recorder:
    """In-memory span list plus the stack of currently open spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, info]
        self.stack: list[int] = []

    def wrap(self, name: str, fn, annotator=(None, None)):
        """``annotator`` is (pre, post): pre(args) runs before the call and
        post(args, kwargs, result, pre_value) returns the span's info dict."""
        spans, stack = self.spans, self.stack
        pre, post = annotator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            before = pre(args) if pre is not None else None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                try:
                    rec[4] = post(args, kwargs, result, before)
                except Exception:  # an annotation must never break the command
                    rec[4] = None
            return result

        return traced


def _rng_counter(args):
    return getattr(args[0], "counter", None) if args else None


def _rng_draws(args, kwargs, result, before):
    after = _rng_counter(args)
    if before is None or after is None:
        return None
    return {"draws": int(after) - int(before)}


def _forward_info(args, kwargs, result, before):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
    return {"mode": str(mode), "rows": int(args[1].shape[0])}


def _transpose_info(args, kwargs, result, before):
    return {"bytes": int(args[0].nbytes)}


def _rows_info(args, kwargs, result, before):
    return {"rows": int(result.n_rows)}


ANNOTATORS = {
    "network.forward": (None, _forward_info),
    "linalg.transpose": (None, _transpose_info),
    "data.load_csv": (None, _rows_info),
}
RNG_ANNOTATOR = (_rng_counter, _rng_draws)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(recorder: Recorder) -> set[str]:
    """Wrap every public layer function; return the wrapped names."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"deeplda.{layer}")
        except ImportError:
            continue
    replacements = {}  # id(original) -> (original, wrapper)
    found = set()
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            qual = f"{layer}.{attr}"
            replacements[id(fn)] = (fn, recorder.wrap(qual, fn, ANNOTATORS.get(qual, (None, None))))
            found.add(qual)
        if layer == "rng":
            for cname, cls in vars(module).items():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for mname, meth in list(vars(cls).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        qual = f"rng.{cname}.{mname}"
                        setattr(cls, mname, recorder.wrap(qual, meth, RNG_ANNOTATOR))
                        found.add(qual)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "deeplda" or mod_name.startswith("deeplda.")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- <deeplda arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = clock()
    cli = importlib.import_module("deeplda.cli")
    import_ns = clock() - t0
    recorder = Recorder()
    found = install(recorder)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ns": import_ns, "exit_code": code, "wrapped": sorted(found),
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
