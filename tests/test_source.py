"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

from multifuture.nn import ops

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "multifuture"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that are never referenced or exported."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: dumps"]


def test_no_unused_module_level_import():
    found = [f"{path.relative_to(SRC)} {entry}"
             for path in sorted(SRC.rglob("*.py"))
             for entry in unused_imports(path.read_text())]
    assert found == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants of ``sources``
    (file name -> text) that no file of ``sources`` reads."""
    defined, used = {}, set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[path, name] = node.lineno
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    return [f"{path} line {line}: {name}"
            for (path, name), line in defined.items() if name not in used]


def test_guard_flags_an_unreferenced_private_name():
    sources = {"a.py": "_LIMIT = 3\n_SEEN: int = 0\n"
                       "def _helper():\n    return _LIMIT\n"
                       "class _Old:\n    pass\n"
                       "def public():\n    return b._shared()\n",
               "b.py": "from a import _SEEN\ndef _shared():\n    return 1\n"}
    assert unreferenced_private_names(sources) == ["a.py line 3: _helper",
                                                   "a.py line 5: _Old"]


def test_no_unreferenced_private_module_level_name():
    sources = {str(path.relative_to(SRC)): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    assert unreferenced_private_names(sources) == []


def ops_without_grad_check(op_names, sources: list[str]) -> list[str]:
    """The names of ``op_names`` that no function in ``sources`` calls
    together with ``grad_check`` (closures count as part of their function)."""
    covered = set()
    for source in sources:
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, ast.FunctionDef):
                called = {getattr(c.func, "attr", getattr(c.func, "id", None))
                          for c in ast.walk(fn) if isinstance(c, ast.Call)}
                if "grad_check" in called:
                    covered |= called
    return [name for name in op_names if name not in covered]


def test_guard_flags_an_op_without_grad_check():
    source = ("def test_a():\n    grad_check(lambda t: ops.relu(t).sum(), [x])\n"
              "def test_b():\n    ops.softmax(x)\n"
              "def test_c():\n    check(ops.linear)\n    grad_check(f, [x])\n"
              "def test_d():\n    def closure(t):\n        return conv1d(t)\n"
              "    grad_check(closure, [x])\n")
    assert ops_without_grad_check(["relu", "softmax", "linear", "conv1d"],
                                  [source]) == ["softmax", "linear"]


def test_every_op_is_grad_checked():
    # a new or fused op lands with finite-difference gradient coverage
    sources = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert ops_without_grad_check(ops.__all__, sources) == []


def calls_named(source: str, name: str) -> list[int]:
    """Lines of ``source`` that call a function or method called ``name``."""
    return [c.lineno for c in ast.walk(ast.parse(source)) if isinstance(c, ast.Call)
            and getattr(c.func, "attr", getattr(c.func, "id", None)) == name]


def references(source: str, name: str) -> list[int]:
    """Lines of ``source`` that name ``name``, as a variable or an attribute,
    so that a function bound to another name first is still seen."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if getattr(n, "id", None) == name or getattr(n, "attr", None) == name)


def test_guard_flags_a_stack_call():
    source = ("import numpy as np\nfrom numpy import stack\n"
              "def f(ws):\n    return np.stack(ws), stack(ws)\n"
              "np.concatenate([np.hstack([])])\njoin = np.stack\n")
    assert calls_named(source, "stack") == [4, 4]
    assert references(source, "stack") == [4, 4, 6]


def test_ops_stack_no_weights_per_call():
    # a decoder's weights are stacked once, when the model is built
    assert references((SRC / "nn" / "ops.py").read_text(), "stack") == []


def test_series_windows_cut_in_training_only():
    # evaluation and the training sampler read every (input, target) window
    # from training's validated view instead of cutting their own
    assert calls_named((SRC / "evaluation.py").read_text(), "sliding_window_view") == []
    training = (SRC / "training.py").read_text()
    assert callers_of(training, "sliding_window_view") == ["_series_windows"]
    # and no other function calls it through another name
    assert len(references(training, "sliding_window_view")) == 1


def callers_of(source: str, name: str) -> list[str]:
    """Functions and methods of ``source``, nested ones too, that call ``name``."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and calls_named(ast.unparse(node), name)]


def test_guard_flags_a_caller():
    source = ("def a():\n    return window_rmse(x, y)\n"
              "class C:\n    def b(self):\n        return t.window_rmse(x, y)\n"
              "def c():\n    return window_rmse\n")
    assert callers_of(source, "window_rmse") == ["a", "b"]


def test_oracle_rule_written_once():
    # every oracle error and winner comes from training._score; rmse is
    # the public one-row helper
    found = {path.name: callers_of(path.read_text(), "window_rmse")
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {
        "training.py": ["rmse", "_score"]}


OP_KERNELS = ("_encoder_block_kernel", "_stacked_conv_kernel", "_softmax_kernel",
              "_stacked_matmul_kernel")


def kernel_references(sources: dict[str, str]) -> list[str]:
    """Each reference to a private op kernel in ``sources`` (file name -> text)."""
    return [f"{path} line {line}: {name}" for path, source in sources.items()
            for name in OP_KERNELS for line in references(source, name)]


def test_guard_flags_a_kernel_call():
    sources = {"model.py": "def plan(cols, w, b, out):\n"
                           "    ops._stacked_conv_kernel(cols, w, b, False, out)\n"
                           "    return _softmax_kernel\n",
               "data.py": "_encoder_block_kernel(cols, w, b, buffers)\n",
               "layers.py": "mix = ops._stacked_matmul_kernel\nmix(a, b, out)\n"}
    assert kernel_references(sources) == ["model.py line 2: _stacked_conv_kernel",
                                          "model.py line 3: _softmax_kernel",
                                          "data.py line 1: _encoder_block_kernel",
                                          "layers.py line 1: _stacked_matmul_kernel"]


def test_op_kernels_are_called_from_the_ops_only():
    # each module writes its forward pass once, through the ops; a served
    # window replays the steps the ops recorded
    sources = {str(path.relative_to(SRC)): path.read_text()
               for path in sorted(SRC.rglob("*.py")) if path != SRC / "nn" / "ops.py"}
    assert kernel_references(sources) == []
