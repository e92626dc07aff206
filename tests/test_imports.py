"""Static checks that the imports in src/ and tests/ and the parameters in src/ are used,
a run-time check that a shipped study loads none of scipy's heavy subpackages,
and checks that every function the benchmark hooks into still exists and
that a traced study makes the calls the benchmark counts on.

No linter ships with the project, so this walks each file's syntax tree with
the standard library's ``ast``.  A name bound by an import counts as used
when it is read anywhere in the file (attribute roots included) or listed in
``__all__``.  ``from __future__`` imports are compiler directives, and an
``__init__.py`` imports to re-export, so neither is ever reported.

A parameter of a module-level function or of a method counts as used when
its name appears anywhere in the body, nested functions and lambdas
included.  Nested defs and lambdas are not checked themselves: they are
callbacks whose signature the caller fixes.  ``self``, ``cls`` and names
starting with ``_`` are exempt.

scipy.optimize, scipy.sparse, scipy.spatial and scipy.special take about
0.6 s to import together.  penmfg loads only scipy.optimize, and only on the
path that needs it (the assignment W2 of uniform clouds in d >= 2), which no
shipped config reaches.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special")


def unused_imports(source: str, filename: str = "<string>") -> list:
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source, filename)
    if Path(filename).name == "__init__.py":
        return []
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", [])
                     if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unused_parameters(source: str, filename: str = "<string>") -> list:
    """(line, function, parameter) of each parameter its function never reads."""
    tree = ast.parse(source, filename)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [node for node in tree.body if isinstance(node, funcs)]
    defs += [item for node in tree.body if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, funcs)]
    found = []
    for fn in defs:
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}
        found += [(fn.lineno, fn.name, p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_no_unused_imports_in_src_or_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))]
    assert found == []


@pytest.mark.parametrize("source, filename, expected", [
    ("import os\n", "m.py", [(1, "os")]),
    ("import os.path\nos.sep\n", "m.py", []),
    ("import numpy as np\nx = np.zeros(1)\n", "m.py", []),
    ("from a import b, c as d\nprint(b)\n", "m.py", [(1, "d")]),
    ("from __future__ import annotations\n", "m.py", []),
    ("from .errors import Error\n", "pkg/__init__.py", []),
    ("from .errors import Error\n__all__ = ['Error']\n", "m.py", []),
    ("from typing import Optional\ndef f(x: Optional[int]): pass\n", "m.py", []),
    ("from a import *\n", "m.py", []),
])
def test_unused_import_check_itself(source, filename, expected):
    assert unused_imports(source, filename) == expected


def test_no_unused_parameters_in_src():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}({param})"
             for path in files
             for line, name, param in unused_parameters(
                 path.read_text(encoding="utf-8"), str(path))]
    assert found == []


@pytest.mark.parametrize("source, expected", [
    ("def f(a, b):\n    return a\n", [(1, "f", "b")]),
    ("def f(a, *, k, **kw):\n    pass\n", [(1, "f", "a"), (1, "f", "k"), (1, "f", "kw")]),
    ("def f(*args):\n    return len(args)\n", []),
    ("def f(_unused, self, cls):\n    pass\n", []),
    ("class C:\n    def m(self, a):\n        pass\n", [(2, "m", "a")]),
    ("class C:\n    @classmethod\n    def m(cls, a):\n        return cls(a)\n", []),
    # a closure reading the parameter uses it; the nested def is not checked
    ("def f(a):\n    def g(t, x):\n        return a\n    return g\n", []),
    ("def f(a):\n    return lambda t: a\n", []),
    ("g = lambda t, x: 0\n", []),
    # defaults and annotations are not the body
    ("def f(a, b=a):\n    pass\n", [(1, "f", "a"), (1, "f", "b")]),
    ("def outer():\n    def inner(a):\n        pass\n    return inner\n", []),
])
def test_unused_parameter_check_itself(source, expected):
    assert unused_parameters(source) == expected


# Run in a fresh interpreter: reports the heavy modules loaded after importing
# the CLI and after the study, the exit code and the transportation LPs solved.
GUARD = """
import json, sys
import penmfg.cli
from penmfg import measures
heavy = %r
after_import = [m for m in heavy if m in sys.modules]
solve, lps = measures._ot_lp, []
measures._ot_lp = lambda *args: lps.append(1) or solve(*args)
code = penmfg.cli.main(sys.argv[1:])
print(json.dumps([after_import, [m for m in heavy if m in sys.modules], code, len(lps)]))
"""


def test_chatter_run_loads_no_heavy_scipy_subpackage(tmp_path):
    argv = ["chatter", "--config", str(ROOT / "scripts/configs/lq_box_chatter.cfg"),
            "--override", "sim.n_particles=200", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", GUARD % (HEAVY,), *argv], env=env,
                          check=True, capture_output=True, text=True)
    after_import, after_run, code, lps = json.loads(done.stdout.splitlines()[-1])
    assert after_import == [] and after_run == []
    assert code == 0 and lps == 3  # one d_U per switching period, each an LP


def _bench_module(name: str):
    """bench/<name>.py loaded by path, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / f"bench/{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_exist():
    """Every function the benchmark wraps or patches is still there by name.

    bench/spans.py traces ``(module, function)`` pairs and bench/child.py
    patches ``penmfg.cli.build_model``; a rename would otherwise surface only
    in the benchmark's own slow self-check.
    """
    hooks = [(module, name) for module, name, _, _ in _bench_module("spans").TRACED]
    assert len(hooks) > 10
    for module, name in hooks + [("penmfg.cli", "build_model")]:
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"


def test_traced_chatter_keeps_the_benchmark_call_counts(tmp_path):
    """bench/child.py traced on a 2,000-particle chatter run counts the calls
    the lq-chatter workload expects for its iterations: a study that skips
    or adds a simulate, sample_control or solver call fails here, not only
    in the benchmark's slow self-check."""
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(ROOT / "bench/child.py"), "trace", str(tmp_path / "out"),
           str(result), "--", "chatter",
           "--config", str(ROOT / "scripts/configs/lq_box_chatter.cfg"),
           "--override", "sim.n_particles=2000"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    traced = json.loads(result.read_text(encoding="utf-8"))
    assert traced["exit"] == 0
    iterations = traced["layers"]["equilibrium.iterations"][0]
    expected = _bench_module("workloads").WORKLOADS["lq-chatter"].calls(iterations)
    assert {name: traced["calls"].get(name, 0) for name in expected} == expected
