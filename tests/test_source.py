"""Checks on the package source and its import graph."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from landmix.model import MODELS

SRC = Path(__file__).resolve().parents[1] / "src" / "landmix"


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import log, pi\n"
        "x: np.ndarray = log(2)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "pi (line 4)"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    # __init__.py is exempt: its imports are the package's re-exports
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private (``_``-prefixed) module-level functions, classes and
    constants that no module of ``sources`` (name -> text) reads."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                targets = []
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_checker_flags_unread_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n_SEEN: int = 0\n__version__ = '1'\n"
            "def _helper():\n    return _LIMIT\n"
            "def _orphan():\n    pass\n"
            "class _Gone:\n    pass\n"
            "def public():\n    _local = 1\n    return _local\n"
        ),
        "b": "from a import _helper\nimport a\nx = _helper() + a._SEEN\n",
    }
    assert unread_private_names(sources) == ["_Gone (a:8)", "_orphan (a:6)"]


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def kind_lists(source: str, kinds=frozenset(MODELS)) -> list[str]:
    """The tuple, list and set literals that name two or more model kinds,
    by line: a list of the kinds belongs in ``model.MODELS`` alone."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            named = {e.value for e in node.elts if isinstance(e, ast.Constant)} & kinds
            if len(named) >= 2:
                lines.append(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_checker_flags_lists_of_model_kinds():
    source = (
        'a = ("total", "joint")\nif k in ["joint", 3, "total"]:\n    pass\n'
        'c = {"total", "joint"}\nd = {"total": 1, "joint": 2}\ne = ("total", "total")\n'
        'f("total", "joint")\n'
    )
    assert kind_lists(source) == ["line 1", "line 2", "line 4"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "model.py")
)
def test_model_kinds_listed_in_model_py_only(module):
    assert kind_lists((SRC / module).read_text(encoding="utf-8")) == []


def test_sampler_names_no_sector():
    # the sampler reads each model's sectors through model.model_streams alone
    tree = ast.parse((SRC / "sampler.py").read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "Sector"] == []


def test_cli_import_leaves_heavy_modules_out():
    # every landmix command pays this import: scipy.special alone would add
    # ~300 modules, and the process pool is only for --parallel above 1
    heavy = ["scipy", "multiprocessing", "concurrent.futures.process"]
    code = f"import sys, landmix.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []


def test_scipy_special_loads_on_first_use():
    # the inverse-CDF branch and the SBC p-value import scipy where they call
    # it, and must return the bits that scipy.special's ufuncs return
    from scipy import special
    from scipy.stats import chisquare

    counts = [3, 0, 1, 7, 2, 2, 0, 4, 1, 5]
    shape, rate, upper_var, g, u = 2.5, 3.0, 0.5, 1.0, 0.3  # rate >= upper_var * g
    code = (
        "import sys, numpy as np\n"
        "from landmix.sampler import sample_trunc_invgamma_var\n"
        "from landmix.oracle import _uniform_pvalue\n"
        "print(*[m for m in sys.modules if m.partition('.')[0] == 'scipy'] or ['none'])\n"
        f"print(repr(sample_trunc_invgamma_var({shape}, {rate}, {upper_var}, {g}, {u})))\n"
        f"print(repr(_uniform_pvalue(np.array({counts}))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded, draw, pvalue = proc.stdout.splitlines()
    assert loaded == "none"
    mass = special.gammaincc(shape, rate / upper_var)
    assert draw == repr(float(rate / special.gammainccinv(shape, (1 - u) * mass)))
    assert pvalue == repr(float(chisquare(counts).pvalue))
