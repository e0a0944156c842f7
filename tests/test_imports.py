"""Static checks: no module of the package imports a name it never uses,
every name in a module's ``__all__`` is bound in that module and has a
caller, and no module-level private helper is left without a caller; and
every data file of the package is one that an install ships. And one
run-time check: the package's run paths load numpy alone, not scipy, and
not numpy's masked arrays.

No linter ships with the project, so this walks each module's syntax tree.
A name counts as used when it is read anywhere in the module or listed in
its ``__all__`` (the package's ``__init__`` imports to re-export).
"""

import ast
import json
import os
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path, PurePosixPath

import pytest

import csbmlab

MODULES = sorted(Path(csbmlab.__file__).parent.glob("*.py"))
ROOT = Path(csbmlab.__file__).parents[2]
# Code outside the package that calls for a public name: the scripts, and
# the acceptance suite, which reads the package as a user would.
READERS = sorted((ROOT / "tools").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
# Public names that nothing in the package, the scripts or the acceptance
# suite reads, kept on purpose.
UNCALLED_EXPORTS = {
    "counting.py: write_quotient_table":
        "run by hand to write tables/quotients.npz; README gives the command",
    "density.py: choose_N":
        "the paper's cutoff N(delta), pinned by test_density",
    "graphs.py: intersection":
        "the vertex-and-edge meet read by test_cycle_count_supermodularity",
    "statistics.py: cycle_count_test":
        "the single-graph cycle baseline, until ROADMAP item 9 replaces it",
}


def _exports(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__`` (none without one)."""
    return [name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "line 2: b", "line 1: os"]


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level def, class, import or
    assignment of the module binds. The unused-import check counts every
    ``__all__`` name as used, so a stale entry would pass it."""
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return [name for name in _exports(tree) if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_check_finds_an_unbound_export():
    source = ("from a import b\nC = 1\nd: int = 2\n\ndef e():\n    f = 3\n\n"
              "__all__ = ['b', 'C', 'd', 'e', 'f', 'Gone']\n")
    assert unbound_exports(source) == ["f", "Gone"]


def _names(node: ast.AST) -> Counter:
    """Every identifier read in `node`: plain names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no code of any of the
    modules names outside the helper's own body (so self-recursion does not
    count), as ``"module: name"``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}: {node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and names[node.name] == _names(node)[node.name])


def test_every_private_helper_is_referenced():
    assert orphaned_helpers({p.name: p.read_text() for p in MODULES}) == []


def test_check_finds_an_orphaned_helper():
    sources = {
        "a.py": ("def _used():\n    pass\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                 "class _Lone:\n    def _lone(self):\n        return self._lone()\n"),
        "b.py": "from a import _used\n\n_used()\n",
    }
    assert orphaned_helpers(sources) == ["a.py: _Lone", "a.py: _recursive"]


def uncalled_exports(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Names in a module's ``__all__`` that no code of the modules or of the
    readers reads outside the name's own definition, as ``"module: name"``.
    An import binds a name without reading it, so a re-export is no caller."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    names = sum((_names(ast.parse(source)) for source in readers.values()),
                sum((_names(tree) for tree in trees.values()), Counter()))
    out = []
    for module, tree in trees.items():
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in _exports(tree):
            own = _names(defs[name])[name] if name in defs else 0
            if names[name] == own:
                out.append(f"{module}: {name}")
    return sorted(out)


def test_every_public_name_has_a_caller():
    modules = {p.name: p.read_text() for p in MODULES if p.name != "__init__.py"}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert uncalled_exports(modules, readers) == sorted(UNCALLED_EXPORTS)


def test_check_finds_an_uncalled_export():
    modules = {
        "a.py": ("LIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class Lone:\n    pass\n\n"
                 "__all__ = ['LIMIT', 'used', 'recursive', 'Lone', 'by_tool']\n"),
        "b.py": "from a import Lone, used\n\nused()\n",
    }
    readers = {"tool.py": "import a\n\na.by_tool()\n"}
    assert uncalled_exports(modules, readers) == ["a.py: Lone", "a.py: recursive"]


EVERY_RUN_PATH = """
import contextlib, io, json, sys
import numpy as np
import csbmlab
from csbmlab import cli, counting, experiments, statistics
counting.CountingEngine(8)
params = csbmlab.ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
smp = csbmlab.sample_correlated(params, experiments.trial_generator(3000, 0, 0, 0))
statistics.f_tree_stat(smp.a, smp.b, params, 8)
small = csbmlab.ModelParams(n=12, lam=2.0, k=2, eps=0.3, s=0.9)
host = csbmlab.sample_correlated(small, experiments.trial_generator(1, 0, 0, 0)).a
x = statistics.CenteredMatrix.from_graph(host, small)
for shape in csbmlab.enumerate_trees(3):
    statistics.w_exact(shape, x)
    statistics.w_color_coding(shape, x, 2, np.random.default_rng(0))
experiments.sweep(csbmlab.SweepConfig(n=300, lam=1.2, k=2, eps=0.3, s_grid=(0.9,),
                                      aleph=4, trials=2, seed=0, workers=1))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--help"]) == 0
print(json.dumps(sorted(m for m in sys.modules
                      if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""


def test_no_run_path_loads_scipy():
    # scipy is a test dependency only: an engine build, a sparse score, the
    # reference evaluators, a one-worker sweep and the command line leave it
    # unloaded in a fresh interpreter. Nor do they load numpy.ma, which a
    # first `np.unique` call imports (`import numpy` loads numpy.matrixlib by
    # itself, so that one is not checked)
    src = ROOT / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", EVERY_RUN_PATH],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_every_table_file_ships():
    # setuptools installs only the data files that a package-data glob
    # matches, so a table without one would be missing from an install
    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["csbmlab"]
    package = Path(csbmlab.__file__).parent
    files = [PurePosixPath(p.relative_to(package).as_posix())
             for p in (package / "tables").rglob("*") if p.is_file()]
    assert files
    assert [f for f in files if not any(f.match(glob) for glob in globs)] == []
