"""Every name a module of the package imports is used in that module, and
every module-level name of the package has a runtime reference."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "distvar"

#: code that runs: the package and the benchmark
RUNTIME = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: module-level names with no runtime reference, kept for the oracle or
#: paper result each one serves
ORACLES = {
    "normal_form": "Groebner criterion: S-pairs and generators reduce to 0",
    "s_polynomial": "Groebner criterion: S-pairs and generators reduce to 0",
    "scroll_order": "the Hankel minors of S_u form a Groebner basis",
    "distortion_weight": "the i-th distortion of a monomial has weight i",
    "undistort_monomial": "distortion keeps the underlying monomial",
    "tropical_hypersurface_degree": "tropical degree of a distorted "
                                    "hypersurface, checks distortion_degree",
    "BASIS_GAMMA": "the quotient basis holds gamma_1..gamma_4",
}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            # a quoted annotation such as -> "Ideal"
            names.add(node.value)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


def _module_level_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _references(node) -> Counter:
    """Names read, attributes accessed and identifier strings in node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            # a quoted annotation, or a name the benchmark traces
            refs[sub.value] += 1
    return refs


def _runtime_references():
    """{name: number of references outside its own definition} for every
    module-level name of the package."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in RUNTIME}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in trees[path].body:
            for name in _module_level_names(stmt):
                if not name.startswith("__"):
                    out[name] = total[name] - _references(stmt)[name]
    return out


def test_every_module_level_name_is_referenced():
    refs = _runtime_references()
    unreferenced = sorted(n for n, k in refs.items()
                          if k == 0 and n not in ORACLES)
    assert not unreferenced, (
        f"no runtime reference to {unreferenced}: delete them, move them "
        "to the tests that use them, or list them in ORACLES")
    missing = sorted(n for n in ORACLES if n not in refs)
    assert not missing, f"ORACLES lists names that no longer exist: {missing}"
    called = sorted(n for n in ORACLES if refs[n])
    assert not called, f"ORACLES lists names with a runtime reference: {called}"
