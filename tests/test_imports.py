"""Every name a module of the package imports is used in that module, and
every module-level name and class member of the package has a runtime
reference."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "distvar"

#: code that runs: the package and the benchmark
RUNTIME = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: module-level names and ``Class.member`` names with no runtime
#: reference, kept for the oracle or paper result each one serves
ORACLES = {
    "normal_form": "Groebner criterion: S-pairs and generators reduce to 0",
    "s_polynomial": "Groebner criterion: S-pairs and generators reduce to 0",
    "scroll_order": "the Hankel minors of S_u form a Groebner basis",
    "distortion_weight": "the i-th distortion of a monomial has weight i",
    "undistort_monomial": "distortion keeps the underlying monomial",
    "tropical_hypersurface_degree": "tropical degree of a distorted "
                                    "hypersurface, checks distortion_degree",
    "BASIS_GAMMA": "the quotient basis holds gamma_1..gamma_4",
    "Polynomial.monic": "generators compared up to scale with golden lists",
    "Polynomial.substitute": "the i-th distortion of p is lambda^i p on the "
                             "scroll; the focal formula's invariances",
    "MonomialIdeal.contains_monomial": "standard monomials counted by brute "
                                       "force against the Hilbert function",
    "GroundTruth.R1": "sideways cameras are nearly parallel",
    "GroundTruth.R2": "sideways cameras are nearly parallel",
    "GroundTruth.X": "solve recovers the true model matrix",
    "GroundTruth.m": "scenes satisfy the epipolar constraint at the truth, "
                     "whose vector lies in the kernel",
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


def _check_against_oracles(refs: dict, oracles: set) -> None:
    unreferenced = sorted(n for n, k in refs.items()
                          if k == 0 and n not in oracles)
    assert not unreferenced, (
        f"no runtime reference to {unreferenced}: delete them, move them "
        "to the tests that use them, or list them in ORACLES")
    missing = sorted(n for n in oracles if n not in refs)
    assert not missing, f"ORACLES lists names that no longer exist: {missing}"
    called = sorted(n for n in oracles if refs[n])
    assert not called, f"ORACLES lists names with a runtime reference: {called}"


def test_every_module_level_name_is_referenced():
    _check_against_oracles(_runtime_references(),
                           {n for n in ORACLES if "." not in n})


def _class_members(cls: ast.ClassDef):
    """(name, node) for the methods, properties, classmethods, dataclass
    fields and class attributes of a class body, dunders excepted: the
    interpreter calls those through operators and protocols."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            names = [stmt.name]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if not name.startswith("__"):
                yield name, stmt


def _member_references(node) -> Counter:
    """Attributes accessed, keyword arguments and identifier strings in
    node: the ways code reaches a member by name."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg:
            refs[sub.arg] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            refs[sub.value] += 1
    return refs


def _runtime_member_references():
    """{"Class.member": references to the member's name outside its own
    definition} for every class in the package.  References are counted
    by name, so a name that several members share counts for all of
    them."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in RUNTIME}
    total = sum((_member_references(tree) for tree in trees.values()), Counter())
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(trees[path]):
            if isinstance(cls, ast.ClassDef):
                for name, stmt in _class_members(cls):
                    own = _member_references(stmt)[name]
                    out[f"{cls.name}.{name}"] = total[name] - own
    return out


def test_every_class_member_is_referenced():
    _check_against_oracles(_runtime_member_references(),
                           {n for n in ORACLES if "." in n})
