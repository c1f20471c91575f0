"""The library surface: the exported names, each reached by a caller, every
private definition read by the package, and no import a module leaves unused."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import mellinops

SRC = Path(mellinops.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

EXPORTED = [
    "Algebra", "Axis", "BUILTIN_NAMES", "CongruenceResult",
    "ExpansionResult", "GenKind", "Generator", "INF_TYPE",
    "KoszulReport", "MellinopsError", "MixedAlgebra", "MomentTable", "OreOperator", "ParseError", "PreconditionFailed", "QuadratureFailure",
    "ResidualReport", "SFactor", "ShiftPolynomial", "TailSeries",
    "TestFunction", "TruncationOverflow", "ZERO_TYPE", "apply_difference",
    "asymptotic_remainder_check", "build_builtin", "cauchy_convolve",
    "convolution_remainder", "epsilon_commutation_check", "errors", "format_operator",
    "haar_integral", "induced_action_congruence", "inverse_mellin_op",
    "kernel_element", "koszul", "koszul_reduce", "mellin_op", "moment_table",
    "normalize", "numerics", "ore", "parameter_expansion", "parse", "quadrature", "ray_mellin", "series", "shift_cycle", "shiftpoly", "solve_inf",
    "solve_zero", "sparse", "stokes_identity_check", "syntax", "testfunctions",
    "transform", "verify_commutation",
]


def test_exported_names():
    assert sorted(mellinops.__all__) == EXPORTED


def test_every_exported_name_resolves():
    # the deferred ones through the package's __getattr__
    missing = [name for name in mellinops.__all__ if getattr(mellinops, name, None) is None]
    assert missing == []


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mellinops import *", namespace)
    assert sorted(set(mellinops.__all__) - set(namespace)) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nosuch'"):
        mellinops.nosuch  # noqa: B018


@pytest.mark.parametrize("module, name, params", [
    ("numerics", "stokes_identity_check", "(f, k, s=0j)"),
    ("numerics", "stokes_checks", "(f, table)"),
    ("numerics", "epsilon_commutation_check", "(f, table)"),
    ("numerics", "ray_mellin", "(f, s)"),
    ("koszul", "koszul_reduce", "(i_set, j_set, n_max)"),
])
def test_checks_take_no_knob_their_callers_never_vary(module, name, params):
    # a check's tolerances are its table's (the transport checks), ABS_TOL
    # (ray_mellin) or fixed (koszul_reduce draws two samples)
    assert str(inspect.signature(getattr(getattr(mellinops, module), name))) == params


class References(ast.NodeVisitor):
    """The names a module reads, imports from or spells as a string; a name
    inside its own definition does not count."""

    def __init__(self):
        self.names, self.defining = set(), []

    def add(self, name):
        if name not in self.defining:
            self.names.add(name)

    def visit_FunctionDef(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.add(node.id)

    def visit_Attribute(self, node):
        self.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for part in (node.module or "").split("."):
            self.add(part)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.add(node.value)


def references(paths):
    refs = References()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".py":
            refs.visit(ast.parse(text))
        else:
            refs.names.update(re.findall(r"\w+", text))
    return refs.names


def test_every_exported_name_has_a_caller():
    # a public name that no subcommand, benchmark, README line or acceptance
    # criterion reaches is code with no caller
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    callers += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    reached = references(callers)
    assert sorted(set(mellinops.__all__) - reached) == []


def private_definitions(tree):
    """The private names a module defines at its top level: functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_definition_has_a_caller():
    # a private name is read by the package or it is code with no caller
    paths = sorted(SRC.glob("*.py"))
    defined = {name for path in paths
               for name in private_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(defined - references(paths)) == []


def test_private_definitions_are_found():
    text = "_A = 1\n_b: int = 2\nC = 3\n__all__ = []\ndef _f():\n    _x = 1\nclass _K:\n    pass\n"
    tree = ast.parse(text)
    assert private_definitions(tree) == ["_A", "_b", "_f", "_K"]


def test_a_definition_does_not_reach_itself(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("X = 1\ndef f():\n    return f()\nclass C:\n    c = C\nf(g, 'h')\n")
    assert references([path]) == {"f", "g", "h"}


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    assert unused_imports(ast.parse("import os\nfrom x import a, b as c\nc()\n")) == ["a", "os"]


def test_benchmark_spans_and_counters_resolve():
    # the benchmark patches its spans and counters by name, so a renamed or
    # deleted function would crash every traced run; its tracer is loaded, not changed
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr in tracing.SPANS + tracing.COUNTS:
        assert callable(tracing._resolve(module, attr)[2]), f"{module}.{attr}"
