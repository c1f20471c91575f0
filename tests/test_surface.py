"""The library surface: the exported names, and no import a module leaves unused."""

import ast
from pathlib import Path

import pytest

import mellinops

SRC = Path(mellinops.__file__).parent

EXPORTED = [
    "Algebra", "Axis", "BUILTIN_NAMES", "CongruenceResult", "EvaluationFailure",
    "ExpansionResult", "GenKind", "Generator", "INF_TYPE", "IndexOutOfRange",
    "KoszulReport", "MellinopsError", "MixedAlgebra", "MomentTable", "NotSeparable",
    "OreOperator", "ParseError", "PreconditionFailed", "QuadratureFailure",
    "ResidualReport", "SFactor", "ShiftPolynomial", "SingularEvaluation", "TailSeries",
    "TestFunction", "TruncationOverflow", "ZERO_TYPE", "apply_difference",
    "asymptotic_remainder_check", "build_builtin", "cauchy_convolve",
    "convolution_remainder", "epsilon_commutation_check", "errors", "format_operator",
    "haar_integral", "haar_moment", "induced_action_congruence", "inverse_mellin_op",
    "kernel_element", "koszul", "koszul_reduce", "mellin_op", "moment_table",
    "normalize", "numerics", "ore", "parameter_expansion", "parse", "product_kernel",
    "quadrature", "ray_mellin", "series", "shift_cycle", "shiftpoly", "solve_inf",
    "solve_zero", "sparse", "stokes_identity_check", "syntax", "testfunctions",
    "transform", "verify_commutation",
]


def test_exported_names():
    assert sorted(mellinops.__all__) == EXPORTED


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
