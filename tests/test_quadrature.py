import pytest

from mellinops import QuadratureFailure
from mellinops.quadrature import refine


def recorder(values):
    """evaluate() over levels 0, 1, ... returning ``values``; records calls."""
    seen = []

    def evaluate(level):
        seen.append(level)
        return values[level]

    return evaluate, seen


def test_refine_settles_at_second_level():
    evaluate, seen = recorder([1.0, 1.0 + 1e-12, 5.0])
    value, increment = refine(range(3), evaluate, 1e-10, 0.0)
    assert value == 1.0 + 1e-12 and increment == pytest.approx(1e-12)
    assert seen == [0, 1]


def test_refine_walks_on_to_a_later_level():
    evaluate, seen = recorder([1.0, 1.5, 1.25, 1.25 + 1e-11])
    value, increment = refine(range(4), evaluate, 1e-10, 0.0)
    assert value == 1.25 + 1e-11 and increment == pytest.approx(1e-11)
    assert seen == [0, 1, 2, 3]


def test_refine_relative_floor():
    # an increment of 1e-3 on a value near 1e6 settles at rel_tol 1e-8
    evaluate, _ = recorder([1e6, 1e6 + 1e-3])
    assert refine(range(2), evaluate, 1e-10, 1e-8) == (1e6 + 1e-3, pytest.approx(1e-3))
    evaluate, _ = recorder([1e6, 1e6 + 1e-3])
    with pytest.raises(QuadratureFailure):
        refine(range(2), evaluate, 1e-10, 1e-10)


def test_refine_failure_reports_last_increment():
    evaluate, seen = recorder([0j, 1j, 3j])
    with pytest.raises(QuadratureFailure, match=r"last increment 2\.000e\+00"):
        refine(range(3), evaluate, 1e-10, 1e-8)
    assert seen == [0, 1, 2]
