import numpy as np
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


def test_refine_arrays_walk_on_while_any_entry_is_unsettled():
    # entry 0 settles at level 1, entry 1 only at level 3
    values = [np.array(row, dtype=object) for row in
              ([1.0, 2.0], [1.0, 2.5], [1.0, 2.25], [1.0, 2.25 + 1e-11])]
    evaluate, seen = recorder(values)
    value, increment = refine(range(4), evaluate, 1e-10, 0.0)
    assert list(value) == [1.0, 2.25 + 1e-11]
    assert increment[0] == 0.0 and increment[1] == pytest.approx(1e-11)
    assert seen == [0, 1, 2, 3]


def test_refine_arrays_settle_entry_by_entry_relative():
    # each entry against its own magnitude: 1e-3 on 1e6 settles, 1e-3 on 1 does not
    evaluate, _ = recorder([np.array([1e6, 1.0]), np.array([1e6 + 1e-3, 1.0])])
    assert refine(range(2), evaluate, 1e-10, 1e-8)[0][0] == 1e6 + 1e-3
    evaluate, _ = recorder([np.array([1e6, 1.0]), np.array([1e6 + 1e-3, 1.0 + 1e-3])])
    with pytest.raises(QuadratureFailure):
        refine(range(2), evaluate, 1e-10, 1e-8)


def test_refine_array_failure_quotes_the_largest_increment():
    evaluate, _ = recorder([np.array([0j, 0j, 0j]), np.array([1j, 3j, 2j])])
    with pytest.raises(QuadratureFailure, match=r"last increment 3\.000e\+00"):
        refine(range(2), evaluate, 1e-10, 1e-8)
