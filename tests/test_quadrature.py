import ctypes
import ctypes.util

import numpy as np
import pytest

from mellinops import QuadratureFailure
from mellinops.quadrature import (
    _ROUNDING_ULPS,
    csum,
    gauss_legendre,
    panel_nodes,
    refine,
    uniform_edges,
)

EPS = np.finfo(float).eps


def recorder(values, scale=0.0):
    """evaluate() over levels 0, 1, ... returning (``values``, ``scale``); records calls."""
    seen = []

    def evaluate(level):
        seen.append(level)
        return values[level], scale

    return evaluate, seen


def test_refine_settles_at_second_level():
    evaluate, seen = recorder([1.0, 1.0 + 1e-12, 5.0])
    value, increment, _ = refine(range(3), evaluate, 1e-10, 0.0)
    assert value == 1.0 + 1e-12 and increment == pytest.approx(1e-12)
    assert seen == [0, 1]


def test_refine_walks_on_to_a_later_level():
    evaluate, seen = recorder([1.0, 1.5, 1.25, 1.25 + 1e-11])
    value, increment, _ = refine(range(4), evaluate, 1e-10, 0.0)
    assert value == 1.25 + 1e-11 and increment == pytest.approx(1e-11)
    assert seen == [0, 1, 2, 3]


def test_refine_relative_floor():
    # an increment of 1e-3 on a value near 1e6 settles at rel_tol 1e-8
    evaluate, _ = recorder([1e6, 1e6 + 1e-3])
    assert refine(range(2), evaluate, 1e-10, 1e-8)[:2] == (1e6 + 1e-3, pytest.approx(1e-3))
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
    value, increment, _ = refine(range(4), evaluate, 1e-10, 0.0)
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


def test_refine_judges_a_number_as_a_one_entry_array():
    # Python's complex abs of v is one ulp below numpy's, so a relative target
    # read from it would fail the increment |v - 0| that numpy's abs settles
    v = -1.5885683833831 - 4.821664994140733j
    for levels in ([0j, v], [np.array([0j]), np.array([v])]):
        evaluate, _ = recorder(levels)
        value, estimate, _ = refine(range(2), evaluate, 0.0, 1.0)
        assert np.all(value == v) and np.all(estimate == np.abs(v))


def test_refine_array_failure_quotes_the_largest_increment():
    evaluate, _ = recorder([np.array([0j, 0j, 0j]), np.array([1j, 3j, 2j])])
    with pytest.raises(QuadratureFailure, match=r"last increment 3\.000e\+00"):
        refine(range(2), evaluate, 1e-10, 1e-8)


@pytest.mark.parametrize(
    "values, named",
    [
        ([1 + 0j, complex("nan+nanj"), 1 + 0j], "nan"),
        ([np.array([1.0, 2.0]), np.array([1.0, np.inf])], "inf"),
        ([np.array([1.0, 2.0]), np.array([np.nan, np.inf])], "nan"),
        ([np.array([1.0, np.inf]), np.array([np.nan, np.inf])], "nan"),  # inf - inf, no warning
    ],
)
def test_refine_fails_on_the_first_non_finite_increment(values, named):
    evaluate, seen = recorder(values)
    with pytest.raises(QuadratureFailure, match=f"quadrature increment {named} is not finite"):
        refine(range(len(values)), evaluate, 1e-10, 1e-8)
    assert seen == [0, 1]


def test_refine_judges_a_nan_increment_whatever_errno_holds():
    # Python's complex abs() of a NaN raises OverflowError when errno is ERANGE,
    # as a libm overflow right before the level leaves it
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    libm.pow.restype = ctypes.c_double
    libm.pow.argtypes = (ctypes.c_double, ctypes.c_double)
    nan = complex("nan+nanj")

    def evaluate(level):
        libm.pow(10.0, 400.0)
        return (nan if level else 1 + 0j), 1.0

    with pytest.raises(QuadratureFailure, match="increment nan is not finite"):
        refine(range(2), evaluate, 1e-10, 1e-8)


def test_refine_floors_the_estimate_at_the_rounding_of_its_scale():
    # an increment below 8 ulps of the scale reports the floor; the stop test
    # reads the raw increment, so the level that settles does not move
    evaluate, seen = recorder([1.0, 1.0 + EPS, 5.0], scale=4.0)
    assert refine(range(3), evaluate, 1e-10, 0.0) == (1.0 + EPS, _ROUNDING_ULPS * EPS * 4.0, 4.0)
    assert seen == [0, 1]


def test_refine_floors_an_array_estimate_entry_by_entry():
    scale = np.array([2.0, 1.0])
    evaluate, _ = recorder([np.array([1.0, 3.0]), np.array([1.0, 3.0 + 1e-12])], scale)
    _, estimate, settled_scale = refine(range(2), evaluate, 1e-10, 0.0)
    assert estimate[0] == _ROUNDING_ULPS * EPS * 2.0  # a zero increment lifted to its floor
    assert estimate[1] == abs((3.0 + 1e-12) - 3.0)  # an increment above its floor kept
    assert settled_scale is scale


def test_refine_settles_a_level_whose_floor_exceeds_the_tolerance():
    evaluate, seen = recorder([1.0, 1.0, 2.0], scale=1e10)
    value, estimate, _ = refine(range(3), evaluate, 1e-10, 0.0)
    assert value == 1.0 and estimate == _ROUNDING_ULPS * EPS * 1e10 > 1e-10
    assert seen == [0, 1]


def test_refine_with_a_zero_scale_reports_the_increment():
    evaluate, _ = recorder([1j, 1j + 3e-11])
    assert refine(range(2), evaluate, 1e-10, 0.0)[1] == abs((1j + 3e-11) - 1j)


@pytest.mark.parametrize(
    "edges", [uniform_edges(-5.2, 5.2, 0.55), np.linspace(0.0, 0.4, 13), np.exp2(np.arange(-30.0, 4.0))]
)
@pytest.mark.parametrize("order", [12, 24])
def test_panel_nodes_are_the_per_panel_rule_bit_for_bit(edges, order):
    x, w = gauss_legendre(order)
    nodes, weights = panel_nodes(edges, order)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        half = 0.5 * (b - a)
        assert nodes[i * order:(i + 1) * order].tobytes() == (half * (x + 1.0) + a).tobytes()
        assert weights[i * order:(i + 1) * order].tobytes() == (half * w).tobytes()
    assert nodes.size == weights.size == order * (len(edges) - 1)


def test_csum_sums_in_any_shape_to_a_python_complex():
    values = np.arange(12.0).reshape(3, 4) * (1 + 2j)
    assert csum(values) == 66 + 132j and type(csum(values)) is complex
    # pairwise: a running sum of these 1e5 values is off by 1.9e-12 relative
    assert csum(np.ones(10 ** 5) * 0.1) == pytest.approx(1e4, rel=1e-15)


# under numpy's 8-term unrolled sum, and past its 128-term pairwise block
@pytest.mark.parametrize("length", [7, 16 * 13, 24 * 93 + 5])
def test_csum_row_sums_have_the_bits_of_each_row_alone(length):
    rng = np.random.default_rng(length)
    rows = rng.standard_normal((5, length)) * np.exp(rng.uniform(-30, 30, (5, length))) * (1 - 3j)
    totals = csum(rows, axis=-1)
    assert totals.shape == (5,)
    assert [complex(total) for total in totals] == [csum(row) for row in rows]
