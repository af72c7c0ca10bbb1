import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from trrkit.numerics import (
    SparsePoly,
    _simplex_tables,
    binomial,
    double_factorial,
    factorial,
    falling_factorial,
    lagrange_coefficient_rows,
    lagrange_coefficient_weights,
    parse_rational,
    rational_str,
)
from oracles import pascal_binomial
from strata_reference import interpolate

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(4) == 24
    assert factorial(10) == 3628800
    with pytest.raises(ValueError):
        factorial(-1)


def test_double_factorial_examples():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_binomial_examples():
    assert binomial(20, 0) == 1
    assert binomial(18, -1) == 0
    # oracle value via Pascal's rule (the pascal triangle gives 265182525;
    # C(31,15) would be 300540195)
    assert binomial(31, 14) == pascal_binomial(31, 14) == 265182525


def test_binomial_pascal_rule_grid():
    for a in range(-20, 21):
        for b in range(-20, 21):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)
            assert binomial(a, b) == pascal_binomial(a, b)


def test_chu_vandermonde_identity():
    for a in range(0, 31):
        for b in range(0, 31, 3):
            for c in range(0, 31, 3):
                total = sum(
                    binomial(b + n1, n1) * binomial(a - n1, c) for n1 in range(a + 1)
                )
                assert total == binomial(a + b + 1, a - c)


def test_falling_factorial_examples():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(7, 0) == 1
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)


def test_falling_factorial_vs_binomial():
    for a in range(31):
        for b in range(31):
            assert falling_factorial(a, b) == binomial(a, b) * factorial(b)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1
    assert a + (-a) == 0


def test_rational_serialization():
    assert rational_str(Fraction(-3, 6)) == "-1/2"
    assert rational_str(Fraction(4, 2)) == "2"
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("7") == 7


def test_interpolate_examples():
    p = interpolate([(0, 1), (1, 1)])
    assert p.terms == {(0,): Fraction(1)}
    q = interpolate([(1, 1), (2, 4), (3, 9)])
    assert q.terms == {(2,): Fraction(1)}
    c0, c1 = Fraction(5, 3), Fraction(-7, 2)
    affine = interpolate([(0, c0), (1, c0 + c1), (2, c0 + 2 * c1)])
    assert affine.terms == {(0,): c0, (1,): c1}
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


@settings(deadline=None, max_examples=40)
@given(
    st.lists(rationals, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=3),
)
def test_interpolate_round_trip_with_extra_nodes(coeffs, extra):
    poly = SparsePoly(("x",), {(i,): c for i, c in enumerate(coeffs)})
    nodes = [(Fraction(t), poly((Fraction(t),))) for t in range(len(coeffs) + extra)]
    assert interpolate(nodes) == poly


def test_lagrange_coefficient_weights():
    # weights reproduce coefficients of x^2 + 3x + 5 on nodes 0..3
    poly = SparsePoly(("x",), {(0,): Fraction(5), (1,): Fraction(3), (2,): Fraction(1)})
    for target, expected in [(0, 5), (1, 3), (2, 1), (3, 0)]:
        w = lagrange_coefficient_weights(3, target)
        assert sum(w[s] * poly((Fraction(s),)) for s in range(4)) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
    st.lists(st.integers(-40, 40), min_size=8, max_size=12, unique=True),
)
def test_lagrange_coefficient_rows_read_every_coefficient(coeffs, nodes):
    nodes = nodes[: len(coeffs)]
    rows, den = lagrange_coefficient_rows(nodes)
    values = [sum(c * x**j for j, c in enumerate(coeffs)) for x in nodes]
    assert len(rows) == len(nodes)
    for j, row in enumerate(rows):
        assert Fraction(sum(w * y for w, y in zip(row, values)), den) == coeffs[j]


def test_lagrange_coefficient_rows_reject_duplicate_nodes():
    with pytest.raises(ValueError):
        lagrange_coefficient_rows([0, 1, 1])


def _dot(row, values):
    """A sparse row of (index, weight) pairs applied to ``values``; the
    indices increase and every weight is nonzero."""
    indices = [i for i, _ in row]
    assert indices == sorted(set(indices)) and all(w for _, w in row)
    return sum(w * values[i] for i, w in row)


def _monomial_values(points, coefficients):
    """The polynomial sum_gamma coefficients[gamma] A^gamma at each point."""
    return [
        sum(c * prod(x**e for x, e in zip(A, gamma)) for gamma, c in coefficients.items())
        for A in points
    ]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_simplex_rows_recover_every_coefficient(k):
    # seeded random polynomials of total degree <= D, sampled on the simplex
    # |A| <= D, give back every coefficient over D!, and every layer check
    # vanishes on them; every row is sparse
    rng = random.Random(1000 + k)
    for degree in range(9):
        points, rows, checks = _simplex_tables(k, degree)
        simplex = [A for A in points if sum(A) <= degree]
        assert list(rows) == simplex == list(points[: len(simplex)])
        assert len(simplex) == comb(degree + k, k) and len(points) == comb(degree + 1 + k, k)
        for _ in range(3):
            coefficients = {gamma: rng.randint(-10**6, 10**6) for gamma in simplex}
            values = _monomial_values(points, coefficients)
            for gamma, row in rows.items():
                assert Fraction(_dot(row, values), factorial(degree)) == coefficients[gamma]
            assert not any(_dot(check, values) for check in checks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_layer_checks_catch_every_monomial_one_degree_up(k):
    # the checks are linear and vanish below degree D + 1, so a single
    # monomial of degree D + 1, alone, is what any polynomial gains with it;
    # each one must trip some check (a single held-out point would catch
    # only the component in its own direction)
    for degree in range(9):
        points, _, checks = _simplex_tables(k, degree)
        layer = [A for A in points if sum(A) == degree + 1]
        assert len(checks) == len(layer) == comb(degree + k, k - 1)
        for gamma in layer:
            values = _monomial_values(points, {gamma: 1})
            assert any(_dot(check, values) for check in checks), (degree, gamma)
