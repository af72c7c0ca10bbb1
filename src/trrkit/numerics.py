"""Exact arithmetic kernel.

The combinatorial counting functions used by the closed-form contribution
evaluators, sparse multivariate polynomials over the rationals, and the
integer Lagrange, finite-difference and simplex Newton weights that read
coefficients off sampled values.  Every coefficient is a
``fractions.Fraction`` or an integer; no floating point is used anywhere in
the package.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, factorial as _math_factorial, lcm, prod
from typing import Sequence


def rational_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if isinstance(x, int):
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def factorial(m: int) -> int:
    if m < 0:
        raise ValueError(f"factorial undefined for negative input {m}")
    return _math_factorial(m)


def _multinomial(parts) -> int:
    """(sum parts)! / prod(part!)."""
    value = _math_factorial(sum(parts))
    for x in parts:
        value //= _math_factorial(x)
    return value


def double_factorial(m: int) -> int:
    """m!! with the empty-product convention (-1)!! = 0!! = 1."""
    if m <= -2:
        raise ValueError(f"double factorial undefined for {m} <= -2")
    return prod(range(m, 0, -2))


def binomial(a: int, b: int) -> int:
    """Binomial coefficient on all integer pairs.

    Returns 0 when b < 0 or b > a >= 0; for a < 0 the generalized value
    (-1)^b * C(b-a-1, b) is used, so Pascal's rule holds everywhere.
    """
    if b < 0:
        return 0
    if a >= 0:
        return comb(a, b) if b <= a else 0
    return (-1) ** b * comb(b - a - 1, b)


def falling_factorial(a: int, b: int) -> int:
    """a(a-1)...(a-b+1); zero when b > a since the product crosses zero."""
    if a < 0 or b < 0:
        raise ValueError("falling factorial needs nonnegative arguments")
    result = 1
    for t in range(b):
        result *= a - t
    return result


class SparsePoly:
    """Sparse multivariate polynomial over the rationals, its terms keyed by
    exponent tuples; zero coefficients are dropped."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent arity does not match variables")
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            clean[exps] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, variables, value):
        zero = (0,) * len(tuple(variables))
        return cls(variables, {zero: Fraction(value)})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.variables, other)
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return SparsePoly(self.variables, terms)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else -Fraction(other))

    def __neg__(self):
        return SparsePoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return SparsePoly(
                self.variables, {e: c * Fraction(other) for e, c in self.terms.items()}
            )
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return SparsePoly(self.variables, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != len(self.variables):
            raise ValueError("wrong number of values")
        out = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= Fraction(v) ** e
            out += term
        return out

    def items_sorted(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for exps, coeff in self.items_sorted():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            bits.append(f"{rational_str(coeff)}" + (f"*{mono}" if mono else ""))
        return "SparsePoly(" + " + ".join(bits) + ")"


def lagrange_coefficient_rows(nodes) -> tuple[list[list[int]], int]:
    """Integer rows w_0, w_1, ... and one denominator W with
    p_j = sum_i w_j[i] p(x_i) / W for every polynomial p = sum_j p_j t^j of
    degree below len(nodes): row j reads the t^j coefficient of the
    Lagrange interpolant off its values at the distinct integer nodes x_i."""
    nodes = [int(x) for x in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate nodes")
    # basis numerator prod_{u != x} (t - u), lowest coefficient first, and
    # its value prod_{u != x} (x - u) at its own node
    numerators, values = [], []
    for i, x in enumerate(nodes):
        num, value = [1], 1
        for u in nodes[:i] + nodes[i + 1:]:
            num = [a - u * b for a, b in zip([0] + num, num + [0])]
            value *= x - u
        numerators.append(num)
        values.append(value)
    den = lcm(*values)
    scales = [den // value for value in values]
    rows = [
        [num[j] * scale for num, scale in zip(numerators, scales)]
        for j in range(len(nodes))
    ]
    return rows, den


def lagrange_coefficient_weights(degree: int, target: int) -> list[Fraction]:
    """Weight of f(s), s = 0..degree, in the t^target coefficient of the
    interpolant through the nodes (0, f(0)), ..., (degree, f(degree))."""
    if target < 0:
        raise ValueError("negative target exponent")
    if target > degree:
        return [Fraction(0)] * (degree + 1)
    rows, den = lagrange_coefficient_rows(range(degree + 1))
    return [Fraction(w, den) for w in rows[target]]


def _difference_weights(order: int) -> list[int]:
    """Coefficients of the order-th forward difference on consecutive
    nodes; it vanishes exactly on polynomials of degree below order."""
    return [(-1) ** (order - k) * binomial(order, k) for k in range(order + 1)]


@functools.cache
def _simplex_tables(k: int, degree: int) -> tuple:
    """The sampling tables of a polynomial P of total degree <= D = ``degree``
    in k variables: (points, rows, checks).

    ``points`` lists the simplex S = {A >= 0 : |A| <= D}, then the layer
    L = {|A| = D + 1}.  P(A) = sum_beta Delta^beta P(0) prod_i C(A_i, beta_i)
    with the Newton difference Delta^beta P(0) = sum_{alpha <= beta}
    (-1)^|beta - alpha| prod_i C(beta_i, alpha_i) P(alpha), which vanishes
    for |beta| > D.  Expanding C(A_i, beta_i) = sum_c s(beta_i, c) A_i^c /
    beta_i!, with s the signed Stirling numbers of the first kind, gives
    ``rows``: for each gamma in S, the integer row over S that reads the
    coefficient of A^gamma off the values on S, over the one denominator D!.
    ``checks`` holds the row over S and L of Delta^beta P(0) for each beta in
    L: all vanish exactly when P has no component of degree D + 1.  Each row
    is sparse, a tuple of (index into ``points``, weight) pairs with nonzero
    weights, in index order.
    """
    points = sorted(
        (A for A in itertools.product(range(degree + 2), repeat=k) if sum(A) <= degree + 1),
        key=lambda A: sum(A) > degree,
    )
    index = {A: i for i, A in enumerate(points)}
    size = binomial(degree + k, k)  # |S|
    # stirling[b][c] = s(b, c), the coefficients of x (x - 1) ... (x - b + 1)
    stirling = [[1]]
    for b in range(degree):
        stirling.append([u - b * w for u, w in zip([0] + stirling[-1], stirling[-1] + [0])])

    def newton(beta):
        return [
            (index[alpha], (-1) ** (sum(beta) - sum(alpha)) * prod(map(binomial, beta, alpha)))
            for alpha in itertools.product(*(range(b + 1) for b in beta))
        ]

    rows = {gamma: {} for gamma in points[:size]}
    for beta in points[:size]:
        differences = newton(beta)
        scale = _math_factorial(degree) // prod(map(_math_factorial, beta))
        # s(b, 0) = 0 for b > 0, so gamma_i > 0 wherever beta_i > 0
        for gamma in itertools.product(*(range(b > 0, b + 1) for b in beta)):
            f = scale * prod(stirling[b][c] for b, c in zip(beta, gamma))
            row = rows[gamma]
            for i, w in differences:
                row[i] = row.get(i, 0) + f * w
    rows = {
        gamma: tuple(sorted((i, w) for i, w in row.items() if w)) for gamma, row in rows.items()
    }
    checks = tuple(tuple(sorted(newton(beta))) for beta in points[size:])
    return tuple(points), rows, checks
