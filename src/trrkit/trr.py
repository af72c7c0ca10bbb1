"""Topological recursion relations from coefficients of the weighted graph sum.

A relation is produced for the psi monomial psi_1^k prod_j psi_j^(l_j) of
degree g whenever the rational coefficient D does not vanish; the scan over
all admissible (g, n, k, l) locates the exceptional cells, and the genus-7
patch recovers the two missing relations there by exact elimination modulo
the monomials known from fewer markings or from higher k.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING

from .numerics import (
    SparsePoly,
    binomial,
    double_factorial,
    factorial,
    rational_str,
)
from .runtime import ComputationGuardError, _worker_count, _worker_pool

if TYPE_CHECKING:
    from .stablegraphs import StableGraph
    from .strata import StrataElement


class ExceptionalCaseError(ValueError):
    """The D coefficient vanishes; no relation from this recipe.  The one such
    cell with g <= 26, (g, k, l) = (7, 3, (1, 1, 2)), is settled by exact
    elimination modulo the known monomials (g7_patch / the g7 CLI command)."""


def psi_variables(n: int, prime: bool = False) -> tuple[str, ...]:
    names = tuple(f"psi{j}" for j in range(1, n + 1))
    return names + ("psip",) if prime else names


# ----------------------------------------------------------------------
# closed-form graph contributions
# ----------------------------------------------------------------------

def _marking_factors(bj: int, shifted: bool = False) -> list[tuple[int, int]]:
    """Per exponent c at one marking, the pair ((2c-1)!! C(b_j, 2c),
    (2c-1)!! C(b_j+1, 2c)): the coefficients in t of the marking's factor
    in :func:`_shift_products`.  The first is the numerator of
    1/(2^c c! (b_j-2c)!) = (2c-1)!! C(b_j, 2c) / b_j!; c runs to b_j//2,
    or to (b_j+1)//2 when shifts are summed."""
    return [
        (double_factorial(2 * c - 1) * binomial(bj, 2 * c),
         double_factorial(2 * c - 1) * binomial(bj + 1, 2 * c))
        for c in range((bj + shifted) // 2 + 1)
    ]


def _times_shift(poly: list[int], f0: int, f1: int, top: int) -> list[int]:
    """poly * (f0 + f1 t), dropping the powers of t above top."""
    out = [x * f0 for x in poly]
    if len(poly) <= top:
        out.append(0)
    for s in range(1, len(out)):
        out[s] += f1 * poly[s - 1]
    return out


def _shift_products(factors, top: int) -> list:
    """(c, poly) for every exponent tuple c with c_j indexing factors[j]:
    poly[s] is the coefficient of t^s, s <= top, in prod_j (f0 + f1 t) with
    (f0, f1) = factors[j][c_j], i.e. the sum over the 0/1 shifts d with
    |d| = s of prod_j (2c_j-1)!! C(b_j+d_j, 2c_j).  Tuples sharing a prefix
    share its product."""
    products = [((), [1])]
    for row in factors:
        products = [
            (c + (cj,), _times_shift(poly, f0, f1, top))
            for c, poly in products
            for cj, (f0, f1) in enumerate(row)
        ]
    return products


def _gamma0_numerators(g: int, n: int, b, lifts=(1,)) -> dict:
    """Integer numerators of :func:`gamma0_closed` per exponent tuple, over
    the denominator (2g-2+n)! prod_j b_j!.

    With more than one lift, the forms at the shifted exponents b + d for
    every 0/1 vector d with |d| < len(lifts) are summed, the one at b + d
    times lifts[|d|]; the caller's lifts put them over one denominator.
    The shifts enter only through the factor (4g-1+n-|b|-|d|)!, folded into
    the weight of |d|, and the marking factors of :func:`_shift_products`.
    """
    b = tuple(int(x) for x in b)
    if g < 1 or n < 1 or len(b) != n - 1:
        raise ValueError("need g >= 1, n >= 1 and one exponent per marking 2..n")
    top = len(lifts) - 1
    if any(x < 0 for x in b) or sum(b) + top > 2 * g + 2:
        raise ValueError("monomial degree exceeds 2g+2")
    weights = [lift * factorial(4 * g - 1 + n - sum(b) - s) for s, lift in enumerate(lifts)]
    terms = {}
    for c, poly in _shift_products([_marking_factors(bj, top > 0) for bj in b], top):
        sc = sum(c)
        if sc > g + 1:
            continue
        terms[(g + 1 - sc,) + c] = double_factorial(2 * g + 1 - 2 * sc) * sum(
            map(operator.mul, poly, weights)
        )
    return terms


def _tail_brackets(g: int, n: int, count: int, bi: int, sum_b_others: int, sum_b: int) -> list[int]:
    """The Chu-Vandermonde brackets of the rational-tail form at the tail
    exponents c_i = 0..count-1, for b_i at the tail marking and the given
    exponent sums: -C(A0, B) + sum_dd C(A1, B - dd) C(b_i + 1, dd), with
    B = 2g - |b_others| - 2c_i and dd up to b_i - 2c_i - 2.  B - dd runs
    down to j0 = 2g - |b_others| - b_i + 2 whatever c_i is, so one row of
    C(A1, j), j >= j0, and one of C(b_i + 1, dd) serve every bracket."""
    A0, A1 = 4 * g + n - sum_b_others, 4 * g - 1 + n - sum_b
    top = 2 * g - sum_b_others
    row = [math.comb(A1, j) if j >= 0 else 0 for j in range(top - bi + 2, top + 1)]
    inner = [math.comb(bi + 1, dd) for dd in range(bi)]
    out = []
    for ci in range(count):
        B, m = top - 2 * ci, bi - 2 * ci - 1
        conv = sum(map(operator.mul, row[m - 1 :: -1], inner)) if m > 0 else 0
        out.append(conv - math.comb(A0, B) if B >= 0 else 0)
    return out


def _gammai_numerators(g: int, n: int, i: int, b, lifts=(1,)) -> dict:
    """Integer numerators of :func:`gammai_closed` per exponent tuple, over
    the denominator prod_j b_j!, with the shifts summed as in
    :func:`_gamma0_numerators`.

    The bracket and (2g+1-|b|-|d|)! depend on the shifts only through d_i
    and the shift total s' away from i, so each tail exponent c_i gets one
    weight per s', summed over d_i; the other markings enter through
    :func:`_shift_products`.
    """
    b = tuple(int(x) for x in b)
    if n < 2 or not (2 <= i <= n) or len(b) != n - 1:
        raise ValueError("need n >= 2 and a marking i in 2..n")
    top = len(lifts) - 1
    if sum(b) + top > 2 * g + 1:
        raise ValueError("monomial degree exceeds 2g+1")
    bi = b[i - 2]
    others = [j for j in range(2, n + 1) if j != i]
    sum_b = sum(b)
    sum_b_others = sum_b - bi
    # per shift total s: the lift times (2g+1-|b|-s)!
    lifted = [lift * factorial(2 * g + 1 - sum_b - s) for s, lift in enumerate(lifts)]
    # the bracket vanishes once 2c_i exceeds 2g - |b_others|; keep the
    # weight rows of the c_i where some weight is nonzero
    count = (2 * g - sum_b_others) // 2 + 1
    rows = []
    for so in range(min(top, n - 2) + 1):
        row = [0] * count
        for s in range(so, min(so + 1, top) + 1):
            brackets = _tail_brackets(g, n, count, bi + s - so, sum_b_others + so, sum_b + s)
            row = [x + lifted[s] * y for x, y in zip(row, brackets)]
        rows.append(row)
    tail = [
        (ci, [x * double_factorial(2 * ci + 1) for x in col])
        for ci, col in enumerate(zip(*rows)) if any(col)
    ]
    factors = [_marking_factors(b[j - 2], top > 0) for j in others]
    terms = {}
    for c_others, poly in _shift_products(factors, top):
        rest = g - sum(c_others)
        exps = [0] * (n + 1)
        for cj, j in zip(c_others, others):
            exps[j - 1] = cj
        for ci, weights in tail:
            if ci > rest:
                break
            exps[0] = rest - ci
            exps[n] = ci
            terms[tuple(exps)] = double_factorial(2 * (rest - ci) - 1) * sum(
                map(operator.mul, poly, weights)
            )
    return terms


def gamma0_closed(g: int, n: int, b) -> SparsePoly:
    """Contribution of the trivial graph, as a polynomial in psi_1..psi_n.

    b lists the monomial exponents at markings 2..n; the polynomial is
    homogeneous of degree g+1.  Each coefficient is an integer numerator
    over (2g-2+n)! prod_j b_j!.
    """
    b = tuple(int(x) for x in b)
    terms = _gamma0_numerators(g, n, b)
    den = factorial(2 * g - 2 + n) * math.prod(map(factorial, b))
    return SparsePoly(psi_variables(n), {e: Fraction(c, den) for e, c in terms.items()})


def gammai_closed(g: int, n: int, i: int, b) -> SparsePoly:
    """Contribution of the rational-tail graph carrying markings i and n+1.

    Polynomial in psi_1..psi_n and psip, the psi class at the half-edge on
    the genus-g side; psi_i does not occur.  The inner sum over the second
    binomial family runs up to b_i - 2c_i - 2 (the bound the substitution in
    the Chu-Vandermonde resummation produces).  Each coefficient is an
    integer numerator over prod_j b_j!: (2g+1-|b|)! (2k-1)!! (2c_i+1)!!
    times the bracket in c_i times (2c_j-1)!! C(b_j, 2c_j) at every other
    marking j, where k is the psi_1 exponent.
    """
    b = tuple(int(x) for x in b)
    terms = _gammai_numerators(g, n, i, b)
    den = math.prod(map(factorial, b))
    return SparsePoly(
        psi_variables(n, prime=True), {e: Fraction(c, den) for e, c in terms.items()}
    )


def _string_pushforward_terms(terms: dict) -> dict:
    out = {}
    for exps, coeff in terms.items():
        for j, e in enumerate(exps):
            if e > 0:
                lowered = exps[:j] + (e - 1,) + exps[j + 1 :]
                out[lowered] = out.get(lowered, 0) + coeff
    return out


def _substitute_prime_terms(terms: dict, i: int) -> dict:
    out = {}
    for exps, coeff in terms.items():
        if exps[i - 1] != 0:
            raise ValueError("psi_i already present; substitution is ambiguous")
        moved = exps[: i - 1] + exps[-1:] + exps[i:-1]
        out[moved] = out.get(moved, 0) + coeff
    return out


def string_pushforward(poly: SparsePoly) -> SparsePoly:
    """Pushforward of a psi polynomial not involving the forgotten marking:
    each monomial becomes the sum of its single-exponent lowerings."""
    return SparsePoly(poly.variables, _string_pushforward_terms(poly.terms))


def substitute_prime(poly: SparsePoly, i: int, n: int) -> SparsePoly:
    """Move the psip exponent to psi_i (the rational-tail stabilization)."""
    return SparsePoly(psi_variables(n), _substitute_prime_terms(poly.terms, i))


# ----------------------------------------------------------------------
# the D coefficient and its pieces
# ----------------------------------------------------------------------

def c0_coeff(g: int, n: int, l, dvec) -> Fraction:
    """Coefficient of the target monomial in the pushed-forward trivial-graph
    contribution for the monomial with exponents 2l_j + d_j."""
    l = tuple(int(x) for x in l)
    dvec = tuple(int(x) for x in dvec)
    k = g - sum(l)
    if k < 0:
        raise ValueError("sum of l exceeds g")
    total = sum(2 * lj + dj for lj, dj in zip(l, dvec))
    if total > 2 * g + 2:
        raise ValueError("monomial degree exceeds 2g+2")
    return Fraction(
        double_factorial(2 * k + 1) * factorial(4 * g - 1 + n - total),
        2 ** sum(l) * math.prod(map(factorial, l)) * factorial(2 * g - 2 + n),
    )


def ci_coeff(g: int, n: int, i: int, l, lprime, dvec) -> Fraction:
    """Coefficient of psi_1^k' prod psi_j^(l'_j) in the pushed-forward
    rational-tail contribution at marking i, for k' <= k.

    Zero exactly when the binomial factor vanishes; carries the sign the
    bracket produces in that regime.
    """
    l = tuple(int(x) for x in l)
    lprime = tuple(int(x) for x in lprime)
    dvec = tuple(int(x) for x in dvec)
    if not (2 <= i <= n):
        raise ValueError("marking out of range")
    for j in range(2, n + 1):
        if j != i and lprime[j - 2] > l[j - 2]:
            raise ValueError("l'_j must not exceed l_j away from i")
    kprime = g - sum(lprime)
    if kprime < 0:
        raise ValueError("sum of l' exceeds g")
    b = tuple(2 * lj + dj for lj, dj in zip(l, dvec))
    sum_b_others = sum(b[j - 2] for j in range(2, n + 1) if j != i)
    lpi = lprime[i - 2]
    bino = binomial(4 * g + n - sum_b_others, 2 * g - sum_b_others - 2 * lpi)
    if bino == 0:
        return Fraction(0)
    F = 2 * g + 1 - sum(b)
    if F < 0:
        raise ValueError("contribution undefined: monomial degree exceeds 2g+1")
    value = Fraction(
        -double_factorial(2 * lpi + 1) * double_factorial(2 * kprime - 1)
    )
    value *= factorial(F) * bino
    value /= factorial(b[i - 2])
    for j in range(2, n + 1):
        if j == i:
            continue
        lpj = lprime[j - 2]
        value /= Fraction(
            2**lpj * factorial(lpj) * factorial(b[j - 2] - 2 * lpj)
        )
    return value


def _psi(g: int, k: int, parts: int) -> list[int]:
    """psi_s = C(2g+2k, 2k+1-s) for s = 0..parts: the coefficients that D's
    numerator pairs with (-2)^s e_s(l) (see :func:`d_value`)."""
    return [binomial(2 * g + 2 * k, 2 * k + 1 - s) for s in range(parts + 1)]


def d_value(g: int, k: int, l) -> Fraction:
    """The obstruction coefficient: nonzero means a relation exists for the
    monomial psi_1^k prod psi_j^(l_j).

    D is the sum over the 0/1 exponent shifts d, regrouped by the elementary
    symmetric functions e_s of the values -2l_j-1 (``tests/oracles.py``
    holds that sum as a cross-check):

        D = sum_s e_s(-2l-1) (a)_s / (B)_s,  a = 2k+1,  B = 2g+n+2k-1,

    with (x)_s the falling factorial.  Since (a)_s / (B)_s =
    C(B-s, a-s) / C(B, a), and sum_s e_s(x) z^s (1+z)^(B-s) =
    (1+z)^(B-n+1) prod_j (1 + z + x_j z) with x_j = -2l_j-1,

        D C(B, a) = [z^a] (1+z)^(2g+2k) prod_j (1 - 2l_j z)
                  = sum_s (-2)^s e_s(l) psi_s,  psi_s = C(2g+2k, a-s).

    The numerator depends on n only through the parts, and one more part p
    maps psi_t to psi_t - 2p psi_(t+1), so it is psi_0 once every part is
    in.  With T = sum(l), psi_s = C(2T + 4k, 2k+1-s) depends on g only
    through T and k, so :func:`_scan_total` walks the partitions of each T
    once, on the same map, with one column of psi per k.

    For n <= 3 the numerator N has a closed form.  With psi_0 / psi_1 =
    2g / (2k+1) and psi_1 / psi_2 = (2g+1) / (2k), and g = k + sum(l),
    x = 2l_2 + 1 and y = 2l_3 + 1,

    - n = 2: (2k+1) N = -2k(2l_2 - 1) psi_1, so D = -2k(2l_2 - 1) / B;
    - n = 3: (2k+1) N = [2k(x-2)(y-2) + xy - (x+y-1)(x+y-2)] psi_2, so D is
      2k times that bracket over (B)_2.

    For n = 3, (2k+1) N / psi_2 = (2g+1)(1 - 2L) + 4 l_2 l_3 (2k+1) with
    L = l_2 + l_3, as 2g - 2L(2k+1) = 2k(1 - 2L); it expands to the bracket.
    Hence, as psi_1, psi_2 > 0 for k >= 1, D never vanishes for n <= 3 and
    k >= 1, in any genus: 2l_2 - 1 is odd, and so is the n = 3 bracket, xy
    being odd and (x+y-1)(x+y-2) even.  ``tests/test_trr.py`` checks both
    forms through this function.
    """
    l = tuple(int(x) for x in l)
    if k < 0 or k + sum(l) != g:
        raise ValueError("need k >= 0 and k + sum(l) = g")
    if any(lj < 0 for lj in l):
        raise ValueError("need every l_j >= 0")
    if not l:
        # one marked point: D = 1, also at g = 0 where C(B, a) = 0
        return Fraction(1)
    psi = _psi(g, k, len(l))
    for lj in l:
        psi = [x - 2 * lj * y for x, y in itertools.pairwise(psi)]
    return Fraction(psi[0], binomial(2 * g + len(l) + 2 * k, 2 * k + 1))


# ----------------------------------------------------------------------
# the zero scan
# ----------------------------------------------------------------------

SCAN_CONVENTIONS = {
    "n_range": "2 <= n <= g",
    "k_min": 1,
    "l_min": 1,
    "l_order": "nondecreasing",
}

SCAN_CELL_BUDGET = 1_000_000


def _genus_cell_counts():
    """Yield the number of cells of genus g = 1, 2, ...: every partition of
    every T in 1..g-1 is one, so genus g has p(1) + ... + p(g-1) cells, with
    the partition numbers p from Euler's pentagonal recurrence."""
    p = [1]
    cells = 0
    while True:
        yield cells
        t = len(p)
        total = 0
        j = 1
        while (a := j * (3 * j - 1) // 2) <= t:
            term = p[t - a] + (p[t - a - j] if a + j <= t else 0)
            total += term if j % 2 else -term
            j += 1
        p.append(total)
        cells += total


def scan_cell_count(g_min: int, g_max: int) -> int:
    """Number of cells :func:`scan_zeros` checks over g_min..g_max, without
    enumerating them.

    A cell of genus g is a partition l of T = g - k into n - 1 parts (see
    ``_genus_cell_counts``).
    """
    counts = zip(range(1, g_max + 1), _genus_cell_counts())
    return sum(cells for g, cells in counts if g >= g_min)


def _check_scan_budget(g_min: int, g_max: int) -> None:
    """Refuse a range of more than ``SCAN_CELL_BUDGET`` cells, pricing it
    one genus at a time and stopping as soon as the budget is passed."""
    total = 0
    for g, cells in zip(range(1, g_max + 1), _genus_cell_counts()):
        if g >= g_min:
            total += cells
        # the count per genus never falls, so a genus below g_min already
        # bounds the count of genus g_min alone from below
        if max(total, cells) > SCAN_CELL_BUDGET:
            raise ComputationGuardError(
                f"scan over g = {g_min}..{g_max} checks more than "
                f"{SCAN_CELL_BUDGET} cells (the default budget, passed at "
                f"g = {max(g, g_min)}); pass allow_large to proceed"
            )


def _two_part_zeros(c: int, psi2: int, low: int, rest: int):
    """The p in low..rest//2 for which the last two parts (p, rest - p) make
    D vanish, given c = psi_0 - 2 rest psi_1 and psi_2 of the parts before
    them.

    The numerator is c + 4 p (rest - p) psi2, so it vanishes iff
    p (rest - p) = P, P = -c / (4 psi2) an integer: p = (rest - d) / 2 with
    d^2 = rest^2 - 4P, at most one root p <= rest / 2, or every p when
    psi2 = c = 0.  As d^2 = rest^2 mod 4, d has the parity of rest, so the
    root is an integer whenever d is.
    """
    if not psi2:
        return () if c else range(low, rest // 2 + 1)
    q, r = divmod(-c, 4 * psi2)
    square = rest * rest - 4 * q
    if r or square < 0:
        return ()
    d = math.isqrt(square)
    if d * d != square or rest - d < 2 * low:
        return ()
    return ((rest - d) // 2,)


def _pair_zeros(zeros, ks, T, n, prefix, c, phi2, low, rest):
    """Append the zeros whose last two parts (p, rest - p) follow prefix, in
    every column k of ks, given c and phi_2 = 4 psi_2 there (see
    :func:`_scan_total`); run only where some column passed the test."""
    for k, x, y in zip(ks, c, phi2):
        for p in _two_part_zeros(x, y // 4, low, rest):
            zeros.append((T + k, n, k, prefix + (p, rest - p)))


def _last_parts(zeros, ks, T, prefix, low, rest, c, phi2, phi3) -> int:
    """Check the cells that complete prefix with parts >= low summing to
    rest, in every column k of ks: every pair (p, rest - p), and every
    triple whose first part p is above rest // 4 (a child with room for two
    more parts only), given the columns c, phi_2 and phi_3 of the prefix.
    Appends the zeros; returns the count of cells in one column.

    The pair (p, rest - p) has the numerator c + p (rest - p) phi_2, so a
    column can hold a zero only where phi_2 divides c (or phi_2 = 0): one
    divisibility test per column, and :func:`_two_part_zeros` only on a
    hit.  A triple's first part p is a child whose c and phi_2 are
    c + p (rest - p) phi_2 and phi_2 + p phi_3."""
    n = len(prefix) + 3
    if not all([x % (y or 1) for x, y in zip(c, phi2)]):
        _pair_zeros(zeros, ks, T, n, prefix, c, phi2, low, rest)
    cells = rest // 2 - low + 1
    for part in range(max(low, rest // 4 + 1), rest // 3 + 1):
        pair = rest - part
        cells += pair // 2 - part + 1
        w = part * pair
        if not all([(x + w * y) % (y + part * z or 1) for x, y, z in zip(c, phi2, phi3)]):
            _pair_zeros(
                zeros, ks, T, n + 1, prefix + (part,),
                [x + w * y for x, y in zip(c, phi2)],
                [y + part * z for y, z in zip(phi2, phi3)], part, pair,
            )
    return cells


def _scan_total(task):
    """(zeros, cells) of every cell whose l is a partition of T, with any
    number of parts, and whose k runs over k_lo..k_hi, for task =
    (T, k_lo, k_hi): one walk over the nondecreasing partitions of T serves
    every genus T + k in the range.

    The walk reads D's numerator (:func:`d_value`) through
    phi_s = (-2)^s psi_s, as columns over k: a part p maps phi_t to
    phi_t + p phi_(t+1), and a cell's numerator is phi_0 once its last part
    is in.  A node with parts still to place summing to rest carries, in
    place of phi_0 and phi_1, c = phi_0 + rest phi_1, the numerator of the
    cell that closes it with the one part rest; a child of part p has
    c + p (rest - p) phi_2.  Past c it carries phi_2..phi_m, m at least 4
    and the most parts that can still follow, or less when phi_s vanishes
    past phi_m in every column (phi_s with s > 2k+1 is 0).  The one-part
    cell is checked at the root; every node solves its pairs and the
    children with room for two more parts only (:func:`_last_parts`); a
    child with room for exactly three is solved from the node's columns, so
    only children with room for four or more are pushed."""
    T, k_lo, k_hi = task
    ks = range(k_lo, k_hi + 1)
    m = max(4, min(T, 2 * k_hi + 1))
    rows = [_psi(T + k, k, m) for k in ks]
    phi = [[(-2) ** s * row[s] for row in rows] for s in range(m + 1)]
    c = [x + T * y for x, y in zip(phi[0], phi[1])]
    zeros = [(T + k, 2, k, (T,)) for k, x in zip(ks, c) if not x]
    cells = 1
    zero = [0] * len(ks)
    stack = [((), [c] + phi[2:], 1, T)]
    while stack:
        prefix, node, low, rest = stack.pop()
        c, phi2, phi3, phi4 = node[:4]
        cells += _last_parts(zeros, ks, T, prefix, low, rest, c, phi2, phi3)
        # a part p leaves room for (rest - p) // p more parts
        shifted = node[2:] + [zero]
        for part in range(low, rest // 5 + 1):
            w = part * (rest - part)
            child = [[x + w * y for x, y in zip(c, phi2)]] + [
                [x + part * y for x, y in zip(a, b)]
                for a, b in zip(node[1 : rest // part - 1], shifted)
            ]
            stack.append((prefix + (part,), child, part, rest - part))
        for part in range(max(low, rest // 5 + 1), rest // 4 + 1):
            w = part * (rest - part)
            cells += _last_parts(
                zeros, ks, T, prefix + (part,), part, rest - part,
                [x + w * y for x, y in zip(c, phi2)],
                [x + part * y for x, y in zip(phi2, phi3)],
                [x + part * y for x, y in zip(phi3, phi4)],
            )
    return zeros, cells * len(ks)


def scan_zeros(g_min: int, g_max: int, jobs: int = 1, allow_large: bool = False):
    """Exhaustive scan for vanishing D over the configured conventions.

    Returns (zeros, cells_checked); the output is deterministic and does not
    depend on the worker count.  Ranges of more than ``SCAN_CELL_BUDGET``
    cells (counted as in :func:`scan_cell_count`) are refused unless
    ``allow_large`` is set.  A cell of genus g has l a partition of
    T = g - k, so each T in 1..g_max-1 is one task (:func:`_scan_total`),
    over k from max(1, g_min - T) to g_max - T; the largest T go first.
    """
    if g_min < 1 or g_max < g_min:
        raise ValueError("need 1 <= g_min <= g_max")
    if not allow_large:
        _check_scan_budget(g_min, g_max)
    tasks = [(T, max(1, g_min - T), g_max - T) for T in range(g_max - 1, 0, -1)]
    workers = _worker_count(jobs, len(tasks))
    if workers > 1:
        with _worker_pool(workers) as pool:
            results = pool.map(_scan_total, tasks)
    else:
        results = [_scan_total(task) for task in tasks]
    return sorted(z for zeros, _ in results for z in zeros), sum(c for _, c in results)


# ----------------------------------------------------------------------
# relation records and assembly
# ----------------------------------------------------------------------

class MonomialSpec:
    """A monomial in the leg variables: exponents b_j at markings 2..n."""

    def __init__(self, g: int, n: int, exponents: tuple[int, ...]):
        self.g = g
        self.n = n
        self.exponents = tuple(int(x) for x in exponents)
        if len(self.exponents) != self.n - 1:
            raise ValueError("need one exponent per marking 2..n")
        if min(self.exponents, default=0) < 0:
            raise ValueError(f"exponents must be nonnegative, got {self.exponents}")
        if self.degree > 2 * self.g + 2:
            raise ValueError("monomial degree exceeds 2g+2")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def num_legs(self) -> int:
        """Number of legs N of the auxiliary space the coefficient lives on."""
        return self.n + 2 * self.g + 2 - self.degree


class TRRRecord:
    def __init__(
        self,
        g: int,
        n: int,
        principal: SparsePoly,
        boundary: StrataElement | None = None,
        provenance: dict | None = None,
    ):
        self.g = g
        self.n = n
        self.principal = principal
        self.boundary = boundary
        self.provenance = {} if provenance is None else provenance

    def to_json(self) -> dict:
        principal = [
            {"exponents": list(exps), "coeff": rational_str(coeff)}
            for exps, coeff in self.principal.items_sorted()
        ]
        prov = dict(self.provenance)
        if "weights" in prov:
            prov["weights"] = [rational_str(w) for w in prov["weights"]]
        for key in ("D", "normalization"):
            if key in prov:
                prov[key] = rational_str(prov[key])
        return {
            "g": self.g,
            "n": self.n,
            "principal": principal,
            "boundary": None if self.boundary is None else self.boundary.to_json(),
            "provenance": prov,
        }


def _relation_numerators(g: int, n: int, b, lifts=(1,)) -> dict:
    """Integer numerators, over (2g-2+n)! prod_j b_j!, of the principal part
    of the relation from the leg exponents b: gamma_0 pushed forward plus each
    gamma_i moved to psi_i, both linear, so the lifted shifts (as in
    :func:`_gamma0_numerators`) are summed first and moved once.

    The tail form at marking i depends on b_i and is symmetric in the other
    markings, so it is computed once per distinct exponent value: a later
    marking i with b_i = b_j for an earlier j takes j's moved terms with the
    exponents at psi_i and psi_j swapped.
    """
    total = _string_pushforward_terms(_gamma0_numerators(g, n, b, lifts))
    tail_lifts = [factorial(2 * g - 2 + n) * lift for lift in lifts]
    first = {}
    for i, bi in enumerate(b, start=2):
        if bi in first:
            j, moved = first[bi]
            order = list(range(n))
            order[i - 1], order[j - 1] = j - 1, i - 1
            swap = operator.itemgetter(*order)
            terms = ((swap(exps), num) for exps, num in moved.items())
        else:
            moved = _substitute_prime_terms(_gammai_numerators(g, n, i, b, tail_lifts), i)
            first[bi] = (i, moved)
            terms = moved.items()
        for exps, num in terms:
            total[exps] = total.get(exps, 0) + num
    return total


def relation_weights(k: int, l) -> list[tuple[tuple[int, ...], int]]:
    """The 0/1 shift vectors with their integer combination weights
    (2k+1)_s prod_(d_j=1) (-2l_j-1), s = |d|; shifts whose weight vanishes
    (the auxiliary space would lose its extra legs) are omitted."""
    out = []
    for dvec in itertools.product((0, 1), repeat=len(l)):
        w = math.perm(2 * k + 1, sum(dvec))
        if w:
            out.append((dvec, w * math.prod(-2 * lj - 1 for lj, dj in zip(l, dvec) if dj)))
    return out


def principal_part(g: int, k: int, l) -> TRRRecord:
    """Principal (trivial-graph) part of the weighted relation combination,
    from the closed-form contributions alone, normalized so the target
    monomial psi_1^k prod psi_j^(l_j) has coefficient 1.

    The combination runs over the 0/1 shifts d of the exponents, b_j =
    2l_j + d_j, with the weights of :func:`relation_weights`, and is
    accumulated as integer numerators over the one denominator
    L = (2g-2+n)! prod_j (2l_j+1)!.  Lifting shift d to L multiplies its
    weight by prod_(d_j=0) (2l_j+1), so with s = |d| the lift is
    (-1)^s (2k+1)_s prod_j (2l_j+1), the same for every shift of total s
    (times (2g-2+n)! for the gamma_i numerators, which are over prod b_j!
    alone).  Every other dependence of the closed forms on d is a marking
    factor C(2l_j+d_j, 2c_j) or a function of s (of s and d_i for the tail
    at marking i).  So for each exponent tuple c, c_j <= l_j, the sum over
    the shifts is the coefficients of t^s in the shift polynomial
    prod_j (C(2l_j, 2c_j) + C(2l_j+1, 2c_j) t) dotted with one weight per s
    (:func:`_gamma0_numerators`, :func:`_gammai_numerators`): one pass over
    c instead of one per shift.  The result is divided by the target's
    numerator term by term.

    One marked point is the case l = (), k = g: there is no shift, D = 1,
    the principal part is psi_1^g alone and the normalization is
    gamma = (2g+1)!! (4g)! / (2g-1)!.
    """
    l = tuple(int(x) for x in l)
    n = len(l) + 1
    if k < 1 or any(x < 1 for x in l) or k + sum(l) != g:
        raise ValueError("need k >= 1, l_j >= 1 and k + sum(l) = g")
    D = d_value(g, k, l)
    if D == 0:
        raise ExceptionalCaseError(
            f"D vanishes at (g={g}, k={k}, l={l}); use the g7 exceptional-case tooling"
        )
    weights = relation_weights(k, l)
    denominator = factorial(2 * g - 2 + n) * math.prod(factorial(2 * lj + 1) for lj in l)
    odd = math.prod(2 * lj + 1 for lj in l)
    # (2k+1)_s, and with it the lift and the weight, vanishes from s = 2k+2 on
    lifts = [
        (-1) ** s * math.perm(2 * k + 1, s) * odd for s in range(min(n, 2 * k + 2))
    ]
    target = (k,) + l
    total = _relation_numerators(g, n, tuple(2 * lj for lj in l), lifts)
    top = total.get(target, 0)
    raw = Fraction(top, denominator)
    # raw = C0*D, cross-multiplied over the positive denominators
    c0 = c0_coeff(g, n, l, (0,) * (n - 1))
    if top * c0.denominator * D.denominator != denominator * c0.numerator * D.numerator:
        raise AssertionError(f"target coefficient {raw} disagrees with C0*D = {c0 * D}")
    for exps, num in total.items():
        if exps[0] <= k and exps != target and num != 0:
            raise AssertionError(
                f"unexpected low monomial {exps} with coefficient "
                f"{Fraction(num, denominator)}"
            )
    principal = SparsePoly(
        psi_variables(n), {e: Fraction(num, top) for e, num in total.items() if num}
    )
    return TRRRecord(
        g=g,
        n=n,
        principal=principal,
        provenance={
            "monomials": [
                [2 * lj + dj for lj, dj in zip(l, dvec)] for dvec, _ in weights
            ],
            "weights": [w for _, w in weights],
            "D": D,
            "normalization": raw,
        },
    )


# ----------------------------------------------------------------------
# brute-force pipeline
#
# These functions import pixton, strata and stablegraphs in their own
# bodies, so that the closed forms above (and the CLI commands that only
# need them) start without loading and compiling the graph pipeline; it
# loads on the first call that runs it.
# ----------------------------------------------------------------------

def _omega_target(mono: MonomialSpec) -> tuple[tuple[int, ...], int]:
    """The (exponents, forget) pair of :func:`omega`'s coefficient on
    (g, n+1): the monomial's exponents followed by a 1, and the N - n - 1
    legs n+2..N to forget."""
    N = mono.num_legs
    if N < mono.n + 1:
        raise ValueError("monomial degree too large: no extra leg remains")
    return mono.exponents + (1,), N - mono.n - 1


def omega(mono: MonomialSpec, allow_large: bool = False, jobs: int = 1):
    """The coefficient of the monomial times the product of the extra leg
    variables in the degree-(g+1) part of the class on (g, N), multiplied by
    psi at the legs n+2..N and pushed forward down to (g, n+1).  Forgetting
    those legs is the dilaton equation, so the coefficient is planned on the
    graphs of (g, n+1), with the legs n+2..N placed on their vertices
    (:func:`monomial_coefficient` with ``forget``)."""
    from .pixton import monomial_coefficient

    exponents, forget = _omega_target(mono)
    return monomial_coefficient(
        mono.g, mono.n + 1, exponents, mono.g + 1, allow_large=allow_large,
        forget=forget, jobs=jobs,
    )


def trivial_graph(g: int, n: int) -> StableGraph:
    from .stablegraphs import make_graph

    return make_graph([g], [], [0] * n)


def rational_tail_graph(g: int, n: int, i: int) -> StableGraph:
    """Graph with markings i and n on a rational tail (n legs total)."""
    from .stablegraphs import make_graph

    legs = [1 if m in (i, n) else 0 for m in range(1, n + 1)]
    return make_graph([g, 0], [(0, 1)], legs)


def trivial_component_poly(el: StrataElement, nvars: int) -> SparsePoly:
    """Trivial-graph part as a psi polynomial in the first nvars markings."""
    ref = trivial_graph(el.g, el.n)
    terms = {}
    for dg, c in el.terms.items():
        if dg.graph != ref:
            continue
        if any(dg.psi_legs[m] for m in range(nvars, el.n)):
            raise ValueError("psi exponent on a marking outside the window")
        terms[tuple(dg.psi_legs[:nvars])] = c
    return SparsePoly(psi_variables(nvars), terms)


def tail_component_poly(el: StrataElement, i: int, nvars: int) -> SparsePoly:
    """Rational-tail component at marking i, in psi_1..psi_nvars and psip."""
    ref = rational_tail_graph(el.g, el.n, i)
    gv = 0 if ref.genera[0] == el.g else 1  # index of the genus-g vertex
    side = 0 if ref.edges[0][0] == gv else 1
    terms = {}
    for dg, c in el.terms.items():
        if dg.graph != ref:
            continue
        exps = [0] * (nvars + 1)
        for m in range(1, nvars + 1):
            exps[m - 1] = dg.psi_legs[m - 1]
        exps[nvars] = dg.psi_edges[0][side]
        if dg.psi_edges[0][1 - side] != 0:
            raise ValueError("psi exponent on the rational-tail half-edge")
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return SparsePoly(psi_variables(nvars, prime=True), terms)


def verify_lemmas(g: int, n: int, b, allow_large: bool = False, jobs: int = 1) -> dict:
    """Compare the pipeline contributions of the trivial and rational-tail
    graphs against the closed forms; also check the structural properties.
    The report names the class :func:`omega` gave by its digest
    (``omega_digest``, :meth:`StrataElement.digest`).  The closed forms
    need g >= 1, which is checked before :func:`omega` runs."""
    from .strata import pushforward_forget

    if g < 1:
        raise ValueError(f"the lemmas need g >= 1, got {g}")
    mono = MonomialSpec(g, n, tuple(b))
    el, meta = omega(mono, allow_large=allow_large, jobs=jobs)
    report = {
        "g": g,
        "n": n,
        "b": list(mono.exponents),
        "kappa_free": not el.has_kappa(),
        "psi_at_new_leg_zero": el.psi_degree(n + 1) == 0,
        "omega_digest": el.digest(),
        "meta": meta,
    }
    got0 = trivial_component_poly(el, n)
    want0 = gamma0_closed(g, n, mono.exponents)
    report["gamma0_match"] = got0 == want0
    if not report["gamma0_match"]:
        report["gamma0_got"] = repr(got0)
        report["gamma0_want"] = repr(want0)
    for i in range(2, n + 1):
        # tails carry markings (i, n+1) inside (g, n+1)
        goti = tail_component_poly(el, i, n)
        wanti = gammai_closed(g, n, i, mono.exponents)
        report[f"gamma{i}_match"] = goti == wanti
        if not report[f"gamma{i}_match"]:
            report[f"gamma{i}_got"] = repr(goti)
            report[f"gamma{i}_want"] = repr(wanti)
    pushed = pushforward_forget(el, n + 1)
    principal = pushed.graph_component(trivial_graph(g, n))
    boundary = pushed - principal
    report["boundary_kappa_free"] = boundary.is_kappa_free_boundary()
    report["all_match"] = all(
        v for key, v in report.items() if key.endswith("_match")
    )
    return report


def assemble_full_trr(g: int, k: int, l, allow_large: bool = False, jobs: int = 1) -> TRRRecord:
    """The full relation (principal and boundary parts) through the
    brute-force pipeline; the principal part must reproduce
    :func:`principal_part` exactly.  The :func:`omega` classes of every 0/1
    shift come from one walk over one plan on the graphs of (g, n+1)
    (:func:`trrkit.pixton._monomial_coefficients`), which computes each
    constant term they share once, and the walk's meta is kept in the
    record's provenance under ``"walk"``; the guard admits the relation
    exactly when it admits each shift's :func:`omega`."""
    from .pixton import _monomial_coefficients
    from .strata import StrataElement, pushforward_forget

    l = tuple(int(x) for x in l)
    n = len(l) + 1
    closed = principal_part(g, k, l)
    shifts = relation_weights(k, l)
    targets = [
        _omega_target(MonomialSpec(g, n, tuple(2 * lj + dj for lj, dj in zip(l, dvec))))
        for dvec, _ in shifts
    ]
    classes, walk = _monomial_coefficients(g, n + 1, targets, g + 1, allow_large, jobs)
    total = StrataElement.zero(g, n)
    for (_, weight), el in zip(shifts, classes):
        total = total + pushforward_forget(el, n + 1).scale(weight)
    norm = closed.provenance["normalization"]
    total = total.scale(Fraction(1) / norm)
    principal_el = total.graph_component(trivial_graph(g, n))
    boundary = total - principal_el
    got = trivial_component_poly(total, n)
    if got != closed.principal:
        raise AssertionError("pipeline principal part disagrees with closed forms")
    if not boundary.is_kappa_free_boundary():
        raise AssertionError("boundary part is not kappa-free")
    return TRRRecord(
        g=g,
        n=n,
        principal=closed.principal,
        boundary=boundary,
        provenance=dict(closed.provenance, walk=walk),
    )


# ----------------------------------------------------------------------
# the genus-7 exceptional case
# ----------------------------------------------------------------------

def _solve_modulo(families, known, target):
    """Exact coefficients x with sum_i x_i families[i] ({exponents:
    coefficient} dicts) equal to the target monomial modulo the monomials
    that ``known`` marks, or None.  Sparse Gaussian elimination over
    Fraction: each family, less its known monomials and reduced by the rows
    before it, becomes a row normalized at its least monomial.  A row holds
    no earlier pivot, so the residual target - sum_i x_i families[i], with
    each new pivot taken out, is empty exactly when the target is reached.
    """
    def subtract(part: dict, sub: dict, c) -> None:
        for key, v in sub.items():
            part[key] = part.get(key, 0) - c * v

    rows = []  # (pivot, {monomial: coefficient}, {family index: coefficient})
    residual, x = {target: Fraction(1)}, {}
    for i, family in enumerate(families):
        row, comb = {e: Fraction(c) for e, c in family.items() if not known(e)}, {i: 1}
        for pivot, prow, pcomb in rows:
            if c := row.get(pivot):
                subtract(row, prow, c)
                subtract(comb, pcomb, c)
        row = {e: v for e, v in row.items() if v}
        if not row:
            continue
        top = row[pivot := min(row)]
        row, comb = {e: v / top for e, v in row.items()}, {j: v / top for j, v in comb.items()}
        rows.append((pivot, row, comb))
        if c := residual.get(pivot):
            subtract(residual, row, c)
            subtract(x, comb, -c)
            residual = {e: v for e, v in residual.items() if v}
            if not residual:
                return [x.get(j, Fraction(0)) for j in range(len(families))]
    return None


def g7_patch() -> dict:
    """Recover the two relations the vanishing D misses at genus 7.

    D vanishes at (k, l) = (3, (1, 1, 2)).  psi_1^3 psi_2^2 psi_3 psi_4 is
    found by :func:`_solve_modulo` from the relation from the one monomial
    b = (9, 3, 1) and its psi_1/psi_2 relabelling, modulo the monomials with
    a zero exponent (fewer markings) or an exponent above k = 3 (the relation
    at (4, (1, 1, 1)), whose D is nonzero, and its relabellings).  Then D at
    (2, (2, 2, 1)) is nonzero and supplies psi_1^2 psi_2^2 psi_3^2 psi_4.
    """
    g, n, b = 7, 4, (9, 3, 1)
    target = (3, 2, 1, 1)
    d_check = d_value(g, 2, (2, 2, 1))
    report: dict = {
        "g": g,
        "n": n,
        "monomial": list(b),
        "D_2_2_1": rational_str(d_check),
        "D_2_2_1_nonzero": d_check != 0,
        "D_1_1_1_nonzero": d_value(g, 4, (1, 1, 1)) != 0,
    }
    den = factorial(2 * g - 2 + n) * math.prod(map(factorial, b))
    family = {e: Fraction(c, den) for e, c in _relation_numerators(g, n, b).items()}
    swapped = {(e[1], e[0]) + e[2:]: c for e, c in family.items()}
    combination = _solve_modulo(
        [family, swapped], lambda e: 0 in e or max(e) > target[0], target
    )
    if combination is None:
        return {**report, "ok": False, "error": f"the families do not isolate {target}"}
    x, y = combination
    record_a = TRRRecord(
        g=g,
        n=n,
        principal=SparsePoly(psi_variables(n), {target: Fraction(1)}),
        provenance={
            "monomials": [list(b)],
            "weights": [Fraction(1)],
            "D": Fraction(0),
            "normalization": Fraction(1),
            "method": "relation from the monomial (9,3,1), combined with its "
            "psi_1/psi_2 relabelling by exact elimination; modulo monomials "
            "with a zero exponent and monomials with an exponent above 3 (the "
            "relation at (k,l) = (4,(1,1,1)) and its relabellings)",
            "combination": {"family": rational_str(x), "swapped_family": rational_str(y)},
        },
    )
    record_b = principal_part(g, 2, (2, 2, 1))
    record_b.provenance["method"] = (
        "standard combination at (k,l) = (2,(2,2,1)); higher-power monomials "
        "are covered by known relations including the patched k=3 case"
    )
    report["record_psi1_3"] = record_a
    report["record_psi1_2"] = record_b
    report["ok"] = report["D_2_2_1_nonzero"] and report["D_1_1_1_nonzero"]
    return report
