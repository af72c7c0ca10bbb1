import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from trrkit.cli import result_digest
from trrkit.numerics import double_factorial, factorial, falling_factorial
from trrkit.pixton import ComputationGuardError
from trrkit.trr import (
    SCAN_CELL_BUDGET,
    ExceptionalCaseError,
    MonomialSpec,
    TRRRecord,
    _gamma0_numerators,
    _gammai_numerators,
    _psi,
    _relation_numerators,
    _solve_modulo,
    _two_part_zeros,
    c0_coeff,
    ci_coeff,
    d_value,
    g7_patch,
    gamma0_closed,
    gammai_closed,
    omega,
    principal_part,
    relation_weights,
    scan_cell_count,
    scan_zeros,
    string_pushforward,
    substitute_prime,
    psi_variables,
)
from oracles import (
    d_value_direct,
    gamma0_direct,
    gammai_direct,
    omega_by_pushforward,
    principal_part_direct,
    scan_genus_walk,
)


def test_gamma0_examples():
    assert dict(gamma0_closed(1, 1, ()).terms) == {(2,): Fraction(72)}
    assert dict(gamma0_closed(1, 2, (0,)).terms) == {(2, 0): Fraction(180)}
    assert dict(gamma0_closed(1, 2, (1,)).terms) == {(2, 0): Fraction(36)}
    # closed form at (2,1): (2g+1)!! (4g)!/(2g-1)! = 15 * 6720
    assert dict(gamma0_closed(2, 1, ()).terms) == {(3,): Fraction(100800)}


def test_gamma0_homogeneous_degree():
    for g, n, b in [(1, 2, (2,)), (2, 3, (1, 2)), (3, 2, (4,))]:
        poly = gamma0_closed(g, n, b)
        assert poly.terms
        assert all(sum(e) == g + 1 for e in poly.terms)


def test_gammai_spot_value():
    poly = gammai_closed(7, 4, 4, (9, 3, 1))
    # c = (0, 1, 1): psi_1^5 psi_3 psip
    assert poly.coefficient((5, 0, 1, 0, 1)) == Fraction(-1, 128)


def test_gammai_tail_power_vanishing():
    poly = gammai_closed(7, 4, 4, (9, 3, 1))
    assert all(exps[-1] < 2 for exps in poly.terms)


def test_gammai_summation_limit_diagnostic():
    # with the resummed upper limit b_i - 2c_i - 2 the rational tail at
    # (1,2,2,b=(0,)) contributes -90 psi_1 - 18 psip; the alternative +2
    # limit would make the psi_1 bracket vanish entirely
    poly = gammai_closed(1, 2, 2, (0,))
    assert dict(poly.terms) == {
        (1, 0, 0): Fraction(-90),
        (0, 0, 1): Fraction(-18),
    }


def test_string_pushforward_and_substitution():
    poly = gamma0_closed(1, 2, (1,))  # 36 psi_1^2
    pushed = string_pushforward(poly)
    assert dict(pushed.terms) == {(1, 0): Fraction(36)}
    tail = substitute_prime(gammai_closed(1, 2, 2, (0,)), 2, 2)
    assert dict(tail.terms) == {(1, 0): Fraction(-90), (0, 1): Fraction(-18)}


def test_c0_examples():
    assert c0_coeff(2, 2, (1,), (0,)) == 315
    # d-monotonicity: raising d_j only rescales by the factorial prefactor
    for g, n, l in [(2, 2, (1,)), (3, 3, (1, 1))]:
        base = c0_coeff(g, n, l, (0,) * (n - 1))
        for dvec in itertools.product((0, 1), repeat=n - 1):
            total = sum(2 * lj + dj for lj, dj in zip(l, dvec))
            expected = base * Fraction(
                factorial(4 * g - 1 + n - total),
                factorial(4 * g - 1 + n - 2 * sum(l)),
            )
            assert c0_coeff(g, n, l, dvec) == expected


def test_c0_matches_gamma0_pushforward():
    for g, n, l in [(2, 2, (1,)), (3, 2, (2,)), (3, 3, (1, 1)), (4, 3, (1, 2))]:
        k = g - sum(l)
        b = tuple(2 * lj for lj in l)
        pushed = string_pushforward(gamma0_closed(g, n, b))
        assert pushed.coefficient((k,) + l) == c0_coeff(g, n, l, (0,) * (n - 1))


def _tail_coefficients(g, n, i, l, dvec):
    b = tuple(2 * lj + dj for lj, dj in zip(l, dvec))
    return substitute_prime(gammai_closed(g, n, i, b), i, n)


def test_ci_matches_gammai_pushforward():
    # every monomial with psi_1 power at most k extracted from the pushed
    # rational-tail polynomial must equal the closed coefficient
    for g, n in [(1, 2), (2, 2)]:
        for l in itertools.product(range(g + 1), repeat=n - 1):
            if sum(l) > g:
                continue
            k = g - sum(l)
            for dvec in itertools.product((0, 1), repeat=n - 1):
                if sum(2 * lj + dj for lj, dj in zip(l, dvec)) > 2 * g + 1:
                    continue
                for i in range(2, n + 1):
                    poly = _tail_coefficients(g, n, i, l, dvec)
                    for lp in itertools.product(range(g + 1), repeat=n - 1):
                        if any(
                            lp[j - 2] > l[j - 2]
                            for j in range(2, n + 1)
                            if j != i
                        ):
                            continue
                        kp = g - sum(lp)
                        if kp < 0 or kp > k:
                            continue
                        got = poly.coefficient((kp,) + lp)
                        want = ci_coeff(g, n, i, l, lp, dvec)
                        assert got == want, (g, n, i, l, lp, dvec)


def test_ci_binomial_vanishing():
    # lower index of the binomial negative: the coefficient is zero
    # (here 2g - b_3 - 2*l'_2 = 4 - 2 - 4 = -2)
    assert ci_coeff(2, 3, 2, (0, 1), (2, 0), (0, 0)) == 0


def test_cancellation_identity_small():
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        g = rng.randint(1, 9)
        n = rng.randint(2, min(5, g + 1))
        parts = [rng.randint(0, 2) for _ in range(n - 1)]
        if sum(parts) > g:
            continue
        l = tuple(parts)
        k = g - sum(l)
        if k < 1:
            continue
        checked += 1
        for i in range(2, n + 1):
            for lp in itertools.product(*(range(lj + 1) for lj in l)):
                lp = list(lp)
                for lpi in range(g + 1):
                    lp_full = list(lp)
                    lp_full[i - 2] = lpi
                    kp = g - sum(lp_full)
                    if kp < 0 or kp > k:
                        continue
                    total = Fraction(0)
                    for dvec, weight in relation_weights(k, l):
                        total += weight * ci_coeff(g, n, i, l, tuple(lp_full), dvec)
                    assert total == 0, (g, n, k, l, i, lp_full)


def test_weighted_target_identity():
    rng = random.Random(41)
    for _ in range(40):
        g = rng.randint(1, 10)
        n = rng.randint(2, min(5, g + 1))
        parts = [rng.randint(0, 2) for _ in range(n - 1)]
        l = tuple(parts)
        k = g - sum(l)
        if k < 1:
            continue
        total = Fraction(0)
        for dvec, weight in relation_weights(k, l):
            total += weight * c0_coeff(g, n, l, dvec)
        assert total == c0_coeff(g, n, l, (0,) * (n - 1)) * d_value(g, k, l)


def test_d_examples():
    assert d_value(2, 1, (1,)) == Fraction(-2, 7)
    assert d_value(7, 3, (2, 1, 1)) == 0
    assert d_value(35, 22, (11, 1, 1)) == 0
    assert d_value(3, 1, (1, 1)) == Fraction(-1, 5)


def test_d_fast_equals_direct():
    rng = random.Random(6)
    checked = 0
    while checked < 120:
        g = rng.randint(1, 12)
        n = rng.randint(2, min(12, g + 1))
        parts = [rng.randint(0, 3) for _ in range(n - 1)]
        k = g - sum(parts)
        if k < 0:
            continue
        checked += 1
        assert d_value(g, k, tuple(parts)) == d_value_direct(g, k, tuple(parts))


def test_d_symmetric_under_permutation():
    rng = random.Random(8)
    for _ in range(40):
        g = rng.randint(3, 14)
        n = rng.randint(3, min(6, g))
        parts = [rng.randint(1, 3) for _ in range(n - 1)]
        if sum(parts) >= g:
            continue
        k = g - sum(parts)
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert d_value(g, k, tuple(parts)) == d_value(g, k, tuple(shuffled))


def test_d_closed_forms_small_genus():
    for g in range(1, 16):
        for l2 in range(g):
            k = g - l2
            if k < 1:
                continue
            want = Fraction(2 * k * (1 - 2 * l2), 2 * g + 1 + 2 * k)
            assert d_value(g, k, (l2,)) == want
            assert (1 - 2 * l2) % 2 == 1
        for l2 in range(g):
            for l3 in range(g):
                k = g - l2 - l3
                if k < 1:
                    continue
                num = 8 * k * l2 * l3 - 4 * g * l2 - 4 * g * l3 + 4 * l2 * l3 + 2 * k + 1
                want = Fraction(2 * k * num, (2 * g + 2 + 2 * k) * (2 * g + 1 + 2 * k))
                assert d_value(g, k, (l2, l3)) == want
                assert num % 2 == 1


def test_scan_small_ranges():
    zeros, cells = scan_zeros(1, 6)
    assert zeros == []
    assert cells > 0
    zeros7, _ = scan_zeros(7, 7)
    assert zeros7 == [(7, 4, 3, (1, 1, 2))]


def test_scan_jobs_deterministic():
    a = scan_zeros(5, 9, jobs=1)
    b = scan_zeros(5, 9, jobs=2)
    assert a == b


def test_principal_part_frozen_2_1_1():
    rec = principal_part(2, 1, (1,))
    assert rec.provenance["normalization"] == Fraction(-90)
    assert dict(rec.principal.terms) == {
        (1, 1): Fraction(1),
        (2, 0): Fraction(-3),
    }
    assert rec.provenance["D"] == Fraction(-2, 7)


def test_principal_part_properties_random():
    rng = random.Random(12)
    built = 0
    while built < 15:
        g = rng.randint(2, 9)
        n = rng.randint(2, min(4, g))
        parts = sorted(rng.randint(1, 3) for _ in range(n - 1))
        k = g - sum(parts)
        if k < 1:
            continue
        l = tuple(parts)
        if d_value(g, k, l) == 0:
            continue
        built += 1
        rec = principal_part(g, k, l)
        target = (k,) + l
        assert rec.principal.coefficient(target) == 1
        for exps, coeff in rec.principal.terms.items():
            if exps != target:
                assert exps[0] > k, (g, k, l, exps)


def _corrupted_numerators(monkeypatch, change):
    """Patch trr._relation_numerators so that change(total, target) edits
    the numerators of every relation before principal_part checks them."""
    from trrkit import trr

    real = trr._relation_numerators

    def corrupted(g, n, b, lifts=(1,)):
        total = real(g, n, b, lifts)
        change(total, (g - sum(b) // 2,) + tuple(x // 2 for x in b))
        return total

    monkeypatch.setattr(trr, "_relation_numerators", corrupted)


def _add_one_to_target(total, target):
    total[target] += 1


def _add_low_monomial(total, target):
    # psi_1^(k-1) psi_2^(l_2+1): degree g, psi_1 exponent below k
    total[(target[0] - 1, target[1] + 1) + target[2:]] = 7


def test_principal_self_check_fires(monkeypatch, capsys):
    from trrkit import cli

    for g, k, l in [(2, 1, (1,)), (7, 2, (1, 1, 3))]:
        principal_part(g, k, l)
    _corrupted_numerators(monkeypatch, _add_one_to_target)
    for g, k, l in [(2, 1, (1,)), (7, 2, (1, 1, 3))]:
        with pytest.raises(AssertionError, match=r"disagrees with C0\*D"):
            principal_part(g, k, l)
    code = cli.main(["principal", "--g", "2", "--k", "1", "--l", "1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("internal error: target coefficient")
    monkeypatch.undo()
    _corrupted_numerators(monkeypatch, _add_low_monomial)
    for g, k, l in [(2, 1, (1,)), (7, 2, (1, 1, 3))]:
        with pytest.raises(AssertionError, match="unexpected low monomial"):
            principal_part(g, k, l)


def test_principal_part_rejects_vanishing_d():
    with pytest.raises(ExceptionalCaseError):
        principal_part(7, 3, (1, 1, 2))


def test_n1_gamma_values():
    # one marked point is the l = () case of principal_part: D = 1 and the
    # normalization is gamma = (2g+1)!! (4g)! / (2g-1)!
    for g in range(1, 27):
        rec = principal_part(g, g, ())
        want = Fraction(
            double_factorial(2 * g + 1) * factorial(4 * g), factorial(2 * g - 1)
        )
        assert rec.provenance["normalization"] == want
        assert rec.provenance["D"] == 1
        assert dict(rec.principal.terms) == {(g,): Fraction(1)}
    assert principal_part(1, 1, ()).provenance["normalization"] == 72
    assert principal_part(2, 2, ()).provenance["normalization"] == 100800


def test_monomial_spec_counts():
    spec = MonomialSpec(1, 1, ())
    assert spec.num_legs == 5
    spec = MonomialSpec(7, 4, (9, 3, 1))
    assert spec.num_legs == 7
    with pytest.raises(ValueError):
        MonomialSpec(1, 2, (5,))
    # a negative exponent is named as given, not in omega's padded vector
    with pytest.raises(ValueError, match=r"nonnegative, got \(-1,\)$"):
        MonomialSpec(1, 2, (-1,))


# every genus-3 omega input on at most 4 legs, exponents sorted: six of them
GENUS_3_SMALL = [
    (3, n, b)
    for n in range(1, 5)
    for b in itertools.combinations_with_replacement(range(9), n - 1)
    if sum(b) <= 8 and n + 1 <= MonomialSpec(3, n, b).num_legs <= 4
]


@pytest.mark.parametrize("g,n,b", GENUS_3_SMALL + [(26, 1, ())])
def test_omega_is_refused_by_price_alone(g, n, b):
    # there is no genus rule: the cost guard refuses these by their price,
    # at the first graph that takes it past the budget
    mono = MonomialSpec(g, n, b)
    started = time.perf_counter()
    with pytest.raises(ComputationGuardError, match="exceeds the default budget"):
        omega(mono)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "g,n,b",
    [
        (1, 1, ()),
        (1, 2, (0,)),
        (1, 2, (1,)),
        (1, 2, (2,)),
        pytest.param(2, 1, (), marks=pytest.mark.slow),
    ],
)
def test_omega_forgets_its_extra_legs_as_the_pushforward_does(g, n, b):
    # omega forgets the legs n+2..N by the dilaton equation on the graphs of
    # (g, n+1); the reference multiplies the coefficient over every labelled
    # graph of (g, N) by psi at those legs and pushes it forward
    mono = MonomialSpec(g, n, b)
    assert omega(mono, allow_large=True)[0] == omega_by_pushforward(mono)


def test_relation_weights_skip_vanishing():
    # when sum(d) exceeds 2k+1 the weight vanishes and the shift is omitted
    weights = relation_weights(1, (1, 1, 1, 1))
    assert all(sum(d) <= 3 for d, _ in weights)
    assert len(weights) == sum(
        1
        for d in itertools.product((0, 1), repeat=4)
        if falling_factorial(3, sum(d)) != 0
    )


# sha256 of the canonical JSON of record_psi1_2 as the hand elimination of
# the genus-7 cell wrote it; the exact elimination must keep it byte for byte
G7_RECORD_PSI1_2_DIGEST = "1e5a96c42005999b0c52234302449829260e91e54125b1e0d35f96fee759c2b0"


def test_g7_patch():
    report = g7_patch()
    assert report["D_2_2_1_nonzero"] and report["D_1_1_1_nonzero"]
    assert report["ok"]
    rec_a = report["record_psi1_3"]
    assert isinstance(rec_a, TRRRecord)
    assert dict(rec_a.principal.terms) == {(3, 2, 1, 1): Fraction(1)}
    assert rec_a.provenance["combination"] == {"family": "-192/5", "swapped_family": "128/5"}
    rec_b = report["record_psi1_2"]
    assert result_digest(rec_b.to_json()) == G7_RECORD_PSI1_2_DIGEST
    assert rec_b.principal.coefficient((2, 2, 2, 1)) == 1
    for exps in rec_b.principal.terms:
        assert exps == (2, 2, 2, 1) or exps[0] > 2


def _single_monomial_relation(g, b):
    """The principal part of the relation from one monomial, through the
    public closed forms: gamma_0 pushed forward plus each gamma_i moved."""
    n = len(b) + 1
    total = string_pushforward(gamma0_closed(g, n, b))
    for i in range(2, n + 1):
        total = total + substitute_prime(gammai_closed(g, n, i, b), i, n)
    return dict(total.terms)


def _g7_families():
    family = _single_monomial_relation(7, (9, 3, 1))
    return family, {(e[1], e[0]) + e[2:]: c for e, c in family.items()}


def test_single_monomial_relations_span_every_positive_genus_7_monomial():
    # every relation from one monomial at (7,4), as integer numerators (the
    # span does not see their denominators), known only the monomials with
    # a zero exponent: the whole all-positive degree-7 part is reached
    families = [
        _relation_numerators(7, 4, b)
        for b in itertools.product(range(16), repeat=3)
        if sum(b) <= 15
    ]
    positive = [e for e in itertools.product(range(1, 5), repeat=4) if sum(e) == 7]
    assert len(positive) == 20
    for target in positive:
        assert _solve_modulo(families, lambda e: 0 in e, target) is not None


def test_g7_families_need_every_exponent_above_k_known():
    # known only a zero exponent or a psi_1 exponent above 3, the pair cannot
    # isolate psi_1^3 psi_2^2 psi_3 psi_4
    assert _solve_modulo(_g7_families(), lambda e: 0 in e or e[0] > 3, (3, 2, 1, 1)) is None


def test_g7_recorded_combination_isolates_the_target():
    family, swapped = _g7_families()
    combined = {}
    for terms, x in ((family, Fraction(-192, 5)), (swapped, Fraction(128, 5))):
        for e, c in terms.items():
            combined[e] = combined.get(e, 0) + x * c
    positive = {e: c for e, c in combined.items() if c and 0 not in e}
    assert {e: c for e, c in positive.items() if max(e) <= 3} == {(3, 2, 1, 1): 1}
    # a monomial that only a relabelling of the (4,(1,1,1)) relation covers
    assert positive[(1, 4, 1, 1)] == Fraction(-1, 2)


def test_psi_variables():
    assert psi_variables(3) == ("psi1", "psi2", "psi3")
    assert psi_variables(2, prime=True) == ("psi1", "psi2", "psip")


def _scan_cells(g_min, g_max):
    """The scan's cells (g, n, k, l), enumerated without its partition walk."""
    for g in range(g_min, g_max + 1):
        for n in range(2, g + 1):
            for k in range(1, g - n + 2):
                for l in itertools.combinations_with_replacement(range(1, g - k + 1), n - 1):
                    if sum(l) == g - k:
                        yield g, n, k, l


def test_gamma_closed_forms_match_direct_sums():
    for g in range(1, 4):
        for n in range(1, 5):
            for b in itertools.product(range(2 * g + 3), repeat=n - 1):
                if sum(b) <= 2 * g + 2:
                    assert gamma0_closed(g, n, b).terms == gamma0_direct(g, n, b)
                if n < 2 or sum(b) > 2 * g + 1:
                    continue
                for i in range(2, n + 1):
                    assert gammai_closed(g, n, i, b).terms == gammai_direct(g, n, i, b)


def test_principal_part_matches_direct_oracle():
    cells = [(g, k, l) for g, _, k, l in _scan_cells(1, 5)] + [(7, 1, (1,) * 6)]
    # repeated exponents above genus 5 share one tail form per value, and an
    # unsorted l repeats an exponent at markings that are not adjacent
    cells += [(6, 2, (1, 1, 2)), (8, 2, (1, 1, 2, 2)), (9, 3, (1, 1, 2, 2)), (6, 2, (1, 2, 1))]
    for g, k, l in cells:
        assert principal_part(g, k, l).to_json() == principal_part_direct(g, k, l).to_json()


def test_scan_matches_direct_oracle():
    cells = list(_scan_cells(1, 10))
    want = sorted(c for c in cells if d_value_direct(c[0], c[2], c[3]) == 0)
    assert scan_zeros(1, 10) == (want, len(cells))


def test_d_rejects_negative_exponents():
    with pytest.raises(ValueError, match="l_j >= 0"):
        d_value(2, 3, (-1,))
    with pytest.raises(ValueError, match="l_j >= 0"):
        d_value(4, 3, (2, -1))
    assert d_value(3, 3, (0, 0)) == d_value_direct(3, 3, (0, 0))


def test_scan_cell_count_matches_the_scan():
    assert scan_cell_count(1, 26) == 41365
    assert scan_cell_count(1, 40) == 963280
    assert scan_cell_count(1, 50) == 6547101
    for g_min, g_max in [(1, 1), (1, 9), (4, 12), (9, 9)]:
        cells = sum(1 for _ in _scan_cells(g_min, g_max))
        assert scan_cell_count(g_min, g_max) == scan_zeros(g_min, g_max)[1] == cells


def test_scan_guard_refuses_large_ranges():
    assert scan_cell_count(1, 40) <= SCAN_CELL_BUDGET < scan_cell_count(1, 50)
    with pytest.raises(ComputationGuardError, match="allow_large"):
        scan_zeros(1, 50)
    # genus 50 alone is over the budget, so the range is refused at its start
    # without pricing the genera below it one by one past 50
    assert scan_cell_count(50, 50) > SCAN_CELL_BUDGET
    with pytest.raises(ComputationGuardError, match="passed at g = 99990"):
        scan_zeros(99990, 100000)


# the zeros of D under the scan conventions for g <= 35
KNOWN_ZEROS = [
    (7, 4, 3, (1, 1, 2)),
    (30, 6, 4, (1, 2, 5, 7, 11)),
    (30, 8, 4, (1, 1, 3, 3, 3, 4, 11)),
    (31, 5, 6, (2, 3, 4, 16)),
    (35, 4, 22, (1, 1, 11)),
]


def test_scan_pins_the_known_zeros_through_genus_35():
    zeros, cells = scan_zeros(1, 35)
    assert zeros == KNOWN_ZEROS
    assert cells == scan_cell_count(1, 35) == 337471
    assert all(d_value(g, k, l) == 0 for g, _, k, l in KNOWN_ZEROS)


@pytest.mark.parametrize(
    "g_min,g_max,jobs", [(1, 26, 1), (30, 31, 1), (30, 31, 2), (20, 26, 2), (7, 7, 1)]
)
def test_scan_matches_the_cell_by_cell_walk(g_min, g_max, jobs):
    # the zeros at g = 30 and 31 have n = 5, 6 and 8: their last pairs are
    # solved below the root of the walk; from g_min = 7 or 20 on, the walk
    # of each T must drop the k below g_min - T, and two workers split the
    # T values between them
    walks = [scan_genus_walk(g) for g in range(g_min, g_max + 1)]
    want = (sorted(z for zeros, _ in walks for z in zeros), sum(c for _, c in walks))
    assert scan_zeros(g_min, g_max, jobs=jobs) == want


def _pair_numerator(psi0, psi1, psi2, p, rest):
    return psi0 - 2 * rest * psi1 + 4 * p * (rest - p) * psi2


@st.composite
def _pair_cases(draw):
    """(psi0, psi1, psi2, low, rest); half of them built so that the
    numerator vanishes at p = u / 2 for some u near the admissible ones
    (a half-integer or not, inside low..rest//2 or not), then moved by a
    small shift."""
    rest = draw(st.integers(2, 60))
    low = draw(st.integers(1, rest // 2))
    psi1 = draw(st.integers(-50, 50))
    psi2 = draw(st.integers(-6, 6))
    shift = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        u = draw(st.integers(-6, rest + 8))
        # 4p(rest - p) at p = u/2
        psi0 = 2 * rest * psi1 - u * (2 * rest - u) * psi2 + shift
    else:
        psi0 = draw(st.integers(-3000, 3000))
    return psi0, psi1, psi2, low, rest


@settings(max_examples=300, deadline=None)
@given(_pair_cases())
@example((42, 3, 0, 1, 7))  # psi2 = 0 and c = psi0 - 2 rest psi1 = 0: every pair
@example((43, 3, 0, 1, 7))  # psi2 = 0 and c != 0: no pair
@example((-20, 0, 1, 1, 4))  # negative discriminant: p(4 - p) = 5 > 4
@example((-20, 0, 1, 1, 5))  # rest^2 - 4P = 5 is not a square
@example((-15, 0, 1, 1, 4))  # the root p = 3/2 is no integer: P = 15/4
@example((0, 0, 1, 1, 4))  # the root p = 0, below low
@example((-12, 0, 1, 2, 4))  # the root p = 1, below low = 2
@example((20, 0, 1, 1, 4))  # the root p = -1 is negative
@example((-36, 5, 3, 1, 6))  # the root p = 2, a zero
@example((-104, 0, 5, 1, 4))  # -c / (4 psi2) leaves a remainder
def test_pair_zeros_match_direct_evaluation(case):
    """The two-part solver against the numerator at every p in
    low..rest//2."""
    psi0, psi1, psi2, low, rest = case
    want = [
        p for p in range(low, rest // 2 + 1) if not _pair_numerator(psi0, psi1, psi2, p, rest)
    ]
    assert list(_two_part_zeros(psi0 - 2 * rest * psi1, psi2, low, rest)) == want


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8),
    st.lists(st.integers(0, 5), max_size=7),
)
def test_generating_function_numerator_equals_the_shift_sum(k, l):
    """[z^(2k+1)] (1+z)^(2g+2k) prod_j (1 - 2l_j z) over C(B, 2k+1),
    B = 2g+n+2k-1, is D: zero parts included, for every n >= 2 and for
    n = 1 from genus 1 on (C(B, 2k+1) = 0 at g = n - 1 = 0)."""
    g, n = k + sum(l), len(l) + 1
    assume(2 * g + n >= 2)
    poly = [math.comb(2 * g + 2 * k, j) for j in range(2 * g + 2 * k + 1)]
    for lj in l:
        poly = [a - 2 * lj * b for a, b in zip(poly, [0] + poly)]
    num = poly[2 * k + 1] if 2 * k + 1 < len(poly) else 0
    D = Fraction(num, math.comb(2 * g + n + 2 * k - 1, 2 * k + 1))
    assert D == d_value_direct(g, k, l) == d_value(g, k, l)


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shift_sums_match_the_sum_shift_by_shift(data):
    """The closed forms summed over the 0/1 shifts through the shift
    polynomial equal the lifted sum of their no-shift forms, one shift at a
    time, odd base exponents included."""
    g = data.draw(st.integers(1, 5), label="g")
    n = data.draw(st.integers(2, 5), label="n")
    top = data.draw(st.integers(0, min(n - 1, 2 * g + 1)), label="top")
    # every shifted monomial has degree at most 2g+1
    budget = 2 * g + 1 - top
    b = []
    for _ in range(n - 1):
        b.append(data.draw(st.integers(0, min(4, budget))))
        budget -= b[-1]
    lifts = data.draw(
        st.lists(st.integers(-30, 30), min_size=top + 1, max_size=top + 1), label="lifts"
    )
    want0, wanti = {}, {i: {} for i in range(2, n + 1)}
    for d in itertools.product((0, 1), repeat=n - 1):
        if sum(d) > top:
            continue
        bd = tuple(x + y for x, y in zip(b, d))
        for e, num in _gamma0_numerators(g, n, bd).items():
            want0[e] = want0.get(e, 0) + lifts[sum(d)] * num
        for i in range(2, n + 1):
            for e, num in _gammai_numerators(g, n, i, bd).items():
                wanti[i][e] = wanti[i].get(e, 0) + lifts[sum(d)] * num
    assert _nonzero(_gamma0_numerators(g, n, b, lifts)) == _nonzero(want0)
    for i in range(2, n + 1):
        assert _nonzero(_gammai_numerators(g, n, i, b, lifts)) == _nonzero(wanti[i])


@pytest.mark.slow
def test_principal_part_matches_direct_oracle_with_seven_parts():
    """Seven parts: 2^7 shifts in the per-shift oracle, one pass over the
    exponent tuples here."""
    cell = (8, 1, (1,) * 7)
    assert principal_part(*cell).to_json() == principal_part_direct(*cell).to_json()


# result digests of principal parts as the shift-by-shift sum computed them
PRINCIPAL_DIGESTS = {
    (30, 5, (1, 2, 5, 7, 10)): "2ccd92775519d9332d6bd0efb2104c2e84f5fa7747be253e7453232fc11ad7af",
    (30, 3, (1, 1, 3, 3, 3, 4, 12)): "8062476e3cd251336c7652c70c566d307369900e858ab1d15d079876431bcf54",
    (20, 2, (1, 1, 1, 1, 2, 2, 3, 3, 4)): "802f2b75f1c41269b2d739289595da182b5ddd8cbbfd676d4490746e3ff243f3",
}


@pytest.mark.parametrize("cell", sorted(PRINCIPAL_DIGESTS))
def test_principal_part_pinned_digests(cell):
    assert result_digest(principal_part(*cell).to_json()) == PRINCIPAL_DIGESTS[cell]


def test_d_numerators_for_two_and_three_markings():
    # the closed forms of the d_value docstring: (2k+1) N = P psi_(n-1) for
    # the numerator N = D C(B, 2k+1), with P = -2k(2l_2-1) for n = 2 and the
    # bracket for n = 3, which is D = P / B and D = 2k P / (B)_2; the
    # docstring proves both, and this checks them on the grid {0,1,2} in
    # each of k, l_2 (and l_3)
    for k, l2 in itertools.product(range(3), repeat=2):
        g = k + l2
        w0 = falling_factorial(2 * g + 2 * k + 1, 1)
        assert d_value(g, k, (l2,)) == Fraction(-2 * k * (2 * l2 - 1), w0)
        N = d_value(g, k, (l2,)) * math.comb(2 * g + 2 * k + 1, 2 * k + 1)
        assert (2 * k + 1) * N == -2 * k * (2 * l2 - 1) * _psi(g, k, 1)[1]
    for k, l2, l3 in itertools.product(range(3), repeat=3):
        g, x, y = k + l2 + l3, 2 * l2 + 1, 2 * l3 + 1
        w0 = falling_factorial(2 * g + 2 * k + 2, 2)
        bracket = 2 * k * (x - 2) * (y - 2) + x * y - (x + y - 1) * (x + y - 2)
        assert d_value(g, k, (l2, l3)) == Fraction(2 * k * bracket, w0)
        N = d_value(g, k, (l2, l3)) * math.comb(2 * g + 2 * k + 2, 2 * k + 1)
        assert (2 * k + 1) * N == bracket * _psi(g, k, 2)[2]
        assert bracket % 2 == 1


def _scaled_psi(g, k, m):
    """psi_0..psi_m of D's numerator, each times the same positive rational:
    psi_(s-1) / psi_s = (2g-1+s) / (2k+2-s), so psi_s is proportional to
    prod_(t=s+1..m) (2g-1+t) prod_(t=1..s) (2k+2-t).  The two-part solver and
    the vanishing of the numerator do not see a positive factor, and these
    stay small where the binomials of genus 2000 have thousands of digits."""
    return [
        math.prod(range(2 * g + s, 2 * g + m)) * math.prod(range(2 * k + 2 - s, 2 * k + 2))
        for s in range(m + 1)
    ]


def test_scaled_psi_is_proportional_to_psi():
    for g in range(1, 40):
        for k in range(1, g + 1):
            for m in (1, 2, 3):
                psi, scaled = _psi(g, k, m), _scaled_psi(g, k, m)
                assert all(a * scaled[m] == b * psi[m] for a, b in zip(psi, scaled))


@pytest.mark.slow
def test_n2_never_vanishes_through_genus_2000():
    """n = 2: D's numerator psi_0 - 2l psi_1 is -2k(2l-1) psi_1 / (2k+1),
    never zero for k >= 1 and l = g - k >= 1."""
    for g in range(2, 2001):
        for k in range(1, g):
            psi0, psi1 = 2 * g, 2 * k + 1  # _scaled_psi(g, k, 1)
            l = g - k
            assert (2 * k + 1) * (psi0 - 2 * l * psi1) == -2 * k * (2 * l - 1) * psi1 != 0


def test_n3_never_vanishes_through_genus_1000():
    """n = 3: the two-part solver finds no zero at any (g, k) with
    g <= 1000, over every pair (p, g-k-p) with 1 <= p <= (g-k)//2."""
    zeros, cells = [], 0
    for g in range(3, 1001):
        for k in range(1, g - 1):
            rest = g - k
            psi0, psi1, psi2 = _scaled_psi(g, k, 2)
            cells += rest // 2
            zeros += [(g, k, p) for p in _two_part_zeros(psi0 - 2 * rest * psi1, psi2, 1, rest)]
    assert zeros == []
    assert cells == 83_208_250
