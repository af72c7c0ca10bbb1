"""Acceptance suite: one test per criterion, each printing a pass line.

Everything runs unconditionally; the genus-2 and genus-3 brute-force
instances (marked slow) take seconds each, with a pool of TRR_JOBS workers
(default 2).
"""
import itertools
import json
import os
import random
from fractions import Fraction
from math import factorial

import pytest

from trrkit.numerics import (
    SparsePoly,
    binomial,
    double_factorial,
)
from trrkit import trr
from trrkit.cli import result_digest
from trrkit.pixton import fixed_r_class, monomial_coefficient
from trrkit.stablegraphs import canonical_data, enumerate_stable_graphs
from trrkit.trr import (
    c0_coeff,
    ci_coeff,
    d_value,
    g7_patch,
    principal_part,
    relation_weights,
    scan_zeros,
    verify_lemmas,
)
from oracles import (
    brute_force_stable_graphs,
    graphs_isomorphic,
    relation_integrals,
    witten_kontsevich,
)
from strata_reference import interpolate, multiply
from test_strata import random_element


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def test_criterion_1_zero_scan():
    zeros, cells = scan_zeros(1, 26)
    assert zeros == [(7, 4, 3, (1, 1, 2))]
    assert cells > 0
    report(1, f"scan g=1..26 ({cells} cells): unique zero (7,4,3,(1,1,2))")


def test_criterion_2_genus_35_spot_check():
    assert d_value(35, 22, (11, 1, 1)) == 0
    report(2, "D(35,22,(11,1,1)) = 0 exactly")


def test_criterion_3_closed_form_consistency():
    checked = 0
    for g in range(1, 16):
        for l2 in range(g):
            k = g - l2
            if k < 1:
                continue
            num = 1 - 2 * l2
            assert num % 2 == 1
            assert d_value(g, k, (l2,)) == Fraction(2 * k * num, 2 * g + 1 + 2 * k)
            checked += 1
        for l2 in range(g):
            for l3 in range(g):
                k = g - l2 - l3
                if k < 1:
                    continue
                num = (
                    8 * k * l2 * l3 - 4 * g * l2 - 4 * g * l3 + 4 * l2 * l3 + 2 * k + 1
                )
                assert num % 2 == 1
                assert d_value(g, k, (l2, l3)) == Fraction(
                    2 * k * num, (2 * g + 2 + 2 * k) * (2 * g + 1 + 2 * k)
                )
                checked += 1
    report(3, f"n=2,3 closed forms with odd numerators on {checked} instances (g<=15)")


def test_criterion_4_cancellation_identity():
    rng = random.Random(424242)
    instances = 0
    families = 0
    while instances < 200:
        g = rng.randint(1, 12)
        n = rng.randint(2, min(6, g + 1))
        l = tuple(rng.randint(0, 3) for _ in range(n - 1))
        k = g - sum(l)
        if k < 1:
            continue
        instances += 1
        weights = relation_weights(k, l)
        # target coefficient identity
        total = sum(w * c0_coeff(g, n, l, d) for d, w in weights)
        assert total == c0_coeff(g, n, l, (0,) * (n - 1)) * d_value(g, k, l)
        # cancellation for every admissible (i, l') with k' <= k
        for i in range(2, n + 1):
            others = [j for j in range(2, n + 1) if j != i]
            for lp_others in itertools.product(
                *(range(l[j - 2] + 1) for j in others)
            ):
                for lpi in range(g + 1):
                    lp = [0] * (n - 1)
                    for j, v in zip(others, lp_others):
                        lp[j - 2] = v
                    lp[i - 2] = lpi
                    kp = g - sum(lp)
                    if kp < 0 or kp > k:
                        continue
                    families += 1
                    s = sum(
                        w * ci_coeff(g, n, i, l, tuple(lp), d) for d, w in weights
                    )
                    assert s == 0, (g, n, k, l, i, lp)
    report(4, f"cancellation on 200 random instances ({families} (i,l') families)")


# the default brute-force set; the genus-2 instance is opt-in
BRUTE_FORCE_INSTANCES = [(1, 1, ()), (1, 2, (0,)), (1, 2, (1,)), (1, 2, (2,))]


@pytest.fixture(scope="module")
def brute_force_reports():
    return {(g, n, b): verify_lemmas(g, n, b) for g, n, b in BRUTE_FORCE_INSTANCES}


# StrataElement.digest of the class omega gives, per instance; the genus-3
# digests are pinned in scripts/verify_pipeline.py, which CI runs
OMEGA_DIGESTS = {
    (1, 1, ()): "9ee438f74ab56baf",
    (1, 2, (0,)): "0bae903b4c810642",
    (1, 2, (1,)): "95e4aa15657105be",
    (1, 2, (2,)): "a025a6956b8f46e8",
}
GENUS_2_OMEGA_DIGESTS = {
    (2, 1, ()): "dddbcbe859270bd5",
    (2, 2, (1,)): "5191b906c2b7a2e6",
}


def test_omega_digests_are_pinned(brute_force_reports):
    for key, want in OMEGA_DIGESTS.items():
        assert brute_force_reports[key]["omega_digest"] == want, key
        assert_evaluations_within_the_price(brute_force_reports[key]["meta"])


def assert_evaluations_within_the_price(meta):
    # the guard prices every A-point of the plan (evaluations); a call
    # evaluates only those of the layouts its target reads
    assert 0 < meta["layout_evaluations"] <= meta["evaluations"]


@pytest.mark.slow
@pytest.mark.parametrize("key", list(GENUS_2_OMEGA_DIGESTS))
def test_genus_2_omega_digests_are_pinned(key):
    el, _ = trr.omega(trr.MonomialSpec(*key), allow_large=True)
    assert el.digest() == GENUS_2_OMEGA_DIGESTS[key]


def test_fixed_r_class_through_k4_is_pinned():
    # M-bar_{3,0} in every degree: the K4 graph is the one plan graph whose
    # weighting sums need the reduction's split step; the digest comes from
    # an independent evaluation, a spanning-tree solve of the vertex
    # conditions with a brute-force sum over the free residues
    el = fixed_r_class(3, 0, (), 5, 6)
    assert len(el.terms) == 104
    assert el.digest() == "7c5776c81471d93e"


def test_criterion_5_brute_force_oracle_equivalence(brute_force_reports):
    for key, rep in brute_force_reports.items():
        assert rep["gamma0_match"], key
        for i in range(2, key[1] + 1):
            assert rep[f"gamma{i}_match"], (key, i)
    report(
        5,
        "pipeline matches closed forms on "
        + ", ".join(str(k) for k in brute_force_reports),
    )


LARGE_JOBS = int(os.environ.get("TRR_JOBS", "2"))


@pytest.mark.slow
def test_criterion_5_large_instance():
    rep = verify_lemmas(2, 1, (), allow_large=True, jobs=LARGE_JOBS)
    assert rep["all_match"] and rep["kappa_free"] and rep["boundary_kappa_free"]
    assert_evaluations_within_the_price(rep["meta"])
    report(5, "(2,1,1) pipeline matches closed forms")


@pytest.mark.slow
def test_criterion_5_genus_3_instance():
    rep = verify_lemmas(3, 2, (7,), allow_large=True, jobs=LARGE_JOBS)
    assert rep["all_match"] and rep["kappa_free"] and rep["boundary_kappa_free"]
    assert_evaluations_within_the_price(rep["meta"])
    report(5, "(3,2,(7,)) pipeline matches closed forms")


def test_criterion_6_structural_trr_properties(brute_force_reports):
    for key, rep in brute_force_reports.items():
        assert rep["kappa_free"], key
        assert rep["psi_at_new_leg_zero"], key
        assert rep["boundary_kappa_free"], key
    report(6, "omega kappa-free, psi-degree zero at the new leg, boundary kappa-free")


def test_criterion_7_psi_degree_bound():
    checked = 0
    for g, n, b, d in [
        (1, 2, (2,), 1),
        (1, 2, (2,), 2),
        (1, 2, (4,), 2),
        (1, 3, (2, 2), 1),
        (1, 3, (2, 0), 2),
    ]:
        el, _ = monomial_coefficient(g, n, b, d)
        for dg in el.terms:
            for m in range(2, n + 1):
                assert dg.psi_legs[m - 1] <= b[m - 2] // 2
            checked += 1
        assert not el.has_kappa()
    report(7, f"psi exponent at leg i bounded by b_i/2 on {checked} terms")


def _one_point_gamma(g):
    return Fraction(double_factorial(2 * g + 1) * factorial(4 * g), factorial(2 * g - 1))


def assert_one_point_relation(g, **kwargs):
    # the full relation for psi_1^g is the l = () case: principal part
    # psi_1^g alone over gamma, a nonzero kappa-free boundary, and the
    # rational tail carrying markings {1,2} vanishes before the pushforward
    record = trr.assemble_full_trr(g, g, (), **kwargs)
    assert dict(record.principal.terms) == {(g,): Fraction(1)}
    assert record.provenance["normalization"] == _one_point_gamma(g)
    assert record.boundary is not None and not record.boundary.is_zero()
    assert record.boundary.is_kappa_free_boundary()
    el, _ = trr.omega(trr.MonomialSpec(g, 1, ()), **kwargs)
    assert el.graph_component(trr.rational_tail_graph(g, 2, 1)).is_zero()
    assert_integrates_to_zero(record)


def assert_integrates_to_zero(record):
    # the relation pairs to 0 with every complementary psi monomial, and
    # its principal part alone does not, so the boundary is what cancels
    integrals = relation_integrals(record)
    assert integrals and all(whole == 0 for whole, _ in integrals.values())
    assert any(principal != 0 for _, principal in integrals.values())
    return integrals


def test_witten_kontsevich_anchors():
    assert witten_kontsevich(1, (1,)) == Fraction(1, 24)
    assert witten_kontsevich(2, (4,)) == Fraction(1, 1152)
    assert witten_kontsevich(3, (7,)) == Fraction(1, 82944)
    for g in range(1, 6):
        assert witten_kontsevich(g, (3 * g - 2,)) == Fraction(1, 24**g * factorial(g))


def test_criterion_8_one_marked_point():
    for g in range(1, 6):
        rec = principal_part(g, g, ())
        assert rec.provenance["normalization"] == _one_point_gamma(g)
        assert dict(rec.principal.terms) == {(g,): Fraction(1)}
    assert_one_point_relation(1)
    report(8, "gamma = (2g+1)!!(4g)!/(2g-1)! for g=1..5; brute force confirms g=1")


@pytest.mark.slow
def test_criterion_8_one_marked_point_genus_2():
    assert_one_point_relation(2, allow_large=True, jobs=LARGE_JOBS)
    assert _one_point_gamma(2) == 100800
    report(8, "assemble_full_trr(2,2,()) gives psi_1^2 over gamma = 100800")


def test_criterion_9_g7_patch():
    rep = g7_patch()
    assert rep["D_2_2_1_nonzero"] and rep["D_1_1_1_nonzero"]
    assert rep["ok"]
    rec_a, rec_b = rep["record_psi1_3"], rep["record_psi1_2"]
    assert dict(rec_a.principal.terms) == {(3, 2, 1, 1): Fraction(1)}
    combination = rec_a.provenance["combination"]
    assert combination == {"family": "-192/5", "swapped_family": "128/5"}
    # byte for byte the record_psi1_2 of the hand elimination
    assert result_digest(rec_b.to_json()) == (
        "1e5a96c42005999b0c52234302449829260e91e54125b1e0d35f96fee759c2b0"
    )
    assert rec_b.principal.coefficient((2, 2, 2, 1)) == 1
    report(9, f"combination {combination}, D(7,2,(2,2,1)) = {rep['D_2_2_1']}")


def test_criterion_10_algebra_and_property_suites():
    # stable graph counts against the independent generate-and-filter oracle
    for (g, n), want in [((0, 3), 1), ((1, 1), 2), ((2, 0), 7)]:
        ours = enumerate_stable_graphs(g, n)
        brute = brute_force_stable_graphs(g, n)
        assert len(ours) == len(brute) == want
        for cand in brute:
            assert any(
                graphs_isomorphic(cand, (gr.genera, gr.edges, gr.legs))
                for gr in ours
            )

    # product commutativity and associativity on randomized small elements
    rng = random.Random(1010)
    for g, n in [(1, 1), (1, 2), (0, 4)]:
        for _ in range(4):
            x = random_element(rng, g, n)
            y = random_element(rng, g, n)
            z = random_element(rng, g, n)
            assert multiply(x, y) == multiply(y, x)
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    # Chu-Vandermonde identity grid
    for a in range(31):
        for b in range(31):
            for c in range(31):
                assert sum(
                    binomial(b + n1, n1) * binomial(a - n1, c)
                    for n1 in range(a + 1)
                ) == binomial(a + b + 1, a - c)

    # canonical form under 1000 random relabelings
    pool = []
    for g, n in [(1, 1), (1, 2), (2, 0), (0, 4)]:
        pool.extend(enumerate_stable_graphs(g, n))
    for _ in range(1000):
        gr = rng.choice(pool)
        perm = list(range(gr.num_vertices))
        rng.shuffle(perm)
        genera = [0] * gr.num_vertices
        for v in range(gr.num_vertices):
            genera[perm[v]] = gr.genera[v]
        edges = [(perm[u], perm[w]) for u, w in gr.edges]
        rng.shuffle(edges)
        legs = [perm[v] for v in gr.legs]
        assert canonical_data(genera, edges, legs) == (gr.genera, gr.edges, gr.legs)

    # interpolation stability under added nodes
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
        poly = SparsePoly(("x",), {(i,): c for i, c in enumerate(coeffs) if c})
        for extra in (0, 1, 3):
            nodes = [(t, poly((Fraction(t),))) for t in range(len(coeffs) + extra)]
            assert interpolate(nodes) == poly

    report(10, "graph counts, product laws, Chu-Vandermonde, canonical forms, interpolation")


@pytest.mark.slow
def test_full_relation_assembly_2_1_1():
    # the full relation through the pipeline must reproduce the closed-form
    # principal part exactly, with a kappa-free boundary
    from trrkit.trr import assemble_full_trr

    record = assemble_full_trr(2, 1, (1,), allow_large=True, jobs=LARGE_JOBS)
    assert dict(record.principal.terms) == {
        (1, 1): Fraction(1),
        (2, 0): Fraction(-3),
    }
    assert record.boundary is not None and not record.boundary.is_zero()
    assert record.boundary.is_kappa_free_boundary()
    integrals = assert_integrates_to_zero(record)
    assert integrals[(0, 3)] == (0, Fraction(-1, 80))
    # the record carries the meta of the one walk that gave its shifts
    walk = record.provenance["walk"]
    assert walk["sums_computed"] + walk["sums_reused"] == walk["layout_evaluations"] > 0
    assert json.loads(json.dumps(record.to_json()))["provenance"]["walk"] == walk
    report("5b", "assemble_full_trr(2,1,(1)) matches the closed forms and integrates to 0")


@pytest.mark.slow
def test_genus_3_relations_are_pinned():
    # three more genus-3 relations through the pipeline (the CI workflow
    # assembles (3,1,(2,))): each matches the closed-form principal part,
    # keeps its boundary digest and integrates to 0 against every
    # complementary psi monomial, which its principal part alone does not
    from trrkit.trr import assemble_full_trr

    for (k, l), digest in {
        (3, ()): "7b70dcef4b84bda7",
        (2, (1,)): "89644b7177d5347b",
        (1, (1, 1)): "2e5609abddf0e8e8",
    }.items():
        record = assemble_full_trr(3, k, l, allow_large=True, jobs=LARGE_JOBS)
        assert record.boundary.digest() == digest, (k, l)
        assert_integrates_to_zero(record)
    report(
        "5c",
        "assemble_full_trr(3,3,()), (3,2,(1,)) and (3,1,(1,1)) pinned and integrate to 0",
    )
