import itertools
import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from trrkit import pixton, runtime
from trrkit.cli import main
from trrkit.numerics import (
    binomial,
    lagrange_coefficient_rows,
    lagrange_coefficient_weights,
)
from trrkit.pixton import (
    ComputationGuardError,
    FitInstabilityError,
    _difference_weights,
    _dot,
    _leg_exponents,
    check_avector,
    constant_term_class,
    fixed_r_class,
    monomial_coefficient,
    weighting_power_sums,
)
from trrkit.stablegraphs import automorphism_count, enumerate_stable_graphs, make_graph
from trrkit.strata import StrataElement
from oracles import enumerate_weightings, fixed_r_class_direct, forget_with_psi
from strata_reference import interpolate


@pytest.fixture
def fresh_sums():
    """The store of checked constant terms per layout, empty before and
    after the test: every weighting sum the test reads is computed by the
    test's own ``weighting_power_sums``, and no sum it corrupts outlives
    it."""
    pixton._checked_columns.cache_clear()
    yield pixton._checked_columns
    pixton._checked_columns.cache_clear()


def test_avector_validation():
    assert check_avector((3, -1, -2)) == (3, -1, -2)
    with pytest.raises(ValueError):
        check_avector((1, 1))


def test_weighting_examples():
    triv = make_graph([2], [], [0, 0])
    assert len(list(enumerate_weightings(triv, (5, -5), 7))) == 1
    loop = make_graph([0], [(0, 0)], [0])
    assert len(list(enumerate_weightings(loop, (0,), 5))) == 5
    tree = make_graph([1, 1], [(0, 1)], [0, 1])
    ws = list(enumerate_weightings(tree, (2, -2), 9))
    assert len(ws) == 1
    # the edge residues are forced by the vertex conditions
    (w,) = ws
    assert (w[("edge", 0, 0)] + w[("edge", 0, 1)]) % 9 == 0


def test_weightings_satisfy_conditions_and_count():
    for g, n, a in [(1, 1, (0,)), (1, 2, (3, -3)), (2, 0, ()), (1, 3, (1, 2, -3))]:
        for graph in enumerate_stable_graphs(g, n):
            for r in range(2, 8):
                count = 0
                for w in enumerate_weightings(graph, a, r):
                    count += 1
                    for m in range(1, n + 1):
                        assert w[("leg", m)] == a[m - 1] % r
                    for k in range(graph.num_edges):
                        assert (w[("edge", k, 0)] + w[("edge", k, 1)]) % r == 0
                    for v in range(graph.num_vertices):
                        total = 0
                        for m, vv in enumerate(graph.legs, start=1):
                            if vv == v:
                                total += w[("leg", m)]
                        for k, (x, y) in enumerate(graph.edges):
                            if x == v:
                                total += w[("edge", k, 0)]
                            if y == v:
                                total += w[("edge", k, 1)]
                        assert total % r == 0
                assert count == r ** graph.h1()


def test_power_sums_match_enumeration():
    # asymmetric profiles included: the cached sums are tied to the edge
    # order, so a unit exponent is placed on each edge in turn; both moduli
    # come from one call, one entry of each tuple per modulus; the genus-3
    # graphs include h1 = 3
    rs = (5, 7)
    cases = [(1, 2, (3, -3), 3), (2, 0, (), 3), (2, 2, (5, -5), 3), (3, 0, (), 4)]
    for g, n, a, max_edges in cases:
        for graph in enumerate_stable_graphs(g, n, max_edges=max_edges):
            if graph.num_edges:
                _check_power_sums(graph, a, rs)


def _unit_profiles(E):
    """The zero profile and a unit exponent on each edge in turn."""
    return [(0,) * E] + [tuple(int(j == k) for j in range(E)) for k in range(E)]


def _leg_sums(graph, a):
    """The leg sum A_v of the leg values ``a`` at each vertex v."""
    A = [0] * graph.num_vertices
    for v, value in zip(graph.legs, a):
        A[v] += value
    return tuple(A)


def _class_entries(plan):
    """The (graph, edge-list id, rows, decorated, den) entries of a class
    plan, out of their leg map groups."""
    return [entry for _, entries in plan[0] for entry in entries]


def _check_power_sums(graph, a, rs):
    """weighting_power_sums against the sum over every weighting found by
    trying all edge residues, for the unit profiles."""
    profiles = _unit_profiles(graph.num_edges)
    sums = weighting_power_sums(graph.edges, _leg_sums(graph, a), rs, profiles)
    assert set(sums) == set(profiles)
    assert all(len(sums[profile]) == len(rs) for profile in profiles)
    for j, r in enumerate(rs):
        weightings = list(enumerate_weightings(graph, a, r))
        for profile in profiles:
            direct = 0
            for w in weightings:
                prod = 1
                for k, m in enumerate(profile):
                    prod *= (w[("edge", k, 0)] * w[("edge", k, 1)]) ** (m + 1)
                direct += prod
            assert sums[profile][j] == direct, (graph, profile, r)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_power_sums_on_k4_match_enumeration():
    # K4 is the smallest graph that no series, parallel or leaf step
    # reduces, so its sums run over one edge's residue first; the second
    # graph puts leg values on it, so the split moves nonzero constants
    _check_power_sums(make_graph([0, 0, 0, 0], K4_EDGES, []), (), (3, 4, 5))
    _check_power_sums(make_graph([0, 0, 0, 0], K4_EDGES, [0, 1]), (2, -2), (3, 4, 5))
    # K_{3,3} less one edge reduces to K4, so its sums split twice
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    _check_power_sums(make_graph([0] * 6, k33, [0, 3]), (1, -1), (3,))


def test_fixed_r_unit_examples():
    el = fixed_r_class(0, 3, (0, 0, 0), 5, 0)
    assert el == StrataElement.unit(0, 3)
    # degree cap zero always yields the unit class
    for g, n, a, r in [(1, 2, (3, -3), 5), (2, 1, (0,), 3), (0, 4, (1, 1, -1, -1), 6)]:
        assert fixed_r_class(g, n, a, r, 0) == StrataElement.unit(g, n)
    for g, n, a, r in [(1, 1, (0,), 4), (1, 2, (2, -2), 7)]:
        el = fixed_r_class(g, n, a, r, 3 * g - 3 + n)
        assert el.degree_component(0) == StrataElement.unit(g, n)


def test_fixed_r_loop_coefficient_matches_direct_sum():
    # direct graph-sum oracle on (1,1): the loop term in degree one is
    # (1/#Aut)(1/r) sum_f f(r-f)/2 = (r^2-1)/24
    loop = make_graph([0], [(0, 0)], [0])
    for r in (3, 4, 5, 9):
        direct = Fraction(sum(f * (r - f) for f in range(r)), 2 * 2 * r)
        el = fixed_r_class(1, 1, (0,), r, 1)
        loop_part = el.graph_component(loop)
        ((dg, coeff),) = loop_part.terms.items()
        assert coeff == direct == Fraction(r * r - 1, 24)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fixed_r_class_matches_the_direct_graph_sum(data):
    # the oracle sums Pixton's formula graph by graph and weighting by
    # weighting, exactly, in every degree up to the dimension, keeping room
    # for one unit of psi at each survivor leg as the class plan does
    g, n = data.draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (0, 5)]), label="(g, n)")
    rest = data.draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1), label="a")
    a = (-sum(rest), *rest)
    r = data.draw(st.integers(1, 7), label="r")
    dmax = data.draw(st.integers(0, 3 * g - 3 + n), label="dmax")
    survivors = data.draw(st.frozensets(st.integers(1, n)), label="survivors")
    assert fixed_r_class(g, n, a, r, dmax, survivors) == fixed_r_class_direct(
        g, n, a, r, dmax, survivors
    )


def test_survivor_classes_match_the_direct_graph_sum():
    # the survivor path against the oracle where the survivors drop terms:
    # 57 of the 72 terms of (2,2) in degree 3 keep room at leg 1, and 5 of
    # the 82 of (1,3) keep room at legs 2 and 3
    for g, n, a, r, dmax, survivors, counts in [
        (2, 2, (2, -2), 4, 3, frozenset({1}), (57, 72)),
        (1, 3, (3, -1, -2), 5, 3, frozenset({2, 3}), (5, 82)),
    ]:
        el = fixed_r_class(g, n, a, r, dmax, survivors)
        assert el == fixed_r_class_direct(g, n, a, r, dmax, survivors)
        assert (len(el.terms), len(fixed_r_class(g, n, a, r, dmax).terms)) == counts


def test_survivor_legs_outside_one_to_n_are_refused(monkeypatch):
    # a survivor names a marking 1..n: 0 and -1 would reserve room at the
    # vertex of leg n or n - 1 and 5 is past the legs, so each is refused
    # before any plan is built
    def never(*args):
        raise AssertionError("planned")

    g, n, a, d = 1, 3, (1, 2, -3), 2
    monkeypatch.setattr(pixton, "_class_plan", never)
    for survivors in ({0}, {-1}, {5}, {1, 4}):
        with pytest.raises(ValueError, match=r"survivor legs must lie in 1\.\.3"):
            constant_term_class(g, n, a, d, survivors=frozenset(survivors))
        with pytest.raises(ValueError, match=r"survivor legs must lie in 1\.\.3"):
            fixed_r_class(g, n, a, 7, d, frozenset(survivors))
    monkeypatch.undo()
    el, _ = constant_term_class(g, n, a, d, survivors=frozenset({1, 3}))
    assert el.degree_component(0) == StrataElement.unit(g, n)


def test_constant_term_examples_and_stability():
    el, meta = constant_term_class(1, 1, (0,), 1)
    loop = make_graph([0], [(0, 0)], [0])
    ((_, coeff),) = el.graph_component(loop).terms.items()
    assert coeff == Fraction(-1, 24)
    assert el.degree_component(0) == StrataElement.unit(1, 1)
    assert meta["r_nodes"] == list(range(meta["r0"], meta["r0"] + 2 * 1 + 3))
    # moving the nodes up does not change the answer
    for shift in (5, 13):
        el2, _ = constant_term_class(1, 1, (0,), 1, r0=meta["r0"] + shift)
        assert el2 == el


@pytest.mark.parametrize(
    "g, n, a, dmax, survivors",
    [
        (1, 1, (0,), 1, ()),
        (1, 2, (3, -3), 2, ()),
        (1, 3, (2, 1, -3), 2, (3,)),
        (0, 5, (1, 2, -3, 4, -4), 2, (4, 5)),
        (2, 1, (0,), 2, ()),
    ],
)
def test_constant_term_matches_interpolated_fixed_r(g, n, a, dmax, survivors):
    # independent path: fixed-r classes at the first 2*dmax + 1 returned
    # nodes, interpolated key by key by Newton's divided differences
    el, meta = constant_term_class(g, n, a, dmax, survivors=frozenset(survivors))
    nodes = meta["r_nodes"][: 2 * dmax + 1]
    samples = [fixed_r_class(g, n, a, r, dmax, frozenset(survivors)).terms for r in nodes]
    keys = set().union(*samples)
    assert keys and set(el.terms) <= keys
    for key in keys:
        poly = interpolate([(r, s.get(key, 0)) for r, s in zip(nodes, samples)], "r")
        assert el.terms.get(key, 0) == poly((Fraction(0),)), key


@settings(max_examples=60, deadline=None)
@given(
    dmax=st.integers(0, 3),
    r0=st.integers(1, 60),
    coeffs=st.lists(st.integers(-10**6, 10**6), min_size=7, max_size=7),
    extra=st.integers(-50, 50).filter(bool),
)
def test_zero_weights_and_held_out_differences(dmax, r0, coeffs, extra):
    count = 2 * dmax + 1
    nodes = [r0 + t for t in range(count + 2)]
    rows, den = lagrange_coefficient_rows(nodes[:count])
    weights = rows[0]
    diff = _difference_weights(count)
    p = coeffs[:count]  # degree <= 2*dmax

    def values(poly):
        return [sum(c * r**i for i, c in enumerate(poly)) for r in nodes]

    ys = values(p)
    assert Fraction(_dot(weights, ys), den) == p[0]
    assert _dot(diff, ys) == 0 and _dot(diff, ys[1:]) == 0
    # one degree too many shows up in both held-out differences
    ys = values(p + [extra])
    assert _dot(diff, ys) != 0 and _dot(diff, ys[1:]) != 0


def test_degree_above_the_bound_raises(monkeypatch, capsys, fresh_sums):
    # one profile's power sum gains r^(2 dmax + 1 + h1) at every node; after
    # the factor r^(-h1) its coefficients are one degree above the bound
    real = pixton.weighting_power_sums
    dmax = 1

    def patched(edges, leg_sums, rs, profiles):
        sums = dict(real(edges, leg_sums, rs, profiles))
        profile = min(sums)
        h1 = len(edges) - len(leg_sums) + 1
        sums[profile] = tuple(s + r ** (2 * dmax + 1 + h1) for s, r in zip(sums[profile], rs))
        return sums

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    with pytest.raises(FitInstabilityError):
        constant_term_class(1, 1, (0,), dmax)
    # the A-point path checks every point, not the weighted sum over points
    with pytest.raises(FitInstabilityError):
        monomial_coefficient(1, 2, (2,), dmax)
    for argv in (
        ["pixton", "--g", "1", "--n", "1", "--a", "0", "--degree", str(dmax)],
        ["pixton", "--g", "1", "--n", "2", "--b-exponents", "2", "--degree", str(dmax)],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "Traceback" not in err and err.count("\n") == 1, argv


def test_held_out_a_point_off_the_polynomial_raises(monkeypatch, capsys, fresh_sums):
    # every sum gains r^h1 where a vertex leg sum takes the value D + 1
    # (leg 1's vertex takes -|A|), which happens only at the points
    # (D+1) e_i of the layer |A| = D + 1: a constant in r, so both held-out
    # r nodes pass there, but the samples are no longer a polynomial of
    # degree <= D in the vertex leg sums
    real = pixton.weighting_power_sums
    d = 1
    held_out = 2 * d + 1

    def patched(edges, leg_sums, rs, profiles):
        sums = real(edges, leg_sums, rs, profiles)
        if held_out not in leg_sums:
            return sums
        h1 = len(edges) - len(leg_sums) + 1
        return {
            profile: tuple(s + r**h1 for s, r in zip(psums, rs))
            for profile, psums in sums.items()
        }

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    with pytest.raises(FitInstabilityError, match="vertex leg sums"):
        monomial_coefficient(1, 3, (2, 0), d)
    code = main(["pixton", "--g", "1", "--n", "3", "--b-exponents", "2,0", "--degree", str(d)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1


def test_off_axis_layer_point_off_the_polynomial_raises(monkeypatch, fresh_sums):
    # every sum gains r^h1 at the layer points with positive leg sums 1 and
    # D at two vertices, in vertex order, such as A = (1, D): no leg sum
    # reaches D + 1 there, so only the layer checks off the axes see it
    real = pixton.weighting_power_sums
    d = 2
    degree = 2 * d
    hits = []

    def patched(edges, leg_sums, rs, profiles):
        sums = real(edges, leg_sums, rs, profiles)
        if [v for v in leg_sums if v > 0] != [1, degree]:
            return sums
        hits.append(leg_sums)
        h1 = len(edges) - len(leg_sums) + 1
        return {
            profile: tuple(s + r**h1 for s, r in zip(psums, rs))
            for profile, psums in sums.items()
        }

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    with pytest.raises(FitInstabilityError, match="vertex leg sums"):
        monomial_coefficient(0, 5, (2, 2, 0, 0), d)
    assert hits and all(max(leg_sums) == degree for leg_sums in hits)


def test_repeated_monomial_coefficient_only_hits_the_sampling_caches():
    # the simplex tables, the group weights and the placed weights are built
    # by the first call; a second call, planning again, reads the tables and
    # every placed weight from their caches, so it misses no weight and
    # never reaches the group weights; a third, on the cached plan, whose
    # layouts carry their points and check rows, reads no table at all and
    # again every placed weight from its cache
    caches = (pixton._simplex_tables, pixton._group_weights, pixton._placed_weights)
    for cache in caches:
        cache.cache_clear()
    pixton._monomial_plan.cache_clear()
    args = (1, 2, (2,), 2)
    first, _ = monomial_coefficient(*args, forget=2)
    built = [cache.cache_info() for cache in caches]
    assert all(info.misses > 0 for info in built)
    pixton._monomial_plan.cache_clear()
    again, _ = monomial_coefficient(*args, forget=2)
    replanned = [cache.cache_info() for cache in caches]
    for before, after in zip(built, replanned):
        assert after.misses == before.misses and after.currsize == before.currsize
    assert replanned[0].hits > built[0].hits and replanned[1] == built[1]
    assert replanned[2].hits > built[2].hits
    assert again == first and not first.is_zero()
    third, _ = monomial_coefficient(*args, forget=2)
    tables, group, placed = (cache.cache_info() for cache in caches)
    assert tables == replanned[0] and group == built[1]
    assert placed.misses == built[2].misses and placed.hits > replanned[2].hits
    assert third == first


def _layout(graph):
    """The layout of a monomial plan graph with no legs to forget: its edge
    list, vertex count, leg 1's vertex and the vertices of its leg
    partition's parts, in order."""
    legs = graph.legs
    parts = pixton._leg_partition(legs)
    return graph.edges, graph.num_vertices, legs[0], tuple(legs[ms[0] - 1] for ms in parts)


def _placed_legs(graph, parts, vertices, forget):
    """The leg map of ``graph`` with ``forget`` more legs, placed as the leg
    partition ``parts`` on the part ``vertices`` says: on the vertex of their
    part, or on leg 1's vertex where they are in none."""
    placed = list(graph.legs) + [graph.legs[0]] * forget
    for ms, v in zip(parts, vertices):
        for m in ms:
            placed[m - 1] = v
    return tuple(placed)


def _placed_leg_sums(legs, V, a):
    """The vertex leg sums of the leg values ``a`` on the leg map ``legs``."""
    A = [0] * V
    for v, value in zip(legs, a):
        A[v] += value
    return tuple(A)


def _simplex_leg_vectors(parts, n, degree):
    """The leg vectors of the simplex points of a graph with leg partition
    ``parts``: A_i on the lowest leg of part i, 0 on every other leg >= 2
    and a_1 = -sum(A)."""
    vectors = []
    for A in pixton._simplex_tables(len(parts), degree)[0]:
        a = [0] * n
        for ms, v in zip(parts, A):
            a[ms[0] - 1] = v
        a[0] = -sum(A)
        vectors.append(tuple(a))
    return vectors


def _lemma_targets(g, ns):
    """The monomial coefficients :func:`trrkit.trr.omega` takes for the
    monomials of genus g in ``ns`` (n, exponents) pairs, as (plan, args,
    forget, exponents): the coefficient on (g, n + 1) in degree g + 1 of b
    followed by a 1, forgetting N - n - 1 legs, N = n + 2g + 2 - |b|; the
    exponents are those the plan's weights read, the forgotten legs' ones
    included."""
    targets = []
    for n, b in ns:
        forget = 2 * g + 1 - sum(b)
        args = (g, n + 1, tuple(b) + (1,), g + 1)
        plan = pixton._monomial_plan(g, n + 1, g + 1, (forget,))[0]
        targets.append((plan, args, forget, args[2] + (1,) * forget))
    return targets


def _read_profiles(plan, exponents, d):
    """The edge profiles that some group weight of the target reads, per
    layout key of the plan, for the layouts that read any: the layouts a
    walk for the target reads, each for every one of its profiles."""
    read = {}
    for key, *_, entries in plan:
        edge_profiles = pixton._edge_profiles(len(key[0]), d - len(key[0]))
        profiles = {
            edge_profiles[p]
            for _, (placements,), rows, _, cs, _ in entries
            for p, e, *_ in rows
            if pixton._placed_weights(exponents, d, placements, cs[e]) is not None
        }
        if profiles:
            read[key] = profiles
    return read


def _sampled_layouts(plan, exponents, d):
    """The layouts :func:`pixton._monomial_layouts` yields for the target
    alone, on the plan of its one forget count, each as (plan key, layout),
    given the plan's layouts one at a time."""
    return [
        (layout[0], sampled)
        for layout in plan
        for sampled in pixton._monomial_layouts([layout], ((exponents, 0),), d)
    ]


def test_monomial_plan_is_grouped_by_layout():
    # within a layout every entry has the layout's edge list and leg-1
    # vertex, and each of its placements a leg partition whose parts sit on
    # the layout's vertices, the graph's own legs included; no layout
    # repeats, the layouts are ordered by edge list, every template row
    # kept has degree d, its slots index its graph's distinct decorated
    # graphs and leg exponents, and a layout's points are those of its geometry,
    # one tuple shared by the layouts of one geometry; a call samples, in
    # plan order, exactly the layouts whose group weights read some
    # profile, each item names the target, and the points it samples are,
    # in order, the vertex leg sums of every placement at the leg vectors of
    # its own leg partition; the plans of the genus-1 lemmas hold 70 entries
    # and that of the (2,1,()) comparison 94
    lemmas = [(1, ()), (2, (0,)), (2, (1,)), (2, (2,))]
    for targets, d, want in [
        (_lemma_targets(1, lemmas), 2, 70),
        (_lemma_targets(2, [(1, ())]), 3, 94),
    ]:
        count = 0
        for plan, args, forget, exponents in targets:
            # the census of the cached plan: its entries, their A-points,
            # the most leg sums of a layout and the distinct edge lists
            cached, census = pixton._monomial_plan(args[0], args[1], d, (forget,))
            assert cached is plan and census == (
                sum(len(entries) for *_, entries in plan),
                sum(len(points) * len(entries) for _, (points, _), entries in plan),
                max(len(key[3]) for key, *_ in plan),
                len({key[0] for key, *_ in plan}),
            )
            keys, geometries = set(), {}
            for key, geometry, entries in plan:
                assert key not in keys
                keys.add(key)
                edges, V, first, vertices = key
                assert geometries.setdefault(key[1:], geometry) is geometry
                points, checks = geometry
                simplex, _, layer = pixton._simplex_tables(len(vertices), 2 * d)
                assert points == pixton._layout_points(V, first, vertices, simplex)
                assert checks == tuple(tuple(zip(*row)) for row in layer)
                value = max(abs(x) for point in points for x in point) or 1
                assert (len(points), value) == pixton._monomial_points(len(vertices), 2 * d)
                profiles = pixton._edge_profiles(len(edges), d - len(edges))
                for graph, (placements,), rows, decorated, cs, den in entries:
                    groups = [(profiles[p], cs[e]) for p, e, *_ in rows]
                    assert {slot for *_, slot in rows} == set(range(len(decorated)))
                    assert {e for _, e, *_ in rows} == set(range(len(cs)))
                    assert (graph.edges, graph.num_vertices, graph.legs[0]) == key[:3]
                    assert graph.h1() == len(edges) - V + 1 and placements
                    for coefficient, parts in placements:
                        legs = _placed_legs(graph, parts, vertices, forget)
                        assert coefficient >= 1 and legs[: graph.n] == graph.legs
                        assert pixton._leg_partition(legs) == parts
                    assert all(graph.num_edges + sum(p) + sum(c) == d for p, c in groups)
                    assert {p for p, _ in groups} <= set(profiles)
            edges = [key[0] for key, *_ in plan]
            assert edges == sorted(edges)
            count += sum(len(entries) for *_, entries in plan)
            sampled = _sampled_layouts(plan, exponents, d)
            read = _read_profiles(plan, exponents, d)
            assert sampled and [key for key, _ in sampled] == list(read)
            whole = list(pixton._monomial_layouts(plan, ((exponents, 0),), d))
            assert whole == [layout for _, layout in sampled]
            assert {t for *_, weighted in whole for t, *_ in weighted} == {0}
            layouts = {key: (points, entries) for key, (points, _), entries in plan}
            for key, (layout_key, leg_sums, *_) in sampled:
                points, entries = layouts[key]
                assert layout_key == key and leg_sums == points
                for graph, (placements,), *_ in entries:
                    for _, parts in placements:
                        legs = _placed_legs(graph, parts, key[3], forget)
                        vectors = _simplex_leg_vectors(parts, len(legs), 2 * d)
                        assert [_placed_leg_sums(legs, key[1], a) for a in vectors] == list(leg_sums)
        assert count == want


def test_one_plan_serves_every_forget_count():
    # the plan of the forget counts 0, 1 and 2 on the graphs of (1,3) in
    # degree 2, those of the lemmas (1,2,(2,)), (1,2,(1,)) and (1,2,(0,)),
    # holds at each count's slot exactly the entries of that count's own
    # plan, with their placements, templates and dens, in order within
    # each layout; the layouts are ordered by edge list, the templates
    # of a graph are built once for every count, equal placements are one
    # object, and a walk of one target per count weighs equal (placements,
    # leg exponents) pairs, and only those, once: one _placed_weights miss
    # per distinct pair of a target, none when the walk is repeated
    g, n, d, forgets = 1, 3, 2, (0, 1, 2)
    plan, _ = pixton._monomial_plan(g, n, d, forgets)
    edges = [key[0] for key, *_ in plan]
    assert edges == sorted(edges)
    walk = (((2, 1), 0), ((1, 1, 1), 1), ((0, 1, 1, 1), 2))
    groups_of, interned, pairs = {}, {}, set()
    for _, _, entries in plan:
        for graph, placed, *templates, _ in entries:
            built = groups_of.setdefault(graph, templates)
            assert all(x is y for x, y in zip(built, templates)) and any(placed)
            for (exponents, _), placements in zip(walk, placed):
                assert interned.setdefault(placements, placements) is placements
                if placements:
                    pairs.update((exponents, placements, c) for c in templates[2])
    pixton._placed_weights.cache_clear()
    walked = list(pixton._monomial_layouts(plan, walk, d))
    assert {t for *_, weighted in walked for t, *_ in weighted} == {0, 1, 2}
    info = pixton._placed_weights.cache_info()
    assert info.misses == info.currsize == len(pairs) < info.misses + info.hits
    assert list(pixton._monomial_layouts(plan, walk, d)) == walked
    assert pixton._placed_weights.cache_info().misses == len(pairs)
    for slot, forget in enumerate(forgets):
        own, _ = pixton._monomial_plan(g, n, d, (forget,))
        layouts = {
            key: (geometry, [(graph, placed[slot], *rest)
                             for graph, placed, *rest in entries if placed[slot]])
            for key, geometry, entries in plan
        }
        want = {
            key: (geometry, [(graph, placed, *rest) for graph, (placed,), *rest in entries])
            for key, geometry, entries in own
        }
        assert {key: layout for key, layout in layouts.items() if layout[1]} == want
    assert len(groups_of) == len(enumerate_stable_graphs(g, n, d))


def test_evaluations_count_the_sampled_a_points(monkeypatch, fresh_sums):
    # one cached constant term per A-point of every layout the target
    # reads, and one weighting_power_sums call per distinct key: the plan
    # of (1,3) with one leg to forget has seven entries of six graphs in
    # five layouts, since the one-edge tree with every leg on its genus-0
    # vertex has two part-vertex sets, and its entry with the forgotten leg
    # on the genus-1 vertex shares a layout with the two trees that have
    # leg 2 or leg 3 there (4 A-points); the target's group weights read
    # that one, the one where leg 1 is on the genus-1 vertex
    # (4 A-points) and the one-vertex graph's (1 A-point), so 9 of the
    # plan's 19 A-points are evaluated; the all-zero point of the one-edge
    # trees is met in both of their read layouts, so 8 sums are computed
    real = pixton.weighting_power_sums
    calls, enumerated = [], []

    def counting(edges, leg_sums, rs, profiles):
        calls.append((edges, leg_sums))
        return real(edges, leg_sums, rs, profiles)

    def enumerating(*args, **kwargs):
        enumerated.append((args, kwargs))
        return enumerate_stable_graphs(*args, **kwargs)

    monkeypatch.setattr(pixton, "weighting_power_sums", counting)
    monkeypatch.setattr(pixton, "enumerate_stable_graphs", enumerating)
    pixton._monomial_plan.cache_clear()
    _, meta = monomial_coefficient(1, 3, (0, 1), 1, forget=1)
    plan = pixton._monomial_plan(1, 3, 1, (1,))[0]
    sampled = [
        (key[0], A) for key, (_, leg_sums, *_) in _sampled_layouts(plan, (0, 1, 1), 1)
        for A in leg_sums
    ]
    assert meta["layout_evaluations"] == len(sampled) == 9
    assert meta["sums_computed"] == len(calls) == 8 and meta["sums_reused"] == 1
    assert calls == list(dict.fromkeys(sampled))
    assert meta["evaluations"] == 19
    assert (meta["plan_graphs"], meta["layouts"]) == (7, 3)
    # each read layout's A-points, in plan order, on its edge list
    assert len(plan) == len({key for key, *_ in plan}) == 5
    read = _read_profiles(plan, (0, 1, 1), 1)
    assert meta["layouts"] == len(read)
    assert [edges for edges, _ in sampled] == [
        key[0] for key, (points, _), _ in plan if key in read for _ in points
    ]
    # the plan runs on the graphs of (1,3) alone, never on those of (1,4)
    assert enumerated == [((1, 3), {"max_edges": 1})]
    graphs = {graph for *_, entries in plan for graph, *_ in entries}
    assert len(graphs) == len(enumerate_stable_graphs(1, 3, 1)) == 6


def test_a_sum_off_the_fit_raises_every_time_and_is_not_kept(monkeypatch, fresh_sums):
    # the third point the call computes is off the degree bound in r: the
    # first call stores the one-point layout before it, computes the first
    # point of the next layout, (0, 0), and raises at the second; the
    # second call reads the stored layout, computes both points of the
    # failing one again and raises again, so nothing was stored for that
    # layout, not even its good point; with the real sums the call then
    # succeeds
    real = pixton.weighting_power_sums
    d, computed = 2, []

    def patched(edges, leg_sums, rs, profiles):
        computed.append((edges, leg_sums))
        sums = real(edges, leg_sums, rs, profiles)
        if len(computed) < 3 or computed[-1] != computed[2]:
            return sums
        power = len(edges) - len(leg_sums) + 1 + 2 * d + 1
        return {
            profile: tuple(s + r**power for s, r in zip(psums, rs))
            for profile, psums in sums.items()
        }

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    for _ in range(2):
        with pytest.raises(FitInstabilityError, match="in r on the nodes"):
            monomial_coefficient(1, 2, (2,), d)
    assert len(computed) == 5 and computed[3:] == computed[1:3]
    info = fresh_sums.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)
    monkeypatch.setattr(pixton, "weighting_power_sums", real)
    el, meta = monomial_coefficient(1, 2, (2,), d)
    assert meta["sums_reused"] >= 1 and fresh_sums.cache_info().currsize > 1
    fresh_sums.cache_clear()
    assert monomial_coefficient(1, 2, (2,), d)[0] == el


def test_a_column_off_the_a_layer_raises_every_time_and_stores_nothing(monkeypatch, fresh_sums):
    # every sum gains r^h1 where a vertex leg sum takes the value D + 1, a
    # constant in r, so every point passes both held-out r nodes, but a
    # layout with such a point fails its layer check: each call stores the
    # layouts it reads before the first failing one, raises there and
    # stores nothing for it, and the next call reads the stored layouts,
    # computes the failing one's points again and raises again; with the
    # real sums the failing layout is stored
    real = pixton.weighting_power_sums
    args = (1, 3, (2, 0), 1)
    held_out = 2 * args[3] + 1
    calls = []

    def patched(edges, leg_sums, rs, profiles):
        calls.append((edges, leg_sums))
        sums = real(edges, leg_sums, rs, profiles)
        if held_out not in leg_sums:
            return sums
        h1 = len(edges) - len(leg_sums) + 1
        return {
            profile: tuple(s + r**h1 for s, r in zip(psums, rs))
            for profile, psums in sums.items()
        }

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    stored = []
    for _ in range(2):
        before = len(calls)
        with pytest.raises(FitInstabilityError, match="vertex leg sums"):
            monomial_coefficient(*args)
        stored.append((dict(fresh_sums), calls[before:]))
    (first, first_calls), (second, second_calls) = stored
    assert first and first == second and fresh_sums.cache_info().hits == len(first)
    assert any(held_out in A for _, A in second_calls)
    assert set(second_calls) < set(first_calls)
    plan = pixton._monomial_plan(1, 3, 1, (0,))[0]
    points = {key: points for key, (points, _), _ in plan}
    assert all(held_out not in A for key, *_ in first for A in points[key])
    monkeypatch.setattr(pixton, "weighting_power_sums", real)
    monomial_coefficient(*args)
    assert any(held_out in A for key, *_ in fresh_sums for A in points[key])


def test_a_warm_lemma_pass_makes_one_store_lookup_per_layout(monkeypatch, fresh_sums):
    # once the four genus-1 lemma omega calls have run, a second pass finds
    # every layout it reads in the store, one lookup each, and never
    # reaches the weighting sums; the calls share layouts (equal key, r
    # nodes and degree), so the first pass stores fewer than it reads
    from trrkit.trr import MonomialSpec, omega

    monos = [MonomialSpec(1, n, b) for n, b in [(1, ()), (2, (0,)), (2, (1,)), (2, (2,))]]
    first = [omega(mono) for mono in monos]
    layouts = sum(meta["layouts"] for _, meta in first)
    # the calls read 26 layouts, 11 distinct ones, each stored once
    assert fresh_sums.cache_info() == (15, 11, None, 11) and layouts == 26

    def never(*args):
        raise AssertionError("a weighting sum was computed")

    monkeypatch.setattr(pixton, "weighting_power_sums", never)
    before = fresh_sums.cache_info()
    again = [omega(mono) for mono in monos]
    after = fresh_sums.cache_info()
    assert (after.hits - before.hits, after.misses, after.currsize) == (layouts, 11, 11)
    assert [el for el, _ in again] == [el for el, _ in first]


@pytest.mark.slow
def test_a_repeated_genus_three_omega_computes_no_sum(monkeypatch, fresh_sums):
    # the (3,1,()) comparison reads 26,286 distinct point keys at 48,256
    # A-points of its 646 layouts, each point computed once in the walk: a
    # second call in the same process finds every layout in the store, one
    # lookup each, and computes no sum
    from trrkit.trr import MonomialSpec, omega

    real = pixton.weighting_power_sums
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(pixton, "weighting_power_sums", counting)
    mono = MonomialSpec(3, 1, ())
    first, meta = omega(mono, allow_large=True)
    assert len(calls) == meta["sums_computed"] == 26_286 and meta["sums_reused"] == 21_970
    assert fresh_sums.cache_info() == (0, 646, None, 646) and meta["layouts"] == 646
    again, meta = omega(mono, allow_large=True)
    assert len(calls) == 26_286 and (meta["sums_computed"], meta["sums_reused"]) == (0, 48_256)
    assert fresh_sums.cache_info() == (646, 646, None, 646)
    assert again == first and first.digest() == "b48fbc8c2008124d"


def test_a_second_lemma_pass_weighs_nothing(fresh_sums):
    # the four genus-1 lemma omega calls, made twice in one process: the
    # second pass gives equal classes and equal meta, except that every
    # constant term is read from the cache, and it misses neither the
    # placed weights nor the group weights, so it weighs nothing
    from trrkit.trr import MonomialSpec, omega

    monos = [MonomialSpec(1, n, b) for n, b in [(1, ()), (2, (0,)), (2, (1,)), (2, (2,))]]
    first = [omega(mono) for mono in monos]
    caches = (pixton._placed_weights, pixton._group_weights)
    misses = [cache.cache_info().misses for cache in caches]
    for mono, (el, meta) in zip(monos, first):
        again, again_meta = omega(mono)
        assert again == el and not el.is_zero()
        assert again_meta == dict(meta, sums_computed=0, sums_reused=meta["layout_evaluations"])
    assert [cache.cache_info().misses for cache in caches] == misses
    # one placement with coefficient 1 gives the group weights' own tuple,
    # not a copy
    exponents, d = (2, 1), 2
    same = 0
    for *_, entries in pixton._monomial_plan(1, 3, d, (0,))[0]:
        for _, (placements,), _, _, cs, _ in entries:
            ((coefficient, parts),) = placements
            assert coefficient == 1
            for c in cs:
                weights = pixton._placed_weights(exponents, d, placements, c)
                assert weights is pixton._group_weights(exponents, d, parts, c)
                same += weights is not None
    assert same
    # placements of forgotten legs that scale or sum weights give tuples too
    summed = 0
    ((plan, _, _, exponents),) = _lemma_targets(1, [(2, (0,))])
    for *_, entries in plan:
        for _, (placements,), _, _, cs, _ in entries:
            for c in cs:
                weights = pixton._placed_weights(exponents, d, placements, c)
                assert weights is None or type(weights) is tuple
                summed += weights is not None and placements[0][0] * len(placements) > 1
    assert summed


@pytest.mark.parametrize("layer_only", [False, True])
def test_a_shared_layout_is_checked(monkeypatch, layer_only, fresh_sums):
    # a layout's points reach weighting_power_sums once for all its entries,
    # which read its checked column: a sum off the degree bound in r, or on
    # the layer |A| = D + 1 only off the polynomial in the leg sums, at the
    # points of a layout three entries share raises (the all-zero point,
    # which every layout of its edge list has, is left alone)
    args, forget = (1, 3, (0, 1), 1), 1
    exponents = args[2] + (1,)
    plan = pixton._monomial_plan(1, 3, 1, (forget,))[0]
    (shared,) = [key for key, *_, entries in plan if len(entries) > 1]
    points = {
        key: {(key[0], A) for A in leg_sums}
        for key, (_, leg_sums, *_) in _sampled_layouts(plan, exponents, args[3])
    }
    own = points.pop(shared).difference(*points.values())
    real = pixton.weighting_power_sums
    d, hits = args[3], []

    def patched(edges, leg_sums, rs, profiles):
        sums = real(edges, leg_sums, rs, profiles)
        if (edges, leg_sums) not in own or layer_only and 2 * d + 1 not in leg_sums:
            return sums
        hits.append(leg_sums)
        power = len(edges) - len(leg_sums) + 1 + (0 if layer_only else 2 * d + 1)
        return {
            profile: tuple(s + r**power for s, r in zip(psums, rs))
            for profile, psums in sums.items()
        }

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    match = "vertex leg sums" if layer_only else "in r on the nodes"
    with pytest.raises(FitInstabilityError, match=match):
        monomial_coefficient(*args, forget=forget)
    assert hits


@pytest.mark.parametrize("ns, count", [((1, ()), 7), ((2, (1,)), 52)])
def test_power_sums_calls_get_every_profile_of_each_read_layout(
    monkeypatch, ns, count, fresh_sums
):
    # at the coefficients omega takes for (1,1,()) and (1,2,(1,)), each
    # cached constant term is at an A-point of a layout that some group
    # weight of the target reads, and gets every edge profile of its edge
    # list, read or not; no other layout is evaluated, and
    # weighting_power_sums computes each distinct key once, at its first
    # A-point
    ((plan, args, forget, exponents),) = _lemma_targets(1, [ns])
    d = args[3]
    read = _read_profiles(plan, exponents, d)
    want = []
    for key, *_, entries in plan:
        if key in read:
            graph, (((_, parts), *_),), *_ = entries[0]
            legs = _placed_legs(graph, parts, key[3], forget)
            profiles = pixton._edge_profiles(len(key[0]), d - len(key[0]))
            for a in _simplex_leg_vectors(parts, len(legs), 2 * d):
                want.append((key[0], _placed_leg_sums(legs, key[1], a), profiles))
    real = pixton.weighting_power_sums
    calls = []

    def recording(edges, leg_sums, rs, profiles):
        calls.append((edges, leg_sums, tuple(profiles)))
        return real(edges, leg_sums, rs, profiles)

    monkeypatch.setattr(pixton, "weighting_power_sums", recording)
    _, meta = monomial_coefficient(*args, forget=forget)
    assert calls == list(dict.fromkeys(want)) and len(want) == meta["layout_evaluations"] == count
    assert meta["sums_computed"] == len(calls) and len(calls) + meta["sums_reused"] == count
    assert meta["layouts"] == len(read) < len(plan)


@pytest.mark.parametrize("layer_only", [False, True])
def test_an_unread_column_of_a_read_layout_is_checked(monkeypatch, layer_only, fresh_sums):
    # at the coefficient omega takes for (1,2,(1,)), the group weights of the
    # layout of one-edge graphs with leg 1 at vertex 0 and the leg sums at
    # vertex 1 read the profile (0,) and not (1,); the layout is read, so
    # its (1,) column is computed and checked too: that column off the
    # degree bound in r, or on the layer |A| = D + 1 only off the polynomial
    # in the leg sums, raises although no weight reads it
    ((plan, args, forget, exponents),) = _lemma_targets(1, [(2, (1,))])
    d = args[3]
    read = _read_profiles(plan, exponents, d)
    (skipping,) = [
        key
        for key, *_ in plan
        if key in read and read[key] < set(pixton._edge_profiles(len(key[0]), d - len(key[0])))
    ]
    assert skipping == (((0, 1),), 2, 0, (1,)) and read[skipping] == {(0,)}
    points = {
        key: {(key[0], A) for A in leg_sums}
        for key, (_, leg_sums, *_) in _sampled_layouts(plan, exponents, d)
    }
    own = points.pop(skipping).difference(*points.values())
    real = pixton.weighting_power_sums
    hits = []

    def patched(edges, leg_sums, rs, profiles):
        sums = real(edges, leg_sums, rs, profiles)
        if (edges, leg_sums) not in own or layer_only and 2 * d + 1 not in leg_sums:
            return sums
        hits.append(leg_sums)
        power = len(edges) - len(leg_sums) + 1 + (0 if layer_only else 2 * d + 1)
        sums = dict(sums)
        sums[(1,)] = tuple(s + r**power for s, r in zip(sums[(1,)], rs))
        return sums

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    match = "vertex leg sums" if layer_only else "in r on the nodes"
    with pytest.raises(FitInstabilityError, match=match):
        monomial_coefficient(*args, forget=forget)
    assert hits


@pytest.mark.parametrize("first, then", [((1, 2, (0,)), (1, 2, (1,))), ((2, 2, (0,)), (2, 2, (1,)))])
def test_an_omega_after_one_reading_its_layouts_computes_no_sum(first, then, fresh_sums):
    # the store is keyed by layout, r nodes and degree, with every profile
    # of the layout: omega(then) reads only layouts that omega(first) has
    # stored, though its weights read other profiles of some of them, so it
    # finds each in the store and computes no sum
    from trrkit.trr import MonomialSpec, omega

    omega(MonomialSpec(*first), allow_large=True)
    before = fresh_sums.cache_info()
    _, meta = omega(MonomialSpec(*then), allow_large=True)
    assert meta["sums_computed"] == 0 and meta["sums_reused"] == meta["layout_evaluations"]
    assert fresh_sums.cache_info().misses == before.misses


def test_fixed_r_classes_of_two_degrees_share_no_wrong_column(fresh_sums):
    # one modulus does not fix the degree, so the store keys it: the class
    # at dmax 2 after the one at dmax 1, whose one-edge layouts hold only
    # the profile (0,), is the class from an empty store, and so is the
    # class at dmax 1 after that
    g, n, a, r = 1, 2, (1, -1), 5
    first = fixed_r_class(g, n, a, r, 1)
    second = fixed_r_class(g, n, a, r, 2)
    assert not second.degree_component(2).is_zero()
    fresh_sums.cache_clear()
    assert fixed_r_class(g, n, a, r, 2) == second
    fresh_sums.cache_clear()
    assert fixed_r_class(g, n, a, r, 1) == first


def test_placements_multiply_by_the_dilaton_factors():
    # one vertex of genus g with t points (legs and half-edges): s forgotten
    # legs, all on leg 1's vertex, give prod_{j<s} (2g - 2 + t + j)
    for data, factors in [
        (((1,), (), (0,)), [1, 1, 2, 6]),  # 2g - 2 + t = 1
        (((0,), ((0, 0),), (0, 0)), [1, 2, 6, 24]),  # 2
        (((2,), ((0, 0),), (0, 0, 0)), [1, 7, 56, 504]),  # 7
    ]:
        for s, factor in enumerate(factors):
            assert pixton._placements(*data, s) == {(): [(factor, ())]}
    # two genus-1 vertices, leg 1 on vertex 0 (2g - 2 + t = 2) and none on
    # vertex 1 (1): s_0 + s_1 = 3 legs 2, 3, 4 give 3!/(s_0! s_1!) times
    # 2 * ... * (s_0 + 1) times 1 * ... * s_1, the legs on vertex 1 its part
    assert pixton._placements((1, 1), ((0, 1),), (0,), 3) == {
        (): [(24, ())],  # 1 * 2*3*4
        (1,): [
            (18, ((4,),)),  # 3 * 2*3 * 1
            (12, ((3, 4),)),  # 3 * 2 * 1*2
            (6, ((2, 3, 4),)),  # 1 * 1*2*3
        ],
    }
    with pytest.raises(ValueError, match="nonnegative"):
        monomial_coefficient(1, 2, (0,), 1, forget=-1)


def test_monomial_coefficient_trivial_part():
    el, _ = monomial_coefficient(1, 2, (2,), 1)
    want = StrataElement.psi_monomial(1, 2, {1: 1}).scale(
        Fraction(1, 2)
    ) + StrataElement.psi_monomial(1, 2, {2: 1}).scale(Fraction(1, 2))
    assert el == want


def test_monomial_coefficient_unit():
    el, _ = monomial_coefficient(1, 2, (0,), 0)
    assert el == StrataElement.unit(1, 2)


def test_monomial_coefficient_properties():
    # psi-degree bound and kappa-freeness on computed coefficients
    for b, d in [((2,), 1), ((2,), 2), ((4,), 2)]:
        el, _ = monomial_coefficient(1, 2, b, d)
        assert not el.has_kappa()
        for dg in el.terms:
            assert dg.psi_legs[1] <= b[0] // 2


def test_monomial_coefficient_symmetry():
    el12, _ = monomial_coefficient(1, 3, (2, 0), 1)
    el21, _ = monomial_coefficient(1, 3, (0, 2), 1)
    assert el21 == el12.relabel_legs({2: 3, 3: 2})
    sym, _ = monomial_coefficient(1, 3, (2, 2), 1)
    assert sym == sym.relabel_legs({2: 3, 3: 2})


def _symmetrize(el, legs):
    """The average of ``el`` over the permutations of the markings ``legs``."""
    legs = sorted(legs)
    images = list(itertools.permutations(legs))
    total = StrataElement.zero(el.g, el.n)
    for image in images:
        total = total + el.relabel_legs(dict(zip(legs, image)))
    return total.scale(Fraction(1, len(images)))


def _plain_grid(g, n, exponents, d, survivors):
    """The coefficient as a plain weighted grid sum of constant terms over the
    leg values 0..2d of the legs 2..n, one point at a time, on the labelled
    plan."""
    degree = 2 * d
    weights = {
        m: lagrange_coefficient_weights(degree, b)
        for m, b in zip(range(2, n + 1), exponents)
    }
    r0 = 2 * max(degree * (n - 1), degree, 1) * max(d, 1) + 3
    acc = StrataElement.zero(g, n)
    for point in itertools.product(range(degree + 1), repeat=n - 1):
        w = Fraction(1)
        for m, val in zip(range(2, n + 1), point):
            w *= weights[m][val]
        if w == 0:
            continue
        full = (-sum(point),) + point
        sample, _ = constant_term_class(g, n, full, d, r0=r0, survivors=survivors)
        acc = acc + sample.scale(w)
    return acc.degree_component(d)


def test_monomial_coefficient_against_plain_grid():
    # the extraction from the vertex leg sums agrees with a plain weighted
    # grid sum of constant terms over the leg values, one point at a time;
    # with legs to forget, the grid sum is taken on (g, n + forget), with
    # exponent 1 and one unit of psi kept at each of them, multiplied by psi
    # there and pushed forward
    cases = [
        (1, 3, (1, 1), 1, 0),
        (1, 2, (0,), 1, 2),
        (1, 3, (0, 1), 1, 1),
        (1, 4, (2, 0, 0), 2, 0),
        (1, 3, (1, 1), 2, 2),
        (1, 3, (2, 2), 2, 0),
        (2, 3, (2, 2), 2, 0),
        (2, 3, (4, 0), 3, 0),
    ]
    for g, n, exponents, d, forget in cases:
        el, _ = monomial_coefficient(g, n, exponents, d, forget=forget)
        assert not el.is_zero(), exponents
        legs = frozenset(range(n + 1, n + forget + 1))
        grid = _plain_grid(g, n + forget, exponents + (1,) * forget, d, legs)
        assert el == forget_with_psi(grid, n + 1), exponents


def test_layouts_keep_their_leg_sum_vertices_apart():
    # on the chain with edges (0,1), (0,2) and leg 1 at the end vertex 1,
    # the leg sums of legs 2 and 3 sit at vertices (0, 2) in one graph and
    # (2, 0) in another: one edge list, two layouts, two columns, both read
    # (with exponents (2, 2) the target would not tell the two orders apart)
    g, n, exponents, d = 2, 3, (3, 1), 2
    plan = pixton._monomial_plan(g, n, d, (0,))[0]
    read = set()
    for *_, entries in plan:
        for graph, (((_, parts),),), _, _, cs, _ in entries:
            weights = [pixton._group_weights(exponents, d, parts, c) for c in cs]
            if graph.edges == ((0, 1), (0, 2)) and any(w is not None for w in weights):
                read.add(_layout(graph)[2:])
    assert {(1, (0, 2)), (1, (2, 0))} <= read
    el, meta = monomial_coefficient(g, n, exponents, d)
    assert meta["layouts"] < meta["plan_graphs"]
    assert el == _plain_grid(g, n, exponents, d, frozenset())


def test_monomial_coefficient_guard(monkeypatch):
    with pytest.raises(ComputationGuardError):
        monomial_coefficient(2, 7, (1,) * 6, 3)
    with pytest.raises(ValueError):
        monomial_coefficient(1, 2, (2,), 1, jobs=0)
    monkeypatch.setattr(pixton, "COST_BUDGET", 10)
    with pytest.raises(ComputationGuardError):
        monomial_coefficient(1, 2, (2,), 1)


def test_a_degree_above_the_forgotten_dimension_is_zero_unplanned(monkeypatch):
    # the coefficient lands on (g, n) after the legs are forgotten, so a
    # degree above dim(g, n) = 3g - 3 + n gives the zero class before any
    # price or plan: (1,2) has dimension 2, and degree 3 is within that of
    # (1,3), where the legs are placed
    def never(*args):
        raise AssertionError("priced or planned")

    monkeypatch.setattr(pixton, "_check_cost", never)
    monkeypatch.setattr(pixton, "_monomial_plan", never)
    for jobs in (1, 2):
        el, meta = monomial_coefficient(1, 2, (2,), 3, forget=1, jobs=jobs)
        assert el == StrataElement.zero(1, 2) and (el.g, el.n) == (1, 2)
        assert (meta["plan_graphs"], meta["evaluations"], meta["layouts"]) == (0, 0, 0)
        assert (meta["sums_computed"], meta["sums_reused"]) == (0, 0)
    # a degree above the dimension of (g, n + forget) is still refused
    with pytest.raises(ValueError, match="exceeds the dimension 3"):
        monomial_coefficient(1, 2, (2,), 4, forget=1)


def test_cost_guard_admits_the_genus_one_lemmas(monkeypatch):
    # the guard prices each A-point evaluation of the plan, one entry per
    # graph and part-vertex set of its placements, at the modulus and its
    # 2d + 3 r nodes; every genus-1 lemma instance passes the default budget
    # at the price pinned here, and so does (2,1,()) at 596,565, while
    # (2,7,(1,)*6,3), with no legs to forget, is refused as soon as its
    # running price passes the budget (its full price is 1,710,726,885).
    # The sampling itself is stubbed: only the guard runs.
    from trrkit.trr import MonomialSpec, omega

    calls = []

    def no_sampling(args):
        calls.append(args[:3])
        return [{} for _ in args[2]], (0, 0, 0, 0)

    monkeypatch.setattr(pixton, "_chunk_worker", no_sampling)
    prices = {
        (1, 1, ()): 3_542,
        (1, 2, (0,)): 24_311,
        (1, 2, (1,)): 24_311,
        (1, 2, (2,)): 24_311,
        (2, 1, ()): 596_565,
    }
    for (g, n, b), price in prices.items():
        mono = MonomialSpec(g, n, b)
        el, _ = omega(mono)
        assert el.is_zero()
        args = (g, n + 1, b + (1,), g + 1)
        forget = mono.num_legs - n - 1
        with monkeypatch.context() as patch:
            patch.setattr(pixton, "COST_BUDGET", price)
            monomial_coefficient(*args, forget=forget)
            patch.setattr(pixton, "COST_BUDGET", price - 1)
            with pytest.raises(ComputationGuardError, match=f"cost {price} "):
                monomial_coefficient(*args, forget=forget)
    assert len(calls) == 10
    with pytest.raises(ComputationGuardError, match="cost 1000350 "):
        monomial_coefficient(2, 7, (1,) * 6, 3)
    assert len(calls) == 10


def test_cost_guard_stops_at_the_budget():
    # the guard walks the graphs lazily and refuses at the first graph that
    # takes the running price past the budget, long before a plan that
    # would take minutes to enumerate is built
    started = time.perf_counter()
    with pytest.raises(ComputationGuardError, match="exceeds the default budget"):
        monomial_coefficient(6, 2, (14,), 7)
    assert time.perf_counter() - started < 1.0


def test_cost_guard_prices_a_whole_walk(monkeypatch):
    # the running price never falls, so a walk that ends prices the whole
    # plan: the cheapest genus-3 omega input, (3,2,(7,)), is (g, N, d) =
    # (3, 3, 4) with exponents (7, 1) and no survivors, at 2d + 3 = 11 nodes
    monkeypatch.setattr(pixton, "COST_BUDGET", 28_486_424)
    with pytest.raises(ComputationGuardError, match="cost 28486425 "):
        monomial_coefficient(3, 3, (7, 1), 4)
    pixton._check_cost(28_486_425, 3, 3, 4, 0, None, 11)


class _SerialPool:
    """Stands in for a worker pool: records its size and runs the tasks in
    this process, so no worker starts."""

    def __init__(self, processes, sizes):
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


def test_worker_count_is_clamped(monkeypatch):
    sizes = []
    monkeypatch.setattr(pixton, "_worker_pool", lambda p: _SerialPool(p, sizes))
    serial, meta = monomial_coefficient(1, 3, (2, 0), 1)
    graphs = meta["plan_graphs"]
    # two one-vertex graphs and the tree with legs 1-3 on one vertex sample
    # one A-point each; the three other trees sample 3 + 1, and two of them,
    # with leg 1 on the genus-0 vertex, share a layout; the target reads
    # one one-vertex graph's layout and both layouts of those trees
    assert (graphs, meta["evaluations"]) == (6, 15) and sizes == []
    counts = (meta["layouts"], meta["layout_evaluations"])
    assert counts == (3, 9)
    # the tasks are the plan's edge lists (none, a loop, a separating edge),
    # so the pool is clamped to its 3
    for cpus, want in [(2, 2), (1000, 3)]:
        monkeypatch.setattr(runtime.os, "cpu_count", lambda: cpus)
        el, meta = monomial_coefficient(1, 3, (2, 0), 1, jobs=64)
        assert sizes[-1] == want
        assert el == serial and meta["evaluations"] == 15
        # each layout is sampled by one worker: the sums over them agree
        assert (meta["layouts"], meta["layout_evaluations"]) == counts
    # one CPU, or an unknown count, never starts a pool
    for cpus in (1, None):
        monkeypatch.setattr(runtime.os, "cpu_count", lambda: cpus)
        assert monomial_coefficient(1, 3, (2, 0), 1, jobs=64)[0] == serial
    assert len(sizes) == 2


def test_worker_pool_matches_serial(monkeypatch, fresh_sums):
    # a real pool of two workers, each returning integer numerators over the
    # layouts of its own edge lists, gives the serial result byte for byte
    # and the same meta: every constant-term key holds its edge list, so from
    # an empty cache the workers compute and reuse exactly the keys the
    # serial call does
    sizes = []
    real_pool = pixton._worker_pool

    def recording_pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(pixton, "_worker_pool", recording_pool)
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 2)
    serial, serial_meta = monomial_coefficient(1, 3, (2, 0), 1)
    fresh_sums.cache_clear()
    pooled, pooled_meta = monomial_coefficient(1, 3, (2, 0), 1, jobs=2)
    assert sizes == [2]
    assert pooled.to_json() == serial.to_json() and not serial.is_zero()
    assert pooled_meta == serial_meta
    counts = ("sums_computed", "sums_reused")
    assert sum(serial_meta[k] for k in counts) == serial_meta["layout_evaluations"]


def _relation_targets(g, k, l):
    """The (exponents, forget) targets on (g, n+1) of the omega classes that
    :func:`trrkit.trr.assemble_full_trr` takes for the relation (g, k, l),
    one per 0/1 shift."""
    from trrkit.trr import MonomialSpec, _omega_target, relation_weights

    n = len(l) + 1
    return [
        _omega_target(MonomialSpec(g, n, tuple(2 * lj + dj for lj, dj in zip(l, dvec))))
        for dvec, _ in relation_weights(k, l)
    ]


def _relation_keys(g, targets):
    """The distinct constant-term keys (edges, leg sums) a walk for the
    ``targets`` on (g, n+1) in degree g + 1 reads, from its plan."""
    d, n = g + 1, len(targets[0][0]) + 1
    forgets = tuple(sorted({forget for _, forget in targets}))
    walk = tuple((b + (1,) * forget, forgets.index(forget)) for b, forget in targets)
    plan = pixton._monomial_plan(g, n, d, forgets)[0]
    return {
        (layout[0][0], A)
        for layout in pixton._monomial_layouts(plan, walk, d)
        for A in layout[1]
    }


@pytest.mark.parametrize(
    "relation", [(2, 1, (1,)), pytest.param((3, 2, (1,)), marks=pytest.mark.slow)]
)
def test_one_walk_per_relation_gives_separate_classes_and_computes_each_key_once(
    monkeypatch, relation, fresh_sums
):
    # the walk over one plan for every 0/1 shift of a relation gives, target
    # by target, exactly the classes of separate monomial_coefficient calls,
    # with one worker and with two; from an empty cache it computes each
    # distinct key it reads once, with either worker count, where the
    # separate calls, each from an empty cache, compute more in all
    g, k, l = relation
    n, d = len(l) + 2, g + 1
    targets = _relation_targets(g, k, l)
    assert len(targets) == 2 and len({forget for _, forget in targets}) == 2
    separate, computed = [], 0
    for b, forget in targets:
        fresh_sums.cache_clear()
        el, meta = monomial_coefficient(g, n, b, d, allow_large=True, forget=forget)
        separate.append(el.to_json())
        computed += meta["sums_computed"]
    keys = _relation_keys(g, targets)
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        fresh_sums.cache_clear()
        classes, meta = pixton._monomial_coefficients(g, n, targets, d, True, jobs)
        assert [el.to_json() for el in classes] == separate, jobs
        assert meta["sums_computed"] == len(keys) < computed, jobs
        assert meta["sums_computed"] + meta["sums_reused"] == meta["layout_evaluations"]


def test_a_relation_is_priced_as_its_targets(monkeypatch):
    # the walk asks the guard about each target exactly as a call of its own
    # would, so it is admitted exactly when every target is; a refusal comes
    # before any plan is built
    real, seen = pixton._check_cost, []

    def recording(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(pixton, "_check_cost", recording)
    monkeypatch.setattr(pixton, "COST_BUDGET", 10**9)
    g, n, d, targets = 2, 3, 3, _relation_targets(2, 1, (1,))
    for b, forget in targets:
        monomial_coefficient(g, n, b, d, forget=forget)
    separate = list(seen)
    seen.clear()
    pixton._monomial_coefficients(g, n, targets, d)
    assert seen == separate and len(seen) == 2

    def never(*args):
        raise AssertionError("planned")

    monkeypatch.setattr(pixton, "_monomial_plan", never)
    monkeypatch.setattr(pixton, "COST_BUDGET", 10)
    with pytest.raises(ComputationGuardError):
        pixton._monomial_coefficients(g, n, targets, d)


def test_scan_worker_count_is_clamped(monkeypatch):
    from trrkit import trr

    sizes = []
    monkeypatch.setattr(trr, "_worker_pool", lambda p: _SerialPool(p, sizes))
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 1000)
    # g = 5..7 is one task per T = g - k in 1..6
    serial = trr.scan_zeros(5, 7)
    assert trr.scan_zeros(5, 7, jobs=64) == serial and sizes == [6]
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 2)
    assert trr.scan_zeros(5, 7, jobs=64) == serial and sizes == [6, 2]


def _point_layout_counts(plan, a):
    """How many plan graphs have each point layout at the leg vector a: the
    edge list and the vertex leg sums."""
    counts = {}
    for graph, *_ in _class_entries(plan):
        key = graph.edges, _leg_sums(graph, a)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_plan_templates_share_graphs_and_decorations():
    # every template's decorated graph holds its plan graph itself, a
    # graph's decorated graphs are distinct, and equal decoration tuples
    # across them are one object
    seen = {}
    plan = pixton._class_plan(2, 4, 2, frozenset())
    for graph, eid, _, decorated, _ in _class_entries(plan):
        assert plan[1][eid] == graph.edges
        assert len(set(decorated)) == len(decorated)
        for key in decorated:
            assert key.graph is graph
            for decoration in (key.psi_legs, key.psi_edges, key.kappa):
                assert seen.setdefault(decoration, decoration) is decoration


def test_point_layouts_make_one_power_sums_call(monkeypatch, fresh_sums):
    # the 13 graphs of the plan have 7 point layouts at a, and the graphs of
    # one layout make a single weighting_power_sums call (for every r node
    # at once), in the constant term and in the fixed-r class alike
    g, n, a, d = 1, 4, (-2, 1, 1, 0), 1
    layouts = _point_layout_counts(pixton._class_plan(g, n, d, frozenset()), a)
    assert (sum(layouts.values()), len(layouts)) == (13, 7)
    real = pixton.weighting_power_sums
    calls = []

    def counting(edges, leg_sums, rs, profiles):
        calls.append((edges, leg_sums))
        return real(edges, leg_sums, rs, profiles)

    monkeypatch.setattr(pixton, "weighting_power_sums", counting)
    classes = (lambda: constant_term_class(g, n, a, d)[0], lambda: fixed_r_class(g, n, a, 5, d))
    for compute in classes:
        calls.clear()
        assert not compute().is_zero()
        assert len(calls) == len(set(calls)) == 7 and set(calls) == set(layouts)


def test_a_warm_class_call_is_one_lookup_per_layout(monkeypatch, fresh_sums):
    # the plan groups its 13 graphs by leg map, each group's graphs having
    # its vertex count and legs, and they fall in 7 layouts at a; a second
    # call reads each layout from the store once and computes no sum
    g, n, a, d = 1, 4, (-2, 1, 1, 0), 1
    plan = pixton._class_plan(g, n, d, frozenset())
    leg_maps = plan[0]
    assert len({leg_map for leg_map, _ in leg_maps}) == len(leg_maps)
    for leg_map, entries in leg_maps:
        assert all((graph.num_vertices, graph.legs) == leg_map for graph, *_ in entries)
    layouts = _point_layout_counts(plan, a)
    assert (sum(layouts.values()), len(layouts)) == (13, 7)
    first, _ = constant_term_class(g, n, a, d)
    before = fresh_sums.cache_info()
    assert (before.misses, before.currsize) == (7, 7)

    def never(*args):
        raise AssertionError("a weighting sum was computed")

    monkeypatch.setattr(pixton, "weighting_power_sums", never)
    again, _ = constant_term_class(g, n, a, d)
    after = fresh_sums.cache_info()
    assert (after.hits - before.hits, after.misses, after.currsize) == (7, 7, 7)
    assert again == first


def test_a_shared_point_layout_is_checked(monkeypatch, fresh_sums):
    # a sum off the degree bound in r on one point layout that several
    # graphs share raises, although only one of them reaches the sums
    g, n, a, d = 1, 4, (-2, 1, 1, 0), 1
    layouts = _point_layout_counts(pixton._class_plan(g, n, d, frozenset()), a)
    shared = max(key for key, count in layouts.items() if count > 1)
    real = pixton.weighting_power_sums
    hits = []

    def patched(edges, leg_sums, rs, profiles):
        sums = real(edges, leg_sums, rs, profiles)
        if (edges, leg_sums) != shared:
            return sums
        hits.append(edges)
        power = len(edges) - len(leg_sums) + 1 + 2 * d + 1
        return {
            profile: tuple(s + r**power for s, r in zip(psums, rs))
            for profile, psums in sums.items()
        }

    monkeypatch.setattr(pixton, "weighting_power_sums", patched)
    with pytest.raises(FitInstabilityError, match="in r on the nodes"):
        constant_term_class(g, n, a, d)
    assert len(hits) == 1


# a survivor class of the genus2-slice benchmark's shape: (2,7) in degree 3
# with room for one unit of psi at legs 3..7
SURVIVORS = frozenset(range(3, 8))
SURVIVOR_A = (-12, 0, 1, 2, 2, 4, 3)


def test_survivor_classes_are_pinned():
    # 14,331 terms each, at r0 = 219 and at the fixed modulus 57
    el, _ = constant_term_class(2, 7, SURVIVOR_A, 3, r0=219, survivors=SURVIVORS)
    assert (len(el.terms), el.digest()) == (14_331, "11b9386fc90ac16d")
    el = fixed_r_class(2, 7, SURVIVOR_A, 57, 3, SURVIVORS)
    assert (len(el.terms), el.digest()) == (14_331, "99e11aa41f82ab5c")


def test_template_bases_are_over_one_denominator():
    # every member's base over 2^d d! is its template's coefficient,
    # (-1)^|m| prod_e C(m_e, j_e) / (2^(m_e+1) (m_e+1)!) / prod_m 2^(c_m) c_m!,
    # read back from its decorated graph, in class plans with and without
    # survivors and in a degree-exact monomial plan
    def coefficient(key):
        value = Fraction(1)
        for j, k in key.psi_edges:
            m = j + k
            value *= Fraction((-1) ** m * binomial(m, j), 2 ** (m + 1) * factorial(m + 1))
        for c in key.psi_legs:
            value /= 2**c * factorial(c)
        return value

    entries = []
    for g, n, d, survivors in [(2, 4, 2, frozenset()), (2, 4, 3, frozenset({3, 4}))]:
        plan = pixton._class_plan(g, n, d, survivors)
        entries += [(d, graph, *entry, plan[2], 1) for graph, _, *entry in _class_entries(plan)]
    entries += [
        (3, graph, rows, decorated, den, cs, factorial(6))
        for *_, plan_entries in pixton._monomial_plan(2, 2, 3, (1,))[0]
        for graph, _, rows, decorated, cs, den in plan_entries
    ]
    for d, graph, rows, decorated, den, table, weights_den in entries:
        common = 2**d * factorial(d)
        assert den == common * automorphism_count(graph) * weights_den
        assert len(set(table)) == len(table)
        profiles = pixton._edge_profiles(graph.num_edges, d - graph.num_edges)
        for p, e, base, slot in rows:
            profile, c, key = profiles[p], table[e], decorated[slot]
            assert weights_den == 1 or graph.num_edges + sum(profile) + sum(c) == d
            assert key.graph is graph and key.psi_legs == c
            assert sorted(map(sum, key.psi_edges)) == sorted(profile)
            assert Fraction(base, common) == coefficient(key)


def test_pixton_class_small():
    el, _ = constant_term_class(1, 2, (1, -1), 1)
    assert el.degree_component(0) == StrataElement.unit(1, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leg_exponents_are_every_admissible_tuple_in_order(data):
    """Every exponent tuple within the budget and each vertex's room, in
    lexicographic order, and the caller's room left as it was."""
    V = data.draw(st.integers(1, 3), label="V")
    legs = data.draw(st.lists(st.integers(0, V - 1), max_size=6), label="legs")
    room = data.draw(st.lists(st.integers(0, 4), min_size=V, max_size=V), label="room")
    budget = data.draw(st.integers(0, 6), label="budget")
    want = [
        c
        for c in itertools.product(range(budget + 1), repeat=len(legs))
        if sum(c) <= budget
        and all(sum(cm for cm, v in zip(c, legs) if v == u) <= room[u] for u in range(V))
    ]
    given_room = list(room)
    assert list(_leg_exponents(legs, given_room, budget)) == want
    assert given_room == room


def test_leg_exponents_go_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    # n legs on one vertex with room for one psi: no psi, then one psi on
    # each leg, the last leg first
    want = [(0,) * n] + [(0,) * (n - 1 - m) + (1,) + (0,) * m for m in range(n)]
    assert list(_leg_exponents([0] * n, [1], 1)) == want
