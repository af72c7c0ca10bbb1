import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trrkit.stablegraphs import enumerate_stable_graphs, make_graph
from trrkit.strata import (
    DecoratedGraph,
    StrataElement,
    make_decorated,
    pushforward_forget,
)
from strata_reference import from_json, multiply, multiply_by_psi, product_terms


def loop_element(g, n):
    graph = make_graph([g - 1], [(0, 0)], [0] * n)
    dg = DecoratedGraph(
        graph, (0,) * n, ((0, 0),), tuple(() for _ in graph.genera)
    )
    return StrataElement(g, n, {dg: Fraction(1)})


def random_element(rng, g, n, max_terms=2, with_kappa=True):
    graphs = enumerate_stable_graphs(g, n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        graph = rng.choice(graphs)
        caps = graph.capacities()
        psi_legs = [0] * n
        psi_edges = [[0, 0] for _ in graph.edges]
        kappa = [dict() for _ in graph.genera]
        budget = [rng.randint(0, c) for c in caps]
        for m in range(1, n + 1):
            v = graph.legs[m - 1]
            if budget[v] and rng.random() < 0.5:
                e = rng.randint(1, budget[v])
                psi_legs[m - 1] += e
                budget[v] -= e
        for k, (u, w) in enumerate(graph.edges):
            for side, v in ((0, u), (1, w)):
                if budget[v] and rng.random() < 0.4:
                    e = rng.randint(1, budget[v])
                    psi_edges[k][side] += e
                    budget[v] -= e
        if with_kappa:
            for v in range(graph.num_vertices):
                if budget[v] and rng.random() < 0.3:
                    i = rng.randint(1, budget[v])
                    kappa[v][i] = 1
                    budget[v] -= i
        dg = make_decorated(
            graph.genera,
            graph.edges,
            graph.legs,
            tuple(psi_legs),
            tuple(tuple(p) for p in psi_edges),
            tuple(tuple(sorted(kv.items())) for kv in kappa),
        )
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff:
            terms[dg] = terms.get(dg, Fraction(0)) + coeff
    return StrataElement(g, n, terms)


def test_degree_component_examples():
    one = StrataElement.unit(1, 2)
    assert one.degree_component(0) == one
    assert one.degree_component(1).is_zero()
    mixed = one + StrataElement.psi_monomial(1, 2, {1: 2})
    assert mixed.degree_component(2) == StrataElement.psi_monomial(1, 2, {1: 2})


def test_is_kappa_free_boundary():
    psi = StrataElement.psi_monomial(2, 1, {1: 1})
    assert not psi.is_kappa_free_boundary()  # trivial graph, no edge
    el = loop_element(2, 1)
    dg = next(iter(el.terms))
    decorated = DecoratedGraph(
        dg.graph, dg.psi_legs, ((1, 0),), dg.kappa
    )
    assert StrataElement(2, 1, {decorated: Fraction(1)}).is_kappa_free_boundary()
    with_kappa = DecoratedGraph(dg.graph, dg.psi_legs, dg.psi_edges, (((1, 1),),))
    assert not StrataElement(2, 1, {with_kappa: Fraction(1)}).is_kappa_free_boundary()


def test_unit_law():
    rng = random.Random(11)
    for g, n in [(1, 1), (1, 2), (0, 4)]:
        one = StrataElement.unit(g, n)
        for _ in range(5):
            x = random_element(rng, g, n)
            assert multiply(one, x) == x
            assert multiply(x, one) == x


def test_loop_self_product_formal_terms():
    # fiber-product enumeration in (1,1): no 2-edge stable graph exists, and
    # the two self-matchings contribute the excess class -(psi_h + psi_h');
    # after merging the loop's identified sides the canonical coefficient on
    # [loop, psi-side] is -4 (two structure orbits, two sides each)
    el = loop_element(1, 1)
    dg = next(iter(el.terms))
    terms = {}
    for t, c in product_terms(dg, dg, 1, 1, truncate=False):
        terms[t] = terms.get(t, Fraction(0)) + c
    assert len(terms) == 1
    ((t, c),) = terms.items()
    assert t.graph == dg.graph
    assert t.psi_edges == ((1, 0),)
    assert c == -4
    # with the degree condition applied, the product is zero in S_{1,1}
    assert multiply(el, el).is_zero()


def test_loop_times_psi_formal():
    el = loop_element(1, 1)
    dg = next(iter(el.terms))
    psi = StrataElement.psi_monomial(1, 1, {1: 1})
    dgp = next(iter(psi.terms))
    terms = product_terms(dg, dgp, 1, 1, truncate=False)
    assert len(terms) == 1
    t, c = terms[0]
    assert c == 1
    assert t.graph == dg.graph and t.psi_legs == (1,)
    # truncated: the loop vertex has capacity zero
    assert multiply(el, psi).is_zero()


def test_disjoint_boundary_divisors_multiply_to_zero():
    d1 = StrataElement(0, 4, {
        DecoratedGraph(make_graph([0, 0], [(0, 1)], [0, 0, 1, 1]), (0, 0, 0, 0), ((0, 0),), ((), ())): Fraction(1)
    })
    d2 = StrataElement(0, 4, {
        DecoratedGraph(make_graph([0, 0], [(0, 1)], [0, 1, 0, 1]), (0, 0, 0, 0), ((0, 0),), ((), ())): Fraction(1)
    })
    assert multiply(d1, d2).is_zero()


@pytest.mark.parametrize("g,n,seed", [(1, 1, 3), (1, 2, 5), (0, 4, 7)])
def test_product_commutative_associative(g, n, seed):
    rng = random.Random(seed)
    for _ in range(6):
        x = random_element(rng, g, n)
        y = random_element(rng, g, n)
        z = random_element(rng, g, n)
        xy = multiply(x, y)
        assert xy == multiply(y, x)
        assert multiply(xy, z) == multiply(x, multiply(y, z))


@pytest.mark.parametrize("g,n,seed", [(1, 2, 1), (0, 4, 2)])
def test_degree_additivity(g, n, seed):
    rng = random.Random(seed)
    dim = 3 * g - 3 + n
    for _ in range(4):
        x = random_element(rng, g, n)
        y = random_element(rng, g, n)
        product = multiply(x, y)
        for d in range(dim + 1):
            expected = StrataElement.zero(g, n)
            for d1 in range(d + 1):
                expected = expected + multiply(
                    x.degree_component(d1), y.degree_component(d - d1)
                )
            assert product.degree_component(d) == expected


def test_multiply_by_psi_truncation_example():
    # psi exponent on a leg at a genus-0 3-valent vertex dies
    graph = make_graph([1, 0], [(0, 1)], [1, 1, 0])
    dg = DecoratedGraph(graph, (0, 0, 0), ((0, 0),), ((), ()))
    el = StrataElement(1, 3, {dg: Fraction(1)})
    assert multiply_by_psi(el, {1: 1}).is_zero()
    assert StrataElement.unit(1, 1) == multiply_by_psi(
        StrataElement.unit(1, 1), {}
    )
    assert multiply_by_psi(
        StrataElement.unit(1, 1), {1: 1}
    ) == StrataElement.psi_monomial(1, 1, {1: 1})


def test_multiply_by_psi_agrees_with_product():
    rng = random.Random(13)
    for _ in range(100):
        g, n = rng.choice([(1, 1), (1, 2), (0, 4)])
        x = random_element(rng, g, n)
        exps = {}
        for m in range(1, n + 1):
            if rng.random() < 0.5:
                exps[m] = rng.randint(1, 2)
        if not exps:
            exps = {1: 1}
        psi = StrataElement.psi_monomial(g, n, exps)
        if psi.is_zero():
            continue
        assert multiply_by_psi(x, exps) == multiply(x, psi)


def test_pushforward_string_example():
    x = StrataElement.psi_monomial(1, 2, {1: 2})
    assert pushforward_forget(x, 2) == StrataElement.psi_monomial(1, 1, {1: 1})


def test_pushforward_dilaton_example():
    # psi_1 psi_2 on (1,2): the forgotten leg has exponent one, the dilaton
    # scalar is 2g - 2 + n = 1 on the target
    x = StrataElement.psi_monomial(1, 2, {1: 1, 2: 1})
    assert pushforward_forget(x, 2) == StrataElement.psi_monomial(1, 1, {1: 1})
    y = StrataElement.psi_monomial(2, 2, {1: 2, 2: 1})
    assert pushforward_forget(y, 2) == StrataElement.psi_monomial(2, 1, {1: 2}).scale(3)


def test_pushforward_rational_tail_example():
    graph = make_graph([1, 0], [(0, 1)], [0, 1, 1])
    gv = 0 if graph.genera[0] == 1 else 1
    side = 0 if graph.edges[0][0] == gv else 1
    for c in (0, 1, 2):
        pe = [0, 0]
        pe[side] = c
        dg = make_decorated(
            graph.genera, graph.edges, graph.legs, (0, 0, 0), (tuple(pe),), ((), ())
        )
        el = StrataElement(1, 3, {dg: Fraction(1)})
        out = pushforward_forget(el, 3)
        assert out == StrataElement.psi_monomial(1, 2, {2: c})


def test_pushforward_string_symbolic_monomials():
    # pure psi monomials of degree <= 6 with the forgotten exponent zero
    rng = random.Random(17)
    g, n = 3, 3  # capacity 9 on the trivial graph
    for _ in range(30):
        e1, e2 = rng.randint(0, 3), rng.randint(0, 3)
        x = StrataElement.psi_monomial(g, n, {1: e1, 2: e2})
        out = pushforward_forget(x, 3)
        expected = StrataElement.zero(g, n - 1)
        if e1 > 0:
            expected = expected + StrataElement.psi_monomial(g, 2, {1: e1 - 1, 2: e2})
        if e2 > 0:
            expected = expected + StrataElement.psi_monomial(g, 2, {1: e1, 2: e2 - 1})
        assert out == expected


def test_pushforward_kappa_free_for_low_exponent():
    rng = random.Random(23)
    for _ in range(40):
        g, n = rng.choice([(1, 2), (1, 3), (0, 4)])
        x = random_element(rng, g, n, with_kappa=False)
        filtered = {
            dg: c for dg, c in x.terms.items() if dg.psi_legs[n - 1] <= 1
        }
        x = StrataElement(g, n, filtered)
        if 2 * g - 2 + n - 1 <= 0:
            continue
        out = pushforward_forget(x, n)
        assert not out.has_kappa()


def test_pushforward_generates_flagged_kappa():
    x = StrataElement.psi_monomial(2, 1, {1: 3})
    out = pushforward_forget(x, 1)
    assert out.has_kappa()
    ((dg, c),) = out.terms.items()
    assert dg.kappa == (((2, 1),),)
    assert c == 1


def test_double_pushforward_consistency():
    rng = random.Random(29)
    for _ in range(25):
        g, n = rng.choice([(1, 3), (0, 5), (2, 2)])
        x = random_element(rng, g, n, with_kappa=True)
        a = pushforward_forget(pushforward_forget(x, n), n - 1)
        b = pushforward_forget(pushforward_forget(x, n - 1), n - 1)
        assert a == b


def test_psi_degree():
    assert StrataElement.unit(1, 2).psi_degree(1) == 0
    assert StrataElement.psi_monomial(3, 1, {1: 3}).psi_degree(1) == 3


def test_relabel_legs():
    x = StrataElement.psi_monomial(1, 3, {1: 1, 2: 2})
    y = x.relabel_legs({2: 3, 3: 2})
    assert y == StrataElement.psi_monomial(1, 3, {1: 1, 3: 2})
    assert y.relabel_legs({2: 3, 3: 2}) == x


def test_json_round_trip():
    rng = random.Random(31)
    for g, n in [(1, 2), (2, 1), (0, 4)]:
        x = random_element(rng, g, n)
        blob = json.dumps(x.to_json(), sort_keys=True)
        again = from_json(g, n, json.loads(blob))
        assert again == x
        assert json.dumps(again.to_json(), sort_keys=True) == blob


def scrambled(rng, dg):
    """Input data of ``dg`` under a random vertex relabelling, a random edge
    order and random side swaps (each edge's psi pair swapped with it)."""
    graph = dg.graph
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    genera = [0] * graph.num_vertices
    kappa = [()] * graph.num_vertices
    for v, gv in enumerate(graph.genera):
        genera[perm[v]] = gv
        kappa[perm[v]] = dg.kappa[v]
    edges = []
    for (u, w), (p0, p1) in zip(graph.edges, dg.psi_edges):
        if rng.random() < 0.5:
            u, w, p0, p1 = w, u, p1, p0
        edges.append(((perm[u], perm[w]), (p0, p1)))
    rng.shuffle(edges)
    legs = tuple(perm[v] for v in graph.legs)
    return (
        genera, [e for e, _ in edges], legs, dg.psi_legs, [p for _, p in edges], kappa
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from([(1, 2), (1, 3), (0, 5), (2, 1), (2, 2)]),
)
def test_make_decorated_ignores_the_labelling(seed, case):
    rng = random.Random(seed)
    x = random_element(rng, *case, max_terms=3)
    for dg in x.terms:
        assert make_decorated(*scrambled(rng, dg)) == dg


def test_make_decorated_digest():
    rng = random.Random(9)
    out = []
    for g, n in [(1, 1), (1, 2), (1, 3), (0, 5), (2, 1), (2, 2)]:
        for _ in range(8):
            x = random_element(rng, g, n, max_terms=3)
            for dg in sorted(x.terms, key=DecoratedGraph.sort_key):
                new = make_decorated(*scrambled(rng, dg))
                out.append((new.graph.sort_key(), new.psi_legs, new.psi_edges, new.kappa))
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == "32beb97c782609dc"


def test_pickled_decorated_graph_is_equal_to_the_original():
    # worker results come back pickled, as new objects that must still
    # merge with the parent's terms, whether or not the hash was taken
    dg = make_decorated([1, 0], [(1, 0)], [1, 1, 0], (0, 0, 1), [(0, 1)], [(), ()])
    before = pickle.dumps(dg)
    hash(dg)
    for pickled in (before, pickle.dumps(dg)):
        loaded = pickle.loads(pickled)
        assert loaded is not dg
        assert loaded == dg and hash(loaded) == hash(dg)
        assert {dg: 1}[loaded] == 1
