import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from trrkit.stablegraphs import (
    InvalidGraphError,
    StableGraph,
    _orbit_minimal_leg_maps,
    automorphism_count,
    canonical_data,
    enumerate_stable_graphs,
    graph_to_json,
    make_graph,
    validate,
)
from oracles import brute_force_automorphisms, brute_force_stable_graphs, graphs_isomorphic
from strata_reference import graph_from_json, half_edge_automorphisms


def test_validate_examples():
    assert validate(make_graph([1], [], [0])) == []
    bad = StableGraph((0,), (), (0,))
    assert any("unstable" in p for p in validate(bad))
    bad2 = StableGraph((0, 0), ((0, 1),), ())
    problems = validate(bad2)
    assert sum("unstable" in p for p in problems) == 2
    assert any("not connected" in p for p in validate(StableGraph((1, 1), (), (0,))))


def test_make_graph_rejects_edges_and_legs_at_missing_vertices():
    # validated before canonicalizing, so bad input is reported, not indexed
    for genera, edges, legs in [([0], [(0, 3)], [0]), ([1], [], [2])]:
        with pytest.raises(InvalidGraphError, match="missing vertex|out of range"):
            make_graph(genera, edges, legs)


@pytest.mark.parametrize(
    "g,n,count", [(0, 3, 1), (1, 1, 2), (2, 0, 7), (1, 2, 5), (0, 4, 4), (3, 0, 42), (4, 0, 379)]
)
def test_enumeration_counts(g, n, count):
    assert len(enumerate_stable_graphs(g, n)) == count


def assert_matches_brute_force(g, n, max_edges=None):
    ours = enumerate_stable_graphs(g, n, max_edges=max_edges)
    brute = brute_force_stable_graphs(g, n, max_edges=max_edges)
    assert len(ours) == len(brute)
    for cand in brute:
        assert any(
            graphs_isomorphic(cand, (gr.genera, gr.edges, gr.legs)) for gr in ours
        )


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (2, 0), (1, 2), (0, 5), (1, 3)])
def test_enumeration_against_brute_force(g, n):
    assert_matches_brute_force(g, n)


# many legs on symmetric shapes; the edge cap keeps each oracle within seconds
@pytest.mark.parametrize("g,n,max_edges", [(0, 6, 2), (1, 4, 3), (2, 2, 2)])
def test_enumeration_against_brute_force_with_edge_cap(g, n, max_edges):
    assert_matches_brute_force(g, n, max_edges)


def _digest(graphs) -> str:
    data = repr([(gr.genera, gr.edges, gr.legs) for gr in graphs])
    return hashlib.sha256(data.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "g,n,max_edges,count,digest",
    [
        (1, 5, None, 1576, "9d51231bc0d2ad79"),
        (0, 7, None, 2752, "0099cb4d5b53434f"),
        (2, 7, 3, 60242, "d554fa5f7803b1be"),
    ],
)
def test_enumeration_pinned_representatives(g, n, max_edges, count, digest):
    # the representatives and their order, as given by deduplicating every
    # labeled leg assignment by canonical form
    graphs = enumerate_stable_graphs(g, n, max_edges=max_edges)
    assert len(graphs) == count
    assert _digest(graphs) == digest


_SMALL_CASES = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4),
                (2, 0), (2, 1), (2, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_CASES), st.integers(0, 5))
def test_enumeration_returns_distinct_canonical_graphs(case, max_edges):
    g, n = case
    graphs = enumerate_stable_graphs(g, n, max_edges=max_edges)
    for gr in graphs:
        assert make_graph(gr.genera, gr.edges, gr.legs) == gr
    assert len(set(graphs)) == len(graphs)


def test_one_graph_object_per_isomorphism_class():
    # relabelled inputs of one class build the same object, and the
    # enumeration yields exactly those objects
    assert make_graph([0, 1], [(0, 1)], [0, 0, 1]) is make_graph([1, 0], [(1, 0)], [1, 1, 0])
    rng = random.Random(5)
    for gr in enumerate_stable_graphs(2, 3):
        perm = list(range(gr.num_vertices))
        rng.shuffle(perm)
        genera = [0] * gr.num_vertices
        for v, gv in enumerate(gr.genera):
            genera[perm[v]] = gv
        edges = [(perm[u], perm[w]) for u, w in reversed(gr.edges)]
        assert make_graph(genera, edges, [perm[v] for v in gr.legs]) is gr


def test_enumerated_graphs_are_valid():
    for g, n in [(1, 1), (1, 2), (2, 0), (0, 5)]:
        for gr in enumerate_stable_graphs(g, n):
            assert validate(gr) == []
            assert gr.genus() == g
            assert gr.n == n


def test_enumeration_edge_filter():
    for g, n in [(2, 0), (1, 2)]:
        full = enumerate_stable_graphs(g, n)
        for d in range(3 * g - 3 + n + 1):
            restricted = enumerate_stable_graphs(g, n, max_edges=d)
            assert set(restricted) == {gr for gr in full if gr.num_edges <= d}


@pytest.mark.parametrize(
    "g,n,max_edges,reserved",
    [(1, 4, None, (2, 3, 4)), (0, 6, None, (4, 5, 6)), (2, 3, 3, (2, 3)), (1, 3, 2, (1,))],
)
def test_enumeration_reserved_markings_filter(g, n, max_edges, reserved):
    def has_room(gr):
        count = [0] * gr.num_vertices
        for m in reserved:
            count[gr.legs[m - 1]] += 1
        return all(c <= cap for c, cap in zip(count, gr.capacities()))

    full = enumerate_stable_graphs(g, n, max_edges=max_edges)
    kept = enumerate_stable_graphs(g, n, max_edges=max_edges, reserved_markings=reserved)
    assert kept == tuple(gr for gr in full if has_room(gr))
    assert 0 < len(kept) < len(full)


def test_reserved_enumeration_of_the_genus_two_slice():
    # the class plan of the genus-2 slice: (2,7), at most 3 edges, room for
    # one unit of psi at each of the legs 3..7
    assert len(enumerate_stable_graphs(2, 7, 3, range(3, 8))) == 6416


def test_canonical_form_relabeling_invariance():
    rng = random.Random(2024)
    pool = []
    for g, n in [(1, 1), (1, 2), (2, 0), (0, 4)]:
        pool.extend(enumerate_stable_graphs(g, n))
    for _ in range(1000):
        gr = rng.choice(pool)
        V = gr.num_vertices
        perm = list(range(V))
        rng.shuffle(perm)
        genera = [0] * V
        for v in range(V):
            genera[perm[v]] = gr.genera[v]
        edges = [(perm[u], perm[w]) for u, w in gr.edges]
        rng.shuffle(edges)
        legs = [perm[v] for v in gr.legs]
        assert canonical_data(genera, edges, legs) == (gr.genera, gr.edges, gr.legs)


def test_canonical_form_distinguishes():
    a, b = enumerate_stable_graphs(1, 1)
    assert (a.genera, a.edges, a.legs) != (b.genera, b.edges, b.legs)


def test_automorphism_examples():
    assert automorphism_count(make_graph([3], [], [0, 0])) == 1
    assert automorphism_count(make_graph([0], [(0, 0)], [0])) == 2
    theta = make_graph([0, 0], [(0, 1), (0, 1), (0, 1)], [])
    assert automorphism_count(theta) == 12


def test_automorphisms_against_brute_force():
    for g, n in [(1, 1), (1, 2), (2, 0), (0, 4), (0, 5)]:
        for gr in enumerate_stable_graphs(g, n):
            if 2 * gr.num_edges + gr.n > 8:
                continue
            assert automorphism_count(gr) == brute_force_automorphisms(
                gr.genera, gr.edges, gr.legs
            )


def test_unchecked_automorphism_count_on_canonical_graphs():
    for g, n in [(1, 2), (2, 0), (0, 5), (2, 1)]:
        for gr in enumerate_stable_graphs(g, n):
            assert automorphism_count(gr, check=False) == automorphism_count(gr)


def test_json_round_trip_bit_exact():
    for gr in enumerate_stable_graphs(2, 0) + enumerate_stable_graphs(1, 2):
        blob = json.dumps(graph_to_json(gr), sort_keys=True)
        again = graph_from_json(json.loads(blob))
        assert again == gr
        assert json.dumps(graph_to_json(again), sort_keys=True) == blob


def test_unstable_enumeration_rejected():
    with pytest.raises(InvalidGraphError):
        enumerate_stable_graphs(0, 2)


def test_half_edge_automorphism_count_matches():
    for g, n in [(1, 1), (2, 0), (1, 2)]:
        for gr in enumerate_stable_graphs(g, n):
            assert len(half_edge_automorphisms(gr)) == automorphism_count(gr)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_orbit_minimal_leg_maps_are_the_least_of_their_orbits(data):
    """Every leg map meeting the need that no permutation makes smaller,
    in lexicographic order: the walk's pruning against the definition, for
    any set of vertex permutations."""
    V = data.draw(st.integers(1, 4), label="V")
    n = data.draw(st.integers(0, 6), label="n")
    need = data.draw(st.lists(st.integers(0, 2), min_size=V, max_size=V), label="need")
    perms = data.draw(st.lists(st.permutations(range(V)), max_size=3), label="perms")
    # the need of a shape never passes the legs there are to place
    assume(sum(need) <= n)
    auts = [tuple(range(V))] + [tuple(p) for p in perms]
    want = [
        legs
        for legs in itertools.product(range(V), repeat=n)
        if all(legs.count(v) >= need[v] for v in range(V))
        and all(legs <= tuple(p[x] for x in legs) for p in auts)
    ]
    assert list(_orbit_minimal_leg_maps(need, n, auts)) == want


def test_orbit_minimal_leg_maps_go_past_the_recursion_limit():
    # one vertex and more legs than the interpreter's recursion limit
    n = sys.getrecursionlimit() + 200
    assert list(_orbit_minimal_leg_maps([3], n, [(0,)])) == [(0,) * n]
