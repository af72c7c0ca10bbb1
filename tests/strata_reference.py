"""Reference implementations that only the tests call.

The excess intersection product of the strata algebra with psi
multiplication, automorphisms at half-edge resolution, Newton interpolation,
and the readers of the JSON that ``graph_to_json`` and
``StrataElement.to_json`` write.  No command runs them: ``omega`` forgets
its extra legs by the dilaton equation, and constant terms are read off
integer Lagrange rows (``numerics.lagrange_coefficient_rows``).  They are
the independent references the tests compare the library against, and
``oracles.py`` takes its psi products here.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from trrkit.numerics import SparsePoly, factorial, parse_rational
from trrkit.stablegraphs import (
    StableGraph,
    enumerate_stable_graphs,
    make_graph,
    vertex_automorphisms,
)
from trrkit.strata import DecoratedGraph, StrataElement, make_decorated


# ----------------------------------------------------------------------
# stable graphs and interpolation
# ----------------------------------------------------------------------

def half_edge_automorphisms(graph: StableGraph):
    """Automorphisms at half-edge resolution.

    Each is (vertex_perm, edge_map) with edge_map[k] = (image edge, flip),
    flip meaning side 0 of edge k lands on side 1 of the image.
    """
    result = []
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (u, w) in enumerate(graph.edges):
        groups.setdefault((u, w), []).append(k)
    for vperm in vertex_automorphisms(graph):
        # image of each group under vperm, as a sorted pair
        group_items = sorted(groups.items())
        target_lists = []
        for (u, w), members in group_items:
            tu, tw = sorted((vperm[u], vperm[w]))
            target_lists.append((members, groups[(tu, tw)], u == w))
        choices_per_group = []
        for members, targets, is_loop in target_lists:
            perms = list(itertools.permutations(targets))
            if is_loop:
                flips = list(itertools.product((False, True), repeat=len(members)))
            else:
                flips = [tuple(False for _ in members)]
            choices_per_group.append(
                [(p, f) for p in perms for f in flips]
            )
        for combo in itertools.product(*choices_per_group):
            edge_map: dict[int, tuple[int, bool]] = {}
            for (members, targets, is_loop), (p, f) in zip(target_lists, combo):
                for src, dst, flip in zip(members, p, f):
                    u, w = graph.edges[src]
                    tu, tw = graph.edges[dst]
                    if is_loop:
                        edge_map[src] = (dst, flip)
                    else:
                        # side 0 of src sits at u; it must land at vperm[u]
                        edge_map[src] = (dst, tu != vperm[u])
            result.append((vperm, tuple(edge_map[k] for k in range(len(graph.edges)))))
    return result


def graph_from_json(data: dict) -> StableGraph:
    genera = [v["genus"] for v in data["vertices"]]
    edges = [tuple(e) for e in data["edges"]]
    legs_sorted = sorted(data["legs"], key=lambda rec: rec["marking"])
    legs = [rec["vertex"] for rec in legs_sorted]
    return make_graph(genera, edges, legs)


def interpolate(nodes: Sequence[tuple], var: str = "x") -> SparsePoly:
    """Exact univariate interpolation through the given (x, y) nodes.

    Newton's divided differences; the result is the unique polynomial of
    degree < len(nodes) through all nodes.
    """
    xs = [Fraction(x) for x, _ in nodes]
    ys = [Fraction(y) for _, y in nodes]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    # divided difference table, computed in place
    dd = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    poly = SparsePoly((var,), {})
    basis = SparsePoly.constant((var,), 1)
    xvar = SparsePoly.variable((var,), var)
    for k, coeff in enumerate(dd):
        poly = poly + basis * coeff
        basis = basis * (xvar - SparsePoly.constant((var,), xs[k]))
    return poly


# ----------------------------------------------------------------------
# strata elements: JSON reader, product and psi multiplication
# ----------------------------------------------------------------------

def from_json(g: int, n: int, records: list) -> StrataElement:
    terms: dict[DecoratedGraph, Fraction] = {}
    for rec in records:
        graph = graph_from_json(rec["graph"])
        psi_legs = [0] * n
        psi_edges = [[0, 0] for _ in graph.edges]
        for ident, e in rec["psi"]:
            if ident <= n:
                psi_legs[ident - 1] = e
            else:
                k, s = divmod(ident - n - 1, 2)
                psi_edges[k][s] = e
        kappa = [dict() for _ in graph.genera]
        for v, i, x in rec["kappa"]:
            kappa[v][i] = kappa[v].get(i, 0) + x
        dg = make_decorated(
            graph.genera,
            graph.edges,
            graph.legs,
            tuple(psi_legs),
            tuple(tuple(p) for p in psi_edges),
            tuple(tuple(sorted(d.items())) for d in kappa),
        )
        terms[dg] = terms.get(dg, Fraction(0)) + parse_rational(rec["coeff"])
    return StrataElement(g, n, terms)


def _contract_info(graph: StableGraph, keep: tuple[int, ...]):
    """Contract all edges outside ``keep``; return component data."""
    V = graph.num_vertices
    parent = list(range(V))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    keep_set = set(keep)
    internal = [k for k in range(graph.num_edges) if k not in keep_set]
    for k in internal:
        u, w = graph.edges[k]
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
    comps: dict[int, list[int]] = {}
    for v in range(V):
        comps.setdefault(find(v), []).append(v)
    ordered = sorted(comps.values(), key=min)
    vmap = [0] * V
    for ci, members in enumerate(ordered):
        for v in members:
            vmap[v] = ci
    genera = []
    for members in ordered:
        ne = sum(1 for k in internal if vmap[graph.edges[k][0]] == vmap[members[0]])
        genera.append(sum(graph.genera[v] for v in members) + ne - (len(members) - 1))
    edges = [(k, vmap[graph.edges[k][0]], vmap[graph.edges[k][1]]) for k in sorted(keep)]
    legs = tuple(vmap[v] for v in graph.legs)
    return tuple(genera), edges, legs, vmap, tuple(ordered[i] for i in range(len(ordered)))


def _structures(graph: StableGraph, keep: tuple[int, ...], target: StableGraph):
    """Half-edge-level isomorphisms from graph/(contract non-keep) onto target.

    Each structure is (edge_assign, vertex_sets): edge_assign[t] = (edge of
    graph realizing target edge t, flip), vertex_sets[tv] = frozenset of graph
    vertices collapsing onto target vertex tv.
    """
    genera, cedges, legs, vmap, members = _contract_info(graph, keep)
    Vc = len(genera)
    if Vc != target.num_vertices or len(cedges) != target.num_edges:
        return []
    if sorted(genera) != sorted(target.genera):
        return []
    # candidate vertex bijections: must match genus and leg markings exactly
    marking_sets = [frozenset() for _ in range(Vc)]
    tmp: dict[int, set] = {v: set() for v in range(Vc)}
    for m, v in enumerate(legs, start=1):
        tmp[v].add(m)
    marking_sets = [frozenset(tmp[v]) for v in range(Vc)]
    t_tmp: dict[int, set] = {v: set() for v in range(target.num_vertices)}
    for m, v in enumerate(target.legs, start=1):
        t_tmp[v].add(m)
    t_marking_sets = [frozenset(t_tmp[v]) for v in range(target.num_vertices)]

    cand = []
    for v in range(Vc):
        opts = [
            tv
            for tv in range(target.num_vertices)
            if target.genera[tv] == genera[v] and t_marking_sets[tv] == marking_sets[v]
        ]
        if not opts:
            return []
        cand.append(opts)

    out = []
    t_groups: dict[tuple[int, int], list[int]] = {}
    for t, (tu, tw) in enumerate(target.edges):
        t_groups.setdefault((tu, tw), []).append(t)
    for phi in itertools.product(*cand):
        if len(set(phi)) != Vc:
            continue
        groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        ok = True
        for k, cu, cw in cedges:
            pu, pw = sorted((phi[cu], phi[cw]))
            groups.setdefault((pu, pw), []).append((k, cu, cw))
        if set(groups) != set(t_groups) or any(
            len(groups[p]) != len(t_groups[p]) for p in groups
        ):
            continue
        group_list = sorted(groups.items())
        per_group = []
        for pair, members_here in group_list:
            targets = t_groups[pair]
            is_loop = pair[0] == pair[1]
            arrangements = []
            for tperm in itertools.permutations(targets):
                if is_loop:
                    for flips in itertools.product((False, True), repeat=len(members_here)):
                        arrangements.append((tperm, flips))
                else:
                    flips = []
                    for (k, cu, cw), t in zip(members_here, tperm):
                        tu, tw = target.edges[t]
                        flips.append(phi[cu] != tu)
                    arrangements.append((tperm, tuple(flips)))
            per_group.append((members_here, arrangements))
        for combo in itertools.product(*(arr for _, arr in per_group)):
            edge_assign: dict[int, tuple[int, bool]] = {}
            for (members_here, _), (tperm, flips) in zip(per_group, combo):
                for (k, cu, cw), t, flip in zip(members_here, tperm, flips):
                    edge_assign[t] = (k, flip)
            vertex_sets = [()] * target.num_vertices
            for v in range(Vc):
                vertex_sets[phi[v]] = tuple(sorted(members[v]))
            out.append(
                (
                    tuple(edge_assign[t] for t in range(target.num_edges)),
                    tuple(vertex_sets),
                )
            )
    return out


def _act_structure(aut, structure):
    vperm, emap = aut
    edge_assign, vertex_sets = structure
    new_assign = tuple(
        (emap[k][0], flip ^ emap[k][1]) for k, flip in edge_assign
    )
    new_sets = tuple(tuple(sorted(vperm[v] for v in s)) for s in vertex_sets)
    return (new_assign, new_sets)


def _kappa_transfer_options(dg: DecoratedGraph, vertex_sets):
    """Distribute each kappa decoration over the vertices it pulls back to.

    kappa_d on a vertex that splits into a component becomes the sum of
    kappa_d over the component's vertices; powers expand multinomially.
    """
    options = [({}, Fraction(1))]
    for tv, vk in enumerate(dg.kappa):
        comp = sorted(vertex_sets[tv])
        for index, power in vk:
            if len(comp) == 1:
                new_options = []
                for assign, coeff in options:
                    a2 = {k: dict(v) for k, v in assign.items()}
                    a2.setdefault(comp[0], {})
                    a2[comp[0]][index] = a2[comp[0]].get(index, 0) + power
                    new_options.append((a2, coeff))
                options = new_options
            else:
                new_options = []
                for split in _compositions_fixed(power, len(comp)):
                    mult = factorial(power)
                    for part in split:
                        mult //= factorial(part)
                    for assign, coeff in options:
                        a2 = {k: dict(v) for k, v in assign.items()}
                        for v, part in zip(comp, split):
                            if part:
                                a2.setdefault(v, {})
                                a2[v][index] = a2[v].get(index, 0) + part
                        new_options.append((a2, coeff * mult))
                options = new_options
    return options


def _compositions_fixed(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_fixed(total - first, parts - 1):
            yield (first,) + rest


def product_terms(dg1: DecoratedGraph, dg2: DecoratedGraph, g: int, n: int, truncate: bool = True):
    """Terms of [Gamma1,gamma1]*[Gamma2,gamma2], one per isomorphism class of
    common degeneration with contraction structures onto both factors.

    The enumeration realizes the fiber product: candidate graphs Gamma carry a
    pair of edge subsets S1 union S2 = E(Gamma) together with half-edge
    isomorphisms of the respective contractions onto the factors, counted up
    to simultaneous automorphism of Gamma; an excess factor -(psi_h + psi_h')
    appears for every edge in S1 intersect S2.
    """
    E1, E2 = dg1.graph.num_edges, dg2.graph.num_edges
    cap = 3 * g - 3 + n
    out: list[tuple[DecoratedGraph, Fraction]] = []
    for G in enumerate_stable_graphs(g, n, max_edges=min(E1 + E2, cap)):
        E = G.num_edges
        if E < max(E1, E2):
            continue
        auts = half_edge_automorphisms(G)
        idx = tuple(range(E))
        str_cache1 = {}
        str_cache2 = {}
        seen = set()
        for S1 in itertools.combinations(idx, E1):
            st1 = str_cache1.get(S1)
            if st1 is None:
                st1 = _structures(G, S1, dg1.graph)
                str_cache1[S1] = st1
            if not st1:
                continue
            complement = tuple(k for k in idx if k not in S1)
            # S2 must contain the complement of S1 so that S1 U S2 = E
            for extra in _subsets(S1, E2 - len(complement)):
                S2 = tuple(sorted(complement + extra))
                if len(S2) != E2:
                    continue
                st2 = str_cache2.get(S2)
                if st2 is None:
                    st2 = _structures(G, S2, dg2.graph)
                    str_cache2[S2] = st2
                if not st2:
                    continue
                shared = tuple(k for k in S1 if k in set(S2))
                for s1 in st1:
                    for s2 in st2:
                        rep = min(
                            (_act_structure(a, s1), _act_structure(a, s2)) for a in auts
                        )
                        if rep in seen:
                            continue
                        seen.add(rep)
                        out.extend(
                            _transfer(G, s1, s2, dg1, dg2, shared, truncate)
                        )
    return out


def _subsets(pool, size):
    if size < 0:
        return
    yield from itertools.combinations(pool, size)


def _transfer(G, s1, s2, dg1, dg2, shared, truncate):
    psi_legs = [a + b for a, b in zip(dg1.psi_legs, dg2.psi_legs)]
    psi_edges = [[0, 0] for _ in G.edges]
    for (k, flip), (a, b) in zip(s1[0], dg1.psi_edges):
        if flip:
            a, b = b, a
        psi_edges[k][0] += a
        psi_edges[k][1] += b
    for (k, flip), (a, b) in zip(s2[0], dg2.psi_edges):
        if flip:
            a, b = b, a
        psi_edges[k][0] += a
        psi_edges[k][1] += b

    kappa_opts1 = _kappa_transfer_options(dg1, s1[1])
    kappa_opts2 = _kappa_transfer_options(dg2, s2[1])

    results = []
    sign = Fraction(-1) ** len(shared)
    for sides in itertools.product((0, 1), repeat=len(shared)):
        pe = [list(p) for p in psi_edges]
        for k, side in zip(shared, sides):
            pe[k][side] += 1
        for a1, c1 in kappa_opts1:
            for a2, c2 in kappa_opts2:
                kap = [dict() for _ in range(G.num_vertices)]
                for assign in (a1, a2):
                    for v, entry in assign.items():
                        for i, x in entry.items():
                            kap[v][i] = kap[v].get(i, 0) + x
                dg = make_decorated(
                    G.genera,
                    G.edges,
                    G.legs,
                    tuple(psi_legs),
                    tuple(tuple(p) for p in pe),
                    tuple(tuple(sorted(d.items())) for d in kap),
                )
                if truncate and dg.violates_degree_condition():
                    continue
                results.append((dg, sign * c1 * c2))
    return results


def multiply(x: StrataElement, y: StrataElement) -> StrataElement:
    """Excess intersection product in the strata algebra."""
    x._check_ambient(y)
    out: dict[DecoratedGraph, Fraction] = {}
    for dg1, c1 in x.terms.items():
        for dg2, c2 in y.terms.items():
            for dg, c in product_terms(dg1, dg2, x.g, x.n, truncate=True):
                out[dg] = out.get(dg, Fraction(0)) + c1 * c2 * c
    return StrataElement(x.g, x.n, out)


def multiply_by_psi(x: StrataElement, leg_exponents: dict[int, int]) -> StrataElement:
    """Fast path for multiplying by a psi monomial on the trivial graph."""
    out: dict[DecoratedGraph, Fraction] = {}
    for dg, c in x.terms.items():
        psi_legs = list(dg.psi_legs)
        for m, e in leg_exponents.items():
            psi_legs[m - 1] += e
        new = DecoratedGraph(dg.graph, tuple(psi_legs), dg.psi_edges, dg.kappa)
        if new.violates_degree_condition():
            continue
        out[new] = out.get(new, Fraction(0)) + c
    return StrataElement(x.g, x.n, out)
