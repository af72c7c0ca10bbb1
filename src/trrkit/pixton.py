"""Pixton's double ramification class machinery.

The fixed-r class is the weighted sum over stable graphs and weightings mod r
of exponential psi decorations; its coefficients are polynomial in r for
large r, and the constant term of that polynomial is the class whose
monomial coefficients in the leg variables yield tautological relations in
degrees above g.  In degrees <= dmax that polynomial has degree at most
2*dmax, since each edge term weighs the weightings by a polynomial of degree
2*(m_e + 1) in the residues; the constant term is read off 2*dmax + 1
consecutive nodes, and two further held-out nodes validate the bound.

Performance notes.  The graph sum is accumulated in integers in one pass
over the plan, graph by graph, each graph sampled at its own weighted
points.  Per graph and point, one call gives the weighting power sums at
every r node, the sums are put over the common denominator lcm(r^h1), and
per edge profile the two held-out differences are checked and the
Lagrange-at-zero weights give one integer, memoized per distinct tuple of
sums.  Each group of decoration templates sharing a profile and leg
exponents takes the dot product of its integer weights with its profile's
values over the points, so the template loop runs once per graph and each
decorated graph becomes one Fraction at the end.  The fixed-r class and the
constant term at one leg vector are one point weighted by the leg powers.
A monomial coefficient samples each graph at a grid of its vertex leg sums
(the weighting conditions see the leg values only through them), weighted
per group by an integer functional that reads off the target monomial, and
checks one held-out point of that grid; worker processes each take a chunk
of the plan graphs and return integer numerators, which the parent merges.
A weighting sum over a graph depends on the leg values only through the
per-edge affine residue forms, whose leg coefficients are built once per
graph.  Memoization across calls is ``functools.cache`` on private helpers,
unbounded for the life of the process (``cache_info()`` gives hits and
sizes): the residue forms per graph, the weighting sums on their unreduced
constants, the moduli and the profiles, the tau tables per modulus, and the
plan per (g, n, dmax, survivors); templates and automorphism counts are
built once per plan graph, inside the cached plan.  The plan asks the enumeration for only the graphs with room
for one unit of psi at every survivor leg, so the rest are never
canonicalized.
"""
from __future__ import annotations

import functools
import itertools
import os
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul

from .numerics import _difference_weights, binomial, factorial, lagrange_coefficient_rows
from .stablegraphs import (
    StableGraph,
    automorphism_count,
    enumerate_stable_graphs,
)
from .strata import DecoratedGraph, StrataElement, decorate_canonical_graph


class FitInstabilityError(RuntimeError):
    """Raised when a held-out node contradicts the degree bound in r."""


class ComputationGuardError(RuntimeError):
    """Raised when a computation exceeds the default scale guard."""


def _worker_pool(processes: int):
    """A pool of ``processes`` workers from one explicit start method: fork
    where the platform has it, since the workers read caches warmed in the
    parent (other start methods rebuild them in every worker)."""
    import multiprocessing  # here, so that runs without workers never load it

    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None).Pool(processes)


def _worker_count(jobs: int, tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: at most ``jobs``, the CPU
    count and the number of tasks."""
    if jobs < 1:
        raise ValueError(f"need a positive worker count, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def check_avector(a) -> tuple[int, ...]:
    a = tuple(int(v) for v in a)
    if sum(a) != 0:
        raise ValueError(f"leg values must sum to zero, got {a}")
    return a


# ----------------------------------------------------------------------
# weightings mod r
# ----------------------------------------------------------------------

@functools.cache
def _flow_forms(graph: StableGraph):
    """Solve the weighting conditions by spanning-tree propagation.

    Returns (leg_rows, free_rows, nfree) so that the side-0 residue of edge
    k is (sum_m leg_rows[k][m]*a_m + sum_j free_rows[k][j]*f_j) mod r, with
    one free variable per non-tree edge (nfree of them); the leg values
    enter through the leg sums at the vertices.  Loops never enter vertex
    conditions.
    """
    V = graph.num_vertices
    E = graph.num_edges
    # BFS spanning tree
    tree_edge_of: dict[int, int] = {}
    parent: dict[int, int] = {}
    order = [0]
    seen = {0}
    tree_edges = set()
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for k, (x, y) in enumerate(graph.edges):
                if k in tree_edges or x == y:
                    continue
                if x == v and y not in seen:
                    other = y
                elif y == v and x not in seen:
                    other = x
                else:
                    continue
                tree_edges.add(k)
                tree_edge_of[other] = k
                parent[other] = v
                seen.add(other)
                order.append(other)
                nxt.append(other)
        frontier = nxt
    free_edges = [k for k in range(E) if k not in tree_edges]
    findex = {k: j for j, k in enumerate(free_edges)}
    nfree = len(free_edges)

    forms: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * E
    for k in free_edges:
        fc = [0] * nfree
        fc[findex[k]] = 1
        forms[k] = ((0,) * V, tuple(fc))
    # back-substitute from the leaves toward the root
    for v in reversed(order[1:]):
        k_unknown = tree_edge_of[v]
        sc = [0] * V
        fc = [0] * nfree
        sc[v] += 1  # leg residues at v
        for k, (x, y) in enumerate(graph.edges):
            if k == k_unknown or x == y:
                continue
            if x == v or y == v:
                s = 1 if x == v else -1
                esc, efc = forms[k]
                for i in range(V):
                    sc[i] += s * esc[i]
                for j in range(nfree):
                    fc[j] += s * efc[j]
        # condition: sum + sign*t_unknown = 0  =>  t = -sign*sum
        x, y = graph.edges[k_unknown]
        sign = 1 if x == v else -1
        forms[k_unknown] = (
            tuple(-sign * c for c in sc),
            tuple(-sign * c for c in fc),
        )
    return (
        tuple(tuple(sc[v] for v in graph.legs) for sc, _ in forms),
        tuple(fc for _, fc in forms),
        nfree,
    )


@functools.cache
def _tau(r: int) -> list[int]:
    return [x * (r - x) for x in range(r)]


@functools.cache
def _tau_power_sum(r: int, alpha: int) -> int:
    """sum_x tau(x)^alpha over Z_r."""
    return sum(q**alpha for q in _tau(r))


def _tau_convolution(r: int, alpha: int, beta: int) -> list[int]:
    """CONV[u] = sum_{x+y = u mod r} tau(x)^alpha tau(y)^beta.

    tau(-x) = tau(x), so every sign pattern of the residue substitutions
    reduces to this one table, which is symmetric in alpha and beta.
    """
    return _ordered_convolution(r, min(alpha, beta), max(alpha, beta))


@functools.cache
def _ordered_convolution(r: int, alpha: int, beta: int) -> list[int]:
    tau = _tau(r)
    pa = [q**alpha for q in tau]
    pb = [q**beta for q in tau]
    table = [0] * r
    for x in range(r):
        if pa[x] == 0:
            continue
        qx = pa[x]
        for u in range(r):
            table[u] += qx * pb[u - x]
    return table


def _component_sum(r, comp_vars, comp_edges, c0s, exps):
    """Sum over the residues of one coupled block of free variables of the
    product of tau powers of its edges.

    comp_edges lists (edge index, coeff row restricted to comp_vars); the
    free edges themselves have zero constant, so one-variable blocks always
    reduce to the global tables unless two or more shifted edges remain.
    """
    tau = _tau(r)
    pure_alpha = 0
    shifted = []  # (const, exponent, coeff row)
    for k, row in comp_edges:
        c0 = c0s[k]
        e = exps[k]
        if c0 == 0 and sum(1 for c in row if c) == 1:
            pure_alpha += e
        else:
            shifted.append((c0, e, row))
    nvars = len(comp_vars)
    if nvars == 1:
        if not shifted:
            return _tau_power_sum(r, pure_alpha)
        if len(shifted) == 1:
            c0, e, _ = shifted[0]
            return _tau_convolution(r, pure_alpha, e)[c0]
        total = 0
        for f in range(r):
            prod = tau[f] ** pure_alpha if pure_alpha else 1
            for c0, e, row in shifted:
                q = tau[(c0 + row[0] * f) % r]
                if q == 0:
                    prod = 0
                    break
                prod *= q**e
            total += prod
        return total
    if nvars == 2:
        a_only, b_only, both = [], [], []
        for c0, e, row in shifted:
            nz = [i for i, c in enumerate(row) if c]
            (both if len(nz) == 2 else (a_only if nz == [0] else b_only)).append(
                (c0, e, row)
            )
        # split the pure weight: pure edges touch exactly one variable
        alpha = [0, 0]
        for k, row in comp_edges:
            if c0s[k] == 0 and sum(1 for c in row if c) == 1:
                var = next(i for i, c in enumerate(row) if c)
                alpha[var] += exps[k]
        if len(both) == 1 and not a_only and not b_only:
            c0, e, _ = both[0]
            conv = _tau_convolution(r, alpha[0], alpha[1])
            total = 0
            for u in range(r):
                q = tau[(c0 + u) % r]
                if q:
                    total += conv[u] * q**e
            return total
    # generic fallback: brute force over the block
    total = 0
    for fvec in itertools.product(range(r), repeat=nvars):
        prod = 1
        for k, row in comp_edges:
            t = (c0s[k] + sum(c * f for c, f in zip(row, fvec))) % r
            q = tau[t]
            if q == 0:
                prod = 0
                break
            prod *= q ** exps[k]
        total += prod
    return total


def weighting_power_sums(graph: StableGraph, a, rs, profiles) -> dict[tuple[int, ...], tuple[int, ...]]:
    """For each edge-exponent profile (m_e), the integer sums over weightings
    of prod_e (w(h_e) * w(h_e'))^(m_e + 1), one per modulus in ``rs``.

    The sums depend on the leg values only through the per-edge affine
    residue forms, whose constants are integer combinations of the leg
    values; the cache key holds those unreduced constants with the
    free-variable rows, the moduli and the profiles, so it is built once per
    call, and the reduction mod r happens per modulus inside.  The edge order
    ties the profile entries to the forms.
    """
    leg_rows, free_rows, nfree = _flow_forms(graph)
    values = tuple([_dot(row, a) for row in leg_rows])
    return _power_sums(values, free_rows, nfree, tuple(rs), tuple(sorted(profiles)))


@functools.cache
def _power_sums(values, free_rows, nfree: int, rs, profiles):
    """:func:`weighting_power_sums` from the unreduced edge constants
    ``values`` and the free-variable rows of the edge residue forms."""
    consts = tuple(zip(values, free_rows))

    # group free variables into coupled blocks; the grouping is the same for
    # every modulus
    parent = list(range(nfree))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for _, row in consts:
        touched = [i for i, c in enumerate(row) if c]
        for i in touched[1:]:
            parent[find(touched[0])] = find(i)
    members_of: dict[int, list[int]] = {}
    for i in range(nfree):
        members_of.setdefault(find(i), []).append(i)
    block_edges: dict[int, list] = {root: [] for root in members_of}
    const_edges = []
    for k, (_, row) in enumerate(consts):
        touched = [i for i, c in enumerate(row) if c]
        if touched:
            root = find(touched[0])
            block_edges[root].append((k, tuple(row[i] for i in members_of[root])))
        else:
            const_edges.append(k)
    blocks = [(members_of[root], block_edges[root]) for root in members_of]

    per_r = [
        _power_sums_mod(r, [c % r for c, _ in consts], const_edges, blocks, profiles)
        for r in rs
    ]
    return {p: tuple(sums[j] for sums in per_r) for j, p in enumerate(profiles)}


def _power_sums_mod(r: int, c0s, const_edges, blocks, profiles) -> list[int]:
    """The power sum of each profile at one modulus r; ``c0s`` are the edge
    constants reduced mod r, ``blocks`` the coupled blocks of free variables
    with their edges, evaluated through shared convolution tables of
    tau(x) = x(r-x)."""
    tau = _tau(r)
    out = []
    for p in profiles:
        exps = [m + 1 for m in p]
        total = 1
        for k in const_edges:
            q = tau[c0s[k]]
            if q == 0:
                total = 0
                break
            total *= q ** exps[k]
        if total:
            for members, comp_edges in blocks:
                total *= _component_sum(r, members, comp_edges, c0s, exps)
                if total == 0:
                    break
        out.append(total)
    return out


# ----------------------------------------------------------------------
# the fixed-r class
# ----------------------------------------------------------------------

def _graph_templates(graph: StableGraph, dmax: int, reserved_markings=frozenset()):
    """Decoration templates for one graph: every way to place psi exponents
    from the edge series and leg exponentials within the degree caps.

    ``reserved_markings`` holds one unit of capacity at each listed leg for a
    later psi multiplication; graphs and templates with no room are dropped.
    Returns (groups, profiles, common).  The templates sharing an edge
    profile and leg exponents differ only by their base coefficient, so each
    group is (profile, leg exponents, members), the members being
    (base numerator over ``common``, decorated graph) pairs; ``profiles``
    lists every edge profile, sorted.
    """
    E = graph.num_edges
    extra = dmax - E
    caps = list(graph.capacities())
    for m in reserved_markings:
        caps[graph.legs[m - 1]] -= 1
    if extra < 0 or any(c < 0 for c in caps):
        return (), (), 1

    side_vertices = []
    for k, (u, w) in enumerate(graph.edges):
        side_vertices.append((u, w))

    templates = []
    profiles = set()
    no_kappa = tuple(() for _ in range(graph.num_vertices))

    def edge_profiles(budget):
        for profile in itertools.product(*(range(budget + 1) for _ in range(E))):
            if sum(profile) <= budget:
                yield profile

    # each template's base coefficient is kept as an integer fraction
    # (numerator, denominator) until the common denominator is known
    for profile in edge_profiles(extra):
        rem_after_edges = extra - sum(profile)
        edge_sign = (-1) ** sum(profile)
        edge_den = 1
        for m in profile:
            edge_den *= 2 ** (m + 1) * factorial(m + 1)
        split_ranges = [range(m + 1) for m in profile]
        for splits in itertools.product(*split_ranges):
            vdeg = [0] * graph.num_vertices
            okay = True
            for k, (m, j) in enumerate(zip(profile, splits)):
                u, w = side_vertices[k]
                vdeg[u] += j
                vdeg[w] += m - j
                if vdeg[u] > caps[u] or vdeg[w] > caps[w]:
                    okay = False
                    break
            if not okay:
                continue
            split_num = edge_sign
            for m, j in zip(profile, splits):
                split_num *= binomial(m, j)
            psi_edges = tuple((j, m - j) for m, j in zip(profile, splits))

            def leg_loop(m, budget, vdeg_now, cvec, leg_den):
                # leg_den = prod over the placed legs of 2^c c!
                if m > graph.n:
                    key = decorate_canonical_graph(graph, tuple(cvec), psi_edges, no_kappa)
                    den = edge_den * leg_den
                    shared = gcd(split_num, den)
                    templates.append(
                        (profile, tuple(cvec), split_num // shared, den // shared, key)
                    )
                    return
                v = graph.legs[m - 1]
                top = min(budget, caps[v] - vdeg_now[v])
                for c in range(top + 1):
                    cvec.append(c)
                    vdeg_now[v] += c
                    leg_loop(m + 1, budget - c, vdeg_now, cvec, leg_den * 2**c * factorial(c))
                    vdeg_now[v] -= c
                    cvec.pop()

            leg_loop(1, rem_after_edges, list(vdeg), [], 1)
        profiles.add(profile)

    # rescale bases to a common integer numerator
    common = lcm(*(den for _, _, _, den, _ in templates))
    members: dict[tuple, list] = {}
    for profile, legs_c, num, den, key in templates:
        members.setdefault((profile, legs_c), []).append((num * (common // den), key))
    groups = tuple(
        (profile, legs_c, tuple(group)) for (profile, legs_c), group in members.items()
    )
    return groups, tuple(sorted(profiles)), common


@functools.cache
def _class_plan(g: int, n: int, dmax: int, survivors: frozenset) -> tuple:
    """Surviving graphs with their decoration templates, precomputed once per
    (g, n, dmax, survivor set)."""
    plan = []
    for graph in enumerate_stable_graphs(
        g, n, max_edges=dmax, reserved_markings=survivors
    ):
        templates, profiles, common = _graph_templates(graph, dmax, survivors)
        if templates:
            aut = automorphism_count(graph, check=False)
            plan.append((graph, templates, profiles, graph.h1(), aut, common))
    return tuple(plan)


def _check_input(g: int, n: int, a, rs, dmax: int) -> None:
    """The input checks shared by the fixed-r class and the constant term:
    bad input raises ValueError."""
    if len(a) != n:
        raise ValueError("leg value count must equal n")
    if any(r < 1 for r in rs):
        raise ValueError("modulus must be positive")
    if dmax < 0:
        raise ValueError(f"degree must be nonnegative, got {dmax}")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"({g},{n}) is unstable")
    if dmax > 3 * g - 3 + n:
        raise ValueError("degree cap exceeds the dimension")


def _graph_sums(plan, nodes, form, held_out, dmax: int, sample):
    """One pass over the plan graphs ``plan`` for a weighted sum of graph sums
    sampled at every modulus in ``nodes``, in integers.

    ``form`` and the ``held_out`` forms are integer linear forms on the
    nodes.  ``sample(graph, groups)`` gives the graph's points as
    (leg vectors, check weights, group weights, den): per point, each edge
    profile's weighting sums are put over m = lcm(r^h1), every held-out form
    must vanish on them, or :class:`FitInstabilityError` is raised, and
    ``form`` turns them into one integer (once per distinct tuple of sums),
    so each profile gets one column of integers over the points.  Unless the
    check weights are None, their dot product with every column must vanish
    too.  Group i of the templates gets the dot product of its weights
    (None for none) with its profile's column; weights may stop short of the
    points, leaving the last ones to the check.  So the template loop runs
    once per graph for all points.  Yields (terms, den) per plan graph:
    terms maps each decorated graph of that graph to an integer numerator
    over den.  Every key belongs to exactly one graph, so the denominators
    of different graphs never meet.
    """
    by_h1 = {}
    for graph, groups, profiles, h1, aut, common in plan:
        if h1 not in by_h1:
            # each node's sum is over r^h1; the forms put them over m = lcm(r^h1)
            m = lcm(*(r**h1 for r in nodes))
            scales = [m // r**h1 for r in nodes]
            by_h1[h1] = (
                m,
                list(map(mul, form, scales)),
                [list(map(mul, held, scales)) for held in held_out],
                {},  # the value of each checked tuple of sums met so far
            )
        m, value_form, checks, checked = by_h1[h1]
        legs, check_weights, group_weights, den = sample(graph, groups)
        columns = {profile: [] for profile in profiles}
        for a in legs:
            for profile, psums in weighting_power_sums(graph, a, nodes, profiles).items():
                value = checked.get(psums)
                if value is None:
                    for check in checks:
                        if _dot(check, psums):
                            raise FitInstabilityError(
                                f"a weighting sum is not a polynomial of degree <= {2 * dmax} "
                                f"in r on the nodes {nodes[0]}..{nodes[-1]}"
                            )
                    value = checked[psums] = _dot(value_form, psums)
                columns[profile].append(value)
        if check_weights is not None and any(
            _dot(check_weights, column) for column in columns.values()
        ):
            raise FitInstabilityError(
                f"a weighting sum is not a polynomial of degree <= {2 * dmax} "
                "in the vertex leg sums"
            )
        columns = {profile: column for profile, column in columns.items() if any(column)}
        local: dict[DecoratedGraph, int] = {}
        for weights, (profile, _, members) in zip(group_weights, groups):
            column = columns.get(profile)
            if weights is None or column is None:
                continue
            total = _dot(weights, column)
            if total:
                for base, key in members:
                    local[key] = local.get(key, 0) + base * total
        yield local, common * aut * m * den


def _point_sample(a):
    """The sampling of :func:`_graph_sums` at the one leg vector ``a``: each
    template group is weighted by its leg power prod_m a_m^(2 c_m), memoized
    on the leg exponents across graphs."""
    squares = [v * v for v in a]
    powers: dict[tuple[int, ...], list[int]] = {}

    def sample(graph, groups):
        weights = []
        for _, legs, _ in groups:
            power = powers.get(legs)
            if power is None:
                apow = 1
                for sq, c in zip(squares, legs):
                    if c:
                        apow *= sq**c
                power = powers[legs] = [apow]
            weights.append(power)
        return (a,), None, weights, 1

    return sample


def fixed_r_class(g: int, n: int, a, r: int, dmax: int, survivors=frozenset()) -> StrataElement:
    """The weighted graph sum at a fixed modulus r, truncated to total degree
    at most dmax.  Graphs with more than dmax edges cannot contribute."""
    a = check_avector(a)
    _check_input(g, n, a, (r,), dmax)
    plan = _class_plan(g, n, dmax, frozenset(survivors))
    terms = {}
    for local, den in _graph_sums(plan, [r], [1], (), dmax, _point_sample(a)):
        for key, num in local.items():
            if num:
                terms[key] = Fraction(num, den)
    return StrataElement(g, n, terms)


def _dot(u, v) -> int:
    """Dot product, truncated to the shorter sequence."""
    return sum(map(mul, u, v))


def _constant_terms(plan, sample, dmax: int, r0: int):
    """The constant term in r of the graph sums over ``plan`` sampled by
    ``sample`` (see :func:`_graph_sums`), from the 2*dmax + 3 nodes r0,
    r0+1, ...: the Lagrange-at-zero weights on the first 2*dmax + 1 nodes
    give the value at r = 0, and the (2*dmax + 1)-th forward differences
    ending at the two held-out nodes must both vanish.  Returns
    (terms, nodes), terms mapping each decorated graph to (numerator,
    denominator) in integers."""
    count = 2 * dmax + 1
    nodes = [r0 + t for t in range(count + 2)]
    rows, weights_den = lagrange_coefficient_rows(nodes[:count])
    diff = _difference_weights(count)
    terms = {}
    for local, den in _graph_sums(plan, nodes, rows[0], (diff, [0] + diff), dmax, sample):
        for key, num in local.items():
            if num:
                terms[key] = (num, weights_den * den)
    return terms, nodes


def constant_term_class(
    g: int,
    n: int,
    a,
    dmax: int,
    r0: int | None = None,
    survivors=frozenset(),
):
    """Constant term in r of the graph sum.

    For large r every coefficient is a polynomial in r of degree at most
    2*dmax: a graph with edge exponents (m_e) weighs its r^h1 weightings by
    a polynomial of degree 2*sum(m_e + 1) <= 2*dmax in the edge residues,
    and after the factor r^(-h1) that sum is a polynomial in r of the same
    degree (Janda-Pandharipande-Pixton-Zvonkine, section 3).  The class is
    sampled at the 2*dmax + 3 nodes r0, r0+1, ... in one integer pass over
    the plan (every node's power sums come from one call per graph).  Per
    graph and edge profile, the Lagrange-at-zero weights on the first
    2*dmax + 1 nodes give the sum's value at r = 0, and the
    (2*dmax + 1)-th forward differences ending at the two held-out nodes
    both vanish exactly when the fit through the first nodes passes through
    the held-out ones; every coefficient is a fixed combination of its
    graph's profile sums, so the check covers every coefficient.  Returns
    (element, meta); a held-out node off the fit raises
    :class:`FitInstabilityError`.
    """
    a = check_avector(a)
    if r0 is None:
        r0 = 2 * max((abs(v) for v in a), default=1) * max(dmax, 1) + 3
    _check_input(g, n, a, (r0,), dmax)
    plan = _class_plan(g, n, dmax, frozenset(survivors))
    terms, nodes = _constant_terms(plan, _point_sample(a), dmax, r0)
    for key, (num, den) in terms.items():  # in place: one dict of terms at a time
        terms[key] = Fraction(num, den)
    return StrataElement(g, n, terms), {
        "r0": r0,
        "r_nodes": nodes,
        "dmax": dmax,
    }


def pixton_class(g: int, n: int, a, dmax: int, **kwargs) -> StrataElement:
    """Constant term of the graph sum (the class itself, degrees <= dmax)."""
    element, _ = constant_term_class(g, n, a, dmax, **kwargs)
    return element


def _leg_partition(graph: StableGraph) -> tuple[tuple[int, ...], ...]:
    """The legs 2..n grouped by vertex, for every vertex other than leg 1's
    that carries some: the vertices whose leg sums A_i are the variables of
    the graph's weighting sums.  Ordered by lowest leg."""
    first = graph.legs[0]
    blocks: dict[int, list[int]] = {}
    for m, v in enumerate(graph.legs[1:], start=2):
        if v != first:
            blocks.setdefault(v, []).append(m)
    return tuple(sorted(tuple(ms) for ms in blocks.values()))


def _multinomial(parts) -> int:
    """(sum parts)! / prod(part!)."""
    value = factorial(sum(parts))
    for x in parts:
        value //= factorial(x)
    return value


def _monomial_sample(exponents, d: int):
    """The sampling of :func:`_graph_sums` that extracts the coefficient of
    prod_{j>=2} a_j^(b_j) from the degree-d template groups of each graph.

    A graph's weighting sums see the leg values only through the leg sums
    A_i at the vertices of its leg partition, as polynomials P(A) of degree
    <= D = 2d; A_i goes on the lowest leg at vertex i, every other leg >= 2
    gets 0, and a_1 = -sum(A).  P is sampled on the grid {0..D}^k, where the
    Lagrange weights lam_beta(s) read off the coefficient of A^beta, and at
    the held-out point A* = (D+1, ..., D+1), which the grid's tensor
    extrapolation sum_A prod_i (-1)^(D-A_i) C(D+1, A_i) P(A) must reproduce
    (the (D+1)-th forward difference, solved for its last node).
    The group with leg exponents c weighs the grid by
    omega_c(A) = sum_beta T(beta, c) prod_i lam_beta_i(A_i), T(beta, c) being
    the coefficient of prod_{j>=2} a_j^(b_j) in
    prod_i (sum_{j in S_i} a_j)^beta_i * prod_m a_m^(2 c_m) with
    a_1 = -sum_{j>=2} a_j.  The weights are integers over scale^k, lam being
    integer rows over scale; omega is memoized per (leg partition, c).
    """
    degree = 2 * d
    b = (0,) + tuple(exponents)
    n = len(b)
    lam, scale = lagrange_coefficient_rows(range(degree + 1))
    extrapolation = [-w for w in _difference_weights(degree + 1)]
    partitions: dict[tuple, tuple] = {}
    omegas: dict[tuple, list[int] | None] = {}

    def points(parts):
        grid = list(itertools.product(range(degree + 1), repeat=len(parts)))
        checks = [prod(extrapolation[v] for v in A) for A in grid] + [-1]
        grid.append((degree + 1,) * len(parts))  # A*, for the check only
        legs = []
        for A in grid:
            a = [0] * n
            for ms, v in zip(parts, A):
                a[ms[0] - 1] = v
            a[0] = -sum(A)
            legs.append(tuple(a))
        # with no leg sums, A* is the one grid point again
        return (legs, checks) if parts else (legs[:1], None)

    def omega(parts, c):
        e = [bj - 2 * cj for bj, cj in zip(b, c)]
        if min(e[1:], default=0) < 0:
            return None
        # a_1^(2 c_1) = (a_2 + ... + a_n)^(2 c_1) supplies y_j of each leg's
        # remaining exponent e_j: all of it at leg 1's vertex, spare in total
        # at the variable vertices, whose leg sums supply the rest
        placed = [m for ms in parts for m in ms]
        spare = 2 * c[0] - sum(e[1:]) + sum(e[m - 1] for m in placed)
        if spare < 0:
            return None
        vector = [0] * (degree + 1) ** len(parts)
        for ys in itertools.product(*(range(min(e[m - 1], spare) + 1) for m in placed)):
            if sum(ys) != spare:
                continue
            y = dict(zip(placed, ys))
            t = _multinomial([y.get(m, e[m - 1]) for m in range(2, n + 1)])
            tensor = [t]
            for ms in parts:
                xs = [e[m - 1] - y[m] for m in ms]
                beta = sum(xs)
                if beta > degree:
                    break
                t = _multinomial(xs)
                tensor = [u * t * w for u in tensor for w in lam[beta]]
            else:
                vector = list(map(add, vector, tensor))
        return vector if any(vector) else None

    def sample(graph, groups):
        parts = _leg_partition(graph)
        entry = partitions.get(parts)
        if entry is None:
            entry = partitions[parts] = points(parts)
        weights = []
        for profile, c, _ in groups:
            if graph.num_edges + sum(profile) + sum(c) != d:
                weights.append(None)
                continue
            key = (parts, c)
            if key not in omegas:
                omegas[key] = omega(parts, c)
            weights.append(omegas[key])
        legs, checks = entry
        return legs, checks, weights, scale ** len(parts)

    return sample


def _chunk_worker(args):
    """The constant term of the graph sums of every ``step``-th plan graph
    from ``start``, sampled by :func:`_monomial_sample`, as integer
    numerators and denominators per decorated graph; used directly and as
    the multiprocessing worker."""
    g, n, exponents, d, r0, survivors, start, step = args
    plan = _class_plan(g, n, d, frozenset(survivors))[start::step]
    return _constant_terms(plan, _monomial_sample(exponents, d), d, r0)


def monomial_coefficient(
    g: int,
    n: int,
    exponents,
    d: int,
    allow_large: bool = False,
    survivors=frozenset(),
    cost_budget: int = 1_000_000,
    jobs: int = 1,
):
    """Coefficient of prod_j a_j^(b_j) in the degree-d part of the class,
    with a_1 = -(a_2 + ... + a_n).

    The r-constant term of a graph's weighting sum is a polynomial of degree
    <= D = 2d in the leg sums of the vertices other than leg 1's, so each
    plan graph is sampled at the (D+1)^k points of its k leg sums and one
    held-out point, with integer weights per template group that read off
    the target monomial (see :func:`_monomial_sample`); the constant term in
    r is taken at every point as in :func:`constant_term_class`, with both
    held-out r nodes checked.  A held-out point off the polynomial in the leg
    sums, like a held-out r node off the fit, raises
    :class:`FitInstabilityError`.  With ``jobs`` > 1 the plan graphs are
    split into chunks over worker processes, each returning integer
    numerators; results are identical for any worker count.  Returns
    (element, meta).

    The default guard prices the A-point evaluations times the modulus
    (from the largest leg value the points reach) times the 2*d + 3 r nodes,
    before any sampling, and refuses jobs above ``cost_budget`` unless
    ``allow_large`` is set.
    """
    exponents = tuple(int(b) for b in exponents)
    survivors = frozenset(survivors)
    if len(exponents) != n - 1:
        raise ValueError("need one exponent per marking 2..n")
    if min(exponents, default=0) < 0:
        raise ValueError(f"exponents must be nonnegative, got {exponents}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if d > 3 * g - 3 + n:
        raise ValueError("degree exceeds the dimension")
    degree = 2 * d
    # every enumerated graph has room for its undecorated template, so the
    # plan keeps them all: a graph with k leg sums samples the grid
    # {0..degree}^k and, when k > 0, the held-out point, where the largest
    # leg value |a_1| = k (degree + 1) is reached
    sizes = [
        len(_leg_partition(graph))
        for graph in enumerate_stable_graphs(
            g, n, max_edges=d, reserved_markings=survivors
        )
    ]
    evaluations = sum((degree + 1) ** k + (k > 0) for k in sizes)
    r0 = 2 * max(max(sizes, default=0) * (degree + 1), 1) * max(d, 1) + 3
    cost = evaluations * r0 * (2 * d + 3)
    if cost > cost_budget and not allow_large:
        raise ComputationGuardError(
            f"estimated cost {cost} (evaluations x modulus x nodes) exceeds "
            "the default budget; pass allow_large to proceed"
        )

    plan = _class_plan(g, n, d, survivors)  # warmed before any fork
    workers = _worker_count(jobs, len(plan))
    tasks = [
        (g, n, exponents, d, r0, tuple(sorted(survivors)), start, workers)
        for start in range(workers)
    ]
    if workers > 1:
        with _worker_pool(workers) as pool:
            partials = pool.map(_chunk_worker, tasks)
    else:
        partials = [_chunk_worker(tasks[0])]
    terms = {}
    for chunk, nodes in partials:
        for key, (num, den) in chunk.items():
            terms[key] = Fraction(num, den)
    return StrataElement(g, n, terms), {
        "grid_degree": degree,
        "evaluations": evaluations,
        "plan_graphs": len(plan),
        "r0": r0,
        "r_nodes": nodes,
    }
