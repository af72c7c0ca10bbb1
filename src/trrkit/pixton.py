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
over the plan, layout by layout.  The values a graph's points give depend
only on its layout: the edge list and the vertex leg sums at each point,
which are all the weighting sums are given.  Per layout, one lookup in
the store of checked columns (:data:`_checked_columns`, filled only by
:func:`_layout_columns`) gives one column of integers over its points per
edge profile: on a miss, at each point (:func:`_constant_term_sums`) the
weighting power sums at every r node are put over the common denominator
lcm(r^h1), the two held-out differences are checked and the
Lagrange-at-zero weights give the constant term, and the columns are
checked on the layer before they are stored; the columns serve every graph
of the layout, and each caller runs its own template loop over them.  The
fixed-r class and the constant term at one leg vector have one point per
layout: the class plan holds its graphs grouped by leg map, so a call
computes the vertex leg sums once per leg map and groups the graphs by edge
list and those sums in one dict (at (2,7) in degree 3 with five survivors,
2,654 leg maps for 6,416 graphs); each template group then takes one
integer, its profile's one-point value times its leg power prod_m
a_m^(2 c_m), memoized on the leg exponents within the call, and each
distinct (numerator, denominator) pair of the call becomes one Fraction,
which every decorated graph with that value shares.  A monomial
coefficient samples each layout on the simplex of the leg sums A at its
part vertices, |A| <= 2d, leg 1's vertex taking -|A| (the weighting
conditions see the leg values only through the vertex leg sums, and the
constant term in r has total degree <= 2d in A), each graph weighted per
group by an integer functional of its own leg partition that reads off the
target monomial, dotted with its profile's column in the template loop of
:func:`_chunk_worker`, and checks every (2d+1)-th Newton difference on the layer
|A| = 2d + 1; worker processes each take whole edge lists and return
integer numerators, which the parent merges.  The 0/1 shifts of one
relation are several (exponents, forget) targets of one (g, n, d), and one
walk serves them all (:func:`_monomial_coefficients`): one plan holds every
forget count's placements per entry, and the walk reads each layout's
constant terms once, checks each column once and weights it per target.
Legs that omega multiplies by psi and forgets are forgotten by the
dilaton equation: the plan runs on the graphs without them and places
them on the vertices (:func:`_placements`), one entry per graph and set
of vertices with leg sums, grouped by layout once, when the plan is
built, with only the template groups of degree d.
A call evaluates only the layouts whose group weights read some edge
profile, each for every profile of its edge list, so every column of a
layout read is computed and checked, and one stored entry serves every
later walk that reads the layout at the same r nodes and degree: the
genus-1 lemmas hold 70 entries at 475 A-points, in 52 layouts of which the
26 read evaluate 196; the (2,1,()) comparison 94 entries at 1,473 (39 of 87
layouts read, 809 evaluations), (2,2,(0,)) 317 at 8,493 (154 of 190, 5,061)
and (3,1,()) 1,213 at 72,289 (646 of 1,092, 48,256).  A weighting
sum is reduced over the graph itself: loops are summed out, a vertex whose
edges all go to one neighbour fixes their residue sum, a degree-2 vertex
joins its two edges and parallel edges merge by convolution, at O(r) per
step (O(r^2) for a merge, read from a cached table for two pure tau
powers); only a K4 minor, six edges or more, needs a sum over one edge's
residue.  Memoization across calls is ``functools`` caches on private
helpers (``cache_info()`` gives hits and sizes), unbounded for the life of
the process: the reduction steps per edge list, the tau tables per modulus,
the forms that read a constant term off the sums per (r nodes, h1),
the edge profiles per (edge count, budget), the class plan per (g, n, dmax,
survivors), the monomial plan per (g, n, d, forget counts), which holds
its layouts' points and check rows, one tuple per geometry, the guard's
admitted verdicts per budget and job, the simplex points with their sparse
coefficient and check rows per (number of leg sums, 2d)
(``numerics._simplex_tables``), from which a plan makes its layouts'
points, the group weights per (exponents, d, leg partition, leg
exponents), dense over the simplex, and the placed weights per (exponents,
d, placements, leg exponents), so that a repeated walk weighs nothing.
The checked constant terms are kept per layout read, keyed (edge list and
the data that fixes the layout's points, r nodes, degree), as the layout's
scale and its nonzero columns (:data:`_checked_columns`, unbounded like the
caches above, with the same ``cache_info()`` and ``cache_clear()``), so a
warm layout is one lookup and goes straight to the template loop; the
degree stays in the key, since one modulus (a fixed-r class) does not fix
it.  A layout's points are computed only on a miss, and the values of a
point are kept, by its leg sums, only while the walk is on its edge list:
graphs of different layouts meet at equal leg sums, as where one is 0,
and the monomial plan keeps the layouts of one edge list together, so
the (3,1,()) comparison computes 26,286 points at its 48,256 A-points
(646 layouts), the walk of the relation (3,1,(2,)) 87,795 and that of
(3,1,(1,1)) 199,036, each once.  A layout with a sum off the fit,
in r or on the layer, raises and stores nothing.
Templates and automorphism counts are built once per plan graph, inside
the cached plan, every template base over the one denominator 2^dmax
dmax!; a class plan entry keeps its graph, its template groups and their
denominator, a monomial plan entry also its placements per forget count,
and the sums derive h1 from a layout's edge list and points.
A class plan asks the enumeration for only the graphs with room for one
unit of psi at every survivor leg, so the rest are never canonicalized.
"""
from __future__ import annotations

import collections
import functools
import itertools
from fractions import Fraction
from math import lcm, prod
from operator import add, mul

from .numerics import (
    _difference_weights,
    _multinomial,
    _simplex_tables,
    binomial,
    factorial,
    lagrange_coefficient_rows,
)
from .runtime import (
    ComputationGuardError,
    FitInstabilityError,
    _worker_count,
    _worker_pool,
)
from .stablegraphs import (
    StableGraph,
    _leg_maps,
    _valences,
    automorphism_count,
    enumerate_stable_graphs,
)
from .strata import DecoratedGraph, StrataElement, decorate_canonical_graph


# the price above which the one guard, _check_cost, refuses monomial_coefficient
# and the CLI's fixed-r class and constant term, unless allowed
COST_BUDGET = 1_000_000


def check_avector(a) -> tuple[int, ...]:
    a = tuple(int(v) for v in a)
    if sum(a) != 0:
        raise ValueError(f"leg values must sum to zero, got {a}")
    return a


# ----------------------------------------------------------------------
# weightings mod r
# ----------------------------------------------------------------------

@functools.cache
def _tau(r: int) -> list[int]:
    return [x * (r - x) for x in range(r)]


@functools.cache
def _tau_power_sum(r: int, alpha: int) -> int:
    """sum_x tau(x)^alpha over Z_r."""
    return sum(q**alpha for q in _tau(r))


@functools.cache
def _tau_convolution(r: int, alpha: int, beta: int) -> list[int]:
    """CONV[u] = sum_{x+y = u mod r} tau(x)^alpha tau(y)^beta, for
    alpha <= beta (the table is symmetric in them)."""
    return _convolve(r, _values(r, alpha), _values(r, beta))


# An edge function is a function on Z_r of the residue on one half-edge: an
# int alpha stands for tau(x)^alpha, read from ``_tau`` and the same on both
# halves, since tau(-x) = tau(x); only the edges that the reduction composes
# become lists of their r values.

def _values(r: int, f) -> list[int]:
    return f if type(f) is list else [q**f for q in _tau(r)]


def _at(r: int, f, x: int) -> int:
    return f[x] if type(f) is list else _tau(r)[x] ** f


def _side(f, flip: bool):
    """f, or with ``flip`` x -> f(-x): its function on the other half."""
    return f[:1] + f[:0:-1] if flip and type(f) is list else f


def _convolve(r: int, f, g, u=None):
    """The function x -> sum_{y+z = x} f(y) g(z) of two parallel edges, or
    its value at u; two pure powers read the cached table."""
    if type(f) is int and type(g) is int:
        table = _tau_convolution(r, min(f, g), max(f, g))
        return table if u is None else table[u]
    pf, pg = _values(r, f), _values(r, g)
    if u is not None:
        return _dot(pf, pg[u::-1] + pg[:u:-1])
    return [_dot(pf, pg[x::-1] + pg[:x:-1]) for x in range(r)]


@functools.cache
def _reduction(edges: tuple[tuple[int, int], ...]) -> tuple:
    """The steps that sum the weightings of a graph with these edges, by
    series-parallel reduction of the graph itself.

    Slot k starts as edge k.  A slot (u, v) holds the function of the
    residue x on its half at u, v's half carrying -x, and vertex v's
    condition is A_v + (the residues on its halves) = 0 mod r, A_v being its
    leg sum.  Loops enter no condition and are summed out (``sum``).  Then,
    while edges are left, the first rule that applies gives the next step:

    - ``fix``: the one or two edges at v all go to u, so their residues at v
      sum to -A_v, which picks one value of the edge or of the convolution
      of the two, and u takes over A_v;
    - ``series``: v has two edges, to u and to w, which become one edge
      (u, w) with function y -> f1(y) f2(y - A_v), f1 taken on u's half and
      f2 on v's, and w takes over A_v;
    - ``merge``: two parallel edges become one by convolution, pure powers
      first, so that those read the cached tables;
    - ``split``: no rule applies, which needs a K4 minor and so six edges or
      more; the sum runs over one edge's residue, moved into the constants
      at its ends, and the rest reduces on.

    A step names its slots with a flag for the function on the other half;
    composed edges take the next free slot.  Every vertex constant left when
    the edges are gone must vanish.
    """
    steps = tuple(("sum", k) for k, (u, v) in enumerate(edges) if u == v)
    live = {k: (u, v) for k, (u, v) in enumerate(edges) if u != v}
    return steps + _reduction_steps(live, len(edges), len(edges))


def _reduction_steps(live: dict, slots: int, pure: int) -> tuple:
    """The steps of :func:`_reduction` for the non-loop slots ``live``
    (slot -> (u, v), changed in place); new slots are numbered from
    ``slots``, and the slots below ``pure`` are still pure powers."""
    steps = []
    while live:
        at: dict[int, list[int]] = {}
        for k, (u, v) in live.items():
            at.setdefault(u, []).append(k)
            at.setdefault(v, []).append(k)
        # the other end of each edge at v
        ends = {v: [sum(live[k]) - v for k in ks] for v, ks in at.items()}
        leaf = next((v for v in at if len(at[v]) <= 2 and len(set(ends[v])) == 1), None)
        middle = next((v for v in at if len(at[v]) == 2), None)
        if leaf is not None:
            ks = tuple((k, live.pop(k)[0] != leaf) for k in at[leaf])
            steps.append(("fix", leaf, ends[leaf][0], ks))
        elif middle is not None:
            (k, l), (u, w) = at[middle], ends[middle]
            ks = (k, live.pop(k)[0] != u), (l, live.pop(l)[0] != middle)
            steps.append(("series", middle, w) + ks)
            live[slots] = (u, w)
            slots += 1
        else:
            bundles: dict[tuple[int, int], list[int]] = {}
            for k, (u, v) in live.items():
                bundles.setdefault((min(u, v), max(u, v)), []).append(k)
            parallel = next((ks for ks in bundles.values() if len(ks) > 1), None)
            if parallel is None:
                k = next(iter(live))
                u, w = live.pop(k)
                steps.append(("split", k, u, w, _reduction_steps(live, slots, pure)))
                break
            k, l = sorted(parallel, key=lambda k: k >= pure)[:2]
            u, w = live.pop(k)
            steps.append(("merge", (k, False), (l, live.pop(l)[0] != u)))
            live[slots] = (u, w)
            slots += 1
    return tuple(steps)


def _reduce(r: int, steps, A: list[int], fs: list) -> int:
    """The weighting sum by the :func:`_reduction` ``steps`` at modulus r,
    from the vertex constants ``A`` (mod r) and the slot functions ``fs``,
    both changed in place."""
    total = 1
    for step in steps:
        kind = step[0]
        if kind == "sum":
            f = fs[step[1]]
            total *= _tau_power_sum(r, f) if type(f) is int else sum(f)
        elif kind == "fix":
            _, v, u, ks = step
            f = [_side(fs[k], flip) for k, flip in ks]
            x = -A[v] % r
            total *= _at(r, f[0], x) if len(f) == 1 else _convolve(r, *f, x)
            A[u] = (A[u] + A[v]) % r
            A[v] = 0
        elif kind == "series":
            _, v, w, (k, flip_k), (l, flip_l) = step
            s = A[v]
            g = _values(r, _side(fs[l], flip_l))
            # g[-s:] + g[:-s] is y -> g(y - s)
            fs.append(list(map(mul, _values(r, _side(fs[k], flip_k)), g[-s:] + g[:-s])))
            A[w] = (A[w] + s) % r
            A[v] = 0
        elif kind == "merge":
            _, (k, flip_k), (l, flip_l) = step
            fs.append(_convolve(r, _side(fs[k], flip_k), _side(fs[l], flip_l)))
        else:
            _, k, u, w, rest = step
            split = 0
            for x, fx in enumerate(_values(r, fs[k])):
                if fx:
                    B = A.copy()
                    B[u] = (B[u] + x) % r
                    B[w] = (B[w] - x) % r
                    split += fx * _reduce(r, rest, B, fs.copy())
            return total * split
        if not total:
            return 0
    return 0 if any(A) else total


def weighting_power_sums(edges, leg_sums, rs, profiles) -> dict[tuple[int, ...], tuple[int, ...]]:
    """For each edge-exponent profile (m_e), the integer sums over weightings
    of prod_e (w(h_e) * w(h_e'))^(m_e + 1), one per modulus in ``rs``, for a
    graph with these ``edges`` ((u, v) pairs) and vertex leg sums
    ``leg_sums`` (A_v at each vertex v, the sum of the leg values there).

    The weighting conditions see the leg values only through the A_v, so the
    graph's genera and leg map do not enter; it has h1 = E - V + 1.  The sums
    are computed by the series-parallel reduction of the edges
    (:func:`_reduction`), at each modulus and profile; only the constant
    terms :func:`_layout_columns` reads off them are kept, per layout.  The edge
    order ties the profile entries to the edges.
    """
    steps = _reduction(tuple(edges))
    per_r = [
        [_reduce(r, steps, [x % r for x in leg_sums], [m + 1 for m in p]) for p in profiles]
        for r in rs
    ]
    return {p: tuple(sums[j] for sums in per_r) for j, p in enumerate(profiles)}


@functools.cache
def _node_forms(nodes: tuple[int, ...], h1: int) -> tuple:
    """How the weighting sums of a graph with first Betti number h1 at the
    moduli ``nodes`` give its value: (den, form, held-out forms), integer
    linear forms on the sums, the value being form . sums / den.

    Each sum is over r^h1 weightings, and the forms put them over
    m = lcm(r^h1).  One node is a fixed modulus: the form is the identity
    and den = r^h1.  Otherwise the nodes are those of :func:`_r_nodes`: the
    Lagrange-at-zero row on all but the last two gives the constant term in
    r, over den = m times the row's denominator, and the two held-out forms
    are the (len - 2)-th forward differences ending at the last two nodes,
    which vanish exactly when the fit passes through them."""
    if len(nodes) == 1:
        return nodes[0] ** h1, [1], ()
    count = len(nodes) - 2
    m = lcm(*(r**h1 for r in nodes))
    scales = [m // r**h1 for r in nodes]
    rows, den = lagrange_coefficient_rows(nodes[:count])
    diff = _difference_weights(count)
    checks = [list(map(mul, check, scales)) for check in (diff, [0] + diff)]
    return den * m, list(map(mul, rows[0], scales)), checks


def _constant_term_sums(edges, A, nodes, profiles) -> tuple[int, ...]:
    """The checked value of :func:`weighting_power_sums` at the moduli
    ``nodes`` for each of the ``profiles``, in order: the integer
    numerator over the den of :func:`_node_forms`, the constant term in r
    at the nodes of :func:`_r_nodes`, the sum itself at one modulus.

    A held-out node off the fit raises :class:`FitInstabilityError`.  Not
    cached: :func:`_layout_columns` keeps the checked columns of whole layouts
    (:data:`_checked_columns`)."""
    h1 = len(edges) - len(A) + 1
    _, form, checks = _node_forms(nodes, h1)
    sums = weighting_power_sums(edges, A, nodes, profiles)
    values = []
    for profile in profiles:
        psums = sums[profile]
        if any(_dot(check, psums) for check in checks):
            raise FitInstabilityError(
                f"a weighting sum is not a polynomial of degree <= {len(nodes) - 3} "
                f"in r on the nodes {nodes[0]}..{nodes[-1]}"
            )
        values.append(_dot(form, psums))
    return tuple(values)


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _LayoutStore(dict):
    """The checked columns of every layout read, for the life of the
    process: {(layout key, r nodes, dmax): (scale, columns)}, filled by
    :func:`_layout_columns` alone, with the ``cache_info()`` and
    ``cache_clear()`` of the ``functools`` caches."""

    hits = misses = 0

    def lookup(self, key):
        entry = self.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, None, len(self))

    def cache_clear(self):
        self.clear()
        self.hits = self.misses = 0


_checked_columns = _LayoutStore()


# ----------------------------------------------------------------------
# the fixed-r class
# ----------------------------------------------------------------------

@functools.cache
def _edge_profiles(E: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """Every edge profile (m_e) of E edges with total <= budget, sorted."""
    return tuple(p for p in itertools.product(range(budget + 1), repeat=E) if sum(p) <= budget)


def _leg_exponents(legs, room: list[int], budget: int):
    """Every tuple (c_m) of psi exponents at the legs, leg m on vertex
    legs[m], of total <= budget and at most room[v] at each vertex v, in
    lexicographic order; room and budget are nonnegative.

    An odometer, with no recursion per leg: the next tuple raises the last
    exponent that the budget and its vertex's room still admit, once the
    exponents after it are put back to 0."""
    c = [0] * len(legs)
    room = list(room)  # the room and budget left by c
    while True:
        yield tuple(c)
        for m in reversed(range(len(legs))):
            v = legs[m]
            if budget and room[v]:
                c[m] += 1
                room[v] -= 1
                budget -= 1
                break
            room[v] += c[m]
            budget += c[m]
            c[m] = 0
        else:
            return


def _template_denominator(dmax: int) -> int:
    """2^dmax dmax!, the denominator of every template base of degree <= dmax."""
    return 2**dmax * factorial(dmax)


def _graph_templates(graph: StableGraph, dmax: int, caps, exact: bool = False) -> tuple:
    """Decoration templates for one graph: every way to place psi exponents
    from the edge series and leg exponentials with at most caps[v] at each
    vertex v and total degree <= dmax, or with ``exact`` exactly dmax.

    The templates sharing an edge profile and leg exponents differ only by
    their base coefficient, so each group is (profile, leg exponents,
    members), the members being (base numerator, decorated graph) pairs over
    :func:`_template_denominator`: a template's denominator
    prod_e 2^(m_e+1) (m_e+1)! * prod_m 2^(c_m) c_m! divides it, since the
    factorial arguments sum to its degree.  No groups when a cap is negative.
    """
    E = graph.num_edges
    common = _template_denominator(dmax)
    no_kappa = ((),) * graph.num_vertices
    members: dict[tuple, list] = {}
    for profile in _edge_profiles(E, dmax - E):
        budget = dmax - E - sum(profile)
        edge_den = prod(2 ** (m + 1) * factorial(m + 1) for m in profile)
        for splits in itertools.product(*(range(m + 1) for m in profile)):
            room = list(caps)
            for (u, w), m, j in zip(graph.edges, profile, splits):
                room[u] -= j
                room[w] -= m - j
            if min(room) < 0:
                continue
            num = (-1) ** sum(profile) * prod(map(binomial, profile, splits))
            psi_edges = tuple((j, m - j) for m, j in zip(profile, splits))
            for c in _leg_exponents(graph.legs, room, budget):
                if exact and sum(c) < budget:
                    continue
                den = edge_den * prod(2**k * factorial(k) for k in c)
                key = decorate_canonical_graph(graph, c, psi_edges, no_kappa)
                members.setdefault((profile, c), []).append((num * common // den, key))
    return tuple((profile, c, tuple(group)) for (profile, c), group in members.items())


@functools.cache
def _class_plan(g: int, n: int, dmax: int, survivors: frozenset) -> tuple:
    """Every labelled graph of (g, n) with room for one unit of psi at each
    survivor leg (its vertex's cap lowered by one), as (graph, groups, den)
    entries, den being :func:`_template_denominator` times |Aut|, grouped by
    leg map: ((V, legs), entries) pairs, in order of first appearance, the
    graphs of one pair having V vertices and marking m on vertex legs[m - 1].
    A class call computes the vertex leg sums once per leg map, since they
    depend on nothing else.  Built once per (g, n, dmax, survivor set)."""
    by_legs: dict[tuple, list] = {}
    common = _template_denominator(dmax)
    for graph in enumerate_stable_graphs(g, n, max_edges=dmax, reserved_markings=survivors):
        caps = list(graph.capacities())
        for m in survivors:
            caps[graph.legs[m - 1]] -= 1
        groups = _graph_templates(graph, dmax, caps)
        if groups:
            entry = graph, groups, common * automorphism_count(graph, check=False)
            by_legs.setdefault((graph.num_vertices, graph.legs), []).append(entry)
    return tuple((leg_map, tuple(entries)) for leg_map, entries in by_legs.items())


def _check_space(g: int, n: int, dmax: int) -> None:
    """Unstable (g, n) or a degree outside 0..3g-3+n raises ValueError."""
    if dmax < 0:
        raise ValueError(f"degree must be nonnegative, got {dmax}")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"({g},{n}) is unstable")
    if dmax > 3 * g - 3 + n:
        raise ValueError(f"degree {dmax} exceeds the dimension {3 * g - 3 + n}")


def _check_input(g: int, n: int, a, rs, dmax: int, survivors=()) -> None:
    """The input checks of the fixed-r class and the constant term; a
    survivor leg outside 1..n raises, as it names no marking."""
    if len(a) != n:
        raise ValueError("leg value count must equal n")
    if any(r < 1 for r in rs):
        raise ValueError("modulus must be positive")
    outside = sorted(m for m in survivors if not 1 <= m <= n)
    if outside:
        raise ValueError(f"survivor legs must lie in 1..{n}, got {outside}")
    _check_space(g, n, dmax)


def _layout_columns(key, points, check_rows, nodes: tuple, dmax: int, memo: dict):
    """The checked columns of one layout at the moduli ``nodes`` (see
    :func:`_constant_term_sums`), in integers, as ((scale, columns),
    computed): one lookup in :data:`_checked_columns`, and the only code
    that fills it.

    The key is the layout's edge list followed by the data that fixes its
    ``points``, each point a tuple of vertex leg sums, so h1 = E - V + 1, V
    being the length of a point, and the edge profiles are those of
    :func:`_edge_profiles` of E edges and budget dmax - E.  The store is
    keyed (key, nodes, dmax) and holds the layout's :func:`_node_forms`
    scale and its nonzero columns, {profile: one integer per point}; dmax
    stays in the key, since one node (a fixed-r class) does not fix it.

    On a miss the columns are built once: per point,
    :func:`_constant_term_sums` on the edges and the point's leg sums gives
    every profile's value, checked at the held-out nodes.  ``memo`` holds
    the values of the points computed so far by their leg sums, filled in
    place; a caller that keeps it while its walk stays on one edge list
    computes the points where that list's layouts meet once.  The sum of
    every check row, sparse (point indices, weights), over every column
    must vanish too, or :class:`FitInstabilityError` is raised; the entry is
    stored only when every check has passed, and a failure stores nothing
    for the layout.  ``computed`` counts the points whose values this call
    computed, 0 for a layout read from the store.
    """
    entry = _checked_columns.lookup((key, nodes, dmax))
    if entry is not None:
        return entry, 0
    edges = key[0]
    profiles = _edge_profiles(len(edges), dmax - len(edges))
    values = []
    computed = 0
    for leg_sums in points:
        value = memo.get(leg_sums)
        if value is None:
            value = memo[leg_sums] = _constant_term_sums(edges, leg_sums, nodes, profiles)
            computed += 1
        values.append(value)
    columns = dict(zip(profiles, zip(*values)))
    if any(
        _dot(weights, map(column.__getitem__, indices))
        for column in columns.values()
        for indices, weights in check_rows
    ):
        raise FitInstabilityError(
            f"a weighting sum is not a polynomial of degree <= {2 * dmax} "
            "in the vertex leg sums"
        )
    scale = _node_forms(nodes, len(edges) - len(points[0]) + 1)[0]
    nonzero = {profile: column for profile, column in columns.items() if any(column)}
    entry = _checked_columns[key, nodes, dmax] = scale, nonzero
    return entry, computed


def _class_sum(g: int, n: int, a, dmax: int, survivors, nodes) -> StrataElement:
    """The class plan's graph sums at the one leg vector ``a`` and the moduli
    ``nodes``, as one element: the fixed-r class at one node, its constant
    term in r at those of :func:`_r_nodes`.

    The leg sums are computed once per leg map of :func:`_class_plan`, and
    the graphs grouped by layout, (edge list, leg sums), the one point of
    the layout, whose checked columns :func:`_layout_columns` gives.  Each
    template group takes its profile's one value times its leg power
    prod_m a_m^(2 c_m), memoized on the leg exponents, and each member adds
    its base times that to its decorated graph's numerator over the
    graph's den times the layout's scale.  Every decorated graph belongs to
    one graph, so its numerator is whole once its graph is done; one
    Fraction is built per distinct (numerator, denominator) pair of the
    call, and every term passes through :class:`StrataElement`.
    """
    _check_input(g, n, a, nodes, dmax, survivors)
    nodes = tuple(nodes)
    layouts: dict[tuple, list] = {}
    for (V, legs), entries in _class_plan(g, n, dmax, frozenset(survivors)):
        leg_sums = [0] * V
        for v, value in zip(legs, a):
            leg_sums[v] += value
        leg_sums = tuple(leg_sums)
        for entry in entries:
            layouts.setdefault((entry[0].edges, leg_sums), []).append(entry)
    squares = [v * v for v in a]
    powers: dict[tuple[int, ...], int] = {}
    fractions: dict[tuple[int, int], Fraction] = {}
    terms = {}
    for key, entries in layouts.items():
        (scale, columns), _ = _layout_columns(key, key[1:], (), nodes, dmax, {})
        for _, groups, den in entries:
            den *= scale
            local: dict[DecoratedGraph, int] = {}
            for profile, c, members in groups:
                column = columns.get(profile)
                if column is None:
                    continue
                power = powers.get(c)
                if power is None:
                    power = powers[c] = prod(map(pow, squares, c))
                total = column[0] * power
                if total:
                    for base, dg in members:
                        local[dg] = local.get(dg, 0) + base * total
            for dg, num in local.items():
                if num:
                    value = fractions.get((num, den))
                    if value is None:
                        value = fractions[num, den] = Fraction(num, den)
                    terms[dg] = value
    return StrataElement(g, n, terms)


def fixed_r_class(g: int, n: int, a, r: int, dmax: int, survivors=frozenset()) -> StrataElement:
    """The weighted graph sum at a fixed modulus r, truncated to total degree
    at most dmax.  Graphs with more than dmax edges cannot contribute."""
    return _class_sum(g, n, check_avector(a), dmax, survivors, [r])


def _dot(u, v) -> int:
    """Dot product, truncated to the shorter sequence."""
    return sum(map(mul, u, v))


def _r_nodes(r0: int, dmax: int) -> list[int]:
    """The 2*dmax + 3 nodes r0, r0+1, ... at which a constant term in r is
    sampled: the first 2*dmax + 1 give it, the last two are held out."""
    return list(range(r0, r0 + 2 * dmax + 3))


def _default_r0(a, dmax: int) -> int:
    return 2 * max((abs(v) for v in a), default=1) * max(dmax, 1) + 3


@functools.cache
def _check_cost(budget: int, g: int, n: int, dmax: int, forget: int, modulus, nodes: int):
    """Refuse a computation on the graphs of (g, n) with at most dmax edges
    priced above ``budget``, walking them lazily (``stablegraphs._leg_maps``)
    and stopping as soon as the price, which never falls, passes it.  It is
    graphs x ``modulus``^2 x ``nodes`` for a class at that modulus, whose
    parallel edges are merged by convolutions of O(r^2), or with ``modulus``
    None that of :func:`monomial_coefficient`'s plan, one entry per graph and
    part-vertex set of its :func:`_placements` of ``forget`` legs: A-points x
    the default r0 of the largest leg value they reach x ``nodes``."""
    sampled = modulus is None
    units = reach = 0
    for genera, edges, legs in _leg_maps(g, n, dmax, frozenset()):
        for vertices in _placements(genera, edges, legs, forget) if sampled else ((),):
            count, value = _monomial_points(len(vertices), 2 * dmax) if sampled else (1, 0)
            units, reach = units + count, max(reach, value)
            cost = units * (_default_r0((reach,), dmax) if sampled else modulus**2) * nodes
            if cost > budget:
                unit = "evaluations x modulus" if sampled else "graphs x modulus^2"
                raise ComputationGuardError(
                    f"estimated cost {cost} ({unit} x nodes) exceeds the default budget; "
                    "pass allow_large to proceed"
                )


def _check_class_cost(g: int, n: int, a, dmax: int, r: int | None) -> None:
    """Refuse the class :func:`fixed_r_class` takes at modulus r, or with r
    None :func:`constant_term_class` at its default nodes, if it prices above
    ``COST_BUDGET`` as graphs x modulus^2 x r nodes, before any weighting
    table of r integers is built.  Bad input raises ValueError, as in the
    classes."""
    a = check_avector(a)
    modulus, nodes = (r, 1) if r is not None else (_default_r0(a, dmax), 2 * dmax + 3)
    _check_input(g, n, a, (modulus,), dmax)
    _check_cost(COST_BUDGET, g, n, dmax, 0, modulus, nodes)


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
    the plan, whose graphs :func:`_class_sum` groups per call by edge list
    and vertex leg sums, computed once per leg map: one lookup per layout
    in the store of checked columns (:func:`_layout_columns`), so a warm
    call computes no weighting sum, then one integer per template group,
    and one Fraction per distinct value.  Per layout and edge profile, the
    Lagrange-at-zero weights on the first 2*dmax + 1 nodes give the sum's
    value at r = 0, and the (2*dmax + 1)-th forward differences ending at
    the two held-out nodes both vanish exactly when the fit through the
    first nodes passes through the held-out ones; every coefficient is a
    fixed combination of its graph's profile sums, so the check covers
    every coefficient.  ``survivors``, legs in 1..n, keeps only the graphs
    with room for one unit of psi at each of them.  Returns (element,
    meta); a held-out node off the fit raises :class:`FitInstabilityError`,
    and bad input, a survivor leg outside 1..n among it, raises
    ValueError before any plan is built.
    """
    a = check_avector(a)
    if r0 is None:
        r0 = _default_r0(a, dmax)
    nodes = _r_nodes(r0, dmax)
    return _class_sum(g, n, a, dmax, survivors, nodes), {
        "r0": r0,
        "r_nodes": nodes,
        "dmax": dmax,
    }


def _leg_partition(legs) -> tuple[tuple[int, ...], ...]:
    """The legs 2..n of leg map ``legs`` grouped by vertex, for every vertex
    other than leg 1's that carries some: the vertices whose leg sums A_i are
    the variables of the graph's weighting sums.  Ordered by lowest leg."""
    first = legs[0]
    blocks: dict[int, list[int]] = {}
    for m, v in enumerate(legs[1:], start=2):
        if v != first:
            blocks.setdefault(v, []).append(m)
    return tuple(sorted(tuple(ms) for ms in blocks.values()))


def _monomial_points(k: int, degree: int) -> tuple[int, int]:
    """The A-points :func:`monomial_coefficient` evaluates on a graph with k
    leg sums, C(degree + 1 + k, k), and the leg value that sets their
    modulus: |a_1| = degree + 1 on the layer when k > 0, else 1."""
    return binomial(degree + 1 + k, k), degree + 1 if k else 1


@functools.cache
def _group_weights(exponents: tuple, d: int, parts: tuple, c: tuple):
    """The integer weights over the simplex S of :func:`_simplex_tables`
    (over D! = (2d)!) that read the coefficient of prod_{j>=2} a_j^(b_j)
    off the values of the template group with leg exponents c, for a graph
    with leg partition ``parts``; None when they all vanish.

    The weight is omega_c = sum_gamma T(gamma, c) row_gamma, T(gamma, c)
    being the coefficient of prod_{j>=2} a_j^(b_j) in
    prod_i (sum_{j in S_i} a_j)^gamma_i * prod_m a_m^(2 c_m) with
    a_1 = -sum_{j>=2} a_j; only |gamma| <= D can have a nonzero coefficient.
    """
    degree = 2 * d
    b = (0,) + exponents
    n = len(b)
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
    rows = _simplex_tables(len(parts), degree)[1]
    vector = [0] * len(rows)  # one row per point of S, each over S
    for ys in itertools.product(*(range(min(e[m - 1], spare) + 1) for m in placed)):
        if sum(ys) != spare:
            continue
        y = dict(zip(placed, ys))
        t = _multinomial([y.get(m, e[m - 1]) for m in range(2, n + 1)])
        gamma = []
        for ms in parts:
            xs = [e[m - 1] - y[m] for m in ms]
            gamma.append(sum(xs))
            t *= _multinomial(xs)
        if sum(gamma) <= degree:
            for i, w in rows[tuple(gamma)]:
                vector[i] += t * w
    return tuple(vector) if any(vector) else None


def _placements(genera, edges, legs, forget: int) -> dict:
    """The ways to place ``forget`` more legs, numbered on from the last leg,
    on the vertices of the graph (genera, edges, legs), grouped by the
    vertices of the parts of the leg partition they give, as
    {part vertices: [(coefficient, leg partition), ...]}.

    A placement is a multiset of vertices, s_v legs at v, and stands for its
    S!/prod s_v! labellings.  Forgetting s_v legs that carry psi from v
    multiplies a term by prod_{j<s_v} (2g_v - 2 + t_v + j), t_v being v's
    legs and half-edges (the dilaton equation), so the coefficient is the
    number of labellings times those factors, positive on a stable graph.
    """
    points = _valences(len(genera), edges, legs)
    placements: dict[tuple[int, ...], list] = {}
    for multiset in itertools.combinations_with_replacement(range(len(genera)), forget):
        counts = {v: multiset.count(v) for v in set(multiset)}
        coefficient = _multinomial(list(counts.values()))
        for v, s in counts.items():
            base = 2 * genera[v] - 2 + points[v]
            coefficient *= prod(range(base, base + s))
        placed = legs + multiset
        parts = _leg_partition(placed)
        vertices = tuple(placed[ms[0] - 1] for ms in parts)
        placements.setdefault(vertices, []).append((coefficient, parts))
    return placements


def _layout_points(V: int, first: int, vertices: tuple, simplex) -> tuple:
    """The vertex leg sums of a layout with V vertices, leg 1 at vertex
    ``first`` and the leg sums at ``vertices``, at each point A of the
    ``simplex`` (and layer) of :func:`_simplex_tables`: A_i at the vertex of
    part i, -|A| at leg 1's vertex and 0 at every other vertex."""
    points = []
    for A in simplex:
        leg_sums = [0] * V
        for v, value in zip(vertices, A):
            leg_sums[v] = value
        leg_sums[first] = -sum(A)
        points.append(tuple(leg_sums))
    return tuple(points)


@functools.cache
def _monomial_plan(g: int, n: int, d: int, forgets: tuple) -> tuple:
    """The plan of :func:`monomial_coefficient`, built once per (g, n, d,
    forget counts), as (layouts, census): each graph of (g, n) with at most
    d edges, once per part-vertex set of its :func:`_placements` of any of
    the ``forgets`` legs, grouped by layout, the layouts ordered by edge list
    and, within one edge list, by first appearance.

    A layout is an edge list, a vertex count, leg 1's vertex and the
    vertices of the parts of a leg partition (:func:`_leg_partition`), in
    order: its entries have the same vertex leg sums at every A-point.  Each
    layout is (its key (edges, V, leg 1's vertex, part vertices), geometry,
    entries).  The geometry is (points, check rows), one tuple shared by
    every layout with the same V, leg 1's vertex and part vertices: the
    points are :func:`_layout_points` on the simplex and layer of
    :func:`_simplex_tables` in k = len(part vertices) variables, and the
    check rows are the layer's, as (point indices, weights) pairs, shared by
    every geometry with the same k.

    Each entry is (graph, placements, groups, den).  Per forget count of
    ``forgets``, in order, placements holds the (coefficient, leg partition)
    pairs of the entry's part-vertex set, empty where that count places none
    there.  The groups are the graph's template groups of degree exactly d,
    E + |profile| + |c| = d, the only ones a target monomial reads, and the
    only ones built, once per graph for every forget count; den is
    :func:`_template_denominator` times |Aut| times (2d)!, the last factor
    being the denominator of the group weights.  Equal placements and lists
    of them are one object each, since many entries share them and they key
    the cached :func:`_placed_weights`.

    The census is (entries, A-points, k, edge lists): the plan's entries,
    the A-points of their layouts, the largest k of a layout, whose leg 1
    value on the layer sets the modulus, and the number of distinct edge
    lists, the tasks a worker pool deals out.
    """
    degree = 2 * d
    common = _template_denominator(d) * factorial(degree)
    checks: dict[int, tuple] = {}
    geometries: dict[tuple, tuple] = {}
    shared: dict[tuple, tuple] = {}

    def share(value):
        return shared.setdefault(value, value)

    layouts: dict[tuple, tuple] = {}
    for graph in enumerate_stable_graphs(g, n, max_edges=d):
        groups = _graph_templates(graph, d, graph.capacities(), exact=True)
        den = common * automorphism_count(graph, check=False)
        per_forget = [_placements(graph.genera, graph.edges, graph.legs, f) for f in forgets]
        for vertices in dict.fromkeys(v for placements in per_forget for v in placements):
            shape = graph.num_vertices, graph.legs[0], vertices
            if shape not in geometries:
                simplex, _, rows = _simplex_tables(len(vertices), degree)
                if len(vertices) not in checks:
                    checks[len(vertices)] = tuple(tuple(zip(*row)) for row in rows)
                geometries[shape] = _layout_points(*shape, simplex), checks[len(vertices)]
            placed = tuple(
                share(tuple(map(share, placements.get(vertices, ()))))
                for placements in per_forget
            )
            entries = layouts.setdefault((graph.edges, *shape), (geometries[shape], []))[1]
            entries.append((graph, placed, groups, den))
    # the layouts of one edge list side by side: the constant terms they
    # share (at equal leg sums) are read by one worker, one after another
    ordered = sorted(layouts.items(), key=lambda item: item[0][0])
    plan = tuple((key, geometry, tuple(entries)) for key, (geometry, entries) in ordered)
    census = (
        sum(len(entries) for *_, entries in plan),
        sum(len(points) * len(entries) for _, (points, _), entries in plan),
        max((len(key[3]) for key, *_ in plan), default=0),
        len({key[0] for key, *_ in plan}),
    )
    return plan, census


@functools.cache
def _placed_weights(exponents: tuple, d: int, placements: tuple, c: tuple):
    """The :func:`_group_weights` of the template group with leg exponents c
    (0 at the forgotten legs) at each of the ``placements``' leg partitions,
    times its coefficient, summed, as a tuple; None when they are all None.
    Cached, so a repeated walk weighs nothing; one placement with
    coefficient 1 gives :func:`_group_weights`' own tuple, not a copy."""
    c += (0,) * (len(exponents) + 1 - len(c))
    total = None
    for coefficient, parts in placements:
        weights = _group_weights(exponents, d, parts, c)
        if weights is not None:
            if coefficient != 1:
                weights = tuple(coefficient * w for w in weights)
            total = weights if total is None else tuple(map(add, total, weights))
    return total


def _monomial_layouts(layouts, targets, d: int):
    """The ``layouts`` of :func:`_monomial_plan` weighed for the template
    loop of :func:`_chunk_worker`, as (key, points, check rows, weighted),
    extracting for each of the ``targets``, (exponents, slot) pairs, the
    coefficient of prod_{j>=2} a_j^(b_j), the exponents b_j covering the
    forgotten legs too and slot being the index of the target's forget count
    in the plan's; each item of weighted is (target index, group weights,
    groups, den) for one entry, a group weight None where the group reads
    nothing.

    A graph's weighting sums see the leg values only through the leg sums
    A_i at the k vertices of its leg partition, and their constant term in r
    is a polynomial P(A) of total degree <= D = 2d.  P is sampled on the
    simplex S = {|A| <= D}, C(D+k, k) points, where each entry's template
    group with leg exponents c is weighted for each target by
    :func:`_placed_weights` of the entry's placements for that target, and
    on the layer L = {|A| = D + 1}, C(D+k, k-1) more, where every (D+1)-th
    Newton difference must vanish (see :func:`_simplex_tables`); the points
    and check rows are the layout's geometry, built with the plan.  The
    weights of a (placements, c) pair are cached in :func:`_placed_weights`
    for the life of the process, since many graphs share their leg
    partitions and calls repeat, and the tables under them per (exponents,
    d, leg partition, c).  The weights of a layout's entries are taken
    before its points: an entry whose weights are all None for a target is
    not weighed for it, and a layout with no entry weighed for any target
    is skipped, so :func:`_layout_columns` computes and checks, once for all
    the targets, every profile of exactly the layouts that one of them reads.
    """
    for key, (points, checks), entries in layouts:
        weighted = []
        for t, (exponents, slot) in enumerate(targets):
            for _, placed, groups, den in entries:
                placements = placed[slot]
                if placements:
                    weights = [_placed_weights(exponents, d, placements, c) for _, c, _ in groups]
                    if weights.count(None) < len(weights):
                        weighted.append((t, weights, groups, den))
        if weighted:
            yield key, points, checks, weighted


def _chunk_worker(args):
    """The constant term of the graph sums of the layouts of every
    ``step``-th edge list of :func:`_monomial_plan` from ``start``, sampled
    by :func:`_monomial_layouts` for every target, as integer numerators and
    denominators per decorated graph and target, summed over the layouts
    where its graph is an entry, with the counts of the walk: the layouts
    evaluated, their A-points, the points whose constant terms the walk
    computed and the rest, read without computing; used directly and as the
    multiprocessing worker.  Each layout's checked columns are one
    :func:`_layout_columns` call, with one point memo per edge list, and
    each weighed group takes the dot product of its integer weights with its
    profile's column, so the template loop runs once per entry and target
    for all points; weights may stop short of the points, leaving the last
    ones to the check rows.  The plan is sorted by edge list and every key
    holds its edge list, so no key reaches two workers."""
    g, n, targets, d, r0, forgets, start, step = args
    layouts = _monomial_plan(g, n, d, forgets)[0]
    if step > 1:
        edge_lists = itertools.groupby(layouts, key=lambda layout: layout[0][0])
        layouts = [
            layout for _, group in itertools.islice(edge_lists, start, None, step) for layout in group
        ]
    nodes = tuple(_r_nodes(r0, d))
    # a graph's keys meet in each layout where it has an entry, over one den
    terms = [{} for _ in targets]
    evaluated = sampled = computed = 0
    walked = memo = None
    for key, points, checks, weighted in _monomial_layouts(layouts, targets, d):
        if key[0] != walked:
            walked, memo = key[0], {}
        (scale, columns), new = _layout_columns(key, points, checks, nodes, d, memo)
        evaluated, sampled, computed = evaluated + 1, sampled + len(points), computed + new
        for t, group_weights, groups, den in weighted:
            local: dict[DecoratedGraph, int] = {}
            for weights, (profile, _, members) in zip(group_weights, groups):
                column = columns.get(profile)
                if weights is None or column is None:
                    continue
                total = _dot(weights, column)
                if total:
                    for base, dg in members:
                        local[dg] = local.get(dg, 0) + base * total
            part, den = terms[t], den * scale
            for dg, num in local.items():
                part[dg] = part.get(dg, (0, den))[0] + num, den
    return terms, (evaluated, sampled, computed, sampled - computed)


def _monomial_coefficients(
    g: int, n: int, targets, d: int, allow_large: bool = False, jobs: int = 1
):
    """The coefficients of :func:`monomial_coefficient` at each of the
    ``targets``, (exponents, forget) pairs of one (g, n, d), in one walk:
    one plan for every forget count, its template groups built once, and
    one pass over its layouts, which reads each layout that some target
    reads once, with all its checked constant terms, checks each column on
    the layer once and weights it for every target.  The classes
    are those of separate calls; the guard admits the walk exactly when it
    admits each target.  Returns (elements, meta), one element per target,
    in order, and the meta of :func:`monomial_coefficient` for the walk:
    ``plan_graphs`` and ``evaluations`` count the entries of the plan of
    every forget count, and the other counts are the walk's, which computes
    each key once however many targets read it; for one target it is that
    call's meta."""
    checked = []
    for exponents, forget in targets:
        exponents = tuple(int(b) for b in exponents)
        if len(exponents) != n - 1:
            raise ValueError("need one exponent per marking 2..n")
        if min(exponents, default=0) < 0:
            raise ValueError(f"exponents must be nonnegative, got {exponents}")
        if forget < 0:
            raise ValueError(f"the number of legs to forget must be nonnegative, got {forget}")
        _check_space(g, n + forget, d)
        checked.append((exponents, forget))
    degree = 2 * d
    # the class lands on (g, n): above its dimension it is zero, unplanned
    zero = d > 3 * g - 3 + n
    if not (allow_large or zero):
        for _, forget in checked:
            _check_cost(COST_BUDGET, g, n, d, forget, None, 2 * d + 3)

    forgets = tuple(sorted({forget for _, forget in checked}))
    # warmed before any fork; leg 1's value on the layer sets the modulus
    plan, (entries, evaluations, k, edge_lists) = (
        ((), (0, 0, 0, 0)) if zero else _monomial_plan(g, n, d, forgets)
    )
    r0 = _default_r0([_monomial_points(k, degree)[1]], d)
    walk = tuple((b + (1,) * forget, forgets.index(forget)) for b, forget in checked)
    workers = _worker_count(jobs, edge_lists)
    tasks = [(g, n, walk, d, r0, forgets, start, workers) for start in range(workers)]
    if workers > 1:
        with _worker_pool(workers) as pool:
            partials = pool.map(_chunk_worker, tasks)
    else:
        partials = [_chunk_worker(tasks[0])] if plan else []
    (terms, counts), *rest = partials or [([{} for _ in checked], (0, 0, 0, 0))]
    for chunks, chunk_counts in rest:
        for part, chunk in zip(terms, chunks):
            for key, (num, den) in chunk.items():
                part[key] = part.get(key, (0, den))[0] + num, den
        counts = tuple(map(add, counts, chunk_counts))
    layouts, layout_evaluations, computed, reused = counts
    elements = [
        StrataElement(g, n, {key: Fraction(num, den) for key, (num, den) in part.items() if num})
        for part in terms
    ]
    return elements, {
        "grid_degree": degree,
        "evaluations": evaluations,
        "layouts": layouts,
        "layout_evaluations": layout_evaluations,
        "plan_graphs": entries,
        "r0": r0,
        "r_nodes": _r_nodes(r0, d),
        "sums_computed": computed,
        "sums_reused": reused,
    }


def monomial_coefficient(
    g: int,
    n: int,
    exponents,
    d: int,
    allow_large: bool = False,
    forget: int = 0,
    jobs: int = 1,
):
    """Coefficient of prod_j a_j^(b_j) in the degree-d part of the class,
    with a_1 = -(a_2 + ... + a_n).

    The r-constant term of a graph's weighting sum is a polynomial of total
    degree <= D = 2d in the leg sums of the vertices other than leg 1's
    (Janda-Pandharipande-Pixton-Zvonkine, section 3), so each plan entry
    with k leg sums is sampled at the C(D+k, k) points of the simplex
    |A| <= D, with integer weights per template group that read off the
    target monomial, and at the C(D+k, k-1) points of the layer
    |A| = D + 1, where every (D+1)-th Newton difference must vanish (see
    :func:`_monomial_layouts`); the constant term in r is taken at every
    point as in :func:`constant_term_class`, with both held-out r nodes
    checked.  A nonzero Newton difference on the layer, like a held-out r
    node off the fit, raises :class:`FitInstabilityError`.  Plan entries of
    one layout have the same values at every A-point, and the cached plan
    (:func:`_monomial_plan`) holds them grouped by layout, with only the
    template groups of degree d and each layout's points, so a call samples
    each layout's points once and runs the template loop per entry.  A call
    evaluates only the layouts that some group weight of the target reads,
    each for every edge profile, so every column of such a layout, and so
    every column that enters the coefficient, is checked at both held-out r
    nodes and on the layer, and one stored layout serves every call that
    reads it at the same r nodes and degree.  This is the one-target case
    of the walk of :func:`_monomial_coefficients`, which serves several
    targets of one (g, n, d) at once.  With ``jobs`` > 1 the edge lists, each with all its
    layouts, are dealt out over worker processes, each returning integer
    numerators; results are identical for any worker count.  Returns
    (element, meta); the meta counts the plan's entries (``plan_graphs``)
    and their A-points (``evaluations``, what :func:`_check_cost` prices),
    and, summed over the workers, the layouts evaluated (``layouts``, one
    lookup each in the store of checked columns), their A-points
    (``layout_evaluations``), and of those the distinct point keys computed
    (``sums_computed``, one :func:`weighting_power_sums` call each) and the
    A-points read without computing (``sums_reused``), from a layout found
    in the store or a point met before on the same edge list.  Every key
    holds its edge list, so no two workers compute one key: with workers
    forked from the caller, each starting from its store, these two are the
    same for any worker count.

    With ``forget`` = S the coefficient is taken on (g, n + S), of the
    ``exponents`` followed by exponent 1 at the legs n+1..n+S, multiplied by
    psi at those legs and pushed forward forgetting them, onto (g, n).  A
    term linear in a_m has no psi at leg m, and psi_m kills the difference
    between a psi at its vertex and its pullback, so forgetting the legs is
    the dilaton equation: the plan runs on the graphs of (g, n), with the S
    legs placed on their vertices (:func:`_placements`).  Summing the
    labelled (g, n + S) graphs with 1/|Aut| is summing the (g, n) graphs
    with theirs and their labelled placements.  So (3,1,()) plans on the
    341 graphs of (3,2), 1,213 entries.  The class lands in degree d on
    (g, n), so a d above 3g - 3 + n gives zero before any price or plan.

    The default guard, :func:`_check_cost`, refuses a job priced above
    ``COST_BUDGET`` before any template is built, unless ``allow_large``.
    """
    (element,), meta = _monomial_coefficients(g, n, [(exponents, forget)], d, allow_large, jobs)
    return element, meta
