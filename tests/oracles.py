"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's canonical-form machinery: isomorphism
is decided by explicit search over vertex bijections, and automorphisms are
counted over explicit half-edge permutations.  Weightings are found by trying
every residue on every edge, not by solving the vertex conditions.  The
closed forms and the principal part are summed term by term in rationals,
without the integer numerators the library uses.  The fixed-r class is
summed the same way, graph by graph and weighting by weighting, from
Pixton's formula itself, with no templates or stored constant terms.  The
class omega takes is
also found the long way: the labelled coefficient on every graph of (g, N),
multiplied by psi at the extra legs and pushed forward forgetting them, where
the library forgets them by the dilaton equation.  Kappa-free classes are
integrated over M-bar_{g,n} through the Witten-Kontsevich numbers, which the
string, dilaton and DVV equations give exactly.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
import math
import operator
from types import SimpleNamespace

from trrkit.numerics import SparsePoly
from trrkit.pixton import monomial_coefficient
from trrkit.strata import StrataElement, make_decorated, pushforward_forget
from trrkit.trr import (
    TRRRecord,
    c0_coeff,
    psi_variables,
    relation_weights,
    string_pushforward,
    substitute_prime,
)
from strata_reference import multiply_by_psi


def graphs_isomorphic(a, b) -> bool:
    """a, b are (genera, edges, legs) triples; explicit bijection search."""
    genera_a, edges_a, legs_a = a
    genera_b, edges_b, legs_b = b
    if len(genera_a) != len(genera_b) or len(edges_a) != len(edges_b):
        return False
    if len(legs_a) != len(legs_b):
        return False
    V = len(genera_a)
    for perm in itertools.permutations(range(V)):
        if any(genera_b[perm[v]] != genera_a[v] for v in range(V)):
            continue
        if any(perm[va] != vb for va, vb in zip(legs_a, legs_b)):
            continue
        image = sorted(tuple(sorted((perm[u], perm[w]))) for u, w in edges_a)
        if image == sorted(tuple(sorted(e)) for e in edges_b):
            return True
    return False


def _connected(V, edges):
    if V <= 1:
        return True
    adj = {v: set() for v in range(V)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == V


def brute_force_stable_graphs(g, n, max_edges=None):
    """Generate-and-filter enumeration with pairwise isomorphism dedup."""
    cap = 3 * g - 3 + n
    emax = cap if max_edges is None else min(max_edges, cap)
    found = []
    for E in range(emax + 1):
        for V in range(1, E + 2):
            pair_types = [(u, w) for u in range(V) for w in range(u, V)]
            for edges in itertools.combinations_with_replacement(pair_types, E):
                if not _connected(V, edges):
                    continue
                h1 = E - V + 1
                if h1 < 0 or h1 > g:
                    continue
                for genera in itertools.product(range(g + 1), repeat=V):
                    if sum(genera) + h1 != g:
                        continue
                    for legs in itertools.product(range(V), repeat=n):
                        val = [0] * V
                        for u, w in edges:
                            val[u] += 1
                            val[w] += 1
                        for v in legs:
                            val[v] += 1
                        if any(2 * genera[v] - 2 + val[v] <= 0 for v in range(V)):
                            continue
                        cand = (tuple(genera), tuple(edges), tuple(legs))
                        if not any(graphs_isomorphic(cand, old) for old in found):
                            found.append(cand)
    return found


def brute_force_automorphisms(genera, edges, legs) -> int:
    """Count (vertex, half-edge) permutation pairs commuting with the genus,
    vertex, involution and marking maps, by direct enumeration."""
    V = len(genera)
    E = len(edges)
    # legs are individually marked, so an automorphism fixes their vertices;
    # each edge maps to an edge with matching endpoints, possibly side-swapped
    count = 0
    for vperm in itertools.permutations(range(V)):
        if any(genera[vperm[v]] != genera[v] for v in range(V)):
            continue
        if any(vperm[v] != v for v in legs):
            continue
        for eperm in itertools.permutations(range(E)):
            ways = 1
            for k in range(E):
                u, w = edges[k]
                tu, tw = edges[eperm[k]]
                opts = 0
                if (vperm[u], vperm[w]) == (tu, tw):
                    opts += 1
                if (vperm[u], vperm[w]) == (tw, tu):
                    opts += 1
                ways *= opts
                if ways == 0:
                    break
            count += ways
    return count


def pascal_binomial(a, b):
    """Binomial via Pascal's rule with memoization; generalized to negative
    upper index through the reflection identity."""
    memo = {}

    def rec(x, y):
        if y < 0:
            return 0
        if y == 0:
            return 1
        if x >= 0 and y > x:
            return 0
        if (x, y) in memo:
            return memo[(x, y)]
        if x < 0:
            val = (-1) ** y * rec(y - x - 1, y)
        else:
            val = rec(x - 1, y - 1) + rec(x - 1, y)
        memo[(x, y)] = val
        return val

    return rec(a, b)


def enumerate_weightings(graph, a, r):
    """Yield every weighting mod r as a map from half-edge ids to residues.

    Half-edge ids are ("leg", marking) and ("edge", k, side).  Every residue
    is tried on side 0 of every edge, side 1 carries its negative, and only
    the assignments meeting every vertex condition are kept.
    """
    base = [0] * graph.num_vertices
    for m, v in enumerate(graph.legs, start=1):
        base[v] += a[m - 1]
    for ts in itertools.product(range(r), repeat=graph.num_edges):
        total = list(base)
        for (x, y), t in zip(graph.edges, ts):
            total[x] += t
            total[y] -= t
        if any(s % r for s in total):
            continue
        w = {("leg", m): a[m - 1] % r for m in range(1, graph.n + 1)}
        for k, t in enumerate(ts):
            w[("edge", k, 0)] = t
            w[("edge", k, 1)] = (-t) % r
        yield w


def fixed_r_class_direct(g, n, a, r, dmax, survivors=frozenset()) -> StrataElement:
    """Pixton's class at the fixed modulus r in degrees <= dmax, as the sum
    over stable graphs G and weightings w mod r of

        1/|Aut G| r^(-h1) prod_m exp(a_m^2 psi_m / 2)
        prod_e (1 - exp(-w(h) w(h') (psi_h + psi_h') / 2)) / (psi_h + psi_h'),

    pushed forward from G, each edge factor expanded as
    sum_k (-1)^k x^(k+1) (psi_h + psi_h')^k / (k+1)! with x = w(h) w(h') / 2
    and the binomial theorem.  The graphs are the brute-force ones, with
    their automorphisms counted by permutation, the weightings are found by
    trying every residue, and a term is dropped when its degree, the edges
    and psi exponents together, passes dmax, or its psi degree at a vertex v
    passes 3 g_v - 3 + n_v, the dimension there, less one for each of the
    ``survivors`` (legs in 1..n) at v, which keeps room for one unit of psi
    at each of them.  Only the decorated graphs are canonicalized, by
    :func:`make_decorated`."""
    terms: dict = {}
    for genera, edges, legs in brute_force_stable_graphs(g, n, max_edges=dmax):
        V, E = len(genera), len(edges)
        valence = [0] * V
        for v in legs + tuple(v for edge in edges for v in edge):
            valence[v] += 1
        caps = [3 * gv - 3 + nv for gv, nv in zip(genera, valence)]
        for m in survivors:
            caps[legs[m - 1]] -= 1
        graph = SimpleNamespace(num_vertices=V, num_edges=E, edges=edges, legs=legs, n=n)
        # x_e = w(h) w(h') / 2 per edge, for every weighting
        xs = [
            [Fraction(w[("edge", k, 0)] * w[("edge", k, 1)], 2) for k in range(E)]
            for w in enumerate_weightings(graph, a, r)
        ]
        scale = Fraction(1, brute_force_automorphisms(genera, edges, legs) * r ** (E - V + 1))
        for ms in itertools.product(range(dmax - E + 1), repeat=E):
            budget = dmax - E - sum(ms)
            if budget < 0:
                continue
            total = sum(math.prod(x ** (m + 1) for x, m in zip(row, ms)) for row in xs)
            if not total:
                continue
            for js in itertools.product(*(range(m + 1) for m in ms)):
                edge_factor = math.prod(
                    Fraction((-1) ** m * math.comb(m, j), math.factorial(m + 1))
                    for m, j in zip(ms, js)
                )
                for cs in itertools.product(range(budget + 1), repeat=n):
                    if sum(cs) > budget:
                        continue
                    psi = [0] * V
                    for v, c in zip(legs, cs):
                        psi[v] += c
                    for (u, w), m, j in zip(edges, ms, js):
                        psi[u] += j
                        psi[w] += m - j
                    if any(p > cap for p, cap in zip(psi, caps)):
                        continue
                    leg_factor = math.prod(
                        Fraction(x * x, 2) ** c / math.factorial(c) for x, c in zip(a, cs)
                    )
                    coefficient = scale * total * edge_factor * leg_factor
                    if coefficient:
                        psi_edges = [(j, m - j) for m, j in zip(ms, js)]
                        key = make_decorated(genera, edges, legs, cs, psi_edges, ((),) * V)
                        terms[key] = terms.get(key, 0) + coefficient
    return StrataElement(g, n, terms)


def d_value_direct(g, k, l):
    """D(g, k, l) as the direct sum over the 2^(n-1) exponent shift vectors."""
    l = tuple(int(x) for x in l)
    if k < 0 or k + sum(l) != g:
        raise ValueError("need k >= 0 and k + sum(l) = g")
    n = len(l) + 1
    base = 2 * g + n + 2 * k - 1
    total = Fraction(0)
    for dvec in itertools.product((0, 1), repeat=n - 1):
        s = sum(dvec)
        term = Fraction(math.perm(2 * k + 1, s), math.perm(base, s))
        for lj, dj in zip(l, dvec):
            if dj:
                term *= -2 * lj - 1
        total += term
    return total


def _d_weights(g, n, k):
    """w_s = (2k+1)_s (base-s)_(n-1-s) for s = 0..n-1, base = 2g+n+2k-1:
    D = sum_s e_s(-2l-1) w_s / w_0, the shift sum over one denominator.
    These depend on n, unlike the generating-function numerator that
    ``trr.d_value`` and ``trr._scan_total`` read, so they check it."""
    base = 2 * g + n + 2 * k - 1
    return [math.perm(2 * k + 1, s) * math.perm(base - s, n - 1 - s) for s in range(n)]


def _times_one_plus(e: list[int], v: int) -> list[int]:
    """Coefficients of e(t) (1 + v t): adds one variable v to the elementary
    symmetric functions e_0, e_1, ..."""
    return [a + v * c for a, c in zip(e + [0], [0] + e)]


def scan_genus_walk(g: int):
    """The zero scan of one genus, cell by cell: the zeros and the cell
    count of ``trr.scan_zeros(g, g)`` (whose walks list the zeros in
    another order), from one walk per (n, k), the elementary symmetric
    functions of the parts carried along it and a full dot product with the
    weights of :func:`_d_weights` at every cell."""
    zeros = []
    cells = 0
    for n in range(2, g + 1):
        for k in range(1, g - (n - 1) + 1):
            w = _d_weights(g, n, k)
            # nondecreasing l_1 <= ... <= l_(n-1) summing to g - k, with the
            # elementary symmetric functions of the parts so far carried
            # along; the last part is whatever the sum leaves
            stack = [((), [1], 1, g - k)]
            while stack:
                prefix, e, low, rest = stack.pop()
                left = n - 1 - len(prefix)
                if left == 1:
                    cells += 1
                    if not sum(map(operator.mul, _times_one_plus(e, -2 * rest - 1), w)):
                        zeros.append((g, n, k, prefix + (rest,)))
                    continue
                for part in range(low, rest // left + 1):
                    stack.append(
                        (prefix + (part,), _times_one_plus(e, -2 * part - 1), part, rest - part)
                    )
    return zeros, cells


def _double_factorial(m):
    return math.prod(range(m, 0, -2))


def _inverse_marking_factor(c, b):
    return Fraction(1, 2**c * math.factorial(c) * math.factorial(b - 2 * c))


def gamma0_direct(g, n, b):
    """The trivial-graph closed form as exponent tuple -> Fraction, summed
    term by term in rationals."""
    pref = Fraction(math.factorial(4 * g - 1 + n - sum(b)), math.factorial(2 * g - 2 + n))
    terms = {}
    for c in itertools.product(*(range(x // 2 + 1) for x in b)):
        sc = sum(c)
        if sc > g + 1:
            continue
        coeff = pref * _double_factorial(2 * g + 1 - 2 * sc)
        for cj, bj in zip(c, b):
            coeff *= _inverse_marking_factor(cj, bj)
        terms[(g + 1 - sc,) + c] = coeff
    return terms


def gammai_direct(g, n, i, b):
    """The rational-tail closed form at marking i as exponent tuple (psi_1..
    psi_n, psip) -> Fraction, with the bracket recomputed for every term."""
    bi = b[i - 2]
    others = [j for j in range(2, n + 1) if j != i]
    pref = Fraction(math.factorial(2 * g + 1 - sum(b)), math.factorial(bi))
    sum_b_others = sum(b[j - 2] for j in others)
    A0 = 4 * g + n - sum_b_others
    A1 = 4 * g - 1 + n - sum(b)
    B = 2 * g - sum_b_others
    terms = {}
    for c_others in itertools.product(*(range(b[j - 2] // 2 + 1) for j in others)):
        for ci in range(g - sum(c_others) + 1):
            k = g - sum(c_others) - ci
            bracket = -pascal_binomial(A0, B - 2 * ci)
            for dd in range(bi - 2 * ci - 1):
                bracket += pascal_binomial(A1, B - 2 * ci - dd) * pascal_binomial(bi + 1, dd)
            if bracket == 0:
                continue
            coeff = pref * _double_factorial(2 * k - 1) * _double_factorial(2 * ci + 1) * bracket
            exps = [0] * (n + 1)
            exps[0] = k
            exps[n] = ci
            for cj, j in zip(c_others, others):
                coeff *= _inverse_marking_factor(cj, b[j - 2])
                exps[j - 1] = cj
            terms[tuple(exps)] = coeff
    return terms


def principal_part_direct(g, k, l):
    """The principal part as a sum of SparsePoly contributions in rationals,
    one shift vector at a time, with D from :func:`d_value_direct`."""
    l = tuple(l)
    n = len(l) + 1
    D = d_value_direct(g, k, l)
    total = SparsePoly(psi_variables(n), {})
    weights = relation_weights(k, l)
    for dvec, weight in weights:
        b = tuple(2 * lj + dj for lj, dj in zip(l, dvec))
        contrib = string_pushforward(SparsePoly(psi_variables(n), gamma0_direct(g, n, b)))
        for i in range(2, n + 1):
            tail = SparsePoly(psi_variables(n, prime=True), gammai_direct(g, n, i, b))
            contrib = contrib + substitute_prime(tail, i, n)
        total = total + contrib * weight
    raw = total.coefficient((k,) + l)
    assert raw == c0_coeff(g, n, l, (0,) * (n - 1)) * D
    return TRRRecord(
        g=g,
        n=n,
        principal=total * (Fraction(1) / raw),
        provenance={
            "monomials": [[2 * lj + dj for lj, dj in zip(l, dvec)] for dvec, _ in weights],
            "weights": [w for _, w in weights],
            "D": D,
            "normalization": raw,
        },
    )


# ----------------------------------------------------------------------
# omega by psi multiplication and pushforward
# ----------------------------------------------------------------------

def forget_with_psi(element, first: int) -> StrataElement:
    """``element`` times psi at each leg from ``first`` on, pushed forward
    forgetting those legs, the last first."""
    legs = range(first, element.n + 1)
    element = multiply_by_psi(element, {m: 1 for m in legs})
    for m in reversed(legs):
        element = pushforward_forget(element, m)
    return element


def omega_by_pushforward(mono) -> StrataElement:
    """The class :func:`trrkit.trr.omega` gives, from the labelled
    coefficient on (g, N) of b followed by N - n ones in degree g + 1, taken
    over every graph of (g, N) with nothing to forget, multiplied by psi at
    the legs n+2..N and pushed forward forgetting them."""
    g, n, N = mono.g, mono.n, mono.num_legs
    b = mono.exponents + (1,) * (N - n)
    element, _ = monomial_coefficient(g, N, b, g + 1, allow_large=True)
    return forget_with_psi(element, n + 2)


# ----------------------------------------------------------------------
# integrals over M-bar_{g,n}
# ----------------------------------------------------------------------

@functools.cache
def witten_kontsevich(g: int, exponents: tuple[int, ...]) -> Fraction:
    """<tau_d1 ... tau_dn>_g, the integral of prod psi_j^(d_j) over
    M-bar_{g,n}, for a sorted tuple of exponents: the string equation removes
    a tau_0, the dilaton equation a tau_1, and the DVV recursion lowers the
    largest exponent; unstable (g, n) give 0."""
    n = len(exponents)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(exponents) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(1, 24)
    rest = exponents[1:]
    if exponents[0] == 0:
        return sum(
            (witten_kontsevich(g, tuple(sorted(rest[:j] + (d - 1,) + rest[j + 1:])))
             for j, d in enumerate(rest) if d),
            Fraction(0),
        )
    if exponents[0] == 1:
        return (2 * g - 2 + len(rest)) * witten_kontsevich(g, rest)
    # (2k+3)!! <tau_(k+1) tau_D>_g = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <.. tau_(d_j+k) ..>_g
    #   + 1/2 sum_(r+s=k-1) (2r+1)!! (2s+1)!! (<tau_r tau_s tau_D>_(g-1)
    #                                          + sum <tau_r tau_I>_g1 <tau_s tau_J>_g2)
    *others, top = exponents
    k = top - 1
    total = Fraction(0)
    for j, d in enumerate(others):
        raised = tuple(sorted(others[:j] + [d + k] + others[j + 1:]))
        total += Fraction(
            _double_factorial(2 * k + 2 * d + 1), _double_factorial(2 * d - 1)
        ) * witten_kontsevich(g, raised)
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(_double_factorial(2 * r + 1) * _double_factorial(2 * s + 1), 2)
        total += weight * witten_kontsevich(g - 1, tuple(sorted(others + [r, s])))
        for side in itertools.product((0, 1), repeat=len(others)):
            part_i = [r] + [d for d, t in zip(others, side) if t == 0]
            part_j = [s] + [d for d, t in zip(others, side) if t == 1]
            for g1 in range(g + 1):
                total += weight * witten_kontsevich(g1, tuple(sorted(part_i))) * (
                    witten_kontsevich(g - g1, tuple(sorted(part_j)))
                )
    return total / _double_factorial(2 * k + 3)


def integrate(element) -> Fraction:
    """The integral over M-bar_{g,n} of a kappa-free decorated class.  A term
    is xi_Gamma*(decoration), so it integrates to the product over the
    vertices of the Witten-Kontsevich numbers of the psi exponents at each
    vertex's legs and half-edges (no 1/|Aut| factor)."""
    total = Fraction(0)
    for dg, coeff in element.terms.items():
        if dg.has_kappa():
            raise ValueError("the integral needs a kappa-free class")
        graph = dg.graph
        at_vertex = [[] for _ in graph.genera]
        for v, e in zip(graph.legs, dg.psi_legs):
            at_vertex[v].append(e)
        for (u, w), (eu, ew) in zip(graph.edges, dg.psi_edges):
            at_vertex[u].append(eu)
            at_vertex[w].append(ew)
        term = coeff
        for genus, exps in zip(graph.genera, at_vertex):
            term *= witten_kontsevich(genus, tuple(sorted(exps)))
        total += term
    return total


def relation_integrals(record: TRRRecord) -> dict:
    """Per psi monomial of the complementary degree 2g - 3 + n (exponent
    tuple), the integrals of the whole relation and of its principal part
    alone, each multiplied by that monomial."""
    g, n = record.g, record.n
    principal = StrataElement.zero(g, n)
    for exps, coeff in record.principal.terms.items():
        principal = principal + StrataElement.psi_monomial(
            g, n, dict(enumerate(exps, start=1))
        ).scale(coeff)
    relation = principal + record.boundary
    out = {}
    for exps in itertools.product(range(2 * g - 2 + n), repeat=n):
        if sum(exps) != 2 * g - 3 + n:
            continue
        psi = dict(enumerate(exps, start=1))
        out[exps] = (
            integrate(multiply_by_psi(relation, psi)),
            integrate(multiply_by_psi(principal, psi)),
        )
    return out
