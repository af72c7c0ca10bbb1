"""The strata algebra: decorated stable graphs and the forgetful pushforward.

Elements are finite rational-linear combinations of decorated graphs [Gamma,
gamma], where gamma assigns kappa exponents to vertices and psi exponents to
half-edges and legs, subject to the per-vertex degree condition
d(gamma_v) <= 3g(v) - 3 + n(v).  Decorated graphs are stored canonically so
that term maps merge isomorphic terms.  The pipeline needs no product of
elements: the excess intersection product and psi multiplication live with
the tests, as references (``tests/strata_reference.py``).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import binomial, rational_str
from .runtime import sha256_hex
from .stablegraphs import (
    InvalidGraphError,
    StableGraph,
    _canonical_graph,
    canonical_perm,
    graph_to_json,
    make_graph,
    vertex_automorphisms,
)


@dataclass(frozen=True, slots=True)
class DecoratedGraph:
    """Canonical decorated stable graph.  Use :func:`make_decorated`."""

    graph: StableGraph
    psi_legs: tuple[int, ...]                    # exponent per marking
    psi_edges: tuple[tuple[int, int], ...]       # (side0, side1) per edge
    kappa: tuple[tuple[tuple[int, int], ...], ...]  # per vertex, sorted (index, exp)
    # the hash, computed on first use
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.graph, self.psi_legs, self.psi_edges, self.kappa))
            object.__setattr__(self, "_hash", h)
        return h

    def degree(self) -> int:
        d = self.graph.num_edges + sum(self.psi_legs)
        d += sum(a + b for a, b in self.psi_edges)
        d += sum(i * x for vk in self.kappa for i, x in vk)
        return d

    def has_kappa(self) -> bool:
        return any(self.kappa)

    def vertex_decoration_degree(self, v: int) -> int:
        d = sum(i * x for i, x in self.kappa[v])
        for m, vv in enumerate(self.graph.legs):
            if vv == v:
                d += self.psi_legs[m]
        for k, (u, w) in enumerate(self.graph.edges):
            if u == v:
                d += self.psi_edges[k][0]
            if w == v:
                d += self.psi_edges[k][1]
        return d

    def violates_degree_condition(self) -> bool:
        caps = self.graph.capacities()
        return any(
            self.vertex_decoration_degree(v) > caps[v]
            for v in range(self.graph.num_vertices)
        )

    def sort_key(self):
        return (
            self.degree(),
            self.graph.sort_key(),
            self.psi_legs,
            self.psi_edges,
            self.kappa,
        )


def _decorated_key(perm, genera, edges, legs, psi_legs, psi_edges, kappa):
    V = len(genera)
    new_genera = [0] * V
    new_kappa = [()] * V
    for v in range(V):
        new_genera[perm[v]] = genera[v]
        new_kappa[perm[v]] = tuple(sorted(kappa[v]))
    recs = []
    for k, (u, w) in enumerate(edges):
        nu, nw = perm[u], perm[w]
        p0, p1 = psi_edges[k]
        if nu > nw:
            nu, nw, p0, p1 = nw, nu, p1, p0
        elif nu == nw:
            p0, p1 = max(p0, p1), min(p0, p1)
        recs.append(((nu, nw), (p0, p1)))
    recs.sort()
    new_legs = tuple(perm[v] for v in legs)
    return (
        tuple(new_genera),
        tuple(r[0] for r in recs),
        new_legs,
        tuple(psi_legs),
        tuple(r[1] for r in recs),
        tuple(new_kappa),
    )


def make_decorated(genera, edges, legs, psi_legs, psi_edges, kappa) -> DecoratedGraph:
    """Canonicalize a decorated graph (graph part first, then decorations).

    The decorated key begins with the graph key, so the least key comes from
    a permutation reaching the canonical graph; those are one such
    permutation followed by the automorphisms of the canonical graph, which
    :func:`decorate_canonical_graph` searches.
    """
    perm = canonical_perm(genera, edges, legs)
    g2, e2, l2, pl2, pe2, k2 = _decorated_key(
        perm, genera, edges, legs, psi_legs, psi_edges, kappa
    )
    return decorate_canonical_graph(_canonical_graph(g2, e2, l2), pl2, pe2, k2)


@functools.cache
def _shared(decoration: tuple) -> tuple:
    """The first-seen tuple equal to ``decoration``, so that equal psi and
    kappa tuples are one object in the process."""
    return decoration


def decorate_canonical_graph(graph: StableGraph, psi_legs, psi_edges, kappa) -> DecoratedGraph:
    """Fast path when the underlying graph is already canonical: only its
    automorphisms can improve the decoration key, so the graph part of the
    best key is ``graph`` itself."""
    best = None
    data = (graph.genera, graph.edges, graph.legs)
    psi_edges = tuple(tuple(p) for p in psi_edges)
    kappa = tuple(tuple(sorted((i, x) for i, x in vk if x)) for vk in kappa)
    for perm in vertex_automorphisms(graph):
        key = _decorated_key(perm, *data, psi_legs, psi_edges, kappa)
        if best is None or key < best:
            best = key
    _, _, _, pl2, pe2, k2 = best
    return DecoratedGraph(graph, _shared(pl2), _shared(pe2), _shared(k2))


def _empty_decoration(graph: StableGraph):
    return (
        (0,) * graph.n,
        tuple((0, 0) for _ in graph.edges),
        tuple(() for _ in graph.genera),
    )


class StrataElement:
    """Finite formal sum of decorated graphs with rational coefficients."""

    __slots__ = ("g", "n", "terms")

    def __init__(self, g: int, n: int, terms=None):
        self.g = g
        self.n = n
        self.terms: dict[DecoratedGraph, Fraction] = {}
        for dg, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                self.terms[dg] = c

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, g, n):
        return cls(g, n)

    @classmethod
    def unit(cls, g, n):
        graph = make_graph([g], [], [0] * n)
        dg = DecoratedGraph(graph, *_empty_decoration(graph))
        return cls(g, n, {dg: Fraction(1)})

    @classmethod
    def psi_monomial(cls, g, n, exponents: dict[int, int]):
        """Monomial in psi classes on the trivial one-vertex graph."""
        graph = make_graph([g], [], [0] * n)
        psi_legs = tuple(exponents.get(m, 0) for m in range(1, n + 1))
        dg = DecoratedGraph(graph, psi_legs, (), tuple(() for _ in graph.genera))
        el = cls(g, n, {dg: Fraction(1)})
        if dg.violates_degree_condition():
            return cls.zero(g, n)
        return el

    # --- linear structure ----------------------------------------------
    def _check_ambient(self, other):
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError("ambient (g, n) mismatch")

    def __add__(self, other):
        self._check_ambient(other)
        terms = dict(self.terms)
        for dg, c in other.terms.items():
            terms[dg] = terms.get(dg, Fraction(0)) + c
        return StrataElement(self.g, self.n, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "StrataElement":
        c = Fraction(c)
        return StrataElement(self.g, self.n, {dg: c * v for dg, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, StrataElement):
            return NotImplemented
        return (self.g, self.n) == (other.g, other.n) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return f"StrataElement({self.g},{self.n}; 0)"
        bits = [
            f"{rational_str(c)}*[{dg.graph.genera}|E{dg.graph.edges}|psi{dg.psi_legs}{dg.psi_edges}|k{dg.kappa}]"
            for dg, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        ]
        return f"StrataElement({self.g},{self.n}; " + " + ".join(bits) + ")"

    # --- queries ---------------------------------------------------------
    def degree_component(self, d: int) -> "StrataElement":
        terms = {dg: c for dg, c in self.terms.items() if dg.degree() == d}
        return StrataElement(self.g, self.n, terms)

    def psi_degree(self, marking: int) -> int:
        return max((dg.psi_legs[marking - 1] for dg in self.terms), default=0)

    def is_kappa_free_boundary(self) -> bool:
        return all(
            dg.graph.num_edges >= 1 and not dg.has_kappa() for dg in self.terms
        )

    def has_kappa(self) -> bool:
        return any(dg.has_kappa() for dg in self.terms)

    def graph_component(self, graph: StableGraph) -> "StrataElement":
        terms = {dg: c for dg, c in self.terms.items() if dg.graph == graph}
        return StrataElement(self.g, self.n, terms)

    def relabel_legs(self, perm: dict[int, int]) -> "StrataElement":
        """Apply a marking permutation (old marking -> new marking)."""
        full = {m: perm.get(m, m) for m in range(1, self.n + 1)}
        if sorted(full.values()) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of the markings")
        out: dict[DecoratedGraph, Fraction] = {}
        for dg, c in self.terms.items():
            legs = [0] * self.n
            psis = [0] * self.n
            for m in range(1, self.n + 1):
                legs[full[m] - 1] = dg.graph.legs[m - 1]
                psis[full[m] - 1] = dg.psi_legs[m - 1]
            new = make_decorated(
                dg.graph.genera, dg.graph.edges, legs, tuple(psis), dg.psi_edges, dg.kappa
            )
            out[new] = out.get(new, Fraction(0)) + c
        return StrataElement(self.g, self.n, out)

    # --- serialization ----------------------------------------------------
    def to_json(self) -> list:
        records = []
        for dg, coeff in sorted(self.terms.items(), key=lambda t: t[0].sort_key()):
            n = dg.graph.n
            kappa = [
                [v, i, x]
                for v, vk in enumerate(dg.kappa)
                for i, x in vk
            ]
            psi = [[m, e] for m, e in enumerate(dg.psi_legs, start=1) if e]
            for k, (a, b) in enumerate(dg.psi_edges):
                # half-edge ids: side s of edge k is n + 2k + s + 1
                if a:
                    psi.append([n + 2 * k + 1, a])
                if b:
                    psi.append([n + 2 * k + 2, b])
            records.append(
                {
                    "graph": graph_to_json(dg.graph),
                    "kappa": kappa,
                    "psi": psi,
                    "coeff": rational_str(coeff),
                }
            )
        return records

    def digest(self) -> str:
        """First 16 hex digits of the sha256 of the sorted terms: equal
        elements give equal digests, whatever their term order."""
        items = sorted(
            (repr((dg.graph.genera, dg.graph.edges, dg.graph.legs, dg.psi_legs,
                   dg.psi_edges, dg.kappa)), str(c))
            for dg, c in self.terms.items()
        )
        return sha256_hex(repr(items).encode())[:16]


# ----------------------------------------------------------------------
# forgetful pushforward
# ----------------------------------------------------------------------

def _points_at(graph: StableGraph, v: int):
    sides = []
    for k, (u, w) in enumerate(graph.edges):
        if u == v:
            sides.append((k, 0))
        if w == v:
            sides.append((k, 1))
    legs = [m for m, vv in enumerate(graph.legs, start=1) if vv == v]
    return sides, legs


def _pushforward_term(dg: DecoratedGraph, f: int):
    """Push one decorated term forward under forgetting marking f.

    Returns (DecoratedGraph, coefficient) pairs in the target (markings
    above f shifted down by one).
    """
    graph = dg.graph
    v = graph.legs[f - 1]
    b = dg.psi_legs[f - 1]
    sides, legs_here = _points_at(graph, v)
    legs_other = [m for m in legs_here if m != f]
    npoints = len(sides) + len(legs_here)

    def shift_markings(legs, psi_legs):
        legs = [vv for m, vv in enumerate(legs, start=1) if m != f]
        psis = [e for m, e in enumerate(psi_legs, start=1) if m != f]
        return tuple(legs), tuple(psis)

    results = []
    if graph.genera[v] == 0 and npoints == 3:
        # the vertex destabilizes; all its decorations vanish by the degree bound
        if (
            b
            or dg.kappa[v]
            or any(dg.psi_edges[k][s] for k, s in sides)
            or any(dg.psi_legs[m - 1] for m in legs_other)
        ):
            raise AssertionError(
                "a decoration on a three-pointed rational vertex exceeds "
                "its dimension 0"
            )
        legs, psis = shift_markings(graph.legs, dg.psi_legs)
        if len(sides) == 2:
            (k1, s1), (k2, s2) = sides
            if k1 == k2:
                raise InvalidGraphError(
                    "forgetting this leg collapses a self-glued rational component"
                )
            far1 = (graph.edges[k1][1 - s1], dg.psi_edges[k1][1 - s1])
            far2 = (graph.edges[k2][1 - s2], dg.psi_edges[k2][1 - s2])
            drop = {k1, k2}
            edges = [e for k, e in enumerate(graph.edges) if k not in drop]
            psi_edges = [p for k, p in enumerate(dg.psi_edges) if k not in drop]
            edges.append((far1[0], far2[0]))
            psi_edges.append((far1[1], far2[1]))
        else:
            (k1, s1) = sides[0]
            (moved,) = legs_other
            far_vertex = graph.edges[k1][1 - s1]
            far_psi = dg.psi_edges[k1][1 - s1]
            edges = [e for k, e in enumerate(graph.edges) if k != k1]
            psi_edges = [p for k, p in enumerate(dg.psi_edges) if k != k1]
            legs = list(legs)
            psis = list(psis)
            idx = moved - 1 if moved < f else moved - 2
            legs[idx] = far_vertex
            psis[idx] = far_psi

        def drop_vertex(u):
            return u - 1 if u > v else u

        genera = [gv for u, gv in enumerate(graph.genera) if u != v]
        edges = [tuple(drop_vertex(a) for a in e) for e in edges]
        legs = tuple(drop_vertex(u) for u in legs)
        kappa = [vk for u, vk in enumerate(dg.kappa) if u != v]
        new = make_decorated(genera, edges, legs, tuple(psis), psi_edges, kappa)
        results.append((new, Fraction(1)))
        return results

    # stable vertex: string / dilaton / kappa rules
    legs, psis_base = shift_markings(graph.legs, dg.psi_legs)
    kappa_v = {i: x for i, x in dg.kappa[v]}
    indices = sorted(kappa_v)
    ranges = [range(kappa_v[i] + 1) for i in indices]
    for tvec in itertools.product(*ranges):
        mult = 1
        chosen = 0
        for i, t in zip(indices, tvec):
            mult *= binomial(kappa_v[i], t)
            chosen += i * t
        B = b + chosen
        remaining = {i: kappa_v[i] - t for i, t in zip(indices, tvec) if kappa_v[i] - t}
        if B == 0:
            # string: lower one psi exponent among the other points at v
            for k, s in sides:
                if dg.psi_edges[k][s] > 0:
                    pe = [list(p) for p in dg.psi_edges]
                    pe[k][s] -= 1
                    kap = list(dg.kappa)
                    kap[v] = tuple(sorted(remaining.items()))
                    new = make_decorated(
                        graph.genera, graph.edges, legs, psis_base,
                        [tuple(p) for p in pe], kap,
                    )
                    results.append((new, Fraction(mult)))
            for m in legs_other:
                if dg.psi_legs[m - 1] > 0:
                    psis = list(psis_base)
                    idx = m - 1 if m < f else m - 2
                    psis[idx] -= 1
                    kap = list(dg.kappa)
                    kap[v] = tuple(sorted(remaining.items()))
                    new = make_decorated(
                        graph.genera, graph.edges, legs, tuple(psis),
                        dg.psi_edges, kap,
                    )
                    results.append((new, Fraction(mult)))
            # no psi to lower: the fundamental class pushes to zero
        else:
            kap = list(dg.kappa)
            if B == 1:
                # dilaton: kappa_0 is the scalar 2g(v) - 2 + n(v) - 1
                scalar = 2 * graph.genera[v] - 2 + (npoints - 1)
                kap[v] = tuple(sorted(remaining.items()))
                coeff = Fraction(mult * scalar)
            else:
                merged = dict(remaining)
                merged[B - 1] = merged.get(B - 1, 0) + 1
                kap[v] = tuple(sorted(merged.items()))
                coeff = Fraction(mult)
            new = make_decorated(
                graph.genera, graph.edges, legs, psis_base, dg.psi_edges, kap
            )
            results.append((new, coeff))
    return results


def pushforward_forget(x: StrataElement, marking: int) -> StrataElement:
    """Pushforward along the map forgetting one marked point.

    Markings above the forgotten one shift down by one.  Terms whose
    forgotten-point psi exponent is at least 2 generate kappa decorations.
    """
    if not (1 <= marking <= x.n):
        raise ValueError(f"no marking {marking}")
    if 2 * x.g - 2 + (x.n - 1) <= 0:
        raise ValueError(f"target ({x.g},{x.n - 1}) is unstable")
    out: dict[DecoratedGraph, Fraction] = {}
    for dg, c in x.terms.items():
        for new, c2 in _pushforward_term(dg, marking):
            out[new] = out.get(new, Fraction(0)) + c * c2
    return StrataElement(x.g, x.n - 1, out)
