"""Stable graphs: validity, canonical labeling, enumeration, automorphisms.

A stable graph is stored in quotient form: a genus per vertex, a multiset of
edges given as vertex pairs (loops and parallel edges allowed), and a vertex
per numbered leg.  Half-edges are addressed positionally: edge k has sides 0
and 1 attached to edges[k][0] and edges[k][1] respectively.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .numerics import factorial
from .runtime import InvalidGraphError


@dataclass(frozen=True, slots=True)
class StableGraph:
    """Immutable stable graph; construct through :func:`make_graph` so the
    stored representative is the canonical one of its isomorphism class."""

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]  # legs[i] = vertex carrying marking i+1
    # the hash, computed on first use
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.genera, self.edges, self.legs))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        return len(self.legs)

    def h1(self) -> int:
        return len(self.edges) - len(self.genera) + 1

    def genus(self) -> int:
        return self.h1() + sum(self.genera)

    def capacities(self) -> tuple[int, ...]:
        """Decoration degree bound 3g(v) - 3 + n(v) at each vertex v."""
        val = _valences(len(self.genera), self.edges, self.legs)
        return tuple(3 * g - 3 + v for g, v in zip(self.genera, val))

    def sort_key(self):
        return (self.genera, self.edges, self.legs)


def _connected(num_vertices: int, edges: Iterable[tuple[int, int]]) -> bool:
    if num_vertices <= 1:
        return True
    adj = {v: set() for v in range(num_vertices)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == num_vertices


def validate(graph: StableGraph) -> list[str]:
    """Return the list of violated conditions (empty when the graph is valid)."""
    problems = []
    V = len(graph.genera)
    if V == 0:
        return ["graph has no vertices"]
    if any(g < 0 for g in graph.genera):
        problems.append("negative vertex genus")
    for u, w in graph.edges:
        if not (0 <= u < V and 0 <= w < V):
            problems.append(f"edge endpoint out of range: ({u},{w})")
    for m, v in enumerate(graph.legs, start=1):
        if not (0 <= v < V):
            problems.append(f"leg {m} attached to missing vertex {v}")
    if problems:
        return problems
    if not _connected(V, graph.edges):
        problems.append("graph is not connected")
    val = _valences(V, graph.edges, graph.legs)
    for v in range(V):
        if 2 * graph.genera[v] - 2 + val[v] <= 0:
            problems.append(
                f"vertex {v} unstable: 2g-2+n = {2 * graph.genera[v] - 2 + val[v]}"
            )
    return problems


def _vertex_classes(genera, edges, legs):
    """Group vertices by an isomorphism-invariant signature; the canonical
    order sorts classes by signature and only permutes within a class."""
    V = len(genera)
    deg = [0] * V
    loops = [0] * V
    for u, w in edges:
        if u == w:
            loops[u] += 1
            deg[u] += 2
        else:
            deg[u] += 1
            deg[w] += 1
    marking_sets = [[] for _ in range(V)]
    for m, v in enumerate(legs, start=1):
        marking_sets[v].append(m)
    sig = [
        (genera[v], deg[v] + len(marking_sets[v]), loops[v], tuple(marking_sets[v]))
        for v in range(V)
    ]
    classes = {}
    for v in range(V):
        classes.setdefault(sig[v], []).append(v)
    ordered = sorted(classes.items())
    return ordered


def _iter_candidate_perms(genera, edges, legs):
    """Yield vertex permutations old->new compatible with the class order."""
    ordered = _vertex_classes(genera, edges, legs)
    blocks = [members for _, members in ordered]
    starts = []
    base = 0
    for members in blocks:
        starts.append(base)
        base += len(members)
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [0] * len(genera)
        for block_idx, arranged in enumerate(choice):
            for offset, old_v in enumerate(arranged):
                perm[old_v] = starts[block_idx] + offset
        yield tuple(perm)


def _apply_perm(perm, genera, edges, legs):
    V = len(genera)
    new_genera = [0] * V
    for v in range(V):
        new_genera[perm[v]] = genera[v]
    new_edges = sorted(tuple(sorted((perm[u], perm[w]))) for u, w in edges)
    new_legs = tuple(perm[v] for v in legs)
    return tuple(new_genera), tuple(new_edges), new_legs


def canonical_perm(genera, edges, legs) -> tuple[int, ...]:
    """A vertex permutation old->new taking the data to the canonical
    representative of its isomorphism class: the least relabelled
    (genera, edges, legs).  Any other such permutation is this one followed
    by an automorphism of the canonical data."""
    return min(
        _iter_candidate_perms(genera, edges, legs),
        key=lambda perm: _apply_perm(perm, genera, edges, legs),
    )


def canonical_data(genera, edges, legs):
    """Canonical (genera, edges, legs) for the isomorphism class."""
    return _apply_perm(canonical_perm(genera, edges, legs), genera, edges, legs)


def make_graph(genera, edges, legs) -> StableGraph:
    """Build the canonical :class:`StableGraph` for the given data; data
    that is not a stable graph raises :class:`InvalidGraphError`."""
    graph = StableGraph(tuple(genera), tuple(tuple(sorted(e)) for e in edges), tuple(legs))
    problems = validate(graph)
    if problems:
        raise InvalidGraphError("; ".join(problems))
    return _canonical_graph(*canonical_data(graph.genera, graph.edges, graph.legs))


@functools.cache
def _canonical_graph(genera, edges, legs) -> StableGraph:
    """The one :class:`StableGraph` of the process for this canonical data,
    so that every plan, template and term holds the same object."""
    return StableGraph(genera, edges, legs)


def _automorphisms(genera, edges, legs) -> tuple[tuple[int, ...], ...]:
    """All vertex permutations fixing genera, legs and the edge multiset.

    The data must be canonical (as returned by :func:`canonical_data`): the
    search only permutes within the contiguous vertex classes that the
    canonical order produces.
    """
    own = (genera, edges, legs)
    return tuple(
        perm
        for perm in _iter_candidate_perms(*own)
        if _apply_perm(perm, *own) == own
    )


def vertex_automorphisms(graph: StableGraph) -> tuple[tuple[int, ...], ...]:
    """All vertex permutations fixing genera, legs and the edge multiset.

    The graph must be canonical (as produced by :func:`make_graph`).
    """
    return _graph_automorphisms(graph)


@functools.cache
def _graph_automorphisms(graph: StableGraph) -> tuple[tuple[int, ...], ...]:
    return _automorphisms(graph.genera, graph.edges, graph.legs)


def automorphism_count(graph: StableGraph, check: bool = True) -> int:
    """Order of the automorphism group (vertex and half-edge permutations
    commuting with the genus, vertex, involution and marking maps).

    For a fixed compatible vertex permutation the half-edge extensions are
    counted directly: parallel edges between each vertex pair permute freely,
    loops permute freely, and each loop's two half-edges can swap.  With
    ``check`` False the graph must already be canonical (as enumerated or
    built by :func:`make_graph`); it is then neither validated nor rebuilt.
    """
    if check:
        graph = make_graph(graph.genera, graph.edges, graph.legs)
    count = len(vertex_automorphisms(graph))
    mult: dict[tuple[int, int], int] = {}
    loops = 0
    for u, w in graph.edges:
        if u == w:
            loops += 1
        mult[(u, w)] = mult.get((u, w), 0) + 1
    for m in mult.values():
        count *= factorial(m)
    count *= 2**loops
    return count


def _valences(V: int, edges, legs=()) -> list[int]:
    """The legs and half-edges at each of the V vertices."""
    val = [0] * V
    for u, w in edges:
        val[u] += 1
        val[w] += 1
    for v in legs:
        val[v] += 1
    return val


def _stability_need(genera, deg) -> list[int]:
    """Legs each vertex needs before 2g(v) - 2 + n(v) > 0."""
    return [max(0, 3 - 2 * gv - dv) for gv, dv in zip(genera, deg)]


def _degenerations(shapes, n: int) -> Iterator[tuple]:
    """The canonical leg-free shapes (genera, edges) with one edge more than
    the ``shapes``, of the same genus, whose stability need is at most n,
    each yielded once, as soon as it is found, so that a reader that stops
    early canonicalizes no candidate beyond.

    A shape degenerates by a loop at a vertex of positive genus, which
    takes one from its genus, or by splitting a vertex v in two across a
    new edge, its genus and its half-edges shared out between v and the new
    vertex.  Contracting any edge of a shape inverts one of these moves and
    never raises the need, and neither move lowers it, so every shape with
    need at most n comes from one on the level below that has it too.
    """
    seen = set()
    for genera, edges in shapes:
        V = len(genera)
        candidates = []
        for v, gv in enumerate(genera):
            if gv:
                candidates.append((genera[:v] + (gv - 1,) + genera[v + 1:], edges + ((v, v),)))
            # each half-edge at v, as (edge, side), stays at v or moves to V
            ends = [(k, side) for k, e in enumerate(edges) for side in (0, 1) if e[side] == v]
            for targets in itertools.product((v, V), repeat=len(ends)):
                split = [list(e) for e in edges] + [[v, V]]
                for (k, side), x in zip(ends, targets):
                    split[k][side] = x
                split = tuple(map(tuple, split))
                for kept in range(gv + 1):
                    candidates.append(
                        (genera[:v] + (kept,) + genera[v + 1:] + (gv - kept,), split)
                    )
        for new_genera, new_edges in candidates:
            deg = _valences(len(new_genera), new_edges)
            if sum(_stability_need(new_genera, deg)) <= n:
                shape = canonical_data(new_genera, new_edges, ())[:2]
                if shape not in seen:
                    seen.add(shape)
                    yield shape


def _orbit_minimal_leg_maps(need, n: int, auts) -> Iterator[tuple[int, ...]]:
    """Leg maps (legs[i] = vertex of marking i+1) giving each vertex v at
    least need[v] legs, one per orbit of the vertex permutations ``auts``:
    the least of its orbit.  The need asks for at most n legs in all.

    Maps grow one leg at a time, in marking order, and only while the legs
    left can still meet the need.  A permutation fixing the placed prefix
    decides the comparison at the first leg that it moves: it maps it lower
    (the map is not least; prune) or higher (it can never make the map
    smaller; forget it).
    """
    V = len(need)
    legs = [0] * n
    missing = list(need)
    moving = [p for p in auts if any(p[v] != v for v in range(V))]
    # one frame per leg on the path, with the next vertex it tries: an
    # explicit stack, so the depth is not bounded by the recursion limit
    frames = [(sum(need), moving, 0)]
    while frames:
        short, active, start = frames.pop()
        i = len(frames)
        if i == n:
            yield tuple(legs)
            start = V
        for x in range(start, V):
            took = 1 if missing[x] else 0
            if short - took > n - i - 1:
                continue
            still = []
            for p in active:
                if p[x] < x:
                    break
                if p[x] == x:
                    still.append(p)
            else:
                frames.append((short, active, x + 1))
                frames.append((short - took, still, 0))
                legs[i] = x
                missing[x] -= took
                break
        else:
            # every vertex tried: take back leg i-1 before its next vertex
            if i:
                missing[legs[i - 1]] += frames[-1][0] - short


def enumerate_stable_graphs(
    g: int, n: int, max_edges: int | None = None, reserved_markings=()
) -> tuple:
    """All stable graphs of genus g with n legs, one per isomorphism class,
    optionally restricted to at most ``max_edges`` edges, sorted by
    :meth:`StableGraph.sort_key`.

    ``reserved_markings`` keeps only the graphs with room for one unit of
    decoration degree at each listed marking: every vertex's capacity
    3g(v) - 3 + n(v) is at least the number of listed markings on it.  The
    test is relabel-invariant, so it runs on each leg map before that graph
    is canonicalized.

    Generation runs over leg-free shapes first: the canonical connected
    multigraphs with vertex genera that n legs can stabilize, built level by
    level in the edge count from the one-vertex shape
    (:func:`_degenerations`).  Two graphs on the same
    canonical shape are isomorphic exactly when their leg maps differ by a
    vertex automorphism of the shape, and graphs on different shapes are
    not isomorphic.  So taking, per shape, the least leg map of each orbit
    (:func:`_orbit_minimal_leg_maps`) meets every isomorphism class exactly
    once, and each such graph is canonicalized once, with no deduplication.
    """
    if 2 * g - 2 + n <= 0:
        raise InvalidGraphError(f"({g},{n}) is unstable")
    cap = 3 * g - 3 + n
    emax = cap if max_edges is None else min(max_edges, cap)
    return _enumerate(g, n, emax, frozenset(reserved_markings))


def _leg_maps(g: int, n: int, emax: int, reserved: frozenset) -> Iterator:
    """The graphs of :func:`_enumerate`, uncanonicalized, as (genera, edges,
    legs), lazily: each level's shapes are found while the level is walked,
    and kept for the next, so a reader that stops early builds no shape
    beyond the one it stopped on."""
    # the markings whose legs count toward the capacity they must leave
    free = [m not in reserved for m in range(1, n + 1)]

    shapes = [((g,), ())]
    for _ in range(emax + 1):
        walked = []
        for genera, edges in shapes:
            walked.append((genera, edges))
            auts = _automorphisms(genera, edges, ())
            deg = _valences(len(genera), edges)
            need = _stability_need(genera, deg)
            base = [3 * gv - 3 + dv for gv, dv in zip(genera, deg)]
            for legs in _orbit_minimal_leg_maps(need, n, auts):
                if reserved:
                    room = base[:]
                    for v, counts in zip(legs, free):
                        room[v] += counts
                    if min(room) < 0:
                        continue
                yield genera, edges, legs
        shapes = _degenerations(walked, n)


@functools.cache
def _enumerate(g: int, n: int, emax: int, reserved: frozenset) -> tuple:
    graphs = [_canonical_graph(*canonical_data(*data)) for data in _leg_maps(g, n, emax, reserved)]
    return tuple(sorted(graphs, key=StableGraph.sort_key))


def graph_to_json(graph: StableGraph) -> dict:
    return {
        "genus": graph.genus(),
        "n": graph.n,
        "vertices": [{"genus": gv} for gv in graph.genera],
        "edges": [[u, w] for u, w in graph.edges],
        "legs": [
            {"marking": m, "vertex": v} for m, v in enumerate(graph.legs, start=1)
        ],
    }
