"""Independent checks of each workload's outputs.

Every function returns a list of problems; an empty list means the output
passed.  None of them calls the code path that produced the output:

* the genus-1 classes are compared with the closed forms of the paper's
  lemmas in ``trr`` (no ``pixton`` or ``stablegraphs`` code);
* the genus-2 points are compared with Pixton's degree <= 1 part, written
  out here from the formula;
* the scan and principal parts are compared with counts and identities
  computed here.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

# the only vanishing D for g <= 26 (the paper's exhaustive scan)
KNOWN_ZEROS = ((7, 4, 3, (1, 1, 2)),)


# ----------------------------------------------------------------------
# lemmas-g1: the brute-force class against the closed forms
# ----------------------------------------------------------------------

def check_lemma_class(g: int, n: int, b, element) -> list[str]:
    from trrkit import strata, trr

    problems = []
    if element.has_kappa():
        problems.append("class carries kappa")
    if any(_degree(dg) != g + 1 for dg in element.terms):
        problems.append(f"class is not homogeneous of degree {g + 1}")
    if element.psi_degree(n + 1) != 0:
        problems.append(f"psi exponent at the new leg {n + 1}")
    try:
        got = trr.trivial_component_poly(element, n)
        if got != trr.gamma0_closed(g, n, tuple(b)):
            problems.append(f"trivial-graph part {got!r} != gamma0_closed")
        for i in range(2, n + 1):
            got_i = trr.tail_component_poly(element, i, n)
            if got_i != trr.gammai_closed(g, n, i, tuple(b)):
                problems.append(f"rational-tail part at {i} {got_i!r} != gammai_closed")
    except ValueError as exc:
        problems.append(f"component extraction: {exc}")
    pushed = strata.pushforward_forget(element, n + 1)
    boundary = pushed - pushed.graph_component(trr.trivial_graph(g, n))
    if not boundary.is_kappa_free_boundary():
        problems.append("boundary of the pushforward is not kappa-free")
    return problems


# ----------------------------------------------------------------------
# genus2-slice: Pixton's degree <= 1 part at one point
# ----------------------------------------------------------------------

def _degree(dg) -> int:
    return (
        len(dg.graph.edges)
        + sum(dg.psi_legs)
        + sum(x + y for x, y in dg.psi_edges)
        + sum(i * e for vk in dg.kappa for i, e in vk)
    )


def _low_degree_key(dg):
    """Shape of a degree <= 1 term, independent of vertex numbering."""
    graph = dg.graph
    if not graph.edges:
        hot = [m for m, e in enumerate(dg.psi_legs, start=1) if e]
        return ("trivial",) if not hot else ("psi", hot[0])
    (u, w), = graph.edges
    if u == w:
        return ("loop", graph.genera[0])
    sides = [
        (graph.genera[v], frozenset(m for m, vv in enumerate(graph.legs, start=1) if vv == v))
        for v in (u, w)
    ]
    return ("separating", frozenset(sides))


def pixton_low_degree(g: int, a, survivors) -> dict:
    """Degree <= 1 part of Pixton's class at leg values ``a`` (constant term
    in r), restricted to graphs that keep one unit of psi capacity at each
    survivor leg: 1 on the trivial graph, a_i^2/2 on psi_i, -a_S^2/(2|Aut|)
    on a separating edge, and -1/24 on the self-loop."""
    n = len(a)
    legs = range(1, n + 1)
    out = {("trivial",): Fraction(1)}
    for i in legs:
        if a[i - 1]:
            out[("psi", i)] = Fraction(a[i - 1] ** 2, 2)

    def fits(genus, leg_set, half_edges):
        valence = len(leg_set) + half_edges
        if 2 * genus - 2 + valence <= 0:
            return False
        return sum(1 for m in leg_set if m in survivors) <= 3 * genus - 3 + valence

    # each unordered split once: the side holding marking 1 is S
    rest = [m for m in legs if m != 1]
    for size in range(len(rest) + 1):
        for others in itertools.combinations(rest, size):
            s = frozenset((1,) + others)
            sc = frozenset(legs) - s
            a_s = sum(a[m - 1] for m in s)
            if a_s == 0:
                continue
            for g1 in range(g + 1):
                if fits(g1, s, 1) and fits(g - g1, sc, 1):
                    key = ("separating", frozenset({(g1, s), (g - g1, sc)}))
                    out[key] = Fraction(-a_s * a_s, 2)
    if g >= 1 and fits(g - 1, frozenset(legs), 2):
        out[("loop", g - 1)] = Fraction(-1, 24)
    return out


def check_pixton_point(g: int, a, survivors, dmax: int, element) -> list[str]:
    problems = []
    got: dict = {}
    for dg, c in element.terms.items():
        if any(dg.kappa):
            problems.append("class carries kappa")
            break
        d = _degree(dg)
        if d > dmax:
            problems.append(f"term of degree {d} above the cap {dmax}")
            break
        if d <= 1:
            key = _low_degree_key(dg)
            got[key] = got.get(key, Fraction(0)) + c
    want = pixton_low_degree(g, tuple(a), frozenset(survivors))
    for key in sorted(set(got) | set(want), key=repr):
        if got.get(key, 0) != want.get(key, 0):
            problems.append(
                f"degree <= 1 term {key}: got {got.get(key, 0)}, want {want.get(key, 0)}"
            )
    return problems


def check_relabelling(element, permuted, perm: dict) -> list[str]:
    """The class at permuted leg values equals the leg-relabelled class."""
    relabelled = element.relabel_legs(perm)
    if relabelled.terms != permuted.terms:
        diff = len(set(relabelled.terms.items()) ^ set(permuted.terms.items()))
        return [f"relabelled class differs from the permuted-point class in {diff} terms"]
    return []


# ----------------------------------------------------------------------
# closed-forms: scan, D values and principal parts
# ----------------------------------------------------------------------

def scan_cells(g_max: int):
    """The cells under the scan conventions 2 <= n <= g, k >= 1, l_j >= 1
    nondecreasing, k + sum(l) = g, as (g, k, l), for genus 2..g_max (genus 1
    has none)."""
    def nondecreasing(total, parts, low):
        if parts == 1:
            if total >= low:
                yield (total,)
            return
        for first in range(low, total // parts + 1):
            for tail in nondecreasing(total - first, parts - 1, first):
                yield (first,) + tail

    for g in range(2, g_max + 1):
        for n in range(2, g + 1):
            for k in range(1, g - n + 2):
                for l in nondecreasing(g - k, n - 1, 1):
                    yield g, k, l


def check_scan(result: dict, g_min: int, g_max: int) -> list[str]:
    problems = []
    want = [
        [g, n, k, list(l)] for g, n, k, l in KNOWN_ZEROS if g_min <= g <= g_max
    ]
    if result.get("zeros") != want:
        problems.append(f"zero set {result.get('zeros')} != {want}")
    cells = sum(1 for g, _, _ in scan_cells(g_max) if g >= g_min)
    if result.get("cells_checked") != cells:
        problems.append(f"cells_checked {result.get('cells_checked')} != {cells}")
    return problems


def d_two_point(g: int, k: int, l: int) -> Fraction:
    """D for n = 2: 2k(1 - 2l) / (2g + 1 + 2k)."""
    return Fraction(2 * k * (1 - 2 * l), 2 * g + 1 + 2 * k)


def check_principal(result: dict, g: int, k: int, l) -> list[str]:
    problems = []
    target = [k] + sorted(l)
    rows = result.get("principal", [])
    hits = [row for row in rows if row["exponents"] == target]
    if len(hits) != 1 or Fraction(hits[0]["coeff"]) != 1:
        problems.append(f"target {target} does not have coefficient 1")
    for row in rows:
        if row["exponents"] != target and row["exponents"][0] <= k:
            problems.append(f"monomial {row['exponents']} has psi_1 exponent <= {k}")
            break
    if len(l) == 1:
        got = result.get("provenance", {}).get("D")
        if got is None or Fraction(got) != d_two_point(g, k, l[0]):
            problems.append(f"D = {got} != {d_two_point(g, k, l[0])}")
    return problems


def check_g7(result: dict) -> list[str]:
    return [] if result.get("ok") is True else [f"g7 report not ok: {result.get('error')}"]


def load_result(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["result"]
