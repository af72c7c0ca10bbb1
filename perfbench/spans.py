"""Span tracing of trrkit's layers, and the per-layer metrics drawn from it.

``install`` wraps the public functions of each trrkit module in every module
namespace that holds them (``from .stablegraphs import enumerate_stable_graphs``
makes ``trrkit.pixton.enumerate_stable_graphs`` the name pixton's code looks
up, so that name is replaced too), plus the ``SparsePoly`` arithmetic methods
and ``StrataElement.relabel_legs``.  A span is (name, start, end, parent);
spans are kept in flat arrays while the run lasts and written out at the end.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

MODULES = ("stablegraphs", "pixton", "strata", "trr", "numerics", "cli")

# Scalar helpers called millions of times per run (factorials inside d_value,
# the canonical form inside enumeration).  A span each would cost more than it
# measures; their time stays in the caller's self time.
UNWRAPPED = {
    "numerics.rational_str",
    "numerics.parse_rational",
    "numerics.factorial",
    "numerics.double_factorial",
    "numerics.binomial",
    "numerics.falling_factorial",
    "stablegraphs.canonical_data",
    "stablegraphs.validate",
}

METHODS = {
    "numerics": {"SparsePoly": ("__add__", "__sub__", "__neg__", "__mul__")},
    "strata": {"StrataElement": ("relabel_legs",)},
}

SPARSE_POLY = tuple(f"numerics.SparsePoly.{m}" for m in METHODS["numerics"]["SparsePoly"])
AUTOMORPHISMS = (
    "stablegraphs.automorphism_count",
    "stablegraphs.vertex_automorphisms",
    "stablegraphs.half_edge_automorphisms",
)
CLOSED_FORMS = (
    "trr.principal_part",
    "trr.gamma0_closed",
    "trr.gammai_closed",
    "trr.string_pushforward",
    "trr.substitute_prime",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans while ``enabled``; single-threaded by construction."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, object] = {}
        self._stack = [-1]
        self._seen_enumerations: set = set()
        self._seen_plans: set = set()
        self.hooks = {
            "stablegraphs.enumerate_stable_graphs": self._enumeration,
            "pixton.fixed_r_class": self._fixed_r,
            "pixton.weighting_power_sums": lambda a, k, r: _arg(a, k, 0, "graph"),
            "pixton.constant_term_class": lambda a, k, r: _arg(a, k, 3, "dmax"),
            "strata.pushforward_forget": lambda a, k, r: len(r.terms),
            "cli.main": self._cli_output,
        }

    def _enumeration(self, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._seen_enumerations:
            return 0
        self._seen_enumerations.add(key)
        return len(result)

    def _fixed_r(self, args, kwargs, result):
        plan = (
            _arg(args, kwargs, 0, "g"),
            _arg(args, kwargs, 1, "n"),
            _arg(args, kwargs, 4, "dmax"),
            frozenset(_arg(args, kwargs, 5, "survivors", frozenset())),
        )
        first = plan not in self._seen_plans
        self._seen_plans.add(plan)
        return first

    @staticmethod
    def _cli_output(args, kwargs, result):
        argv = list(_arg(args, kwargs, 0, "argv") or ())
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                return os.path.getsize(path)
        return 0

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.name_of)
            self.name_of.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                self.attrs[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions in every trrkit namespace."""
        mods = {m: importlib.import_module(f"trrkit.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrapper = self.wrap(name, obj)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, key, wrapper)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))

    def rescale(self, virtual):
        """Map every span's start and end through the clock ``virtual``."""
        for i in range(len(self.name_of)):
            self.start[i] = virtual(self.start[i])
            self.end[i] = virtual(self.end[i])

    # ------------------------------------------------------------------
    def write(self, path: str, origin: float):
        """Write every span as one JSON line, times relative to ``origin``."""
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.name_of)):
                fh.write(
                    f'{{"id":{i},"name":{names[self.name_of[i]]},'
                    f'"start":{self.start[i] - origin:.9f},"end":{self.end[i] - origin:.9f},'
                    f'"parent":{self.parent[i]}}}\n'
                )

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics over all recorded spans; ``wall_s`` is the traced
        wall time of the operations the spans fall in."""
        n = len(self.name_of)
        names = [self.names[i] for i in self.name_of]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        fixed_r_children = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if names[i] == "pixton.fixed_r_class":
                    fixed_r_children[p] += 1
        self_t = [dur[i] - child[i] for i in range(n)]

        def outermost(group):
            total = 0.0
            for i in range(n):
                if names[i] not in group:
                    continue
                p = self.parent[i]
                while p >= 0 and names[p] not in group:
                    p = self.parent[p]
                if p < 0:
                    total += dur[i]
            return total

        def select(pred):
            return [i for i in range(n) if pred(i)]

        out: dict[str, float] = {}
        for layer in MODULES:
            out[f"{layer}.self_s"] = sum(
                self_t[i] for i in range(n) if names[i].startswith(layer + ".")
            )

        out["stablegraphs.enumerate_s"] = outermost({"stablegraphs.enumerate_stable_graphs"})
        out["stablegraphs.graphs"] = sum(
            self.attrs.get(i, 0)
            for i in select(lambda i: names[i] == "stablegraphs.enumerate_stable_graphs")
        )
        out["stablegraphs.automorphisms_s"] = outermost(set(AUTOMORPHISMS))

        fixed = select(lambda i: names[i] == "pixton.fixed_r_class")
        plan_calls = [i for i in fixed if self.attrs.get(i)]
        sample_calls = [i for i in fixed if not self.attrs.get(i)]
        out["pixton.plan_s"] = sum(self_t[i] for i in plan_calls)
        out["pixton.sampling_s"] = sum(self_t[i] for i in sample_calls)
        out["pixton.samples"] = len(sample_calls)
        sums = select(lambda i: names[i] == "pixton.weighting_power_sums")
        out["pixton.plan_graphs"] = len({self.attrs[i] for i in sums})
        out["pixton.plan_keep_ratio"] = (
            out["pixton.plan_graphs"] / out["stablegraphs.graphs"]
            if out["stablegraphs.graphs"] else 0.0
        )
        out["pixton.power_sums_s"] = outermost({"pixton.weighting_power_sums"})
        out["pixton.power_sums_calls"] = len(sums)
        fits = select(lambda i: names[i] == "pixton.constant_term_class")
        out["pixton.r_fit_s"] = sum(self_t[i] for i in fits)
        nodes = [fixed_r_children[i] for i in fits]
        out["pixton.r_nodes_per_point"] = sum(nodes) / len(nodes) if nodes else 0.0
        out["pixton.r_node_ratio"] = (
            sum(2 * self.attrs[i] + 1 for i in fits) / sum(nodes) if sum(nodes) else 0.0
        )
        grids = select(lambda i: names[i] == "pixton.monomial_coefficient")
        out["pixton.grid_s"] = sum(self_t[i] for i in grids)
        out["pixton.grid_points"] = sum(
            1 for i in fits if self.parent[i] >= 0 and names[self.parent[i]] == "pixton.monomial_coefficient"
        )

        out["strata.symmetrize_s"] = sum(
            dur[i] for i in range(n)
            if names[i] == "strata.StrataElement.relabel_legs"
            and self.parent[i] >= 0 and names[self.parent[i]] == "pixton.monomial_coefficient"
        )
        out["strata.psi_mult_s"] = outermost({"strata.multiply_by_psi"})
        out["strata.pushforward_s"] = outermost({"strata.pushforward_forget"})
        out["strata.pushforward_terms"] = sum(
            self.attrs[i] for i in select(lambda i: names[i] == "strata.pushforward_forget")
        )

        out["trr.closed_forms_s"] = sum(self_t[i] for i in range(n) if names[i] in CLOSED_FORMS)
        out["trr.d_value_s"] = outermost({"trr.d_value"})
        out["trr.d_value_calls"] = sum(1 for i in range(n) if names[i] == "trr.d_value")
        out["numerics.sparse_poly_s"] = sum(self_t[i] for i in range(n) if names[i] in SPARSE_POLY)
        out["cli.output_bytes"] = sum(
            self.attrs[i] for i in select(lambda i: names[i] == "cli.main")
        )

        top = sum(dur[i] for i in range(n) if self.parent[i] < 0)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - top
        out["trace.spans"] = n
        return out

