"""Tests of the benchmark itself: every check rejects a corrupted result, and a
tiny run of each workload completes with the metrics BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workload  # noqa: E402
from trrkit import pixton, strata, trr  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _with_terms(element, terms):
    return strata.StrataElement(element.g, element.n, terms)


def _changed(element, pick):
    """``element`` with one added to the first coefficient ``pick`` accepts."""
    terms = dict(element.terms)
    key = next(dg for dg in terms if pick(dg))
    terms[key] += 1
    return _with_terms(element, terms)


def _dropped(element, pick):
    terms = dict(element.terms)
    del terms[next(dg for dg in terms if pick(dg))]
    return _with_terms(element, terms)


# ----------------------------------------------------------------------
# lemmas-g1
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def omega_g1():
    element, _ = trr.omega(trr.MonomialSpec(1, 1, ()), jobs=1)
    return element


def test_lemma_check_accepts_the_pipeline(omega_g1):
    assert checks.check_lemma_class(1, 1, (), omega_g1) == []


def test_lemma_check_rejects_changed_coefficient(omega_g1):
    bad = _changed(omega_g1, lambda dg: not dg.graph.edges)
    assert checks.check_lemma_class(1, 1, (), bad)


def test_lemma_check_rejects_dropped_term(omega_g1):
    bad = _dropped(omega_g1, lambda dg: not dg.graph.edges)
    assert checks.check_lemma_class(1, 1, (), bad)


# ----------------------------------------------------------------------
# genus2-slice (on the genus-1 slice, same code)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def slice_point():
    wl = workload.Genus2Slice(seed=3, tiny=True)
    a = wl.points[0]
    element, _ = pixton.constant_term_class(
        wl.g, wl.N, a, wl.d, r0=wl.r0, survivors=wl.survivors
    )
    return wl, a, element


def test_pixton_check_accepts_the_pipeline(slice_point):
    wl, a, element = slice_point
    assert checks.check_pixton_point(wl.g, a, wl.survivors, wl.d, element) == []


def test_pixton_check_covers_every_low_degree_shape(slice_point):
    wl, a, _ = slice_point
    kinds = {key[0] for key in checks.pixton_low_degree(wl.g, a, wl.survivors)}
    assert kinds == {"trivial", "psi", "separating", "loop"}


@pytest.mark.parametrize("shape", [
    lambda dg: not dg.graph.edges and sum(dg.psi_legs) == 1,
    lambda dg: len(dg.graph.edges) == 1 and dg.graph.edges[0][0] != dg.graph.edges[0][1]
    and sum(dg.psi_legs) == 0 and not any(map(sum, dg.psi_edges)),
    lambda dg: len(dg.graph.edges) == 1 and dg.graph.edges[0][0] == dg.graph.edges[0][1]
    and sum(dg.psi_legs) == 0 and not any(map(sum, dg.psi_edges)),
])
def test_pixton_check_rejects_changed_or_dropped_term(slice_point, shape):
    wl, a, element = slice_point
    for bad in (_changed(element, shape), _dropped(element, shape)):
        assert checks.check_pixton_point(wl.g, a, wl.survivors, wl.d, bad)


def test_pixton_check_rejects_kappa_and_high_degree(slice_point):
    wl, a, element = slice_point
    trivial = next(dg for dg in element.terms if not dg.graph.edges)
    kappa = strata.DecoratedGraph(trivial.graph, trivial.psi_legs, (), (((1, 1),),))
    high = strata.DecoratedGraph(
        trivial.graph, (wl.d + 1,) + trivial.psi_legs[1:], (), trivial.kappa
    )
    for extra in (kappa, high):
        bad = _with_terms(element, {**element.terms, extra: Fraction(1)})
        assert checks.check_pixton_point(wl.g, a, wl.survivors, wl.d, bad)


def test_relabelling_check(slice_point):
    wl, a, _ = slice_point
    moved = [0] * wl.N
    for m in range(1, wl.N + 1):
        moved[wl.perm.get(m, m) - 1] = a[m - 1]
    base = pixton.fixed_r_class(wl.g, wl.N, a, wl.r0, wl.d, wl.survivors)
    permuted = pixton.fixed_r_class(wl.g, wl.N, moved, wl.r0, wl.d, wl.survivors)
    assert checks.check_relabelling(base, permuted, wl.perm) == []
    assert checks.check_relabelling(base, _changed(permuted, lambda dg: True), wl.perm)


# ----------------------------------------------------------------------
# closed-forms
# ----------------------------------------------------------------------

def test_scan_cells_match_the_paper_range():
    assert sum(1 for _ in checks.scan_cells(26)) == 41365


def test_scan_check_rejects_extra_zero_and_wrong_count():
    zeros, cells = trr.scan_zeros(1, 8)
    result = {"zeros": [[g, n, k, list(l)] for g, n, k, l in zeros], "cells_checked": cells}
    assert checks.check_scan(result, 1, 8) == []
    extra = dict(result, zeros=result["zeros"] + [[8, 2, 1, [7]]])
    assert checks.check_scan(extra, 1, 8)
    assert checks.check_scan(dict(result, cells_checked=cells - 1), 1, 8)
    assert checks.check_scan(dict(result, zeros=[]), 1, 8)


@pytest.mark.parametrize("g,k,l", [(2, 1, (1,)), (5, 2, (1, 2))])
def test_principal_check_rejects_changed_and_dropped_terms(g, k, l):
    result = trr.principal_part(g, k, l).to_json()
    assert checks.check_principal(result, g, k, l) == []
    target = [k] + list(l)
    changed = json.loads(json.dumps(result))
    row = next(r for r in changed["principal"] if r["exponents"] != target)
    row["exponents"] = [k] + row["exponents"][1:]
    assert checks.check_principal(changed, g, k, l)
    scaled = json.loads(json.dumps(result))
    next(r for r in scaled["principal"] if r["exponents"] == target)["coeff"] = "2"
    assert checks.check_principal(scaled, g, k, l)
    dropped = dict(result, principal=[r for r in result["principal"] if r["exponents"] != target])
    assert checks.check_principal(dropped, g, k, l)


def test_principal_check_rejects_wrong_two_point_d():
    result = trr.principal_part(3, 1, (2,)).to_json()
    assert checks.check_principal(result, 3, 1, (2,)) == []
    result["provenance"]["D"] = "1"
    assert checks.check_principal(result, 3, 1, (2,))


def test_g7_check():
    report = trr.g7_patch()
    assert checks.check_g7({"ok": report["ok"]}) == []
    assert checks.check_g7({"ok": False})


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------

class _Raising(workload.Workload):
    def operations(self):
        yield "fine", lambda: 1, lambda out: []
        yield "raises", lambda: 1 / 0, lambda out: []


@pytest.mark.parametrize("check", [True, False])
def test_raising_operation_fails_and_makes_the_run_incorrect(check):
    result = workload.run_rounds(_Raising(), 0, 2, None, check)
    assert result["attempted"] == 4 and result["failed"] == 2
    assert result["correct"] is False
    assert any("ZeroDivisionError" in p for p in result["problems"])

def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run(name):
    proc = _run(["--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0", "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_partitions_wall_time():
    proc = _run(["--workload", "lemmas-g1", "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny"])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    layers = sum(metrics[f"{m}.self_s"]["value"] for m in
                 ("stablegraphs", "pixton", "strata", "trr", "numerics", "cli"))
    total = layers + metrics["trace.unattributed_s"]["value"]
    assert total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["pixton.power_sums_calls"]["value"] > 0


def test_run_without_sources_fails_without_result():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(["--workload", "lemmas-g1", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
