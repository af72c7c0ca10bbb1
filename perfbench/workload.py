"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/workload.py --workload NAME --seed N [--seconds S | --rounds R]
                                  [--setup-only] [--trace] [--no-checks] [--tiny]

Imports trrkit from ``src/`` next to this directory, builds the inputs from
the seed, then runs whole rounds of operations: every public call is timed
as one operation, and checked afterwards, untimed, by ``checks``.  The last
line of standard output is one JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402  (this directory is sys.path[0])
import speed  # noqa: E402


class Workload:
    """Inputs are built by the constructor; ``operations`` yields one round
    of (label, call, check) triples, where ``check(output)`` returns a list
    of problems."""

    def check_run(self) -> list[str]:
        """Problems found by a check made once per run."""
        return []

    def close(self):
        pass


class LemmasG1(Workload):
    """``trr.omega`` on the four genus-1 instances, in a seeded order."""

    INSTANCES = ((1, 1, ()), (1, 2, (0,)), (1, 2, (1,)), (1, 2, (2,)))

    def __init__(self, seed: int, tiny: bool):
        from trrkit import trr

        instances = list(self.INSTANCES[:1] if tiny else self.INSTANCES)
        random.Random(seed).shuffle(instances)
        self.monomials = [trr.MonomialSpec(g, n, b) for g, n, b in instances]

    def operations(self):
        from trrkit import trr

        for mono in self.monomials:
            yield (
                f"omega{(mono.g, mono.n, mono.exponents)}",
                lambda mono=mono: trr.omega(mono, jobs=1),
                lambda out, mono=mono: checks.check_lemma_class(
                    mono.g, mono.n, mono.exponents, out[0]
                ),
            )


class Genus2Slice(Workload):
    """The plan of the (2,1,()) comparison and a seeded sample of its grid.

    The grid is the one ``monomial_coefficient`` builds for ``omega`` at
    (g, n, b) = (2, 1, ()): (g, N) = (2, 7), degree cap 3, survivor legs 3-7,
    r0 = 219, with legs of equal exponent and survivor status collapsed to
    sorted tuples.  The plan is paid by the first point, as a user pays it.
    """

    POINTS = 1

    def __init__(self, seed: int, tiny: bool):
        from trrkit import numerics, trr

        mono = trr.MonomialSpec(1, 1, ()) if tiny else trr.MonomialSpec(2, 1, ())
        g, n, N = mono.g, mono.n, mono.num_legs
        exponents = mono.exponents + (1,) * (N - n)
        self.g, self.N, self.d = g, N, g + 1
        self.survivors = frozenset(range(n + 2, N + 1))
        degree = 2 * self.d
        self.r0 = 2 * max(degree * (N - 1), degree, 1) * self.d + 3
        weights = {
            m: numerics.lagrange_coefficient_weights(degree, b)
            for m, b in zip(range(2, N + 1), exponents)
        }
        blocks: dict[tuple, list[int]] = {}
        for m, b in zip(range(2, N + 1), exponents):
            blocks.setdefault((b, m in self.survivors), []).append(m)
        choices = [
            [dict(zip(ms, vals)) for vals in
             itertools.combinations_with_replacement(range(degree + 1), len(ms))]
            for ms in blocks.values()
        ]
        grid = []
        for parts in itertools.product(*choices):
            values = {m: v for part in parts for m, v in part.items()}
            avec = tuple(values[m] for m in range(2, N + 1))
            weight = 1
            for m in range(2, N + 1):
                weight *= weights[m][values[m]]
            if weight:
                grid.append((-sum(avec),) + avec)
        self.grid_size = len(grid)
        rng = random.Random(seed)
        self.points = rng.sample(grid, self.POINTS)
        legs = sorted(self.survivors)
        while True:
            image = rng.sample(legs, len(legs))
            if image != legs:
                break
        self.perm = dict(zip(legs, image))

    def operations(self):
        from trrkit import pixton

        for i, a in enumerate(self.points):
            yield (
                f"point{i}{a}",
                lambda a=a: pixton.constant_term_class(
                    self.g, self.N, a, self.d, r0=self.r0, survivors=self.survivors
                ),
                lambda out, a=a: checks.check_pixton_point(
                    self.g, a, self.survivors, self.d, out[0]
                ),
            )

    def check_run(self):
        """Leg symmetry of the graph sum at the first r node: permuting the
        values on the survivor legs gives the leg-relabelled class."""
        from trrkit import pixton

        a = self.points[-1]
        permuted = [0] * self.N
        for m in range(1, self.N + 1):
            permuted[self.perm.get(m, m) - 1] = a[m - 1]
        base = pixton.fixed_r_class(self.g, self.N, a, self.r0, self.d, self.survivors)
        moved = pixton.fixed_r_class(self.g, self.N, permuted, self.r0, self.d, self.survivors)
        return checks.check_relabelling(base, moved, self.perm)


def _cli(argv):
    """``trrkit.cli.main`` with its standard streams captured."""
    from trrkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class ClosedForms(Workload):
    """The paper's headline results through the CLI, written to files."""

    def __init__(self, seed: int, tiny: bool):
        import trrkit.cli  # noqa: F401  (imports are part of set-up)

        self.scan_max = 8 if tiny else 26
        self.principal_max = 4 if tiny else 7
        zeros = {(g, k, l) for g, _, k, l in checks.KNOWN_ZEROS}
        self.cells = [c for c in checks.scan_cells(self.principal_max) if c not in zeros]
        random.Random(seed).shuffle(self.cells)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="closed-forms-", dir=OUT_DIR)

    def _file_op(self, label, argv, check):
        path = os.path.join(self.workdir, label + ".json")

        def verify(out):
            code, _, err = out
            if code != 0:
                return [f"exit code {code}: {err.strip()}"]
            problems = check(checks.load_result(path))
            code, text, err = _cli(["check", path])
            if code != 0 or text.strip() != "ok":
                problems.append(f"trrkit check failed: {err.strip()}")
            return problems

        return label, lambda: _cli(argv + ["--out", path]), verify

    def operations(self):
        g_max = str(self.scan_max)
        yield self._file_op(
            "scan", ["scan", "--g-min", "1", "--g-max", g_max, "--jobs", "1"],
            lambda res: checks.check_scan(res, 1, self.scan_max),
        )
        for g, k, l in self.cells:
            yield self._file_op(
                f"principal-{g}-{k}-{'_'.join(map(str, l))}",
                ["principal", "--g", str(g), "--k", str(k), "--l", ",".join(map(str, l))],
                lambda res, g=g, k=k, l=l: checks.check_principal(res, g, k, l),
            )
        yield (
            "d-35-22",
            lambda: _cli(["d", "--g", "35", "--k", "22", "--l", "11,1,1"]),
            lambda out: [] if out[0] == 0 and out[1].strip() == "0" else [f"D(35,22,(11,1,1)): {out}"],
        )
        yield self._file_op("g7", ["g7"], checks.check_g7)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"lemmas-g1": LemmasG1, "genus2-slice": Genus2Slice, "closed-forms": ClosedForms}


def run_rounds(workload, seconds, rounds, tracer, check):
    """Whole rounds until ``rounds`` are done, or, with ``rounds`` 0, until
    the rounds' measured time reaches ``seconds``.  Checks run after each
    round, untimed and untraced.  Times are rescaled to the reference speed
    by a ``speed.Clock`` that runs throughout."""
    clock = speed.Clock()
    round_spans, op_spans, problems = [], [], []
    attempted = failed = 0
    correct = True
    peak_rss_mb = 0.0
    clock.start()
    while True:
        ops = list(workload.operations())
        outputs = []
        if tracer:
            tracer.enabled = True
        start = perf_counter()
        for label, call, _ in ops:
            t0 = perf_counter()
            try:
                out, err = call(), None
            except Exception as exc:  # a failing call is a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            op_spans.append((t0, perf_counter()))
            outputs.append((label, out, err))
        round_spans.append((start, perf_counter()))
        if tracer:
            tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += len(ops)
        for (label, out, err), (_, _, verify) in zip(outputs, ops):
            found = [err] if err else []
            if check and not err:
                try:
                    found = verify(out)
                except Exception as exc:
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            correct = correct and not found
            if found:
                failed += 1
                problems.extend(f"{label}: {p}" for p in found[:3])
        if check and len(round_spans) == 1:
            found = workload.check_run()
            correct = correct and not found
            problems.extend(found)
        del outputs
        measured = sum(b - a for a, b in round_spans)
        if (len(round_spans) >= rounds) if rounds else (measured >= seconds):
            break
    clock.stop()
    if tracer:
        tracer.rescale(clock.virtual)
    return {
        "round_walls": [clock.scaled(a, b) for a, b in round_spans],
        "op_times": [clock.scaled(a, b) for a, b in op_spans],
        "raw_round_walls": [b - a for a, b in round_spans],
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems[:20],
        "origin": clock.virtual(round_spans[0][0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-checks", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    ready = time.monotonic()
    try:
        if args.setup_only:
            result = {}
        else:
            tracer = None
            if args.trace:
                import spans

                tracer = spans.Tracer()
                tracer.install()
            result = run_rounds(
                workload, args.seconds, args.rounds, tracer, not args.no_checks
            )
            if tracer:
                result["layers"] = tracer.metrics(sum(result["round_walls"]))
                os.makedirs(OUT_DIR, exist_ok=True)
                path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
                tracer.write(path, result["origin"])
                result["spans_file"] = os.path.relpath(path, ROOT)
    finally:
        workload.close()
    result.update(ready=ready)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
