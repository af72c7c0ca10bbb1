"""Benchmark of trrkit, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Every workload runs in fresh child
processes (``workload.py``) with one worker (``TRR_JOBS=1``, ``jobs=1``).

``--trace 0`` starts twenty set-up probes and one measured run, and reports
the end-to-end metrics.  ``--trace 1`` runs one round of the workload
traced and, at the same time in a second process, one untraced, and
reports the per-layer metrics; ``trace.overhead_s`` is the traced minus
the untraced wall time.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lemmas-g1", "genus2-slice", "closed-forms")
SETUP_PROBES = 20
DEADLINE_S = 170.0
# the unit of setup_s: a bare interpreter start (``python3 -c pass``) takes
# 0.06-0.08 s on the 2-core Xeon KVM guest (Python 3.11) of README.md's figures
REFERENCE_START_S = 0.075
ENV = dict(os.environ, TRR_JOBS="1", PYTHONHASHSEED="0")


class ChildError(RuntimeError):
    pass


def start(args: list[str]):
    """Start a ``workload.py`` process, right after timing a bare
    interpreter start as the yardstick of its set-up time."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True)
    yardstick = time.monotonic() - t0
    cmd = [sys.executable, os.path.join(HERE, "workload.py")] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return proc, spawned, yardstick, args


def finish(started, deadline: float) -> dict:
    """Wait for a ``workload.py`` process and read its result.  Its set-up
    time runs from just before the spawn to the moment its inputs are ready,
    in units of the bare interpreter start timed just before it, converted
    to seconds at ``REFERENCE_START_S``."""
    proc, spawned, yardstick, args = started
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{' '.join(args)}: no result within the deadline") from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)}: exit {proc.returncode}\n{err[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready"] - spawned) / yardstick * REFERENCE_START_S
    return result


def child(args: list[str], deadline: float) -> dict:
    return finish(start(args), deadline)


def end_to_end(common: list[str], seconds: int, deadline: float):
    setups = [child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = child(common + ["--seconds", str(seconds)], deadline)
    setups.append(run["setup_s"])
    values = {
        "setup_s": median(setups),
        "wall_s": median(run["round_walls"]),
        "op_p50_s": median(run["op_times"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return run, values


def per_layer(common: list[str], deadline: float):
    # the untraced reference runs at the same time, on the other CPU
    ref_proc = start(common + ["--rounds", "1", "--no-checks"])
    try:
        run = child(common + ["--rounds", "1", "--trace"], deadline)
        ref = finish(ref_proc, deadline)
    finally:
        if ref_proc[0].poll() is None:
            ref_proc[0].kill()
            ref_proc[0].communicate()
    layers = run["layers"]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - ref["round_walls"][0]
    return run, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if not os.path.isfile(os.path.join(ROOT, "src", "trrkit", "__init__.py")):
        print(f"perfbench: no trrkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--tiny"] if args.tiny else []
    try:
        if args.trace:
            run, values = per_layer(common, deadline)
        else:
            run, values = end_to_end(common, args.seconds, deadline)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    lines = [f"{args.workload}: {run['attempted']} operations attempted, {run['failed']} failed",
             f"unscaled round wall times: {' '.join(f'{w:.3f}' for w in run['raw_round_walls'])} s"]
    lines += [f"{name:32s} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    if args.trace:
        lines.append(f"spans: {run['spans_file']}")
        summary = os.path.join(HERE, "out", f"layers-{args.workload}-seed{args.seed}.txt")
        with open(summary, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
