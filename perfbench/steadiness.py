"""Two sets of runs of the same code, compared against the bounds in
BENCHMARK.json.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json ten times with ``--trace 0``,
a new seed each run (100-109, then 110-119), the workloads interleaved; the
second set starts after the first.  For every end-to-end metric it reports,
per set, the median and the spread (distance between the first and third
quartile over the median), and the change of the second median against the
first.  A metric passes when both spreads and the change stay within its
bound; the failed share must be identical in both sets.  The table is
printed and written to ``perfbench/out/steadiness.json``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 100


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    seed = FIRST_SEED
    started = time.monotonic()
    for set_no in (1, 2):
        runs = {w: [] for w in workloads}
        for _ in range(RUNS):
            for w in workloads:
                runs[w].append(one_run(w, seed, bench["run_seconds"]))
                print(f"set {set_no} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in runs[w][-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            seed += 1
        sets.append(runs)

    ok = True
    rows = []
    header = (f"{'workload':14s} {'metric':12s} {'median 1':>10s} {'spread 1':>9s} "
              f"{'median 2':>10s} {'spread 2':>9s} {'change':>8s} {'bound':>6s}  verdict")
    print(header)
    for w in workloads:
        shares = [
            sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w]) for s in sets
        ]
        if shares[0] != shares[1]:
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s[w]] for s in sets]
            m1, m2 = median(values[0]), median(values[1])
            s1, s2 = spread(values[0]), spread(values[1])
            change = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            passed = max(s1, s2) <= bound and change <= bound
            ok = ok and passed
            verdict = "ok" if passed else "FAIL"
            if passed and max(s1, s2) > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            rows.append({"workload": w, "metric": name, "median": [m1, m2], "spread": [s1, s2],
                         "change": change, "bound": bound, "passed": passed,
                         "failed_share": shares, "values": values})
            print(f"{w:14s} {name:12s} {m1:10.4f} {s1:9.4f} {m2:10.4f} {s2:9.4f} "
                  f"{change:+8.4f} {bound:6.2f}  {verdict}")
        print(f"{w:14s} failed share {shares[0]:.6f} / {shares[1]:.6f}")
    print(f"{RUNS} runs per workload per set, {time.monotonic() - started:.0f} s in all; "
          + ("all within bounds" if ok else "NOT within bounds"))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump({"runs": RUNS, "rows": rows, "ok": ok}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
