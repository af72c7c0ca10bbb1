#!/usr/bin/env python3
"""Run the brute-force pipeline against the closed-form contributions.

The default instances finish in well under a second; --allow-large adds
the genus-2 comparisons (2,1,()), (2,2,(0,)) and (2,2,(1,)), which take 0.1
to 0.5 s each on one core, and the genus-3 comparisons (3,2,(7,)),
(3,2,(6,)) and (3,1,()), about 1.5 s, 5 s and 11 s (about 19 s in all).
Each line gives the instance's plan size from its report: the graphs
sampled (one per orbit of the survivor permutations), their layouts and the
A-points those evaluate; then its time and the peak resident memory of the
process so far (ru_maxrss, a high-water mark, so caches of the earlier
instances count too): with --allow-large the last line reads about 165 MB,
where (3,1,()) alone peaks at about 130 MB in a fresh process.
"""
import argparse
import resource
import sys
import time

from trrkit.trr import verify_lemmas


def run():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--allow-large", action="store_true")
    args = parser.parse_args()

    instances = [(1, 1, ()), (1, 2, (0,)), (1, 2, (1,)), (1, 2, (2,))]
    if args.allow_large:
        instances += [
            (2, 1, ()), (2, 2, (0,)), (2, 2, (1,)), (3, 2, (7,)), (3, 2, (6,)), (3, 1, ()),
        ]
    failed = False
    for g, n, b in instances:
        t0 = time.time()
        rep = verify_lemmas(g, n, b, allow_large=args.allow_large)
        ok = rep["all_match"] and rep["kappa_free"] and rep["boundary_kappa_free"]
        failed |= not ok
        status = "ok" if ok else "MISMATCH"
        # ru_maxrss is the process's high-water mark so far, in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        meta = rep["meta"]
        print(
            f"(g={g}, n={n}, b={b}): {status}  [{meta['plan_graphs']} graphs, "
            f"{meta['layouts']} layouts, {meta['layout_evaluations']} layout evaluations; "
            f"{time.time() - t0:.1f}s, peak {peak:.0f} MB]"
        )
        if not ok:
            for key, val in rep.items():
                if key.endswith(("_got", "_want")):
                    print("   ", key, val)
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
