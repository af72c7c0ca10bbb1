#!/usr/bin/env python3
"""Run the brute-force pipeline against the closed-form contributions.

The default instances finish in well under a second; --allow-large adds
the genus-2 comparisons (2,1,()), (2,2,(0,)) and (2,2,(1,)), which take 0.3
to 1.5 s each on one core, and the genus-3 comparisons (3,2,(7,)),
(3,2,(6,)) and (3,1,()), about 3 s, 12 s and 25 s (about 45 s in all).
"""
import argparse
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
        print(f"(g={g}, n={n}, b={b}): {status}  [{time.time() - t0:.1f}s]")
        if not ok:
            for key, val in rep.items():
                if key.endswith(("_got", "_want")):
                    print("   ", key, val)
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
