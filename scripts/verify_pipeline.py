#!/usr/bin/env python3
"""Run the brute-force pipeline against the closed-form contributions.

The default instances finish in well under a second; --allow-large adds
the genus-2 comparisons (2,1,()), (2,2,(0,)) and (2,2,(1,)), which take
0.3 s or less each on one core, and the genus-3 comparisons (3,2,(7,)),
(3,2,(6,)) and (3,1,()), about 2 s, 4.5 s and 2 s (about 8 s in all on a
2-core KVM guest with Python 3.11; an instance reads from the process's
store only the layouts an earlier one read at the same r nodes and
degree, so the later ones compute most of their constant terms).
Each line gives the instance's plan size from its report: the entries of
its plan (one per graph and set of vertices with leg sums, the legs that
omega forgets placed on the graphs of (g, n+1) by the dilaton equation),
the layouts the target's weights read, the A-points those evaluate, and
how many of those A-points' constant terms were computed and how many
read without computing; then its time and the peak resident memory of
the process so far (ru_maxrss, a high-water mark, so what the earlier
instances keep counts too): with --allow-large the last instance reads
about 45 MB, where (3,1,()) alone peaks at about 29 MB in a fresh
process.  The last line gives the size of the store of checked constant
terms: the layouts it holds and the integers in their columns.  Every
instance's class must also have its pinned digest (StrataElement.digest),
so a changed coefficient fails the run, with exit code 3, even where it
still agrees with the closed forms.
"""
import argparse
import resource
import sys
import time

from trrkit import pixton
from trrkit.trr import verify_lemmas


# the digest (StrataElement.digest) of the class omega gives, per instance:
# a changed coefficient fails here even where the closed forms still agree
OMEGA_DIGESTS = {
    (1, 1, ()): "9ee438f74ab56baf",
    (1, 2, (0,)): "0bae903b4c810642",
    (1, 2, (1,)): "95e4aa15657105be",
    (1, 2, (2,)): "a025a6956b8f46e8",
    (2, 1, ()): "dddbcbe859270bd5",
    (2, 2, (0,)): "30391f8a301f9040",
    (2, 2, (1,)): "5191b906c2b7a2e6",
    (3, 2, (7,)): "7eaa375567c65175",
    (3, 2, (6,)): "8abf686df9a3df6e",
    (3, 1, ()): "b48fbc8c2008124d",
}


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
        digest = rep["omega_digest"]
        ok = rep["all_match"] and rep["kappa_free"] and rep["boundary_kappa_free"]
        status = "ok" if ok else "MISMATCH"
        if digest != OMEGA_DIGESTS[g, n, b]:
            ok, status = False, f"DIGEST {digest} (pinned {OMEGA_DIGESTS[g, n, b]})"
        failed |= not ok
        # ru_maxrss is the process's high-water mark so far, in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        meta = rep["meta"]
        print(
            f"(g={g}, n={n}, b={b}): {status}  [{meta['plan_graphs']} plan entries, "
            f"{meta['layouts']} layouts, {meta['layout_evaluations']} layout evaluations, "
            f"{meta['sums_computed']} sums computed, {meta['sums_reused']} reused; "
            f"{time.time() - t0:.1f}s, peak {peak:.0f} MB]"
        )
        if not ok:
            for key, val in rep.items():
                if key.endswith(("_got", "_want")):
                    print("   ", key, val)
    # the checked constant terms the process keeps, one entry per layout read
    store = pixton._checked_columns
    values = sum(len(column) for _, columns in store.values() for column in columns.values())
    print(f"checked constant terms kept: {len(store)} layouts, {values} values")
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
