#!/usr/bin/env python3
"""Reproduce the genus 1..26 zero scan and the genus-35 spot check.

Exits nonzero unless the scan finds exactly the known zeros of D up to
--g-max over the expected number of cells, and D(35, 22, (11,1,1)) is 0.
"""
import argparse
import json
import sys

from trrkit.cli import main as cli_main
from trrkit.numerics import rational_str
from trrkit.trr import d_value, scan_cell_count

# every vanishing D under the scan conventions for g <= 35, as (g, n, k, l)
KNOWN_ZEROS = [
    [7, 4, 3, [1, 1, 2]],
    [30, 6, 4, [1, 2, 5, 7, 11]],
    [30, 8, 4, [1, 1, 3, 3, 3, 4, 11]],
    [31, 5, 6, [2, 3, 4, 16]],
    [35, 4, 22, [1, 1, 11]],
]
KNOWN_G_MAX = 35


def run():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-max", type=int, default=26)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="scan.json")
    args = parser.parse_args()
    if not 1 <= args.g_max <= KNOWN_G_MAX:
        parser.error(f"the known zeros cover 1 <= g-max <= {KNOWN_G_MAX}")

    code = cli_main(
        [
            "scan",
            "--g-min", "1",
            "--g-max", str(args.g_max),
            "--jobs", str(args.jobs),
            "--out", args.out,
            "--pretty",
        ]
    )
    if code != 0:
        return code
    print(f"# wrote {args.out}")
    failed = False
    with open(args.out) as fh:
        result = json.load(fh)["result"]
    want = [z for z in KNOWN_ZEROS if z[0] <= args.g_max]
    if result["zeros"] != want:
        print(f"# FAIL: zeros {result['zeros']}, expected {want}", file=sys.stderr)
        failed = True
    cells = scan_cell_count(1, args.g_max)
    if result["cells_checked"] != cells:
        print(f"# FAIL: {result['cells_checked']} cells checked, expected {cells}",
              file=sys.stderr)
        failed = True
    spot = d_value(35, 22, (11, 1, 1))
    print(f"# spot check: D(35, 22, (11,1,1)) = {rational_str(spot)}")
    if spot != 0:
        print("# FAIL: the spot check is not 0", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
