"""Command-line interface.

Subcommands: scan, d, principal, pixton, omega (alias verify-lemmas), g7,
check.  All results are JSON with an embedded run manifest; exit codes are
0 success, 1 usage error, 2 computation guard, fit instability or a cell
whose D vanishes, 3 verification mismatch, 4 internal error (a failed
self-check, an invalid graph built by the pipeline itself, or any other
exception the program raises).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .numerics import rational_str
from .runtime import (
    ComputationGuardError,
    FitInstabilityError,
    InvalidGraphError,
    sha256_hex,
)
from .trr import (
    ExceptionalCaseError,
    SCAN_CONVENTIONS,
    d_value,
    g7_patch,
    principal_part,
    scan_zeros,
    verify_lemmas,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def result_digest(result) -> str:
    return sha256_hex(canonical_json(result).encode())


def _emit(result, args, command: str, parameters: dict, started: float, extra_manifest=None):
    """Write the result with its manifest to ``--out``, or print it.

    The result is encoded once, as :func:`canonical_json`; its digest is
    the SHA-256 of that text, and the output is one line,
    ``{"manifest":...,"result":...}``, with the manifest in the same
    canonical form.  That line is the canonical JSON of the whole payload,
    and its ``result`` is byte for byte the text that was hashed.

    ``--out`` is written in full to ``--out`` plus ``.tmp``; then the old
    file, if any, is removed and the new one renamed into its place.  A
    reader sees the old file, no file or the whole new one, never a part
    of one, and a failed write leaves the old file as it was.  Nothing is
    fsynced: the file is not promised to survive a crash of the machine.
    The old file goes before the rename because ext4 (``auto_da_alloc``)
    flushes a file renamed over an existing one to disk at once, and the
    next rewrite of the same path then waits for that disk write, 45-65 ms
    per file on a disk mounted with ``discard``.
    """
    result_text = canonical_json(result)
    manifest = {
        "command": command,
        "parameters": parameters,
        "jobs": getattr(args, "jobs", 1),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
        "result_digest": sha256_hex(result_text.encode()),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    text = '{"manifest":' + canonical_json(manifest) + ',"result":' + result_text + "}"
    out = getattr(args, "out", None)
    if out:
        tmp = out + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text + "\n")
            try:
                os.remove(out)
            except FileNotFoundError:
                pass
            os.replace(tmp, out)
        except OSError as exc:
            raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        print(text)
    if getattr(args, "pretty", False):
        _pretty(command, result)
    return EXIT_OK


def _check_out(out) -> None:
    """Refuse an ``--out`` that cannot be written before any work runs."""
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(folder, os.W_OK | os.X_OK):
        reason = f"directory {folder} is not writable"
    else:
        return
    raise UsageError(f"cannot write --out {out}: {reason}")


def _pretty(command, result):
    if command == "scan":
        print(f"# scanned {result['cells_checked']} cells over g = "
              f"{result['range'][0]}..{result['range'][1]}")
        if result["zeros"]:
            for g, n, k, l in result["zeros"]:
                print(f"#   D = 0 at g={g} n={n} k={k} l={l}")
        else:
            print("#   no zeros")
    elif command == "principal":
        for term in result["principal"]:
            mono = " ".join(
                f"psi{j}^{e}" for j, e in enumerate(term["exponents"], start=1) if e
            )
            print(f"#   {term['coeff']}  {mono or '1'}")
    elif command == "pixton":
        print(f"# {len(result['terms'])} decorated-graph terms")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_scan(args, started):
    if args.g_min < 1 or args.g_max < args.g_min:
        raise UsageError("need 1 <= g-min <= g-max")
    zeros, cells = scan_zeros(
        args.g_min, args.g_max, jobs=args.jobs, allow_large=args.allow_large
    )
    result = {
        "range": [args.g_min, args.g_max],
        "conventions": SCAN_CONVENTIONS,
        "zeros": [[g, n, k, list(l)] for g, n, k, l in zeros],
        "cells_checked": cells,
    }
    params = {"g_min": args.g_min, "g_max": args.g_max}
    return _emit(result, args, "scan", params, started)


def cmd_d(args, started):
    l = _parse_int_list(args.l)
    if args.k + sum(l) != args.g:
        raise UsageError("need k + sum(l) = g")
    l_sorted = tuple(sorted(l))
    print(rational_str(d_value(args.g, args.k, l_sorted)))
    return EXIT_OK


def cmd_principal(args, started):
    l_input = _parse_int_list(args.l) if args.l else ()
    l = tuple(sorted(l_input))
    result = principal_part(args.g, args.k, l).to_json()
    result["provenance"]["l_input"] = list(l_input)
    result["provenance"]["l_sorted"] = list(l)
    params = {"g": args.g, "k": args.k, "l": list(l_input)}
    return _emit(result, args, "principal", params, started)


def cmd_pixton(args, started):
    # the only command that calls pixton directly; the closed-form commands
    # never load it
    from .pixton import (
        _check_class_cost,
        constant_term_class,
        fixed_r_class,
        monomial_coefficient,
    )

    if (args.a is None) == (args.b_exponents is None):
        raise UsageError("give exactly one of --a and --b-exponents")
    if args.r is not None and args.a is None:
        raise UsageError("--r needs --a (a fixed-r class is taken at one leg vector)")
    params = {"g": args.g, "n": args.n, "degree": args.degree}
    extra = {}
    if args.a is not None:
        a = _parse_int_list(args.a)
        params["a"] = list(a)
        if not args.allow_large:
            _check_class_cost(args.g, args.n, a, args.degree, args.r)
        if args.r is not None:
            params["r"] = args.r
            element = fixed_r_class(args.g, args.n, a, args.r, args.degree)
        else:
            element = constant_term_class(args.g, args.n, a, args.degree)[0]
    else:
        b = _parse_int_list(args.b_exponents)
        params["b_exponents"] = list(b)
        element, meta = monomial_coefficient(
            args.g, args.n, b, args.degree, allow_large=args.allow_large,
            jobs=args.jobs,
        )
        extra["r_nodes"] = meta["r_nodes"]
        extra["grid_degree"] = meta["grid_degree"]
        extra["grid_evaluations"] = meta["evaluations"]
        extra["plan_graphs"] = meta["plan_graphs"]
        extra["layouts"] = meta["layouts"]
        extra["layout_evaluations"] = meta["layout_evaluations"]
        extra["sums_computed"] = meta["sums_computed"]
        extra["sums_reused"] = meta["sums_reused"]
    result = {
        "g": args.g,
        "n": args.n,
        "degree": args.degree,
        "terms": element.to_json(),
    }
    return _emit(result, args, "pixton", params, started, extra_manifest=extra)


def cmd_omega(args, started):
    b = _parse_int_list(args.b) if args.b else ()
    report = verify_lemmas(
        args.g, args.n, b, allow_large=args.allow_large, jobs=args.jobs
    )
    meta = report.pop("meta", {})
    params = {"g": args.g, "n": args.n, "b": list(b)}
    code = _emit(report, args, "omega", params, started, extra_manifest=meta)
    if not report["all_match"] or not report["kappa_free"] or not report[
        "boundary_kappa_free"
    ]:
        return EXIT_MISMATCH
    return code


def cmd_g7(args, started):
    report = g7_patch()
    ok = report.get("ok", False)
    for key in ("record_psi1_3", "record_psi1_2"):
        if key in report:
            report[key] = report[key].to_json()
    code = _emit(report, args, "g7", {}, started)
    if not ok:
        return EXIT_MISMATCH
    return code


def cmd_check(args, started):
    with open(args.file) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.file} is not JSON: {exc}")
    try:
        want = payload["manifest"]["result_digest"]
        result = payload["result"]
    except (KeyError, TypeError):
        raise UsageError(
            f"{args.file} has no manifest.result_digest and result; "
            "not a trrkit result file"
        )
    got = result_digest(result)
    if want != got:
        print(f"digest mismatch: manifest {want}, recomputed {got}", file=sys.stderr)
        return EXIT_MISMATCH
    print("ok")
    return EXIT_OK


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"need a positive worker count (from --jobs or TRR_JOBS), got {text!r}"
        )
    return jobs


def build_parser() -> _Parser:
    """The argument parser for the current ``TRR_JOBS``, built once per
    value; each subcommand names its ``cmd_*`` function, which ``main``
    looks up when it runs."""
    # a string default goes through the type check too, and only when used
    return _parser(os.environ.get("TRR_JOBS", "1"))


@functools.cache
def _parser(default_jobs: str) -> _Parser:
    parser = _Parser(prog="trrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="scan for vanishing D coefficients")
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=default_jobs)
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func="cmd_scan")

    p = sub.add_parser("d", help="print one D coefficient")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", default="")
    p.set_defaults(func="cmd_d")

    p = sub.add_parser("principal", help="principal part of a relation")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", default="")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func="cmd_principal")

    p = sub.add_parser("pixton", help="fixed-r class or monomial coefficient")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a")
    p.add_argument("--b-exponents", dest="b_exponents")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=default_jobs)
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func="cmd_pixton")

    for name in ("omega", "verify-lemmas"):
        p = sub.add_parser(name, help="compare pipeline and closed forms")
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--b", default="")
        p.add_argument("--allow-large", action="store_true")
        p.add_argument("--jobs", type=_jobs, default=default_jobs)
        p.add_argument("--out")
        p.set_defaults(func="cmd_omega")

    p = sub.add_parser("g7", help="the genus-7 exceptional-case report")
    p.add_argument("--out")
    p.set_defaults(func="cmd_g7")

    p = sub.add_parser("check", help="re-verify a result file's digest")
    p.add_argument("file")
    p.set_defaults(func="cmd_check")

    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return globals()[args.func](args, started)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ComputationGuardError, FitInstabilityError, ExceptionalCaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidGraphError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # any other failure is the program's, reported on one line
        print(" ".join(f"internal error: {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
