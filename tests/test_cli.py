import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from trrkit import cli, pixton, runtime, stablegraphs, strata, trr
from trrkit.cli import main
from trrkit.stablegraphs import InvalidGraphError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scan_command(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, _, _ = run(capsys, "scan", "--g-min", "1", "--g-max", "7", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["zeros"] == [[7, 4, 3, [1, 1, 2]]]
    assert payload["result"]["range"] == [1, 7]
    assert payload["manifest"]["command"] == "scan"
    assert "result_digest" in payload["manifest"]


def test_scan_jobs_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "scan", "--g-min", "2", "--g-max", "8", "--jobs", "1", "--out", str(a))[0] == 0
    assert run(capsys, "scan", "--g-min", "2", "--g-max", "8", "--jobs", "2", "--out", str(b))[0] == 0
    ja = json.loads(a.read_text())
    jb = json.loads(b.read_text())
    assert json.dumps(ja["result"], sort_keys=True) == json.dumps(jb["result"], sort_keys=True)
    assert ja["manifest"]["result_digest"] == jb["manifest"]["result_digest"]


def test_check_command(tmp_path, capsys):
    out = tmp_path / "scan.json"
    run(capsys, "scan", "--g-min", "1", "--g-max", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "check", str(out))
    assert code == 0 and "ok" in stdout
    payload = json.loads(out.read_text())
    payload["result"]["cells_checked"] += 1
    out.write_text(json.dumps(payload))
    code, _, err = run(capsys, "check", str(out))
    assert code == 3
    assert "mismatch" in err


def test_d_command(capsys):
    code, out, _ = run(capsys, "d", "--g", "2", "--k", "1", "--l", "1")
    assert code == 0 and out.strip() == "-2/7"
    code, out, _ = run(capsys, "d", "--g", "7", "--k", "3", "--l", "2,1,1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "d", "--g", "3", "--k", "1", "--l", "1,1")
    assert code == 0 and out.strip() == "-1/5"


def test_d_usage_error(capsys):
    code, _, err = run(capsys, "d", "--g", "3", "--k", "1", "--l", "5")
    assert code == 1
    assert "usage" in err


def test_principal_command(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "principal", "--g", "2", "--k", "1", "--l", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    terms = {tuple(t["exponents"]): t["coeff"] for t in payload["result"]["principal"]}
    assert terms == {(1, 1): "1", (2, 0): "-3"}
    assert payload["result"]["provenance"]["D"] == "-2/7"


def test_principal_exceptional_case_errors(capsys):
    code, _, err = run(capsys, "principal", "--g", "7", "--k", "3", "--l", "2,1,1")
    assert code == 2
    assert "g7" in err


def test_principal_n1_path(tmp_path, capsys):
    out = tmp_path / "n1.json"
    code, _, _ = run(capsys, "principal", "--g", "1", "--k", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["provenance"]["normalization"] == "72"
    assert payload["result"]["principal"] == [{"exponents": [1], "coeff": "1"}]
    # with no l the relation is for psi_1^g, so k must be g
    code, out, err = run(capsys, "principal", "--g", "3", "--k", "2")
    assert_one_line_usage_error(code, err)
    assert out == ""


def test_pixton_unit(tmp_path, capsys):
    out = tmp_path / "unit.json"
    code, _, _ = run(
        capsys, "pixton", "--g", "0", "--n", "3", "--a", "0,0,0", "--degree", "0",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["result"]["terms"]) == 1
    assert payload["result"]["terms"][0]["coeff"] == "1"
    assert payload["result"]["terms"][0]["graph"]["edges"] == []


def test_pixton_monomial(tmp_path, capsys):
    out = tmp_path / "mono.json"
    code, _, _ = run(
        capsys, "pixton", "--g", "1", "--n", "2", "--b-exponents", "2",
        "--degree", "1", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    coeffs = sorted(
        (rec["psi"], rec["coeff"]) for rec in payload["result"]["terms"]
    )
    assert coeffs == [([[1, 1]], "1/2"), ([[2, 1]], "1/2")]
    assert payload["manifest"]["r_nodes"]


def test_pixton_monomial_node_count_and_digest(tmp_path, capsys):
    # dmax = 2: the constant term takes 2*dmax + 1 nodes plus two held out,
    # from r0 = 2 * 5 * 2 + 3, 5 = D + 1 being the largest leg value of the
    # layer |A| = D + 1; four of the plan's five graphs carry both legs on
    # one vertex (one A-point each), the banana graph samples 5 + 1; no two
    # graphs share a layout, and the target reads two of them, the loop
    # graph's and the banana graph's, so 7 A-points are evaluated
    out = tmp_path / "mono2.json"
    code, _, _ = run(
        capsys, "pixton", "--g", "1", "--n", "2", "--b-exponents", "2",
        "--degree", "2", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads(out.read_text())["manifest"]
    assert manifest["r_nodes"] == list(range(23, 30))
    assert manifest["grid_degree"] == 4
    assert (manifest["plan_graphs"], manifest["grid_evaluations"]) == (5, 10)
    assert (manifest["layouts"], manifest["layout_evaluations"]) == (2, 7)
    # the cache counts, computed and reused, are in the manifest, not the
    # result: together they are the A-points evaluated
    assert manifest["sums_computed"] + manifest["sums_reused"] == 7
    assert manifest["result_digest"] == (
        "7a8620fb1507987d9d1b3f0b674c4bb3df3aa88bca721e78ccda08dec18b3fd1"
    )


def test_pixton_fixed_r(tmp_path, capsys):
    out = tmp_path / "fixed.json"
    code, _, _ = run(
        capsys, "pixton", "--g", "1", "--n", "1", "--a", "0", "--degree", "1",
        "--r", "5", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    by_edges = {
        len(rec["graph"]["edges"]): rec["coeff"] for rec in payload["result"]["terms"]
    }
    assert by_edges == {0: "1", 1: "1"}  # (r^2-1)/24 = 1 at r = 5


def test_pixton_usage(capsys):
    code, _, err = run(capsys, "pixton", "--g", "1", "--n", "1", "--degree", "1")
    assert code == 1


def test_pixton_modulus_needs_leg_values(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, _, err = run(
        capsys, "pixton", "--g", "1", "--n", "2", "--b-exponents", "0",
        "--degree", "1", "--r", "7", "--out", str(out),
    )
    assert code == 1
    assert "--r" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_usage_never_writes_partial_output(tmp_path, capsys):
    out = tmp_path / "never.json"
    for argv, want in (
        (["principal", "--g", "3", "--k", "1", "--l", "7"], cli.EXIT_USAGE),
        # the zero cell: D vanishes
        (["principal", "--g", "7", "--k", "3", "--l", "1,1,2"], cli.EXIT_GUARD),
    ):
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == want, argv
        assert not out.exists()
        assert not (tmp_path / "never.json.tmp").exists()


def test_rewriting_an_output_file(tmp_path, capsys, monkeypatch):
    # the old file is removed before the rename, so that the rename never
    # lands on an existing path
    out = tmp_path / "re.json"
    real_replace = os.replace

    def replace(src, dst):
        assert not os.path.exists(dst), dst
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    for g, k, l in ((2, 1, "1"), (3, 1, "1,1"), (3, 2, "1")):
        argv = ["principal", "--g", str(g), "--k", str(k), "--l", l]
        assert run(capsys, *argv, "--out", str(out))[0] == cli.EXIT_OK
        assert json.loads(out.read_text())["manifest"]["parameters"] == {
            "g": g, "k": k, "l": [int(x) for x in l.split(",")]
        }
        assert run(capsys, "check", str(out))[:2] == (cli.EXIT_OK, "ok\n")
        assert sorted(os.listdir(tmp_path)) == ["re.json"]

    # a temp file that cannot be written fails the command, names the path
    # as given and leaves the old file as it was
    old = out.read_bytes()
    (tmp_path / "re.json.tmp").mkdir()
    code, _, err = run(capsys, "principal", "--g", "2", "--k", "1", "--l", "1", "--out", str(out))
    assert code == cli.EXIT_USAGE
    assert err.count("\n") == 1 and f"cannot write {out}: " in err
    assert ".tmp" not in err
    assert out.read_bytes() == old


def test_out_file_is_one_line_of_canonical_json(tmp_path, capsys):
    # the result is encoded once: the file is the canonical JSON of its
    # payload, and its result text is exactly what the digest hashes
    out = tmp_path / "p.json"
    argv = ["principal", "--g", "6", "--k", "2", "--l", "1,2,1", "--out", str(out)]
    assert run(capsys, *argv)[0] == cli.EXIT_OK
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    line = text[:-1]
    payload = json.loads(line)
    assert line == cli.canonical_json(payload)
    result_text = cli.canonical_json(payload["result"])
    assert line.endswith(',"result":' + result_text + "}")
    digest = hashlib.sha256(result_text.encode()).hexdigest()
    assert payload["manifest"]["result_digest"] == digest

    # a file in the indented layout written before still verifies
    with open(out, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    assert out.read_text().count("\n") > 1
    assert run(capsys, "check", str(out))[:2] == (cli.EXIT_OK, "ok\n")


def test_guard_exit_code(capsys):
    # its full price is 1,710,726,885; the guard stops at 1,000,350
    started = time.perf_counter()
    code, _, err = run(
        capsys, "pixton", "--g", "2", "--n", "7", "--b-exponents", "1,1,1,1,1,1",
        "--degree", "3",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pixton", "--g", "8", "--n", "2", "--b-exponents", "18", "--degree", "9"],
        ["omega", "--g", "6", "--n", "2", "--b", "13"],
    ],
)
def test_guard_refuses_a_large_genus_at_once(capsys, argv):
    # the guard stops at the first graph that takes the price past the
    # budget, before the plan is enumerated, and no genus rule is needed
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == cli.EXIT_GUARD
    assert out == "" and "exceeds the default budget" in err


@pytest.mark.parametrize(
    "extra,price",
    [
        # 18 graphs x modulus^2 x 1 node, one modulus past the budget,
        # passed at the last graph
        (["--r", "236"], 18 * 236**2),
        # passed at the first graph
        (["--r", "10000000000"], 10**20),
        # the default modulus 2 x max|a| x degree + 3, with 7 nodes, passed
        # at the first graph
        (["--a", "10000000000,-10000000000"], 40_000_000_003**2 * 7),
        # passed at the first graph, although 18 x modulus is within it
        (["--r", "55555"], 55_555**2),
    ],
)
def test_class_guard_refuses_a_large_modulus_at_once(capsys, extra, price):
    # the modulus is priced (graphs x modulus^2 x r nodes, since merging
    # parallel edges convolves r values with r values) before any weighting
    # table of that many integers is built
    argv = ["pixton", "--g", "2", "--n", "2", "--a", "3,-3", "--degree", "2", *extra]
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == cli.EXIT_GUARD
    assert out == ""
    assert err.count("\n") == 1 and f"estimated cost {price} " in err


def test_class_guard_stops_the_shape_walk_mid_level(capsys, monkeypatch):
    # the genus-5 class is refused at its 4,116th graph (x modulus 3^2 x 27
    # nodes), the 2,497th of the 2,748 on the level of 6 edges: the shapes
    # of a level are found while the walk goes, so no shape past that
    # graph's is canonicalized (the whole levels up to 6 edges take 30,490
    # canonicalizations)
    calls = []
    real = stablegraphs.canonical_data

    def counting(*data):
        calls.append(data)
        return real(*data)

    monkeypatch.setattr(stablegraphs, "canonical_data", counting)
    code, out, err = run(capsys, "pixton", "--g", "5", "--n", "1", "--a", "0", "--degree", "12")
    assert code == cli.EXIT_GUARD and out == ""
    assert "estimated cost 1000188 " in err
    assert len(calls) == 27_788


def test_every_guarded_command_decides_through_one_guard(capsys, monkeypatch):
    # pixton --a, pixton --b-exponents and omega all ask pixton._check_cost
    seen = []

    def refuse(budget, g, n, dmax, forget, modulus, nodes):
        seen.append((g, n, dmax, forget, modulus, nodes))
        raise pixton.ComputationGuardError("refused")

    monkeypatch.setattr(pixton, "_check_cost", refuse)
    for argv in (
        ["pixton", "--g", "2", "--n", "2", "--a", "3,-3", "--degree", "2"],
        ["pixton", "--g", "2", "--n", "2", "--b-exponents", "2", "--degree", "2"],
        ["omega", "--g", "1", "--n", "1"],
    ):
        assert run(capsys, *argv)[0] == cli.EXIT_GUARD
    assert seen == [(2, 2, 2, 0, 15, 7), (2, 2, 2, 0, None, 7), (1, 2, 2, 3, None, 7)]


def test_class_guard_admits_the_pinned_class(capsys):
    # 18 graphs x modulus 15^2 x 7 nodes = 28,350; 18 x 235^2 x 1 = 994,050
    base = ["pixton", "--g", "2", "--n", "2", "--a", "3,-3", "--degree", "2"]
    assert run(capsys, *base)[0] == cli.EXIT_OK
    assert run(capsys, *base, "--r", "235")[0] == cli.EXIT_OK

    # degree 0 keeps the trivial graph alone, and no edge needs a table
    trivial = ["pixton", "--g", "2", "--n", "2", "--a", "3,-3", "--degree", "0", "--r", "1000001"]
    assert run(capsys, *trivial)[0] == cli.EXIT_GUARD
    assert run(capsys, *trivial, "--allow-large")[0] == cli.EXIT_OK


def test_g7_command(tmp_path, capsys):
    out = tmp_path / "g7.json"
    code, _, _ = run(capsys, "g7", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["ok"]
    assert payload["result"]["D_2_2_1"] == "-16/399"
    rec = payload["result"]["record_psi1_3"]
    assert rec["principal"] == [{"exponents": [3, 2, 1, 1], "coeff": "1"}]


def test_g7_command_without_a_combination_is_a_mismatch(tmp_path, capsys, monkeypatch):
    # an elimination that finds no combination leaves no record and ok false
    monkeypatch.setattr(trr, "_solve_modulo", lambda families, known, target: None)
    out = tmp_path / "g7.json"
    code, _, _ = run(capsys, "g7", "--out", str(out))
    assert code == cli.EXIT_MISMATCH
    result = json.loads(out.read_text())["result"]
    assert result["ok"] is False and "error" in result
    assert "record_psi1_3" not in result and "record_psi1_2" not in result


def test_trr_jobs_env_default(monkeypatch):
    from trrkit.cli import build_parser

    monkeypatch.setenv("TRR_JOBS", "3")
    parser = build_parser()
    args = parser.parse_args(["scan", "--g-min", "1", "--g-max", "2"])
    assert args.jobs == 3


@pytest.mark.slow
def test_omega_command(tmp_path, capsys):
    out = tmp_path / "omega.json"
    code, _, _ = run(capsys, "omega", "--g", "1", "--n", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["all_match"]
    # the 7 plan entries, of the 5 graphs of (1,2), sample 22 A-points in 7
    # layouts; the 2 layouts the target reads evaluate 7 of them
    manifest = payload["manifest"]
    assert (manifest["plan_graphs"], manifest["evaluations"]) == (7, 22)
    assert (manifest["layouts"], manifest["layout_evaluations"]) == (2, 7)
    assert manifest["sums_computed"] + manifest["sums_reused"] == 7
    assert "sums_computed" not in payload["result"]


def test_unwritable_output_path(capsys, monkeypatch):
    argv = ["scan", "--g-min", "1", "--g-max", "2", "--out", "/nonexistent-dir/scan.json"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.count("\n") == 1 and "error" in err
    assert "/nonexistent-dir/scan.json" in err and ".tmp" not in err

    # the path is refused before the command runs: a scan that would fail
    # with another exit code is never reached
    def broken(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "scan_zeros", broken)
    assert run(capsys, *argv)[0] == 1
    monkeypatch.undo()

    # a write that fails after that check names the given path too
    monkeypatch.setattr(cli, "_check_out", lambda out: None)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "/nonexistent-dir/scan.json" in err and ".tmp" not in err


def test_closed_form_commands_load_no_pipeline_module(tmp_path):
    # a fresh interpreter runs every closed-form command without importing
    # the graph pipeline, which loads on the first command that runs it
    script = textwrap.dedent(
        """
        import importlib.util
        import sys
        from trrkit import cli

        out = sys.argv[1]
        commands = [
            ["scan", "--g-min", "1", "--g-max", "8", "--out", out + "/scan.json"],
            ["d", "--g", "35", "--k", "22", "--l", "11,1,1"],
            ["principal", "--g", "2", "--k", "1", "--l", "1", "--out", out + "/p.json"],
            ["principal", "--g", "3", "--k", "3", "--out", out + "/p1.json"],
            ["g7", "--out", out + "/g7.json"],
        ]
        commands += [["check", out + name] for name in ("/scan.json", "/p.json", "/p1.json", "/g7.json")]
        for argv in commands:
            assert cli.main(argv) == 0, argv
        pipeline = {"trrkit.pixton", "trrkit.strata", "trrkit.stablegraphs"}
        assert not pipeline & set(sys.modules), sorted(pipeline & set(sys.modules))
        # the digests take the interpreter's own SHA-256 where it has one,
        # and OpenSSL's is never loaded
        if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
            assert "_hashlib" not in sys.modules
        assert cli.main(["pixton", "--g", "1", "--n", "2", "--a", "1,-1", "--degree", "1"]) == 0
        assert pipeline <= set(sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("data", [b"", b"abc", bytes(range(256)) * 5])
def test_sha256_hex_is_hashlibs_sha256(data):
    assert runtime.sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_every_layer_sees_the_same_error_types(monkeypatch, capsys):
    # the exit codes map the types that cli imports; the pipeline raises the
    # very same ones
    guard, fit, graph = (
        runtime.ComputationGuardError, runtime.FitInstabilityError, runtime.InvalidGraphError
    )
    assert cli.ComputationGuardError is trr.ComputationGuardError is pixton.ComputationGuardError is guard
    assert cli.FitInstabilityError is pixton.FitInstabilityError is fit
    assert cli.InvalidGraphError is stablegraphs.InvalidGraphError is strata.InvalidGraphError is graph
    assert pixton._worker_pool is trr._worker_pool is runtime._worker_pool
    assert pixton._worker_count is trr._worker_count is runtime._worker_count

    # the one mapping no computation in this file reaches: a failed fit
    def unstable(args, started):
        raise pixton.FitInstabilityError("held-out node off the fit")

    monkeypatch.setattr(cli, "cmd_pixton", unstable)
    code, out, err = run(capsys, "pixton", "--g", "1", "--n", "2", "--a", "1,-1", "--degree", "1")
    assert code == cli.EXIT_GUARD and out == ""
    assert err == "error: held-out node off the fit\n"


def assert_one_line_usage_error(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("usage error")


def test_trr_jobs_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("TRR_JOBS", "abc")
    code, _, err = run(capsys, "scan", "--g-min", "1", "--g-max", "2")
    assert_one_line_usage_error(code, err)
    assert "TRR_JOBS" in err
    # an explicit --jobs wins over a bad environment value
    code, _, _ = run(capsys, "scan", "--g-min", "1", "--g-max", "2", "--jobs", "1")
    assert code == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(capsys, jobs):
    code, _, err = run(capsys, "scan", "--g-min", "1", "--g-max", "2", "--jobs", jobs)
    assert_one_line_usage_error(code, err)
    code, _, err = run(
        capsys, "pixton", "--g", "1", "--n", "2", "--b-exponents", "2",
        "--degree", "1", "--jobs", jobs,
    )
    assert_one_line_usage_error(code, err)


# "" is the zero-length file that a crash before writeback can leave
@pytest.mark.parametrize("text", ["", "{}", "[]", "not json", '{"manifest": {}}'])
def test_check_rejects_non_result_files(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "check", str(path))
    assert_one_line_usage_error(code, err)


@pytest.mark.parametrize(
    "error",
    [
        InvalidGraphError("contraction produced an invalid graph"),
        AssertionError("principal part disagrees with gamma * psi_1^g"),
    ],
)
def test_internal_failures_exit_4(monkeypatch, capsys, error):
    def broken(args, started):
        raise error

    monkeypatch.setattr(cli, "cmd_principal", broken)
    code, _, err = run(capsys, "principal", "--g", "2", "--k", "1", "--l", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("internal error: ")
    assert str(error) in err


def test_an_unhandled_exception_exits_4_on_one_line(monkeypatch, capsys):
    # a RecursionError is the program's failure, not the user's, and is
    # reported as one line with no traceback
    def broken(args, started):
        def deeper():
            return deeper()

        return deeper()

    monkeypatch.setattr(cli, "cmd_pixton", broken)
    code, out, err = run(capsys, "pixton", "--g", "1", "--n", "2", "--a", "0,0", "--degree", "0")
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("internal error: RecursionError: ")


def test_twelve_hundred_legs_are_computed(tmp_path, capsys):
    # the guard's leg-map walk and the leg exponents keep an explicit stack,
    # so a leg count above the recursion limit is priced and computed: one
    # graph, with no psi to place at degree 0
    out = tmp_path / "legs.json"
    zeros = ",".join(["0"] * 1200)
    code, _, err = run(
        capsys, "pixton", "--g", "1", "--n", "1200", "--a", zeros, "--degree", "0",
        "--out", str(out),
    )
    assert code == 0, err
    code, stdout, _ = run(capsys, "check", str(out))
    assert code == 0 and "ok" in stdout


@pytest.mark.parametrize(
    "extra", [["--degree", "0"], ["--degree", "-1"], ["--degree", "-1", "--r", "5"]]
)
def test_unstable_input_is_a_usage_error(capsys, extra):
    code, _, err = run(capsys, "pixton", "--g", "0", "--n", "2", "--a", "1,-1", *extra)
    assert_one_line_usage_error(code, err)


@pytest.mark.parametrize("mode", [["--a", "0,0"], ["--b-exponents", "0"]])
def test_both_pixton_modes_name_an_unstable_space(capsys, mode):
    code, _, err = run(capsys, "pixton", "--g", "0", "--n", "2", *mode, "--degree", "0")
    assert_one_line_usage_error(code, err)
    assert "(0,2) is unstable" in err


def test_omega_names_a_negative_exponent_as_given(capsys):
    code, _, err = run(capsys, "omega", "--g", "1", "--n", "2", "--b", "-1")
    assert_one_line_usage_error(code, err)
    assert err.strip().endswith("exponents must be nonnegative, got (-1,)")


def test_omega_refuses_genus_zero_before_the_pipeline(capsys, monkeypatch):
    # the lemmas' closed forms need g >= 1: genus 0 is a usage error before
    # omega runs, whether its plan would be admitted (n = 12) or priced
    # above the budget (n = 20)
    def never(*args, **kwargs):
        raise AssertionError("monomial_coefficient was called")

    monkeypatch.setattr(pixton, "monomial_coefficient", never)
    for n in (12, 20):
        b = ",".join(["0"] * (n - 1))
        code, out, err = run(capsys, "omega", "--g", "0", "--n", str(n), "--b", b)
        assert_one_line_usage_error(code, err)
        assert out == "" and "g >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1", "--a", "0", "--degree", "-1"],
        ["--n", "2", "--b-exponents", "2", "--degree", "-1"],
        ["--n", "2", "--b-exponents", "-1", "--degree", "1"],
    ],
)
def test_pixton_rejects_negative_degrees_and_exponents(capsys, argv):
    code, out, err = run(capsys, "pixton", "--g", "1", *argv)
    assert_one_line_usage_error(code, err)
    assert out == ""


def test_d_rejects_negative_exponents(capsys):
    code, out, err = run(capsys, "d", "--g", "2", "--k", "3", "--l", "-1")
    assert_one_line_usage_error(code, err)
    assert out == ""


def test_scan_guard_exit_code(capsys):
    code, out, err = run(capsys, "scan", "--g-min", "1", "--g-max", "50")
    assert code == cli.EXIT_GUARD == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    # g <= 40 has 963,280 cells and genus 41 takes the count past the budget
    assert "more than 1000000 cells" in err and "passed at g = 41" in err


def test_scan_guard_refuses_a_huge_range_at_once(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "scan", "--g-min", "1", "--g-max", "100000")
    assert time.perf_counter() - started < 1.0
    assert code == cli.EXIT_GUARD
    assert out == ""
    assert err.count("\n") == 1 and "passed at g = 41" in err


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["scan", "--g-min", "1", "--g-max", "26"], "51270c0ea440c8d5"),
        (["principal", "--g", "2", "--k", "1", "--l", "1"], "1c7897d0cc4b9c1c"),
        (["principal", "--g", "7", "--k", "1", "--l", "1,1,1,1,1,1"], "541e4636324f4f10"),
        (["principal", "--g", "7", "--k", "2", "--l", "1,1,1,1,1"], "3344759698757fc4"),
        (["principal", "--g", "6", "--k", "1", "--l", "1,1,1,2"], "fcc2ce68f3895ecc"),
        (["g7"], "332d07fd4402d106"),
        (["principal", "--g", "1", "--k", "1"], "d4255ae9834c924c"),
        (["principal", "--g", "26", "--k", "26"], "8fb0ae92f0d156cd"),
        (["pixton", "--g", "2", "--n", "2", "--a", "3,-3", "--degree", "2"], "3af5a16846e1310c"),
    ],
)
def test_closed_form_digests(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["manifest"]["result_digest"][:16] == digest
