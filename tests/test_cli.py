import argparse
import csv
import io
import json
import os

import pytest

from exturan import cli
from exturan.cli import SpecParseError, main, parse_pattern_spec
from exturan.extremal import RecordError, exact_ex
from exturan.hypergraph import (
    BlowupSpec, blowup, complete, complete_partite, make, single_edge, write_file)
from cli_runner import run_cli


class TestSpecGrammar:
    def test_triangle_shorthand(self):
        spec = parse_pattern_spec("K3_2(1,1,1)")
        assert isinstance(spec, BlowupSpec)
        assert blowup(spec)[0] == complete(3, 2)

    def test_blowup_shorthand(self):
        g = blowup(parse_pattern_spec("K3_2(1,1,2)"))[0]
        assert g.n == 4 and g.m == 5

    def test_file_spec(self, tmp_path):
        path = tmp_path / "g.txt"
        write_file(complete(4, 2), path)
        assert parse_pattern_spec(f"file:{path}") == complete(4, 2)

    @pytest.mark.parametrize("bad,pos", [
        ("L3_2(1,1,1)", 0),
        ("K3(1,1,1)", 2),
        ("K3_2(1,1)", 9),
        ("K3_2(1,1,1)x", 11),
        ("K3_2(1,,1)", 7),
        ("K3_2(1,1,\u00b9)", 9),     # superscript one: a digit to str.isdigit
        ("K\u0663_2(1,1,1)", 1),     # Arabic-Indic three
        # more digits than int() takes
        pytest.param("K" + "1" * 5000 + "_2(1,1,1)", 1, id="5000-digit-class-count"),
        pytest.param("K3_2(1,1," + "1" * 5000 + ")", 9, id="5000-digit-class-size"),
    ])
    def test_parse_errors_carry_position(self, bad, pos):
        with pytest.raises(SpecParseError) as err:
            parse_pattern_spec(bad)
        assert err.value.position == pos


class TestExCommand:
    def test_values_csv(self):
        out = run_cli("ex", "--n", "4..5", "--T", "K3_2(1,1,1)",
                      "--F", "K3_2(1,1,2)", "--format", "csv")
        assert out.returncode == 0
        rows = out.stdout.strip().splitlines()
        assert rows[0] == "n,t_key,f_key,value,mode"
        assert [r.split(",")[0] for r in rows[1:]] == ["4", "5"]
        assert [r.split(",")[-2] for r in rows[1:]] == ["1", "2"]

    def test_range_starting_below_the_uniformity(self):
        out = run_cli("ex", "--n", "2..5", "--T", "K3_3(1,1,1)",
                      "--F", "K4_3(1,1,1,1)", "--format", "csv")
        assert out.returncode == 0, out.stderr
        assert [r.split(",")[-2] for r in out.stdout.strip().splitlines()[1:]] == [
            "0", "1", "3", "7"]

    def test_forbidding_pattern_itself_gives_zero(self):
        out = run_cli("ex", "--n", "4", "--T", "K3_2(1,1,1)",
                      "--F", "K3_2(1,1,1)", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["records"][0]["value"] == 0

    def test_identical_runs_write_identical_cache_files(self, tmp_path):
        args = ("ex", "--n", "6", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)")
        files = []
        for name in ("a", "b"):
            assert run_cli(*args, "--cache-dir", str(tmp_path / name)).returncode == 0
            files.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert len(files[0]) == 1
        assert files[0] == files[1]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_cached_answers_print_the_searched_bytes(self, tmp_path, fmt):
        args = ("ex", "--n", "4..6", "--T", "K3_2(1,1,1)", "--F", "K3_2(2,2,2)",
                "--format", fmt)
        cache = ("--cache-dir", str(tmp_path))
        runs = [run_cli(*args)]
        runs.append(run_cli(*args, *cache))  # writes the three records
        assert len(list(tmp_path.glob("*.rec"))) == 3
        runs.append(run_cli(*args, *cache))  # reads them
        # a search could not finish under --timeout 0, so this run reads them too
        runs.append(run_cli(*args, *cache, "--timeout", "0"))
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        assert runs[0].stdout
        assert len({proc.stdout for proc in runs}) == 1

    def test_malformed_spec_exits_2(self):
        # the second spec ends in a superscript one, a digit to str.isdigit,
        # and the third in a class size of more digits than int() takes
        for spec in ("K3_2(1,1", "K3_2(1,1,\u00b9)", "K3_2(1,1," + "1" * 5000 + ")"):
            out = run_cli("ex", "--n", "4", "--T", spec, "--F", "K3_2(1,1,2)")
            assert out.returncode == 2
            assert_one_line(out.stderr, "error: ")
            assert "position" in out.stderr

    @pytest.mark.parametrize("extra", [(), ("--heuristic",)])
    def test_edgeless_forbidden_exits_2(self, tmp_path, extra):
        path = tmp_path / "empty3.txt"
        write_file(make(3, 2, []), path)
        out = run_cli("ex", "--n", "5", "--T", "K3_2(1,1,1)", "--F", f"file:{path}", *extra)
        assert out.returncode == 2
        assert "no edges" in out.stderr

    def test_infeasible_without_fallback_exits_3(self):
        out = run_cli("ex", "--n", "12", "--T", "K2_2(1,1)", "--F", "K2_2(2,2)")
        assert out.returncode == 3

    def test_range_past_every_size_stops_at_the_first_infeasible_n(self):
        # the range is walked, never built: its length does not fit a C ssize_t
        out = run_cli("ex", "--n", f"4..{10 ** 19:d}", "--T", "K2_2(1,1)",
                      "--F", "K2_2(2,2)")
        assert out.returncode == 3, out.stderr
        assert out.stderr.splitlines() == [
            "infeasible: C(10,2) = 45 potential edges exceeds the guard 36"]

    def test_timeout_exits_3_after_the_table(self):
        out = run_cli("ex", "--n", "8", "--T", "K2_2(1,1)", "--F", "K2_2(2,2)",
                      "--timeout", "0", "--format", "json")
        assert out.returncode == 3
        records = json.loads(out.stdout)["records"]
        assert [(r["n"], r["mode"]) for r in records] == [(8, "heuristic")]
        assert "timed out" in out.stderr

    @pytest.mark.parametrize("flag, value", [("--workers", "-2"), ("--workers", "0"),
                                             ("--timeout", "-1"), ("--timeout", "nan"),
                                             ("--budget", "-1"), ("--budget", "0")])
    def test_out_of_range_number_exits_2(self, flag, value):
        out = run_cli("ex", "--n", "10", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)",
                      "--heuristic", flag, value)
        assert out.returncode == 2
        assert f"argument {flag}: must be at least" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("n", ["-2", "-2..1"])
    @pytest.mark.parametrize("extra", [(), ("--heuristic",)])
    def test_negative_vertex_count_exits_2(self, n, extra):
        out = run_cli("ex", f"--n={n}", "--T", "K2_2(1,1)", "--F", "K3_2(1,1,1)", *extra)
        assert out.returncode == 2
        assert_one_line(out.stderr, "error: vertex count must be >= 0")
        assert out.stdout == ""

    def test_zero_vertices(self):
        out = run_cli("ex", "--n", "0..2", "--T", "K2_2(1,1)", "--F", "K3_2(1,1,1)",
                      "--format", "json")
        assert out.returncode == 0
        records = json.loads(out.stdout)["records"]
        assert [r["n"] for r in records] == [0, 1, 2]
        assert records[0]["value"] == 0

    def test_heuristic_fallback(self):
        out = run_cli("ex", "--n", "12", "--T", "K2_2(1,1)", "--F", "K2_2(2,2)",
                      "--heuristic", "--format", "csv", "--budget", "2000")
        assert out.returncode == 0
        assert out.stdout.strip().splitlines()[-1].endswith("heuristic")


class TestIntegerInput:
    """Every integer input is ASCII digits with an optional leading '-';
    int() would also take a '+', a space, an underscore and the digits of
    other scripts (an Arabic-Indic 5 is "\u0665")."""

    EX = ("--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)")
    OUT = ("--out-prefix", "{tmp}/x")

    @pytest.mark.parametrize("argv, bad", [
        (("ex", "--n", "\u0665", *EX), "\u0665"),
        (("ex", "--n", "5..\u0666", *EX), "5..\u0666"),
        (("ex", "--n", "1_0", *EX), "1_0"),
        (("ex", "--n", " 5", *EX), " 5"),
        (("ex", "--n", "+5", *EX), "+5"),
        (("ex", "--n", "5", "--seed", "\u0667", *EX), "--seed: invalid integer value"),
        (("ex", "--n", "5", "--workers", "\u0662", *EX), "--workers: invalid integer value"),
        (("ex", "--n", "5", "--budget", "1_0", *EX), "--budget: invalid integer value"),
        (("bounds", "--r", "\u0663", "--a", " 2,2,\u0662"), "--r: invalid integer value"),
        (("bounds", "--r", "3", "--a", " 2,2,\u0662"), " 2,2,\u0662"),
        (("construct", "--kind", "lb4", "--n", "9", "--r", "3", "--a", "2,2,+2", *OUT),
         "2,2,+2"),
        (("construct", "--kind", "lbap", "--n", "\u0663", "--r", "3", *OUT),
         "--n: invalid integer value"),
    ])
    def test_refused_integer_exits_2(self, tmp_path, capsys, argv, bad):
        try:
            code = main([w.format(tmp=tmp_path) for w in argv])
        except SystemExit as exc:  # argparse refuses a flag's value
            code = exc.code
        err = capsys.readouterr()
        assert code == 2 and err.out == ""
        assert err.err.count("error:") == 1 and bad in err.err.splitlines()[-1], err.err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_accepted(self, capsys):
        assert main(["ex", "--n", "4", "--seed", "-3", *self.EX]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[-2:] == ["1", "exact"]


class TestConstructCommand:
    def test_lbap_verify_writes_files(self, tmp_path):
        out = run_cli("construct", "--kind", "lbap", "--n", "4", "--r", "3",
                      "--verify", "--out-prefix", str(tmp_path / "x"))
        assert out.returncode == 0
        files = json.loads(out.stdout)["files"]
        assert [f.endswith(suffix) for f, suffix in
                zip(files, (".h.txt", ".g.txt", ".cert.json"))] == [True] * 3
        cert = json.loads((tmp_path / "x.cert.json").read_text())
        assert cert["passed"] is True

    def test_deletion_p_zero_trivially_verified(self, tmp_path):
        out = run_cli("construct", "--kind", "deletion", "--n", "8", "--r", "3",
                      "--spec", "K3_2(1,1,2)", "--p", "0", "--verify",
                      "--out-prefix", str(tmp_path / "d"))
        assert out.returncode == 0
        g = (tmp_path / "d.txt").read_text()
        assert g == "2 8 0\n"

    def test_lb4_with_nonfree_base_exits_nonzero(self, tmp_path):
        base = tmp_path / "base.txt"
        write_file(complete(4, 2), base)  # contains C4: not a valid base
        out = run_cli("construct", "--kind", "lb4", "--n", "6", "--r", "3",
                      "--a", "2,2,2", "--base", str(base), "--verify",
                      "--out-prefix", str(tmp_path / "l"))
        assert out.returncode == 1
        assert "freeness" in out.stderr

    def test_lb4_computes_base(self, tmp_path):
        out = run_cli("construct", "--kind", "lb4", "--n", "6", "--r", "3",
                      "--a", "2,2,2", "--verify", "--out-prefix", str(tmp_path / "l"))
        assert out.returncode == 0
        cert = json.loads((tmp_path / "l.cert.json").read_text())
        assert cert["passed"] is True

    def test_lb4_base_file_matches_computed_base(self, tmp_path):
        argv = ("construct", "--kind", "lb4", "--n", "9", "--r", "3", "--a", "2,2,2")
        computed = run_cli(*argv, "--out-prefix", str(tmp_path / "c" / "l"))
        base = tmp_path / "base.txt"
        write_file(exact_ex(6, single_edge(2), complete_partite(2, (2, 2))[0]).witness, base)
        given = run_cli(*argv, "--base", str(base), "--out-prefix", str(tmp_path / "g" / "l"))
        assert computed.returncode == given.returncode == 0
        for suffix in (".txt", ".cert.json"):
            assert ((tmp_path / "g" / f"l{suffix}").read_bytes()
                    == (tmp_path / "c" / f"l{suffix}").read_bytes())

    def test_lb4_base_of_the_wrong_uniformity_exits_2(self, tmp_path):
        base = tmp_path / "base.txt"
        write_file(make(6, 3, [(0, 1, 2)]), base)
        out = run_cli("construct", "--kind", "lb4", "--n", "9", "--r", "3", "--a", "2,2,2",
                      "--base", str(base), "--out-prefix", str(tmp_path / "l"))
        assert out.returncode == 2
        assert_one_line(out.stderr, "error: base witness has uniformity 3, expected 2")
        assert out.stdout == ""

    @pytest.mark.parametrize("kind, flag, rest", [
        ("lb4", "--a", ()),
        ("deletion", "--spec", ("--p", "0")),
    ])
    def test_missing_kind_flag_exits_2(self, tmp_path, kind, flag, rest):
        out = run_cli("construct", "--kind", kind, "--n", "6", "--r", "3", *rest,
                      "--out-prefix", str(tmp_path / "m"))
        assert out.returncode == 2
        assert out.stderr.splitlines() == [f"error: construct --kind {kind} needs {flag}"]
        assert out.stdout == ""

    @pytest.mark.parametrize("n, sizes, message", [
        ("6", "2,2", "error: need r >= 3 class sizes, got (2, 2) for r=3"),
        ("-3", "2,2,2", "error: vertex count must be >= 0, got -3"),
    ])
    def test_lb4_shape_is_checked_before_the_base(self, tmp_path, n, sizes, message):
        out = run_cli("construct", "--kind", "lb4", f"--n={n}", "--r", "3", "--a", sizes,
                      "--out-prefix", str(tmp_path / "l"))
        assert out.returncode == 2
        assert_one_line(out.stderr, message)
        assert out.stdout == ""

    # each fails its flags or inputs before anything is written
    @pytest.mark.parametrize("rest", [
        ("--kind", "lb4", "--n", "9", "--r", "3"),
        ("--kind", "lb4", "--n", "6", "--r", "3", "--a", "2,2"),
        ("--kind", "deletion", "--n", "9", "--r", "3", "--spec", "file:{tmp}/missing"),
    ])
    def test_usage_error_leaves_no_directory(self, tmp_path, capsys, rest):
        argv = ["construct", *(w.format(tmp=tmp_path) for w in rest),
                "--out-prefix", str(tmp_path / "D" / "sub" / "x")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "D").exists()

    def test_outputs_make_their_directory(self, tmp_path, capsys):
        prefix = tmp_path / "D" / "sub" / "d"
        assert main(["construct", "--kind", "deletion", "--n", "5", "--r", "3",
                     "--spec", "K3_2(1,1,2)", "--p", "0", "--out-prefix", str(prefix)]) == 0
        assert json.loads(capsys.readouterr().out)["files"] == [
            f"{prefix}.txt", f"{prefix}.cert.json"]
        assert (tmp_path / "D" / "sub" / "d.txt").read_text() == "2 5 0\n"

    def test_out_prefix_under_a_file_exits_2(self, tmp_path, capsys):
        # the construction runs, but its directory cannot be made
        (tmp_path / "D").write_text("")
        assert main(["construct", "--kind", "lbap", "--n", "4", "--r", "3",
                     "--out-prefix", str(tmp_path / "D" / "NAME")]) == 2
        err = capsys.readouterr()
        assert_one_line(err.err, "error:", tmp_path / "D")
        assert err.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "D"]
        assert (tmp_path / "D").read_text() == ""

    def test_deletion_without_p_on_no_vertices_exits_2(self, tmp_path):
        out = run_cli("construct", "--kind", "deletion", "--n", "0", "--r", "3",
                      "--spec", "K3_2(1,1,2)", "--out-prefix", str(tmp_path / "d"))
        assert out.returncode == 2
        assert_one_line(out.stderr, "error: deletion balancing needs n >= 1")
        assert out.stdout == ""


class TestVerifyCommand:
    def test_free_claim_passes(self, tmp_path):
        run_cli("construct", "--kind", "lbap", "--n", "4", "--r", "3",
                "--out-prefix", str(tmp_path / "x"))
        out = run_cli("verify", str(tmp_path / "x.g.txt"),
                      "--claim", "free:K3_2(1,1,2)")
        assert out.returncode == 0
        assert json.loads(out.stdout)["verified"] is True

    def test_free_claim_refuted_with_witness(self, tmp_path):
        path = tmp_path / "k4.txt"
        write_file(complete(4, 2), path)
        out = run_cli("verify", str(path), "--claim", "free:K3_2(1,1,2)")
        assert out.returncode == 1
        payload = json.loads(out.stdout)
        assert payload["verified"] is False
        assert len(payload["witness"]["mapping"]) == 4

    def test_cliques_zero_on_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_file(make(5, 2, []), path)
        out = run_cli("verify", str(path), "--claim", "cliques:0")
        assert out.returncode == 0

    def test_edge_disjoint_claim(self, tmp_path):
        path = tmp_path / "two.txt"
        write_file(make(6, 2, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]), path)
        assert run_cli("verify", str(path), "--claim", "edge-disjoint:2").returncode == 0
        assert run_cli("verify", str(path), "--claim", "edge-disjoint:3").returncode == 1

    def test_lbap_properties_claim(self, tmp_path):
        run_cli("construct", "--kind", "lbap", "--n", "4", "--r", "3",
                "--out-prefix", str(tmp_path / "x"))
        out = run_cli("verify", str(tmp_path / "x.h.txt"),
                      "--claim", "lbap-properties",
                      "--cert", str(tmp_path / "x.cert.json"))
        assert out.returncode == 0

    def test_chain_claim_with_trace(self, tmp_path):
        host = tmp_path / "host.txt"
        write_file(make(5, 2, []), host)
        trace = tmp_path / "trace.jsonl"
        out = run_cli("verify", str(host), "--claim", "chain:K4_3(1,1,1,1)",
                      "--trace", str(trace))
        assert out.returncode == 0
        lines = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert [e["step"] for e in lines] == ["chain-s2", "chain-s3"]

    def test_unknown_claim_exits_2(self, tmp_path):
        path = tmp_path / "g.txt"
        write_file(make(3, 2, []), path)
        assert run_cli("verify", str(path), "--claim", "nonsense").returncode == 2

    def test_non_integer_count_exits_2(self, tmp_path):
        # a count is ASCII digits only: on K5, "edge-disjoint:-5" would
        # otherwise verify and " 10", "1_0" and an Arabic-Indic 3 would read
        path = tmp_path / "g.txt"
        write_file(complete(5, 2), path)
        for claim in ("cliques:abc", "edge-disjoint:2x", "edge-disjoint:-5", "cliques:-1",
                      "cliques: 10", "cliques:1_0", "edge-disjoint:\u0663", "cliques:+10",
                      "cliques:", "cliques:10\n"):
            out = run_cli("verify", str(path), "--claim", claim)
            assert out.returncode == 2
            assert_one_line(out.stderr, "error:")

    def test_certificate_without_params_exits_2(self, tmp_path):
        assert run_cli("construct", "--kind", "lbap", "--n", "4", "--r", "3",
                       "--out-prefix", str(tmp_path / "x")).returncode == 0
        cert = tmp_path / "x.cert.json"
        meta = json.loads(cert.read_text())
        del meta["params"]
        cert.write_text(json.dumps(meta))
        out = run_cli("verify", str(tmp_path / "x.h.txt"), "--claim", "lbap-properties",
                      "--cert", str(cert))
        assert out.returncode == 2
        assert_one_line(out.stderr, "error:")


class TestLbapPropertiesInput:
    """``verify --claim lbap-properties`` on hand-written hosts and certificates."""

    @staticmethod
    def verify(tmp_path, host_text, r, parts, n=1, elements=()):
        host, cert = tmp_path / "h.txt", tmp_path / "h.cert.json"
        host.write_text(host_text)
        cert.write_text(json.dumps({"params": {"n": n, "r": r, "elements": list(elements),
                                               "exact": False, "parts": parts}}))
        return run_cli("verify", str(host), "--claim", "lbap-properties",
                       "--cert", str(cert))

    @staticmethod
    def claim(out, name):
        claims = json.loads(out.stdout)["certificate"]["claims"]
        return next(c for c in claims if c["name"] == name)

    @pytest.mark.parametrize("r, parts", [
        (3, [[0, 1], [2, 3], [4]]),            # vertex 5 in no class
        (3, [[0, 1], [2, 3], [4, 5, 6]]),      # vertex 6 is not in the host
        (4, [[0, 1], [2, 3], [4, 5]]),         # three classes for r = 4
    ])
    def test_classes_that_do_not_fit_the_host_exit_2(self, tmp_path, r, parts):
        out = self.verify(tmp_path, "3 6 2\n0 2 4\n1 3 5\n", r, parts)
        assert out.returncode == 2
        assert_one_line(out.stderr, "error: certificate needs")
        assert out.stdout == ""

    def test_edge_missing_a_class_is_no_swap(self, tmp_path):
        # each choice (0, 1, v) less its class-0 vertex 0 lies only in edges
        # with no class-0 vertex, so coordinate 0 is never swappable
        out = self.verify(tmp_path, "3 5 2\n0 2 3\n1 2 4\n", 3, [[0], [1], [2, 3, 4]])
        assert out.returncode == 1  # the vertex count is not 6n
        assert out.stderr == ""
        assert self.claim(out, "no-local-swap") == {
            "name": "no-local-swap", "status": "pass",
            "detail": {"checked": 3, "exhaustive": True}}

    def test_empty_class_above_the_tuple_budget(self, tmp_path):
        # the nonempty classes alone span over 500,000 tuples, yet with a
        # class empty there is no choice of one vertex per class to check
        sizes, parts = [0, 11, 11, 11, 11, 10, 10], []
        for size in sizes:
            start = sum(map(len, parts))
            parts.append(list(range(start, start + size)))
        out = self.verify(tmp_path, "7 64 0\n", 7, parts)
        assert out.returncode == 1  # the vertex count is not 42n
        assert out.stderr == ""
        assert self.claim(out, "no-local-swap") == {
            "name": "no-local-swap", "status": "pass",
            "detail": {"checked": 0, "exhaustive": True}}

    def test_planted_violation_in_a_large_product_fails(self, tmp_path):
        # six classes of ten: a product of 10^6 choices, one of them, x, with
        # every coordinate swappable; the other claims all hold
        x = [10 * i + 3 for i in range(6)]
        edges = [x[:i] + [10 * i + 7] + x[i + 1:] for i in range(6)]
        fill = [(k,) * 6 for k in (0, 1, 2, 4, 5, 6, 8, 9)] + [(0, 1) * 3, (1, 0) * 3]
        edges += [[10 * i + a for i, a in enumerate(row)] for row in fill]
        text = f"6 60 {len(edges)}\n" + "".join(
            " ".join(map(str, sorted(e))) + "\n" for e in edges)
        parts = [list(range(10 * i, 10 * i + 10)) for i in range(6)]
        out = self.verify(tmp_path, text, 6, parts, n=2, elements=[1])
        assert out.returncode == 1
        assert out.stderr == ""
        claims = json.loads(out.stdout)["certificate"]["claims"]
        assert {c["name"]: c["status"] for c in claims} == {
            "one-edge-per-subset": "pass", "no-local-swap": "fail",
            "vertex-count": "pass", "edge-count": "pass"}
        assert self.claim(out, "no-local-swap")["detail"] == {"tuple": x}


def assert_one_line(stderr, prefix, path=None):
    assert stderr.startswith(prefix), stderr
    assert stderr.count("\n") == 1, stderr
    assert path is None or str(path) in stderr, stderr


class TestIntegrityFailures:
    ARGS = ("ex", "--n", "5", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)")

    def test_corrupt_cache_entry_exits_1(self, tmp_path):
        assert run_cli(*self.ARGS, "--cache-dir", str(tmp_path)).returncode == 0
        path = next(tmp_path.glob("*.rec"))
        head, _, _ = path.read_text().partition("\n")
        path.write_text(head + "\n" + complete(5, 2).to_text())  # not diamond-free
        out = run_cli(*self.ARGS, "--cache-dir", str(tmp_path))
        assert out.returncode == 1
        assert_one_line(out.stderr, "cache integrity failure:")

    @pytest.mark.parametrize("corrupt", [
        lambda text: b"\xff" + text.encode(),
        lambda text: ("[]\n" + text.partition("\n")[2]).encode(),
    ], ids=["not-utf8", "header-not-object"])
    def test_unreadable_cache_entry_exits_1(self, tmp_path, capsys, corrupt):
        args = [*self.ARGS, "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        path = next(tmp_path.glob("*.rec"))
        path.write_bytes(corrupt(path.read_text()))
        capsys.readouterr()
        assert main(args) == 1
        assert_one_line(capsys.readouterr().err, "cache integrity failure:")

    def test_record_error_exits_1(self, monkeypatch, capsys):
        # every record is verified where it is built, and a cache entry that
        # fails verification surfaces as CacheIntegrityError, so no command
        # line reaches RecordError; inject it to check the mapping
        def fail(*args, **kwargs):
            raise RecordError("witness does not attain the recorded value")

        monkeypatch.setattr(cli, "exact_ex", fail)
        assert main(list(self.ARGS)) == 1
        assert_one_line(capsys.readouterr().err, "record verification failed:")


class TestUnreadableInput:
    """An input path that is a directory or not UTF-8 text is a usage error,
    as a missing one is, and so is a cache directory that is a file: exit 2
    with one ``error:`` line that names the path."""

    @staticmethod
    def inputs(tmp_path):
        host = tmp_path / "host.txt"
        write_file(make(4, 2, [[0, 1]]), host)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 4 1\n0 \xff\n")
        return host, bad

    @pytest.mark.parametrize("which", ["dir", "not-utf8", "missing"])
    def test_host(self, tmp_path, capsys, which):
        _, bad = self.inputs(tmp_path)
        path = {"dir": tmp_path, "not-utf8": bad, "missing": tmp_path / "none"}[which]
        assert main(["verify", str(path), "--claim", "cliques:1"]) == 2
        assert_one_line(capsys.readouterr().err, "error:", path)

    @pytest.mark.parametrize("which", ["dir", "not-utf8"])
    def test_file_spec(self, tmp_path, capsys, which):
        _, bad = self.inputs(tmp_path)
        path = tmp_path if which == "dir" else bad
        assert main(["ex", "--n", "4", "--T", f"file:{path}", "--F", "K3_2(1,1,1)"]) == 2
        assert_one_line(capsys.readouterr().err, "error:", path)

    @pytest.mark.parametrize("which", ["dir", "not-utf8"])
    def test_base(self, tmp_path, capsys, which):
        _, bad = self.inputs(tmp_path)
        path = tmp_path if which == "dir" else bad
        assert main(["construct", "--kind", "lb4", "--n", "6", "--r", "3", "--a", "1,1,2",
                     "--base", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
        assert_one_line(capsys.readouterr().err, "error:", path)

    @pytest.mark.parametrize("which", ["dir", "not-utf8"])
    def test_cert(self, tmp_path, capsys, which):
        host, bad = self.inputs(tmp_path)
        path = tmp_path if which == "dir" else bad
        assert main(["verify", str(host), "--claim", "lbap-properties",
                     "--cert", str(path)]) == 2
        assert_one_line(capsys.readouterr().err, "error:", path)

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cache_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch, via):
        path = tmp_path / "cache"
        path.write_text("")
        args = ["ex", "--n", "4", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)"]
        if via == "flag":
            args += ["--cache-dir", str(path)]
        else:
            monkeypatch.setenv(cli.CACHE_ENV, str(path))
        assert main(args) == 2
        assert_one_line(capsys.readouterr().err, "error:", path)

    def test_failed_fork_is_not_a_usage_error(self, monkeypatch):
        def fail():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fail)
        with pytest.raises(BlockingIOError):
            main(["ex", "--n", "5", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)",
                  "--workers", "2"])


class TestBoundsCommand:
    def test_upper_two(self):
        out = run_cli("bounds", "--r", "3", "--a", "1,1,2", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["upper"] == "2"

    def test_all_twos(self):
        out = run_cli("bounds", "--r", "3", "--a", "2,2,2", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["upper"] == "11/4"
        lowers = {lb["label"]: lb["exponent"] for lb in payload["lowers"]}
        assert lowers["all-two"] == "5/2"

    def test_r4(self):
        out = run_cli("bounds", "--r", "4", "--a", "2,2,2,2", "--format", "json")
        assert json.loads(out.stdout)["upper"] == "31/8"

    def test_unsorted_rejected(self):
        assert run_cli("bounds", "--r", "3", "--a", "2,1,1").returncode == 2

    def test_csv_quotes_conditions_with_commas(self):
        out = run_cli("bounds", "--r", "3", "--a", "1,2,2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        assert "sizes (1, 2, ..., 2); random host plus deletion" in [r[-1] for r in rows]
        assert [len(r) for r in rows] == [4] * len(rows)


class TestFlagsPerSubcommand:
    """Each subcommand takes only the shared flags it reads."""

    ARGS = {
        "construct": ("--kind", "lbap", "--n", "4", "--r", "3", "--out-prefix", "{tmp}/c"),
        "verify": ("{tmp}/h.txt", "--claim", "cliques:0"),
        "bounds": ("--r", "3", "--a", "2,2,2"),
    }
    VALUES = {"--seed": ("1",), "--workers": ("1",), "--timeout": ("5",),
              "--cache-dir": ("{tmp}/cache",), "--format": ("json",),
              "--out": ("{tmp}/out.txt",), "--allow-large": ()}
    KEPT = {
        "construct": ("--seed", "--workers", "--cache-dir", "--allow-large"),
        "verify": ("--workers", "--cache-dir", "--allow-large"),
        "bounds": ("--format", "--out"),
    }

    def argv(self, tmp_path, command, flag):
        write_file(make(3, 2, []), tmp_path / "h.txt")
        words = (command, *self.ARGS[command], flag, *self.VALUES[flag])
        return [w.format(tmp=tmp_path) for w in words]

    @pytest.mark.parametrize("command, flag", [
        ("construct", "--timeout"), ("construct", "--format"), ("construct", "--out"),
        ("verify", "--seed"), ("verify", "--timeout"), ("verify", "--format"),
        ("verify", "--out"),
        ("bounds", "--seed"), ("bounds", "--workers"), ("bounds", "--timeout"),
        ("bounds", "--cache-dir"), ("bounds", "--allow-large"),
    ])
    def test_dropped_flag_exits_2(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(tmp_path, command, flag))
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert "unrecognized arguments" in err.err and err.out == ""
        assert not (tmp_path / "out.txt").exists()
        assert not (tmp_path / "c.h.txt").exists()

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in KEPT.items()
                                               for f in flags])
    def test_kept_flag_is_accepted(self, tmp_path, command, flag):
        assert main(self.argv(tmp_path, command, flag)) == 0


def test_repeated_runs_byte_identical():
    args = ["ex", "--n", "4..5", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)",
            "--format", "json"]
    runs = [run_cli(*args) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
    assert runs[0].stdout == runs[1].stdout


def test_main_returns_exit_code():
    assert main(["bounds", "--r", "3", "--a", "2,1,1"]) == 2


EX_ARGV = ("ex", "--n", "4", "--T", "K3_2(1,1,1)", "--F", "K3_2(1,1,2)")
LBAP_ARGV = ("construct", "--kind", "lbap", "--n", "5", "--r", "3")
VERIFY_ARGV = ("verify", "h.txt", "--claim")
SUBCOMMANDS = ("ex", "construct", "verify", "bounds")


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _described(parser):
    """What a parser parses with and prints: every action's settings, its
    defaults, usage and help."""
    actions = [(type(a).__name__, a.option_strings, a.dest, a.default, a.choices, a.help,
                a.required, a.nargs, a.const, a.metavar, getattr(a.type, "__name__", a.type))
               for a in parser._actions]
    return actions, parser._defaults, parser.format_usage(), parser.format_help()


class TestParserPerSubcommand:
    """``main`` builds the arguments of the invoked subcommand only; what it
    prints and returns is what the full parser gives."""

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def assert_same_as_full_parser(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_file(make(4, 2, [[0, 1], [1, 2], [0, 2], [2, 3]]), tmp_path / "h.txt")
        got = self.outcome(argv, capsys)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == self.outcome(argv, capsys)

    @pytest.mark.parametrize("argv", [
        (), ("-h",), ("ex", "-h"), ("construct", "-h"), ("verify", "-h"), ("bounds", "-h"),
        ("frobnicate",), ("--bogus", "ex"),
        ("ex", "--bogus"), ("construct", "--bogus"), ("verify", "--bogus"),
        ("bounds", "--bogus"),
        ("ex",), ("construct",), ("verify",), ("bounds",),
        (*EX_ARGV, "--workers", "0"),
        (*LBAP_ARGV, "--out-prefix", "o/x", "--workers", "0"),
        (*VERIFY_ARGV, "cliques:1", "--workers", "0"),
        (*EX_ARGV, "construct"),
        (*LBAP_ARGV, "--out", "o/x"),
        ("bounds", "--r", "3", "--a", "2,2,2", "--format", "yaml"),
        ("bounds", "--r", "3", "--a", "2,2,2"),
        (*EX_ARGV, "--format", "csv"),
        (*LBAP_ARGV, "--out-prefix", "o/x"),
        (*VERIFY_ARGV, "edge-disjoint:1"),
    ], ids=" ".join)
    def test_same_as_the_full_parser(self, tmp_path, monkeypatch, capsys, argv):
        self.assert_same_as_full_parser(argv, tmp_path, monkeypatch, capsys)

    def test_top_level_help_at_80_columns(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        self.assert_same_as_full_parser(("-h",), tmp_path, monkeypatch, capsys)

    def test_main_builds_the_invoked_subcommand(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def spy(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        main(["bounds", "--r", "3", "--a", "2,2,2"])
        monkeypatch.setattr(cli.sys, "argv", ["exturan", "bounds", "--r", "3", "--a", "1,1,2"])
        main()
        assert built == ["bounds", "bounds"]

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subparser_matches_the_full_one(self, command):
        full, one = cli.build_parser(), cli.build_parser(command)
        assert one.format_help() == full.format_help()
        full_subs, subs = _subparsers(full), _subparsers(one)
        assert list(subs) == list(SUBCOMMANDS)
        assert _described(subs[command]) == _described(full_subs[command])
        for other in SUBCOMMANDS:
            if other != command:
                assert [a.dest for a in subs[other]._actions] == ["help"]
                assert subs[other]._defaults == {}

    @pytest.mark.parametrize("command", [None, "nonsense", "-h"])
    def test_full_parser_unless_a_subcommand_is_named(self, command):
        subs = _subparsers(cli.build_parser(command))
        assert list(subs) == list(SUBCOMMANDS)
        assert all("func" in p._defaults and len(p._actions) > 1 for p in subs.values())
