import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import atc
from atc import truss
from atc.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, EXIT_USAGE, format_score, run
from atc.graph import Graph, load_attributes, load_edge_list
from atc.greedy import basic_search, bulk_search
from atc.harness import evaluate, read_queries, read_truth, structure_baseline
from atc.index import VersionMismatchError, build_index, load_index
from atc.local import locatc_search
from fractions import Fraction

# an index of the 4-cycle below, as format version 1 wrote it
V1_INDEX = """ATIDX\t1
TAUMAX\t2
SECTION\tSTRUCT_V
0\t2
1\t2
2\t2
3\t2
CRC\t59b0da9e
SECTION\tSTRUCT_E
0\t1\t2
0\t3\t2
1\t2\t2
2\t3\t2
CRC\t8b5541f7
SECTION\tATTR\tx
V\t0\t2
V\t1\t2
V\t2\t2
E\t0\t1\t2
E\t1\t2\t2
CRC\tc80ce02d
SECTION\tINV\tx
0\t2
1\t2
2\t2
CRC\t4734f8d1
SECTION\tATTR\ty
V\t3\t0
CRC\t5ca6307c
SECTION\tINV\ty
3\t2
CRC\teccbb923
"""

# the same 4-cycle's index as format version 2 wrote it
V2_INDEX = """ATIDX\t2
GRAPH\t4\t4\t99217c5775c9c207
TAUMAX\t2
SECTION\tSTRUCT_V
0\t2
1\t2
2\t2
3\t2
CRC\t59b0da9e
SECTION\tSTRUCT_E
0\t1\t2
0\t3\t2
1\t2\t2
2\t3\t2
CRC\t8b5541f7
SECTION\tATTR\tx
0\t1\t2
1\t2\t2
CRC\tc313df2e
SECTION\tATTR\ty
CRC\tb539ab17
"""


@pytest.fixture
def synth(tmp_path):
    prefix = str(tmp_path / "s")
    assert run(["gen", "--n", "120", "--communities", "4",
                "--out-prefix", prefix, "--queries", "6", "--seed", "3"]) == EXIT_OK
    return prefix


def q_node(prefix):
    line = open(prefix + ".queries").readline()
    return line.split("\t")[0].split(",")[0]


class TestFormatScore:
    def test_exact_six_decimals(self):
        assert format_score(Fraction(29, 5)) == "5.800000"
        assert format_score(Fraction(25, 4)) == "6.250000"
        assert format_score(Fraction(0)) == "0.000000"
        assert format_score(Fraction(1, 3)) == "0.333333"
        assert format_score(Fraction(2, 3)) == "0.666667"


class TestExitCodes:
    def test_missing_nodes_usage(self, synth):
        assert run(["query", "--graph", synth + ".edges"]) == EXIT_USAGE

    def test_no_subcommand_usage(self):
        assert run([]) == EXIT_USAGE

    def test_auto_kd_conflict(self, synth):
        assert run(["query", "--graph", synth + ".edges", "--nodes", "0",
                    "--k", "3", "--auto-kd"]) == EXIT_USAGE

    def test_missing_file_input_error(self, tmp_path):
        assert run(["decompose", "--graph", str(tmp_path / "nope")]) == EXIT_INPUT

    def test_malformed_graph_input_error(self, tmp_path):
        p = tmp_path / "bad"
        p.write_text("0 1 2\n")
        assert run(["decompose", "--graph", str(p)]) == EXIT_INPUT

    def test_bad_vertex_token_in_file_input_error(self, tmp_path, capsys):
        # int() would load "1_0" as vertex 10
        p = tmp_path / "bad"
        p.write_text("1_0 2\n2 3\n3 1_0\n")
        assert run(["decompose", "--graph", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a vertex id: '1_0'" in err

    def test_corrupt_index_input_error(self, synth, tmp_path):
        idx = str(tmp_path / "i.atidx")
        assert run(["index", "--graph", synth + ".edges",
                    "--attrs", synth + ".attrs", "--out", idx]) == EXIT_OK
        data = open(idx).read()
        open(idx, "w").write(data[: len(data) // 2])
        assert run(["query", "--graph", synth + ".edges",
                    "--attr-file", synth + ".attrs", "--index", idx,
                    "--algo", "local", "--nodes", q_node(synth)]) == EXIT_INPUT

    def test_infeasible_exit_three_with_flag(self, synth, capsys):
        # two distinct query nodes cannot both sit at query distance 0
        argv = ["query", "--graph", synth + ".edges", "--algo", "basic",
                "--nodes", "0,1", "--k", "4", "--d", "0"]
        assert run(argv + ["--fail-on-empty"]) == EXIT_EMPTY
        capsys.readouterr()
        assert run(argv) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "infeasible"


class TestQueryTokens:
    """A malformed --nodes or --attrs token is a usage error (exit 1); a
    well-formed id or label the graph lacks is an input error (exit 2)."""

    def query(self, synth, nodes, attrs=None):
        argv = ["query", "--graph", synth + ".edges", "--attr-file", synth + ".attrs",
                "--algo", "bulk", "--nodes", nodes, "--k", "3", "--d", "3"]
        return run(argv + (["--attrs", attrs] if attrs is not None else []))

    @pytest.mark.parametrize("nodes,token", [
        ("0,,1", "''"), ("0,x1", "'x1'"), ("0,", "''"), ("1.5", "'1.5'"),
        # int() reads each of these as some vertex id
        ("1_1", "'1_1'"), ("+3", "'+3'"), ("0, 1", "' 1'"), ("7 ", "'7 '"),
        ("\u0663", "'\u0663'")])
    def test_bad_node_token_usage(self, synth, capsys, nodes, token):
        assert self.query(synth, nodes) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "usage error" in err and token in err

    @pytest.mark.parametrize("attrs", ["a0,", ",a0", "a0,,a1"])
    def test_empty_attr_label_usage(self, synth, capsys, attrs):
        assert self.query(synth, q_node(synth), attrs) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty label" in err and repr(attrs) in err

    def test_unknown_node_and_label_input(self, synth, capsys):
        assert self.query(synth, "0,99999") == EXIT_INPUT
        assert self.query(synth, q_node(synth), "nosuchlabel") == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "99999" in err and "nosuchlabel" in err


class TestQueryFlags:
    """Query flags are checked before any file is read, so a bad one is a
    usage error (exit 1) even when the graph file does not exist."""

    @pytest.mark.parametrize("flags", [
        ["--nodes", "0,,1"], ["--nodes", "1_1"],
        ["--nodes", "0", "--k", "3", "--auto-kd"],
        ["--nodes", "0", "--k", "1"], ["--nodes", "0", "--d", "-1"],
        ["--nodes", "0", "--eta", "0"], ["--nodes", "0", "--gamma", "-1"],
        ["--nodes", "0", "--epsilon", "0"], ["--nodes", "0", "--epsilon", "1/0"],
        ["--nodes", "0", "--gamma", "1/0"],
        ["--nodes", "0", "--algo", "bulk", "--auto-kd"],
        ["--nodes", "0", "--algo", "basic", "--index", "/nonexistent"],
        # flags the chosen search would ignore
        ["--nodes", "0", "--algo", "basic", "--gamma", "1/3"],
        ["--nodes", "0", "--algo", "bulk", "--gamma", "1/3"],
        ["--nodes", "0", "--algo", "basic", "--eta", "5"],
        ["--nodes", "0", "--algo", "bulk", "--eta", "5"],
        ["--nodes", "0", "--algo", "basic", "--epsilon", "0.5"]])
    def test_usage_error_before_load(self, tmp_path, capsys, flags):
        assert run(["query", "--graph", str(tmp_path / "nope"), *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "usage error" in err

    def test_good_flags_reach_the_missing_file(self, tmp_path, capsys):
        assert run(["query", "--graph", str(tmp_path / "nope"), "--nodes", "0",
                    "--gamma", "1/3", "--epsilon", "0.5"]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_epsilon_applies_to_bulk(self, tmp_path, capsys):
        assert run(["query", "--graph", str(tmp_path / "nope"), "--nodes", "0",
                    "--algo", "bulk", "--epsilon", "0.5"]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


class TestGenFlags:
    """gen flags out of range are a usage error (exit 1), caught before
    anything is generated or written."""

    @pytest.mark.parametrize("flags", [
        ["--n", "0"], ["--communities", "0"], ["--communities", "-2"],
        ["--queries", "-1"], ["--coverage", "-5"], ["--coverage", "101"],
        ["--coverage", "150"], ["--p-background", "-1"],
        ["--p-background", "2"], ["--p-background", "nan"]])
    def test_out_of_range_usage(self, tmp_path, capsys, flags):
        prefix = str(tmp_path / "bad")
        assert run(["gen", "--n", "120", "--communities", "4", *flags,
                    "--out-prefix", prefix]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("atc: usage error: --")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--queries", "0"], ["--coverage", "0"], ["--coverage", "100"],
        ["--p-background", "0"]])
    def test_range_ends_accepted(self, tmp_path, flags):
        assert run(["gen", "--n", "120", "--communities", "4", *flags,
                    "--out-prefix", str(tmp_path / "ok")]) == EXIT_OK

    def test_graph_too_small_input_error(self, tmp_path, capsys):
        assert run(["gen", "--n", "20", "--communities", "4",
                    "--out-prefix", str(tmp_path / "small")]) == EXIT_INPUT
        assert "too small" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEvalFiles:
    """A malformed .truth or .queries line is an input error (exit 2) in one
    line naming the file and line, raised before any query runs."""

    def eval(self, synth, tmp_path, capsys, path, line):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        report = tmp_path / "rep.tsv"
        code = run(["eval", "--graph", synth + ".edges", "--attrs", synth + ".attrs",
                    "--truth", synth + ".truth", "--queries", synth + ".queries",
                    "--algo", "bulk", "--report", str(report)])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and not report.exists() and out == ""
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("line,message", [
        # int() read "3_0" as vertex 30
        ("3_0,35\ta0\t1", "not a vertex id: '3_0'"),
        ("30,35", "expected 3 TAB-separated fields, got 1"),
        ("30,35\ta0\t99", "no community '99' in the truth file (4 communities)"),
        ("30,35\ta0\t-1", "no community '-1'")])
    def test_bad_queries_line(self, synth, tmp_path, capsys, line, message):
        path = synth + ".queries"
        err = self.eval(synth, tmp_path, capsys, path, line)
        assert f"{path}:7: {message}" in err  # after the 6 generated queries

    def test_bad_truth_id(self, synth, tmp_path, capsys):
        path = synth + ".truth"
        err = self.eval(synth, tmp_path, capsys, path, "1_2\t3")
        assert f"{path}:5: not a vertex id: '1_2'" in err  # after 4 communities

    # well-formed ids and labels that the graph does not have used to fail
    # only when their query ran, after the earlier queries, naming no line
    @pytest.mark.parametrize("line,message", [
        ("30,99999\ta0\t1", "unknown vertex 99999"),
        ("30,35\tzz9\t1", "unknown attribute label 'zz9'")])
    def test_query_token_not_in_graph(self, synth, tmp_path, capsys, line, message):
        path = synth + ".queries"
        err = self.eval(synth, tmp_path, capsys, path, line)
        assert f"{path}:7: {message}" in err

    def test_truth_member_not_in_graph(self, synth, tmp_path, capsys):
        path = synth + ".truth"
        err = self.eval(synth, tmp_path, capsys, path, "3\t99999")
        assert f"{path}:5: unknown vertex 99999" in err


class TestQueryOutput:
    def test_json_sorted_keys_and_fields(self, synth, capsys):
        assert run(["query", "--graph", synth + ".edges",
                    "--attr-file", synth + ".attrs", "--algo", "bulk",
                    "--nodes", q_node(synth), "--k", "3", "--d", "3"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        obj = json.loads(out)
        assert list(obj) == sorted(obj)
        for key in ("vertices", "score", "k", "d", "diameter", "algo",
                    "status", "suggestions"):
            assert key in obj
        # 6-decimal score string
        assert "." in obj["score"] and len(obj["score"].split(".")[1]) == 6

    def test_suggest_on_bad(self, tmp_path, capsys):
        gp = tmp_path / "g"
        gp.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        ap = tmp_path / "a"
        ap.write_text("0\tx\n1\tx\n2\tx\n3\ty\n4\ty\n5\ty\n")
        assert run(["query", "--graph", str(gp), "--attr-file", str(ap),
                    "--algo", "basic", "--nodes", "0,3", "--attrs", "x,y",
                    "--k", "3", "--d", "2", "--suggest-on-bad"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "bad_query"
        assert len(obj["suggestions"]) == 2


def two_triangles(tmp_path, bridge=False):
    """Triangles 0-1-2 (all labelled x) and 3-4-5 (all y), joined by the
    edge 2-3 when `bridge`."""
    gp, ap = tmp_path / "g", tmp_path / "a"
    gp.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n" + ("2 3\n" if bridge else ""))
    ap.write_text("0\tx\n1\tx\n2\tx\n3\ty\n4\ty\n5\ty\n")
    return ["query", "--graph", str(gp), "--attr-file", str(ap)]


def count_full_truss_builds(monkeypatch) -> list:
    """Record each maximal_kd_truss call on a whole Graph, made through any
    module's binding of it."""
    calls = []
    original = truss.maximal_kd_truss

    def counted(g, *args, **kwargs):
        if isinstance(g, Graph):
            calls.append(g)
        return original(g, *args, **kwargs)

    for info in pkgutil.iter_modules(atc.__path__):
        module = importlib.import_module(f"atc.{info.name}")
        if getattr(module, "maximal_kd_truss", None) is original:
            monkeypatch.setattr(module, "maximal_kd_truss", counted)
    monkeypatch.setattr(atc, "maximal_kd_truss", counted)
    return calls


class TestSuggestOnBad:
    """--suggest-on-bad classifies only a search that found nothing, or
    found a community of score zero: any result lies in the maximal
    (k,d)-truss, so a positive score proves the query good."""

    @pytest.mark.parametrize("algo,builds", [("basic", 1), ("bulk", 1), ("local", 0)])
    def test_good_query_builds_full_truss_at_most_once(self, synth, capsys,
                                                       monkeypatch, algo, builds):
        nodes, labels, _ = open(synth + ".queries").readline().split("\t")
        argv = ["query", "--graph", synth + ".edges", "--attr-file", synth + ".attrs",
                "--algo", algo, "--nodes", nodes, "--attrs", labels,
                "--k", "3", "--d", "3"]
        calls = count_full_truss_builds(monkeypatch)
        assert run(argv + ["--suggest-on-bad"]) == EXIT_OK
        with_flag = capsys.readouterr().out
        assert json.loads(with_flag)["status"] == "ok"
        assert len(calls) == builds
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == with_flag

    @pytest.mark.parametrize("algo", ["basic", "bulk", "local"])
    def test_zero_score_is_bad(self, tmp_path, capsys, algo):
        # the only (3,2)-truss holding 0 and 1 is triangle 0-1-2: no y in it
        argv = two_triangles(tmp_path) + ["--algo", algo, "--nodes", "0,1",
                                          "--attrs", "y", "--k", "3", "--d", "2"]
        assert run(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["score"] == "0.000000"
        assert run(argv + ["--suggest-on-bad", "--fail-on-empty"]) == EXIT_EMPTY
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "bad_query"
        assert obj["suggestions"] == [{"attrs": [], "nodes": [0, 1]}]

    def test_bad_query_reads_index_first(self, tmp_path, capsys):
        """The search runs first, so a bad query given an unreadable index
        is an input error, as a good one is."""
        idx = tmp_path / "i.atidx"
        idx.write_text("not an index\n")
        assert run(two_triangles(tmp_path) + [
            "--algo", "local", "--nodes", "0,3", "--attrs", "x,y", "--k", "3",
            "--d", "2", "--index", str(idx), "--suggest-on-bad"]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_auto_kd_community_is_kept(self, tmp_path, capsys):
        """A community found under --auto-kd is printed: no (k,d) that the
        query never set can make it a bad query."""
        argv = two_triangles(tmp_path, bridge=True) + [
            "--nodes", "0,3", "--attrs", "x,y", "--auto-kd"]
        assert run(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert json.loads(plain)["status"] == "ok"
        assert run(argv + ["--suggest-on-bad"]) == EXIT_OK
        assert capsys.readouterr().out == plain


class TestDeterminism:
    def test_gen_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            prefix = str(tmp_path / name)
            assert run(["gen", "--n", "100", "--communities", "3",
                        "--out-prefix", prefix, "--seed", "11"]) == EXIT_OK
            outs.append(b"".join(
                open(prefix + ext, "rb").read()
                for ext in (".edges", ".attrs", ".truth", ".queries")))
        assert outs[0] == outs[1]

    def test_query_stdout_byte_identical(self, synth, capsys):
        argv = ["query", "--graph", synth + ".edges",
                "--attr-file", synth + ".attrs", "--algo", "local",
                "--nodes", q_node(synth), "--auto-kd"]
        assert run(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_stdout_independent_of_hash_seed(self, tmp_path):
        """Attribute ids follow the attribute file, not the str hash salt, so
        suggested attrs print in the same order in every process."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        atc = [sys.executable, "-m", "atc.cli"]
        prefix = str(tmp_path / "g")
        subprocess.run(atc + ["gen", "--n", "300", "--communities", "8", "--seed", "7",
                              "--out-prefix", prefix], env=env, check=True,
                       capture_output=True)
        query = atc + ["query", "--graph", prefix + ".edges", "--attr-file", prefix + ".attrs",
                       "--nodes", "11,34", "--attrs", "a0,a1", "--k", "4", "--d", "4",
                       "--algo", "basic", "--suggest-on-bad"]
        outs = {subprocess.run(query, env=dict(env, PYTHONHASHSEED=str(h)), check=True,
                               capture_output=True, text=True).stdout for h in range(1, 5)}
        assert len(outs) == 1
        assert json.loads(outs.pop())["status"] == "bad_query"

    def test_index_file_byte_identical(self, synth, tmp_path):
        p1, p2 = str(tmp_path / "1.atidx"), str(tmp_path / "2.atidx")
        for out in (p1, p2):
            assert run(["index", "--graph", synth + ".edges",
                        "--attrs", synth + ".attrs", "--out", out]) == EXIT_OK
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestDecompose:
    def test_sorted_tsv(self, tmp_path, capsys):
        gp = tmp_path / "g"
        gp.write_text("2 1\n0 1\n0 2\n")
        assert run(["decompose", "--graph", str(gp)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0\t1\t3", "0\t2\t3", "1\t2\t3"]

    def test_out_file(self, tmp_path):
        gp = tmp_path / "g"
        gp.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "t.tsv"
        assert run(["decompose", "--graph", str(gp), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "0\t1\t3\n0\t2\t3\n1\t2\t3\n"


class TestIndexFile:
    @pytest.fixture
    def cycle(self, tmp_path):
        """A 4-cycle with attributes, indexed; returns (dir, index path)."""
        (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n0 3\n")
        (tmp_path / "g.attrs").write_text("0\tx\n1\tx\n2\tx\n3\ty\n")
        idx = str(tmp_path / "g.atidx")
        assert run(["index", "--graph", str(tmp_path / "g.edges"),
                    "--attrs", str(tmp_path / "g.attrs"), "--out", idx]) == EXIT_OK
        return tmp_path, idx

    def query(self, d, idx, edges="g.edges"):
        return run(["query", "--graph", str(d / edges), "--attr-file",
                    str(d / "g.attrs"), "--index", idx, "--nodes", "1,3",
                    "--attrs", "x", "--k", "3", "--d", "2"])

    def test_version(self, capsys):
        assert run(["--version"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "atc" in out and "index format 3" in out

    @pytest.mark.parametrize("version", [1, 2])
    def test_v1_index_rejected(self, cycle, capsys, version):
        d, _ = cycle
        old = d / f"v{version}.atidx"
        old.write_text({1: V1_INDEX, 2: V2_INDEX}[version])
        g = load_attributes(str(d / "g.attrs"), load_edge_list(str(d / "g.edges")))
        with pytest.raises(VersionMismatchError):
            load_index(str(old), g)
        capsys.readouterr()
        assert self.query(d, str(old)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"version {version}" in err

    def test_missing_graph_line_rejected(self, cycle, capsys):
        d, _ = cycle
        bad = d / "bad.atidx"
        bad.write_text("ATIDX\t3\n")
        capsys.readouterr()
        assert self.query(d, str(bad)) == EXIT_INPUT
        assert capsys.readouterr().err == "atc: input error: missing GRAPH\n"

    def test_wrong_graph_index_rejected(self, cycle, capsys):
        d, idx = cycle
        (d / "g2.edges").write_text("0 1\n1 2\n2 3\n0 3\n1 3\n")
        capsys.readouterr()
        assert self.query(d, idx, "g2.edges") == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "different graph" in err

    def test_reordered_graph_file_accepted(self, cycle, capsys):
        d, idx = cycle
        (d / "g3.edges").write_text("3 2\n0 3\n2 1\n1 0\n")
        capsys.readouterr()
        assert self.query(d, idx) == EXIT_OK
        want = capsys.readouterr().out
        assert self.query(d, idx, "g3.edges") == EXIT_OK
        assert capsys.readouterr().out == want


class TestEndToEnd:
    def test_full_pipeline(self, synth, tmp_path, capsys):
        report = str(tmp_path / "rep.tsv")
        assert run(["eval", "--graph", synth + ".edges",
                    "--attrs", synth + ".attrs", "--truth", synth + ".truth",
                    "--queries", synth + ".queries", "--algo", "local",
                    "--report", report]) == EXIT_OK
        lines = open(report).read().splitlines()
        assert lines[0].startswith("query\t")
        assert lines[-1].startswith("aggregate\t")
        assert len(lines) == 2 + 6  # header + queries + aggregate
        out = capsys.readouterr().out
        assert "mean F1" in out

    def test_eval_runs_the_named_search(self, tmp_path):
        """Each --algo's report has the status, precision, recall, F1 and
        size columns of harness.evaluate over the library search it names.
        On this graph the four searches give four different reports, so a
        search mapped to the wrong --algo shows."""
        prefix = str(tmp_path / "s")
        assert run(["gen", "--n", "120", "--communities", "4", "--queries", "6",
                    "--p-background", "0.05", "--coverage", "60", "--seed", "1",
                    "--out-prefix", prefix]) == EXIT_OK
        g = load_attributes(prefix + ".attrs", load_edge_list(prefix + ".edges"))
        gt = read_truth(prefix + ".truth", g)
        queries = read_queries(prefix + ".queries", gt, g)
        idx = build_index(g)
        searches = {"basic": lambda g_, q: basic_search(g_, q)[0],
                    "bulk": lambda g_, q: bulk_search(g_, q)[0],
                    "local": lambda g_, q: locatc_search(g_, idx, q),
                    "baseline": lambda g_, q: structure_baseline(g_, q)[0]}
        reports = {}
        for algo, search in searches.items():
            report = str(tmp_path / f"{algo}.tsv")
            assert run(["eval", "--graph", prefix + ".edges",
                        "--attrs", prefix + ".attrs", "--truth", prefix + ".truth",
                        "--queries", prefix + ".queries", "--algo", algo,
                        "--report", report]) == EXIT_OK
            rows = [line.split("\t") for line in open(report).read().splitlines()[1:-1]]
            reports[algo] = [r[3:7] + r[8:] for r in rows]
            assert reports[algo] == [
                [r.status, format_score(r.precision), format_score(r.recall),
                 format_score(r.f1), str(r.found_size)]
                for r in evaluate(g, gt, queries, search).rows]
        assert len({str(rep) for rep in reports.values()}) == 4
