"""Command-line behavior: outputs, exit codes, determinism."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

import rewb.expr as E
from rewb.cli import main
from rewb.evaluate import eval_flat
from rewb.randgen import random_expr, random_graph, random_valuation
from rewb.syntax import print_expr, print_graph, print_valuation


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_prints_canonical_form():
    code, out, err = run(["parse", "a@x(b[x=]*)"])
    assert (code, out, err) == (0, "a@x(b[x=]*)\n", "")


def test_parse_reports_errors_on_stderr_with_exit_1():
    code, out, err = run(["parse", "a["])
    assert code == 1 and out == "" and "1:3" in err


def test_sat_gadget_on_2000_atoms_prints_an_expression_that_parses_back(tmp_path):
    atoms = ",".join(f"p{j}" for j in range(1, 2001))  # 2,000 nested binders
    path = tmp_path / "sat.expr"
    code, out, err = run(["gadget", "sat", "--formula", "p1 & !p2000", "--atoms", atoms,
                          "--out-graph", str(tmp_path / "sat.graph"), "--out-expr", str(path)])
    assert (code, err) == (0, "")
    assert run(["parse", f"@{path}"]) == (0, path.read_text(encoding="utf-8"), "")


def test_parse_dump_automaton_is_deterministic():
    first = run(["parse", "(a@x(b[x=]))*", "--dump-automaton"])
    second = run(["parse", "(a@x(b[x=]))*", "--dump-automaton"])
    assert first == second and first[0] == 0
    assert "subexpr" in first[1]


def test_parse_rename_dumps_the_automaton_of_the_tree_renamed_once():
    code, out, err = run(["parse", "a@x(b[x=])", "--rename", "--dump-ast", "--dump-automaton"])
    assert code == 0 and err == ""
    assert "var='x_1'" in out and "bind a@x_1\n" in out and "x_1_1" not in out
    assert out.endswith(run(["parse", "a@x(b[x=])", "--dump-automaton"])[1])


@pytest.mark.parametrize("text, dump", [
    ("a[x=].b*", "states 3\ninitial 0\nfinal 1 2\n0 -> 1 read a[x=]\n1 -> 2 read b\n2 -> 2 read b\n"),
    ("a@x(b[x=].(a+b)*)",
     "states 3\ninitial 0\nfinal 2\n0 -> 1 bind a@x_1\n1 -> 2 subexpr b[x_1=].(a+b)*\n"),
    ("(a@x((b@y(a[y!=]))*.a[x=]))*",
     "states 2\ninitial 0\nfinal 0 1\n0 -> 1 subexpr a@x_1(b@y_2(a[y_2!=])*.a[x_1=])\n"
     "1 -> 1 subexpr a@x_1(b@y_2(a[y_2!=])*.a[x_1=])\n"),
], ids=["f0", "eshape", "fshape"])
def test_parse_dump_automaton_golden(text, dump):
    # one view of each kind: F-level 0, E-shaped and F-shaped
    assert run(["parse", text, "--dump-automaton"]) == (0, dump, "")


def test_classify_output_format():
    code, out, _ = run(["classify", "(a1@x1(b1[x1=]))*"])
    assert code == 0
    assert out.startswith("F-level: 1  E-level: 2  aut-size: ")
    assert run(["classify", "a"])[1].startswith("F-level: 0  E-level: 1")
    query = "a@x_po(a@x_ne((b.(pn[x_po=].pa[x_1=|x_2=]+pn[x_ne=].pa[x_1!=&x_2!=]).e)*))"
    assert run(["classify", query])[1].startswith("F-level: 1  E-level: 1")
    # sizes depend on node kinds and levels only, which renaming keeps
    renamed = run(["parse", "a@x(a@x(b[x=]))", "--rename"])[1].strip()
    assert run(["classify", "a@x(a@x(b[x=]))"]) == run(["classify", renamed])


def test_member_true_false_and_compatibility():
    assert run(["member", "--expr", "a@x(b[x=]*)", "--word", "a:5 b:5 b:5"])[1] == "true\n"
    assert run(["member", "--expr", "a@x(b[x=]*)", "--word", "a:5 b:7"])[1] == "false\n"
    code, out, err = run(["member", "--expr", "a[x=]", "--word", "a:5"])
    assert code == 1 and out == "" and "free variables" in err
    assert run(["member", "--expr", "a[x=]", "--word", "a:5", "--any"])[1] == "true\n"


def test_eval_pairs_sorted_and_engines_agree(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("edge u a 5 v\nedge v b 5 w\nedge v b 7 w2\n", encoding="utf-8")
    expected = "u w\n"
    for engine in ("flat", "stratified", "oracle"):
        code, out, err = run([
            "eval", "--expr", "a@x(b[x=])", "--graph", str(graph_file), "--engine", engine,
        ])
        assert (code, out, err) == (0, expected, "")


def test_eval_from_to_and_witness(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("edge u a 5 v\n", encoding="utf-8")
    assert run(["eval", "--expr", "a", "--graph", str(graph_file),
                "--from", "u", "--to", "v"])[1] == "true\n"
    code, out, _ = run(["eval", "--expr", "a", "--graph", str(graph_file),
                        "--from", "u", "--to", "v", "--witness"])
    assert code == 0 and out == "u a 5 v\n"
    code, out, _ = run(["eval", "--expr", "a", "--graph", str(graph_file),
                        "--from", "v", "--to", "u", "--witness"])
    assert out == "none\n"
    code, _, err = run(["eval", "--expr", "a", "--graph", str(graph_file),
                        "--from", "zz", "--to", "u"])
    assert code == 1 and "unknown node" in err
    for flag in (["--from", "u"], ["--to", "v"]):
        code, _, err = run(["eval", "--expr", "a[x=]", "--graph", str(graph_file)] + flag)
        assert code == 1 and "--from and --to must be given together" in err


def test_eval_from_to_with_the_flat_engine_runs_one_targeted_search(tmp_path, monkeypatch):
    import rewb.cli as cli

    rng = random.Random(43)
    cases = []
    for case in range(40):
        e = random_expr(rng, 8, max_e_level=2)
        g = random_graph(rng)
        val = random_valuation(rng, sorted(E.free_vars(e)), sorted(g.data_values()))
        graph_file = tmp_path / f"{case}.graph"
        graph_file.write_text(print_graph(g), encoding="utf-8")
        argv = ["eval", "--expr", print_expr(e), "--graph", str(graph_file), "--val", print_valuation(val)]
        pairs = eval_flat(e, g, val)
        for u in sorted(g.nodes):
            v = rng.choice(sorted(g.nodes))
            cases.append((argv + ["--from", u, "--to", v], "true\n" if (u, v) in pairs else "false\n"))

    def no_full_evaluation(*args):
        raise AssertionError("eval_flat called")

    monkeypatch.setattr(cli, "eval_flat", no_full_evaluation)
    assert {expected for _, expected in cases} == {"true\n", "false\n"}
    for argv, expected in cases:
        assert run(argv) == (0, expected, "")


@pytest.mark.parametrize("flags, first, second", [
    (["--any", "--val", "x=9"], "--any", "--val"),
    (["--any", "--engine", "stratified"], "--any", "--engine stratified"),
    (["--any", "--engine", "oracle"], "--any", "--engine oracle"),
    (["--witness", "--any", "--from", "u", "--to", "v"], "--witness", "--any"),
    (["--witness", "--engine", "stratified", "--from", "u", "--to", "v"],
     "--witness", "--engine stratified"),
    (["--witness", "--engine", "oracle", "--from", "u", "--to", "v"],
     "--witness", "--engine oracle"),
    (["--max-len", "0"], "--max-len", "--engine flat"),
    (["--max-len", "0", "--engine", "stratified"], "--max-len", "--engine stratified"),
])
def test_eval_rejects_options_it_would_ignore(tmp_path, flags, first, second):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("edge u a 5 v\n", encoding="utf-8")
    code, out, err = run(["eval", "--expr", "a[x=]", "--graph", str(graph_file)] + flags)
    assert code == 1 and out == "" and first in err and second in err


def test_member_rejects_any_with_val():
    code, out, err = run(["member", "--expr", "a[x=]", "--word", "a:5", "--any", "--val", "x=9"])
    assert code == 1 and out == "" and "--any" in err and "--val" in err


def test_eval_oracle_budget_exit_code(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(
        "edge n0 a 1 n1\nedge n1 b 1 n2\nedge n2 a 2 n3\nedge n3 b 2 n0\n",
        encoding="utf-8",
    )
    import rewb.evaluate as evaluate

    original = evaluate.DEFAULT_ORACLE_BUDGET
    evaluate.DEFAULT_ORACLE_BUDGET = 1
    try:
        code, _, err = run([
            "eval", "--expr", "(a@x(b[x=]))*", "--graph", str(graph_file),
            "--engine", "oracle",
        ])
    finally:
        evaluate.DEFAULT_ORACLE_BUDGET = original
    assert code == 3 and "budget" in err


def test_witness_subcommands():
    assert run(["witness", "--family", "r", "--i", "1"])[1] == "a1@x1(b1[x1=])*\n"
    code, out, _ = run(["witness", "--family", "u", "--i", "1", "--n", "2"])
    assert out.count("a1:") == 4
    code, out, _ = run(["witness", "--family", "mismatch", "--i", "1", "--n", "2",
                        "--count", "3", "--seed", "5"])
    assert len(out.splitlines()) == 3
    again = run(["witness", "--family", "mismatch", "--i", "1", "--n", "2",
                 "--count", "3", "--seed", "5"])[1]
    assert again == out


def test_gadget_sat_writes_files_and_manifest(tmp_path):
    graph_file = tmp_path / "sat.graph"
    expr_file = tmp_path / "sat.expr"
    code, out, err = run([
        "gadget", "sat", "--formula", "pr1 & !pr2", "--atoms", "pr1,pr2",
        "--out-graph", str(graph_file), "--out-expr", str(expr_file),
    ])
    assert code == 0 and err == ""
    assert out.startswith("source ") and "/ sink " in out and "free-vars -" in out
    source = out.split()[1]
    sink = out.split()[4]
    code, verdict, _ = run([
        "eval", "--expr", "@" + str(expr_file), "--graph", str(graph_file),
        "--from", source, "--to", sink,
    ])
    assert verdict == "true\n"


def test_gadget_wqsat_round_trip(tmp_path):
    graph_file = tmp_path / "w.graph"
    expr_file = tmp_path / "w.expr"
    code, out, _ = run([
        "gadget", "wqsat", "--blocks", "E1:pr1,pr2;A1:pr3,pr4",
        "--formula", "pr1 & (pr3|pr4)",
        "--out-graph", str(graph_file), "--out-expr", str(expr_file),
    ])
    assert code == 0
    source, sink = out.split()[1], out.split()[4]
    verdict = run(["eval", "--expr", "@" + str(expr_file), "--graph", str(graph_file),
                   "--from", source, "--to", sink])[1]
    assert verdict == "true\n"


def test_gadget_wqsat_rejects_bad_alternation():
    code, _, err = run([
        "gadget", "wqsat", "--blocks", "A1:pr1;E1:pr2", "--formula", "pr1",
    ])
    assert code == 1 and "existential" in err


def test_gadget_pcp_commands(tmp_path):
    code, out, _ = run(["gadget", "pcp-encode", "--pairs", "ab/a,c/bc",
                        "--seq", "1,2", "--i", "1"])
    assert code == 0
    assert out.split()[0] == "dollar1:h1"
    expr_file = tmp_path / "delta.expr"
    code, out, _ = run(["gadget", "pcp-delta", "--pairs", "ab/a,c/bc", "--i", "1",
                        "--out-expr", str(expr_file)])
    assert code == 0 and out == "free-vars -\n"
    word = run(["gadget", "pcp-encode", "--pairs", "ab/a,c/bc", "--seq", "1,2",
                "--i", "1"])[1].strip()
    verdict = run(["member", "--expr", "@" + str(expr_file), "--word", word, "--any"])[1]
    assert verdict == "false\n"
    # the missing output file is reported before the delta is built, which
    # here would exceed the subset construction's state budget
    code, out, err = run(["gadget", "pcp-delta", "--pairs", "a" * 70 + "/b", "--i", "1"])
    assert code == 1 and out == "" and "pcp-delta needs --out-expr" in err


def test_selftest_reports_ok():
    code, out, err = run(["selftest", "--seed", "3", "--cases", "25"])
    assert (code, out, err) == (0, "OK: 25 cases\n", "")


def test_selftest_seed_reproducibility():
    assert run(["selftest", "--seed", "4", "--cases", "10"]) == run(
        ["selftest", "--seed", "4", "--cases", "10"]
    )


def test_selftest_reports_injected_faults_with_reproduction_data(monkeypatch):
    import rewb.randgen as randgen

    truth = randgen.eval_stratified

    def faulty(e, g, val=None):
        result = set(truth(e, g, val))
        if result:
            result.pop()
        return result

    monkeypatch.setattr(randgen, "eval_stratified", faulty)
    code, out, err = run(["selftest", "--seed", "3", "--cases", "25"])
    assert code == 1 and out == ""
    assert "engine disagreement" in err and "expr:" in err and "graph:" in err


def test_selftest_reports_a_witness_that_misses_its_target(monkeypatch):
    import rewb.randgen as randgen

    truth = randgen.witness_path

    def faulty(e, g, val, u, v):
        path = truth(e, g, val, u, v)
        return path[:-1] if path else path

    monkeypatch.setattr(randgen, "witness_path", faulty)
    code, out, err = run(["selftest", "--seed", "3", "--cases", "25"])
    assert code == 1 and out == ""
    assert "engine disagreement" in err and "is not a witness" in err and "graph:" in err


def test_selftest_reports_a_connected_answer_that_disagrees(monkeypatch):
    import rewb.randgen as randgen

    truth = randgen.connected

    def faulty(e, g, val, u, v):
        return truth(e, g, val, u, v) != (u == v)  # wrong on the diagonal

    monkeypatch.setattr(randgen, "connected", faulty)
    code, out, err = run(["selftest", "--seed", "3", "--cases", "25"])
    assert code == 1 and out == ""
    assert "engine disagreement" in err and "connected disagrees with the flat result" in err
    assert "graph:" in err


def test_parse_dump_ast_of_ten_thousand_nested_binders():
    code, out, err = run(["parse", "a@x(" * 10_000 + "b[x=]" + ")" * 10_000, "--dump-ast"])
    assert (code, err) == (0, "")
    binder = "Bind(letter='a', var='x', body="
    assert out == binder * 10_000 + "Test(letter='b', cond=Eq(var='x'))" + ")" * 10_000 + "\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        with redirect_stderr(io.StringIO()):
            main(["member"])  # missing required flags
    assert info.value.code == 2
