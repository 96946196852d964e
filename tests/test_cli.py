"""Command-line behavior: outputs, exit codes, determinism."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

import rewb.expr as E
from rewb.cli import main
from rewb.evaluate import eval_any, eval_flat, eval_oracle, eval_stratified
from rewb.gadgets import (
    GadgetOutput,
    WqsatInstance,
    eval_expr,
    exists_compose,
    forall_compose,
    formula_graph,
    parse_nnf,
    sat_reduction,
    wqsat_reduction,
)
from rewb.randgen import random_expr, random_graph, random_valuation
from rewb.syntax import parse_expr, print_expr, print_graph, print_valuation


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


def test_eval_any_from_to_stops_at_the_first_closing_valuation_that_connects(tmp_path, monkeypatch):
    import rewb.cli as cli

    rng = random.Random(47)
    cases = []
    for case in range(200):
        e = random_expr(rng, 8, max_e_level=2)
        g = random_graph(rng)
        graph_file = tmp_path / f"{case}.graph"
        graph_file.write_text(print_graph(g), encoding="utf-8")
        u, v = rng.choice(sorted(g.nodes)), rng.choice(sorted(g.nodes))
        argv = ["eval", "--expr", print_expr(e), "--graph", str(graph_file), "--any", "--from", u, "--to", v]
        cases.append((argv, "true\n" if (u, v) in eval_any(e, g) else "false\n", bool(e.free)))

    def no_full_evaluation(*args):
        raise AssertionError("eval_any called")

    monkeypatch.setattr(cli, "eval_any", no_full_evaluation)
    assert {(expected, free) for _, expected, free in cases} == {
        (expected, free) for expected in ("true\n", "false\n") for free in (True, False)}
    for argv, expected, _ in cases:
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


def test_eval_oracle_rejects_a_negative_length_bound(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("edge u a 5 v\n", encoding="utf-8")
    code, out, err = run(["eval", "--expr", "a", "--graph", str(graph_file),
                          "--engine", "oracle", "--max-len", "-1"])
    assert code == 1 and out == "" and "max_len must be at least 0" in err


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


_P10 = ",".join(f"p{j}" for j in range(1, 11))


def _inner(formula, atoms="p1,p2"):
    return formula_graph(parse_nnf(formula), atoms.split(","))


@pytest.mark.parametrize("argv, build, verdict", [
    (["formula", "--formula", "p1 | p2", "--atoms", "p1,p2"],
     lambda: GadgetOutput(_inner("p1 | p2"), eval_expr(2)), "true"),
    (["formula", "--formula", "p1 & !p10", "--atoms", _P10],  # x_10 sorts before x_2
     lambda: GadgetOutput(_inner("p1 & !p10", _P10), eval_expr(10)), "true"),
    (["formula", "--formula", "p1", "--atoms", "p1,p2", "--k", "3"],
     lambda: GadgetOutput(_inner("p1"), eval_expr(3)), "true"),
    (["sat", "--formula", "p1 & !p1", "--atoms", "p1"],
     lambda: sat_reduction(parse_nnf("p1 & !p1"), ["p1"]), "false"),
    (["exists", "--formula", "p1 | p2", "--atoms", "p1,p2", "--k", "1"],
     lambda: exists_compose(1, ["p1", "p2"], _inner("p1 | p2"), eval_expr(1)), "true"),
    (["exists", "--formula", "p1 & p2", "--atoms", "p1,p2", "--k", "1"],
     lambda: exists_compose(1, ["p1", "p2"], _inner("p1 & p2"), eval_expr(1)), "false"),
    (["exists", "--formula", "p1 & p2", "--atoms", "p1,p2", "--k", "2"],
     lambda: exists_compose(2, ["p1", "p2"], _inner("p1 & p2"), eval_expr(2)), "true"),
    (["forall", "--formula", "p1 | p2", "--atoms", "p1,p2", "--k", "1"],
     lambda: forall_compose(1, ["p1", "p2"], _inner("p1 | p2"), eval_expr(1)), "true"),
    (["forall", "--formula", "p1", "--atoms", "p1,p2", "--k", "1"],
     lambda: forall_compose(1, ["p1", "p2"], _inner("p1"), eval_expr(1)), "false"),
    (["wqsat", "--blocks", "E1:p1,p2;A1:p3,p4", "--formula", "p1 & (p3|p4)"],
     lambda: wqsat_reduction(WqsatInstance(parse_nnf("p1 & (p3|p4)"), (("p1", "p2"), ("p3", "p4")), (1, 1))),
     "true"),
], ids=["formula", "formula_k10", "formula_k3", "sat", "exists_or", "exists_and", "exists_k2", "forall_or",
        "forall_one", "wqsat"])
def test_gadget_kinds_write_the_library_gadget_and_its_manifest(tmp_path, argv, build, verdict):
    graph_file, expr_file = tmp_path / "g.graph", tmp_path / "e.expr"
    code, out, err = run(["gadget"] + argv + ["--out-graph", str(graph_file), "--out-expr", str(expr_file)])
    want = build()
    assert (code, out, err) == (0, want.manifest() + "\n", "")
    assert graph_file.read_text(encoding="utf-8") == print_graph(want.graph)
    assert expr_file.read_text(encoding="utf-8") == print_expr(want.expr) + "\n"
    # the manifest lists the written expression's free variables, sorted
    free = sorted(parse_expr(expr_file.read_text(encoding="utf-8")).free)
    assert out.split("free-vars ")[1].split() == (free or ["-"])
    source, sink = out.split()[1], out.split()[4]
    check = ["eval", "--expr", f"@{expr_file}", "--graph", str(graph_file), "--from", source, "--to", sink]
    assert run(check + (["--any"] if free else [])) == (0, verdict + "\n", "")


@pytest.mark.parametrize("argv, missing", [
    (["formula", "--formula", "p1"], "formula needs --atoms"),
    (["sat", "--formula", "p1"], "sat needs --atoms"),
    (["exists", "--formula", "p1", "--atoms", "p1"], "exists needs --atoms and --k"),
    (["exists", "--formula", "p1", "--k", "1"], "exists needs --atoms and --k"),
    (["forall", "--formula", "p1", "--atoms", "p1"], "forall needs --atoms and --k"),
    (["forall", "--formula", "p1", "--k", "1"], "forall needs --atoms and --k"),
])
def test_gadget_kinds_reject_missing_atoms_or_k(tmp_path, argv, missing):
    code, out, err = run(["gadget"] + argv + ["--out-graph", str(tmp_path / "g.graph")])
    assert (code, out) == (1, "") and missing in err
    assert not (tmp_path / "g.graph").exists()


def test_gadget_reports_where_a_formula_error_is():
    code, out, err = run(["gadget", "sat", "--formula", "p1 & (p2 | )", "--atoms", "p1,p2"])
    assert (code, out, err) == (1, "", "error: 1:12: unexpected token ')'\n")


# A value that each gadget option accepts (None for the flag, and the file
# options get a path in the test's directory), and the options each kind reads.
_GADGET_VALUES = {"--formula": "p1 | p2", "--atoms": "p1,p2", "--k": "1", "--blocks": "E1:p1;A1:p2",
                  "--pairs": "a/ab,bb/b", "--seq": "1", "--i": "2", "--allow-nonsolution": None,
                  "--out-graph": "g.graph", "--out-expr": "e.expr"}
_GADGET_READS = {
    "formula": ("--formula", "--atoms", "--k", "--out-graph", "--out-expr"),
    "sat": ("--formula", "--atoms", "--out-graph", "--out-expr"),
    "exists": ("--formula", "--atoms", "--k", "--out-graph", "--out-expr"),
    "forall": ("--formula", "--atoms", "--k", "--out-graph", "--out-expr"),
    "wqsat": ("--blocks", "--formula", "--out-graph", "--out-expr"),
    "pcp-delta": ("--pairs", "--i", "--out-expr"),
    "pcp-encode": ("--pairs", "--seq", "--i", "--allow-nonsolution"),
}


def _gadget_argv(kind, options, tmp_path):
    argv = ["gadget", kind]
    for option in options:
        value = _GADGET_VALUES[option]
        if option.startswith("--out-"):
            value = str(tmp_path / value)
        argv += [option] if value is None else [option, value]
    return argv


@pytest.mark.parametrize("kind", sorted(_GADGET_READS))
def test_gadget_kinds_take_every_option_they_read(tmp_path, kind):
    code, out, err = run(_gadget_argv(kind, _GADGET_READS[kind], tmp_path))
    assert code == 0 and out and err == ""
    written = {_GADGET_VALUES[option] for option in _GADGET_READS[kind] if option.startswith("--out-")}
    assert {path.name for path in tmp_path.iterdir()} == written


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind in sorted(_GADGET_READS) for option in _GADGET_VALUES if option not in _GADGET_READS[kind]
])
def test_gadget_kinds_reject_an_option_they_do_not_read(tmp_path, kind, option):
    argv = _gadget_argv(kind, (*_GADGET_READS[kind], option), tmp_path)
    assert run(argv) == (1, "", f"error: {option} cannot be used with gadget {kind}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, option", [
    (["sat", "--formula", "p1", "--atoms", "p1", "--k", "7", "--blocks", "E1:zz", "--pairs", "a/b"], "--k"),
    (["wqsat", "--formula", "p1", "--blocks", "E1:p1", "--atoms", "q1,q2", "--k", "3"], "--atoms"),
])
def test_gadget_rejects_the_first_option_its_kind_does_not_read(argv, option):
    assert run(["gadget"] + argv) == (1, "", f"error: {option} cannot be used with gadget {argv[0]}\n")


def test_eval_any_lists_the_pairs_of_eval_any(tmp_path):
    rng = random.Random(53)
    listings = set()
    for case in range(60):
        e = random_expr(rng, 8, max_e_level=2)
        g = random_graph(rng)
        graph_file = tmp_path / f"{case}.graph"
        graph_file.write_text(print_graph(g), encoding="utf-8")
        listing = "".join(f"{u} {v}\n" for u, v in sorted(eval_any(e, g)))
        assert run(["eval", "--expr", print_expr(e), "--graph", str(graph_file), "--any"]) == (0, listing, "")
        listings.add((bool(listing), bool(e.free)))
    assert listings == {(listed, free) for listed in (True, False) for free in (True, False)}


@pytest.mark.parametrize("engine, evaluate", [("stratified", eval_stratified), ("oracle", eval_oracle)])
def test_eval_from_to_with_other_engines_reads_their_pairs(tmp_path, engine, evaluate):
    rng = random.Random(59)
    answers = set()
    for case in range(30):
        e = random_expr(rng, 8, max_e_level=2)
        g = random_graph(rng)
        val = random_valuation(rng, sorted(e.free), sorted(g.data_values()))
        graph_file = tmp_path / f"{case}.graph"
        graph_file.write_text(print_graph(g), encoding="utf-8")
        pairs = evaluate(e, g, val)
        u, v = rng.choice(sorted(g.nodes)), rng.choice(sorted(g.nodes))
        answer = "true\n" if (u, v) in pairs else "false\n"
        argv = ["eval", "--expr", print_expr(e), "--graph", str(graph_file), "--val", print_valuation(val),
                "--engine", engine, "--from", u, "--to", v]
        assert run(argv) == (0, answer, "")
        answers.add(answer)
    assert answers == {"true\n", "false\n"}


def test_eval_witness_prints_eps_for_the_empty_path(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("edge u a 5 v\n", encoding="utf-8")
    argv = ["eval", "--expr", "a*", "--graph", str(graph_file), "--witness"]
    assert run(argv + ["--from", "u", "--to", "u"]) == (0, "eps\n", "")
    assert run(argv + ["--from", "u", "--to", "v"]) == (0, "u a 5 v\n", "")


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


def test_selftest_rejects_a_negative_case_count():
    code, out, err = run(["selftest", "--cases", "-1"])
    assert code == 1 and out == "" and "cases must be at least 0" in err


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


def test_selftest_reports_a_member_answer_that_disagrees(monkeypatch):
    import rewb.randgen as randgen

    truth = randgen.member

    def faulty(e, w, val=None):
        return truth(e, w, val) != (len(w) == 1)  # wrong on one-letter words

    monkeypatch.setattr(randgen, "member", faulty)
    code, out, err = run(["selftest", "--seed", "3", "--cases", "25"])
    assert code == 1 and out == ""
    assert "engine disagreement" in err
    assert "member says" in err and "the interpreted step" in err
    assert "  member: " in err


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
