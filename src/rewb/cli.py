"""Command-line front end.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 domain or validation error, 2 usage error, 3 resource-budget error.
Expression arguments may be given inline or as ``@path`` to read from a
file (gadget outputs can be long).
"""

from __future__ import annotations

import argparse
import sys

from . import expr as E
from . import randgen
from .automata import automaton_size, dump_automaton
from .errors import BudgetError, RewbError, ValidationError
from .evaluate import (
    connected,
    connected_any,
    eval_any,
    eval_flat,
    eval_oracle,
    eval_stratified,
    member,
    member_any,
    witness_path,
)
from .gadgets import (
    WqsatInstance,
    eval_expr,
    exists_compose,
    forall_compose,
    formula_graph,
    parse_nnf,
    sat_reduction,
    wqsat_reduction,
    GadgetOutput,
)
from .pcp import PcpInstance, pcp_delta, pcp_encode
from .syntax import (
    parse_expr,
    parse_graph,
    parse_valuation,
    parse_word,
    print_expr,
    print_graph,
    print_word,
)
from .witness import mismatch_samples, r_expr, u_word


def _expr_arg(text):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            text = handle.read()
    return parse_expr(text)


def _graph_arg(path):
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _cmd_parse(args):
    e = _expr_arg(args.expr)
    if args.rename:
        e = E.alpha_rename(e)
    dumped = False
    if args.dump_ast:
        print(repr(e))
        dumped = True
    if args.dump_automaton:
        sys.stdout.write(dump_automaton(e if args.rename else E.alpha_rename(e)))
        dumped = True
    if not dumped:
        print(print_expr(e))
    return 0


def _cmd_classify(args):
    e = _expr_arg(args.expr)
    level = E.classify(e)
    size = automaton_size(e)
    print(f"F-level: {level.f_level}  E-level: {level.e_level}  aut-size: {size}")
    return 0


def _reject(clash, first, second):
    if clash:
        raise ValidationError(f"{first} cannot be used with {second}")


def _cmd_member(args):
    _reject(args.any and args.val is not None, "--any", "--val")
    e = _expr_arg(args.expr)
    w = parse_word(args.word)
    if args.any:
        result = member_any(e, w)
    else:
        result = member(e, w, parse_valuation(args.val or ""))
    print("true" if result else "false")
    return 0


def _cmd_eval(args):
    engine = f"--engine {args.engine}"
    _reject(args.any and args.val is not None, "--any", "--val")
    _reject(args.any and args.engine != "flat", "--any", engine)
    _reject(args.witness and args.any, "--witness", "--any")
    _reject(args.witness and args.engine != "flat", "--witness", engine)
    _reject(args.max_len is not None and args.engine != "oracle", "--max-len", engine)
    e = _expr_arg(args.expr)
    g = _graph_arg(args.graph)
    val = parse_valuation(args.val or "")
    if args.witness and (args.source is None or args.target is None):
        raise ValidationError("--witness needs --from and --to")
    if (args.source is None) != (args.target is None):
        raise ValidationError("--from and --to must be given together")
    for name in (args.source, args.target):
        if name is not None and name not in g.nodes:
            raise ValidationError(f"unknown node: {name}")
    if args.witness:
        path = witness_path(e, g, val, args.source, args.target)
        if path is None:
            print("none")
        elif not path:
            print("eps")
        else:
            for src, letter, value, dst in path:
                print(f"{src} {letter} {value} {dst}")
        return 0
    if args.source is not None and args.engine == "flat":
        if args.any:
            held = connected_any(e, g, args.source, args.target)
        else:
            held = connected(e, g, val, args.source, args.target)
        print("true" if held else "false")
        return 0
    if args.any:
        pairs = eval_any(e, g)
    elif args.engine == "stratified":
        pairs = eval_stratified(e, g, val)
    elif args.engine == "oracle":
        pairs = eval_oracle(e, g, val, max_len=args.max_len)
    else:
        pairs = eval_flat(e, g, val)
    if args.source is not None:
        print("true" if (args.source, args.target) in pairs else "false")
        return 0
    for u, v in sorted(pairs):
        print(f"{u} {v}")
    return 0


def _cmd_witness(args):
    reads = {"r": (), "u": ("n",), "mismatch": ("n", "count", "seed")}[args.family]
    for dest in ("n", "count", "seed"):  # None unless given
        _reject(getattr(args, dest) is not None and dest not in reads,
                f"--{dest}", f"witness --family {args.family}")
    if args.family == "r":
        print(print_expr(r_expr(args.i)))
    elif args.family == "u":
        if args.n is None:
            raise ValidationError("--n is required for the u family")
        print(print_word(u_word(args.i, args.n)))
    else:
        if args.n is None:
            raise ValidationError("--n is required for the mismatch family")
        count = 1 if args.count is None else args.count
        for sample in mismatch_samples(args.i, args.n, count, args.seed or 0):
            print(print_word(sample))
    return 0


def _atoms_arg(text):
    atoms = [a.strip() for a in text.split(",") if a.strip()]
    if not atoms:
        raise ValidationError("empty atom list")
    return atoms


def _blocks_arg(text):
    blocks = []
    weights = []
    for index, part in enumerate(s.strip() for s in text.split(";")):
        if not part or ":" not in part:
            raise ValidationError(f"bad block spec {part!r} (expected E<k>:atoms or A<k>:atoms)")
        head, _, atoms = part.partition(":")
        quant, weight = head[:1].upper(), head[1:]
        expected = "E" if index % 2 == 0 else "A"
        if quant != expected:
            raise ValidationError(
                f"block {index + 1} must be {'existential' if expected == 'E' else 'universal'}"
            )
        if not weight.isdigit():
            raise ValidationError(f"bad block weight in {part!r}")
        blocks.append(tuple(_atoms_arg(atoms)))
        weights.append(int(weight))
    return tuple(blocks), tuple(weights)


def _pairs_arg(text):
    pairs = []
    for part in text.split(","):
        u, sep, v = part.strip().partition("/")
        if not sep:
            raise ValidationError(f"bad pair {part!r} (expected u/v)")
        pairs.append((u, v))
    return PcpInstance(tuple(pairs))


def _seq_arg(text):
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"bad index sequence {text!r}") from None


def _write_gadget(args, out: GadgetOutput):
    if args.out_graph:
        with open(args.out_graph, "w", encoding="utf-8") as handle:
            handle.write(print_graph(out.graph))
    if args.out_expr:
        with open(args.out_expr, "w", encoding="utf-8") as handle:
            handle.write(print_expr(out.expr) + "\n")
    print(out.manifest())
    return 0


# Each gadget option's default, and the options that each kind reads. The
# parser leaves every option None unless given, so one given to a kind that
# does not read it is rejected, whatever its value.
_GADGET_DEFAULTS = {"formula": "", "atoms": "", "k": None, "blocks": "", "pairs": "", "seq": "", "i": 1,
                    "allow_nonsolution": False, "out_graph": "", "out_expr": ""}
_GADGET_FILES = ("out_graph", "out_expr")
_GADGET_READS = {
    "formula": ("formula", "atoms", "k", *_GADGET_FILES),
    "sat": ("formula", "atoms", *_GADGET_FILES),
    "exists": ("formula", "atoms", "k", *_GADGET_FILES),
    "forall": ("formula", "atoms", "k", *_GADGET_FILES),
    "wqsat": ("formula", "blocks", *_GADGET_FILES),
    "pcp-delta": ("pairs", "i", "out_expr"),
    "pcp-encode": ("pairs", "seq", "i", "allow_nonsolution"),
}


def _cmd_gadget(args):
    kind = args.kind
    for dest, default in _GADGET_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        else:
            _reject(dest not in _GADGET_READS[kind], "--" + dest.replace("_", "-"), f"gadget {kind}")
    if kind == "pcp-encode":
        inst = _pairs_arg(args.pairs)
        word = pcp_encode(inst, _seq_arg(args.seq), args.i, args.allow_nonsolution)
        print(print_word(word))
        return 0
    if kind == "pcp-delta":
        inst = _pairs_arg(args.pairs)
        if not args.out_expr:
            raise ValidationError("pcp-delta needs --out-expr")
        delta = pcp_delta(inst, args.i)
        with open(args.out_expr, "w", encoding="utf-8") as handle:
            handle.write(print_expr(delta) + "\n")
        print(f"free-vars {' '.join(sorted(E.free_vars(delta))) or '-'}")
        return 0

    if kind == "wqsat":
        blocks, weights = _blocks_arg(args.blocks)
        return _write_gadget(args, wqsat_reduction(WqsatInstance(parse_nnf(args.formula), blocks, weights)))
    composed = kind in ("exists", "forall")
    if args.k is not None and args.k < 1:
        raise ValidationError(f"--k must be at least 1, got {args.k}")
    if not args.atoms or composed and args.k is None:
        raise ValidationError(f"{kind} needs --atoms" + (" and --k" if composed else ""))
    atoms, phi = _atoms_arg(args.atoms), parse_nnf(args.formula)
    if kind == "sat":
        out = sat_reduction(phi, atoms)
    elif kind == "formula":
        out = GadgetOutput(formula_graph(phi, atoms), eval_expr(args.k or len(atoms)))
    else:
        compose = exists_compose if kind == "exists" else forall_compose
        out = compose(args.k, atoms, formula_graph(phi, atoms), eval_expr(args.k))
    return _write_gadget(args, out)


def _cmd_selftest(args):
    report = randgen.selftest(seed=args.seed, cases=args.cases)
    if report.ok:
        print(f"OK: {report.cases} cases")
        return 0
    for failure in report.failures:
        print(f"engine disagreement in case {failure['case']}:", file=sys.stderr)
        for key in ("expr", "valuation", "flat", "stratified", "oracle", "pairs", "member"):
            print(f"  {key}: {failure[key]}", file=sys.stderr)
        print("  graph:", file=sys.stderr)
        for line in failure["graph"].splitlines():
            print(f"    {line}", file=sys.stderr)
    print(f"FAIL: {len(report.failures)} of {report.cases} cases", file=sys.stderr)
    return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rewb",
        description="Regular expressions with binding over data words and data graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print it back")
    p.add_argument("expr")
    p.add_argument("--dump-ast", action="store_true")
    p.add_argument("--dump-automaton", action="store_true")
    p.add_argument("--rename", action="store_true")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("classify", help="hierarchy levels and automaton size")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("member", help="data word membership")
    p.add_argument("--expr", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--val")
    p.add_argument("--any", action="store_true")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("eval", help="evaluate a query on a data graph")
    p.add_argument("--expr", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--val")
    p.add_argument("--any", action="store_true")
    p.add_argument("--engine", choices=("flat", "stratified", "oracle"), default="flat")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--from", dest="source")
    p.add_argument("--to", dest="target")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("witness", help="hierarchy witness objects")
    p.add_argument("--family", choices=("r", "u", "mismatch"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("gadget", help="reduction gadget builders")
    p.add_argument("kind", choices=(
        "formula", "sat", "exists", "forall", "wqsat", "pcp-delta", "pcp-encode"))
    p.add_argument("--formula")
    p.add_argument("--atoms")
    p.add_argument("--k", type=int)
    p.add_argument("--blocks")
    p.add_argument("--pairs")
    p.add_argument("--seq")
    p.add_argument("--i", type=int)
    p.add_argument("--allow-nonsolution", action="store_true", default=None)
    p.add_argument("--out-graph")
    p.add_argument("--out-expr")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("selftest", help="randomized three-engine agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except RewbError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
