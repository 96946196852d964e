"""Regular expressions with binding over data words and data graphs."""

from .data import DataGraph, graph, word
from .errors import (
    BudgetError,
    CompatibilityError,
    RewbError,
    SourceError,
    UndefinedVariableError,
    ValidationError,
)
from .expr import (
    EPS,
    And,
    Atom,
    Bind,
    Concat,
    Eps,
    Eq,
    Level,
    Neq,
    Not,
    Or,
    Rewb,
    Star,
    Test,
    Union,
    alpha_rename,
    classify,
    free_vars,
    indistinguishable_sampled,
    to_unf,
)
from .syntax import (
    parse_expr,
    parse_graph,
    parse_valuation,
    parse_word,
    print_expr,
    print_graph,
    print_valuation,
    print_word,
)
from .automata import automaton_size, hier_automaton, register_nfa
from .evaluate import (
    connected,
    connected_any,
    eval_any,
    eval_flat,
    eval_oracle,
    eval_stratified,
    member,
    member_any,
    oracle_bound,
    witness_path,
)
from .witness import is_mismatch, mismatch_harness, mismatch_samples, r_expr, u_word
from .gadgets import (
    FAnd,
    FOr,
    GadgetOutput,
    Neg,
    Pos,
    WqsatInstance,
    brute_formula,
    brute_wqsat,
    eval_expr,
    exists_compose,
    forall_compose,
    formula_graph,
    parse_nnf,
    sat_reduction,
    wqsat_reduction,
)
from .pcp import (
    PcpInstance,
    pcp_check_solution,
    pcp_delta,
    pcp_encode,
    pcp_mutate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
