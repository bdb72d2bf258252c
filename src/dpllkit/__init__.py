"""Evidence-producing DPLL SAT solving with independent proof checking and a
size-bounded translation into resolution refutations."""

from .cnf import (
    Assignment,
    canonical_clause,
    canonical_formula,
    canonical_valuation,
    evaluate,
    is_consistent,
    literals_outside,
    measure,
    vars_of,
    weight,
)
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .dpll_proof import (
    CONFLICT,
    CheckReport,
    Conflict,
    DpllDerivation,
    Elim,
    Red,
    Split,
    Unit,
    check_dpll,
    dpll_size,
)
from .php import PhpSpec, gen_php
from .proof_text import parse_dpll, parse_res, serialize_dpll, serialize_res
from .resolution import (
    Res,
    ResDerivation,
    Sub,
    check_res,
    dpll_to_res,
    res_conclusion,
    res_size,
)
from .solver import (
    InvariantViolation,
    MeasureViolation,
    SolverConfig,
    Verdict,
    choose_split,
    complete_model,
    solve,
    solve_aux,
)

__all__ = [name for name in dir() if not name.startswith("_")]
