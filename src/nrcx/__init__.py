"""Set-based query calculi: values, partial evaluators, translations,
and terminating decision procedures for well-definedness, semantic
type-checking, and satisfiability.

The package covers three languages — set-based RX (an XQuery fragment
over unordered forests), its pure variant that distinguishes items from
singleton sets, and a positive-existential nested relational calculus
with kind tests — together with the constructive translations between
them, a relational-algebra compiler into the RX emptiness-test
fragment, and a reduction from dependency implication to expression
equivalence.
"""

from .values import (Atom, DataNode, ElemNode, Pair, VSet, vset, EMPTY_SET,
                     subvalue, value_to_json, value_from_json, env_to_json,
                     env_from_json)
from .typeterms import (VoidT, AtomT, DataT, ElemT, CollT, SingleT, ProdT,
                        SumT, DataEncT, KAtom, KData, KElem, KColl, KProd,
                        KSum, KIND_ANY, member, kind_member, rank,
                        type_complexity, iter_values)
from .frontend import (parse, print_expr, parse_type, print_type, parse_kind,
                       print_kind, desugar, free_vars, literals)
from .rx import (Defined, Undefined, EvalOutcome, OracleSuite,
                 DEFAULT_ORACLES, ALT_ORACLES, ORACLE_SUITES, eval_rx,
                 eval_pure_rx)
from .penrc import eval_penrc, complexity
from .translate import (enc, dec, NotInImageError, translate_type,
                        translate_kind, translate_expr, compile_ra,
                        encode_relation, decode_relation,
                        build_fd_id_reduction, desugar_emptiness)
from .decide import (Verdict, well_defined_penrc, typecheck_penrc,
                     satisfiable_penrc, well_defined_pure_rx,
                     typecheck_pure_rx, satisfiable_pure_rx,
                     BudgetExceededError, NonPenrcError, PreconditionError)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
