"""matrixcode: a workbench for code matrices.

Parse .mxc matrix files, execute them as dual-state machines, check
condition vectors by exhaustive enumeration, machine-check the finite
relation/language semantics, and transpile translatable matrices to C.
"""

from importlib import resources

from .values import UNSET, EvalError, Stream, Tape
from .expr import compile_expr, eval_expr
from .relations import image, CallCounter
from .matrix import CodeMatrix, VarDecl, Diagnostic, validate, product, power, identity
from .interpreter import (Configuration, Trace, Outcome, ExecutionError,
                          step, run, enumerate_runs, render_trace)
from .verifier import (Condition, DomainSpec, check_triple, check_vector,
                       monitor, completeness, enumerate_states, render_report)
from .kleene import (FiniteRelation, BoundedLanguage, FSM, closure, interp,
                     check_identities, fsm_language, finite_dsm_relation)
from .dsl import parse, parse_path, render_source, render_tabular, ParseFailure
from .codegen import check_translatable, emit, support_header, CodegenError

__version__ = "0.1.0"


def corpus_path(name):
    """Filesystem path of a shipped corpus file, e.g. corpus_path('primes')."""
    if not name.endswith(".mxc"):
        name += ".mxc"
    return resources.files(__name__).joinpath("corpus", name)


def load_corpus(name):
    """Parse a shipped corpus file by name."""
    path = corpus_path(name)
    return parse(path.read_text(encoding="utf-8"), filename=str(path))
