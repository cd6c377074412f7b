"""Hoare-style verification over code matrices.

A condition is an executable boolean expression naming a subset of the
data-state space.  transitions() is the one finite semantics: over an
enumerated domain it yields each state's images under the paper's
restricted cells I_V[k];M[k,j], one per cell out of each column k whose
condition V[k] holds there.  verify() reads it in one sweep that answers
two questions: cellwise, V holds iff {V[k]} M[k,j] {V[j]} for every
nonempty cell; columnwise, which states satisfy a column's condition but
have no successor -- witnesses of failed computations that vector
checking alone cannot rule out.  check_vector asks the first,
completeness the second, the verify command both; check_triple is
check_vector on the one-cell matrix P -> Q, and kleene.tabulate reads
transitions() with no condition at all.

A held vector is preserved along every computation; monitor() checks that
on concrete traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .expr import Binary, eval_expr
from .interpreter import FAILURE, run
from .matrix import CodeMatrix
from .relations import _expr_fn, image, render_relation
from .values import UNSET, EvalError, render_value

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
ERROR = "error"


@dataclass(frozen=True)
class Condition:
    name: str
    label: str
    expr: object

    def holds_on(self, state):
        value = eval_expr(state, self.expr)
        if not isinstance(value, bool):
            raise EvalError("condition %r is not boolean" % self.name)
        return value


@dataclass
class TripleResult:
    status: str  # holds | counterexample | error
    state: dict = None
    post_state: dict = None
    message: str = None

    @property
    def holds(self):
        return self.status == HOLDS

    def describe(self):
        if self.status == HOLDS:
            return "holds"
        if self.status == COUNTEREXAMPLE:
            return "counterexample: %s -> %s" % (
                _short_state(self.state), _short_state(self.post_state))
        return "error: %s (at %s)" % (self.message, _short_state(self.state))


def _short_state(state):
    if state is None:
        return "?"
    items = ", ".join("%s=%s" % (k, render_value(v)) for k, v in sorted(state.items()))
    return "{%s}" % items


# domain entries: ('int', values) | ('bool',) | ('sym', values)
#               | ('array', entry_values) | ('stream', (min_len, max_len), values)
@dataclass
class DomainSpec:
    entries: dict

    def merged(self, overrides):
        out = dict(self.entries)
        out.update(overrides.entries)
        return DomainSpec(out)

    def check_fits(self, decls):
        """Raise ValueError for the first entry that does not fit its variable."""
        for name, entry in self.entries.items():
            misfit = domain_misfit(name, entry, decls)
            if misfit:
                raise ValueError(misfit)


_KIND = {"int": "a scalar", "bool": "a scalar", "sym": "a scalar",
         "array": "an array", "stream": "a stream"}
_SCALAR = {"int": "an int", "bool": "a bool", "sym": "a sym"}


def domain_misfit(name, entry, decls):
    """Why a domain entry cannot enumerate the variable it names, or None:
    the variable must be declared, int, bool and sym entries fit variables
    of their own type, array entries arrays, stream entries streams, and
    nothing fits a tape."""
    decl = next((d for d in decls if d.name == name), None)
    if decl is None:
        return "%r is not a declared variable" % name
    kind, want = _KIND[entry[0]], _KIND.get(decl.type, "a tape")
    if kind == want == "a scalar":
        kind, want = _SCALAR[entry[0]], _SCALAR[decl.type]
    if kind != want:
        return "%r is %s and cannot take %s domain entry" % (name, want, kind)


def array_length(decl, state):
    """Length of an array variable in a state: an EvalError when its length
    expression cannot be evaluated there, a ValueError when it is negative."""
    length = eval_expr(state, decl.length)
    if length < 0:
        raise ValueError("array %r has negative length %d" % (decl.name, length))
    return length


def enumerate_states(dom, decls):
    """All data states induced by a domain spec over the given declarations.

    Scalars are enumerated first so array lengths (which may reference
    scalar parameters) can be evaluated.  Variables without a domain entry
    stay UNSET, and states whose array lengths cannot be evaluated are
    skipped.  A misfit entry or a negative array length is a ValueError.
    """
    dom.check_fits(decls)
    scalars = [d for d in decls if d.type in ("int", "bool", "sym")]
    arrays = [d for d in decls if d.type == "array"]
    streams = [d for d in decls if d.type == "stream"]
    tapes = [d for d in decls if d.type == "tape"]

    def scalar_choices(d):
        entry = dom.entries.get(d.name)
        if entry is None:
            return [UNSET]
        if entry[0] == "bool":
            return [False, True]
        return list(entry[1])

    def stream_choices(d):
        entry = dom.entries.get(d.name)
        if entry is None:
            return [()]
        (min_len, max_len), values = entry[1], entry[2]
        out = []
        for n in range(min_len, max_len + 1):
            out.extend(itertools.product(values, repeat=n))
        return out

    def array_choices(d, base):
        entry = dom.entries.get(d.name)
        values = (UNSET,) if entry is None else entry[1]
        return list(itertools.product(values, repeat=array_length(d, base)))

    scalar_sets = [scalar_choices(d) for d in scalars]
    stream_sets = [stream_choices(d) for d in streams]
    scalar_names = [d.name for d in scalars]
    array_names = [d.name for d in arrays]
    stream_names = [d.name for d in streams]

    for scalar_vals in itertools.product(*scalar_sets):
        base = dict.fromkeys((t.name for t in tapes), UNSET)
        base.update(zip(scalar_names, scalar_vals))
        try:
            array_sets = [array_choices(d, base) for d in arrays]
        except EvalError:
            continue
        for arr_vals in itertools.product(*array_sets):
            for stream_vals in itertools.product(*stream_sets):
                state = base.copy()  # each state its own arrays
                state.update(zip(array_names, map(list, arr_vals)))
                state.update(zip(stream_names, stream_vals))
                yield state


def check_triple(pre, rel, post, dom, decls):
    """Decide {pre} rel {post} over the domain: check_vector on the one-cell
    matrix P -> Q.  Returns the first counterexample (input, output) if the
    inclusion fails; evaluation errors are reported distinctly."""
    m = CodeMatrix("triple", ("P", "Q"), "P", "Q", {("P", "Q"): (rel,)}, tuple(decls))
    vector = {k: Condition(k, k, c.expr if isinstance(c, Condition) else c)
              for k, c in (("P", pre), ("Q", post))}
    return check_vector(vector, m, dom).checks[0].result


def transitions(m, states, columns):
    """The restricted matrix: for each state, (state, rows) with a row
    (k, cells) per column k -> Condition (None: always holds) whose
    condition holds there.  cells lists (to, image) per nonempty cell out
    of k in m.cells order; an image is a list of states or the EvalError it
    raised, and a condition that raises gives the row (k, EvalError).

    A condition that includes another, as the left operand of its chain of
    `and`, is decided from it as evaluation would decide it: false where
    the included one is false, with its error where it raises, in full
    elsewhere.  So a state's rows come in evaluation order, each included
    condition's column before the columns that include it; no reader
    depends on that order."""
    plan = _plan(m, columns)
    held = [True] * (len(plan) + 1)  # per state, each condition's value; the last stays True
    for state in states:
        rows = []
        for k, test, cells in plan:
            if test is not None:
                fn, name, up, slot = test
                value = held[up]
                if value is True:
                    try:
                        value = fn(state)
                    except EvalError as exc:
                        value = exc
                held[slot] = value
                if value is not True:
                    if value is not False:
                        if not isinstance(value, EvalError):
                            held[slot] = True  # an including condition decides for itself
                            value = EvalError("condition %r is not boolean" % name)
                        rows.append((k, value))
                    continue
            images = []
            for to, _rules, rel in cells:
                try:
                    images.append((to, image(rel, state)))
                except EvalError as exc:
                    images.append((to, exc))
            rows.append((k, images))
        yield state, rows


def _plan(m, columns):
    """transitions' plan, one (k, test, cells) per column: test is None for
    a column with no condition, else (its compiled function, its name, the
    slot of the condition it includes or of the constant True, its slot).
    The condition a condition includes is the nearest one down its left
    spine of `and` whose expression it holds itself, not a copy; each such
    expression is a proper subtree, so the links make no cycle."""
    fns = {k: _expr_fn(cond.expr) for k, cond in columns.items() if cond is not None}
    owner = {}
    for k in fns:
        owner.setdefault(id(columns[k].expr), k)
    included = {}
    for k in fns:
        e = columns[k].expr
        if not hasattr(e, "_fn"):  # a condition that does not compile always raises
            continue
        while isinstance(e, Binary) and e.op == "and":
            e = e.left
            if id(e) in owner:
                included[k] = owner[id(e)]
                break
    slots = {}  # column -> its slot, each after the column it includes
    for k in columns:
        chain = []
        while k is not None and k not in slots:
            chain.append(k)
            k = included.get(k)
        for k in reversed(chain):
            slots[k] = len(slots)
    return [(k, None if k not in fns else
             (fns[k], columns[k].name, slots[included[k]] if k in included else len(slots), i),
             m.column(k)) for k, i in slots.items()]


@dataclass
class CellCheck:
    frm: str
    to: str
    result: TripleResult


@dataclass
class ColumnWitnesses:
    control: str
    witnesses: list
    total: int

    def record(self, state, cap):
        self.total += 1
        if len(self.witnesses) < cap:
            self.witnesses.append(state)


@dataclass
class VectorReport:
    checks: list  # a CellCheck per nonempty cell, when the triples were asked for
    incomplete: list = None  # ColumnWitnesses, when the columns were asked for

    @property
    def holds(self):
        return all(c.result.holds for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.result.holds]


def verify(vector, m, dom, triples=True, columns=True, witness_cap=3):
    """One sweep of transitions() that evaluates only the conditions its
    questions need: with `triples`, {V} M {V} per nonempty cell, with its
    first violation in enumeration order; with `columns`, the non-halt
    columns whose condition holds in a state where no cell has a successor
    (a cell that raises has none), with up to witness_cap such states."""
    missing = [k for k in m.states if k not in vector]
    if missing:
        raise ValueError("condition vector is not total on K: missing %s" % missing)
    cell_keys = [key for key, rules in m.cells.items() if rules] if triples else []
    violations = dict.fromkeys(cell_keys)  # None while the cell holds
    found = {k: ColumnWitnesses(k, [], 0) for k in m.states if columns and k != m.halt}
    wanted = {k: vector[k] for k in [frm for frm, _to in cell_keys] + list(found)}
    posts = {to: (_expr_fn(vector[to].expr), vector[to].name) for _frm, to in cell_keys}
    for state, rows in transitions(m, enumerate_states(dom, m.decls), wanted):
        for k, cells in rows:
            if isinstance(cells, EvalError):
                bad = TripleResult(ERROR, state=state,
                                   message="precondition %s: %s" % (k, cells.located()))
                violations.update({key: bad for key in cell_keys
                                   if key[0] == k and violations[key] is None})
                continue
            if triples:
                for to, outputs in cells:
                    if violations[k, to] is None:
                        violations[k, to] = _violation(state, outputs, to, *posts[to])
            if k in found:
                for _to, outputs in cells:
                    if outputs and not isinstance(outputs, EvalError):
                        break
                else:
                    found[k].record(state, witness_cap)
    return VectorReport([CellCheck(frm, to, violations[frm, to] or TripleResult(HOLDS))
                         for frm, to in cell_keys],
                        [col for col in found.values() if col.total] if columns else None)


def check_vector(vector, m, dom):
    """Check {V} M {V} cellwise: verify() asked for the triples only."""
    return verify(vector, m, dom, columns=False)


def _violation(state, outputs, to, post, name):
    """The first violation among one cell's outputs at a state of the
    post-condition, given by its compiled function and name, or None."""
    if isinstance(outputs, EvalError):
        return TripleResult(ERROR, state=state,
                            message="cell evaluation: %s" % outputs.located())
    for out in outputs:
        try:
            value = post(out)
        except EvalError as exc:
            return TripleResult(ERROR, state=state, post_state=out,
                                message="postcondition %s: %s" % (to, exc.located()))
        if value is not True:
            if value is False:
                return TripleResult(COUNTEREXAMPLE, state=state, post_state=out)
            return TripleResult(ERROR, state=state, post_state=out,
                                message="postcondition %s: condition %r is not boolean"
                                % (to, name))
    return None


@dataclass
class Violation:
    index: int
    control: str
    data: dict
    message: str = None


def monitor(m, vector, trace):
    """Check every configuration of a trace against its control state's
    condition.  A condition that cannot even be evaluated counts as a
    violation (with the error recorded)."""
    out = []
    for i, cfg in enumerate(trace.configs):
        cond = vector.get(cfg.control)
        if cond is None:
            out.append(Violation(i, cfg.control, cfg.data,
                                 "no condition for control state"))
            continue
        try:
            ok = cond.holds_on(cfg.data)
        except EvalError as exc:
            out.append(Violation(i, cfg.control, cfg.data, exc.located()))
            continue
        if not ok:
            out.append(Violation(i, cfg.control, cfg.data))
    return out


def completeness(m, vector, dom=None, sample_inputs=None, witness_cap=3):
    """Witness states with no applicable transition, per column.

    Domain mode is verify() asked for the columns only; sample mode runs
    the machine on the given inputs and reports stuck configurations.  An
    empty report means no failed computation was found.
    """
    found = {k: ColumnWitnesses(k, [], 0) for k in m.states if k != m.halt}
    if dom is not None:
        found.update((col.control, col) for col in
                     verify(vector, m, dom, triples=False, witness_cap=witness_cap).incomplete)
    for d0 in sample_inputs or ():
        outcome = run(m, d0)
        if outcome.status == FAILURE:
            stuck = outcome.trace.final
            found[stuck.control].record(stuck.data, witness_cap)
    return [col for col in found.values() if col.total]


def render_report(m, vector, vector_report):
    """Cell-by-cell verification report: each cell as {p} R {q} with verdict,
    then the incomplete columns when the report has them."""
    lines = ["condition vector for %s:" % m.name]
    lines.extend("  %s: %s" % (k, vector[k].label) for k in m.states if k in vector)
    lines += ["", "Hoare triples, one per nonempty cell:"]
    for check in vector_report.checks:
        rel = m.cell_relation(check.frm, check.to)
        lines.append("  {%s} %s {%s}" % (check.frm, render_relation(rel), check.to))
        lines.append("      %s" % check.result.describe())
    lines += ["", "vector %s" % ("HOLDS" if vector_report.holds else "FAILS")]
    incomplete = vector_report.incomplete
    if incomplete is not None:
        lines += ["", "completeness: %sincomplete columns found" % ("" if incomplete else "no ")]
        for col in incomplete:
            lines.append("  column %s: %d state(s) with no applicable transition, e.g."
                         % (col.control, col.total))
            lines.extend("    %s" % _short_state(w) for w in col.witnesses)
    return "\n".join(lines) + "\n"
