"""Hoare-style verification over code matrices.

A condition is an executable boolean expression naming a subset of the
data-state space.  verify() answers two questions over an enumerated
domain: cellwise, V holds iff {V[k]} M[k,j] {V[j]} for every nonempty
cell; columnwise, which states satisfy a column's condition but have no
successor -- witnesses of failed computations that vector checking alone
cannot rule out.  check_vector asks the first, completeness the second,
the verify command both; check_triple is check_vector on the one-cell
matrix P -> Q.

verify decides each question on the variables it reads (the frame rule):
a condition on what it reads, a column's cells on what their condition,
rules and post-conditions read.  Each class of states that agree on those
variables is represented by its first state, the one with every other
variable at its first choice, and its verdict is multiplied back out.

A held vector is preserved along every computation; monitor() checks that
on concrete traces.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from .expr import Binary, eval_expr, free_vars
from .interpreter import FAILURE, run
from .matrix import CodeMatrix
from .relations import _expr_fn, image, relation_vars, render_relation
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
    """`entries` must not change once a variable's choices are listed, on first use."""
    entries: dict
    _listed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def choices(self, d):
        """A scalar's or a stream's choices, or an array's element values, in order."""
        if (d.name, d.type) not in self._listed:
            entry = self.entries.get(d.name)
            if entry is None:
                out = [()] if d.type == "stream" else [UNSET]
            elif entry[0] == "bool":
                out = [False, True]
            elif entry[0] == "stream":
                (min_len, max_len), values = entry[1], entry[2]
                out = [w for n in range(min_len, max_len + 1)
                       for w in itertools.product(values, repeat=n)]
            else:
                out = list(entry[1])
            self._listed[d.name, d.type] = out
        return self._listed[d.name, d.type]

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


_RANK = {"int": 0, "bool": 0, "sym": 0, "array": 1, "stream": 2}


def _enumerated(decls):
    """The variables a domain enumerates, in order: scalars, arrays, streams."""
    return sorted((d for d in decls if d.type in _RANK), key=lambda d: _RANK[d.type])


def enumerate_states(dom, decls, pick=None):
    """All data states induced by a domain spec over the given declarations,
    in enumeration order: scalars in declaration order, then arrays, then
    streams, the last varying fastest.

    Array lengths may read scalars.  Variables without a domain entry stay
    UNSET, and states whose array lengths cannot be evaluated are skipped.
    A misfit entry or a negative array length is a ValueError.

    With pick, one entry per variable in that order, come (key, state)
    pairs instead: key holds the state's choice indices, an array's as the
    tuple of its elements' indices, so keys order states as enumeration
    does.  An entry None takes every choice, 0 the first, another key the
    choice it names.  The caller has checked that the domain fits.
    """
    if pick is None:
        dom.check_fits(decls)
    order = _enumerated(decls)
    picks = dict(zip((d.name for d in order), [None] * len(order) if pick is None else pick))

    def taken(d, keys, values, value):
        """The keys and values of the choices d's pick takes."""
        p = picks[d.name]
        if p is None:
            return keys, values
        if p == 0:
            return tuple(itertools.islice(keys, 1)), tuple(itertools.islice(values, 1))
        return (p,), (value(p),)

    def choices(d):
        seq = dom.choices(d)
        return taken(d, range(len(seq)), seq, seq.__getitem__)

    def array_choices(d, n):  # listed once per length
        if (d.name, n) not in sized:
            values = dom.choices(d)
            keys, vals = taken(d, itertools.product(range(len(values)), repeat=n),
                               itertools.product(values, repeat=n),
                               lambda key: [values[i] for i in key])
            sized[d.name, n] = tuple(keys), tuple(vals)
        return sized[d.name, n]

    def products(sets):  # per combination of (keys, values) sets: its keys, if picked, and values
        keys = itertools.product(*[k for k, _v in sets]) if pick is not None else itertools.repeat(())
        return zip(keys, itertools.product(*[v for _k, v in sets]))

    names = [[d.name for d in order if _RANK[d.type] == r] for r in (0, 1, 2)]
    arrays = [d for d in order if d.type == "array"]
    scalar_sets = [choices(d) for d in order if not _RANK[d.type]]
    streams = list(products([choices(d) for d in order if d.type == "stream"]))
    tapes = dict.fromkeys((d.name for d in decls if d.type == "tape"), UNSET)
    sized = {}  # (array, length) -> the keys and values of the choices taken
    for skey, svals in products(scalar_sets):
        base = tapes.copy()
        base.update(zip(names[0], svals))
        try:
            lengths = [array_length(d, base) for d in arrays]
        except EvalError:
            continue
        for akey, avals in products(list(map(array_choices, arrays, lengths))):
            for tkey, tvals in streams:
                state = base.copy()  # each state its own arrays
                state.update(zip(names[1], map(list, avals)))
                state.update(zip(names[2], tvals))
                yield state if pick is None else (skey + akey + tkey, state)


def check_triple(pre, rel, post, dom, decls):
    """Decide {pre} rel {post} over the domain: check_vector on the one-cell
    matrix P -> Q.  Returns the first counterexample (input, output) if the
    inclusion fails; evaluation errors are reported distinctly."""
    m = CodeMatrix("triple", ("P", "Q"), "P", "Q", {("P", "Q"): (rel,)}, tuple(decls))
    vector = {k: Condition(k, k, c.expr if isinstance(c, Condition) else c)
              for k, c in (("P", pre), ("Q", post))}
    return check_vector(vector, m, dom).checks[0].result


def _inclusions(vector):
    """Per condition that includes another, as the left operand of its
    chain of `and`, that one: the nearest down the spine whose expression
    it holds itself, not a copy.  Each such expression is a proper subtree,
    so the links make no cycle.  A condition that does not compile always
    raises, so it includes none."""
    owner = {}
    for k, cond in vector.items():
        owner.setdefault(id(cond.expr), k)
    included = {}
    for k, cond in vector.items():
        e = cond.expr
        _expr_fn(e)
        while hasattr(cond.expr, "_fn") and isinstance(e, Binary) and e.op == "and":
            e = e.left
            if id(e) in owner:
                included[k] = owner[id(e)]
                break
    return included


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
    """Decide the questions asked: with `triples`, {V} M {V} per nonempty
    cell, with its first violation in enumeration order; with `columns`,
    the non-halt columns whose condition holds in a state where no cell has
    a successor (a cell that raises has none), counted in full states, with
    the first witness_cap of them in enumeration order.

    Every question is decided on the classes of the variables it reads and
    those of the array lengths.  A condition that includes another is
    decided only on extensions of the classes where that one is true or not
    boolean: where it is false so is the including one, and its error is
    the including one's."""
    missing = [k for k in m.states if k not in vector]
    if missing:
        raise ValueError("condition vector is not total on K: missing %s" % missing)
    dom.check_fits(m.decls)
    cell_keys = [key for key, rules in m.cells.items() if rules] if triples else []
    first = dict.fromkeys(cell_keys)  # (key, TripleResult) of the first violation
    found = {k: ColumnWitnesses(k, [], 0) for k in m.states if columns and k != m.halt}
    posts = {to: (_expr_fn(vector[to].expr), vector[to].name) for _frm, to in cell_keys}
    order = _enumerated(m.decls)
    every = {d.name for d in order}
    lengths = set().union(*(free_vars(d.length) for d in order if d.type == "array"))
    reads = {k: lengths | free_vars(cond.expr) for k, cond in vector.items()}
    included = _inclusions(vector)
    decided = {}

    def classes(read, key=(), fixed=()):
        """The (key, state) classes of `read` in enumeration order, within the
        class `key` of `fixed` when given; `read` holds `fixed`."""
        return enumerate_states(dom, m.decls, [
            key[i] if d.name in fixed else None if d.name in read else 0
            for i, d in enumerate(order)])

    def extend(fixed_classes, fixed, read):
        for key, state, *_ in fixed_classes:
            if read <= fixed:
                yield key, state
            else:
                yield from classes(read, key, fixed)

    def decide(k):
        """k's condition on the classes of what it reads: (the (key, state,
        value) of each class where it is not false, its first error as
        (key, state, EvalError) or None)."""
        if k not in decided:
            raised, u = None, included.get(k)
            if u is None:
                candidates = classes(reads[k])
            else:
                passing, raised = decide(u)
                candidates = extend(passing, reads[u], reads[k])
            fn, out = _expr_fn(vector[k].expr), []
            for key, state in candidates:
                try:
                    value = fn(state)
                except EvalError as exc:
                    if raised is None or key < raised[0]:
                        raised = key, state, exc
                    continue
                if value is not False:
                    out.append((key, state, value))
            decided[k] = out, raised
        return decided[k]

    def record(col, witnesses, key, state, read):
        """Count a failing class in full states and merge its first ones in."""
        total = 1
        for d in order:
            if d.name not in read:
                n = len(dom.choices(d))
                total *= n ** len(state[d.name]) if d.type == "array" else n
        col.total += total
        for item in extend([(key, state)], read, every):
            if len(witnesses) >= witness_cap and (not witnesses or item[0] > witnesses[-1][0]):
                break
            bisect.insort(witnesses, item)
            del witnesses[witness_cap:]
        col.witnesses = [s for _k, s in witnesses]

    asked = dict.fromkeys([frm for frm, _to in cell_keys] + list(found))
    for k in asked:
        passing, raised = decide(k)
        cells = m.column(k)
        errors = [raised] if raised else []  # a condition not boolean is one, unnamed yet
        errors += [(key, state, None) for key, state, value in passing if value is not True]
        if errors:
            key, state, exc = min(errors, key=lambda e: e[0])
            exc = exc or EvalError("condition %r is not boolean" % vector[k].name)
            bad = TripleResult(ERROR, state=state, message="precondition %s: %s" % (k, exc.located()))
            first.update({(k, to): (key, bad) for to, _rules, _rel in cells if triples})
        holding = [c for c in passing if c[2] is True]
        for to, _rules, rel in cells if triples else ():
            for key, state in extend(holding, reads[k], reads[k] | relation_vars(rel) | reads[to]):
                if first[k, to] is None or key < first[k, to][0]:
                    try:
                        outputs = image(rel, state)
                    except EvalError as exc:
                        outputs = exc
                    violation = _violation(state, outputs, to, *posts[to])
                    if violation:
                        first[k, to] = key, violation
        if k in found:
            read = reads[k].union(*(relation_vars(rel) for _to, _rules, rel in cells))
            witnesses = []
            for key, state in extend(holding, reads[k], read):
                if not any(_moves(rel, state) for _to, _rules, rel in cells):
                    record(found[k], witnesses, key, state, read)
    if not asked:  # a negative array length is still an error
        for _ in classes(lengths):
            pass
    return VectorReport([CellCheck(frm, to, first[frm, to][1] if first[frm, to] else
                                   TripleResult(HOLDS)) for frm, to in cell_keys],
                        [col for col in found.values() if col.total] if columns else None)


def check_vector(vector, m, dom):
    """Check {V} M {V} cellwise: verify() asked for the triples only."""
    return verify(vector, m, dom, columns=False)


def _moves(rel, state):
    """Whether a relation has a successor at a state; one that raises has none."""
    try:
        return bool(image(rel, state))
    except EvalError:
        return False


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
