"""Hoare-style verification over code matrices.

A condition is an executable boolean expression naming a subset of the
data-state space.  check_triple decides {p} R {q} by enumerating a finite
domain: every state satisfying p is pushed through R and each output is
checked against q — exactly the right projection of I_p;R tested for
inclusion in q.  check_vector lifts that cellwise to a condition vector V:
the vector holds iff {V[j]} cell {V[i]} for every nonempty cell (j, i).

A held vector is preserved along every computation; monitor() checks that
on concrete traces.  completeness() hunts for states that satisfy a
column's condition but enable no outgoing transition — witnesses of failed
computations that vector checking alone cannot rule out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .expr import eval_expr
from .interpreter import FAILURE, run
from .relations import image, render_relation
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


def enumerate_states(dom, decls):
    """All data states induced by a domain spec over the given declarations.

    Scalars are enumerated first so array lengths (which may reference
    scalar parameters) can be evaluated.  Variables without a domain entry
    stay UNSET.  An entry that does not fit its variable is a ValueError.
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

    scalar_sets = [scalar_choices(d) for d in scalars]
    stream_sets = [stream_choices(d) for d in streams]

    for scalar_vals in itertools.product(*scalar_sets):
        base = {t.name: UNSET for t in tapes}
        base.update(dict(zip((d.name for d in scalars), scalar_vals)))
        array_sets = []
        ok = True
        for d in arrays:
            entry = dom.entries.get(d.name)
            try:
                length = eval_expr(base, d.length)
            except EvalError:
                ok = False
                break
            if entry is None:
                array_sets.append([[UNSET] * length])
            else:
                array_sets.append(
                    [list(c) for c in itertools.product(entry[1], repeat=length)])
        if not ok:
            continue
        for arr_vals in itertools.product(*array_sets):
            for stream_vals in itertools.product(*stream_sets):
                state = dict(base)
                state.update({d.name: list(v) for d, v in zip(arrays, arr_vals)})
                state.update(dict(zip((d.name for d in streams), stream_vals)))
                yield state


def check_triple(pre, rel, post, dom, decls):
    """Decide {pre} rel {post} over the domain.  Returns the first
    counterexample (input, output) if the inclusion fails; evaluation
    errors are reported distinctly from violations."""
    pre_expr = pre.expr if isinstance(pre, Condition) else pre
    post_expr = post.expr if isinstance(post, Condition) else post
    for state in enumerate_states(dom, decls):
        try:
            applies = eval_expr(state, pre_expr)
        except EvalError as exc:
            return TripleResult(ERROR, state=state,
                                message="precondition: %s" % exc.located())
        if not applies:
            continue
        try:
            outputs = image(rel, state)
        except EvalError as exc:
            return TripleResult(ERROR, state=state,
                                message="cell evaluation: %s" % exc.located())
        for out in outputs:
            try:
                good = eval_expr(out, post_expr)
            except EvalError as exc:
                return TripleResult(ERROR, state=state, post_state=out,
                                    message="postcondition: %s" % exc.located())
            if not good:
                return TripleResult(COUNTEREXAMPLE, state=state, post_state=out)
    return TripleResult(HOLDS)


@dataclass
class CellCheck:
    frm: str
    to: str
    result: TripleResult


@dataclass
class VectorReport:
    checks: list

    @property
    def holds(self):
        return all(c.result.holds for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.result.holds]


def check_vector(vector, m, dom):
    """Check {V} M {V} cellwise: one triple per nonempty cell.

    The domain is enumerated once; condition evaluations are shared across
    the cells of a column.
    """
    missing = [k for k in m.states if k not in vector]
    if missing:
        raise ValueError("condition vector is not total on K: missing %s" % missing)
    cell_keys = [key for key, rules in m.cells.items() if rules]
    results = {key: TripleResult(HOLDS) for key in cell_keys}
    by_from = {}
    for key in cell_keys:
        by_from.setdefault(key[0], []).append(key)

    for state in enumerate_states(dom, m.decls):
        for frm, keys in by_from.items():
            open_keys = [k for k in keys if results[k].holds]
            if not open_keys:
                continue
            try:
                applies = vector[frm].holds_on(state)
            except EvalError as exc:
                for k in open_keys:
                    results[k] = TripleResult(
                        ERROR, state=state,
                        message="precondition %s: %s" % (frm, exc.located()))
                continue
            if not applies:
                continue
            for key in open_keys:
                to = key[1]
                rel = m.cell_relation(*key)
                try:
                    outputs = image(rel, state)
                except EvalError as exc:
                    results[key] = TripleResult(
                        ERROR, state=state,
                        message="cell evaluation: %s" % exc.located())
                    continue
                for out in outputs:
                    try:
                        good = vector[to].holds_on(out)
                    except EvalError as exc:
                        results[key] = TripleResult(
                            ERROR, state=state, post_state=out,
                            message="postcondition %s: %s" % (to, exc.located()))
                        break
                    if not good:
                        results[key] = TripleResult(COUNTEREXAMPLE, state=state,
                                                    post_state=out)
                        break
    checks = [CellCheck(frm, to, results[(frm, to)]) for (frm, to) in cell_keys]
    return VectorReport(checks)


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


@dataclass
class ColumnWitnesses:
    control: str
    witnesses: list
    total: int


def completeness(m, vector, dom=None, sample_inputs=None, witness_cap=3):
    """Witness states with no applicable transition, per column.

    Domain mode enumerates every state satisfying the column's condition;
    sample mode runs the machine on the given inputs and reports stuck
    configurations.  An empty report means no failed computation was found.
    """
    found = {k: ColumnWitnesses(k, [], 0) for k in m.states if k != m.halt}

    def record(control, state):
        col = found[control]
        col.total += 1
        if len(col.witnesses) < witness_cap:
            col.witnesses.append(state)

    if dom is not None:
        for state in enumerate_states(dom, m.decls):
            for k in found:
                try:
                    if not vector[k].holds_on(state):
                        continue
                except EvalError:
                    continue
                if not _has_successor(m, k, state):
                    record(k, state)
    if sample_inputs is not None:
        for d0 in sample_inputs:
            outcome = run(m, d0)
            if outcome.status == FAILURE:
                stuck = outcome.trace.final
                record(stuck.control, stuck.data)
    return [col for col in found.values() if col.total]


def _has_successor(m, control, state):
    for _to, rule in m.outgoing(control):
        try:
            if image(rule, state):
                return True
        except EvalError:
            continue
    return False


def render_report(m, vector, vector_report, completeness_report=None):
    """Cell-by-cell verification report: each cell as {p} R {q} with verdict."""
    lines = ["condition vector for %s:" % m.name]
    for k in m.states:
        cond = vector.get(k)
        if cond is not None:
            lines.append("  %s: %s" % (k, cond.label))
    lines.append("")
    lines.append("Hoare triples, one per nonempty cell:")
    for check in vector_report.checks:
        rel = m.cell_relation(check.frm, check.to)
        lines.append("  {%s} %s {%s}" % (check.frm, render_relation(rel), check.to))
        lines.append("      %s" % check.result.describe())
    lines.append("")
    lines.append("vector %s" % ("HOLDS" if vector_report.holds else "FAILS"))
    if completeness_report is not None:
        lines.append("")
        if not completeness_report:
            lines.append("completeness: no incomplete columns found")
        else:
            lines.append("completeness: incomplete columns found")
            for col in completeness_report:
                lines.append("  column %s: %d state(s) with no applicable transition,"
                             " e.g." % (col.control, col.total))
                for w in col.witnesses:
                    lines.append("    %s" % _short_state(w))
    return "\n".join(lines) + "\n"
