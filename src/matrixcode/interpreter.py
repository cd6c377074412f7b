"""Execution of code matrices as dual-state machines.

A configuration pairs a control state with a data state.  The execution
agent repeatedly scans the cells out of its control state; under the
deterministic policy it takes the first rule (in declaration order) with a
nonempty image, under the 'all' policy it follows every enabled rule.

A computation is complete when its last configuration enables no
transition; it is successful when that configuration sits at the halt
state, failed otherwise.  Runs also stop at a step bound, reported as a
distinct outcome so that a bound hit is never confused with termination.

A deterministic run is one loop over the compiled column scans.  The
walker `_computations` serves the 'all' policy of `run` and `enumerate_runs`:
it follows one path at a time, depth first, extending the path and its
counter in place; a path is copied only where it forks.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass

from .relations import CallCounter, image
from .values import UNSET, EvalError, copy_state, render_value

DEFAULT_STEP_BOUND = 1_000_000


Configuration = namedtuple("Configuration", "control data")


@dataclass
class Trace:
    """A computation: configurations, builtin counters, control revisits.
    Successive data states share each value that the step did not write."""
    configs: list
    counters: dict

    @property
    def controls(self):
        return [c.control for c in self.configs]

    @property
    def revisits(self):
        """revisits[k] counts the occurrences of k in the control sequence."""
        return Counter(self.controls)

    @property
    def final(self):
        return self.configs[-1]


SUCCESS = "success"
FAILURE = "failure"
STEP_LIMIT = "steplimit"


@dataclass
class Outcome:
    status: str  # success | failure | steplimit
    trace: Trace


class ExecutionError(Exception):
    """Evaluation error during a run; carries the partial trace."""

    def __init__(self, cause, trace):
        self.cause = cause
        self.trace = trace
        super().__init__(str(cause))


def step(m, config, policy="det", counter=None):
    """Successor configurations of `config` under the matrix.

    Deterministic policy: scan rules out of the control state in declaration
    order and commit to the first one with a nonempty image; that image must
    be a singleton; m.scan(control) is that scan.  'all' policy: every
    successor of every cell, each once, as cells out of one column differ
    in `to` and an image has no duplicates.
    """
    if policy == "det":
        succ = m.scan(config.control)(config.data, counter)
        return [] if succ is None else [tuple.__new__(Configuration, succ)]  # _make, unchecked
    if counter is not None:
        counter.begin_scan()
    if policy == "all":
        return [Configuration(to, d2) for to, _rules, rel in m.column(config.control)
                for d2 in image(rel, config.data, counter)]
    raise ValueError("unknown policy %r" % policy)


def run(m, d0, policy="det", step_bound=DEFAULT_STEP_BOUND):
    """Run the machine from (start, d0) and classify the outcome.

    Under 'all', the first successful computation breadth-first if any,
    else the first failed one, else a step-limited branch.  `_run_det` and
    `_computations` keep one step-bound rule, so the policies agree on a
    computation that stops or raises at exactly step_bound transitions.
    Counters tally builtin evaluations (one per stream test per scan cycle).
    """
    if step_bound <= 0:
        raise ValueError("step_bound must be positive")
    if policy == "det":
        return _run_det(m, d0, step_bound)
    if policy != "all":
        raise ValueError("unknown policy %r" % policy)
    outcomes = _computations(m, d0, step_bound)
    for status in (SUCCESS, FAILURE):
        for o in outcomes:
            if o.status == status:
                return o
    return outcomes[0]


def enumerate_runs(m, d0, depth_bound):
    """All computations from (start, d0), breadth-first, up to depth_bound
    transitions: complete ones plus step-limited leaves.  When several
    branches raise, the error raised is the first one met depth first."""
    if depth_bound < 0:
        raise ValueError("depth_bound must be nonnegative")
    return _computations(m, d0, depth_bound)


def _run_det(m, d0, bound):
    """The deterministic computation; step bound and errors as in _computations."""
    control, data = m.start, copy_state(d0)
    configs, counter, scans, status = [Configuration(control, data)], CallCounter(), {}, SUCCESS
    try:
        while control != m.halt:
            scan = scans.get(control) or scans.setdefault(control, m.scan(control))
            succ = scan(data, counter)
            if succ is None or len(configs) > bound:
                status = FAILURE if succ is None else STEP_LIMIT
                break
            control, data = succ
            configs.append(tuple.__new__(Configuration, succ))
    except EvalError as exc:
        raise ExecutionError(exc, Trace(configs, dict(counter.counts))) from exc
    return Outcome(status, Trace(configs, dict(counter.counts)))


def _computations(m, d0, bound):
    """Outcomes of the computations from (start, d0) under the 'all' policy,
    in breadth-first order: by length, then rule order.  The configuration
    reached after `bound` transitions is still stepped: the outcome is
    failure when it has no successor and steplimit when it has one.

    The walk is depth first: the path and its counter grow in place, and
    only where the path forks do the other branches get copies of both.
    Depth-first order sorted stably by length is breadth-first order.  The
    first error met depth first is raised as an ExecutionError that
    carries its partial trace.
    """
    configs = [Configuration(m.start, copy_state(d0))]
    counter = CallCounter()
    forks = []  # (path, counter) of the branches still to walk, next last
    outcomes = []
    while True:
        current = configs[-1]
        if current.control == m.halt:
            status = SUCCESS
        else:
            try:
                succs = step(m, current, "all", counter)
            except EvalError as exc:
                raise ExecutionError(exc, Trace(configs, dict(counter.counts))) from exc
            if not succs:
                status = FAILURE
            elif len(configs) > bound:
                status = STEP_LIMIT
            else:
                if len(succs) > 1:
                    forks.extend((configs + [succ], counter.copy())
                                 for succ in reversed(succs[1:]))
                configs.append(succs[0])
                continue
        outcomes.append(Outcome(status, Trace(configs, dict(counter.counts))))
        if not forks:
            outcomes.sort(key=lambda o: len(o.trace.configs))
            return outcomes
        configs, counter = forks.pop()


def render_trace(m, trace):
    """Plain-text trace table: control state column, then one column per
    declared variable; scalar parameters appear in the header instead."""
    scalar_params = [d for d in m.decls
                     if d.kind == "param" and d.type in ("int", "bool", "sym")]
    columns = [d for d in m.decls if d not in scalar_params]

    initial = trace.configs[0].data
    header_items = []
    for d in scalar_params:
        v = initial.get(d.name, UNSET)
        header_items.append("%s = %s" % (d.name, render_value(v)))
    params_text = "   ".join(header_items)

    rows = []
    for cfg in trace.configs:
        rows.append([render_value(cfg.data.get(d.name, UNSET)) for d in columns])

    widths = []
    for i, d in enumerate(columns):
        w = len(d.name)
        for row in rows:
            w = max(w, len(row[i]))
        widths.append(w)

    def data_line(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    left = "%-7s | "
    lines = []
    header3 = left % "" + data_line([d.name for d in columns])
    width = max([len(header3)] + [len(left % "") + len(data_line(r)) for r in rows])
    top = "control | data"
    if params_text:
        pad = max(width - len(top) - len(params_text), 4)
        top = top + " " * pad + params_text
    lines.append(top)
    lines.append(left % "state" + "state")
    lines.append(header3)
    lines.append("-" * max(width, len(top)))
    for cfg, row in zip(trace.configs, rows):
        lines.append("%6s  | " % cfg.control + data_line(row))
    return "\n".join(line.rstrip() for line in lines) + "\n"
