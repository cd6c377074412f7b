"""Code matrices: the transition matrix of a dual-state machine.

A CodeMatrix holds the control-state set K with distinguished start and
halt states, variable declarations defining the data-state space, and a
cell map (from, to) -> ordered rule list.  A cell denotes the union of its
rules; the rule order feeds the deterministic interpreter's scan policy.

This module also provides the symbolic matrix product and powers over
plain cell maps of relation expressions: (M;N)[i,k] is the union over j of
M[i,j] ; N[j,k], with absent cells acting as the empty relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .expr import BoolLit, Var
from .relations import (BUILTINS, Assign, Builtin, Guard, atoms, compile_machine, relation_vars,
                        seq_of, union_of)

Pos = Optional[Tuple[int, int]]


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: str  # 'int' | 'bool' | 'sym' | 'array' | 'stream' | 'tape'
    kind: str  # 'param' | 'var'
    length: object = None  # array length expression
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # 'error' | 'warning'
    location: str
    message: str

    def __str__(self):
        return "%s: %s: %s" % (self.severity, self.location, self.message)


@dataclass
class CodeMatrix:
    """`cells` must not change once the column table is built from it, on first use."""
    name: str
    states: tuple  # K, in first-mention order
    start: str
    halt: str
    cells: dict  # (from, to) -> tuple of rules, insertion-ordered
    decls: tuple  # of VarDecl

    @cached_property
    def _columns(self):
        table = {}
        for (frm, to), rules in self.cells.items():
            if rules:
                table.setdefault(frm, []).append((to, rules, union_of(rules)))
        return table

    def column(self, control):
        """Nonempty cells out of a control state: (to, rules, relation), in cells order."""
        return self._columns.get(control, ())

    @cached_property
    def machine(self):
        """The deterministic computation, compile_machine's function, made on first use."""
        return compile_machine(self.halt, self._columns)

    def outgoing(self, control):
        """(to, rule) pairs out of a control state, in declaration order."""
        return [(to, rule) for to, rules, _rel in self.column(control) for rule in rules]

    def cell_relation(self, frm, to):
        return next((rel for k, _rules, rel in self.column(frm) if k == to), None)

    def symbolic(self):
        """Cell map as single relation expressions (rule lists folded to unions)."""
        return {(k, to): rel for k, cells in self._columns.items() for to, _rules, rel in cells}


def validate(m):
    """Structural diagnostics for a code matrix; empty list means well-formed."""
    diags = []

    def err(location, message):
        diags.append(Diagnostic("error", location, message))

    # a start or halt of None is a missing declaration, which the parser reports
    for role, k in (("start", m.start), ("halt", m.halt)):
        if k is not None and k not in m.states:
            err(m.name, "%s state %r is not a control state" % (role, k))
    if m.start is not None and m.start == m.halt:
        err(m.name, "start and halt states must differ")

    declared = {d.name for d in m.decls}
    stream_decls = {d.name for d in m.decls if d.type == "stream"}
    tape_decls = [d.name for d in m.decls if d.type == "tape"]
    whole = {d.name: d.type for d in m.decls if d.type in ("array", "stream", "tape")}

    for (frm, to), rules in m.cells.items():
        loc = "%s -> %s" % (frm, to)
        if frm not in m.states:
            err(loc, "unknown control state %r" % frm)
        if to not in m.states:
            err(loc, "unknown control state %r" % to)
        if to == m.start:
            err(loc, "no transition may enter the start state %r" % m.start)
        if frm == m.halt:
            err(loc, "no transition may leave the halt state %r" % m.halt)
        for rule in rules:
            # unknown builtins are left to evaluation, which rejects them
            specs = [BUILTINS[a.name] for a in atoms(rule)
                     if isinstance(a, Builtin) and a.name in BUILTINS]
            streams = {name for spec in specs for name in spec.streams}
            for name in sorted(relation_vars(rule) - declared):
                if name in streams:
                    err(loc, "stream builtin needs a declared stream %r" % name)
                else:
                    err(loc, "undeclared variable %r" % name)
            for name in sorted((streams & declared) - stream_decls):
                err(loc, "%r must be declared as a stream" % name)
            if any(not spec.streams for spec in specs) and len(tape_decls) != 1:
                err(loc, "tape builtins need exactly one declared tape variable")
            for rhs in (v for a in atoms(rule) if isinstance(a, Assign) for _t, v in a.targets):
                if isinstance(rhs, Var) and rhs.name in whole:  # the only non-scalar value
                    err(loc, "cannot assign the whole %s %r" % (whole[rhs.name], rhs.name))
    return diags


def identity(states):
    """Identity matrix: the full identity relation on every diagonal cell."""
    return {(k, k): Guard(BoolLit(True)) for k in states}


def product(states, m, n):
    """Symbolic matrix product; absent cells are the empty relation."""
    out = {}
    for i in states:
        for k in states:
            terms = []
            for j in states:
                a = m.get((i, j))
                b = n.get((j, k))
                if a is not None and b is not None:
                    terms.append(seq_of([a, b]))
            if terms:
                out[(i, k)] = union_of(terms)
    return out


def power(states, m, n):
    """n-th matrix power; the zeroth power is the identity matrix."""
    if n < 0:
        raise ValueError("matrix power needs n >= 0")
    acc = identity(states)
    for _ in range(n):
        acc = product(states, acc, m)
    return acc
