"""Expression trees and their side-effect-free evaluation over data states.

Expressions cover integer arithmetic, array indexing, comparisons and
boolean connectives.  Conditions (but not guards inside matrix cells) may
additionally use bounded quantifiers and the stream observers len/count
and stream indexing; the parser enforces that restriction, evaluation here
is uniform.

Division and modulo truncate toward zero (C99 semantics), so that emitted
C code and the evaluator agree on negative operands.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .values import UNSET, EvalError, check_int64

Pos = Optional[Tuple[int, int]]


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IntLit:
    value: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BoolLit:
    value: bool
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SymLit:
    value: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Index:
    name: str
    index: object
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' | 'not'
    operand: object
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / % == != < <= > >= and or
    left: object
    right: object
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Quant:
    kind: str  # 'forall' | 'exists'
    var: str
    lo: object
    hi: object
    body: object
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Len:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Count:
    name: str
    value: object
    pos: Pos = _pos_field()


def _trunc_div(a, b, pos):
    if b == 0:
        raise EvalError("division by zero", pos=pos)
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q


def eval_expr(state, e, locals_=None):
    """Value of expression e under the given data state.  Pure: never mutates.

    The first evaluation compiles e and keeps the closure on e itself, so
    the closure lives exactly as long as the expression.
    """
    try:
        fn = e._fn
    except AttributeError:
        fn = compile_expr(e)
        object.__setattr__(e, "_fn", fn)
    return fn(state, locals_)


def compile_expr(e):
    """Compile an expression tree to a Python closure fn(state, locals_).

    This is the package's only evaluator: eval_expr runs these closures for
    the interpreter, the verifier and the closure code alike.  The test
    suite checks it against an independent tree-walking evaluator.

    A compiled expression lives as long as its tree, so each closure takes
    what it captures as default arguments, which is smaller than one cell
    per captured name.
    """
    if isinstance(e, (IntLit, BoolLit, SymLit)):
        v = e.value
        return lambda s, l=None, v=v: v
    if isinstance(e, Var):
        name, pos = e.name, e.pos
        def var_fn(s, l=None, name=name, pos=pos):
            if l is not None and name in l:
                return l[name]
            try:
                v = s[name]
            except KeyError:
                raise EvalError("unbound variable", var=name, pos=pos) from None
            if v is UNSET:
                raise EvalError("read of uninitialized variable", var=name, pos=pos)
            return v
        return var_fn
    if isinstance(e, Index):
        base = compile_expr(Var(e.name, e.pos))
        idx = compile_expr(e.index)
        name, pos = e.name, e.pos
        def index_fn(s, l=None, base=base, idx=idx, name=name, pos=pos):
            seq = base(s, l)
            if not isinstance(seq, (list, tuple)):
                raise EvalError("indexing a non-sequence", var=name, pos=pos)
            i = idx(s, l)
            if isinstance(i, bool) or not isinstance(i, int):
                raise EvalError("array index must be an integer", var=name, pos=pos)
            if not 0 <= i < len(seq):
                raise EvalError("index %d out of bounds for length %d" % (i, len(seq)),
                                var=name, pos=pos)
            v = seq[i]
            if v is UNSET:
                raise EvalError("read of uninitialized element %d" % i,
                                var=name, pos=pos)
            return v
        return index_fn
    if isinstance(e, Unary):
        sub = compile_expr(e.operand)
        pos = e.pos
        if e.op == "neg":
            def neg_fn(s, l=None, sub=sub, pos=pos):
                v = sub(s, l)
                if isinstance(v, bool) or not isinstance(v, int):
                    raise EvalError("expected an integer, got %r" % (v,), pos=pos)
                return check_int64(-v, pos)
            return neg_fn
        def not_fn(s, l=None, sub=sub, pos=pos):
            v = sub(s, l)
            if not isinstance(v, bool):
                raise EvalError("expected a boolean, got %r" % (v,), pos=pos)
            return not v
        return not_fn
    if isinstance(e, Binary):
        lf = compile_expr(e.left)
        rf = compile_expr(e.right)
        op, pos = e.op, e.pos

        if op in ("and", "or"):
            want = op == "or"
            def bool_fn(s, l=None, lf=lf, rf=rf, want=want, pos=pos):
                a = lf(s, l)
                if not isinstance(a, bool):
                    raise EvalError("expected a boolean, got %r" % (a,), pos=pos)
                if a is want:
                    return want
                b = rf(s, l)
                if not isinstance(b, bool):
                    raise EvalError("expected a boolean, got %r" % (b,), pos=pos)
                return b
            return bool_fn

        if op in ("==", "!="):
            eq = op == "=="
            def eq_fn(s, l=None, lf=lf, rf=rf, eq=eq, pos=pos):
                a, b = lf(s, l), rf(s, l)
                if type(a) is not type(b):
                    raise EvalError("comparison of mismatched types", pos=pos)
                return (a == b) is eq
            return eq_fn

        def arith_fn(s, l=None, lf=lf, rf=rf, op=op, pos=pos):
            a, b = lf(s, l), rf(s, l)
            if isinstance(a, bool) or not isinstance(a, int):
                raise EvalError("expected an integer, got %r" % (a,), pos=pos)
            if isinstance(b, bool) or not isinstance(b, int):
                raise EvalError("expected an integer, got %r" % (b,), pos=pos)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            if op == ">=":
                return a >= b
            if op == "+":
                return check_int64(a + b, pos)
            if op == "-":
                return check_int64(a - b, pos)
            if op == "*":
                return check_int64(a * b, pos)
            if op == "/":
                return check_int64(_trunc_div(a, b, pos), pos)
            return check_int64(a - _trunc_div(a, b, pos) * b, pos)
        return arith_fn
    if isinstance(e, Quant):
        lo_f = compile_expr(e.lo)
        hi_f = compile_expr(e.hi)
        body_f = compile_expr(e.body)
        var, pos, universal = e.var, e.pos, e.kind == "forall"
        def quant_fn(s, l=None, lo_f=lo_f, hi_f=hi_f, body_f=body_f, var=var,
                     pos=pos, universal=universal):
            lo, hi = lo_f(s, l), hi_f(s, l)
            for bound in (lo, hi):
                if isinstance(bound, bool) or not isinstance(bound, int):
                    raise EvalError("quantifier bound must be an integer", pos=pos)
            inner = dict(l) if l else {}
            for i in range(lo, hi + 1):
                inner[var] = i
                b = body_f(s, inner)
                if not isinstance(b, bool):
                    raise EvalError("quantifier body is not boolean", pos=pos)
                if b is not universal:
                    return not universal
            return universal
        return quant_fn
    if isinstance(e, Len):
        base = compile_expr(Var(e.name, e.pos))
        name, pos = e.name, e.pos
        def len_fn(s, l=None, base=base, name=name, pos=pos):
            seq = base(s, l)
            if not isinstance(seq, (list, tuple)):
                raise EvalError("len of a non-sequence", var=name, pos=pos)
            return len(seq)
        return len_fn
    if isinstance(e, Count):
        base = compile_expr(Var(e.name, e.pos))
        val_f = compile_expr(e.value)
        name, pos = e.name, e.pos
        def count_fn(s, l=None, base=base, val_f=val_f, name=name, pos=pos):
            seq = base(s, l)
            if not isinstance(seq, (list, tuple)):
                raise EvalError("count over a non-sequence", var=name, pos=pos)
            x = val_f(s, l)
            if isinstance(x, bool) or not isinstance(x, int):
                raise EvalError("count needs an integer value", pos=pos)
            return sum(1 for v in seq if v == x)
        return count_fn
    raise EvalError("not an expression: %r" % (e,))


def free_vars(e, bound=frozenset()):
    """Names of state variables the expression reads."""
    if isinstance(e, (IntLit, BoolLit, SymLit)):
        return set()
    if isinstance(e, Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, Index):
        base = set() if e.name in bound else {e.name}
        return base | free_vars(e.index, bound)
    if isinstance(e, Unary):
        return free_vars(e.operand, bound)
    if isinstance(e, Binary):
        return free_vars(e.left, bound) | free_vars(e.right, bound)
    if isinstance(e, Quant):
        out = free_vars(e.lo, bound) | free_vars(e.hi, bound)
        return out | free_vars(e.body, bound | {e.var})
    if isinstance(e, Len):
        return set() if e.name in bound else {e.name}
    if isinstance(e, Count):
        base = set() if e.name in bound else {e.name}
        return base | free_vars(e.value, bound)
    raise TypeError("not an expression: %r" % (e,))


# The binary operators and their precedence, loosest first.  The parser,
# render_expr and so the C translation all read this one table.  The
# comparisons share the level CMP and do not chain.
PREC = {
    "or": 1, "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
CMP = 4
NEG = 7  # unary minus, tighter than any binary operator
ATOM = NEG + 1


def operand_precs(op):
    """Least precedence that each operand of op, left then right, may have
    without parentheses: operators associate to the left, comparisons not
    at all."""
    p = PREC[op]
    return (p + 1 if p == CMP else p), p + 1


def c_char(ch):
    """A one-character symbol as a C character literal.  Python's repr of
    one character is already one, escapes included, except for the single
    quote, which repr puts between double quotes."""
    return "'\\''" if ch == "'" else repr(ch)


# How a target writes what PREC leaves open: the binary operators it spells
# otherwise, its logical negation prefix with that prefix's precedence,
# whether quantifiers and the stream observers have a form, and symbol literals.
Spelling = namedtuple("Spelling", "name words not_prefix not_prec conditions sym")
MXC = Spelling(".mxc", {}, "not ", 3, True, "'{}'".format)
C99 = Spelling("C", {"and": "&&", "or": "||"}, "!", NEG, False, c_char)


def render_expr(e, parent_prec=0, spelling=MXC):
    """Source text for an expression in the given spelling, parenthesised
    where parent_prec binds tighter.  The .mxc text parses back to e; a
    quantifier, len or count with no form in the spelling is a ValueError."""
    p = ATOM
    if isinstance(e, IntLit):
        text = str(e.value)
        if e.value < 0:  # a negative literal reads as a unary minus
            p = NEG
    elif isinstance(e, BoolLit):
        text = "true" if e.value else "false"
    elif isinstance(e, SymLit):
        text = spelling.sym(e.value)
    elif isinstance(e, Var):
        text = e.name
    elif isinstance(e, Index):
        text = "%s[%s]" % (e.name, render_expr(e.index, 0, spelling))
    elif isinstance(e, Unary) and e.op == "neg":
        p, text = NEG, "-" + render_expr(e.operand, ATOM, spelling)
    elif isinstance(e, Unary):
        p = spelling.not_prec
        text = spelling.not_prefix + render_expr(e.operand, p, spelling)
    elif isinstance(e, Binary):
        p = PREC[e.op]
        left, right = operand_precs(e.op)
        text = "%s %s %s" % (render_expr(e.left, left, spelling),
                             spelling.words.get(e.op, e.op),
                             render_expr(e.right, right, spelling))
    elif not isinstance(e, (Quant, Len, Count)):
        raise TypeError("not an expression: %r" % (e,))
    elif not spelling.conditions:
        raise ValueError("expression %r has no %s form" % (e, spelling.name))
    elif isinstance(e, Quant):
        bound = PREC["+"]
        text = "%s %s in %s..%s (%s)" % (
            e.kind, e.var, render_expr(e.lo, bound, spelling),
            render_expr(e.hi, bound, spelling), render_expr(e.body, 0, spelling))
    elif isinstance(e, Len):
        text = "len(%s)" % e.name
    else:
        text = "count(%s, %s)" % (e.name, render_expr(e.value, 0, spelling))
    return "(%s)" % text if p < parent_prec else text
