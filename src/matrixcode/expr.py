"""Expression trees and their side-effect-free evaluation over data states.

Expressions cover integer arithmetic, array indexing, comparisons and
boolean connectives.  Conditions (but not guards inside matrix cells) may
additionally use bounded quantifiers and the stream observers len/count
and stream indexing; the parser enforces that restriction, evaluation here
is uniform.

Division and modulo truncate toward zero (C99 semantics), so that emitted
C code and the evaluator agree on negative operands.

compile_expr is the one evaluator: it emits the source of one checked
Python function per expression, and eval_expr keeps that function on the
expression.  render_expr prints .mxc and C from the operator table PREC.
"""

from __future__ import annotations

import itertools
import weakref
from collections import namedtuple
from dataclasses import dataclass, field
from types import FunctionType
from typing import Optional, Tuple

from .values import INT64_MAX, INT64_MIN, UNSET, EvalError, Stream

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


# How deep an expression may nest: an operand, index, bound, body or count
# value is a level below its node, a binary operator's left operand on its
# level (a left-associated chain stays flat), and in .mxc a parenthesis opens
# a level.  A level may open a block of the emitted function, and Python
# compiles no more than 20 nested loops.
MAX_NESTING = 16

# the subexpressions of each node class
_KIDS = {IntLit: (), BoolLit: (), SymLit: (), Var: (), Len: (), Index: ("index",),
         Unary: ("operand",), Binary: ("left", "right"), Quant: ("lo", "hi", "body"),
         Count: ("value",)}


def nesting(e, cap=MAX_NESTING + 1):
    """The deepest level in e's tree, e being on level 0, or cap if deeper."""
    if cap <= 0:
        return 0
    depth = 0
    while isinstance(e, Binary):  # down the left spine with a loop, not a call
        depth = max(depth, 1 + nesting(e.right, cap - 1))
        e = e.left
    for kid in _KIDS.get(type(e), ()):
        depth = max(depth, 1 + nesting(getattr(e, kid), cap - 1))
    return depth


def compiled(e):
    """e's compile_expr function, made on first use and kept on e.  An
    expression that does not compile is left without one: it gets a
    stand-in that raises the error each time it is called."""
    if not hasattr(e, "_fn"):
        try:
            object.__setattr__(e, "_fn", compile_expr(e))
        except EvalError:
            return lambda state: compile_expr(e)
    return e._fn


def eval_expr(state, e):
    """Value of expression e under the given data state.  Pure: never mutates."""
    return compiled(e)(state)


# Code objects by emitted source, expressions' and rules': the functions made
# from one keep it alive, so it goes with the last expression or rule of its shape.
_CODE = weakref.WeakValueDictionary()
_GLOBALS = {"E": EvalError, "U": UNSET, "V": Stream}
_OVERFLOW = "integer overflow: result does not fit in 64 bits"
_FITS = "not %d <= {0} <= %d" % (INT64_MIN, INT64_MAX)
_NOT_INT, _NOT_BOOL = "type({0}) is not int", "type({0}) is not bool"
_NOT_SEQ = "type({0}) is not list and type({0}) is not tuple and type({0}) is not V"
_NON_SEQUENCE = {Index: "indexing a non-sequence", Len: "len of a non-sequence",
                 Count: "count over a non-sequence"}


def compile_expr(e):
    """Compile an expression tree to one Python function fn(state),
    the package's only evaluator; the tests check it against an independent
    tree walker.  The source spells each check inline, in evaluation and
    short-circuit order: value classes (an int is never a bool), unbound and
    unset reads, bounds, division by zero, C's truncating / and %, int64
    overflow.  A check that cannot fail is left out.

    The source depends only on e's shape: literals and variable names are
    default arguments, one per distinct value, quantifier variables are
    locals, and each error site's variable and position are in the tuple e_,
    read only when raising.  Expressions of one shape share a code object.
    """
    if nesting(e) > MAX_NESTING:
        raise EvalError("expression nested more than %d levels deep" % MAX_NESTING,
                        pos=getattr(e, "pos", None))
    em = _Emitter()
    result = em.emit(e, " ")
    reads = [" %s = s.get(%s, U)" % (v, em.arg(name)) for name, v in em.reads.items()]
    return em.function("s", "\n".join(reads + em.lines + [" return " + result]), _GLOBALS)


class _Emitter:
    """emit(e, indent) writes the statements computing e and returns the
    Python expression (a local or a default argument) that holds its value.
    `known` holds the tests known to be false where the next line goes: each
    test that passed, and the type tests that a value's origin settles.  What
    a branch learns is undone where the branch ends, from the log."""

    def __init__(self):
        self.args = {}  # (type, value) of a literal or name -> default argument
        self.reads = {}  # state variable -> local holding its value
        self.lines = []
        self.errs = []  # (var, pos) per error site
        self.scope = {}  # quantifier variable -> local
        self.known = {}  # test known to be false -> None
        self.log = []  # (table, key) of what was learned, in order
        self.ids = itertools.count(1)

    def function(self, params, body, namespace):
        """The function `def fn(<params>, <default arguments>, e_): <body>`,
        with namespace as its globals; functions of one source share its code."""
        source = "def fn(%s, %s):\n%s\n" % (params, ", ".join([*self.args.values(), "e_"]), body)
        code = _CODE.get(source)
        if code is None:
            scope = {}
            exec(source, namespace, scope)
            code = _CODE[source] = scope["fn"].__code__
        return FunctionType(code, namespace, None, (*(v for _, v in self.args), tuple(self.errs)))

    def arg(self, value):
        return self.args.setdefault((type(value), value), "c%d" % len(self.args))

    def site(self, var, pos):
        self.errs.append((var, pos))
        return len(self.errs) - 1

    def learn(self, table, key, value=None):
        if key not in table:
            table[key] = value
            self.log.append((table, key))

    def undo(self, mark):
        """Forget what was learned since the log was mark entries long."""
        while len(self.log) > mark:
            table, key = self.log.pop()
            del table[key]

    def check(self, ind, site, test, message, *values, keep=True):
        """Raise EvalError(message % values) at the site when test holds,
        unless it is known not to; keep: the test reads no reassigned name,
        so once it passed it is known not to hold."""
        text = repr(message) + (" %% (%s,)" % ", ".join(values) if values else "")
        self.fail(ind, site, test, text, keep)

    def fail(self, ind, site, test, text, keep=True):
        if test not in self.known:
            self.lines.append("%sif %s: raise E(%s, *e_[%d])" % (ind, test, text, site))
            if keep:
                self.learn(self.known, test)

    def put(self, ind, line, *values):
        self.lines.append(ind + line.format(*values))

    def read(self, ind, name):
        """The local holding state variable name; compile_expr reads it ahead."""
        return self.reads.setdefault(name, "v%d" % len(self.reads))

    def var(self, ind, name, site):
        if name in self.scope:
            return self.scope[name]
        local = self.reads.get(name) or self.read(ind, name)
        self.fail(ind, site, local + " is U", "'read of uninitialized variable' if %s in s "
                  "else 'unbound variable'" % self.arg(name))
        return local

    def emit(self, e, ind):
        if isinstance(e, Var):
            return self.var(ind, e.name, self.site(e.name, e.pos))
        if isinstance(e, (IntLit, BoolLit, SymLit)):
            c = self.arg(e.value)
            if not isinstance(e, SymLit):
                self.learn(self.known, (_NOT_INT if isinstance(e, IntLit) else _NOT_BOOL).format(c))
            return c
        t, kind = "t%d" % next(self.ids), _NOT_BOOL
        if isinstance(e, (Index, Len, Count)):
            site, kind = self.site(e.name, e.pos), _NOT_INT
            seq = self.var(ind, e.name, site)
            self.check(ind, site, _NOT_SEQ.format(seq), _NON_SEQUENCE[type(e)])
        if isinstance(e, Index):
            i, kind = self.emit(e.index, ind), None
            self.check(ind, site, _NOT_INT.format(i), "array index must be an integer")
            self.check(ind, site, "not 0 <= %s < len(%s)" % (i, seq),
                       "index %d out of bounds for length %d", i, "len(%s)" % seq)
            self.put(ind, "{} = {}[{}]", t, seq, i)
            self.check(ind, site, t + " is U", "read of uninitialized element %d", i)
        elif isinstance(e, Len):
            self.put(ind, "{} = len({})", t, seq)
        elif isinstance(e, Count):
            x = self.emit(e.value, ind)
            self.check(ind, self.site(None, e.pos), _NOT_INT.format(x),
                       "count needs an integer value")
            self.put(ind, "{} = {}.count({})", t, seq, x)
        elif isinstance(e, Unary):
            v, site = self.emit(e.operand, ind), self.site(None, e.pos)
            if e.op == "neg":
                self.check(ind, site, _NOT_INT.format(v), "expected an integer, got %r", v)
                self.put(ind, "{} = -{}", t, v)
                self.check(ind, site, _FITS.format(t), _OVERFLOW)
                kind = _NOT_INT
            else:
                self.check(ind, site, _NOT_BOOL.format(v), "expected a boolean, got %r", v)
                self.put(ind, "{} = not {}", t, v)
        elif isinstance(e, Binary):  # down the left spine with a loop, not a call
            spine = [(e, t)]
            while isinstance(e.left, Binary):
                e = e.left
                spine.append((e, "t%d" % next(self.ids)))
            a = self.emit(e.left, ind)
            for node, t_node in reversed(spine):
                self.binary(node, ind, t_node, a)
                a = t_node
            return t
        elif isinstance(e, Quant):
            lo, hi = self.emit(e.lo, ind), self.emit(e.hi, ind)
            site, universal = self.site(None, e.pos), e.kind == "forall"
            for bound in (lo, hi):
                self.check(ind, site, _NOT_INT.format(bound), "quantifier bound must be an integer")
            q, outer, mark = "q%d" % next(self.ids), self.scope, len(self.log)
            self.scope = {**outer, e.var: q}
            self.put(ind, "{} = {}", t, universal)
            self.put(ind, "for {} in range({}, {} + 1):", q, lo, hi)
            self.learn(self.known, _NOT_INT.format(q))
            body = self.emit(e.body, ind + " ")
            self.check(ind + " ", site, _NOT_BOOL.format(body), "quantifier body is not boolean")
            self.put(ind, " if {} is not {}: {} = {}; break", body, universal, t, not universal)
            self.scope = outer
            self.undo(mark)
        else:
            raise EvalError("not an expression: %r" % (e,))
        if kind:
            self.learn(self.known, kind.format(t))
        return t

    def binary(self, e, ind, t, a):
        site = self.site(None, e.pos)
        if e.op in ("and", "or"):
            self.check(ind, site, _NOT_BOOL.format(a), "expected a boolean, got %r", a)
            self.put(ind, "{} = {}", t, a)
            self.put(ind, "if {}{}:", "" if e.op == "and" else "not ", t)
            mark = len(self.log)
            b = self.emit(e.right, ind + " ")
            self.check(ind + " ", site, _NOT_BOOL.format(b), "expected a boolean, got %r", b)
            self.put(ind, " {} = {}", t, b)
            self.undo(mark)
        elif e.op in ("==", "!="):
            b = self.emit(e.right, ind)
            # a stream is a tuple or a view, either compared by its items
            if not any(kind.format(a) in self.known and kind.format(b) in self.known
                       for kind in (_NOT_INT, _NOT_BOOL)):
                self.check(ind, site, "type({0}) is not type({1}) and not (type({0}) in "
                           "(tuple, V) and type({1}) in (tuple, V))".format(a, b),
                           "comparison of mismatched types")
            self.put(ind, "{} = {} {} {}", t, a, e.op, b)
        else:
            b = self.emit(e.right, ind)
            self.check(ind, site, _NOT_INT.format(a), "expected an integer, got %r", a)
            self.check(ind, site, _NOT_INT.format(b), "expected an integer, got %r", b)
            if e.op in ("/", "%"):
                self.check(ind, site, b + " == 0", "division by zero")
                # toward zero: the ceiling of the quotient when the signs differ
                self.put(ind, "{0} = {1} // {2} if ({1} < 0) is ({2} < 0) else -(-{1} // {2})",
                         t, a, b)
                if e.op == "%":
                    self.put(ind, "{0} = {1} - {0} * {2}", t, a, b)
            else:
                self.put(ind, "{} = {} {} {}", t, a, e.op, b)
            if e.op in ("+", "-", "*", "/"):  # |a % b| < |b|, which fits
                self.check(ind, site, _FITS.format(t), _OVERFLOW)
        self.learn(self.known, (_NOT_INT if e.op in "+-*/%" else _NOT_BOOL).format(t))


def free_vars(e, bound=frozenset()):
    """Names of state variables the expression reads."""
    out = set()
    while isinstance(e, Binary):  # down the left spine with a loop, not a call
        out |= free_vars(e.right, bound)
        e = e.left
    if type(e) not in _KIDS:
        raise TypeError("not an expression: %r" % (e,))
    if hasattr(e, "name") and e.name not in bound:
        out.add(e.name)
    for kid in _KIDS[type(e)]:
        out |= free_vars(getattr(e, kid), bound | {e.var} if kid == "body" else bound)
    return out


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
    spine = []  # down the left spine with a loop, not a call
    while isinstance(e, Binary):
        spine.append((e, parent_prec))
        e, parent_prec = e.left, operand_precs(e.op)[0]
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
    text = "(%s)" % text if p < parent_prec else text
    for b, parent_prec in reversed(spine):
        text = "%s %s %s" % (text, spelling.words.get(b.op, b.op),
                             render_expr(b.right, operand_precs(b.op)[1], spelling))
        text = "(%s)" % text if PREC[b.op] < parent_prec else text
    return text
