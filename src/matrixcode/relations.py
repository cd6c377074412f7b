"""Relation expressions and their images: binary relations over data states.

A matrix cell is built from guards, assignment blocks and builtin relations,
composed sequentially with Seq and alternated with Union.  Both operations
are associative, so each holds its parts in one flat tuple, built by seq_of
and union_of, and every walker loops over a chain instead of recursing along
it.  image(r, d) computes { d' | (d, d') in [[r]] } as an explicit list of
data states with structural duplicates collapsed, by one compiled function
per relation.  _RuleEmitter alone gives an atom its meaning: it writes
compile_rule's function for any relation and compile_column's for a
column's deterministic scan.  A successor shares every value its rule leaves.

BUILTINS is the catalogue of builtins (the stream/tape vocabulary of the DSL):

  getL(v) / getR(v)   guard: stream nonempty; binds its head into v
  ngetL / ngetR       guard: stream empty
  putL / putR         move the stream head onto the out stream (error if empty)
  rd(c)               guard: scanned tape symbol equals c
  wr(c)               write c on the scanned square, then move per direction
  dir(x)              set the tape direction to L, R or d

get/nget work on the distinguished stream variables 'left' and 'right';
put moves onto 'out'.  A stream is a tuple or a values.Stream view of a
shared buffer, and put costs O(1): it takes the head as a view one item
shorter and appends to out's buffer in place only when out ends at the
buffer's end, else to a copy of out's items.  So no value a state can see
ever changes; a buffer grows only past every view of it.  Tape builtins act
on the single tape-typed variable of the state; a tape is a values.Tape
zipper, so wr and dir cost O(1) too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Tuple

from .expr import _Emitter, compile_expr, eval_expr, free_vars, render_expr
from .values import EvalError, Stream, Tape, freeze_state

Pos = Optional[Tuple[int, int]]


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Guard:
    expr: object
    pos: Pos = _pos_field()


# assignment target: ('var', name) or ('elem', name, index_expr)
@dataclass(frozen=True)
class Assign:
    targets: tuple  # tuple of (target, expr), executed left to right
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Builtin:
    name: str
    arg: object = None  # var name for getL/getR, symbol for rd/wr, L/R/d for dir
    pos: Pos = _pos_field()


# built by seq_of and union_of: 2+ parts, no Seq directly in a Seq, no Union in a Union
@dataclass(frozen=True)
class Seq:
    parts: tuple  # composed left to right


@dataclass(frozen=True)
class Union:
    parts: tuple  # alternatives, in rule order


class BuiltinSpec(NamedTuple):
    arg: Optional[str]  # 'var' it binds, tape 'sym', 'dir'ection, or None
    streams: tuple  # the stream read, then the one written; () on the tape
    guard: bool  # a test of the state (getL/getR also bind their var)
    key: str  # counter key and C function; both polarities of a stream test share one


BUILTINS = {
    "getL": BuiltinSpec("var", ("left",), True, "getL"),
    "getR": BuiltinSpec("var", ("right",), True, "getR"),
    "ngetL": BuiltinSpec(None, ("left",), True, "getL"),
    "ngetR": BuiltinSpec(None, ("right",), True, "getR"),
    "putL": BuiltinSpec(None, ("left", "out"), False, "putL"),
    "putR": BuiltinSpec(None, ("right", "out"), False, "putR"),
    "rd": BuiltinSpec("sym", (), True, "rd"),
    "wr": BuiltinSpec("sym", (), False, "wr"),
    "dir": BuiltinSpec("dir", (), False, "dir"),
}
COUNTER_KEYS = tuple(dict.fromkeys(spec.key for spec in BUILTINS.values()))


class CallCounter:
    """Counts builtin evaluations the way translated code would call them.

    Within one scan cycle of the execution agent a stream test (getL/ngetL,
    getR/ngetR) is counted once no matter how many rules consult it, because
    the translated dispatch calls the function once and branches on the
    result.  Everything else counts per evaluation.
    """

    def __init__(self):
        self.counts = {k: 0 for k in COUNTER_KEYS}
        self._seen_gets = set()

    def begin_scan(self):
        self._seen_gets.clear()

    def note(self, key):
        if key in ("getL", "getR"):
            if key in self._seen_gets:
                return
            self._seen_gets.add(key)
        self.counts[key] += 1

    def copy(self):
        c = CallCounter()
        c.counts = dict(self.counts)
        c._seen_gets = set(self._seen_gets)
        return c


def image(r, state, counter=None):
    """All successor states of `state` under relation expression `r`, by its
    compile_rule function, made on first use and kept on `r`.  Evaluation
    errors propagate as EvalError; an empty result just means the relation
    has no transition from this state."""
    try:
        fn = r._fn
    except AttributeError:
        fn = compile_rule(r)
        object.__setattr__(r, "_fn", fn)
    return fn(state, counter)


def _atoms_of(r):
    """The atoms of a rule with no Union in it, in order, else None."""
    parts = r.parts if isinstance(r, Seq) else (r,)
    return parts if all(isinstance(p, (Guard, Assign, Builtin)) for p in parts) else None


def compile_rule(r):
    """One Python function fn(state, counter) -> list of successors: a rule
    of atoms as one block, a Union as its parts in turn and a Seq holding a
    Union as one stage per part, duplicates collapsed after each.  The first
    write copies the state dict, and the first write to an array, once its
    index passed its checks, copies that array.  Values, names and error
    sites are default arguments, so rules of one shape share code."""
    if not isinstance(r, (Guard, Assign, Builtin, Seq, Union)):
        raise EvalError("not a relation expression: %r" % (r,))
    em, parts = _RuleEmitter(), _atoms_of(r)
    if parts is not None:
        em.block(parts, "return [s]")
        em.put(" ", "return []")
    elif isinstance(r, Union):
        em.put(" ", "r = []")
        for part in r.parts:
            if _atoms_of(part) is None:
                em.put(" ", "r += {}(s0, counter)", em.arg(compile_rule(part)))
            else:
                em.block(_atoms_of(part), "r.append(s); break")
        em.put(" ", "return D(r)")
    else:
        em.put(" ", "r = [s0]")
        for part in r.parts:
            em.put(" ", "if r: r = {0}(r[0], counter) if len(r) == 1 else "
                   "D([o for m in r for o in {0}(m, counter)])", em.arg(compile_rule(part)))
        em.put(" ", "return r")
    return em.function("s0, counter", "\n".join(em.lines), _RULE_GLOBALS)


def compile_column(frm, cells):
    """One Python function fn(s0, counter) -> None or (to, successor), the
    deterministic scan of frm's column (CodeMatrix.column's cells): every
    rule of atoms inline, in scan order, the first to reach its end taken.
    A rule holding a Union runs by image and may have one successor only.
    Only a column with a stream test clears the counter's seen-set."""
    em = _RuleEmitter()
    if any(getattr(a, "name", None) in ("getL", "getR", "ngetL", "ngetR")
           for _to, rules, _rel in cells for rule in rules for a in atoms(rule)):
        em.put(" ", "if counter is not None: counter.begin_scan()")
    for to, rules, _rel in cells:
        for rule in rules:
            parts = _atoms_of(rule)
            if parts is not None:
                em.block(parts, "return %s, s" % em.arg(to))
                continue
            em.put(" ", "r = {}(s0, counter)", em.arg(partial(image, rule)))
            em.put(" ", "if r:")
            em.check("  ", em.site(None, None), "len(r) > 1", "rule %s -> %s has a non-singleton "
                     "image under the deterministic policy", em.arg(frm), em.arg(to))
            em.put("  ", "return {}, r[0]", em.arg(to))
    em.put(" ", "return None")
    return em.function("s0, counter", "\n".join(em.lines), _RULE_GLOBALS)


def _expr_fn(e):
    """e's compiled function, kept on e; if e does not compile, one that
    raises the error when evaluation reaches it."""
    if not hasattr(e, "_fn"):
        try:
            object.__setattr__(e, "_fn", compile_expr(e))
        except EvalError:
            return partial(eval_expr, e=e)
    return e._fn


class _RuleEmitter(_Emitter):
    """block(parts, end) writes a rule's atoms on the state s = s0 in a
    block that a failed guard leaves and whose last line is `end`; `copied`
    holds the state (None) and arrays it copied and Tape while s's tape is n."""

    def __init__(self):
        super().__init__()
        self.copied = set()

    def block(self, parts, end):
        self.copied.clear()
        self.put(" ", "while True:")
        self.put("  ", "s = s0")
        for a in parts:
            self.atom(a)
        self.put("  ", end)

    def copy(self, key, line):
        if key not in self.copied:
            self.copied.add(key)
            self.put("  ", line)

    def atom(self, a):
        if isinstance(a, Guard):
            self.put("  ", "b = {}(s)", self.arg(_expr_fn(a.expr)))
            self.check("  ", self.site(None, a.pos), "type(b) is not bool", "guard is not boolean")
            self.put("  ", "if not b: break")
        elif isinstance(a, Assign):
            self.copied.discard(Tape)
            self.copy(None, "s = dict(s)")
            for target, rhs in a.targets:
                self.assign(target, rhs, self.site(target[1], a.pos))
        elif a.name in BUILTINS:
            self.builtin(a, BUILTINS[a.name])
        else:  # what follows is never reached
            self.check("  ", self.site(None, a.pos), "True", "unknown builtin %r",
                       self.arg(a.name))

    def assign(self, target, rhs, site):
        name = self.arg(target[1])
        self.put("  ", "v = {}(s)", self.arg(_expr_fn(rhs)))
        if target[0] == "var":
            self.check("  ", site, "%s not in s" % name, "assignment to undeclared variable")
            self.check("  ", site, "isinstance(s[%s], SEQ)" % name, "cannot assign a scalar to %r",
                       name)
            self.put("  ", "s[{}] = v", name)
            return
        self.put("  ", "a = s.get({})", name)
        self.check("  ", site, "type(a) is not list", "element assignment needs an array")
        self.put("  ", "i = {}(s)", self.arg(_expr_fn(target[2])))
        self.check("  ", site, "type(i) is not int", "array index must be an integer")
        self.check("  ", site, "not 0 <= i < len(a)", "index %d out of bounds for length %d",
                   "i", "len(a)")
        self.copy(target[1], "a = s[%s] = list(a)" % name)
        self.put("  ", "a[i] = v")

    def stream(self, local, name, pos):
        """Read stream `name` into `local`; its items are <local>b[<local>l:<local>h]."""
        site, name = self.site(name, pos), self.arg(name)
        self.check("  ", site, "%s not in s" % name, "stream %r is not declared", name)
        self.put("  ", "{} = s[{}]", local, name)
        self.check("  ", site, "type({0}) is not tuple and type({0}) is not V".format(local),
                   "variable %r is not a stream", name)
        self.put("  ", "if type({0}) is V: {0}b, {0}l, {0}h = {0}.buf, {0}.lo, {0}.hi", local)
        self.put("  ", "else: {0}b, {0}l, {0}h = {0}, 0, len({0})", local)
        return site, name

    def builtin(self, b, spec):
        # the counter is noted before the builtin's checks
        self.put("  ", "if counter is not None: counter.note({})", self.arg(spec.key))
        if spec.streams:
            site, src = self.stream("x", spec.streams[0], b.pos)
            if spec.guard:  # getL/getR block on an empty stream, ngetL/ngetR on a nonempty one
                self.put("  ", "if xl {} xh: break", "==" if spec.arg else "!=")
                if spec.arg:
                    self.copied.discard(Tape)
                    self.copy(None, "s = dict(s)")
                    self.put("  ", "s[{}] = xb[xl]", self.arg(b.arg))
                return
            self.check("  ", site, "xl == xh", "%s on an empty stream", self.arg(b.name))
            _site, dst = self.stream("y", spec.streams[-1], b.pos)
            self.copy(None, "s = dict(s)")
            self.put("  ", "s[{}] = V(xb, xl + 1, xh)", src)
            # append in place only past the end of every view of the buffer;
            # share it when its next item is this one (left by a put whose
            # rule then failed, or by a sibling branch), else copy
            self.put("  ", "if type(yb) is list and yh == len(yb): yb.append(xb[xl])")
            self.put("  ", "elif yh == len(yb) or yb[yh] is not xb[xl]: "
                           "yb, yl, yh = list(yb[yl:yh]), 0, yh - yl; yb.append(xb[xl])")
            self.put("  ", "s[{}] = V(yb, yl, yh + 1)", dst)
            return
        if Tape not in self.copied:
            self.copied.add(Tape)
            self.put("  ", "n = [(k, v) for k, v in s.items() if type(v) is T]")
            self.check("  ", self.site(None, b.pos), "len(n) != 1",
                       "tape builtins need exactly one bound tape variable")
            self.put("  ", "n, t = n[0]")
        if spec.guard:  # rd
            self.put("  ", "if t.sym != {}: break", self.arg(b.arg))
            return
        self.copy(None, "s = dict(s)")
        self.put("  ", "t = s[n] = t.{}({})", "written" if spec.arg == "sym" else "directed",
                 self.arg(b.arg))


def _distinct(states):
    """`states` without structural duplicates, first occurrences in order.
    A list of fewer than two states is returned as it is, unfrozen."""
    if len(states) < 2:
        return states
    seen = set()
    out = []
    for s in states:
        key = freeze_state(s)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


_RULE_GLOBALS = {"D": _distinct, "E": EvalError, "T": Tape, "V": Stream,
                 "SEQ": (list, tuple, Stream, Tape)}


def _flat(kind, rs):
    parts = [p for r in rs for p in (r.parts if isinstance(r, kind) else (r,))]
    return parts[0] if len(parts) == 1 else kind(tuple(parts))


def seq_of(rs):
    """The composition of rs, left to right; a lone relation as it is."""
    return _flat(Seq, rs)


def union_of(rs):
    """The union of rs, in order; a lone relation as it is."""
    return _flat(Union, rs)


def atoms(r):
    """Guards, assignment blocks and builtins of `r`, left to right."""
    if isinstance(r, (Seq, Union)):
        for part in r.parts:
            yield from atoms(part)
    else:
        yield r


def relation_vars(r):
    """Names of state variables mentioned by a relation expression."""
    out = set()
    for a in atoms(r):
        if isinstance(a, Guard):
            out |= free_vars(a.expr)
        elif isinstance(a, Assign):
            for target, rhs in a.targets:
                out.add(target[1])
                if target[0] == "elem":
                    out |= free_vars(target[2])
                out |= free_vars(rhs)
        elif isinstance(a, Builtin):
            spec = BUILTINS.get(a.name)
            if spec is not None:
                out.update(spec.streams)
                if spec.arg == "var":
                    out.add(a.arg)
        else:
            raise TypeError("not a relation expression: %r" % (a,))
    return out


def render_relation(r):
    """Source text for a relation expression (rules joined with '|')."""
    if isinstance(r, Union):
        return " | ".join(render_relation(part) for part in r.parts)
    return "; ".join(_render_atom(a) for a in (r.parts if isinstance(r, Seq) else (r,)))


def _render_atom(a):
    if isinstance(a, Guard):
        return "[%s]" % render_expr(a.expr)
    if isinstance(a, Assign):
        parts = []
        for target, rhs in a.targets:
            if target[0] == "var":
                lhs = target[1]
            else:
                lhs = "%s[%s]" % (target[1], render_expr(target[2]))
            parts.append("%s = %s" % (lhs, render_expr(rhs)))
        return "{ %s }" % "; ".join(parts)
    if isinstance(a, Builtin):
        spec = BUILTINS.get(a.name)
        if spec is None or spec.arg is None:
            return a.name
        return ("%s('%s')" if spec.arg == "sym" else "%s(%s)") % (a.name, a.arg)
    if isinstance(a, Union):
        return "(%s)" % render_relation(a)
    raise TypeError("not a rule atom: %r" % (a,))
