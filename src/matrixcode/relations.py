"""Relation expressions and their images: binary relations over data states.

A matrix cell is built from guards, assignment blocks and builtin relations,
composed sequentially with Seq and alternated with Union.  Both operations
are associative, so each holds its parts in one flat tuple, built by seq_of
and union_of, and every walker loops over a chain instead of recursing along
it.  image(r, d) computes { d' | (d, d') in [[r]] } as an explicit list of
data states with structural duplicates collapsed.

BUILTINS is the catalogue of builtins (the stream/tape vocabulary of the DSL):

  getL(v) / getR(v)   guard: stream nonempty; binds its head into v
  ngetL / ngetR       guard: stream empty
  putL / putR         move the stream head onto the out stream (error if empty)
  rd(c)               guard: scanned tape symbol equals c
  wr(c)               write c on the scanned square, then move per direction
  dir(x)              set the tape direction to L, R or d

get/nget work on the distinguished stream variables 'left' and 'right';
put moves onto 'out'.  Tape builtins act on the single tape-typed variable
of the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from .expr import eval_expr, free_vars, render_expr
from .values import EvalError, Tape, copy_state, freeze_state

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


BUILTINS = {
    "getL": BuiltinSpec("var", ("left",), True),
    "getR": BuiltinSpec("var", ("right",), True),
    "ngetL": BuiltinSpec(None, ("left",), True),
    "ngetR": BuiltinSpec(None, ("right",), True),
    "putL": BuiltinSpec(None, ("left", "out"), False),
    "putR": BuiltinSpec(None, ("right", "out"), False),
    "rd": BuiltinSpec("sym", (), True),
    "wr": BuiltinSpec("sym", (), False),
    "dir": BuiltinSpec("dir", (), False),
}

# counter key per builtin; both polarities of a stream test share one key
COUNTER_KEYS = ("getL", "getR", "putL", "putR", "rd", "wr", "dir")
_FAMILY = {"ngetL": "getL", "ngetR": "getR"}


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
        self._seen_gets = set()

    def note(self, name):
        key = _FAMILY.get(name, name)
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


def _note(counter, name):
    if counter is not None:
        counter.note(name)


def _get_stream(state, name, pos):
    try:
        v = state[name]
    except KeyError:
        raise EvalError("stream %r is not declared" % name, var=name, pos=pos) from None
    if not isinstance(v, tuple):
        raise EvalError("variable %r is not a stream" % name, var=name, pos=pos)
    return v


def _get_tape(state, pos):
    tapes = [(n, v) for n, v in state.items() if isinstance(v, Tape)]
    if len(tapes) != 1:
        raise EvalError("tape builtins need exactly one bound tape variable", pos=pos)
    return tapes[0]


def _builtin_image(b, state, counter):
    name, spec = b.name, BUILTINS.get(b.name)
    if spec is None:
        raise EvalError("unknown builtin %r" % name, pos=b.pos)
    _note(counter, name)
    if spec.streams:
        src, dst = spec.streams[0], spec.streams[-1]
        stream = _get_stream(state, src, b.pos)
        if spec.guard and spec.arg is None:  # ngetL/ngetR
            return [] if stream else [state]
        if spec.guard:  # getL/getR
            if not stream:
                return []
            out = copy_state(state)
            out[b.arg] = stream[0]
            return [out]
        if not stream:
            raise EvalError("%s on an empty stream" % name, var=src, pos=b.pos)
        sink = _get_stream(state, dst, b.pos)
        out = copy_state(state)
        out[src] = stream[1:]
        out[dst] = sink + (stream[0],)
        return [out]
    tname, tape = _get_tape(state, b.pos)
    if spec.guard:  # rd
        return [state] if tape.read() == b.arg else []
    out = copy_state(state)
    if spec.arg == "sym":  # wr
        out[tname].write(b.arg)
    else:
        out[tname].set_direction(b.arg)
    return [out]


def _assign_image(a, state):
    out = copy_state(state)
    for target, rhs in a.targets:
        value = eval_expr(out, rhs)
        if target[0] == "var":
            name = target[1]
            if name not in out:
                raise EvalError("assignment to undeclared variable", var=name, pos=a.pos)
            if isinstance(out[name], (list, tuple, Tape)):
                raise EvalError("cannot assign a scalar to %r" % name, var=name, pos=a.pos)
            out[name] = value
        else:
            _, name, idx_expr = target
            arr = out.get(name)
            if not isinstance(arr, list):
                raise EvalError("element assignment needs an array", var=name, pos=a.pos)
            i = eval_expr(out, idx_expr)
            if not isinstance(i, int) or isinstance(i, bool):
                raise EvalError("array index must be an integer", var=name, pos=a.pos)
            if not 0 <= i < len(arr):
                raise EvalError(
                    "index %d out of bounds for length %d" % (i, len(arr)),
                    var=name, pos=a.pos)
            arr[i] = value
    return [out]


def image(r, state, counter=None):
    """All successor states of `state` under relation expression `r`.

    Duplicates are collapsed structurally.  Evaluation errors propagate as
    EvalError; an empty result just means the relation has no transition
    from this state.
    """
    if isinstance(r, Guard):
        b = eval_expr(state, r.expr)
        if not isinstance(b, bool):
            raise EvalError("guard is not boolean", pos=r.pos)
        return [state] if b else []
    if isinstance(r, Assign):
        return _assign_image(r, state)
    if isinstance(r, Builtin):
        return _builtin_image(r, state, counter)
    if isinstance(r, Seq):  # one stage per part, duplicates collapsed after each
        states = [state]
        for part in r.parts:
            if len(states) == 1:
                states = image(part, states[0], counter)
            else:
                states = _distinct([out for mid in states for out in image(part, mid, counter)])
            if not states:
                break
        return states
    if isinstance(r, Union):
        return _distinct([out for part in r.parts for out in image(part, state, counter)])
    raise EvalError("not a relation expression: %r" % (r,))


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
