"""Value domain for data states.

A data state is a plain dict mapping variable names to values.  The value
kinds are:

  - Int: Python int, range-checked to signed 64 bits on every arithmetic op
  - Bool: Python bool
  - Sym: one-character str
  - ArrayInt: Python list of Int-or-UNSET, length fixed at creation
  - Stream: sequence of Int, consumed front-first: a tuple, or a Stream
    view of a shared buffer, which equals, hashes, orders and adds like the
    tuple of its items
  - Tape: sparse map from Int index to Sym with a default blank, plus a
    head position and a movement direction ('L', 'R' or 'd')

Uninitialized variables hold the UNSET marker (rendered '?').  Reading an
UNSET value is an evaluation error; overwriting one is fine.

No value a state can see ever changes; a buffer grows only past every view
of it.  A rule writes a new dict, a new list or Tape for each array or tape
that it writes, and a new view for each stream that it moves, so states
share every value that they have in common.
"""

from __future__ import annotations

import operator

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

DIRECTIONS = ("L", "R", "d")


class EvalError(Exception):
    """Evaluation failure: unbound/unset read, bad index, bad type, div by zero."""

    def __init__(self, message, var=None, pos=None):
        self.message = message
        self.var = var
        self.pos = pos
        super().__init__(self.located())

    def located(self):
        parts = []
        if self.pos is not None:
            parts.append("line %d col %d" % self.pos)
        if self.var is not None:
            parts.append("variable %r" % self.var)
        where = " (%s)" % ", ".join(parts) if parts else ""
        return self.message + where


class _Unset:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "?"


UNSET = _Unset()


class Tape:
    """Two-way unbounded tape, stored sparsely.

    Writing puts a symbol on the scanned square and then moves the head one
    square left, right, or not at all according to the current direction.
    The direction is itself part of the memory state and is changed with
    set_direction.
    """

    __slots__ = ("cells", "head", "direction", "blank", "lo", "hi")

    def __init__(self, cells=None, head=0, direction="d", blank="_"):
        if direction not in DIRECTIONS:
            raise ValueError("tape direction must be one of L, R, d")
        self.cells = dict(cells or {})
        self.head = head
        self.direction = direction
        self.blank = blank
        occupied = [i for i, s in self.cells.items() if s != blank]
        self.lo = min(occupied, default=head)
        self.hi = max(occupied, default=head)

    @classmethod
    def from_string(cls, text, head=0, direction="d", blank="_"):
        return cls({i: ch for i, ch in enumerate(text)}, head, direction, blank)

    def read(self):
        return self.cells.get(self.head, self.blank)

    def write(self, sym):
        if sym == self.blank:
            self.cells.pop(self.head, None)
        else:
            self.cells[self.head] = sym
            self.lo = min(self.lo, self.head)
            self.hi = max(self.hi, self.head)
        if self.direction == "L":
            self.head -= 1
        elif self.direction == "R":
            self.head += 1

    def set_direction(self, direction):
        if direction not in DIRECTIONS:
            raise EvalError("tape direction must be one of L, R, d")
        self.direction = direction

    def copy(self):
        t = Tape.__new__(Tape)
        t.cells = dict(self.cells)
        t.head = self.head
        t.direction = self.direction
        t.blank = self.blank
        t.lo = self.lo
        t.hi = self.hi
        return t

    def render(self):
        """Space-separated symbols over the occupied extent of the tape."""
        return " ".join(self.cells.get(i, self.blank) for i in range(self.lo, self.hi + 1))

    def _key(self):
        trimmed = frozenset((i, s) for i, s in self.cells.items() if s != self.blank)
        return (trimmed, self.head, self.direction, self.blank)

    def __eq__(self, other):
        return isinstance(other, Tape) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Tape(%r, head=%d, dir=%s)" % (self.render(), self.head, self.direction)


def _on_items(op):
    """A binary method of Stream: op on its items and a tuple's or a view's."""
    def method(self, other):
        if type(other) is Stream:
            other = other.items()
        elif type(other) is not tuple:
            return NotImplemented
        return op(self.items(), other)
    return method


class Stream:
    """The stream buf[lo:hi], a view of a list or tuple that it shares.

    Taking the head is Stream(buf, lo + 1, hi); only a view that ends at the
    buffer's end may append to it (when buf is a list), a view whose next
    buffer item is the one put grows over it, and any other copies its
    items first.  So no view's items ever change, and sibling states that
    put onto one stream never see each other's items.  The rules' put code
    does this arithmetic inline.  Stream(items), with no bounds, is a view
    of a tuple of the items, as type(s)(items) is for a tuple s.
    """

    __slots__ = ("buf", "lo", "hi")

    def __init__(self, buf, lo=0, hi=None):
        if hi is None:
            buf = tuple(buf)
            hi = len(buf)
        self.buf = buf
        self.lo = lo
        self.hi = hi

    def items(self):
        """The items as a tuple."""
        t = self.buf[self.lo:self.hi]
        return t if type(t) is tuple else tuple(t)

    def __len__(self):
        return self.hi - self.lo

    def __getitem__(self, i):
        return self.items()[i]

    def __iter__(self):
        return iter(self.buf[self.lo:self.hi])

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        return "Stream(%r)" % (self.items(),)

    __eq__ = _on_items(operator.eq)
    __lt__ = _on_items(operator.lt)
    __le__ = _on_items(operator.le)
    __gt__ = _on_items(operator.gt)
    __ge__ = _on_items(operator.ge)
    __add__ = _on_items(operator.add)
    __radd__ = _on_items(lambda items, other: other + items)


def copy_state(state):
    """A copy of the state that shares no array or tape with it."""
    return {name: list(v) if isinstance(v, list) else v.copy() if isinstance(v, Tape) else v
            for name, v in state.items()}


_UNSET_KEY = ("unset",)


def freeze_value(v):
    if isinstance(v, list):
        return ("arr",) + tuple(_UNSET_KEY if x is UNSET else x for x in v)
    if isinstance(v, Tape):
        return ("tape",) + v._key()
    if v is UNSET:
        return _UNSET_KEY
    return v.items() if type(v) is Stream else v


def freeze_state(state):
    """Hashable structural key of a data state, for set membership."""
    return tuple(sorted((name, freeze_value(v)) for name, v in state.items()))


def render_value(v):
    if v is UNSET:
        return "?"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, list):
        return "{%s}" % ",".join(render_value(x) for x in v)
    if isinstance(v, (tuple, Stream)):
        return "[%s]" % ",".join(render_value(x) for x in v)
    if isinstance(v, Tape):
        return v.render()
    raise TypeError("cannot render %r" % (v,))
