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
of it.  A rule writes a new dict, a new list for each array that it writes,
and a new Tape or view, which shares all but its head, for each tape or
stream that it moves, so states share every value that they have in common.
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
    """Two-way unbounded tape, stored sparsely as a zipper (Huet 1997): the
    scanned symbol sym and, on each side of the head, a cons list
    (index, symbol, rest) of the non-blank squares, nearest first.

    Writing puts a symbol on the scanned square and then moves the head one
    square per the direction, which is part of the memory state.  A tape
    never changes: written and directed return a new Tape in O(1) that
    shares the rest of this one; cells is built on first read and kept.
    """

    __slots__ = ("sym", "left", "right", "head", "direction", "blank", "lo", "hi", "_cells")

    def __init__(self, cells=None, head=0, direction="d", blank="_"):
        if direction not in DIRECTIONS:
            raise ValueError("tape direction must be one of L, R, d")
        occupied = sorted((i, s) for i, s in (cells or {}).items() if s != blank)
        self.left = self.right = None
        for i, s in occupied:
            if i < head:
                self.left = (i, s, self.left)
        for i, s in reversed(occupied):
            if i > head:
                self.right = (i, s, self.right)
        self._cells = dict(occupied)
        self.sym, self.head, self.direction = self._cells.get(head, blank), head, direction
        self.blank = blank
        self.lo, self.hi = (occupied[0][0], occupied[-1][0]) if occupied else (head, head)

    @classmethod
    def from_string(cls, text, head=0, direction="d", blank="_"):
        return cls({i: ch for i, ch in enumerate(text)}, head, direction, blank)

    def _moved(self, sym, left, right, head, direction, lo, hi):
        t = Tape.__new__(Tape)
        t.sym, t.left, t.right, t.head, t.direction = sym, left, right, head, direction
        t.blank, t.lo, t.hi = self.blank, lo, hi
        return t

    def written(self, sym):
        """This tape with sym on the scanned square and the head then moved
        one square per the direction."""
        head, d, blank = self.head, self.direction, self.blank
        lo, hi = (min(self.lo, head), max(self.hi, head)) if sym != blank else (self.lo, self.hi)
        if d == "d":
            return self._moved(sym, self.left, self.right, head, d, lo, hi)
        # the side that the head leaves, and the side that it moves onto
        behind, ahead = (self.left, self.right) if d == "R" else (self.right, self.left)
        if sym != blank:
            behind = (head, sym, behind)
        head, sym = head + (1 if d == "R" else -1), blank
        if ahead is not None and ahead[0] == head:
            _, sym, ahead = ahead
        left, right = (behind, ahead) if d == "R" else (ahead, behind)
        return self._moved(sym, left, right, head, d, lo, hi)

    def directed(self, direction):
        """This tape with the given direction."""
        if direction not in DIRECTIONS:
            raise EvalError("tape direction must be one of L, R, d")
        return self._moved(self.sym, self.left, self.right, self.head, direction,
                           self.lo, self.hi)

    @property
    def cells(self):
        """The non-blank squares as a dict from index to symbol."""
        if not hasattr(self, "_cells"):
            cells = self._cells = {self.head: self.sym} if self.sym != self.blank else {}
            for side in (self.left, self.right):
                while side is not None:
                    i, s, side = side
                    cells[i] = s
        return self._cells

    def render(self):
        """Space-separated symbols over the occupied extent of the tape."""
        return " ".join(self.cells.get(i, self.blank) for i in range(self.lo, self.hi + 1))

    def _key(self):
        return (frozenset(self.cells.items()), self.head, self.direction, self.blank)

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
        if type(i) is int and 0 <= i < self.hi - self.lo:
            return self.buf[self.lo + i]
        return self.items()[i]

    def count(self, x):
        return self.buf[self.lo:self.hi].count(x)

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
    """A copy of the state that shares no array with it."""
    return {name: list(v) if isinstance(v, list) else v for name, v in state.items()}


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
