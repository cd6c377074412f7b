"""Independent oracles for the test suite.

Everything here is computed without touching the package's expression
evaluator, relation evaluator, interpreter, verifier or closure code, so
frozen expected values and property checks have an implementation to
disagree with.  Nothing here imports the package.
"""

from __future__ import annotations

import itertools


def first_n_primes(n):
    """Plain trial division, no shared code with the matrix semantics."""
    out = []
    candidate = 2
    while len(out) < n:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


def merge_sorted(left, right):
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out)


class CountingStreams:
    """The Trinity of the translated merge code: two inputs, one output,
    call counters bumped exactly once per function call."""

    def __init__(self, left, right):
        self.left = list(left)
        self.right = list(right)
        self.out = []
        self.getL = self.getR = self.putL = self.putR = 0

    def get_left(self):
        self.getL += 1
        return (True, self.left[0]) if self.left else (False, None)

    def get_right(self):
        self.getR += 1
        return (True, self.right[0]) if self.right else (False, None)

    def put_left(self):
        self.putL += 1
        self.out.append(self.left.pop(0))

    def put_right(self):
        self.putR += 1
        self.out.append(self.right.pop(0))

    def counts(self):
        return {"getL": self.getL, "getR": self.getR,
                "putL": self.putL, "putR": self.putR}


def emerge_oracle(left, right):
    """Direct transcription of the two-phase structured merge."""
    t = CountingStreams(left, right)
    while True:
        ok_l, u = t.get_left()
        if not ok_l:
            break
        ok_r, v = t.get_right()
        if not ok_r:
            break
        if u <= v:
            t.put_left()
        else:
            t.put_right()
    while t.get_left()[0]:
        t.put_left()
    while t.get_right()[0]:
        t.put_right()
    return tuple(t.out), t.counts()


def mmerge_oracle(left, right):
    """Direct transcription of the state-per-information-state merge."""
    t = CountingStreams(left, right)
    state = "S"
    u = v = None
    while state != "H":
        if state == "S":
            ok, u = t.get_left()
            state = "A" if ok else "B"
        elif state == "A":
            ok, v = t.get_right()
            state = "C" if ok else "D"
        elif state == "B":
            ok, v = t.get_right()
            if ok:
                t.put_right()
            else:
                state = "H"
        elif state == "C":
            if u <= v:
                t.put_left()
                state = "E"
            else:
                t.put_right()
                state = "A"
        elif state == "D":
            t.put_left()
            state = "F"
        elif state == "E":
            ok, u = t.get_left()
            state = "C" if ok else "G"
        elif state == "F":
            ok, u = t.get_left()
            state = "D" if ok else "H"
        elif state == "G":
            t.put_right()
            state = "B"
    return tuple(t.out), t.counts()


# The parenthesis-matching machine as plain quintuples:
# (state, scanned) -> (next state, written, next direction)
TURING_RULES = {
    ("Q0", ")"): ("Q1", "X", "L"),
    ("Q0", "("): ("Q0", "(", "R"),
    ("Q0", "A"): ("Q2", "A", "L"),
    ("Q0", "X"): ("Q0", "X", "R"),
    ("Q1", ")"): ("Q1", ")", "L"),
    ("Q1", "("): ("Q0", "X", "R"),
    ("Q1", "A"): ("H", "0", "d"),
    ("Q1", "X"): ("Q1", "X", "L"),
    ("Q2", "("): ("H", "0", "d"),
    ("Q2", "A"): ("H", "1", "d"),
    ("Q2", "X"): ("Q2", "X", "L"),
}


def turing_oracle(text, head=1, max_steps=100000):
    """Quintuple-table simulation; writing moves the head per the rule's
    own direction.  Returns the final tape as a spaced string."""
    tape = dict(enumerate(text))
    state = "Q0"
    lo, hi = 0, len(text) - 1
    for _ in range(max_steps):
        if state == "H":
            break
        scanned = tape.get(head, "_")
        state, written, direction = TURING_RULES[(state, scanned)]
        tape[head] = written
        lo, hi = min(lo, head), max(hi, head)
        head += {"L": -1, "R": 1, "d": 0}[direction]
    else:
        raise AssertionError("oracle did not halt")
    return " ".join(tape.get(i, "_") for i in range(lo, hi + 1))


def reachable_pairs(n, pairs):
    """Reflexive-transitive closure by per-node breadth-first search."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    out = set()
    for start in range(n):
        seen = {start}
        frontier = [start]
        while frontier:
            frontier = [b for a in frontier for b in succ.get(a, ())
                        if b not in seen]
            seen.update(frontier)
        out.update((start, x) for x in seen)
    return frozenset(out)


def fsm_words_reference(delta, alphabet, start, halt, bound):
    """Words of length <= bound over alphabet that an FSM accepts, each decided
    by simulating the machine on it: the set of (state, letters read) pairs
    grows until no transition whose word comes next in the input adds one,
    and the word is accepted if (halt, all of it) is in the set."""
    words = layer = [""]
    for _ in range(bound):
        layer = [w + a for w in layer for a in alphabet]
        words = words + layer
    accepted = set()
    for word in words:
        live = {(start, 0)}
        grown = True
        while grown:
            more = {(to, i + len(u)) for (frm, to), us in delta.items() for u in us
                    for state, i in live if state == frm and word.startswith(u, i)}
            grown = not more <= live
            live |= more
        if (halt, len(word)) in live:
            accepted.add(word)
    return frozenset(accepted)


def compose_pairs(left, right):
    """Relational composition of two pair sets, joined on the middle element."""
    by_left = {}
    for b, c in right:
        by_left.setdefault(b, set()).add(c)
    return frozenset((a, c) for a, b in left for c in by_left.get(b, ()))


def power_pairs(n, pairs, k):
    """The k-th power of a relation over range(n), from the identity."""
    out = frozenset((a, a) for a in range(n))
    for _ in range(k):
        out = compose_pairs(out, pairs)
    return out


def brute_force_triple(pre_set, rel_pairs, post_set):
    """{p} R {q} by raw set arithmetic: right projection of I_p;R within q."""
    projection = {b for (a, b) in rel_pairs if a in pre_set}
    return projection <= set(post_set)


def stuck_states(domain, cond_sets, cell_pairs):
    """Column completeness by raw set arithmetic: per column k of cond_sets,
    the sorted domain states in k's condition set that no pair of a cell
    (k, to) leaves, wherever the pair leads; columns with none are left out."""
    out = {}
    for k, cond in cond_sets.items():
        moving = {a for (frm, _to), pairs in cell_pairs.items() if frm == k
                  for a, _b in pairs}
        stuck = sorted(set(domain) & set(cond) - moving)
        if stuck:
            out[k] = stuck
    return out


# ---------------------------------------------------------------------------
# reference expression evaluator: a tree walker over the package's expression
# nodes, dispatched on class name, with the package's error messages

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class OracleEvalError(Exception):
    """An evaluation error, with the message and the variable name that the
    package's EvalError must carry for the same expression and state."""

    def __init__(self, message, var=None):
        super().__init__(message)
        self.message = message
        self.var = var


def _is_unset(v):
    return type(v).__name__ == "_Unset"


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _want_int(v):
    if not _is_int(v):
        raise OracleEvalError("expected an integer, got %r" % (v,))
    return v


def _want_bool(v):
    if not isinstance(v, bool):
        raise OracleEvalError("expected a boolean, got %r" % (v,))
    return v


def _int64(v):
    if not INT64_MIN <= v <= INT64_MAX:
        raise OracleEvalError("integer overflow: result does not fit in 64 bits")
    return v


def _read(state, locals_, name):
    if locals_ and name in locals_:
        return locals_[name]
    if name not in state:
        raise OracleEvalError("unbound variable", name)
    if _is_unset(state[name]):
        raise OracleEvalError("read of uninitialized variable", name)
    return state[name]


def _sequence(state, locals_, name, what):
    seq = _read(state, locals_, name)
    if not isinstance(seq, (list, tuple)):
        raise OracleEvalError(what, name)
    return seq


def eval_reference(state, e, locals_=None):
    """Value of expression e in a data state, by walking the tree; raises
    OracleEvalError where the package raises EvalError."""
    kind = type(e).__name__
    if kind in ("IntLit", "BoolLit", "SymLit"):
        return e.value
    if kind == "Var":
        return _read(state, locals_, e.name)
    if kind == "Index":
        seq = _sequence(state, locals_, e.name, "indexing a non-sequence")
        i = eval_reference(state, e.index, locals_)
        if not _is_int(i):
            raise OracleEvalError("array index must be an integer", e.name)
        if not 0 <= i < len(seq):
            raise OracleEvalError("index %d out of bounds for length %d"
                                  % (i, len(seq)), e.name)
        if _is_unset(seq[i]):
            raise OracleEvalError("read of uninitialized element %d" % i, e.name)
        return seq[i]
    if kind == "Unary":
        v = eval_reference(state, e.operand, locals_)
        return _int64(-_want_int(v)) if e.op == "neg" else not _want_bool(v)
    if kind == "Binary":
        if e.op in ("and", "or"):
            left = _want_bool(eval_reference(state, e.left, locals_))
            if left == (e.op == "or"):
                return left
            return _want_bool(eval_reference(state, e.right, locals_))
        a = eval_reference(state, e.left, locals_)
        b = eval_reference(state, e.right, locals_)
        if e.op in ("==", "!="):
            if type(a) is not type(b):
                raise OracleEvalError("comparison of mismatched types")
            return (a == b) == (e.op == "==")
        a, b = _want_int(a), _want_int(b)
        if e.op in ("/", "%"):
            if b == 0:
                raise OracleEvalError("division by zero")
            # toward zero: the ceiling of the quotient when the signs differ
            q = -(-a // b) if (a < 0) != (b < 0) else a // b
            return _int64(q if e.op == "/" else a - q * b)
        if e.op in ("<", "<=", ">", ">="):
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
        return _int64({"+": a + b, "-": a - b, "*": a * b}[e.op])
    if kind == "Quant":
        lo = eval_reference(state, e.lo, locals_)
        hi = eval_reference(state, e.hi, locals_)
        if not (_is_int(lo) and _is_int(hi)):
            raise OracleEvalError("quantifier bound must be an integer")
        inner = dict(locals_ or {})
        results = []
        for i in range(lo, hi + 1):
            inner[e.var] = i
            body = eval_reference(state, e.body, inner)
            if not isinstance(body, bool):
                raise OracleEvalError("quantifier body is not boolean")
            results.append(body)
            if body != (e.kind == "forall"):
                break
        return all(results) if e.kind == "forall" else any(results)
    if kind == "Len":
        return len(_sequence(state, locals_, e.name, "len of a non-sequence"))
    if kind == "Count":
        seq = _sequence(state, locals_, e.name, "count over a non-sequence")
        x = eval_reference(state, e.value, locals_)
        if not _is_int(x):
            raise OracleEvalError("count needs an integer value")
        return list(seq).count(x)
    raise TypeError("not an expression: %r" % (e,))


# ---------------------------------------------------------------------------
# reference rule image: a rule walked atom by atom on whole copies of the
# state, the way the package computed images before rules were compiled

class RefTape:
    """A tape as plain data: symbols by square, head, direction, blank."""

    def __init__(self, cells, head, direction, blank):
        self.cells, self.head, self.direction, self.blank = dict(cells), head, direction, blank

    def key(self):
        return (frozenset((i, c) for i, c in self.cells.items() if c != self.blank),
                self.head, self.direction, self.blank)


def plain_state(state):
    """A data state with each tape as a RefTape, read through its fields,
    and each stream view as the tuple of its items."""
    def plain(v):
        kind = type(v).__name__
        if kind == "Tape":
            return RefTape(v.cells, v.head, v.direction, v.blank)
        return tuple(v) if kind == "Stream" else v
    return {name: plain(v) for name, v in state.items()}


def state_key(state):
    """Hashable key of a plain state: arrays as tuples, tapes by key()."""
    def value(v):
        if isinstance(v, list):
            return ("arr",) + tuple(("unset",) if _is_unset(x) else x for x in v)
        if isinstance(v, RefTape):
            return ("tape",) + v.key()
        return ("unset",) if _is_unset(v) else v
    return tuple(sorted((name, value(v)) for name, v in state.items()))


def _whole_copy(state):
    return {name: list(v) if isinstance(v, list) else
            RefTape(v.cells, v.head, v.direction, v.blank) if isinstance(v, RefTape) else v
            for name, v in state.items()}


# builtin -> (counter key, stream read, stream written or None); tape builtins have no stream
_STREAM_BUILTINS = {"getL": ("getL", "left", None), "getR": ("getR", "right", None),
                    "ngetL": ("getL", "left", None), "ngetR": ("getR", "right", None),
                    "putL": ("putL", "left", "out"), "putR": ("putR", "right", "out")}
_TAPE_BUILTINS = ("rd", "wr", "dir")


def _stream(state, name):
    if name not in state:
        raise OracleEvalError("stream %r is not declared" % name, name)
    if not isinstance(state[name], tuple):
        raise OracleEvalError("variable %r is not a stream" % name, name)
    return state[name]


def _tape(state):
    tapes = [name for name, v in state.items() if isinstance(v, RefTape)]
    if len(tapes) != 1:
        raise OracleEvalError("tape builtins need exactly one bound tape variable")
    return tapes[0]


def _atom_image(a, state, counts):
    kind = type(a).__name__
    if kind == "Guard":
        b = eval_reference(state, a.expr)
        if not isinstance(b, bool):
            raise OracleEvalError("guard is not boolean")
        return state if b else None
    if kind == "Assign":
        out = _whole_copy(state)
        for target, rhs in a.targets:
            value = eval_reference(out, rhs)
            name = target[1]
            if target[0] == "var":
                if name not in out:
                    raise OracleEvalError("assignment to undeclared variable", name)
                if isinstance(out[name], (list, tuple, RefTape)):
                    raise OracleEvalError("cannot assign a scalar to %r" % name, name)
                out[name] = value
                continue
            arr = out.get(name)
            if not isinstance(arr, list):
                raise OracleEvalError("element assignment needs an array", name)
            i = eval_reference(out, target[2])
            if not _is_int(i):
                raise OracleEvalError("array index must be an integer", name)
            if not 0 <= i < len(arr):
                raise OracleEvalError("index %d out of bounds for length %d" % (i, len(arr)), name)
            arr[i] = value
        return out
    if kind != "Builtin":
        raise TypeError("not a rule atom: %r" % (a,))
    if a.name not in _STREAM_BUILTINS and a.name not in _TAPE_BUILTINS:
        raise OracleEvalError("unknown builtin %r" % a.name)
    key, src, dst = _STREAM_BUILTINS.get(a.name, (a.name, None, None))
    if key not in ("getL", "getR") or not counts.get(key):  # a stream test once per scan
        counts[key] = counts.get(key, 0) + 1
    if src is not None:
        stream = _stream(state, src)
        if a.name.startswith("nget"):
            return None if stream else state
        if a.name.startswith("get"):
            if not stream:
                return None
            out = dict(state)
            out[a.arg] = stream[0]
            return out
        if not stream:
            raise OracleEvalError("%s on an empty stream" % a.name, src)
        sink = _stream(state, dst)
        out = dict(state)
        out[src], out[dst] = stream[1:], sink + stream[:1]
        return out
    name = _tape(state)
    tape = state[name]
    scanned = tape.cells.get(tape.head, tape.blank)
    if a.name == "rd":
        return state if scanned == a.arg else None
    out = _whole_copy(state)
    tape = out[name]
    if a.name == "dir":
        if a.arg not in ("L", "R", "d"):
            raise OracleEvalError("tape direction must be one of L, R, d")
        tape.direction = a.arg
        return out
    tape.cells[tape.head] = a.arg
    tape.head += {"L": -1, "R": 1, "d": 0}[tape.direction]
    return out


def rule_image_reference(rule, state, counts):
    """Successors of a plain state under a rule, one atom or a Seq of atoms:
    [] or [successor].  counts gains one per builtin evaluated, stream tests
    once per call (one scan); raises OracleEvalError where the package
    raises EvalError."""
    for a in (rule.parts if type(rule).__name__ == "Seq" else (rule,)):
        state = _atom_image(a, state, counts)
        if state is None:
            return []
    return [state]


def relation_image_reference(r, state, counts):
    """Successors of a plain state under any tree of Seqs and Unions, in
    stages: a Union's parts each on the state, their successors in part
    order; a Seq's parts one after another, each on every state that the
    part before it left.  Duplicates (by state_key) are dropped after each
    Union and each Seq stage, first occurrences kept, so a later stage runs
    once per distinct state.  counts and errors as in rule_image_reference."""
    kind = type(r).__name__
    if kind == "Union":
        return _distinct_states([d for part in r.parts
                                 for d in relation_image_reference(part, state, counts)])
    if kind != "Seq":
        d = _atom_image(r, state, counts)
        return [] if d is None else [d]
    out = [state]
    for part in r.parts:
        out = _distinct_states([d for mid in out
                                for d in relation_image_reference(part, mid, counts)])
    return out


def _distinct_states(states):
    seen, out = set(), []
    for d in states:
        if state_key(d) not in seen:
            seen.add(state_key(d))
            out.append(d)
    return out


def runs_reference(m, state, depth_bound):
    """All computations of a machine from (start, state), breadth-first up
    to depth_bound transitions, on plain states with tuple streams: one
    (status, controls, states) per computation, in enumerate_runs' order.
    A cell's successors are its rules' images in rule order, duplicates
    dropped; the cells of a column come in m.cells order."""
    frontier = [([m.start], [plain_state(state)])]
    outcomes = []
    for depth in range(depth_bound + 1):
        nxt = []
        for controls, states in frontier:
            if controls[-1] == m.halt:
                outcomes.append(("success", controls, states))
                continue
            succs = []
            for (frm, to), rules in m.cells.items():
                seen = set()
                for rule in rules if frm == controls[-1] else ():
                    for d in rule_image_reference(rule, states[-1], {}):
                        if state_key(d) not in seen:
                            seen.add(state_key(d))
                            succs.append((to, d))
            if not succs:
                outcomes.append(("failure", controls, states))
            elif depth == depth_bound:
                outcomes.append(("steplimit", controls, states))
            else:
                nxt += [(controls + [to], states + [d]) for to, d in succs]
        frontier = nxt
    return outcomes


def det_run_reference(m, state, bound):
    """The deterministic computation of a machine from (start, state) on
    plain states: (status, controls, states, counts, error).  Each scan takes
    the first rule, in m.cells order, with a nonempty image, which must be a
    singleton; one fresh counts dict per scan counts a stream test once per
    scan.  The configuration reached after `bound` transitions is still
    scanned: no successor is failure, one is steplimit.  An evaluation error
    ends the computation with status "error" and error = (message, var)."""
    controls, states, counts = [m.start], [plain_state(state)], {}
    while controls[-1] != m.halt:
        scan = {}
        try:
            succ = _det_scan_reference(m, controls[-1], states[-1], scan)
        except OracleEvalError as exc:
            return "error", controls, states, _add_counts(counts, scan), (exc.message, exc.var)
        _add_counts(counts, scan)
        if succ is None:
            return "failure", controls, states, counts, None
        if len(controls) > bound:
            return "steplimit", controls, states, counts, None
        controls, states = controls + [succ[0]], states + [succ[1]]
    return "success", controls, states, counts, None


def _det_scan_reference(m, control, state, counts):
    for (frm, to), rules in m.cells.items():
        for rule in rules if frm == control else ():
            img = relation_image_reference(rule, state, counts)
            if len(img) > 1:
                raise OracleEvalError("rule %s -> %s has a non-singleton image under the "
                                      "deterministic policy" % (frm, to))
            if img:
                return to, img[0]
    return None


def _add_counts(total, scan):
    for key, n in scan.items():
        total[key] = total.get(key, 0) + n
    return total


# ---------------------------------------------------------------------------
# reference verification: every state of the domain swept in turn, every
# condition evaluated in full by eval_reference, every cell imaged by
# relation_image_reference

class _Unset:
    """The reference's own unset marker; _is_unset knows it by its class name."""

    def __repr__(self):
        return "?"


REF_UNSET = _Unset()


def _located(exc):
    return exc.message + ("" if exc.var is None else " (variable %r)" % exc.var)


def domain_reference(entries, decls):
    """The states of a domain, given as DomainSpec.entries, in enumeration
    order: the scalars in declaration order, then the arrays, then the
    streams, the last varying fastest; a variable with no entry and a tape
    unset, a stream with no entry empty.  A state whose array lengths
    cannot be evaluated is skipped; a negative length is a ValueError."""
    def choices(d):
        entry = entries.get(d.name)
        if entry is None:
            return [()] if d.type == "stream" else [REF_UNSET]
        if entry[0] == "bool":
            return [False, True]
        if entry[0] == "stream":
            (shortest, longest), items = entry[1], entry[2]
            return [w for n in range(shortest, longest + 1)
                    for w in itertools.product(items, repeat=n)]
        return list(entry[1])

    scalars = [d for d in decls if d.type in ("int", "bool", "sym")]
    arrays = [d for d in decls if d.type == "array"]
    streams = [d for d in decls if d.type == "stream"]
    out = []
    for values in itertools.product(*map(choices, scalars)):
        base = {d.name: REF_UNSET for d in decls if d.type == "tape"}
        base.update((d.name, v) for d, v in zip(scalars, values))
        sized = []
        try:
            for d in arrays:
                n = eval_reference(base, d.length)
                if n < 0:
                    raise ValueError("array %r has negative length %d" % (d.name, n))
                sized.append(list(itertools.product(choices(d), repeat=n)))
        except OracleEvalError:
            continue
        for rest in itertools.product(*sized, *map(choices, streams)):
            state = dict(base)
            state.update((d.name, list(v) if d.type == "array" else v)
                         for d, v in zip(arrays + streams, rest))
            out.append(state)
    return out


def verify_reference(vector, m, entries, triples=True, columns=True, cap=3):
    """What verify reports, as plain data: per nonempty cell when triples
    are asked, (frm, to, status, state, post_state, message) of its first
    failing state, and when columns are asked, (control, witnesses, total)
    per non-halt column whose condition holds in states where no cell has a
    successor (a cell that raises has none), else None."""
    def holds(k, state):  # True, False or the error's text
        try:
            value = eval_reference(state, vector[k].expr)
        except OracleEvalError as exc:
            return _located(exc)
        return value if isinstance(value, bool) else (
            "condition %r is not boolean" % vector[k].name)

    def successors(rules, state):  # a list of states, or the error's text
        try:
            return _distinct_states([d for rule in rules
                                     for d in relation_image_reference(rule, state, {})])
        except OracleEvalError as exc:
            return _located(exc)

    cells = [key for key, rules in m.cells.items() if rules] if triples else []
    first = dict.fromkeys(cells)
    stuck = {k: ([], [0]) for k in m.states if columns and k != m.halt}
    for state in domain_reference(entries, m.decls):
        for frm, to in cells:
            pre = holds(frm, state) if first[frm, to] is None else False
            if pre is True:
                outs = successors(m.cells[frm, to], state)
                if isinstance(outs, str):
                    first[frm, to] = ("error", state, None, "cell evaluation: " + outs)
                for out in [] if isinstance(outs, str) else outs:
                    post = holds(to, out)
                    if post is not True:
                        first[frm, to] = ("counterexample", state, out, None) if post is False \
                            else ("error", state, out, "postcondition %s: %s" % (to, post))
                        break
            elif pre is not False:
                first[frm, to] = ("error", state, None, "precondition %s: %s" % (frm, pre))
        for k, (witnesses, total) in stuck.items():
            if holds(k, state) is not True:
                continue
            moves = [successors(rules, state) for (frm, _to), rules in m.cells.items()
                     if frm == k and rules]
            if not any(outs and not isinstance(outs, str) for outs in moves):
                total[0] += 1
                if len(witnesses) < cap:
                    witnesses.append(state)
    checks = [(frm, to) + (first[frm, to] or ("holds", None, None, None)) for frm, to in cells]
    return checks, ([(k, w, total[0]) for k, (w, total) in stuck.items() if total[0]]
                    if columns else None)
