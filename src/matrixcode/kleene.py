"""Finite semantics for regular expressions and both machine theorems.

Two interpretations of the regular-expression signature (0, 1, +, ., *):

  - FiniteRelation: binary relations over {0..n-1}; 1 is the identity,
    '.' is relational composition, '*' the reflexive-transitive closure.
  - BoundedLanguage: sets of words truncated to a length bound; 1 is {e},
    '.' concatenation, '*' the Kleene star.  All operations silently drop
    words longer than the bound, so equalities are asserted only on the
    words within it.

A term is evaluated as a graph of its distinct subterms, each computed
once.  On top of that: the algebraic identity suite with randomized
environments (including the two deliberately wrong denesting variants kept
around as counterexample generators), one term graph per law set, so that
the laws' shared subterms are computed once per environment; finite-state
machines with word-set matrices; and the closure characterizations of both
machine kinds, each computed two independent ways so the implementations
can serve as each other's oracle: the [start, halt] entry alone, which
matrix_closure computes by eliminating every control state between a fresh
source and sink, and one breadth-first search of the configuration graph
(_search) that never calls the closure code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .relations import image
from .values import freeze_state
from .verifier import enumerate_states


class FiniteRelation:
    """A binary relation over {0..n-1}, stored as one int per nonempty row.

    rows maps a to (lo, bits), where bit 0 of bits is set and (a, lo + k)
    is in the relation iff bit k of bits is set.  A row costs the span of
    its own pairs, not n bits, and every row is normalised, so two equal
    relations have equal rows.  Composition ORs whole rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n, pairs):
        rows = {}
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("pair (%d, %d) outside [0, %d)" % (a, b, n))
            _add(rows, a, b)
        self.n = n
        self.rows = rows

    @classmethod
    def empty(cls, n):
        return _relation(n, {})

    @classmethod
    def identity(cls, n):
        return _relation(n, {i: (i, 1) for i in range(n)})

    @property
    def pairs(self):
        return frozenset((a, b) for a, (lo, bits) in self.rows.items()
                         for b in _members(lo, bits))

    def union(self, other):
        _same_n(self, other)
        out = dict(self.rows)
        for a, row in other.rows.items():
            mine = out.get(a)
            out[a] = row if mine is None else _or(mine, row)
        return _relation(self.n, out)

    def then(self, other):
        _same_n(self, other)
        right = other.rows
        out = {}
        for a, (lo, bits) in self.rows.items():
            at = None  # the union so far is the row (at, acc)
            while bits:
                low = bits & -bits
                row = right.get(lo + low.bit_length() - 1)
                bits ^= low
                if row is None:
                    continue
                b_lo, b_bits = row
                if at is None:
                    at, acc = row
                elif b_lo >= at:
                    acc |= b_bits << (b_lo - at)
                else:
                    at, acc = b_lo, b_bits | acc << (at - b_lo)
            if at is not None:
                out[a] = at, acc
        return _relation(self.n, out)

    def star(self):
        return closure(self)

    def included_in(self, other):
        right = other.rows
        for a, (lo, bits) in self.rows.items():
            row = right.get(a)
            if row is None or lo < row[0] or bits & ~(row[1] >> (lo - row[0])):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, FiniteRelation):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, frozenset(self.rows.items())))

    def __repr__(self):
        return "FiniteRelation(n=%r, pairs=%r)" % (self.n, self.pairs)


def _relation(n, rows):
    """A FiniteRelation from normalised rows that lie inside [0, n)."""
    rel = object.__new__(FiniteRelation)
    rel.n = n
    rel.rows = rows
    return rel


def _same_n(x, y):
    """Refuse to combine relations over different ranges."""
    if x.n != y.n:
        raise ValueError("relations over [0, %d) and [0, %d)" % (x.n, y.n))


def _add(rows, a, b):
    """Put the pair (a, b) into rows."""
    row = rows.get(a)
    rows[a] = (b, 1) if row is None else _or(row, (b, 1))


def _or(x, y):
    """The normalised union of two rows."""
    if x[0] <= y[0]:
        return x[0], x[1] | y[1] << (y[0] - x[0])
    return y[0], y[1] | x[1] << (x[0] - y[0])


def _members(lo, bits):
    """The columns of a row, lowest first."""
    while bits:
        low = bits & -bits
        yield lo + low.bit_length() - 1
        bits ^= low


def closure(r):
    """Least reflexive-transitive superset: the fixpoint of X -> I + X;r."""
    return _star(r, FiniteRelation.identity(r.n))


def _star(x, one):
    """Fixpoint of X -> 1 + X.x, starting from 1, in either algebra."""
    acc = one
    while True:
        nxt = acc.union(acc.then(x))
        if nxt == acc:
            return acc
        acc = nxt


EMPTY_WORD = ""


@dataclass(frozen=True)
class BoundedLanguage:
    bound: int
    words: frozenset

    def __post_init__(self):
        for w in self.words:
            if len(w) > self.bound:
                raise ValueError("word %r longer than bound %d" % (w, self.bound))

    @classmethod
    def empty(cls, bound):
        return cls(bound, frozenset())

    @classmethod
    def unit(cls, bound):
        return cls(bound, frozenset([EMPTY_WORD]))

    @classmethod
    def of(cls, bound, words):
        return cls(bound, frozenset(w for w in words if len(w) <= bound))

    def union(self, other):
        return _language(self.bound, self.words | other.words)

    def then(self, other):
        """Concatenations within the bound: each word meets only the words
        short enough to follow it, shortest first."""
        tails = sorted(other.words, key=len)
        out = []
        for a in self.words:
            room = self.bound - len(a)
            for b in tails:
                if len(b) > room:
                    break
                out.append(a + b)
        return _language(self.bound, frozenset(out))

    def star(self):
        return _star(self, BoundedLanguage.unit(self.bound))

    def included_in(self, other):
        return self.words <= other.words


def _language(bound, words):
    """A BoundedLanguage whose words are known to fit the bound."""
    lang = object.__new__(BoundedLanguage)
    object.__setattr__(lang, "bound", bound)
    object.__setattr__(lang, "words", words)
    return lang


# ---------------------------------------------------------------------------
# regular expressions

@dataclass(frozen=True)
class RZero:
    pass


@dataclass(frozen=True)
class ROne:
    pass


@dataclass(frozen=True)
class RConst:
    name: str


@dataclass(frozen=True)
class RPlus:
    left: object
    right: object


@dataclass(frozen=True)
class RDot:
    left: object
    right: object


@dataclass(frozen=True)
class RStar:
    operand: object


@dataclass(frozen=True)
class RPower:
    operand: object
    n: int


@dataclass(frozen=True)
class RRepeat:
    n: int
    operand: object  # nE = E + ... + E, n times


@dataclass(frozen=True)
class RPowerLess:
    operand: object
    n: int  # E^{<n} = E^0 + E^1 + ... + E^{n-1}


@dataclass(frozen=True)
class RSum:
    terms: tuple


def interp(e, env, zero, one):
    """Interpret a regular expression in the algebra of the environment:
    env maps constant names to FiniteRelation or BoundedLanguage values, and
    zero and one are the corresponding 0 and 1 elements."""
    nodes, (root,) = _term_graph([e])
    return _evaluate(nodes, env, zero, one)[root]


def _term_graph(terms):
    """Each distinct subterm of terms once, as (kind, arg, operand indices),
    operands first, and each term's node index.  Terms are written in 0, 1,
    +, . and * over constants: nE (n > 0) is E, E^n is 1.E...E, E^{<n} is
    1 + ... + E^{n-1}, a sum 0 + E1 + ... + Ek; an error raises when reached."""
    known = {}  # node -> index, in the order a left-to-right walk ends them

    def node(kind, arg, operands=()):
        return known.setdefault((kind, arg, operands), len(known))

    def visit(e):
        if isinstance(e, (RPlus, RDot)):
            return node(type(e), None, (visit(e.left), visit(e.right)))
        if isinstance(e, RStar):
            return node(RStar, None, (visit(e.operand),))
        if isinstance(e, RConst):
            return node(RConst, e.name)
        if isinstance(e, (RZero, ROne)):
            return node(type(e), None)
        if isinstance(e, RPower):
            x = visit(e.operand) if e.n else None  # E^0 reads no E
            p = node(ROne, None)
            for _ in range(e.n):
                p = node(RDot, None, (p, x))
            return p
        if isinstance(e, RPowerLess):
            x = visit(e.operand)
            acc = p = node(ROne, None)
            for _ in range(1, e.n):
                p = node(RDot, None, (p, x))
                acc = node(RPlus, None, (acc, p))
            return acc
        if isinstance(e, RSum):
            acc = node(RZero, None)
            for t in e.terms:
                acc = node(RPlus, None, (acc, visit(t)))
            return acc
        if isinstance(e, RRepeat):  # + is idempotent
            return visit(e.operand) if e.n > 0 else node(None, ValueError("nE needs n > 0"))
        return node(None, TypeError("not a regular expression: %r" % (e,)))

    roots = [visit(e) for e in terms]
    return list(known), roots


def _evaluate(nodes, env, zero, one):
    """The value of every node of a term graph, each computed once."""
    values = []
    for kind, arg, operands in nodes:
        args = [values[i] for i in operands]
        if kind is RDot:
            v = args[0].then(args[1])
        elif kind is RPlus:
            v = args[0].union(args[1])
        elif kind is RStar:
            v = args[0].star()
        elif kind is RConst:
            if arg not in env:
                raise KeyError("unbound regular-expression constant %r" % arg)
            v = env[arg]
        elif kind is RZero or kind is ROne:
            v = zero if kind is RZero else one
        else:
            raise arg
        values.append(v)
    return values


def interp_relations(e, env, n):
    return interp(e, env, FiniteRelation.empty(n), FiniteRelation.identity(n))


def interp_languages(e, env, bound):
    return interp(e, env, BoundedLanguage.empty(bound), BoundedLanguage.unit(bound))


# ---------------------------------------------------------------------------
# identity suite

E, F, G = RConst("E"), RConst("F"), RConst("G")


def _n_law(n):
    return [
        ("plus commutative", RPlus(E, F), RPlus(F, E)),
        ("plus idempotent", RPlus(E, E), E),
        ("dot distributes left", RDot(E, RPlus(F, G)), RPlus(RDot(E, F), RDot(E, G))),
        ("dot distributes right", RDot(RPlus(F, G), E), RPlus(RDot(F, E), RDot(G, E))),
        ("dot associative", RDot(E, RDot(F, G)), RDot(RDot(E, F), G)),
        ("zero is plus unit", RPlus(RZero(), E), E),
        ("one is dot unit", RDot(ROne(), E), E),
        ("one is dot unit (right)", RDot(E, ROne()), E),
        ("zero annihilates", RDot(RZero(), E), RZero()),
        ("zero annihilates (right)", RDot(E, RZero()), RZero()),
        ("star of star", RStar(RStar(E)), RStar(E)),
        ("sum denesting", RStar(RPlus(E, F)), RDot(RStar(RDot(RStar(E), F)), RStar(E))),
        ("product denesting", RStar(RDot(E, F)),
         RPlus(ROne(), RDot(RDot(E, RStar(RDot(F, E))), F))),
        ("power decomposition", RStar(E),
         RDot(RStar(RPower(E, n)), RPowerLess(E, n))),
    ]


PRINTED_VARIANTS = [
    ("sum denesting as printed", RStar(RPlus(E, F)),
     RDot(RDot(RStar(E), F), RStar(E))),
    ("product denesting as printed", RStar(RDot(E, F)),
     RPlus(ROne(), RDot(RDot(E, RStar(RDot(F, E))), E))),
]


@dataclass
class LawResult:
    law: str
    semantics: str
    trials: int
    failures: int
    first_counterexample: str = None
    expected_failure: bool = False

    @property
    def ok(self):
        return (self.failures > 0) if self.expected_failure else (self.failures == 0)


def _random_relation(rng, n):
    count = rng.randint(0, n * n)
    pool = [(a, b) for a in range(n) for b in range(n)]
    return FiniteRelation(n, frozenset(rng.sample(pool, count)))


def _random_language(rng, bound, alphabet):
    pool = [EMPTY_WORD]
    for a in alphabet:
        pool.append(a)
        for b in alphabet:
            pool.append(a + b)
    count = rng.randint(0, min(len(pool), 4))
    return BoundedLanguage(bound, frozenset(rng.sample(pool, count)))


def check_identities(seed=0, trials=200):
    """Randomized check of the identity suite under both semantics.

    The two printed denesting variants are included with expected_failure
    set: the report records a counterexample for each rather than hiding
    the discrepancy.  Also checks monotonicity of +, ., * under inclusion.
    Each law set is one term graph, evaluated once per environment.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    law_sets = {}
    for n in (1, 2, 3):
        laws = [(name, lhs, rhs, False) for name, lhs, rhs in _n_law(n)]
        laws += [(name, lhs, rhs, True) for name, lhs, rhs in PRINTED_VARIANTS]
        nodes, roots = _term_graph([t for _name, lhs, rhs, _x in laws for t in (lhs, rhs)])
        law_sets[n] = nodes, list(zip(laws, roots[::2], roots[1::2]))
    results = []
    for semantics in ("relations", "languages"):
        rng = random.Random(seed if semantics == "relations" else seed + 1)
        laws = {}
        for trial in range(trials):
            nodes, checks = law_sets[rng.randint(1, 3)]
            if semantics == "relations":
                n = rng.randint(1, 3)
                env = {v: _random_relation(rng, n) for v in "EFG"}
                zero, one = FiniteRelation.empty(n), FiniteRelation.identity(n)
                shows = lambda v: sorted(v.pairs)
            else:
                bound = rng.randint(2, 4)
                alphabet = "ab"[: rng.randint(1, 2)]
                env = {v: _random_language(rng, bound, alphabet) for v in "EFG"}
                zero, one = BoundedLanguage.empty(bound), BoundedLanguage.unit(bound)
                shows = lambda v: sorted(v.words)
            values = _evaluate(nodes, env, zero, one)
            for (name, _lhs, _rhs, expected_failure), lhs, rhs in checks:
                rec = laws.setdefault(name, LawResult(name, semantics, 0, 0,
                                                      expected_failure=expected_failure))
                rec.trials += 1
                lv, rv = values[lhs], values[rhs]
                if lv != rv:
                    rec.failures += 1
                    if rec.first_counterexample is None:
                        rec.first_counterexample = (
                            "env %s: lhs %s != rhs %s"
                            % ({k: shows(v) for k, v in env.items()},
                               shows(lv), shows(rv)))
            _check_monotonic(semantics, env, laws)
        results.extend(laws.values())
    return results


def _check_monotonic(semantics, env, laws):
    rec = laws.setdefault("monotonicity", LawResult("monotonicity", semantics, 0, 0))
    rec.trials += 1
    small = env["E"]
    big = small.union(env["F"])  # small <= big by construction
    other = env["G"]
    checks = [
        small.union(other).included_in(big.union(other)),
        small.then(other).included_in(big.then(other)),
        other.then(small).included_in(other.then(big)),
        small.star().included_in(big.star()),
    ]
    if not all(checks):
        rec.failures += 1
        if rec.first_counterexample is None:
            rec.first_counterexample = "env %r" % (env,)


def render_identity_report(results):
    lines = []
    for r in results:
        status = "ok" if r.ok else "FAIL"
        note = ""
        if r.expected_failure:
            note = (" (wrong on purpose; counterexample found)" if r.failures
                    else " (wrong on purpose; NO counterexample found)")
        lines.append("%-4s %-10s  %-28s %d/%d trials failed%s"
                     % (status, r.semantics, r.law, r.failures, r.trials, note))
        if r.failures and r.first_counterexample and r.expected_failure:
            lines.append("       e.g. %s" % r.first_counterexample)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# finite-state machines

@dataclass(frozen=True)
class FSM:
    states: tuple
    alphabet: tuple
    delta: dict  # (from, to) -> frozenset of words
    start: str
    halt: str

    def __post_init__(self):
        states, letters = set(self.states), set(self.alphabet)
        for name in (self.start, self.halt, *(end for key in self.delta for end in key)):
            if name not in states:
                raise ValueError("%r is not one of the states" % (name,))
        for (frm, to), words in self.delta.items():
            if to == self.start and words:
                raise ValueError("no transition may enter the start state")
            if frm == self.halt and words:
                raise ValueError("no transition may leave the halt state")
            if not set("".join(words)) <= letters:
                raise ValueError("a word from %s to %s has a letter outside the alphabet"
                                 % (frm, to))


def fsm_language(fsm, bound):
    """Accepted words of length <= bound, computed two independent ways:
    (a) the [start, halt] entry of the closed word-set matrix, and
    (b) breadth-first search over FSM configurations."""
    return _fsm_language_matrix(fsm, bound), _fsm_language_search(fsm, bound)


def _fsm_language_matrix(fsm, bound):
    delta = {key: BoundedLanguage.of(bound, words)
             for key, words in fsm.delta.items() if words}
    entry = matrix_closure(fsm.states, delta, BoundedLanguage.unit(bound), fsm.start, fsm.halt)
    return frozenset() if entry is None else entry.words


def _fsm_language_search(fsm, bound):
    def successors(cfg):
        k, w = cfg
        return [(to, w + u) for (frm, to), words in fsm.delta.items() if frm == k
                for u in words if len(w) + len(u) <= bound]

    reached = _search((fsm.start, EMPTY_WORD), successors)
    return frozenset(w for k, w in reached if k == fsm.halt)


def _search(start, successors):
    """Every configuration reachable from start, each once, in breadth-first
    order; successors(cfg) lists the configurations one step from cfg."""
    seen = {start}
    reached = [start]
    for cfg in reached:
        for nxt in successors(cfg):
            if nxt not in seen:
                seen.add(nxt)
                reached.append(nxt)
    return reached


# ---------------------------------------------------------------------------
# finite dual-state machines: R = closure(delta)[S, H] two ways

def tabulate(m, dom):
    """Explicit finite matrix of a code matrix over an enumerable domain.

    Returns (state_list, index_matrix) where index_matrix maps (from, to)
    control pairs to FiniteRelation over data-state indices.  Every cell
    is imaged on each state as it is enumerated, column by column in
    control-state order, and the first error raises before any state is
    indexed.  Successor states outside the domain are dropped, i.e. every
    cell is restricted to D x D.
    """
    cells = [(k, to, rel) for k in m.states for to, _rules, rel in m.column(k)]
    states, images = [], []
    for d in enumerate_states(dom, m.decls):
        images.append([image(rel, d) for _k, _to, rel in cells])
        states.append(d)
    index = {freeze_state(d): i for i, d in enumerate(states)}
    rows = {key: {} for key, rules in m.cells.items() if rules}
    for i, outputs in enumerate(images):
        for (k, to, _rel), outs in zip(cells, outputs):
            for out in outs:
                j = index.get(freeze_state(out))
                if j is not None:
                    _add(rows[k, to], i, j)
    n = len(states)
    return states, {key: _relation(n, r) for key, r in rows.items() if r}


def matrix_closure(control_states, cells, one, start, halt):
    """The [start, halt] entry of the closure I + M + M^2 + ... of a
    K-indexed matrix of finite relations or bounded languages (one is the
    algebra's 1, absent entries are zero), or None if no cells join them.
    A fresh source enters start and halt leaves to a fresh sink, both by
    one, and each control state k is eliminated in order (Conway's block
    formula): every entry (i, j) left gains (i, k);(k, k)*;(k, j), and k's
    row and column are dropped.  This is exact without iterating because
    _n_law's denesting laws hold in both algebras (acceptance criterion 7)."""
    source, sink = object(), object()
    rows = {source: {start: one}}  # i -> {j: entry (i, j)}
    for (i, j), cell in cells.items():
        rows.setdefault(i, {})[j] = cell
    rows.setdefault(halt, {})[sink] = one
    for k in control_states:
        out = rows.pop(k, {})
        loop = out.pop(k).star() if k in out else None
        for row in rows.values():
            head = row.pop(k, None)
            if head is None:
                continue
            if loop is not None:
                head = loop if head is one else head.then(loop)  # 1.x = x = x.1
            for j, tail in out.items():
                path = tail if head is one else head if tail is one else head.then(tail)
                row[j] = row[j].union(path) if j in row else path
    return rows[source].get(sink)


def _reachability(control_states, cells, n, start, halt):
    """Configuration-graph search: all (d, d') with a path (start, d) ->*
    (halt, d').  Independent of the matrix-closure computation."""
    succ = {(k, a): [] for k in control_states for a in range(n)}
    for (frm, to), rel in cells.items():
        for a, (lo, bits) in rel.rows.items():
            succ[frm, a].extend((to, b) for b in _members(lo, bits))
    return frozenset((d, b) for d in range(n)
                     for k, b in _search((start, d), succ.__getitem__) if k == halt)


def finite_dsm_relation(m, dom):
    """The relation computed by the machine over a finite domain, twice:
    via closure of the tabulated matrix and via configuration-graph
    reachability.  Returns (states, by_closure, by_search)."""
    states, cells = tabulate(m, dom)
    n = len(states)
    entry = matrix_closure(m.states, cells, FiniteRelation.identity(n), m.start, m.halt)
    by_closure = frozenset() if entry is None else entry.pairs
    by_search = _reachability(m.states, cells, n, m.start, m.halt)
    return states, by_closure, by_search
