"""Finite semantics for regular expressions and both machine theorems.

Two interpretations of the regular-expression signature (0, 1, +, ., *):

  - FiniteRelation: binary relations over {0..n-1}; 1 is the identity,
    '.' is relational composition, '*' the reflexive-transitive closure.
  - BoundedLanguage: sets of words truncated to a length bound; 1 is {e},
    '.' concatenation, '*' the Kleene star.  All operations silently drop
    words longer than the bound, so equalities are asserted only on the
    words within it.

On top of those: the algebraic identity suite with randomized environments
(including the two deliberately wrong denesting variants kept around as
counterexample generators), finite-state machines with word-set matrices,
and the closure characterizations of both machine kinds, each computed two
independent ways so the implementations can serve as each other's oracle:
the [start, halt] entry of matrix_closure, and one breadth-first search of
the configuration graph (_search) that never calls the closure code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .values import EvalError, freeze_state
from .verifier import enumerate_states, transitions


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

    def power(self, k):
        return _power(self, FiniteRelation.identity(self.n), k)

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


def _power(x, one, k):
    acc = one
    for _ in range(k):
        acc = acc.then(x)
    return acc


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
        out = set()
        for a in self.words:
            for b in other.words:
                if len(a) + len(b) <= self.bound:
                    out.add(a + b)
        return _language(self.bound, frozenset(out))

    def star(self):
        return _star(self, BoundedLanguage.unit(self.bound))

    def power(self, k):
        return _power(self, BoundedLanguage.unit(self.bound), k)

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
    """Interpret a regular expression in the algebra of the environment.

    env maps constant names to FiniteRelation or BoundedLanguage values;
    zero and one are the corresponding 0 and 1 elements.
    """
    if isinstance(e, RZero):
        return zero
    if isinstance(e, ROne):
        return one
    if isinstance(e, RConst):
        if e.name not in env:
            raise KeyError("unbound regular-expression constant %r" % e.name)
        return env[e.name]
    if isinstance(e, RPlus):
        return interp(e.left, env, zero, one).union(interp(e.right, env, zero, one))
    if isinstance(e, RDot):
        return interp(e.left, env, zero, one).then(interp(e.right, env, zero, one))
    if isinstance(e, RStar):
        return interp(e.operand, env, zero, one).star()
    if isinstance(e, RPower):
        if e.n == 0:
            return one
        v = interp(e.operand, env, zero, one)
        return v.power(e.n)
    if isinstance(e, RRepeat):
        if e.n <= 0:
            raise ValueError("nE needs n > 0")
        return interp(e.operand, env, zero, one)  # + is idempotent
    if isinstance(e, RPowerLess):
        v = interp(e.operand, env, zero, one)
        acc = one
        p = one
        for _ in range(1, e.n):
            p = p.then(v)
            acc = acc.union(p)
        return acc
    if isinstance(e, RSum):
        acc = zero
        for t in e.terms:
            acc = acc.union(interp(t, env, zero, one))
        return acc
    raise TypeError("not a regular expression: %r" % (e,))


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
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    results = []
    for semantics in ("relations", "languages"):
        rng = random.Random(seed if semantics == "relations" else seed + 1)
        laws = {}
        for trial in range(trials):
            all_laws = [(name, lhs, rhs, False) for name, lhs, rhs in _n_law(rng.randint(1, 3))]
            all_laws += [(name, lhs, rhs, True) for name, lhs, rhs in PRINTED_VARIANTS]
            if semantics == "relations":
                n = rng.randint(1, 3)
                env = {v: _random_relation(rng, n) for v in "EFG"}
                ev = lambda t: interp_relations(t, env, n)
                shows = lambda v: sorted(v.pairs)
            else:
                bound = rng.randint(2, 4)
                alphabet = "ab"[: rng.randint(1, 2)]
                env = {v: _random_language(rng, bound, alphabet) for v in "EFG"}
                ev = lambda t: interp_languages(t, env, bound)
                shows = lambda v: sorted(v.words)
            for name, lhs, rhs, expected_failure in all_laws:
                rec = laws.setdefault(name, LawResult(name, semantics, 0, 0,
                                                      expected_failure=expected_failure))
                rec.trials += 1
                lv, rv = ev(lhs), ev(rhs)
                if lv != rv:
                    rec.failures += 1
                    if rec.first_counterexample is None:
                        rec.first_counterexample = (
                            "env %s: lhs %s != rhs %s"
                            % ({k: shows(v) for k, v in env.items()},
                               shows(lv), shows(rv)))
            _check_monotonic(rng, semantics, env, ev, laws)
        results.extend(laws.values())
    return results


def _check_monotonic(rng, semantics, env, ev, laws):
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
    closed = matrix_closure(fsm.states, delta, BoundedLanguage.unit(bound))
    return closed.get((fsm.start, fsm.halt), BoundedLanguage.empty(bound)).words


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
    control pairs to FiniteRelation over data-state indices, read off
    verifier.transitions with no conditions; the first error raises.
    Successor states outside the domain are dropped, i.e. every cell is
    restricted to D x D.
    """
    states = list(enumerate_states(dom, m.decls))
    index = {freeze_state(d): i for i, d in enumerate(states)}
    rows = {key: {} for key, rules in m.cells.items() if rules}
    for i, (_d, columns) in enumerate(transitions(m, states, dict.fromkeys(m.states))):
        for frm, cells in columns:
            for to, outputs in cells:
                if isinstance(outputs, EvalError):
                    raise outputs
                for out in outputs:
                    j = index.get(freeze_state(out))
                    if j is not None:
                        _add(rows[frm, to], i, j)
    n = len(states)
    return states, {key: _relation(n, r) for key, r in rows.items() if r}


def matrix_closure(control_states, cells, one):
    """Closure I + M + M^2 + ... of a K-indexed matrix of finite relations
    or bounded languages (one is the algebra's 1, absent entries are zero),
    by state elimination in control_states order (Conway's block formula):
    step k adds (i, k);(k, k)*;(k, j) to each entry (i, j), reading row and
    column k as they were before it.  This leaves M + M^2 + ..., and one on
    the diagonal completes it.  It is exact without iterating because the
    denesting laws of _n_law hold in both algebras (acceptance criterion 7)."""
    acc = dict(cells)
    for k in control_states:
        loop = acc[k, k].star() if (k, k) in acc else one
        into = [(i, cell.then(loop)) for (i, j), cell in acc.items() if j == k]
        out = [(j, cell) for (i, j), cell in acc.items() if i == k]
        for i, head in into:
            for j, tail in out:
                path = head.then(tail)
                acc[i, j] = acc[i, j].union(path) if (i, j) in acc else path
    for k in control_states:
        acc[k, k] = acc[k, k].union(one) if (k, k) in acc else one
    return acc


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
    closed = matrix_closure(m.states, cells, FiniteRelation.identity(n))
    by_closure = closed.get((m.start, m.halt), FiniteRelation.empty(n)).pairs
    by_search = _reachability(m.states, cells, n, m.start, m.halt)
    return states, by_closure, by_search
