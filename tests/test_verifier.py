import gc
import random
import weakref

import pytest

from conftest import fixture_path, initial_state
from oracles import brute_force_triple, plain_state, state_key, stuck_states, verify_reference

import matrixcode as mc
from matrixcode.dsl import parse_path
from matrixcode.expr import MAX_NESTING, Binary, BoolLit, Index, IntLit, Len, SymLit, Var
from matrixcode.matrix import CodeMatrix, VarDecl
from matrixcode.relations import Assign, Builtin, Guard, seq_of, union_of
from matrixcode.verifier import (COUNTEREXAMPLE, ERROR, Condition, DomainSpec, check_triple,
                                 check_vector, completeness, enumerate_states, monitor, verify)

X = Var("x")
XDECL = (VarDecl("x", "int", "var"),)


def assign_x(expr):
    return Assign(((("var", "x"), expr),))


def dom_x(lo, hi):
    return DomainSpec({"x": ("int", tuple(range(lo, hi + 1)))})


def expr_even(v):
    return Binary("==", Binary("%", v, IntLit(2)), IntLit(0))


# -- check_triple -----------------------------------------------------------------

def test_parity_is_preserved_by_adding_two():
    result = check_triple(expr_even(X), assign_x(Binary("+", X, IntLit(2))),
                          expr_even(X), dom_x(-4, 4), XDECL)
    assert result.holds


def test_violation_returns_the_first_input_output_pair():
    result = check_triple(BoolLit(True), assign_x(IntLit(1)),
                          Binary("==", X, IntLit(2)), dom_x(0, 3), XDECL)
    assert result.status == COUNTEREXAMPLE
    assert result.state == {"x": 0}
    assert result.post_state == {"x": 1}


def test_candidate_initialization_triple_holds(primes):
    # {A and k < N} j = p[k-1] + 2; n = 0 {B} over N <= 4, p entries <= 7
    v = primes.vector
    pre = Binary("and", v["A"].expr, Binary("<", Var("k"), Var("N")))
    rel = primes.matrix.cell_relation("A", "B")
    result = check_triple(pre, rel, v["B"], primes.domain, primes.matrix.decls)
    assert result.holds


def test_restart_rule_triple_holds_nonvacuously(primes):
    # column C's self-rule on a domain where it actually fires (j = 9 at k = 4)
    m = parse_path(mc.corpus_path("primes")).matrix
    dom = DomainSpec({
        "N": ("int", (5,)),
        "k": ("int", (4,)),
        "j": ("int", tuple(range(4, 14))),
        "n": ("int", (0, 1, 2)),
        "p": ("array", (2, 3, 5, 7)),
    })
    vec = parse_path(mc.corpus_path("primes")).vector
    rel = m.cell_relation("C", "C")
    fires = 0
    for state in enumerate_states(dom, m.decls):
        try:
            if vec["C"].holds_on(state) and mc.image(rel, state):
                fires += 1
        except mc.EvalError:
            pass
    assert fires > 0
    result = check_triple(vec["C"], rel, vec["C"], dom, m.decls)
    assert result.holds


def test_error_outcomes_are_distinct_from_violations():
    rel = assign_x(Binary("/", IntLit(1), X))
    result = check_triple(BoolLit(True), rel, BoolLit(True), dom_x(0, 2), XDECL)
    assert result.status == ERROR
    assert "division by zero" in result.message


def test_agrees_with_set_arithmetic_oracle():
    rng = random.Random(511)
    for _ in range(200):
        n = rng.randint(1, 16)
        pre_set = {v for v in range(n) if rng.random() < 0.5}
        post_set = {v for v in range(n) if rng.random() < 0.5}
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        rel = union_of([seq_of([Guard(Binary("==", X, IntLit(a))), assign_x(IntLit(b))])
                        for a, b in sorted(pairs)]) if pairs else Guard(BoolLit(False))
        def member(values):
            out = BoolLit(False)
            for v in sorted(values):
                out = Binary("or", out, Binary("==", X, IntLit(v)))
            return out
        result = check_triple(member(pre_set), rel, member(post_set),
                              dom_x(0, n - 1), XDECL)
        assert result.holds == brute_force_triple(pre_set, pairs, post_set)


def test_triple_errors_name_the_column():
    rel = assign_x(IntLit(0))
    inverse = Binary("==", Binary("/", IntLit(1), X), IntLit(1))  # raises at x = 0
    for pre, post, message in (
            (inverse, BoolLit(True), "precondition P: division by zero"),
            (BoolLit(True), inverse, "postcondition Q: division by zero"),
            (X, BoolLit(True), "precondition P: condition 'P' is not boolean")):
        result = check_triple(pre, rel, post, dom_x(0, 1), XDECL)
        assert result.status == ERROR
        assert result.message.startswith(message)


def test_monotone_in_the_postcondition():
    rng = random.Random(512)
    for _ in range(100):
        n = 8
        pre = {v for v in range(n) if rng.random() < 0.5}
        q = {v for v in range(n) if rng.random() < 0.4}
        q_wider = q | {v for v in range(n) if rng.random() < 0.4}
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(6)}
        rel = union_of([seq_of([Guard(Binary("==", X, IntLit(a))), assign_x(IntLit(b))])
                        for a, b in sorted(pairs)])
        def member(values):
            out = BoolLit(False)
            for v in sorted(values):
                out = Binary("or", out, Binary("==", X, IntLit(v)))
            return out
        narrow = check_triple(member(pre), rel, member(q), dom_x(0, n - 1), XDECL)
        if narrow.holds:
            wide = check_triple(member(pre), rel, member(q_wider),
                                dom_x(0, n - 1), XDECL)
            assert wide.holds


# -- check_vector ------------------------------------------------------------------

def test_prime_vector_holds_exhaustively(primes_vector_report):
    report = primes_vector_report
    assert report.holds
    assert len(report.checks) == 7


def test_weakening_the_halt_condition_preserves_the_vector(primes):
    vector = dict(primes.vector)
    vector["H"] = Condition("H", "anything", BoolLit(True))
    dom = primes.domain.merged(DomainSpec({"j": ("int", (0, 5, 7)),
                                           "n": ("int", (0, 1))}))
    report = check_vector(vector, primes.matrix, dom)
    assert report.holds


def test_dropping_k_bound_breaks_the_halt_proof(primes):
    # without "k <= N" the A condition admits k > N states, where its own
    # quantifier runs past the end of p: the A -> H cell stops holding and
    # the failure is reported distinctly as an evaluation error
    def conjuncts(e):
        if isinstance(e, Binary) and e.op == "and":
            return conjuncts(e.left) + conjuncts(e.right)
        return [e]

    def is_k_bound(e):
        return (isinstance(e, Binary) and e.op == "<="
                and e.left == Var("k") and e.right == Var("N"))

    v = dict(primes.vector)
    kept = [c for c in conjuncts(v["A"].expr) if not is_k_bound(c)]
    assert len(kept) == len(conjuncts(v["A"].expr)) - 1
    weakened = kept[0]
    for c in kept[1:]:
        weakened = Binary("and", weakened, c)
    v["A"] = Condition("A", "missing k bound", weakened)
    dom = primes.domain.merged(DomainSpec({
        "k": ("int", (2, 3, 4, 5)),
        "j": ("int", (0, 5)),
        "n": ("int", (0,)),
    }))
    report = check_vector(v, primes.matrix, dom)
    assert not report.holds
    failing = {(c.frm, c.to): c.result for c in report.failing()}
    assert ("S", "A") not in failing  # initialization still establishes A
    assert ("A", "H") in failing
    assert failing[("A", "H")].status == ERROR
    assert "out of bounds" in failing[("A", "H")].message


def test_corrupted_store_yields_a_counterexample():
    pf = parse_path(fixture_path("corrupted-primes.mxc"))
    dom = pf.domain.merged(DomainSpec({"j": ("int", (5, 7)), "n": ("int", (0, 1))}))
    report = check_vector(pf.vector, pf.matrix, dom)
    assert not report.holds
    failing = {(c.frm, c.to): c.result for c in report.failing()}
    assert set(failing) == {("B", "A")}
    assert failing[("B", "A")].status == COUNTEREXAMPLE


def test_merge_vector_holds(mrg2_vector_report):
    report = mrg2_vector_report
    assert report.holds
    assert len(report.checks) == 14


def test_vector_must_be_total():
    m = CodeMatrix("m", ("S", "H"), "S", "H",
                   {("S", "H"): (Guard(BoolLit(True)),)}, XDECL)
    with pytest.raises(ValueError):
        check_vector({"S": Condition("S", "s", BoolLit(True))}, m, dom_x(0, 1))


def test_a_condition_expression_is_freed_after_checking():
    # the compiled closure lives on the expression, not in a module-level cache
    expr = Binary("==", X, IntLit(0))
    ref = weakref.ref(expr)
    cond = Condition("S", "s", expr)
    m = CodeMatrix("m", ("S", "H"), "S", "H",
                   {("S", "H"): (Guard(BoolLit(True)),)}, XDECL)
    assert cond.holds_on({"x": 0})
    assert check_vector({"S": cond, "H": cond}, m, dom_x(0, 0)).holds
    del expr, cond
    gc.collect()
    assert ref() is None


# -- a condition decided from the condition it includes ---------------------------

def _and(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = Binary("and", out, part)
    return out


def _included_conditions():
    """Conditions over x, y, z and p[0..1], each case of inclusion once;
    the one expression object stands wherever a condition is included."""
    x, y, z = X, Var("y"), Var("z")
    a = Binary(">", x, IntLit(0))  # false at x <= 0
    b = _and(a, Binary("==", mc.expr.Index("p", x), IntLit(1)))  # out of bounds at x >= 2
    t = Binary(">=", y, IntLit(0))  # true throughout
    h = Binary(">=", x, IntLit(0))  # the halt column's
    exprs = {
        "A": a,
        "B": b,
        "C": _and(b, Binary(">", y, IntLit(0))),  # C <- B <- A
        "Z": z,  # 1 is no boolean
        "D": _and(z, Binary("<", x, IntLit(2))),
        "T": t,  # no cell out of T: check_vector does not ask for it
        "E": _and(t, Binary("==", x, IntLit(1))),
        "F": Binary("or", a, Binary("==", y, IntLit(2))),  # an or spine: at the top
        "G": _and(Binary(">", y, IntLit(0)), a),  # A is not the leftmost
        # and below the and at the top
        "O": _and(Binary("or", a, Binary("==", y, IntLit(1))), Binary("<", x, IntLit(3))),
        "I": _and(h, Binary("<", y, IntLit(2))),  # H, a halt column, is never asked for
        "H": h,
    }
    return {k: Condition(k, k.lower(), e) for k, e in exprs.items()}


def _included_machine():
    inc = assign_x(Binary("+", X, IntLit(1)))
    dec = seq_of([Guard(Binary(">", Var("y"), IntLit(0))),
                  Assign(((("var", "y"), Binary("-", Var("y"), IntLit(1))),))])
    guarded = seq_of([Guard(Binary("<", X, IntLit(1))), inc])
    targets = {"A": "B", "B": "C", "C": "Z", "Z": "D", "D": "E", "E": "F",
               "F": "G", "G": "O", "O": "I", "I": "H"}
    cells = {}
    for i, (frm, to) in enumerate(targets.items()):
        cells[frm, to] = (guarded if i % 2 else inc,)
        cells[frm, "A" if i % 3 else "H"] = (dec,)
    decls = XDECL + (VarDecl("y", "int", "var"), VarDecl("z", "int", "var"),
                     VarDecl("p", "array", "param", IntLit(2)))
    states = ("A", "B", "C", "Z", "D", "T", "E", "F", "G", "O", "I", "H")
    return CodeMatrix("inc", states, "A", "H", cells, decls)


def _included_domain():
    return DomainSpec({"x": ("int", (-1, 0, 1, 2, 3)), "y": ("int", (0, 1, 2)),
                       "z": ("int", (1, True)), "p": ("array", (0, 1))})


@pytest.mark.parametrize("triples, columns", [(True, True), (True, False), (False, True)])
def test_a_condition_decided_from_the_one_it_includes_reports_as_in_full(triples, columns):
    vector, m = _included_conditions(), _included_machine()
    report = verify(vector, m, _included_domain(), triples=triples, columns=columns,
                    witness_cap=2)
    entries = _included_domain().entries
    assert _plain_report(report) == _keyed_reference(
        verify_reference(vector, m, entries, triples, columns, 2))
    if triples:  # every case shows in the report
        errors = {c.frm: c.result.message.split(": ", 1) for c in report.checks
                  if c.result.status == ERROR}
        assert "out of bounds" in errors["B"][1] and errors["C"][1] == errors["B"][1]
        assert errors["Z"][1] == "condition 'Z' is not boolean"
        assert errors["D"][1] == "expected a boolean, got 1"
        assert {c.result.status for c in report.checks} == {"holds", COUNTEREXAMPLE, ERROR}
    if columns:  # among them columns decided from the one they include
        assert {"B", "E"} <= {col.control for col in report.incomplete}


def test_a_condition_too_deep_to_compile_raises_where_the_one_it_includes_is_false():
    a = Binary(">", X, IntLit(0))
    deep = BoolLit(True)
    for _ in range(MAX_NESTING + 1):
        deep = mc.expr.Unary("not", deep)
    vector = {k: Condition(k, k, e) for k, e in
              (("A", a), ("K", _and(a, deep)), ("H", BoolLit(True)))}
    m = CodeMatrix("m", ("A", "K", "H"), "A", "H",
                   {("A", "K"): (assign_x(X),), ("K", "H"): (assign_x(X),)}, XDECL)
    report = check_vector(vector, m, dom_x(-1, 1))
    assert report.checks[1].result.state == {"x": -1}
    assert "nested more than" in report.checks[1].result.message


def test_a_refined_condition_is_evaluated_only_where_the_one_it_includes_holds():
    # primes' C includes B, which includes A: at every state where A is false B
    # is false unevaluated, and likewise C where B is; a post-condition is
    # evaluated in full
    pf = parse_path(mc.corpus_path("primes"))
    calls = {"B": 0, "C": 0}

    def counted(k, fn):
        def wrapper(state):
            calls[k] += 1
            return fn(state)
        return wrapper

    for k in calls:
        e = pf.vector[k].expr
        object.__setattr__(e, "_fn", counted(k, mc.expr.compile_expr(e)))
    assert check_vector(pf.vector, pf.matrix, pf.domain).holds
    assert calls == {"B": 1296 + 1176, "C": 52 + 24}


# -- verify against a full sweep that imports nothing from the package ---------------

def _random_atom(rng):
    x, n = X, Var("n")
    return rng.choice([
        lambda: Binary(">", x, IntLit(rng.randint(0, 2))),
        lambda: Binary("==", x, IntLit(1)),
        lambda: Binary(">=", n, IntLit(rng.randint(0, 2))),
        lambda: Binary("==", Index("p", x), IntLit(1)),  # out of bounds, unset
        lambda: Var("b"),  # unset without a domain entry
        lambda: Binary("==", Var("c"), SymLit("a")),
        lambda: Binary(">", Len("left"), IntLit(0)),
        lambda: Binary("==", Binary("/", IntLit(1), x), IntLit(1)),  # division by zero
        lambda: BoolLit(rng.random() < 0.7),
    ])()


def _random_condition(rng, earlier):
    r = rng.random()
    if earlier and r < 0.4:  # includes an earlier condition, the same object
        return _and(rng.choice(earlier), _random_atom(rng))
    if r < 0.47:
        return rng.choice([X, IntLit(1)])  # not boolean
    e = _random_atom(rng)
    return Binary(rng.choice(["and", "or"]), e, _random_atom(rng)) if rng.random() < 0.5 else e


def _random_rule(rng):
    return seq_of([rng.choice([
        lambda: Guard(_random_atom(rng)),
        lambda: assign_x(Binary("+", X, IntLit(1))),
        lambda: assign_x(Var("n")),
        lambda: Assign(((("elem", "p", X), IntLit(1)),)),
        lambda: Builtin("getL", "x"),
        lambda: Builtin("putL"),
    ])() for _ in range(rng.randint(1, 2))])


def _random_verification(rng):
    """A machine over an int parameter n, an int x that may take 1 and True,
    a bool, a sym, an array whose length reads n and may be empty,
    unevaluable or negative, and two streams; a vector with included and
    non-boolean conditions; and a domain."""
    n = Var("n")
    length = rng.choice([n, Binary("/", IntLit(2), n), Binary("-", n, IntLit(1))])
    decls = [VarDecl("n", "int", "param"), VarDecl("x", "int", "var"),
             VarDecl("b", "bool", "var"), VarDecl("c", "sym", "var"),
             VarDecl("p", "array", "var", length), VarDecl("left", "stream", "param"),
             VarDecl("out", "stream", "var")]
    rng.shuffle(decls)
    states = ("S", "A", "B", "H")
    density = rng.choice([0, 0.4, 0.6])
    cells = {(frm, to): tuple(_random_rule(rng) for _ in range(rng.randint(1, 2)))
             for frm in states[:3] for to in states[1:] if rng.random() < density}
    m = CodeMatrix("rand", states, "S", "H", cells, tuple(decls))
    exprs = []
    for _ in states:
        exprs.append(_random_condition(rng, exprs))
    vector = {k: Condition(k, k.lower(), e) for k, e in zip(states, exprs)}
    entries = {"n": ("int", rng.choice([(0, 1, 2), (1, 2), (2, 0), (1,), (3, 1), (2, -1)]))}
    optional = [("x", ("int", rng.choice([(0, 1, True), (1, 2), (0, 1, 2)]))), ("b", ("bool",)),
                ("c", ("sym", ("a", "b"))), ("p", ("array", (0, 1))),
                ("left", ("stream", (0, 1), (0, 1))), ("out", ("stream", (0, 1), (1,)))]
    entries.update(entry for entry in optional if rng.random() < 0.6)
    return m, vector, entries


def _plain_report(report):
    """A VectorReport as verify_reference gives it."""
    def key(state):
        return None if state is None else state_key(plain_state(state))
    checks = [(c.frm, c.to, c.result.status, key(c.result.state), key(c.result.post_state),
               c.result.message) for c in report.checks]
    columns = report.incomplete and [(col.control, [key(w) for w in col.witnesses], col.total)
                                     for col in report.incomplete]
    return checks, report.incomplete if columns is None else columns


def _keyed_reference(report):
    checks, columns = report
    checks = [(frm, to, status, state and state_key(state), post and state_key(post), message)
              for frm, to, status, state, post, message in checks]
    return checks, columns and [(k, [state_key(w) for w in ws], total) for k, ws, total in columns]


def test_verify_agrees_with_a_full_sweep_on_random_machines():
    rng = random.Random(2027)
    seen = set()
    for trial in range(360):
        m, vector, entries = _random_verification(rng)
        triples, columns = [(True, False), (False, True), (True, True)][trial % 3]
        cap = rng.randint(1, 4)
        try:
            want = _keyed_reference(verify_reference(vector, m, entries, triples, columns, cap))
        except ValueError as exc:
            want = str(exc)
        try:
            got = _plain_report(verify(vector, m, DomainSpec(entries), triples=triples,
                                       columns=columns, witness_cap=cap))
        except ValueError as exc:
            got = str(exc)
        assert got == want, trial
        if isinstance(want, str):
            seen.add("negative" if m.cells else "negative, no cells")
        else:
            seen.update(c[2] for c in want[0])
            seen.update("witnesses" for _ in want[1] or ())
    assert seen == {"holds", COUNTEREXAMPLE, ERROR, "witnesses", "negative",
                    "negative, no cells"}


LENGTH_KEYED = """
dsm lengthkeyed {
  param n: int;
  param a: int[n];
  start S;
  halt H;
  cond S: "n > 0" is n > 0;
  cond H: "a ends in 1" is a[n-1] == 1;
  from S to H: [a[0] == 1];
  domain {
    n in 1..2;
    a[] in {0,1};
  }
}
"""


@pytest.mark.parametrize("triples, columns", [(True, True), (True, False), (False, True)])
def test_class_extensions_are_listed_per_array_length(triples, columns):
    # S reads only n, its cell and H read a too, so each class of n is extended
    # to the a of its own length: a list made for n = 1 gives n = 2 the wrong a
    pf = mc.parse(LENGTH_KEYED)
    report = verify(pf.vector, pf.matrix, pf.domain, triples=triples, columns=columns)
    assert _plain_report(report) == _keyed_reference(verify_reference(
        pf.vector, pf.matrix, pf.domain.entries, triples, columns))
    if triples:
        (check,) = report.checks
        assert (check.result.state, check.result.post_state) == ({"n": 2, "a": [1, 0]},) * 2
    if columns:
        assert [(c.control, c.total, c.witnesses) for c in report.incomplete] == [
            ("S", 3, [{"n": 1, "a": [0]}, {"n": 2, "a": [0, 0]}, {"n": 2, "a": [0, 1]}])]


def test_verify_lists_class_extensions_once_and_merges_witnesses_lazily(monkeypatch, corpus):
    # primes and mrg2 extend hundreds of classes by the same few variables;
    # completeness on primes0 prints 3 witnesses and lists no more of them
    calls, pulled = [0], [0]
    enumerate_all = mc.verifier.enumerate_states

    def counted(*args):
        calls[0] += 1
        for item in enumerate_all(*args):
            pulled[0] += 1
            yield item

    monkeypatch.setattr(mc.verifier, "enumerate_states", counted)
    for name in ("primes", "mrg2"):
        pf, calls[0] = corpus[name], 0
        assert verify(pf.vector, pf.matrix, pf.domain).holds
        assert calls[0] <= 10, name
    pf, pulled[0] = corpus["primes0"], 0
    (col,) = completeness(pf.matrix, pf.vector, pf.domain)
    assert len(col.witnesses) == 3 and pulled[0] <= 9


# -- monitor ------------------------------------------------------------------------

def test_monitor_accepts_the_reference_run(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=3))
    assert monitor(primes.matrix, primes.vector, out.trace) == []


def test_monitor_accepts_runs_up_to_n_12(primes):
    for n in range(2, 13):
        out = mc.run(primes.matrix, initial_state(primes.matrix, N=n))
        assert out.status == "success"
        assert monitor(primes.matrix, primes.vector, out.trace) == []


def test_monitor_flags_first_return_to_a_on_corrupted_matrix():
    pf = parse_path(fixture_path("corrupted-primes.mxc"))
    out = mc.run(pf.matrix, initial_state(pf.matrix, N=3), step_bound=100)
    violations = monitor(pf.matrix, pf.vector, out.trace)
    assert violations
    first = violations[0]
    # first return to A is configuration index 5 (S A B C B -> A)
    assert first.index == 5 and first.control == "A"


def test_all_true_vector_never_violates(primes, mrg2):
    for pf, d0 in ((primes, initial_state(primes.matrix, N=5)),
                   (mrg2, None)):
        m = pf.matrix
        if d0 is None:
            from matrixcode.cli import merge_inputs
            d0 = merge_inputs(m, (1, 3), (2,))
        vector = {k: Condition(k, "true", BoolLit(True)) for k in m.states}
        out = mc.run(m, d0)
        assert monitor(m, vector, out.trace) == []


def test_monitor_flags_a_state_with_no_condition_and_a_false_condition(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=3))
    true = Condition("T", "true", BoolLit(True))
    false = Condition("F", "false", BoolLit(False))
    vector = {"S": true, "A": false, "C": true, "H": true}  # no condition for B
    got = [(v.index, v.control, v.message) for v in monitor(primes.matrix, vector, out.trace)]
    controls = [cfg.control for cfg in out.trace.configs]
    want = [(i, k, {"A": None, "B": "no condition for control state"}[k])
            for i, k in enumerate(controls) if k in ("A", "B")]
    assert "A" in controls and "B" in controls
    assert got == want


def test_merge_monitor_accepts_runs(mrg2):
    from matrixcode.cli import merge_inputs
    for left, right in [((1, 3), (2,)), ((), ()), ((1, 1, 2), (1, 3)),
                        ((2,), (1, 2, 3))]:
        out = mc.run(mrg2.matrix, merge_inputs(mrg2.matrix, left, right))
        assert out.status == "success"
        assert monitor(mrg2.matrix, mrg2.vector, out.trace) == []


# -- completeness -----------------------------------------------------------------

def test_stage_one_is_incomplete_in_column_a(corpus):
    pf = corpus["primes1"]
    report = completeness(pf.matrix, pf.vector, dom=pf.domain)
    columns = {col.control for col in report}
    assert columns == {"A"}
    witness = report[0].witnesses[0]
    assert witness["k"] < witness["N"]


def test_stage_zero_is_incomplete_at_the_start(corpus):
    pf = corpus["primes0"]
    report = completeness(pf.matrix, pf.vector, dom=pf.domain)
    assert {col.control for col in report} == {"S"}


def test_stage_two_is_incomplete_in_column_b(corpus):
    pf = corpus["primes2"]
    report = completeness(pf.matrix, pf.vector, dom=pf.domain)
    assert {col.control for col in report} == {"B"}


def test_final_stage_is_complete_on_sampled_runs(primes):
    inputs = [initial_state(primes.matrix, N=n) for n in range(2, 11)]
    report = completeness(primes.matrix, primes.vector, sample_inputs=inputs)
    assert report == []


def test_sampled_runs_record_the_state_where_a_stage_gets_stuck(corpus):
    pf = corpus["primes1"]
    inputs = [initial_state(pf.matrix, N=n) for n in (3, 4)]
    stuck = [mc.run(pf.matrix, d0).trace.final for d0 in inputs]
    assert {cfg.control for cfg in stuck} == {"A"}
    report = completeness(pf.matrix, pf.vector, sample_inputs=inputs, witness_cap=1)
    assert [(col.control, col.total, col.witnesses) for col in report] == [
        ("A", 2, [stuck[0].data])]


def test_final_stage_is_complete_over_the_domain(primes_domain_completeness):
    assert primes_domain_completeness == []


def test_vector_holding_does_not_imply_completeness(corpus):
    pf = corpus["primes1"]
    assert check_vector(pf.vector, pf.matrix, pf.domain).holds
    assert completeness(pf.matrix, pf.vector, dom=pf.domain)


def test_merge_stages_are_incomplete(corpus):
    for name, expect in (("mrg0", {"S"}), ("mrg1", {"B", "C", "D"})):
        pf = corpus[name]
        report = completeness(pf.matrix, pf.vector, dom=pf.domain)
        assert {col.control for col in report} == expect, name


def test_finished_merge_is_complete(mrg2):
    assert completeness(mrg2.matrix, mrg2.vector, dom=mrg2.domain) == []


def test_completeness_agrees_with_set_arithmetic_oracle():
    rng = random.Random(731)
    for _ in range(300):
        m, vector, cell_pairs, cond_sets = _random_machine_and_vector(rng, 3)
        hi = rng.randint(0, 3)  # successors above hi leave the domain and still count
        report = completeness(m, vector, dom=dom_x(0, hi), witness_cap=4)
        got = {col.control: [w["x"] for w in col.witnesses] for col in report}
        want = stuck_states(range(hi + 1), {k: cond_sets[k] for k in ("S", "A")},
                            cell_pairs)
        assert got == want
        assert all(col.total == len(col.witnesses) for col in report)


def test_a_cell_that_raises_has_no_transition():
    # at x = 0 the first rule divides by zero while its sibling is enabled;
    # the cell as a whole raises, so completeness counts no transition there
    # and check_vector reports the cell's evaluation error
    rules = (assign_x(Binary("/", IntLit(1), X)),
             seq_of([Guard(Binary("==", X, IntLit(0))), assign_x(IntLit(5))]))
    m = CodeMatrix("m", ("S", "H"), "S", "H", {("S", "H"): rules}, XDECL)
    true = Condition("T", "true", BoolLit(True))
    vector = {"S": true, "H": true}
    report = completeness(m, vector, dom=dom_x(0, 2))
    assert [(col.control, col.total, col.witnesses) for col in report] == [
        ("S", 1, [{"x": 0}])]
    (check,) = check_vector(vector, m, dom_x(0, 2)).checks
    assert check.result.status == ERROR
    assert check.result.message.startswith("cell evaluation: division by zero")


def test_array_sizing_skips_unsized_states_and_rejects_negative_lengths():
    # p has 4 / N - 1 elements: N = 0 cannot be sized, N = 8 sizes it at -1
    length = Binary("-", Binary("/", IntLit(4), Var("N")), IntLit(1))
    decls = (VarDecl("N", "int", "param"), VarDecl("p", "array", "var", length))
    dom = DomainSpec({"N": ("int", (0, 2, 4))})
    assert list(enumerate_states(dom, decls)) == [{"N": 2, "p": [mc.UNSET]},
                                                  {"N": 4, "p": []}]
    with pytest.raises(ValueError, match="array 'p' has negative length -1"):
        list(enumerate_states(DomainSpec({"N": ("int", (8,))}), decls))


# -- the preservation theorem as a property -------------------------------------------

def _random_machine_and_vector(rng, dmax):
    """A random machine over x of guarded assignments [x == a]; {x = b} and a
    random vector, with the (a, b) pairs per cell and the x values per
    condition as plain sets."""
    states = ("S", "A", "H")
    cells = {}
    cell_pairs = {}
    cond_sets = {}
    for frm in states:
        if frm == "H":
            continue
        for to in states:
            if to == "S":
                continue
            if rng.random() < 0.6:
                pairs = sorted({(rng.randint(0, dmax), rng.randint(0, dmax))
                                for _ in range(rng.randint(1, 3))})
                rel = union_of([seq_of([Guard(Binary("==", X, IntLit(a))),
                                        assign_x(IntLit(b))]) for a, b in pairs])
                cells[(frm, to)] = (rel,)
                cell_pairs[(frm, to)] = set(pairs)
    m = CodeMatrix("rand", states, "S", "H", cells, XDECL)

    def random_condition(name):
        values = [v for v in range(dmax + 1) if rng.random() < 0.7]
        cond_sets[name] = set(values)
        e = BoolLit(False)
        for v in values:
            e = Binary("or", e, Binary("==", X, IntLit(v)))
        return Condition(name, name, e)

    vector = {k: random_condition(k) for k in states}
    return m, vector, cell_pairs, cond_sets


def test_held_vectors_are_preserved_along_all_computations():
    rng = random.Random(4242)
    dom = dom_x(0, 3)
    held = 0
    attempts = 0
    while held < 200 and attempts < 4000:
        attempts += 1
        m, vector, _pairs, _sets = _random_machine_and_vector(rng, 3)
        if not check_vector(vector, m, dom).holds:
            continue
        held += 1
        for d0 in enumerate_states(dom, XDECL):
            if not vector["S"].holds_on(d0):
                continue
            for outcome in mc.enumerate_runs(m, d0, 8):
                assert monitor(m, vector, outcome.trace) == []
    assert held == 200, "could not find enough held vectors (%d)" % held
