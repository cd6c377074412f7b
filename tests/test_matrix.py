import random

import pytest

from matrixcode.expr import Binary, BoolLit, Index, IntLit, Var
from matrixcode.matrix import (CodeMatrix, VarDecl, identity, power, product,
                               validate)
from matrixcode.relations import Assign, Builtin, Guard, image, seq_of, union_of
from matrixcode.values import EvalError, freeze_state

X = Var("x")
XDECL = (VarDecl("x", "int", "var"),)


def assign_x(expr):
    return Assign(((("var", "x"), expr),))


def pairs_to_rel(pairs):
    return union_of([seq_of([Guard(Binary("==", X, IntLit(a))), assign_x(IntLit(b))])
                     for a, b in pairs])


def mk(states, cells, decls=XDECL, start="S", halt="H"):
    return CodeMatrix("m", tuple(states), start, halt, cells, decls)


# -- validate ----------------------------------------------------------------

def test_corpus_final_stage_is_clean(primes):
    assert validate(primes.matrix) == []


def test_cell_into_start_is_rejected():
    m = mk(["S", "H"], {("S", "S"): (Guard(BoolLit(True)),)})
    diags = [d for d in validate(m) if "start" in d.message]
    assert len(diags) == 1
    assert diags[0].location == "S -> S"


def test_cell_out_of_halt_is_rejected():
    m = mk(["S", "H"], {("H", "H"): (Guard(BoolLit(True)),)})
    assert any("halt" in d.message for d in validate(m))


def test_undeclared_variable_is_reported():
    m = mk(["S", "H"], {("S", "H"): (Guard(Binary(">", Var("q"), IntLit(0))),)})
    diags = [d for d in validate(m) if "q" in d.message]
    assert len(diags) == 1


def test_unknown_control_states_are_reported_where_they_are_named():
    m = mk(["S", "H"], {("S", "Q"): (Guard(BoolLit(True)),), ("R", "H"): (Guard(BoolLit(True)),)},
           start="T", halt="U")
    assert [(d.location, d.message) for d in validate(m)] == [
        ("m", "start state 'T' is not a control state"),
        ("m", "halt state 'U' is not a control state"),
        ("S -> Q", "unknown control state 'Q'"),
        ("R -> H", "unknown control state 'R'")]


def test_start_equals_halt_is_rejected():
    m = mk(["S"], {}, start="S", halt="S")
    assert any("differ" in d.message for d in validate(m))


def rule_messages(rule, decls=XDECL):
    return [d.message for d in validate(mk(["S", "H"], {("S", "H"): (rule,)}, decls))]


def test_stream_builtins_need_their_streams_declared_through_seq_and_union():
    rule = union_of([seq_of([Guard(BoolLit(True)), Builtin("getL", "x")]), Builtin("putR")])
    assert rule_messages(rule) == [
        "stream builtin needs a declared stream 'left'",
        "stream builtin needs a declared stream 'out'",
        "stream builtin needs a declared stream 'right'",
    ]


def test_a_stream_builtin_on_a_variable_that_is_not_a_stream_is_reported():
    decls = (VarDecl("left", "stream", "param"), VarDecl("out", "int", "var"))
    assert rule_messages(Builtin("putL"), decls) == ["'out' must be declared as a stream"]


def test_a_guard_on_an_undeclared_stream_name_is_an_undeclared_variable():
    rule = Guard(Binary("==", Var("left"), IntLit(0)))
    assert rule_messages(rule) == ["undeclared variable 'left'"]


def test_a_whole_array_stream_or_tape_is_not_an_assigned_value():
    decls = XDECL + (VarDecl("p", "array", "var", IntLit(2)), VarDecl("s", "stream", "param"),
                     VarDecl("t", "tape", "param"))
    for name, kind in (("p", "array"), ("s", "stream"), ("t", "tape")):
        for target in (("var", "x"), ("elem", "p", IntLit(0))):
            rule = seq_of([Guard(BoolLit(True)), Assign(((target, Var(name)),))])
            assert rule_messages(rule, decls) == ["cannot assign the whole %s %r" % (kind, name)]
    assert rule_messages(assign_x(Index("p", IntLit(0))), decls) == []


@pytest.mark.parametrize("tapes", [0, 2])
def test_tape_builtins_need_exactly_one_tape(tapes):
    decls = tuple(VarDecl("t%d" % i, "tape", "var") for i in range(tapes))
    rule = seq_of([Builtin("rd", "a"), union_of([Builtin("wr", "b"), Builtin("dir", "L")])])
    assert rule_messages(rule, decls) == [
        "tape builtins need exactly one declared tape variable"]


def test_an_unknown_builtin_is_left_to_evaluation():
    assert rule_messages(Builtin("frobnicate", "x")) == []
    with pytest.raises(EvalError, match="unknown builtin 'frobnicate'"):
        image(Builtin("frobnicate", "x"), {"x": 0})


# -- symbolic product and powers ----------------------------------------------

CHAIN_STATES = ("S", "A", "H")
CHAIN = {
    ("S", "A"): assign_x(Binary("+", X, IntLit(1))),
    ("A", "H"): assign_x(Binary("*", X, IntLit(2))),
}


def images_agree(states, m1, m2, sample_states):
    for key in set(m1) | set(m2):
        for d in sample_states:
            a = m1.get(key)
            b = m2.get(key)
            ia = sorted(freeze_state(s) for s in image(a, d)) if a else []
            ib = sorted(freeze_state(s) for s in image(b, d)) if b else []
            if ia != ib:
                return False
    return True


def test_identity_is_a_unit():
    samples = [{"x": v} for v in range(4)]
    ident = identity(CHAIN_STATES)
    left = product(CHAIN_STATES, ident, CHAIN)
    right = product(CHAIN_STATES, CHAIN, ident)
    assert images_agree(CHAIN_STATES, left, CHAIN, samples)
    assert images_agree(CHAIN_STATES, right, CHAIN, samples)


def test_product_with_empty_matrix_annihilates():
    assert product(CHAIN_STATES, CHAIN, {}) == {}
    assert product(CHAIN_STATES, {}, CHAIN) == {}


def test_chain_square_has_single_cell():
    sq = product(CHAIN_STATES, CHAIN, CHAIN)
    assert set(sq) == {("S", "H")}
    # manual composition: (x+1)*2
    assert image(sq[("S", "H")], {"x": 0}) == [{"x": 2}]


def test_power_zero_is_identity():
    p0 = power(CHAIN_STATES, CHAIN, 0)
    for k in CHAIN_STATES:
        assert image(p0[(k, k)], {"x": 5}) == [{"x": 5}]
    assert set(p0) == {(k, k) for k in CHAIN_STATES}


def test_power_one_is_the_matrix():
    samples = [{"x": v} for v in range(4)]
    assert images_agree(CHAIN_STATES, power(CHAIN_STATES, CHAIN, 1), CHAIN, samples)


def test_power_two_composes_the_chain():
    p2 = power(CHAIN_STATES, CHAIN, 2)
    assert image(p2[("S", "H")], {"x": 0}) == [{"x": 2}]


def _random_symbolic(rng, states, dmax):
    cells = {}
    for i in states:
        for j in states:
            if rng.random() < 0.5:
                pairs = sorted({(rng.randint(0, dmax), rng.randint(0, dmax))
                                for _ in range(rng.randint(1, 3))})
                cells[(i, j)] = pairs_to_rel(pairs)
    return cells


def test_product_associative_at_image_level():
    rng = random.Random(31)
    states = ("S", "A", "H")
    samples = [{"x": v} for v in range(3)]
    for _ in range(25):
        a = _random_symbolic(rng, states, 2)
        b = _random_symbolic(rng, states, 2)
        c = _random_symbolic(rng, states, 2)
        left = product(states, product(states, a, b), c)
        right = product(states, a, product(states, b, c))
        assert images_agree(states, left, right, samples)


# -- the power/segment correspondence ------------------------------------------

def _random_machine(rng, dmax):
    states = ("S", "A", "B", "H")[: rng.randint(2, 4)]
    if "H" not in states:
        states = states[:-1] + ("H",)
    cells = {}
    for frm in states:
        if frm == "H":
            continue
        for to in states:
            if to == "S":
                continue
            if rng.random() < 0.5:
                pairs = sorted({(rng.randint(0, dmax), rng.randint(0, dmax))
                                for _ in range(rng.randint(1, 3))})
                cells[(frm, to)] = (pairs_to_rel(pairs),)
    return CodeMatrix("rand", states, "S", "H", cells, XDECL)


def _segments(m, length, dmax):
    """All (k, d, k', d') connected by a length-n segment, by stepping."""
    from matrixcode.interpreter import Configuration, step
    found = set()
    for k in m.states:
        for d in range(dmax + 1):
            frontier = {(k, d)}
            for _ in range(length):
                nxt = set()
                for (kk, dd) in frontier:
                    for succ in step(m, Configuration(kk, {"x": dd}), "all"):
                        nxt.add((succ.control, succ.data["x"]))
                frontier = nxt
            found.update((k, d, kk, dd) for (kk, dd) in frontier)
    return found


def test_segments_match_matrix_powers_exhaustively():
    # length-n segments (k,d) -> (k',d') exist exactly when (d,d') is in
    # the image of the n-th power's (k,k') cell; n <= 4, |K| <= 4, |D| <= 4
    rng = random.Random(99)
    for _ in range(20):
        dmax = rng.randint(1, 3)
        m = _random_machine(rng, dmax)
        sym = m.symbolic()
        for n in range(5):
            pw = power(m.states, sym, n)
            by_power = set()
            for (frm, to), rel in pw.items():
                for d in range(dmax + 1):
                    for out in image(rel, {"x": d}):
                        by_power.add((frm, d, to, out["x"]))
            assert by_power == _segments(m, n, dmax), (n, m.cells)
