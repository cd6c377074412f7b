import gc
import random

import pytest

from oracles import (OracleEvalError, RefTape, plain_state, relation_image_reference,
                     rule_image_reference, state_key)

from matrixcode import corpus_path
from matrixcode import expr as expr_module
from matrixcode.dsl import parse_path
from matrixcode.expr import MAX_NESTING, Binary, BoolLit, Index, IntLit, Unary, Var
from matrixcode import relations
from matrixcode.interpreter import enumerate_runs
from matrixcode.relations import (Assign, Builtin, CallCounter, Guard, atoms, image,
                                  render_relation, seq_of, union_of)
from matrixcode.values import UNSET, EvalError, Stream, Tape, freeze_state, render_value
from matrixcode.verifier import DomainSpec, enumerate_states

X = Var("x")


def guard(op, left, right):
    return Guard(Binary(op, left, right))


def assign_x(expr):
    return Assign(((("var", "x"), expr),))


DECREMENT = seq_of([guard(">", X, IntLit(0)), assign_x(Binary("-", X, IntLit(1)))])


def states(result):
    return sorted(freeze_state(d) for d in result)


def test_guard_then_decrement():
    assert image(DECREMENT, {"x": 3}) == [{"x": 2}]


def test_guard_blocks():
    assert image(DECREMENT, {"x": 0}) == []


def test_union_of_both_branches():
    r = union_of([Guard(BoolLit(True)), assign_x(IntLit(7))])
    assert states(image(r, {"x": 1})) == states([{"x": 1}, {"x": 7}])


def test_guard_image_is_subset_of_identity():
    rng = random.Random(8)
    for _ in range(100):
        g = guard(rng.choice(["<", "<=", "==", "!=", ">", ">="]),
                  X, IntLit(rng.randint(-2, 2)))
        d = {"x": rng.randint(-3, 3)}
        out = image(g, d)
        assert out in ([], [d])


def test_assignments_run_left_to_right():
    # p[k] = j; k = k + 1 reads the old k for the index
    r = Assign((
        (("elem", "p", Var("k")), Var("j")),
        (("var", "k"), Binary("+", Var("k"), IntLit(1))),
    ))
    out = image(r, {"p": [2, 3, UNSET], "k": 2, "j": 5})
    assert out == [{"p": [2, 3, 5], "k": 3, "j": 5}]


def test_assignment_does_not_mutate_input():
    d = {"x": 1}
    image(assign_x(IntLit(9)), d)
    assert d == {"x": 1}


def _random_relation(rng, depth=2):
    """Atoms on x, q and the streams, nested in Seqs and Unions of two or
    three parts down to `depth`.  Some atoms raise on some states: a division
    by zero, an index out of bounds, a put from an empty stream; sibling
    alternatives of one Union put onto one out."""
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.2:
            return rng.choice([assign_x(Binary("/", IntLit(6), X)), assign_x(Index("q", X)),
                               Builtin(rng.choice(["putL", "putR"]))])
        return rng.choice([
            guard(rng.choice(["<", ">", "==", "!="]), X, IntLit(rng.randint(0, 3))),
            assign_x(IntLit(rng.randint(0, 3))),
            assign_x(Binary("+", X, IntLit(rng.choice([-1, 1])))),
            Builtin("putL"),
        ])
    klass = rng.choice([seq_of, union_of])
    return klass([_random_relation(rng, depth - 1) for _ in range(rng.randint(2, 3))])


def _random_xs(rng):
    return {"x": rng.randint(0, 3), "q": [1, 2, 0], "out": (),
            "left": rng.choice([(5,), (5, 6), (5, 6, 5)]), "right": rng.choice([(), (7,)])}


def outcome(run):
    """The sorted frozen states that run() returns, or the error it raises."""
    try:
        return states(run())
    except EvalError:
        return "error"


def test_seq_image_is_union_over_intermediates():
    rng = random.Random(77)
    for _ in range(200):
        r1, r2 = _random_relation(rng), _random_relation(rng)
        d = _random_xs(rng)
        composed = outcome(lambda: image(seq_of([r1, r2]), d))
        stepped = outcome(lambda: [out for mid in image(r1, d) for out in image(r2, mid)])
        assert composed == (stepped if stepped == "error" else sorted(set(stepped)))


def test_seq_is_associative_at_image_level():
    rng = random.Random(78)
    for _ in range(200):
        a, b, c = (_random_relation(rng) for _ in range(3))
        d = _random_xs(rng)
        assert (outcome(lambda: image(seq_of([seq_of([a, b]), c]), d))
                == outcome(lambda: image(seq_of([a, seq_of([b, c])]), d)))


def test_union_commutative_idempotent_at_image_level():
    rng = random.Random(79)
    for _ in range(200):
        a, b = _random_relation(rng), _random_relation(rng)
        d = _random_xs(rng)
        assert outcome(lambda: image(union_of([a, b]), d)) == \
            outcome(lambda: image(union_of([b, a]), d))
        assert outcome(lambda: image(union_of([a, a]), d)) == outcome(lambda: image(a, d))


def test_seq_of_and_union_of_flatten_their_inputs_and_keep_a_lone_part():
    a, b, c = guard(">", X, IntLit(0)), assign_x(IntLit(1)), assign_x(IntLit(2))
    assert seq_of([a]) is a and union_of([a]) is a
    for build in (seq_of, union_of):
        assert build([build([a, b]), c]).parts == (a, b, c)
        assert build([a, build([b, c])]).parts == (a, b, c)
    inner = union_of([a, b])
    assert seq_of([inner, c]).parts == (inner, c)
    assert union_of([seq_of([a, b]), c]).parts == (seq_of([a, b]), c)


def test_a_union_inside_a_rule_renders_in_parentheses():
    a, b, c = guard(">", X, IntLit(0)), assign_x(IntLit(1)), assign_x(IntLit(2))
    assert render_relation(seq_of([a, union_of([b, c])])) == "[x > 0]; ({ x = 1 } | { x = 2 })"
    assert render_relation(union_of([seq_of([union_of([a, b]), c]), b])) == \
        "([x > 0] | { x = 1 }); { x = 2 } | { x = 1 }"


def test_a_rule_of_3000_atoms_is_walked_by_a_loop():
    rule = seq_of([guard(">=", X, IntLit(0))] + [assign_x(Binary("+", X, IntLit(1)))] * 3000)
    assert len(list(atoms(rule))) == 3001
    assert image(rule, {"x": 0}) == [{"x": 3000}]
    assert render_relation(rule) == "[x >= 0]" + "; { x = x + 1 }" * 3000
    cell = union_of([assign_x(IntLit(i % 7)) for i in range(3000)])
    assert image(cell, {"x": 0}) == [{"x": i} for i in range(7)]


def test_an_image_over_a_union_collapses_duplicates_once(monkeypatch):
    calls = []
    freeze = relations.freeze_state
    monkeypatch.setattr(relations, "freeze_state", lambda s: calls.append(s) or freeze(s))
    cell = union_of([assign_x(IntLit(i)) for i in range(400)])
    assert image(cell, {"x": 0}) == [{"x": i} for i in range(400)]
    assert len(calls) == 400


def test_guard_conjunction_equals_guard_sequence():
    rng = random.Random(80)
    for _ in range(200):
        b1 = Binary(rng.choice(["<", ">", "=="]), X, IntLit(rng.randint(0, 3)))
        b2 = Binary(rng.choice(["<", ">", "!="]), X, IntLit(rng.randint(0, 3)))
        d = {"x": rng.randint(0, 3)}
        seq = image(seq_of([Guard(b1), Guard(b2)]), d)
        conj = image(Guard(Binary("and", b1, b2)), d)
        assert states(seq) == states(conj)


# -- builtin catalogue -------------------------------------------------------

def test_getL_binds_head_and_leaves_streams_alone():
    d = {"left": (1, 3), "u": UNSET}
    out = image(Builtin("getL", "u"), d)
    assert out == [{"left": (1, 3), "u": 1}]


def test_getL_on_empty_stream_is_a_blocked_guard():
    assert image(Builtin("getL", "u"), {"left": (), "u": UNSET}) == []


def test_ngetL_passes_only_empty():
    assert image(Builtin("ngetL", None), {"left": ()}) == [{"left": ()}]
    assert image(Builtin("ngetL", None), {"left": (1,)}) == []


def test_putL_transfers_head():
    d = {"left": (1, 3), "out": ()}
    assert image(Builtin("putL", None), d) == [{"left": (3,), "out": (1,)}]


def test_a_put_appends_in_place_only_at_the_end_of_its_buffer():
    (d1,) = image(Builtin("putL", None), {"left": (1, 2), "right": (9,), "out": ()})
    assert type(d1["left"]) is Stream and d1["left"].buf is not d1["out"].buf
    buf = d1["out"].buf
    (d2,) = image(Builtin("putL", None), d1)
    assert d2["out"].buf is buf and d2 == {"left": (), "right": (9,), "out": (1, 2)}
    (d3,) = image(Builtin("putR", None), d1)  # a sibling of d2: it copies
    assert d3["out"].buf is not buf and d3 == {"left": (2,), "right": (), "out": (1, 9)}
    assert d1 == {"left": (2,), "right": (9,), "out": (1,)} and d2["out"] == (1, 2)
    (d4,) = image(Builtin("getL", "u"), {"left": Stream((5, 6), 1, 2), "u": UNSET})
    assert d4["u"] == 6
    assert image(Builtin("getL", "u"), {"left": Stream((5, 6), 2, 2), "u": UNSET}) == []
    assert image(Builtin("ngetL", None), {"left": Stream([5], 1, 1)}) != []


def test_a_view_compares_hashes_orders_and_adds_as_the_tuple_of_its_items():
    items = [(), (1,), (1, 2), (1, 3), (2,), (1, 2, 3)]
    views = [Stream((7,) + t + (7,), 1, 1 + len(t)) for t in items]  # of a tuple
    views += [Stream([7] + list(t), 1, 1 + len(t)) for t in items]  # ending at a list's end
    for v in views:
        t = v.items()
        assert v == t and t == v and not v != t and hash(v) == hash(t)
        assert (len(v), list(v), bool(v)) == (len(t), list(t), bool(t))
        assert [v[i] for i in range(-len(t), len(t))] == [t[i] for i in range(-len(t), len(t))]
        assert v[1:] == t[1:]
        assert render_value(v) == render_value(t) and repr(t) in repr(v)
        for other in items + views:
            o = other.items() if type(other) is Stream else other
            assert (v == other, v != other, v < other, v <= other, v > other, v >= other) == \
                (t == o, t != o, t < o, t <= o, t > o, t >= o)
            assert (v + other, other + v) == (t + o, o + t)
            assert type(v + other) is tuple
    assert sorted(views) == sorted(v.items() for v in views)
    assert views[2] != [1, 2] and views[2] != 12
    with pytest.raises(TypeError):
        views[2] + [3]
    with pytest.raises(IndexError):
        views[2][2]


def test_a_view_is_built_from_bare_items_as_a_tuple_is():
    items = [5, 6]
    fresh = Stream(items)
    items.append(7)  # the view holds a tuple of its own, not the list
    assert fresh == (5, 6) and type(fresh.buf) is tuple
    for v in (Stream([7, 1, 2], 1, 3), Stream((1, 2, 3), 0, 2), fresh):
        assert type(v)([1]) == (1,)
        bumped = v[:-1] + type(v)([v[-1] + 1])  # the benchmark's wrong-output copy
        assert bumped == v.items()[:-1] + (v.items()[-1] + 1,) and bumped != v


def test_a_state_that_holds_views_freezes_as_the_state_with_tuples():
    tuples = {"left": (3, 4), "out": (1,), "right": (), "u": 2}
    views = {"left": Stream((2, 3, 4), 1, 3), "out": Stream([1, 5], 0, 1),
             "right": Stream([8], 1, 1), "u": 2}
    assert freeze_state(views) == freeze_state(tuples)
    assert hash(freeze_state(views)) == hash(freeze_state(tuples))


def test_putL_on_empty_stream_is_an_error():
    with pytest.raises(EvalError) as err:
        image(Builtin("putL", None), {"left": (), "out": ()})
    assert "empty stream" in str(err.value)


def test_put_errors_are_distinct_from_empty_images():
    blocked = image(Builtin("getL", "u"), {"left": (), "u": UNSET})
    assert blocked == []  # no transition, not an error


def test_rd_guards_on_scanned_symbol():
    t = Tape.from_string("AB", head=1)
    assert image(Builtin("rd", "B"), {"t": t}) == [{"t": t}]
    assert image(Builtin("rd", "A"), {"t": t}) == []


def test_wr_writes_then_moves_per_current_direction():
    t = Tape.from_string("())(", head=2, direction="L")
    (out,) = image(Builtin("wr", "X"), {"t": t})
    assert out["t"].cells[2] == "X"
    assert out["t"].head == 1
    assert image(Builtin("rd", ")"), {"t": t}) == [{"t": t}]  # input unchanged


def test_dir_sets_direction_only():
    t = Tape.from_string("A", head=0, direction="L")
    (out,) = image(Builtin("dir", "R"), {"t": t})
    assert out["t"].direction == "R"
    assert out["t"].head == 0


def test_rule_notation_for_tape_step():
    # ") -> X;L": rd(')'); dir(L); wr('X') writes X in place, head moves left
    rule = seq_of([Builtin("rd", ")"), Builtin("dir", "L"), Builtin("wr", "X")])
    t = Tape.from_string("()", head=1, direction="R")
    (out,) = image(rule, {"t": t})
    assert out["t"].render() == "( X"
    assert out["t"].head == 0


def test_tapes_are_equal_and_hash_alike_by_content_head_direction_and_blank():
    t = Tape.from_string("AB", head=0, direction="R")
    written = Tape.from_string("_B", head=0, direction="R").written("A")
    same = Tape({0: "A", 1: "B"}, head=1, direction="R")
    assert written is not same and written == same and hash(written) == hash(same)
    assert len({t.written("A"), same}) == 1
    assert same != Tape({0: "A", 1: "B"}, head=1, direction="L")
    assert same != Tape({0: "A", 1: "B"}, head=0, direction="R")
    assert same != Tape({0: "A", 1: "B"}, head=1, direction="R", blank="C")
    assert same != {0: "A", 1: "B"}


def test_counter_counts_each_polarity_once_per_scan():
    c = CallCounter()
    d = {"left": (), "u": UNSET}
    c.begin_scan()
    image(Builtin("getL", "u"), d, c)   # fails
    image(Builtin("ngetL", None), d, c)  # same test, same cycle
    assert c.counts["getL"] == 1
    c.begin_scan()
    image(Builtin("ngetL", None), d, c)
    assert c.counts["getL"] == 2


def test_counter_counts_puts_per_execution():
    c = CallCounter()
    d = {"left": (1, 2), "out": ()}
    c.begin_scan()
    (d2,) = image(Builtin("putL", None), d, c)
    image(Builtin("putL", None), d2, c)
    assert c.counts["putL"] == 2


def test_missing_stream_is_reported():
    with pytest.raises(EvalError) as err:
        image(Builtin("getL", "u"), {"u": UNSET})
    assert "left" in str(err.value)


# -- compiled rules against the reference image --------------------------------

def _written_arrays(rule):
    return {t[1] for a in atoms(rule) if isinstance(a, Assign) for t, _rhs in a.targets
            if t[0] == "elem"}


def _agrees_with_reference(rule, state, reference=rule_image_reference):
    """image(rule, state) against the reference image: successors, error
    message and variable, builtin counts; the input state is left as it was,
    and a successor shares every array and tape that the rule does not write."""
    before = freeze_state(state)
    counter = CallCounter()
    counter.begin_scan()
    counts = {}
    try:
        want = reference(rule, plain_state(state), counts)
    except OracleEvalError as exc:
        with pytest.raises(EvalError) as err:
            image(rule, state, counter)
        assert (err.value.message, err.value.var) == (exc.message, exc.var), render_relation(rule)
        got = None
    else:
        got = image(rule, state, counter)
        assert [state_key(plain_state(d)) for d in got] == [state_key(d) for d in want], \
            render_relation(rule)
    assert freeze_state(state) == before
    assert {k: n for k, n in counter.counts.items() if n} == counts
    written = _written_arrays(rule)
    for succ in got or ():
        for name, v in state.items():
            if isinstance(v, list):
                assert (succ[name] is v) is (name not in written), (render_relation(rule), name)
            elif isinstance(v, Tape) and not any(
                    isinstance(a, Builtin) and a.name in ("wr", "dir") for a in atoms(rule)):
                assert succ[name] is v
    return "error" if got is None else len(got)


def _random_atom(rng):
    if rng.random() < 0.05:  # one that fails wherever it is reached
        return rng.choice([Assign(((("var", "y"), IntLit(1)),)), Builtin("frobnicate", "x")])
    return rng.choice([
        lambda: _random_relation(rng, 0),
        lambda: Assign(((("elem", "p", X), Binary("+", X, IntLit(1))),)),
        lambda: Assign(((("elem", "p", IntLit(0)), X), (("var", "x"), Var("p")))),
        lambda: Assign(((("var", "x"), Binary("*", X, IntLit(2))), (("elem", "q", X), X))),
        lambda: Assign(((("elem", "q", Binary(">", X, IntLit(1))), IntLit(0)),)),
        lambda: Guard(X),
        lambda: Builtin(rng.choice(["getL", "getR"]), "x"),
        lambda: Builtin(rng.choice(["ngetL", "ngetR", "putL", "putR"])),
        lambda: Builtin(rng.choice(["rd", "wr"]), rng.choice("ab_")),
        lambda: Builtin("dir", rng.choice("LRdX")),
    ])()


def _random_state(rng):
    state = {"x": rng.choice([0, 1, 2, 3, UNSET]),
             "p": [rng.choice([0, 5, UNSET]) for _ in range(3)], "q": [1, 2, 3, 4],
             "left": rng.choice([(), (3,), (1, 8), 3]), "right": (4,),
             "out": (7,), "t": Tape.from_string(rng.choice(["ab", "ba", "a"]), head=rng.randint(-1, 2),
                                              direction=rng.choice("LRd"))}
    for name in rng.sample(["right", "out", "t", "q"], rng.randint(0, 1)):
        del state[name]
    return state


def test_compiled_rules_agree_with_the_reference_image():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(1500):
        rule = seq_of([_random_atom(rng) for _ in range(rng.randint(1, 4))])
        for _ in range(3):
            outcomes.add(_agrees_with_reference(rule, _random_state(rng)))
    assert outcomes == {"error", 0, 1}


def _as_views(rng, state):
    """state with each stream left a tuple or made a view: of a longer tuple,
    at a list's end, or inside a list that has grown past it."""
    def view(t):
        return rng.choice([lambda: Stream((0,) + t + (0,), 1, 1 + len(t)),
                           lambda: Stream([0] + list(t), 1, 1 + len(t)),
                           lambda: Stream(list(t) + [0], 0, len(t)), lambda: t])()
    return {name: view(v) if type(v) is tuple else v for name, v in state.items()}


def test_compiled_rules_agree_with_the_reference_image_on_stream_views():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(600):
        rule = seq_of([_random_atom(rng) for _ in range(rng.randint(1, 4))])
        for _ in range(3):
            outcomes.add(_agrees_with_reference(rule, _as_views(rng, _random_state(rng))))
    assert outcomes == {"error", 0, 1}


def test_nested_relations_agree_with_the_staged_reference():
    # Unions in Seqs and Seqs in Unions: successors in order, counts and errors
    rng = random.Random(25)
    outcomes = set()
    for _ in range(1500):
        r = _random_relation(rng, 3)
        for _ in range(3):
            state = _random_xs(rng)
            if rng.random() < 0.5:
                state = _as_views(rng, state)
            outcomes.add(_agrees_with_reference(r, state, relation_image_reference))
    assert {"error", 0, 1, 2, 3} <= outcomes


def _corpus_states(name, pf):
    states = list(enumerate_states(pf.domain or DomainSpec({}), pf.matrix.decls))
    states = random.Random(name).sample(states, min(len(states), 400))
    runs = {"turing": {"t": Tape.from_string("A(()())(A", head=1)},
            "decnum": {"left": (-1, 1, 2, 3), "out": (), "c": UNSET}}
    if name in runs:  # a domain of one unset state: add the states of its computations
        states += [c.data for o in enumerate_runs(pf.matrix, runs[name], 60)
                   for c in o.trace.configs]
    return states


@pytest.mark.parametrize("name", ["primes", "primes1", "primes2", "mrg1", "mrg2", "emerge",
                                  "turing", "decnum"])
def test_every_corpus_rule_agrees_with_the_reference_on_its_own_domain(name):
    pf = parse_path(corpus_path(name))
    outcomes = set()
    for rules in pf.matrix.cells.values():
        for rule in rules:
            for state in _corpus_states(name, pf):
                outcomes.add(_agrees_with_reference(rule, state))
    assert 1 in outcomes and 0 in outcomes


def test_a_successor_copies_only_the_arrays_its_rule_writes():
    rule = seq_of([guard(">", X, IntLit(0)),
                   Assign(((("elem", "p", IntLit(0)), X), (("elem", "p", IntLit(1)), X)))])
    d = {"x": 1, "p": [0, 0], "q": [0]}
    (out,) = image(rule, d)
    assert out["p"] == [1, 1] and d["p"] == [0, 0]
    assert out["p"] is not d["p"] and out["q"] is d["q"]


@pytest.mark.parametrize("builtin", [Builtin("wr", "X"), Builtin("dir", "R"),
                                     seq_of([Builtin("dir", "R"), Builtin("wr", "X")])])
def test_wr_and_dir_copy_the_tape_and_rd_shares_it(builtin):
    t = Tape.from_string("ab", head=0, direction="L")
    d = {"t": t, "u": (1,)}
    (out,) = image(builtin, d)
    assert out["t"] is not t and out["u"] is d["u"]
    assert (t.render(), t.head, t.direction) == ("a b", 0, "L")
    assert image(Builtin("rd", "a"), d)[0]["t"] is t


def tape_fields(t):
    return t.render(), t._key(), dict(t.cells), t.head, t.direction


def test_tape_builtins_agree_with_the_reference_tape():
    # seeded rules of one to three rd/wr/dir atoms, blank writes and moves
    # past both ends of the written squares included
    rng = random.Random(16)
    args = {"rd": "ab_", "wr": "ab_", "dir": "LRd"}
    for _ in range(300):
        text = "".join(rng.choice("ab_") for _ in range(rng.randint(0, 5)))
        head, direction = rng.randint(-2, 6), rng.choice("LRd")
        tape = Tape.from_string(text, head=head, direction=direction)
        ref = RefTape(dict(enumerate(text)), head, direction, "_")
        marked = [i for i, c in enumerate(text) if c != "_"] or [head]
        lo, hi = min(marked), max(marked)  # the squares render shows
        for _ in range(rng.randint(1, 25)):
            names = rng.choices(list(args), k=rng.randint(1, 3))
            rule = seq_of([Builtin(name, rng.choice(args[name])) for name in names])
            before = tape_fields(tape)
            got = image(rule, {"t": tape})
            assert tape_fields(tape) == before  # the input tape is unchanged
            want, wrote = [{"t": ref}], [lo, hi]
            for a in atoms(rule):
                if a.name == "wr" and a.arg != "_":
                    wrote += [want[0]["t"].head]
                want = rule_image_reference(a, want[0], {})
                if not want:
                    break
            assert len(got) == len(want)
            if not got:
                continue
            tape, ref, lo, hi = got[0]["t"], want[0]["t"], min(wrote), max(wrote)
            cells = {i: c for i, c in ref.cells.items() if c != "_"}
            shown = " ".join(cells.get(i, "_") for i in range(lo, hi + 1))
            assert tape_fields(tape) == (shown, ref.key(), cells, ref.head, ref.direction)


@pytest.mark.parametrize("binding", [assign_x(Var("t")), Builtin("getL", "t")])
def test_a_tape_builtin_after_a_write_that_changes_the_tape_count_raises(binding):
    # each tape builtin finds the tape anew, so a binding write between two is seen
    rule = seq_of([Builtin("rd", "a"), binding, Builtin("wr", "b")])
    with pytest.raises(EvalError, match="exactly one bound tape variable"):
        image(rule, {"t": Tape.from_string("a"), "x": 0, "left": (1,)})


def test_an_expression_that_cannot_compile_raises_only_when_reached():
    deep = IntLit(1)
    for _ in range(MAX_NESTING + 1):
        deep = Unary("neg", deep)
    assert image(seq_of([Guard(BoolLit(False)), assign_x(deep)]), {"x": 0}) == []
    for _ in range(2):
        with pytest.raises(EvalError, match="nested more than"):
            image(seq_of([Guard(BoolLit(True)), assign_x(deep)]), {"x": 0})


def test_rules_of_one_shape_share_one_code_object_until_both_are_freed():
    def shaped(name, arr, lit, line):
        return seq_of([
            Guard(Binary("<", Var(name, pos=(line, 2)), IntLit(lit, pos=(line, 6)),
                         pos=(line, 4)), pos=(line, 1)),
            Assign(((("elem", arr, Var(name, pos=(line, 12))), IntLit(lit, pos=(line, 17))),
                    (("var", name), Binary("+", Var(name), IntLit(lit)))), pos=(line, 10)),
            Builtin("putL", pos=(line, 30))])
    before = set(expr_module._CODE)
    first, second = shaped("x", "a", 3, 1), shaped("y", "b", 7, 9)
    assert image(first, {"x": 1, "a": [0, 0], "left": (5,), "out": ()}) == [
        {"x": 4, "a": [0, 3], "left": (), "out": (5,)}]
    with pytest.raises(EvalError) as err:
        image(second, {"y": 1, "b": [0], "left": (5,), "out": ()})
    assert (err.value.var, err.value.pos) == ("b", (9, 10))
    assert first._fn is not second._fn
    assert first._fn.__code__ is second._fn.__code__
    new = set(expr_module._CODE) - before
    assert first._fn.__code__ in set(map(expr_module._CODE.get, new))
    del first, second, err
    gc.collect()
    assert not new & set(expr_module._CODE)
