import contextlib
import dataclasses
import io
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import golden_path, initial_state
from oracles import (det_run_reference, emerge_oracle, first_n_primes, mmerge_oracle, plain_state,
                     runs_reference, state_key, turing_oracle)

from test_acceptance import X, XDECL, _random_machine

import matrixcode as mc
from matrixcode import interpreter, relations
from matrixcode.dsl import parse
from matrixcode.expr import Binary, BoolLit, Index, IntLit, Len, Var
from matrixcode.interpreter import (FAILURE, STEP_LIMIT, SUCCESS,
                                    Configuration, step)
from matrixcode.matrix import CodeMatrix, VarDecl
from matrixcode.relations import Assign, Builtin, CallCounter, Guard, seq_of, union_of
from matrixcode.values import UNSET, EvalError, Stream, Tape, freeze_state


def merge_state(matrix, left, right):
    from matrixcode.cli import merge_inputs
    return merge_inputs(matrix, tuple(left), tuple(right))


def config_key(c):
    return c.control, freeze_state(c.data)


# -- step ----------------------------------------------------------------------

def test_first_step_of_the_prime_machine(primes):
    d0 = initial_state(primes.matrix, N=3)
    (succ,) = step(primes.matrix, Configuration("S", d0), "det")
    assert succ.control == "A"
    assert succ.data["k"] == 2
    assert succ.data["p"] == [2, 3, UNSET]


def test_null_matrix_has_no_successor(corpus):
    m = corpus["primes0"].matrix
    d0 = initial_state(m, N=3)
    assert step(m, Configuration("S", d0), "det") == []
    assert step(m, Configuration("S", d0), "all") == []


def test_an_unknown_policy_is_refused_by_step_and_run(corpus):
    m = corpus["primes0"].matrix
    d0 = initial_state(m, N=3)
    with pytest.raises(ValueError, match="unknown policy 'some'"):
        step(m, Configuration("S", d0), "some")
    with pytest.raises(ValueError, match="unknown policy 'some'"):
        mc.run(m, d0, policy="some")


def test_all_policy_step_lists_every_enabled_cell(corpus):
    m = corpus["decnum"].matrix
    st = initial_state(m, left=[2, 3])
    st["c"] = 9
    succ = step(m, Configuration("B", st), "all")
    got = sorted((c.control, c.data["left"]) for c in succ)
    assert got == [("B", (3,)), ("H", (2, 3))]
    # two rules of one cell reach one state: it is listed once, cells in order
    from matrixcode.dsl import parse
    from matrixcode.relations import CallCounter
    m = parse("""
dsm fork {
  param left: stream;
  param out: stream;
  var x: int;
  start S;
  halt H;
  from S to A: getL(x); { x = 1 } | [x >= 0]; { x = 1 };
  from S to H: putL;
  from A to H: [true];
}
""").matrix
    counter = CallCounter()
    succ = step(m, Configuration("S", {"left": (5,), "out": (), "x": 0}), "all", counter)
    assert [(c.control, c.data) for c in succ] == [
        ("A", {"left": (5,), "out": (), "x": 1}), ("H", {"left": (), "out": (5,), "x": 0})]
    assert counter.counts == {"getL": 1, "getR": 0, "putL": 1, "putR": 0,
                              "rd": 0, "wr": 0, "dir": 0}


# -- run -----------------------------------------------------------------------

def test_prime_run_reproduces_the_reference_computation(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=3))
    assert out.status == SUCCESS
    assert out.trace.controls == ["S", "A", "B", "C", "B", "A", "H"]
    final = out.trace.final.data
    assert final["k"] == 3 and final["j"] == 5 and final["n"] == 1
    assert final["p"] == [2, 3, 5]


def test_prime_run_matches_trial_division_for_small_n(primes):
    for n in range(2, 15):
        out = mc.run(primes.matrix, initial_state(primes.matrix, N=n))
        assert out.status == SUCCESS
        assert out.trace.final.data["p"] == first_n_primes(n)


def test_null_matrix_fails_immediately(corpus):
    m = corpus["primes0"].matrix
    out = mc.run(m, initial_state(m, N=3))
    assert out.status == FAILURE
    assert len(out.trace.configs) == 1


def test_step_bound_is_reported_distinctly(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=3), step_bound=2)
    assert out.status == STEP_LIMIT
    assert out.trace.controls == ["S", "A", "B"]


@pytest.mark.parametrize("opens,closes,expected_tail", [
    (6, 4, None),   # unbalanced: oracle decides
    (5, 5, None),
])
def test_turing_runs_agree_with_quintuple_oracle(corpus, opens, closes, expected_tail):
    text = "A" + "(" * opens + ")" * closes + "A"
    m = corpus["turing"].matrix
    from matrixcode.cli import build_initial_state
    d0 = build_initial_state(m, {"t": "tape[%s]@1" % text})
    out = mc.run(m, d0)
    assert out.status == SUCCESS
    assert out.trace.final.data["t"].render() == turing_oracle(text)


def test_turing_reference_tapes(corpus):
    m = corpus["turing"].matrix
    from matrixcode.cli import build_initial_state
    cases = [
        ("A" + "(" * 6 + ")" * 4 + "A", "A ( 0 X X X X X X X X A"),
        ("A((((()))()))A", "1 X X X X X X X X X X X X A"),
    ]
    for text, expected in cases:
        d0 = build_initial_state(m, {"t": "tape[%s]@1" % text})
        out = mc.run(m, d0)
        assert out.status == SUCCESS
        assert out.trace.final.data["t"].render() == expected


# -- enumerate -------------------------------------------------------------------

def test_enumerate_decnum_finds_all_acceptances(corpus):
    m = corpus["decnum"].matrix
    outcomes = mc.enumerate_runs(m, initial_state(m, left=[-1, 1, 2, 3]), 12)
    wins = [o for o in outcomes if o.status == SUCCESS]
    assert len(wins) == 3
    leftovers = sorted(o.trace.final.data["left"] for o in wins)
    assert leftovers == sorted([(), (3,), (2, 3)])


def test_enumerate_deterministic_matrix_is_singleton(primes):
    outcomes = mc.enumerate_runs(primes.matrix, initial_state(primes.matrix, N=3), 20)
    assert len(outcomes) == 1
    assert outcomes[0].status == SUCCESS
    assert outcomes[0].trace.controls == ["S", "A", "B", "C", "B", "A", "H"]


def test_enumerate_null_matrix_is_one_failed_empty_computation(corpus):
    m = corpus["primes0"].matrix
    outcomes = mc.enumerate_runs(m, initial_state(m, N=3), 5)
    assert len(outcomes) == 1
    assert outcomes[0].status == FAILURE
    assert len(outcomes[0].trace.configs) == 1


def test_deterministic_run_is_among_enumerated_runs(corpus):
    m = corpus["decnum"].matrix
    d0 = initial_state(m, left=[1, 2])
    det = mc.run(m, d0)
    enumerated = mc.enumerate_runs(m, d0, 10)
    det_key = [config_key(c) for c in det.trace.configs]
    assert det_key in [[config_key(c) for c in o.trace.configs] for o in enumerated]


def test_exclusive_guard_machines_enumerate_to_their_run(corpus):
    from matrixcode.cli import build_initial_state
    turing = corpus["turing"].matrix
    cases = [
        ("primes", initial_state(corpus["primes"].matrix, N=4)),
        ("turing", build_initial_state(turing, {"t": "tape[A(())A]@1"})),
    ]
    for name, d0 in cases:
        m = corpus[name].matrix
        det = mc.run(m, d0)
        outcomes = mc.enumerate_runs(m, d0, 100)
        assert len(outcomes) == 1, name
        assert [config_key(c) for c in outcomes[0].trace.configs] \
            == [config_key(c) for c in det.trace.configs]


# -- one step-bound rule for run (both policies) and enumerate_runs ----------

STOPS_AT_TWO = """
dsm two {
  var x, y: int;
  start S;
  halt H;
  from S to A: { x = 1 };
  from A to B: { x = 2 };
  %s
}
"""
RAISES_AT_THREE = STOPS_AT_TWO % "from B to H: [y > 0];"  # y is never set


def bounded_results(m, d0, bound):
    """(status, controls, counters), or ("error", the partial trace's
    controls, the message), of run under both policies and of
    enumerate_runs at one bound."""
    def result(fn):
        try:
            got = fn()
        except mc.ExecutionError as exc:
            return "error", exc.trace.controls, str(exc)
        if isinstance(got, list):
            (got,) = got
        return got.status, got.trace.controls, got.trace.counters

    return [result(lambda: mc.run(m, d0, policy="det", step_bound=bound)),
            result(lambda: mc.run(m, d0, policy="all", step_bound=bound)),
            result(lambda: mc.enumerate_runs(m, d0, bound))]


@pytest.mark.parametrize("text, expected", [
    (STOPS_AT_TWO % "", {1: (STEP_LIMIT, ["S", "A"]), 2: (FAILURE, ["S", "A", "B"]),
                         3: (FAILURE, ["S", "A", "B"])}),
    (RAISES_AT_THREE, {1: (STEP_LIMIT, ["S", "A"]), 2: ("error", ["S", "A", "B"]),
                       3: ("error", ["S", "A", "B"])})], ids=["stops", "raises"])
def test_run_and_enumerate_runs_agree_at_the_step_bound(text, expected):
    # the configuration reached at the bound is stepped under both policies
    m = parse(text).matrix
    d0 = {"x": UNSET, "y": UNSET}
    for bound, (status, controls) in expected.items():
        det, *others = bounded_results(m, d0, bound)
        assert others == [det, det], bound
        assert det[:2] == (status, controls)
        if status == "error":
            assert "uninitialized variable" in det[2]


def test_run_exits_alike_in_both_modes_at_the_step_bound(tmp_path):
    from matrixcode.cli import main
    for text, code in ((STOPS_AT_TWO % "", 1), (RAISES_AT_THREE, 3)):
        path = tmp_path / "two.mxc"
        path.write_text(text)
        for mode in ("det", "all"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                got = main(["run", str(path), "--mode", mode, "--steps", "2"])
            assert got == code, (mode, text)


def test_det_and_all_runs_of_primes_agree_around_its_run_length(primes):
    d0 = initial_state(primes.matrix, N=3)
    length = len(mc.run(primes.matrix, d0).trace.configs) - 1
    for bound in (length - 1, length, length + 1):
        det, every = (mc.run(primes.matrix, d0, policy=p, step_bound=bound)
                      for p in ("det", "all"))
        assert (det.status, det.trace.counters) == (every.status, every.trace.counters)
        assert [config_key(c) for c in det.trace.configs] \
            == [config_key(c) for c in every.trace.configs]
        assert det.status == (STEP_LIMIT if bound < length else SUCCESS)


# -- counters and revisits ---------------------------------------------------------

def test_merge_counters_on_the_worked_example(mrg2):
    out = mc.run(mrg2.matrix, merge_state(mrg2.matrix, [1, 3], [2]))
    c = out.trace.counters
    assert (c["getL"], c["getR"], c["putL"], c["putR"]) == (3, 2, 2, 1)
    assert out.trace.final.data["out"] == (1, 2, 3)


def test_structured_merge_counters_on_the_worked_example(corpus):
    m = corpus["emerge"].matrix
    out = mc.run(m, merge_state(m, [1, 3], [2]))
    c = out.trace.counters
    expected_out, expected_counts = emerge_oracle([1, 3], [2])
    assert out.trace.final.data["out"] == expected_out == (1, 2, 3)
    assert {k: c[k] for k in expected_counts} == expected_counts
    assert (c["getL"], c["getR"], c["putL"], c["putR"]) == (5, 4, 2, 1)


def test_merge_counters_match_transcription_oracles(corpus, mrg2):
    import random
    rng = random.Random(6)
    emerge = corpus["emerge"].matrix
    for _ in range(40):
        from matrixcode.cli import random_stream
        left = random_stream(rng, max_len=12)
        right = random_stream(rng, max_len=12)
        for m, oracle in ((mrg2.matrix, mmerge_oracle), (emerge, emerge_oracle)):
            out = mc.run(m, merge_state(m, left, right))
            expected_out, expected_counts = oracle(left, right)
            assert out.trace.final.data["out"] == expected_out
            got = {k: out.trace.counters[k] for k in expected_counts}
            assert got == expected_counts, (left, right, m.name)


def test_empty_streams_move_nothing(mrg2):
    out = mc.run(mrg2.matrix, merge_state(mrg2.matrix, [], []))
    assert out.status == SUCCESS
    c = out.trace.counters
    assert c["putL"] == 0 and c["putR"] == 0


# -- streams as views of shared buffers -----------------------------------------

FORKING_PUTS = """
dsm forks {
  param left: stream;
  param right: stream;
  param out: stream;
  var u: int;
  start S;
  halt H;
  from S to A: getL(u); putL;
  from A to B: getL(u); putL;
  from A to C: getL(u); putL; getL(u); putL | getR(u); putR;
  from B to A: getR(u); putR | [true];
  from C to A: getL(u); putL;
  from B to H: ngetL; ngetR;
  from C to H: ngetL;
}
"""


def test_sibling_branches_that_put_onto_one_out_see_only_their_own_items():
    # column A has two cells that putL onto out from one state: the first
    # branch appends to out's buffer, a later one that puts the same item
    # shares it, and any other copies out's items
    m = parse(FORKING_PUTS).matrix
    d0 = {"left": (1, 2, 3, 4), "right": (7, 8), "out": (), "u": UNSET}
    outcomes = mc.enumerate_runs(m, d0, 8)
    got = [(o.status, o.trace.controls, [state_key(plain_state(c.data)) for c in o.trace.configs])
           for o in outcomes]
    want = [(status, controls, [state_key(d) for d in states])
            for status, controls, states in runs_reference(m, d0, 8)]
    assert got == want
    assert {status for status, _controls, _states in got} == {SUCCESS, FAILURE, STEP_LIMIT}
    outs = {id(c.data["out"]): c.data["out"] for o in outcomes for c in o.trace.configs[1:]}
    assert all(type(v) is Stream for v in outs.values())
    assert len({id(v.buf) for v in outs.values()}) < len(outs)  # buffers are shared


def traced_run(m, d0):
    """The outcome of a deterministic run and the peak memory it traced."""
    tracemalloc.start()
    try:
        return mc.run(m, d0), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_merge_run_takes_memory_linear_in_its_streams(mrg2):
    def peak(n):
        d0 = merge_state(mrg2.matrix, range(0, 2 * n, 2), range(1, 2 * n, 2))
        out, peak = traced_run(mrg2.matrix, d0)
        assert out.trace.final.data["out"] == tuple(range(2 * n))
        return peak

    peak(10)  # compile the rules first
    assert peak(2000) <= 2.5 * peak(1000)


PUT_THEN_FAIL = """
dsm putfail {
  param left: stream;
  param out: stream;
  var u: int;
  start S;
  halt H;
  from S to A: [true];
  from A to A: getL(u); putL; [u < 0] | getL(u); putL;
  from A to H: ngetL;
}
"""


def test_a_put_undone_by_a_failed_guard_costs_the_next_put_no_copy():
    # the first rule puts onto out and then fails; the second rule's put
    # shares the buffer that the first one appended to
    m = parse(PUT_THEN_FAIL).matrix

    def peak(n):
        out, peak = traced_run(m, {"left": tuple(range(n)), "out": (), "u": UNSET})
        assert out.trace.final.data["out"] == tuple(range(n))
        return peak

    peak(10)  # compile the rules first
    assert peak(2000) <= 2.5 * peak(1000)


def test_a_turing_run_takes_memory_linear_in_its_tape(corpus):
    # each step writes one square; the trace shares the rest of the tape
    m = corpus["turing"].matrix

    def peak(pairs):
        text = "A" + "()" * pairs + "A"
        out, peak = traced_run(m, {"t": Tape.from_string(text, head=1)})
        assert out.trace.final.data["t"].render() == turing_oracle(text)
        return peak

    peak(2)  # compile the columns first
    assert peak(100) <= 2.5 * peak(50)


def test_a_guard_that_reads_a_stream_reads_the_view_in_place(monkeypatch):
    # [len(left) > 0]; [u <= left[0]] read no copy of left's items: the
    # parser keeps len and indexing out of guards, so the machine is built here
    peek = seq_of([Guard(Binary(">", Len("left"), IntLit(0))),
                   Guard(Binary("<=", Var("u"), Index("left", IntLit(0)))),
                   Builtin("getL", "u"), Builtin("putL")])
    m = CodeMatrix("peek", ("S", "A", "H"), "S", "H",
                   {("S", "A"): (Assign(((("var", "u"), IntLit(0)),)),),
                    ("A", "A"): (peek,), ("A", "H"): (Builtin("ngetL"),)},
                   (VarDecl("left", "stream", "param"), VarDecl("out", "stream", "param"),
                    VarDecl("u", "int", "var")))
    calls = []
    items = Stream.items
    monkeypatch.setattr(Stream, "items", lambda view: calls.append(view) or items(view))
    out = mc.run(m, {"left": tuple(range(2000)), "out": (), "u": UNSET})
    assert (out.status, len(out.trace.configs), len(calls)) == (SUCCESS, 2003, 0)
    assert out.trace.final.data["out"] == tuple(range(2000))


# -- the compiled column scan against a scan rule by rule through image -------------

def scan_by_rules(m, config, counter):
    """The deterministic step the way it scanned before columns were compiled."""
    counter.begin_scan()
    for to, rules, _rel in m.column(config.control):
        for rule in rules:
            img = mc.image(rule, config.data, counter)
            if img:
                if len(img) > 1:
                    raise EvalError("rule %s -> %s has a non-singleton image under the "
                                    "deterministic policy" % (config.control, to))
                return [Configuration(to, img[0])]
    return []


def assert_scans_agree(m, datas, steps):
    """From every control state and data state, up to `steps` deterministic
    steps both ways, each way with one counter along its walk: the same
    successors, counts and errors."""
    for control in m.states:
        for data in datas:
            ways = []
            for scan in (lambda c, counter: step(m, c, "det", counter),
                         lambda c, counter: scan_by_rules(m, c, counter)):
                walk, config, counter = [], Configuration(control, data), CallCounter()
                for _ in range(steps):
                    try:
                        succs = scan(config, counter)
                    except EvalError as exc:
                        walk.append(str(exc))
                        break
                    walk.append(([(c.control, freeze_state(c.data)) for c in succs],
                                 dict(counter.counts)))
                    if not succs:
                        break
                    config = succs[0]
                ways.append(walk)
            assert ways[0] == ways[1], (m.name, control, data)


def x_is(op, k):
    return Guard(Binary(op, X, IntLit(k)))


def x_gets(e):
    return Assign(((("var", "x"), e),))


def test_compiled_columns_scan_random_machines_as_image_does():
    # each cell holds one rule, a Union when it has two or more pairs
    rng = random.Random(16)
    for _ in range(400):
        m, dmax = _random_machine(rng)
        assert_scans_agree(m, [{"x": v} for v in range(dmax + 1)] + [{"x": UNSET}], 1)


def test_compiled_columns_scan_hand_written_machines_as_image_does(corpus):
    staged = seq_of([x_is("<", 3), union_of([seq_of([x_is("==", 0), x_gets(IntLit(5))]),
                                             seq_of([x_is(">", 0),
                                                     x_gets(Binary("+", X, IntLit(1)))])]),
                     x_is("!=", 2)])
    union_rule = CodeMatrix("staged", ("S", "A", "H"), "S", "H",
                            {("S", "A"): (Guard(BoolLit(True)),),
                             ("A", "A"): (staged,), ("A", "H"): (x_is(">=", 3),)}, XDECL)
    two = union_of([x_gets(IntLit(1)), x_gets(IntLit(2))])
    two_successors = CodeMatrix("two", ("S", "B", "H"), "S", "H",
                                {("S", "H"): (seq_of([x_is(">", 0), two]),),
                                 ("S", "B"): (x_is("<=", 0),)}, XDECL)
    xs = [{"x": v} for v in range(-1, 7)] + [{"x": UNSET}]
    assert_scans_agree(union_rule, xs, 8)
    assert_scans_agree(two_successors, xs, 2)
    with pytest.raises(EvalError, match="rule S -> H has a non-singleton image"):
        step(two_successors, Configuration("S", {"x": 1}), "det")

    # getL is consulted by three rules of one column and counted once per scan
    streams = parse("""
dsm twice {
  param left: stream;
  param out: stream;
  var u: int;
  start S;
  halt H;
  from S to A: [true];
  from A to A: getL(u); [u < 0]; putL | getL(u); [u > 5]; putL;
  from A to B: getL(u); putL;
  from B to A: [true];
  from A to H: ngetL;
}
""").matrix
    assert_scans_agree(streams, [{"left": (-1, 7, 3, -2, 9), "out": (), "u": UNSET},
                                 {"left": (), "out": (4,), "u": 0}], 20)
    mrg2 = corpus["mrg2"].matrix
    assert_scans_agree(mrg2, [merge_state(mrg2, (1, 4, 9), (2, 3, 10, 11))], 40)
    turing = corpus["turing"].matrix
    assert_scans_agree(turing, [{"t": Tape.from_string("A(()(A", head=1)}], 40)


def test_an_array_named_t_beside_a_tape_does_not_stand_for_the_tape():
    # the first rule of S writes the tape and then fails; the second writes
    # element 0 of the array t before its own wr, which must find the tape anew
    m = parse("""
dsm shadow {
  param N: int;
  param t: int[N];
  param tp: tape;
  start S;
  halt H;
  from S to B: wr('x'); [false];
  from S to A: { t[0] = 1 }; dir(R); wr('a');
  from A to H: { t[1] = 2 }; { t[0] = 3 }; rd('_'); wr('b');
  from B to H: [true];
}
""").matrix
    data = {"N": 2, "t": [0, 0], "tp": Tape.from_string("__")}
    rule = m.column("S")[1][1][0]
    got = mc.image(rule, data)
    assert [(s["t"], s["tp"].render()) for s in got] == [([1, 0], "a")]
    assert_scans_agree(m, [data], 3)
    out = mc.run(m, data)
    assert out.status == SUCCESS
    assert (out.trace.final.data["t"], out.trace.final.data["tp"].render()) == ([3, 2], "a b")
    assert (data["t"], data["tp"].render()) == ([0, 0], "_")


def test_a_deterministic_step_calls_no_image(primes, monkeypatch):
    calls = []
    for module in (interpreter, relations):
        monkeypatch.setattr(module, "image", lambda *args: calls.append(args))
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=5))
    assert (out.status, calls) == (SUCCESS, [])


# -- deterministic runs against an independent reference -------------------------

DET_DECLS = (VarDecl("x", "int", "var"), VarDecl("y", "int", "var"),
             VarDecl("a", "array", "var", IntLit(3)), VarDecl("left", "stream", "param"),
             VarDecl("out", "stream", "param"), VarDecl("t", "tape", "param"))


def _tape_atom(rng):
    return rng.choice([Builtin("rd", rng.choice("ab_")), Builtin("wr", rng.choice("ab")),
                       Builtin("dir", rng.choice("LRd"))])


def _det_atom(rng, streams):
    """One atom over x, y, a[3], left, out and the tape t; one in six may
    raise, and of those y = t and getL(t) change the number of tapes."""
    k = IntLit(rng.randint(-1, 3))
    if rng.random() < 1 / 6:
        return rng.choice([Guard(Binary("==", Index("a", X), k)),
                           Guard(Binary(">", Binary("/", X, Binary("-", X, IntLit(1))), IntLit(0))),
                           Guard(Binary("+", X, k)),
                           Assign(((("elem", "a", X), k),)),
                           Assign(((("var", "y"), Var("t")),))]
                          + [Builtin("putL"), Builtin("getL", "t")] * streams)
    return rng.choice([Guard(Binary(rng.choice(["<", "==", ">="]), X, k)),
                       Assign(((("var", "x"), Binary("+", X, IntLit(1))),)),
                       Assign(((("var", "x"), k),)),
                       Assign(((("elem", "a", IntLit(rng.randint(0, 2))), X), (("var", "x"), k))),
                       _tape_atom(rng)]
                      + [Builtin("getL", "x"), Builtin("ngetL")] * streams)


def _det_rule(rng, streams):
    def atoms(n):
        return seq_of([_det_atom(rng, streams) for _ in range(n)])
    r = rng.random()
    if r < 0.2:  # a Union, alone or staged between atoms
        union = union_of([atoms(rng.randint(1, 2)), atoms(rng.randint(1, 2))])
        return seq_of([atoms(1), union, atoms(1)]) if rng.random() < 0.5 else union
    if r < 0.3:  # a write between two tape builtins, which may change the tape count
        write = rng.choice([Assign(((("var", "y"), Var("t")),)), Assign(((("var", "x"), X),))]
                           + [Builtin("getL", "t"), Builtin("getL", "x")] * streams)
        return seq_of([_tape_atom(rng), write, _tape_atom(rng)])
    return atoms(rng.randint(1, 3))


def _det_machine(rng):
    # columns S and A may test left, column B never does
    cells = {}
    for frm in ("S", "A", "B"):
        for to in rng.sample(("A", "B", "H"), rng.randint(1, 3)):
            cells[frm, to] = tuple(_det_rule(rng, frm != "B") for _ in range(rng.randint(1, 2)))
    return CodeMatrix("det", ("S", "A", "B", "H"), "S", "H", cells, DET_DECLS)


def test_deterministic_runs_agree_with_the_reference_on_random_machines():
    rng = random.Random(28)
    statuses = Counter()
    for _ in range(250):
        m = _det_machine(rng)
        for _ in range(2):
            d0 = {"x": rng.randint(-1, 3), "y": 0,
                  "a": [rng.choice([0, 1, UNSET]) for _ in range(3)],
                  "left": tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3))), "out": (),
                  "t": Tape.from_string("".join(rng.choice("ab_") for _ in range(3)),
                                        head=rng.randint(0, 3))}
            bound = rng.randint(1, 6)
            status, controls, states, counts, error = det_run_reference(m, d0, bound)
            statuses[status] += 1
            try:
                out = mc.run(m, d0, "det", bound)
            except mc.ExecutionError as exc:
                got = ("error", exc.trace.controls, exc.trace.counters,
                       (exc.cause.message, exc.cause.var))
                assert got == ("error", controls, {**dict.fromkeys(got[2], 0), **counts}, error)
                continue
            trace = out.trace
            assert (out.status, trace.controls, trace.counters) == (
                status, controls, {**dict.fromkeys(trace.counters, 0), **counts})
            assert [state_key(plain_state(c.data)) for c in trace.configs] == [
                state_key(d) for d in states]
    assert min(statuses[s] for s in (SUCCESS, FAILURE, STEP_LIMIT, "error")) >= 20, statuses


def test_a_deterministic_run_calls_no_step_and_begins_no_scan(primes, monkeypatch):
    # no column of primes tests a stream, so none clears the seen-set
    calls = Counter()
    step_, begin_scan = interpreter.step, CallCounter.begin_scan
    monkeypatch.setattr(interpreter, "step", lambda *args: calls.update(["step"]) or step_(*args))
    monkeypatch.setattr(CallCounter, "begin_scan",
                        lambda counter: calls.update(["begin_scan"]) or begin_scan(counter))
    d0 = initial_state(primes.matrix, N=5)
    out = mc.run(primes.matrix, d0)
    assert (out.status, len(out.trace.configs), calls) == (SUCCESS, 18, Counter())
    assert_scans_agree(primes.matrix, [d0], 40)


def test_revisits_count_occurrences_in_the_control_sequence(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=3))
    assert out.trace.revisits == {"S": 1, "A": 2, "B": 2, "C": 1, "H": 1}


def test_revisits_property_on_longer_runs(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=9))
    controls = out.trace.controls
    for k, count in out.trace.revisits.items():
        assert controls.count(k) == count


# -- trace rendering ------------------------------------------------------------

def test_trace_table_matches_golden(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=3))
    text = mc.render_trace(primes.matrix, out.trace)
    assert text == golden_path("primes_trace_N3.txt").read_text()


def test_adjacent_trace_configurations_are_transitions(primes):
    out = mc.run(primes.matrix, initial_state(primes.matrix, N=5))
    for before, after in zip(out.trace.configs, out.trace.configs[1:]):
        images = []
        for to, rule in primes.matrix.outgoing(before.control):
            if to == after.control:
                images.extend(mc.image(rule, before.data))
        assert any(freeze_state(d) == freeze_state(after.data) for d in images)


def test_multi_valued_rule_is_an_error_under_deterministic_policy():
    from matrixcode.dsl import parse
    pf = parse("""
dsm fork {
  var x: int;
  start S;
  halt H;
  from S to H: { x = 1 } | { x = 2 };
}
""")
    # two rules are scanned in order: fine deterministically
    assert mc.run(pf.matrix, {"x": 0}).trace.final.data["x"] == 1
    # one rule whose own image is two states is not
    from matrixcode.relations import Assign, union_of
    from matrixcode.expr import IntLit
    branch = union_of([Assign(((("var", "x"), IntLit(1)),)),
                       Assign(((("var", "x"), IntLit(2)),))])
    m = dataclasses.replace(pf.matrix, cells={("S", "H"): (branch,)})
    with pytest.raises(mc.ExecutionError) as err:
        mc.run(m, {"x": 0})
    assert "non-singleton" in str(err.value)
    assert len(mc.enumerate_runs(m, {"x": 0}, 5)) == 2  # all-policy is fine


def test_execution_error_carries_partial_trace():
    from matrixcode.dsl import parse
    pf = parse("""
dsm boom {
  var x: int;
  start S;
  halt H;
  from S to A: { x = 1 };
  from A to H: [x / (x - 1) > 0];
}
""")
    with pytest.raises(mc.ExecutionError) as err:
        mc.run(pf.matrix, {"x": 0})
    assert "division by zero" in str(err.value)
    assert err.value.trace.controls == ["S", "A"]
