import ast
import gc
import random
import warnings
import weakref

import pytest

import oracles
from oracles import OracleEvalError, eval_reference

from matrixcode import corpus_path
from matrixcode import expr as expr_module
from matrixcode import relations as R
from matrixcode.dsl import parse_path
from matrixcode.expr import (MAX_NESTING, Binary, BoolLit, Count, IntLit, Index, Len,
                             C99, Quant, Unary, Var, eval_expr, free_vars, nesting,
                             render_expr)
from matrixcode.values import INT64_MAX, INT64_MIN, UNSET, EvalError, Stream
from matrixcode.verifier import DomainSpec, enumerate_states


def b(op, left, right):
    return Binary(op, left, right)


def test_arithmetic_example():
    state = {"x": 3}
    assert eval_expr(state, b("+", Var("x"), IntLit(1))) == 4


def test_guard_comparison_example():
    # k >= N is false in the state the running example stops short of halting
    state = {"k": 2, "N": 3}
    assert eval_expr(state, b(">=", Var("k"), Var("N"))) is False


def test_indexing_example():
    state = {"p": [2, 3, 0], "k": 1}
    assert eval_expr(state, Index("p", Var("k"))) == 3


def test_eval_is_pure():
    state = {"p": [2, 3, 0], "k": 1}
    e = b("+", Index("p", Var("k")), Var("k"))
    first = eval_expr(state, e)
    second = eval_expr(state, e)
    assert first == second == 4
    assert state == {"p": [2, 3, 0], "k": 1}


@pytest.mark.parametrize("expr,message", [
    (Var("missing"), "unbound"),
    (Var("u"), "uninitialized"),
    (Index("p", IntLit(5)), "out of bounds"),
    (b("/", IntLit(1), IntLit(0)), "division by zero"),
    (b("%", IntLit(1), IntLit(0)), "division by zero"),
    (b("+", BoolLit(True), IntLit(1)), "expected an integer"),
    (b("and", IntLit(1), BoolLit(True)), "expected a boolean"),
    (b("==", IntLit(0), BoolLit(False)), "mismatched types"),
])
def test_errors_are_reported(expr, message):
    state = {"p": [1, 2], "u": UNSET}
    with pytest.raises(EvalError) as err:
        eval_expr(state, expr)
    assert message in str(err.value)


def test_error_names_the_variable():
    with pytest.raises(EvalError) as err:
        eval_expr({"q": UNSET}, Var("q", pos=(4, 7)))
    assert err.value.var == "q"
    assert "line 4 col 7" in str(err.value)


def test_overflow_is_an_error_not_wraparound():
    big = IntLit(INT64_MAX)
    with pytest.raises(EvalError) as err:
        eval_expr({}, b("+", big, IntLit(1)))
    assert "overflow" in str(err.value)


@pytest.mark.parametrize("e", [
    b("+", IntLit(INT64_MAX), IntLit(1)),
    b("-", IntLit(INT64_MIN), IntLit(1)),
    b("*", IntLit(INT64_MAX), IntLit(2)),
    b("/", IntLit(INT64_MIN), IntLit(-1)),
    Unary("neg", IntLit(INT64_MIN)),
])
def test_every_int64_overflow_is_an_error(e):
    with pytest.raises(EvalError) as err:
        eval_expr({}, e)
    assert err.value.message == "integer overflow: result does not fit in 64 bits"
    assert eval_expr({}, b("%", IntLit(INT64_MIN), IntLit(-1))) == 0


def test_a_check_inside_a_block_does_not_cover_what_follows_it():
    # the read of x in the quantifier body or the right operand of 'and'
    # runs only when that block does, so the read after it is checked again
    x_is_0 = b("==", Var("x"), IntLit(0))
    for block in (Quant("exists", "i", IntLit(1), IntLit(0), x_is_0),
                  b("and", BoolLit(False), x_is_0)):
        with pytest.raises(EvalError) as err:
            eval_expr({"x": UNSET}, b("or", block, x_is_0))
        assert (err.value.message, err.value.var) == ("read of uninitialized variable", "x")


@pytest.mark.parametrize("a,bv,q,r", [
    (7, 2, 3, 1),
    (-7, 2, -3, -1),
    (7, -2, -3, 1),
    (-7, -2, 3, -1),
])
def test_division_truncates_toward_zero(a, bv, q, r):
    assert eval_expr({}, b("/", IntLit(a), IntLit(bv))) == q
    assert eval_expr({}, b("%", IntLit(a), IntLit(bv))) == r


def test_short_circuit_guards_out_of_range_reads():
    # k <= N fails first, so p[k-1] is never read
    state = {"k": 9, "N": 2, "p": [2, 3]}
    e = b("and", b("<=", Var("k"), Var("N")),
          b(">", Index("p", b("-", Var("k"), IntLit(1))), IntLit(0)))
    assert eval_expr(state, e) is False


def test_quantifiers_nest_and_shadow():
    # forall i in 0..2 (exists j in 0..2 (a[i] == j))
    e = Quant("forall", "i", IntLit(0), IntLit(2),
              Quant("exists", "j", IntLit(0), IntLit(2),
                    b("==", Index("a", Var("i")), Var("j"))))
    assert eval_expr({"a": [0, 1, 2]}, e) is True
    assert eval_expr({"a": [0, 1, 3]}, e) is False


def test_a_quantifier_variable_shadows_the_state():
    # the bound reads the state's k, the body the quantifier's
    inner = Quant("exists", "k", IntLit(0), Var("k"), b("==", Var("k"), IntLit(1)))
    assert eval_expr({"k": 2}, inner) is True
    assert eval_expr({"k": 0}, inner) is False


def test_quantifier_empty_range():
    body = BoolLit(False)
    assert eval_expr({}, Quant("forall", "i", IntLit(1), IntLit(0), body)) is True
    assert eval_expr({}, Quant("exists", "i", IntLit(1), IntLit(0), body)) is False


def test_len_and_count_observe_streams():
    state = {"s": (1, 2, 2, 5)}
    assert eval_expr(state, Len("s")) == 4
    assert eval_expr(state, Count("s", IntLit(2))) == 2
    assert eval_expr(state, Index("s", IntLit(0))) == 1


def test_free_vars():
    e = Quant("forall", "i", IntLit(0), Var("k"),
              b("==", Index("p", Var("i")), Var("x")))
    assert free_vars(e) == {"k", "p", "x"}


def _random_expr(rng, depth=4, wide=False):
    """Integer expression over x, y, z and a, with unary minus, nested too;
    wide adds the leaves of _wide_leaf, so the operands may be ill-typed."""
    if depth <= 0 or rng.random() < 0.25:
        if wide and rng.random() < 0.5:
            return _wide_leaf(rng)
        return rng.choice([
            IntLit(rng.randint(-4, 4)),
            Var(rng.choice("xyz")),
            Index("a", IntLit(rng.randint(0, 2))),
        ])
    if rng.random() < 0.2:
        operand = _random_expr(rng, depth - 1, wide)
        if not wide and isinstance(operand, IntLit):
            operand = Unary("neg", Var("x"))  # the parser folds -k into one literal
        return Unary("neg", operand)
    op = rng.choice(["+", "-", "*", "/", "%"])
    return Binary(op, _random_expr(rng, depth - 1, wide),
                  _random_expr(rng, depth - 1, wide))


def _wide_leaf(rng):
    """Boolean literals, len, and indexing and count over the array a, the
    stream s or the scalar x, with computed (sometimes boolean) arguments."""
    name = rng.choice("asx")
    kind = rng.randrange(4)
    if kind == 0:
        return BoolLit(rng.random() < 0.5)
    if kind == 1:
        return Len(name)
    if kind == 2:
        return Index(name, _random_expr(rng, 0, wide=True))
    return Count(name, _random_expr(rng, 0, wide=True))


def _random_bool_expr(rng, depth=3, wide=False):
    if depth == 0:
        left, right = _random_expr(rng, 2, wide), _random_expr(rng, 2, wide)
        return Binary(rng.choice(["==", "!=", "<", "<=", ">", ">="]), left, right)
    kind = rng.random()
    if kind < 0.4:
        return Binary(rng.choice(["and", "or"]),
                      _random_bool_expr(rng, depth - 1, wide),
                      _random_bool_expr(rng, depth - 1, wide))
    if kind < 0.5:
        return Unary("not", _random_bool_expr(rng, depth - 1, wide))
    if kind < 0.65:
        quant = rng.choice(["forall", "exists"])
        if wide:
            lo, hi = _random_expr(rng, 0, wide), _random_expr(rng, 0, wide)
        else:
            lo, hi = IntLit(rng.randint(-2, 1)), IntLit(rng.randint(-1, 2))
        body = Binary("!=", Var("q"), _random_expr(rng, 1, wide))
        if wide and rng.random() < 0.3:
            body = body.right  # an integer, not a boolean
        return Quant(quant, "q", lo, hi, body)
    if wide and kind > 0.9:
        return BoolLit(rng.random() < 0.5)
    if not wide and kind > 0.8:  # booleans compared with == and !=
        operands = [_random_bool_expr(rng, 0), BoolLit(rng.random() < 0.5),
                    Unary("not", _random_bool_expr(rng, depth - 1)),
                    _random_bool_expr(rng, depth - 1)]
        return Binary(rng.choice(["==", "!="]), rng.choice(operands),
                      rng.choice(operands))
    return _random_bool_expr(rng, 0, wide)


def _random_state(rng):
    return {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3),
            "z": rng.randint(-3, 3),
            "a": [rng.choice([UNSET, -3, -2, -1, 0, 1, 2, 3]) for _ in range(3)],
            "s": tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))}


def test_compiled_matches_interpreted_on_random_expressions():
    # eval_expr runs the compiled closure; eval_reference walks the tree
    rng = random.Random(2024)
    messages = set()
    for _ in range(400):
        e = _random_bool_expr(rng, wide=True)
        for _ in range(3):  # after the first, eval_expr reuses e's closure
            state = _random_state(rng)
            try:
                expected = eval_reference(state, e)
            except OracleEvalError as exc:
                with pytest.raises(EvalError) as err:
                    eval_expr(state, e)
                assert (err.value.message, err.value.var) == (exc.message, exc.var), \
                    render_expr(e)
                messages.add(exc.message)
            else:
                got = eval_expr(state, e)
                assert (got, type(got)) == (expected, type(expected)), render_expr(e)
    assert {"array index must be an integer", "quantifier bound must be an integer",
            "quantifier body is not boolean", "count needs an integer value"} <= messages


def _value_or_error(state, e):
    try:
        v = eval_expr(state, e)
        return v, type(v)
    except EvalError as exc:
        return exc.message, exc.var


def test_a_stream_view_evaluates_as_the_tuple_of_its_items():
    rng = random.Random(13)
    for _ in range(300):
        e = _random_bool_expr(rng, wide=True)
        state = _random_state(rng)
        s = state["s"]
        viewed = {**state, "s": Stream([9] + list(s) + [9], 1, 1 + len(s))}
        assert _value_or_error(viewed, e) == _value_or_error(state, e), render_expr(e)
    same = Binary("==", Var("s"), Var("t"))
    view = Stream((0, 1, 2), 1, 3)
    assert eval_expr({"s": view, "t": (1, 2)}, same) is True
    assert eval_expr({"s": (1, 2), "t": view}, same) is True
    assert eval_expr({"s": view, "t": Stream([1], 0, 1)}, same) is False
    with pytest.raises(EvalError, match="mismatched"):
        eval_expr({"s": view, "t": [1, 2]}, same)


def test_the_oracles_import_nothing_from_the_package():
    with open(oracles.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported  # the walk sees the module's own imports
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] == "matrixcode"]


def test_render_round_trips_through_parser():
    from matrixcode.dsl import _Parser
    rng = random.Random(5)
    for _ in range(300):
        e = _random_bool_expr(rng)
        text = render_expr(e)
        parser = _Parser("dsm d { var x: int; start S; halt H; }", "<t>")
        parser.decl_types = {"x": "int", "y": "int", "z": "int", "a": "array"}
        parser.tokens = __import__("matrixcode.dsl", fromlist=["tokenize"]).tokenize(text)
        parser.i = 0
        reparsed = parser.parse_expr(cond_ctx=True, locals_=("q",))
        assert (reparsed, parser.peek().kind) == (e, "EOF"), text


def _nested(kind, n):
    """A hand-built tree n levels deep: a right-nested or, quantifiers
    around quantifiers, or negations of negations."""
    e = Var("x") if kind == "neg" else b("==", Var("x"), IntLit(0))
    for i in range(n):
        if kind == "or":
            e = b("or", b("==", Var("x"), IntLit(i + 1)), e)
        elif kind == "quantifier":
            e = Quant("forall", "i%d" % i, IntLit(0), IntLit(1), e)
        else:
            e = Unary("neg", e)
    return e


@pytest.mark.parametrize("kind", ["or", "quantifier", "neg"])
def test_a_tree_nested_to_the_bound_compiles_and_one_past_it_is_an_error(kind):
    state = {"x": 0}
    at_bound = _nested(kind, MAX_NESTING - (kind != "neg"))  # x == 0 is one level
    assert nesting(at_bound) == MAX_NESTING
    assert eval_expr(state, at_bound) == eval_reference(state, at_bound)
    for past in (_nested(kind, MAX_NESTING + (kind == "neg")), _nested(kind, 1000)):
        with pytest.raises(EvalError) as err:
            eval_expr(state, past)
        assert err.value.message == "expression nested more than %d levels deep" \
            % MAX_NESTING


def test_a_long_left_associated_chain_does_not_nest():
    chain = b("==", Var("x"), IntLit(0))
    for i in range(500):
        chain = b("and", chain, b("!=", Var("x"), IntLit(i + 1)))
    assert nesting(chain) == 2  # the right operand of !=
    # a right operand counts when the leftmost operand has operands of its own
    deep = Unary("not", Unary("not", Unary("not", Var("b"))))
    assert nesting(b("and", Unary("not", Var("a")), deep)) == 4
    assert eval_expr({"x": 0}, chain) is True
    assert eval_expr({"x": 7}, chain) is False


def test_a_chain_of_3000_links_is_walked_by_a_loop():
    total, test = Var("x"), b(">=", Var("x"), IntLit(0))
    for i in range(3000):
        total = b("+", total, IntLit(1))
        test = b("and", test, b(">=", Var("y"), IntLit(-i)))
    assert (nesting(total), nesting(test)) == (1, 2)
    assert (free_vars(total), free_vars(test)) == ({"x"}, {"x", "y"})
    assert eval_expr({"x": 5}, total) == 3005
    assert eval_expr({"x": 0, "y": 0}, test) is True
    assert eval_expr({"x": 0, "y": -1}, test) is False
    assert render_expr(total) == render_expr(total, spelling=C99) == "x" + " + 1" * 3000
    assert render_expr(test, spelling=C99) == "x >= 0" + "".join(
        " && y >= %d" % -i for i in range(3000))


def test_expressions_of_one_shape_share_one_code_object_until_both_are_freed():
    def shaped(name, seq, lit, idx, line):
        return Binary("and", Binary("<", Var(name, pos=(line, 1)), IntLit(lit, pos=(line, 5)),
                                    pos=(line, 3)),
                      Binary("==", Count(seq, Index(seq, IntLit(idx), pos=(line, 14)),
                                         pos=(line, 9)), Len(seq, pos=(line, 20))),
                      pos=(line, 7))
    before = set(expr_module._CODE)
    first, second = shaped("x", "a", 3, 0, 1), shaped("y", "s", 7, 1, 9)
    assert eval_expr({"x": 1, "a": [4, 4]}, first) is True
    with pytest.raises(EvalError) as err:
        eval_expr({"y": 1, "s": (5,)}, second)
    assert (err.value.var, err.value.pos) == ("s", (9, 14))
    assert first._fn is not second._fn
    assert first._fn.__code__ is second._fn.__code__
    new = set(expr_module._CODE) - before
    assert len(new) == 1
    del first, second, err
    gc.collect()
    assert not new & set(expr_module._CODE)


def _corpus_expressions(pf):
    """Every expression of a parsed file: conditions, array lengths, guards,
    assigned values and assigned element indices."""
    out = [cond.expr for cond in (pf.vector or {}).values()]
    out += [d.length for d in pf.matrix.decls if d.length is not None]
    for rules in pf.matrix.cells.values():
        for atom in (a for rule in rules for a in R.atoms(rule)):
            if isinstance(atom, R.Guard):
                out.append(atom.expr)
            elif isinstance(atom, R.Assign):
                for target, rhs in atom.targets:
                    out += [rhs] + ([target[2]] if target[0] == "elem" else [])
    return out


@pytest.mark.parametrize("name", ["primes", "primes0", "primes1", "primes2", "mrg0",
                                  "mrg1", "mrg2", "emerge", "turing", "decnum"])
def test_every_corpus_expression_matches_the_reference_on_its_own_domain(name, monkeypatch):
    # a fresh parse and an empty code cache, so every source is compiled here
    monkeypatch.setattr(expr_module, "_CODE", weakref.WeakValueDictionary())
    pf = parse_path(corpus_path(name))
    states = list(enumerate_states(pf.domain or DomainSpec({}), pf.matrix.decls))
    states = random.Random(name).sample(states, min(len(states), 400))
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in _corpus_expressions(pf):
            for state in states:
                try:
                    expected = eval_reference(state, e)
                except OracleEvalError as exc:
                    with pytest.raises(EvalError) as err:
                        eval_expr(state, e)
                    assert (err.value.message, err.value.var) == (exc.message, exc.var), \
                        render_expr(e)
                    outcomes.add("error")
                else:
                    got = eval_expr(state, e)
                    assert (got, type(got)) == (expected, type(expected)), render_expr(e)
                    outcomes.add(type(got))
    assert outcomes
