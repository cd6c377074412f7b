import random

import pytest

from conftest import fixture_path

from matrixcode import relations as R
from matrixcode.dsl import (ParseFailure, parse, parse_path, render_source,
                            render_tabular, tokenize)
from matrixcode.expr import MAX_NESTING, nesting
from matrixcode.matrix import validate

CORPUS_NAMES = ["primes", "primes0", "primes1", "primes2",
                "mrg0", "mrg1", "mrg2", "emerge", "turing", "decnum"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_parses_and_validates_clean(name, corpus):
    pf = corpus[name]
    assert validate(pf.matrix) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_round_trip_is_identity_on_the_parsed_structure(name, corpus):
    first = corpus[name]
    second = parse(render_source(first), filename=name)
    assert second == first
    assert parse(render_source(second), filename=name) == first


def test_primes_shape(primes):
    m = primes.matrix
    assert set(m.states) == {"S", "A", "B", "C", "H"}
    assert sum(1 for rules in m.cells.values() if rules) == 7
    assert m.start == "S" and m.halt == "H"
    assert primes.vector is not None and set(primes.vector) == set(m.states)


def test_rule_order_is_preserved(corpus):
    m = corpus["decnum"].matrix
    outgoing = m.outgoing("B")
    assert [to for to, _ in outgoing] == ["B", "H"]  # greedy consume first


def failure_of(name):
    with pytest.raises(ParseFailure) as err:
        parse_path(fixture_path(name))
    return err.value.diagnostics


def test_cell_out_of_halt_is_a_located_error():
    diags = failure_of("bad_from_halt.mxc")
    assert any("halt" in d.message and "H -> A" in d.location for d in diags)


def test_cell_into_start_is_a_located_error():
    diags = failure_of("bad_into_start.mxc")
    assert any("start" in d.message for d in diags)


def test_undeclared_variable_is_a_located_error():
    diags = failure_of("bad_undeclared.mxc")
    (diag,) = [d for d in diags if "q" in d.message]
    assert "undeclared" in diag.message
    assert "bad_undeclared.mxc:5" in diag.location


def test_duplicate_control_state_is_an_error():
    diags = failure_of("bad_dup_state.mxc")
    assert any("duplicate control state" in d.message for d in diags)


def test_unknown_builtin_is_a_located_error():
    diags = failure_of("bad_builtin.mxc")
    assert any("unknown builtin" in d.message for d in diags)


def test_quantifier_in_guard_is_rejected():
    text = """
dsm bad {
  var x: int;
  start S;
  halt H;
  from S to H: [forall i in 0..2 (x != i)];
}
"""
    with pytest.raises(ParseFailure) as err:
        parse(text)
    assert any("only allowed in conditions" in d.message
               for d in err.value.diagnostics)


def test_partial_condition_vector_is_rejected():
    text = """
dsm bad {
  var x: int;
  start S;
  halt H;
  cond S: "s" is true;
  from S to A: [true];
  from A to H: [true];
}
"""
    with pytest.raises(ParseFailure) as err:
        parse(text)
    assert any("missing control state" in d.message for d in err.value.diagnostics)


def test_domain_entry_that_does_not_fit_its_variable_is_a_located_error():
    text = """
dsm bad {
  var x: int;
  start S;
  halt H;
  from S to H: [x == 0];
  domain { x[] in 0..1; }
}
"""
    with pytest.raises(ParseFailure) as err:
        parse(text, filename="bad.mxc")
    (diag,) = err.value.diagnostics
    assert diag.location == "bad.mxc:7:12"
    assert diag.message == "'x' is a scalar and cannot take an array domain entry"


BOOL_MACHINE = """
dsm flag {
  var b: bool;
  var c: sym;
  start S;
  halt H;
  from S to H: [b]; { c = 'y' } | [not b]; { c = 'n' };
  %s
}
"""


def test_a_bool_domain_entry_round_trips():
    first = parse(BOOL_MACHINE % "domain { b in bool; }")
    assert first.domain.entries == {"b": ("bool",)}
    assert "b in bool;" in render_source(first)
    assert parse(render_source(first)) == first


@pytest.mark.parametrize("name, kind", [("b", "bool"), ("c", "sym")])
def test_an_int_domain_entry_on_a_bool_or_sym_variable_is_a_located_error(name, kind):
    with pytest.raises(ParseFailure) as err:
        parse(BOOL_MACHINE % ("domain { %s in 0..1; }" % name), filename="flag.mxc")
    (diag,) = err.value.diagnostics
    assert diag.location == "flag.mxc:8:12"
    assert diag.message == "%r is a %s and cannot take an int domain entry" % (name, kind)


@pytest.mark.parametrize("kind", ["start", "halt"])
def test_a_second_start_or_halt_is_a_located_error(kind):
    text = "dsm d {\n  start S;\n  halt H;\n  %s T;\n  from S to H: [true];\n}\n" % kind
    with pytest.raises(ParseFailure) as err:
        parse(text, filename="d.mxc")
    (diag,) = err.value.diagnostics
    assert (diag.location, diag.message) == ("d.mxc:4:3", "%s state declared twice" % kind)


def test_a_comparison_and_a_negation_under_equality_round_trip():
    first = parse("""
dsm cmp {
  var x: int;
  var b, c: bool;
  start S;
  halt H;
  from S to H: [(x < 1) == b]; { x = -(-x) } | [(not b) == c]; { b = not (x < 1) != c };
}
""")
    text = render_source(first)
    assert "[(x < 1) == b]; { x = -(-x) } | [(not b) == c]; { b = not (x < 1) != c }" in text
    assert parse(text) == first


@pytest.mark.parametrize("guard, found", [
    ("x < 1 < 2", "<"), ("x == 1 != b", "!="), ("not x < 1 == b", "==")])
def test_comparisons_do_not_chain(guard, found):
    with pytest.raises(ParseFailure) as err:
        parse("dsm c { var x: int; var b, c: bool; start S; halt H; from S to H: [%s]; }"
              % guard)
    (diag,) = err.value.diagnostics
    assert diag.message == "expected ']', found %r" % found


@pytest.mark.parametrize("entry, col, message", [
    ("x in 5..3;", 17, "empty range 5..3"),
    ("x[] in 1..0;", 19, "empty range 1..0"),
    ("s in stream(2..1, 0..3);", 24, "empty range 2..1"),
    ("s in stream(0..2, 3..0);", 30, "empty range 3..0"),
    ("s in stream(-2..1, 0..3);", 24, "negative stream length -2"),
    ("b[] in bool;", 19, "a bool domain entry takes no '[]'"),
    ("s[] in stream(0..2, 0..3);", 19, "a stream domain entry takes no '[]'")])
def test_a_malformed_domain_entry_is_a_located_error(entry, col, message):
    text = ("dsm d {\n  var x: int;\n  var b: bool;\n  var s: stream;\n"
            "  start S;\n  halt H;\n  from S to H: [b];\n  domain { %s }\n}\n" % entry)
    with pytest.raises(ParseFailure) as err:
        parse(text, filename="d.mxc")
    (diag,) = err.value.diagnostics
    assert (diag.location, diag.message) == ("d.mxc:8:%d" % col, message)


# one use of each builtin, in the form the renderer writes it
BUILTIN_USES = {"getL": "getL(v)", "getR": "getR(v)", "ngetL": "ngetL", "ngetR": "ngetR",
                "putL": "putL", "putR": "putR", "rd": "rd('a')", "wr": "wr('b')",
                "dir": "dir(R)"}


def test_every_builtin_round_trips_through_the_source_form():
    assert set(BUILTIN_USES) == set(R.BUILTINS)
    body = " | ".join(BUILTIN_USES.values())
    first = parse("""
dsm vocabulary {
  var left, right, out: stream;
  var v: int;
  var t: tape;
  start S;
  halt H;
  from S to H: %s;
}
""" % body)
    (rules,) = first.matrix.cells.values()
    assert [rule.name for rule in rules] == list(BUILTIN_USES)
    assert "from S to H: %s;" % body in render_source(first)
    assert parse(render_source(first)) == first


@pytest.mark.parametrize("tail, message", [
    ("from S to H: [x ==", "expected an expression, found end of input"),
    ("from S to H: [x == 1]", "expected ';', found end of input"),
    ("", "expected a declaration or '}', found end of input")])
def test_input_cut_short_names_the_end_of_input(tail, message):
    with pytest.raises(ParseFailure) as err:
        parse("dsm c { var x: int; start S; halt H; " + tail)
    (diag,) = err.value.diagnostics
    assert diag.message == message


# (text, kind, value) of tokens that stay apart when joined by a blank
LEXEMES = [("dsm", "IDENT", "dsm"), ("_k2", "IDENT", "_k2"), ("café", "IDENT", "café"),
           ("42", "INT", 42), ("0", "INT", 0), ("'('", "SYM", "("), ("'''", "SYM", "'"),
           ("' '", "SYM", " "), ('"a label"', "STRING", "a label"), ('""', "STRING", ""),
           ("==", "OP", "=="), ("..", "OP", ".."), ("<=", "OP", "<="), ("{", "OP", "{"),
           ("-", "OP", "-"), ("%", "OP", "%")]
GAPS = [" ", "\t", "\r", "\n", "  \n\t", " # note\n", "#\n\n", "\r\n"]
ENDS = ["", "\n", " ", "# trailing comment, no final newline", "\n#"]


def _line_col(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def test_token_positions_are_their_offsets_as_line_and_column():
    rng = random.Random(8)
    for _ in range(400):
        text, expected = rng.choice(GAPS + [""]), []
        for _ in range(rng.randint(0, 12)):
            lexeme, kind, value = rng.choice(LEXEMES)
            expected.append((kind, value) + _line_col(text, len(text)))
            text += lexeme + rng.choice(GAPS)
        text += rng.choice(ENDS)
        expected.append(("EOF", None) + _line_col(text, len(text)))
        got = [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
        assert got == expected, repr(text)


@pytest.mark.parametrize("text, location, message", [
    ("x '\n' y\nz", "<string>:1:3", "symbol literal must be a single quoted character"),
    ("x\n  'ab'", "<string>:2:3", "symbol literal must be a single quoted character"),
    ('x "abc\n"', "<string>:1:3", "unterminated string"),
    ("x = ²", "<string>:1:5", "unexpected character '²'"),
    ("# c\n 7½", "<string>:2:3", "unexpected character '½'"),
    ("a.b", "<string>:1:2", "unexpected character '.'")])
def test_a_lexical_error_is_located_at_its_first_character(text, location, message):
    with pytest.raises(ParseFailure) as err:
        tokenize(text)
    (diag,) = err.value.diagnostics
    assert (diag.location, diag.message) == (location, message)


def test_syntax_error_is_located():
    with pytest.raises(ParseFailure) as err:
        parse("dsm x {\n  start ;\n}")
    (diag,) = err.value.diagnostics
    assert ":2:" in diag.location


@pytest.mark.parametrize("decls, missing", [
    ("halt H;", ["start"]), ("start S;", ["halt"]), ("", ["start", "halt"])])
def test_a_missing_start_or_halt_is_reported_once(decls, missing):
    with pytest.raises(ParseFailure) as err:
        parse("dsm m { var x: int; %s from S to H: { x = y }; }" % decls, filename="m.mxc")
    assert [str(d) for d in err.value.diagnostics] == (
        ["error: m.mxc:1:%d: undeclared variable 'y'" % (41 + len(decls))]
        + ["error: m.mxc: missing %s declaration" % kind for kind in missing])


# six header lines, then each case's own lines from line 7 on
HEADER = "dsm d {\n  var x: int;\n  var s: stream;\n  var t: tape;\n  start S;\n  halt H;\n"
CONDS = '  cond S: "s" is true;\n  cond H: "h" is true;\n'
CELL = "  from S to H: [x > 0];\n"


@pytest.mark.parametrize("tail, location, message", [
    ("  var f: float;\n" + CELL + "}", "7:10", "unknown type 'float'"),
    ("  var x: int;\n" + CELL + "}", "7:7", "duplicate declaration of 'x'"),
    (CONDS + "  var S: int;\n" + CELL + "}", "9:7", "variable 'S' collides with a control state"),
    ("  var S: int;\n" + CONDS + CELL + "}", "8:8",
     "control state 'S' collides with a variable name"),
    (CELL + "  cond S: x >= 0;\n}", "8:11", "expected a quoted condition label"),
    (CELL + "  from S to H: [x < 0];\n}", "8:8", "duplicate cell S -> H"),
    ("  from S to H: [x > 0]; { };\n}", "7:25", "empty statement block"),
    ("  from S to H: [x > 0] | 7;\n}", "7:26",
     "expected a rule atom ([guard], {statements} or a builtin)"),
    ("  from S to H: rd(x);\n}", "7:19", "rd needs a symbol literal like '('"),
    ("  from S to H: dir(Q);\n}", "7:20", "direction must be L, R or d"),
    ("  from S to H: { x = s[0] };\n}", "7:22", "stream indexing is only allowed in conditions"),
    ("  from S to H: { x = len(s) };\n}", "7:22", "len() is only allowed in conditions"),
    (CELL + "  domain { x in {1, a}; }\n}", "8:21", "expected an integer, found 'a'"),
    (CELL + "} extra", "8:3", "trailing input after closing '}'"),
    ("  whatever;\n" + CELL + "}", "7:3",
     "expected param/var/start/halt/cond/from/domain, found 'whatever'"),
    ("  from S H: [x > 0];\n}", "7:10", "expected 'to', found 'H'")])
def test_each_parse_error_has_its_one_located_message(tail, location, message):
    with pytest.raises(ParseFailure) as err:
        parse(HEADER + tail, filename="d.mxc")
    (diag,) = err.value.diagnostics
    assert (diag.location, diag.message) == ("d.mxc:" + location, message)


# -- tabular rendering ----------------------------------------------------------

def _table_shape(text):
    lines = text.strip("\n").split("\n")
    header = lines[0]
    columns = [c.strip() for c in header.rstrip("|").split("|") if c.strip()]
    rows = [line.rsplit("||", 1)[1].strip() for line in lines[2:]]
    return columns, [r.split(":")[0].strip() for r in rows]


def test_primes_table_layout(primes):
    columns, rows = _table_shape(render_tabular(primes.matrix, primes.vector))
    assert columns == ["C", "B", "A", "S"]
    assert rows == ["H", "A", "B", "C"]


def test_merge_table_layout(mrg2):
    columns, rows = _table_shape(render_tabular(mrg2.matrix))
    assert columns == ["G", "F", "E", "D", "C", "B", "A", "S"]
    assert rows == ["H", "A", "B", "C", "D", "E", "F", "G"]


def test_turing_table_layout(corpus):
    columns, rows = _table_shape(render_tabular(corpus["turing"].matrix))
    assert columns == ["Q2", "Q1", "Q0", "S"]
    assert rows == ["H", "Q0", "Q1", "Q2"]


def test_single_cell_table_is_one_by_one():
    pf = parse_path(fixture_path("tiny.mxc"))
    columns, rows = _table_shape(render_tabular(pf.matrix))
    assert columns == ["S"]
    assert rows == ["H"]


def test_row_labels_carry_condition_labels(primes):
    text = render_tabular(primes.matrix, primes.vector)
    assert "H: p[0..N-1] holds the first N primes" in text


def _in_condition(text):
    return parse('dsm n { var x: int; start S; halt H; cond S: "s" is %s; '
                 'cond H: "h" is true; from S to H: { x = 1 }; }' % text)


def _quantified(n):
    return "".join("forall i%d in 0..1 (" % i for i in range(n)) + "true" + ")" * n


# .mxc text whose deepest part sits n levels down, and the largest n allowed:
# a parenthesised right operand costs two levels, one for the operand and
# one for the parenthesis
NESTED_TEXT = [
    (lambda n: "(" * n + "true" + ")" * n, MAX_NESTING),
    (lambda n: "- " * n + "x == 0", MAX_NESTING),
    (_quantified, MAX_NESTING),
    (lambda n: "true or (" * n + "true" + ")" * n, MAX_NESTING // 2),
]


@pytest.mark.parametrize("make, bound", NESTED_TEXT)
def test_text_nested_to_the_bound_parses_and_one_past_it_is_a_located_error(make, bound):
    assert _in_condition(make(bound)).vector["S"].holds_on({"x": 0}) is True
    for n in (bound + 1, 3000):
        with pytest.raises(ParseFailure) as err:
            _in_condition(make(n))
        (diag,) = err.value.diagnostics
        assert diag.message == "expression nested more than %d levels deep" % MAX_NESTING
        assert diag.location.startswith("<string>:1:")


def test_an_included_condition_counts_its_own_levels():
    deep = "x == 0 and " + _quantified(MAX_NESTING - 1)
    text = ('dsm n { var x: int; start S; halt H; cond S: "s" is %s; '
            'cond H: "h" is %s; from S to H: { x = 1 }; }')
    assert nesting(parse(text % (deep, "S and x == 0")).vector["H"].expr) == \
        MAX_NESTING
    with pytest.raises(ParseFailure) as err:
        parse(text % (deep, "x == 0 and (S)"))
    (diag,) = err.value.diagnostics
    assert diag.message == "expression nested more than %d levels deep" % MAX_NESTING
