import io
import contextlib
import inspect
import os
import shutil
import subprocess
import sys
import time

import pytest

from conftest import fixture_path, golden_path

import matrixcode as mc
from matrixcode.cli import main, parse_value
from matrixcode.expr import MAX_NESTING


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def corpus_file(name):
    return str(mc.corpus_path(name))


# -- run ---------------------------------------------------------------------

def test_run_primes_prints_the_reference_trace_and_exits_zero():
    code, out, _ = run_cli("run", corpus_file("primes"), "--input", "N=3")
    assert code == 0
    assert out == golden_path("primes_trace_N3.txt").read_text()


def test_run_empty_stage_fails_with_exit_one():
    code, out, _ = run_cli("run", corpus_file("primes0"), "--input", "N=3")
    assert code == 1
    assert out.strip().endswith("S  | {?,?,?}")


def test_run_with_tiny_step_bound_exits_two():
    code, _, _ = run_cli("run", corpus_file("primes"), "--input", "N=3",
                         "--steps", "2")
    assert code == 2


def test_run_reports_parse_errors_on_stderr_with_exit_three():
    code, _, err = run_cli("run", str(fixture_path("bad_undeclared.mxc")))
    assert code == 3
    assert "undeclared variable 'q'" in err
    assert "bad_undeclared.mxc:5" in err


def test_run_all_mode_finds_an_accepting_computation():
    code, out, _ = run_cli("run", corpus_file("decnum"),
                           "--input", "left=[-1,1,2,3]", "--mode", "all")
    assert code == 0
    assert out.splitlines()[-1].startswith("     H")


def test_run_turing_prints_final_tape():
    text = "A" + "(" * 6 + ")" * 4 + "A"
    code, out, _ = run_cli("run", corpus_file("turing"),
                           "--input", "t=tape[%s]@1" % text)
    assert code == 0
    assert out.rstrip().endswith("A ( 0 X X X X X X X X A")


# -- enumerate ------------------------------------------------------------------

def test_enumerate_decnum_reports_three_successes():
    code, out, _ = run_cli("enumerate", corpus_file("decnum"),
                           "--input", "left=[-1,1,2,3]", "--depth", "12")
    assert code == 0
    assert "3 successful" in out.splitlines()[-1]


# -- verify ------------------------------------------------------------------------

def test_verify_final_stage_exits_zero():
    # trimmed candidate/counter ranges keep this CLI check quick; the full
    # declared domain is checked once per session in the verifier tests
    code, out, _ = run_cli("verify", corpus_file("primes"),
                           "--domain", "j={0,5,7}", "--domain", "n={0,1}")
    assert code == 0
    assert "vector HOLDS" in out
    assert "no incomplete columns" in out


def test_verify_stage_one_reports_witness_and_exits_one():
    code, out, _ = run_cli("verify", corpus_file("primes1"))
    assert code == 1
    assert out == golden_path("verify_primes1.txt").read_text()


@pytest.mark.parametrize("name", ["primes", "mrg2", "emerge"])
def test_verify_report_of_a_held_vector_is_golden(name):
    # conditions here include earlier ones, which verify decides through
    code, out, _ = run_cli("verify", corpus_file(name))
    assert code == 0
    assert out == golden_path("verify_%s.txt" % name).read_text()


def test_verify_corrupted_matrix_names_the_failing_triple():
    code, out, _ = run_cli("verify", str(fixture_path("corrupted-primes.mxc")),
                           "--domain", "j={5,7}", "--domain", "n={0,1}")
    assert code == 1
    assert "counterexample" in out
    assert "{B} [p[n] * p[n] > j]; { k = k + 1 } {A}" in out


def test_verify_asks_both_questions_in_one_call(monkeypatch):
    from matrixcode import cli, verifier
    calls = []

    def counted(*args, **kwargs):
        bound = inspect.signature(verifier.verify).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["triples"], bound.arguments["columns"]))
        return verifier.verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify", counted)
    assert run_cli("verify", corpus_file("primes1"))[0] == 1
    assert calls == [(True, True)]


def test_verify_images_a_cell_only_on_the_classes_of_what_it_reads():
    # S -> A reads N, k and p (S's condition, the rule, A's condition):
    # 1,008 classes of primes' 48,384 domain states
    from matrixcode import relations
    from matrixcode.values import freeze_state
    pf = mc.load_corpus("primes")
    rel = pf.matrix.cell_relation("S", "A")
    fn, states = relations.compile_rule(rel), set()
    object.__setattr__(rel, "_fn",
                       lambda state, counter: states.add(freeze_state(state)) or fn(state, counter))
    report = mc.verifier.verify(pf.vector, pf.matrix, pf.domain)
    assert report.holds and report.incomplete == []
    assert 0 < len(states) <= 1008


def test_verify_without_vector_exits_three():
    code, _, err = run_cli("verify", str(fixture_path("tiny.mxc")))
    assert code == 3
    assert "no condition vector" in err


# -- compile ----------------------------------------------------------------------

def test_compile_writes_source_and_header(tmp_path):
    out_c = tmp_path / "primes.c"
    code, _, _ = run_cli("compile", corpus_file("primes"), "--out", str(out_c))
    assert code == 0
    assert out_c.read_text() == golden_path("primes.c").read_text()
    assert (tmp_path / "matrixcode_rt.h").read_text() == mc.support_header()


def test_compile_untranslatable_fixture_exits_one():
    code, _, err = run_cli("compile", str(fixture_path("overlap.mxc")))
    assert code == 1
    assert "overlap" in err and "witness" in err


def _names(var="x", state="A", machine="m", streams=""):
    """A one-cell machine whose variable, middle control state and name are given."""
    return ("dsm %s { %svar %s: int; start S; halt H; from S to %s: { %s = 1 }; "
            "from %s to H: [%s > 0]; }" % (machine, streams, var, state, var, state, var))


STREAMS = "var left, out: stream; "


@pytest.mark.parametrize("text, argv, message", [
    (_names(var="int"), (), "variable 'int' has a name reserved in C"),
    (_names(var="tri", streams=STREAMS), (), "variable 'tri' has a name reserved in C"),
    (_names(var="state"), (), "variable 'state' has a name reserved in C"),
    (_names(var="State"), (), "variable 'State' has a name reserved in C"),
    (_names(var="_Bool"), (), "variable '_Bool' has a name reserved in C"),
    (_names(var="mc_rd"), (), "variable 'mc_rd' has a name reserved in C"),
    (_names(machine="int"), (), "function name 'int' is reserved in C or not a C identifier"),
    (_names(), ("--name", "Trinity"),
     "function name 'Trinity' is reserved in C or not a C identifier"),
    (_names(), ("--name", "2x"), "function name '2x' is reserved in C or not a C identifier"),
    (_names(state="State"), (), None),
    (_names(state="tri", streams=STREAMS), (), None),
    (_names(state="mc_getL", streams=STREAMS), (), None),
    (_names(state="int64_t"), (), None),
    (_names(machine="café"), ("--name", "cafe"), None),
    # the object-like macros of the standard headers, and C's reserved prefixes
    (_names(var="NULL"), (), "variable 'NULL' has a name reserved in C"),
    (_names(var="EOF"), (), "variable 'EOF' has a name reserved in C"),
    (_names(var="stdin"), (), "variable 'stdin' has a name reserved in C"),
    (_names(var="INT64_MAX"), (), "variable 'INT64_MAX' has a name reserved in C"),
    (_names(var="SIZE_MAX"), (), "variable 'SIZE_MAX' has a name reserved in C"),
    (_names(var="__LINE__"), (), "variable '__LINE__' has a name reserved in C"),
    (_names(machine="EXIT_FAILURE"), (),
     "function name 'EXIT_FAILURE' is reserved in C or not a C identifier"),
    (_names(state="NULL"), (), None),
    (_names(state="_IOFBF"), (), None),
    # what the headers declare at file scope: a local may shadow it, the function may not be it
    (_names(machine="exit"), (), "function name 'exit' is reserved in C or not a C identifier"),
    (_names(machine="main"), (), "function name 'main' is reserved in C or not a C identifier"),
    (_names(machine="size_t"), (),
     "function name 'size_t' is reserved in C or not a C identifier"),
    (_names(), ("--name", "printf"),
     "function name 'printf' is reserved in C or not a C identifier"),
    (_names(var="exit", state="printf"), (), None),
    # a renamed state whose first new name is another state's
    ("dsm m { var x: int; start S; halt H; from S to x: { x = 1 }; "
     "from x to S_x: [x > 0]; from S_x to H: [x > 1]; }", (), None),
    ("dsm m { var x, S_x: int; start S; halt H; from S to x: { x = 1 }; "
     "from x to H: [S_x > 0]; }", (), None),
    # var arrays and tapes
    ("dsm m { param N: int; var p: int[N]; start S; halt H; "
     "from S to H: { p[0] = 1 }; }", (), None),
    ("dsm m { var p: int[2]; start S; halt H; from S to H: { p[1] = 1 }; }", (), None),
    ("dsm m { var n: int; var p: int[n]; start S; halt H; from S to H: { p[0] = 1 }; }", (),
     "var array 'p' has length n, which reads n; C sizes it from int params only"),
    ("dsm m { var p: int[0]; start S; halt H; from S to H: [true]; }", (),
     "var array 'p' has length 0, which is not a positive constant"),
    ("dsm m { var t: tape; start S; halt H; from S to H: wr('a'); }", (),
     "var tape 't' cannot be declared in C; make it a param")])
def test_a_name_that_c_cannot_take_is_renamed_or_refused(tmp_path, text, argv, message):
    code, out, err = run_cli("compile", _write(tmp_path / "n.mxc", text.encode()), *argv)
    if message is not None:
        assert (code, out, err) == (1, "", message + "\n")
        return
    assert (code, err) == (0, "")
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is not None:
        (tmp_path / "n.c").write_text(out)
        (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
        done = subprocess.run([cc, "-std=c99", "-fsyntax-only", str(tmp_path / "n.c")],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


# -- identities / closure / bench ---------------------------------------------------

def test_identities_report_is_green_and_refutes_printed_variants():
    code, out, _ = run_cli("identities", "--trials", "120", "--seed", "7")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("wrong on purpose; counterexample found") == 4


@pytest.mark.parametrize("argv, message", [
    (("identities", "--trials", "0"), "trials must be at least 1, got 0"),
    (("identities", "--trials", "-3"), "trials must be at least 1, got -3"),
    (("bench-merge", "--pairs", "0"), "--pairs must be at least 1, got 0"),
    (("bench-merge", "--pairs", "-2"), "--pairs must be at least 1, got -2")])
def test_a_count_below_one_exits_three_with_one_line_and_no_report(argv, message):
    assert run_cli(*argv) == (3, "", message + "\n")


def test_an_identity_check_of_no_trials_is_refused():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            mc.check_identities(seed=7, trials=trials)


def test_closure_on_the_tiny_machine():
    code, out, _ = run_cli("closure", str(fixture_path("tiny.mxc")))
    assert code == 0
    assert out.strip() == "both paths agree: 1 pair(s)"


def test_closure_reports_an_evaluation_error_with_exit_three():
    code, out, err = run_cli("closure", corpus_file("primes"))
    assert code == 3
    assert out == ""
    assert err.strip() == ("evaluation error: index 2 out of bounds for length 2 "
                           "(line 51 col 33, variable 'p')")


def test_closure_reports_a_disagreement_with_exit_one(monkeypatch):
    from matrixcode import cli
    both_ways = cli.finite_dsm_relation

    def disagreeing(m, dom):
        states, by_closure, by_search = both_ways(m, dom)
        return states, by_closure, by_search - {min(by_search)}

    monkeypatch.setattr(cli, "finite_dsm_relation", disagreeing)
    assert run_cli("closure", str(fixture_path("tiny.mxc"))) == (
        1, "DISAGREEMENT: closure 1 pair(s), search 0 pair(s)\n", "")


RATIO = """dsm ratio {
  var x: int;
  start S;
  halt H;
  cond S: "any" is true;
  cond H: "ratio" is 10 / x > 0;
  from S to H: { x = x - 1 };
  domain { x in 1..2; }
}
"""


def test_verify_renders_an_error_verdict_with_its_state(tmp_path):
    code, out, err = run_cli("verify", _write(tmp_path / "ratio.mxc", RATIO.encode()))
    assert (code, err) == (1, "")
    assert ("  {S} { x = x - 1 } {H}\n"
            "      error: postcondition H: division by zero (line 6 col 25) (at {x=1})\n"
            in out)
    assert "vector FAILS" in out


def test_a_domain_override_that_does_not_fit_its_variable_exits_three():
    for name, command, path in (("N", "verify", corpus_file("primes1")),
                                ("x", "closure", str(fixture_path("tiny.mxc")))):
        code, out, err = run_cli(command, path, "--domain", name + "[]=0..1")
        assert code == 3
        assert out == ""
        assert err.strip() == "%r is a scalar and cannot take an array domain entry" % name


def test_a_domain_override_on_an_undeclared_variable_exits_three():
    for command, path in (("verify", corpus_file("primes1")),
                          ("closure", str(fixture_path("tiny.mxc")))):
        code, out, err = run_cli(command, path, "--domain", "zz=0..3")
        assert code == 3
        assert out == ""
        assert err.strip() == "'zz' is not a declared variable"


FLAG = """
dsm flag {
  var b: bool;
  start S;
  halt H;
  from S to H: [b]; { b = false } | [not b]; { b = true };
  %s
}
"""


def test_closure_on_a_bool_machine(tmp_path):
    with_block = tmp_path / "flag.mxc"
    with_block.write_text(FLAG % "domain { b in bool; }")
    bare = tmp_path / "bare.mxc"
    bare.write_text(FLAG % "")
    for argv in ((str(with_block),), (str(bare), "--domain", "b=bool")):
        code, out, err = run_cli("closure", *argv)
        assert (code, err) == (0, "")
        assert out.strip() == "both paths agree: 2 pair(s)"


def test_a_malformed_domain_override_exits_three(tmp_path):
    bare = tmp_path / "bare.mxc"
    bare.write_text(FLAG % "")
    for argv, message in (
            (("verify", corpus_file("primes1"), "--domain", "N=3..1"),
             "--domain N=3..1: empty range 3..1"),
            (("closure", str(bare), "--domain", "b[]=bool"),
             "--domain b[]=bool: a bool domain entry takes no '[]'"),
            (("closure", str(bare), "--domain", "b=bool;"),
             "--domain b=bool;: trailing input after the domain entry"),
            (("verify", corpus_file("primes1"), "--domain", "N={1,2"),
             "--domain N={1,2: expected '}', found end of input"),
            (("closure", corpus_file("mrg2"), "--domain", "left=stream(-1..0, 0..1)"),
             "--domain left=stream(-1..0, 0..1): negative stream length -1")):
        code, out, err = run_cli(*argv)
        assert (code, out, err.strip()) == (3, "", message)


NEGATIVE = """
dsm neg {
  param N: int;
  var p: int[N - 3];
  start S;
  halt H;
  cond S: "positive" is N > 0;
  cond H: "any" is true;
  from S to H: [N > 1] | [N < 3];
  domain { N in 1..4; %s }
}
"""


def test_a_negative_array_length_exits_three(tmp_path):
    path = tmp_path / "neg.mxc"
    for entry in ("p[] in {0,1};", ""):
        path.write_text(NEGATIVE % entry)
        for argv in (("verify", str(path)), ("closure", str(path)),
                     ("compile", str(path)), ("run", str(path), "--input", "N=1")):
            code, out, err = run_cli(*argv)
            assert (code, out, err.strip()) == (3, "", "array 'p' has negative length -2")


WHOLE = """dsm whole {
  var x: int;
  var p: int[2];
  start S;
  halt H;
  from S to A: { p[0] = 1; p[1] = 2 };
  from A to H: %s;
  domain { x in 0..1; }
}
"""


@pytest.mark.parametrize("block", ["{ x = p }", "{ p[1] = p }"])
def test_assigning_a_whole_array_exits_three_on_every_command(tmp_path, block):
    path = tmp_path / "whole.mxc"
    path.write_text(WHOLE % block)
    for argv in (("run",), ("run", "--mode", "all"), ("enumerate",), ("verify",),
                 ("closure",), ("compile", "--out", str(tmp_path / "whole.c"))):
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert (code, out, err.strip()) == (3, "", "error: A -> H: cannot assign the whole array 'p'")


SUPERSCRIPT = "dsm sup { var x: int; start S; halt H; from S to H: { x = ² }; }"
BOUND = """dsm bound { param b: bool; param c: sym; var y: int; start S; halt H;
  from S to H: [b]; { y = 1 } | [not b]; { y = 0 }; }"""
SIZED = "dsm sized { param N: int; param p: int[N]; start S; halt H; from S to H: [N > 0]; }"


@pytest.mark.parametrize("make_argv, message", [
    (lambda tmp: ("compile", corpus_file("mrg2"), "--out", str(tmp / "no" / "x.c")),
     "No such file or directory"),
    (lambda tmp: ("run", _write(tmp / "latin1.mxc", b"dsm caf\xe9 {}")),
     "latin1.mxc: 'utf-8' codec can't decode byte 0xe9"),
    (lambda tmp: ("run", _write(tmp / "sup.mxc", SUPERSCRIPT.encode())),
     "sup.mxc:1:59: unexpected character '²'"),
    (lambda tmp: ("run", corpus_file("primes"), "--input", "N=99999999999999999999"),
     "--input N=99999999999999999999: 99999999999999999999 does not fit in 64 bits"),
    (lambda tmp: ("run", corpus_file("mrg2"), "--input", "left=[1,9223372036854775808]"),
     "--input left=[1,9223372036854775808]: 9223372036854775808 does not fit in 64 bits"),
    (lambda tmp: ("run", corpus_file("turing"), "--input", "t=tape[AB"),
     "--input t=tape[AB: expected tape[...]@head:dir for 't'"),
    (lambda tmp: ("run", corpus_file("primes"), "--input", "N=3", "--input", "ZZ=5"),
     "--input ZZ=5: 'ZZ' is not a declared variable"),
    (lambda tmp: ("run", _write(tmp / "b.mxc", BOUND.encode()), "--input", "b=maybe"),
     "--input b=maybe: expected true/false for 'b'"),
    (lambda tmp: ("run", _write(tmp / "b.mxc", BOUND.encode()), "--input", "c=ab"),
     "--input c=ab: expected a single symbol for 'c'"),
    (lambda tmp: ("run", _write(tmp / "s.mxc", SIZED.encode()), "--input", "N=2",
                  "--input", "p=[1]"), "--input p=[1]: array 'p' needs exactly 2 elements"),
    (lambda tmp: ("run", _write(tmp / "s.mxc", SIZED.encode()), "--input", "N=2",
                  "--input", "p=1,2"), "--input p=1,2: expected [v,v,...] for 'p'"),
    (lambda tmp: ("run", _write(tmp / "b.mxc", BOUND.encode()), "--input", "b"),
     "input binding must look like name=value: 'b'"),
    (lambda tmp: ("closure", _write(tmp / "s.mxc", SIZED.encode())),
     "s.mxc has no domain block and no --domain overrides")])
def test_bad_outside_input_exits_three_with_one_message(tmp_path, make_argv, message):
    code, out, err = run_cli(*make_argv(tmp_path))
    assert (code, out) == (3, "")
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_well_formed_bool_and_sym_bindings_run(tmp_path):
    code, _, err = run_cli("run", _write(tmp_path / "m.mxc", BOUND.encode()),
                           "--input", "b=true", "--input", "c=(")
    assert (code, err) == (0, "")


def test_a_quoted_symbol_input_binds_the_symbol(tmp_path):
    path = _write(tmp_path / "paren.mxc", b"dsm paren { param c: sym; var y: int; "
                  b"start S; halt H; from S to H: [c == '(']; { y = 1 }; }")
    for literal, want in (("'('", 0), ("(", 0), ("')'", 1)):
        code, _, err = run_cli("run", path, "--input", "c=" + literal)
        assert (code, err) == (want, "")


@pytest.mark.parametrize("depth", [400, 3000])
def test_a_guard_nested_too_deeply_is_a_located_error(tmp_path, depth):
    guard = "(" * depth + "x == 0" + ")" * depth
    text = "dsm deep { var x: int; start S; halt H; from S to H: [%s]; { x = 1 }; }" % guard
    path = _write(tmp_path / "deep.mxc", text.encode())
    # located at the first token inside MAX_NESTING + 1 parentheses
    col = text.index("(") + MAX_NESTING + 2
    for command in ("render", "run"):
        code, out, err = run_cli(command, path)
        assert (code, out) == (3, "")
        assert err.strip() == "error: %s:1:%d: expression nested more than %d levels deep" \
            % (path, col, MAX_NESTING)


CHAINS = """dsm chains {
  var x: int;
  start S;
  halt H;
  cond S: "any" is x >= 0;
  cond H: "any" is x >= 0;
  from S to H: %s;
  domain { x in 0..2; }
}
"""


def _chain_cell(shape, n):
    if shape == "long rule":
        return "[x >= 0]; " + "; ".join(["{ x = 2 - x }"] * n)
    if shape == "wide cell":  # a guard after a statement: compile reports each rule
        return " | ".join("{ x = x + %d }; [x > 0]" % (i + 1) for i in range(n))
    chain = " and ".join(["x >= 0"] * n)
    if shape == "complementary pair":  # compile compares the two guards
        return "[%s]; { x = 1 } | [not (%s)]; { x = 2 }" % (chain, chain)
    return "[%s]; { x = 1 }" % chain


@pytest.mark.parametrize("n", [3, 3000])
@pytest.mark.parametrize("shape", ["long rule", "wide cell", "long chain", "complementary pair"])
def test_long_rules_wide_cells_and_long_chains_pass_every_command(tmp_path, shape, n):
    path = _write(tmp_path / "chains.mxc", (CHAINS % _chain_cell(shape, n)).encode())
    for argv in (("render", path), ("run", path, "--input", "x=0"), ("verify", path),
                 ("closure", path), ("compile", path)):
        code, out, err = run_cli(*argv)
        if argv[0] == "compile" and shape == "wide cell":
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                "column S: rule %d is not of guard-then-statements shape" % (i + 1)
                for i in range(n)]
        else:
            assert (code, err) == (0, "")
        assert argv[0] != "closure" or out == "both paths agree: 3 pair(s)\n"


@pytest.mark.parametrize("argv", [
    ("run", corpus_file("primes"), "--input", "N=4611686018427387904"),
    ("verify", corpus_file("primes1"), "--domain", "N=1..4611686018427387904")])
def test_an_input_or_domain_too_large_for_memory_exits_three(argv):
    assert run_cli(*argv) == (
        3, "", "out of memory: an input, a domain or an array is too large\n")


def _write(path, data):
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("literal, shown", [
    ("tape[AB]", "Tape('A B', head=0, dir=d)"),
    ("tape[A(()A]@1", "Tape('A ( ( ) A', head=1, dir=d)"),
    ("tape[AB]@-2:L", "Tape('A B', head=-2, dir=L)"),
    ("tape[AB]zz", "trailing input after tape literal for 't'"),
    ("tape[AB]@", "invalid literal for int() with base 10: ''"),
    ("tape[AB]@1:", "tape direction must be one of L, R, d")])
def test_a_tape_input_literal_or_its_error(literal, shown):
    try:
        value = repr(parse_value(literal, mc.VarDecl("t", "tape", "param", None)))
    except ValueError as exc:
        value = str(exc)
    assert value == shown


def test_a_tape_head_far_from_its_symbols_costs_nothing_for_the_gap():
    # the tape holds only its written squares, not the blanks up to the head
    start = time.perf_counter()
    code, out, _ = run_cli("run", corpus_file("turing"),
                           "--input", "t=tape[A()A]@-4611686018427387904:R")
    assert time.perf_counter() - start < 1.0
    assert code == 1  # no rule reads a blank
    assert out.splitlines() == ["control | data", "state   | state", "        | t", "-" * 17,
                                "     S  | A ( ) A", "    Q0  | A ( ) A"]


def test_a_domain_override_takes_a_stream_entry(tmp_path):
    path = tmp_path / "eat.mxc"
    path.write_text("dsm eat { param left: stream; var v: int; start S; halt H; "
                    "from S to H: ngetL | getL(v); { v = 0 }; }")
    code, out, err = run_cli("closure", str(path), "--domain", "v={0}",
                             "--domain", "left=stream(0..1, 4..5)")
    assert (code, err) == (0, "")
    assert out.strip() == "both paths agree: 3 pair(s)"


def test_bench_merge_matches_golden_and_the_test_bounds():
    code, out, _ = run_cli("bench-merge", "--pairs", "4", "--seed", "1")
    assert code == 0
    assert out == golden_path("bench_merge_s1_p4.txt").read_text()
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 8
    for label, getl, getr, putl, putr in rows:
        if label == "mMerge":
            assert int(getl) <= int(putl) + 2
            assert int(getr) <= int(putr) + 2


# -- render -------------------------------------------------------------------------

def test_render_primes_matches_golden():
    code, out, _ = run_cli("render", corpus_file("primes"))
    assert code == 0
    assert out == golden_path("render_primes.txt").read_text()


@pytest.mark.skipif(shutil.which("matrixcode") is None,
                    reason="console script not on PATH")
def test_console_script_entrypoint():
    out = subprocess.run(["matrixcode", "run", corpus_file("primes"),
                          "--input", "N=2"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "{2,3}" in out.stdout


def test_the_module_entry_point_exits_with_the_codes_of_main(tmp_path):
    src = str(mc.corpus_path("primes").parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    bad = tmp_path / "bad.mxc"
    bad.write_text("dsm broken {\n  start S;\n", encoding="utf-8")
    for argv, want in ((["run", corpus_file("primes"), "--input", "N=2"], 0),
                       (["run", str(bad)], 3), (["identities", "--trials", "0"], 3)):
        done = subprocess.run([sys.executable, "-m", "matrixcode.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == want, (argv, done.stderr)
        assert ("{2,3}" in done.stdout) is (want == 0)
        assert bool(done.stderr) is (want == 3)
