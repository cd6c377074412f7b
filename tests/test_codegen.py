import random
import shutil
import subprocess

import pytest

from conftest import fixture_path, golden_path, initial_state
import matrixcode as mc
from matrixcode.cli import merge_inputs, random_stream
from matrixcode.codegen import CodegenError, check_translatable, emit
from matrixcode.dsl import parse_path
from matrixcode.expr import (Binary, BoolLit, Count, IntLit, Len, Quant, Unary, Var,
                             render_expr)
from matrixcode.matrix import CodeMatrix, VarDecl
from matrixcode.relations import Assign, Builtin, Guard, seq_of


# -- translatability ---------------------------------------------------------------

def test_prime_matrix_is_translatable(primes):
    assert check_translatable(primes.matrix, primes.domain).translatable


def test_merge_matrix_is_translatable(mrg2):
    assert check_translatable(mrg2.matrix, mrg2.domain).translatable


def test_turing_matrix_is_translatable(corpus):
    assert check_translatable(corpus["turing"].matrix).translatable


def test_overlapping_guards_are_reported_with_a_witness():
    pf = parse_path(fixture_path("overlap.mxc"))
    report = check_translatable(pf.matrix, pf.domain)
    assert not report.translatable
    (finding,) = report.findings
    assert finding.column == "S"
    assert "x=1" in finding.message


def test_overlap_without_a_domain_is_still_a_finding():
    pf = parse_path(fixture_path("overlap.mxc"))
    report = check_translatable(pf.matrix, None)
    assert not report.translatable
    assert "cannot establish" in report.findings[0].message


def _column_s(rules, domain=""):
    """The findings of a machine whose column S holds the given rules."""
    from matrixcode.dsl import parse
    pf = parse("dsm two { var x, y: int; start S; halt H; from S to A: %s; "
               "from A to H: [x >= 0]; %s }" % (rules, domain))
    return [str(f) for f in check_translatable(pf.matrix, pf.domain).findings]


CANNOT = ("column S: cannot establish that rules 1 and 2 are mutually exclusive "
          "(no domain to enumerate)")


def test_a_domain_proves_two_rules_exclusive_where_the_syntax_cannot():
    rules = "[x > 0]; { x = 1 } | [x < 0]; { x = 2 }"
    assert _column_s(rules, "domain { x in 0..3; y in {0}; }") == []
    assert _column_s(rules) == [CANNOT]


def test_the_overlap_search_skips_states_where_a_guard_raises():
    # at x = 0 the first guard divides by zero; x = 1 is the first witness
    rules = "[10 / x > 0]; { y = 1 } | [x < 2]; { y = 2 }"
    assert _column_s(rules, "domain { x in 0..3; y in {0}; }") == [
        "column S: rules 1 and 2 overlap, witness {x=1, y=0}"]
    rules = "[10 / x > 0]; { y = 1 } | [x == 0]; { y = 2 }"
    assert _column_s(rules, "domain { x in 0..3; y in {0}; }") == []


@pytest.mark.parametrize("rules, findings", [
    ("[x > 0]; [y > 1]; { x = 1 } | [x > 0]; [y <= 1]; { x = 2 }", []),
    ("[x > 0]; [y == 1] | [x > 0]; [y != 1]; { x = 2 }", []),
    ("[x > 0]; [y > 1]; { x = 1 } | [x >= 0]; [y <= 1]; { x = 2 }", [CANNOT]),
    ("[x > 0]; [y > 1]; { x = 1 } | [x > 0]; [y < 1]; { x = 2 }", [CANNOT]),
    ("[not (x > 0)]; { x = 1 } | [x > 0]; { x = 2 }", []),
    ("[x > 0]; { x = 1 } | [not (x > 0)]; { x = 2 }", []),
    ("[not (x > 0)]; { x = 1 } | [x >= 0]; { x = 2 }", [CANNOT])])
def test_guards_that_agree_up_to_a_complementary_last_atom_are_exclusive(rules, findings):
    assert _column_s(rules) == findings


def test_nondeterministic_recognizer_is_not_translatable(corpus):
    report = check_translatable(corpus["decnum"].matrix)
    assert not report.translatable
    assert any(f.column == "S" for f in report.findings)


def test_statement_before_guard_is_rejected():
    from matrixcode.dsl import parse
    pf = parse("""
dsm backwards {
  var x: int;
  start S;
  halt H;
  from S to H: { x = x - 1 }; [x >= 0];
}
""")
    report = check_translatable(pf.matrix)
    assert not report.translatable
    assert "guard-then-statements" in report.findings[0].message


# -- emission -----------------------------------------------------------------------

@pytest.mark.parametrize("name,fn", [
    ("primes", None), ("mrg2", "mMerge"), ("turing", None)])
def test_emitted_source_matches_golden(corpus, name, fn):
    pf = corpus[name]
    text = emit(pf.matrix, function_name=fn, dom=pf.domain)
    assert text == golden_path("%s.c" % name).read_text()


def test_emission_is_deterministic(primes):
    a = emit(primes.matrix, dom=primes.domain)
    b = emit(primes.matrix, dom=primes.domain)
    assert a == b


def test_emit_refuses_untranslatable_matrices():
    pf = parse_path(fixture_path("overlap.mxc"))
    with pytest.raises(CodegenError):
        emit(pf.matrix, dom=pf.domain)


def _one_cell(rules, decls):
    """A two-state machine whose one cell S -> H holds the given rules."""
    return CodeMatrix("f", ("S", "H"), "S", "H", {("S", "H"): tuple(rules)},
                      tuple(decls))


@pytest.mark.parametrize("culprit", [
    Quant("forall", "i", IntLit(0), Var("x"), Binary("<", Var("i"), IntLit(3))),
    Len("s"), Count("s", IntLit(1))])
def test_emit_refuses_a_guard_with_no_c_form(culprit):
    guard = Binary("or", Var("b"), Binary("!=", culprit, BoolLit(True)))
    m = _one_cell([seq_of([Guard(guard), Assign(((("var", "x"), IntLit(1)),))])],
                  [VarDecl("x", "int", "param"), VarDecl("b", "bool", "param"),
                   VarDecl("s", "stream", "param")])
    with pytest.raises(CodegenError) as err:
        emit(m)
    assert "expression %r has no C form" % (culprit,) in str(err.value)


def test_a_builtin_outside_the_table_is_a_finding():
    m = _one_cell([seq_of([Guard(BoolLit(True)), Builtin("jump")])], [])
    assert [str(f) for f in check_translatable(m).findings] == [
        "column S: rule 1 is not of guard-then-statements shape"]
    with pytest.raises(CodegenError):
        emit(m)


def test_primes_branch_structure(primes):
    text = emit(primes.matrix, dom=primes.domain)
    cases = [line.strip() for line in text.splitlines()
             if line.strip().startswith("case ")]
    assert cases == ["case A:", "case B:", "case C:", "case H:", "case S:"]
    body = text[text.index("case A:"):text.index("case B:")]
    assert "if (k >= N) { state = H; }" in body
    assert "else { j = p[k - 1] + 2; n = 0; state = B; }" in body


def test_merge_branch_structure(mrg2):
    text = emit(mrg2.matrix, function_name="mMerge", dom=mrg2.domain)
    cases = [line.strip() for line in text.splitlines()
             if line.strip().startswith("case ")]
    assert len(cases) == 9  # S, A..G, H
    assert "if (mc_getR(tri, &v)) { mc_putR(tri); state = B; }" in text
    assert text.count("mc_getL(tri, &u)") == 3  # one test per dispatch


def test_turing_guard_chains(corpus):
    text = emit(corpus["turing"].matrix)
    assert "if (mc_rd(t) == '(') { mc_dir(t, 'R'); mc_wr(t, '('); state = Q0; break; }" in text
    assert text.count("assert(false") == 3  # one per rd-chain column


# a quote and a backslash as symbols: in a guard, and read and written on a tape
QUOTED = (r"""dsm q { param c: sym; var y: int; start S; halt H;
              from S to H: [c == ''']; { y = 1 } | [c != ''']; { y = 0 }; }""",
          r"""dsm t { param t: tape; start S; halt H;
              from S to H: rd('\'); wr(''') | rd('''); wr('\'); }""")


def test_quote_and_backslash_symbols_are_escaped_in_c():
    guard, tape = (emit(mc.parse(text).matrix) for text in QUOTED)
    assert r"if (c == '\'') { y = 1; state = H; }" in guard
    assert r"if (mc_rd(t) == '\\') { mc_wr(t, '\''); state = H; break; }" in tape
    assert r"if (mc_rd(t) == '\'') { mc_wr(t, '\\'); state = H; break; }" in tape


# a complementary get pair led by ngetL, an ngetL inside a guard chain, a
# control state that collides with a variable, and streams declared only as var
PIN = """dsm pin { var left, out: stream; var u, x: int; start S; halt H;
  from S to x: ngetL | getL(u); { x = u };
  from x to D: [x >= 0];  from x to H: [x < 0];
  from D to H: ngetL; [u > 0]; }"""
PIN_C = """/* pin: translated from code matrix pin */
#include <assert.h>
#include "matrixcode_rt.h"

void pin(Trinity *tri) {
    typedef enum { D, H, S, S_x } State;
    State state = S;
    int64_t u, x;
    while (true) {
        switch (state) {
        case D:
            if (!mc_getL(tri, 0) && u > 0) { state = H; break; }
            assert(false && "no transition from D");
            break;
        case H:
            return;
        case S:
            if (mc_getL(tri, &u)) { x = u; state = S_x; }
            else { state = S_x; }
            break;
        case S_x:
            if (x >= 0) { state = D; }
            else { state = H; }
            break;
        }
    }
}
"""
# E is a control state with no outgoing cell
DEAD = "dsm dead { var x: int; start S; halt H; from S to E: [x > 0]; from S to H: [x <= 0]; }"
DEAD_CASES = """        case E:
            assert(false && "no transition from E");
            break;
        case H:
            return;
        case S:
            if (x > 0) { state = E; }
            else { state = H; }
            break;
"""


def test_a_get_pair_led_by_nget_and_a_renamed_state_emit_exactly():
    assert emit(mc.parse(PIN).matrix) == PIN_C


def test_a_column_with_no_cell_asserts_that_it_has_no_transition():
    text = emit(mc.parse(DEAD).matrix)
    assert "void dead(void) {" in text
    assert text[text.index("        case E:"):text.index("        }\n    }")] == DEAD_CASES


# -- compiled equivalence --------------------------------------------------------------

CC = shutil.which("cc") or shutil.which("gcc")

needs_cc = pytest.mark.skipif(CC is None, reason="no C toolchain")


def build(tmp_path, sources, out="prog"):
    exe = tmp_path / out
    cmd = [CC, "-std=c99", "-O1", "-o", str(exe)]
    cmd += [str(s) for s in sources]
    subprocess.run(cmd, check=True, capture_output=True)
    return exe


@needs_cc
def test_quote_and_backslash_symbols_compile(tmp_path):
    (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
    for k, text in enumerate(QUOTED):
        source = tmp_path / ("quoted%d.c" % k)
        source.write_text(emit(mc.parse(text).matrix))
        subprocess.run([CC, "-std=c99", "-c", "-o", str(source.with_suffix(".o")),
                        str(source)], check=True, capture_output=True)


@needs_cc
def test_compiled_primes_matches_interpreter(tmp_path, primes):
    (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
    (tmp_path / "primes.c").write_text(emit(primes.matrix, dom=primes.domain))
    (tmp_path / "main.c").write_text(r"""
#include <stdio.h>
#include "matrixcode_rt.h"
void primes(int64_t N, int64_t p[]);
int main(void) {
    for (int64_t N = 2; N <= 100; N++) {
        int64_t p[100];
        primes(N, p);
        printf("%lld:", (long long)N);
        for (int64_t i = 0; i < N; i++) printf(" %lld", (long long)p[i]);
        printf("\n");
    }
    return 0;
}
""")
    exe = build(tmp_path, [tmp_path / "primes.c", tmp_path / "main.c"])
    out = subprocess.run([str(exe)], capture_output=True, text=True, check=True)
    by_n = dict(line.split(":") for line in out.stdout.strip().splitlines())
    for n in range(2, 101):
        outcome = mc.run(primes.matrix, initial_state(primes.matrix, N=n))
        expected = " " + " ".join(str(x) for x in outcome.trace.final.data["p"])
        assert by_n[str(n)] == expected, n


# a var array sized by a param: reversed into b, then weighted into out
REVERSE = """dsm rev { param N: int; param a: int[N]; param out: int[N];
  var b: int[N]; var i: int; start S; halt H;
  from S to L: { i = 0 };
  from L to L: [i < N]; { b[N - 1 - i] = a[i]; i = i + 1 };
  from L to C: [i >= N]; { i = 0 };
  from C to C: [i < N]; { out[i] = b[i] * (i + 1); i = i + 1 };
  from C to H: [i >= N]; }"""


@needs_cc
def test_a_var_array_is_declared_and_computes_what_the_interpreter_computes(tmp_path):
    m = mc.parse(REVERSE).matrix
    (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
    (tmp_path / "rev.c").write_text(emit(m))
    (tmp_path / "main.c").write_text(r"""
#include <stdio.h>
#include "matrixcode_rt.h"
void rev(int64_t N, int64_t a[], int64_t out[]);
int main(void) {
    for (int64_t N = 1; N <= 6; N++) {
        int64_t a[6], out[6];
        for (int64_t i = 0; i < N; i++) a[i] = 3 * i + N;
        rev(N, a, out);
        for (int64_t i = 0; i < N; i++) printf("%lld ", (long long)out[i]);
        printf("\n");
    }
    return 0;
}
""")
    exe = build(tmp_path, [tmp_path / "rev.c", tmp_path / "main.c"])
    lines = subprocess.run([str(exe)], capture_output=True, text=True,
                           check=True).stdout.splitlines()
    for n, line in enumerate(lines, 1):
        d0 = initial_state(m, N=n, a=[3 * i + n for i in range(n)], out=[0] * n)
        final = mc.run(m, d0).trace.final.data["out"]
        assert line.split() == [str(v) for v in final], n


@needs_cc
def test_compiled_merge_matches_interpreter_and_counters(tmp_path, mrg2):
    (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
    (tmp_path / "mrg2.c").write_text(
        emit(mrg2.matrix, function_name="mMerge", dom=mrg2.domain))
    (tmp_path / "main.c").write_text(r"""
#include <stdio.h>
#include <stdlib.h>
#include "matrixcode_rt.h"
void mMerge(Trinity *tri);
int main(void) {
    long nl, nr;
    if (scanf("%ld", &nl) != 1) return 2;
    int64_t *left = malloc(sizeof(int64_t) * (nl ? nl : 1));
    for (long i = 0; i < nl; i++) if (scanf("%lld", (long long *)&left[i]) != 1) return 2;
    if (scanf("%ld", &nr) != 1) return 2;
    int64_t *right = malloc(sizeof(int64_t) * (nr ? nr : 1));
    for (long i = 0; i < nr; i++) if (scanf("%lld", (long long *)&right[i]) != 1) return 2;
    int64_t outbuf[4096];
    Trinity tri;
    mc_trinity_init(&tri, left, nl, right, nr, outbuf, 4096);
    mMerge(&tri);
    printf("%ld %ld %ld %ld\n", tri.n_getL, tri.n_getR, tri.n_putL, tri.n_putR);
    for (size_t i = 0; i < tri.out.len; i++) printf("%lld ", (long long)tri.out.data[i]);
    printf("\n");
    return 0;
}
""")
    exe = build(tmp_path, [tmp_path / "mrg2.c", tmp_path / "main.c"])
    rng = random.Random(90)
    for _ in range(20):
        left = random_stream(rng, max_len=40)
        right = random_stream(rng, max_len=40)
        feed = "%d %s %d %s" % (len(left), " ".join(map(str, left)),
                                len(right), " ".join(map(str, right)))
        out = subprocess.run([str(exe)], input=feed, capture_output=True,
                             text=True, check=True)
        count_line, out_line = out.stdout.strip("\n").split("\n")
        c_counts = tuple(int(x) for x in count_line.split())
        c_out = tuple(int(x) for x in out_line.split())
        outcome = mc.run(mrg2.matrix, merge_inputs(mrg2.matrix, left, right))
        t = outcome.trace
        assert c_out == t.final.data["out"]
        assert c_counts == (t.counters["getL"], t.counters["getR"],
                            t.counters["putL"], t.counters["putR"])


def _random_int_expr(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([IntLit(rng.randint(-5, 5)), Var(rng.choice("xyz"))])
    if rng.random() < 0.25:  # nested negation, of a literal too
        return Unary("neg", Unary("neg", _random_int_expr(rng, depth - 1)))
    if rng.random() < 0.15:
        return Unary("neg", _random_int_expr(rng, depth - 1))
    return Binary(rng.choice("+-*/%"), _random_int_expr(rng, depth - 1),
                  _random_int_expr(rng, depth - 1))


def _random_c_bool_expr(rng, depth):
    kind = rng.random()
    if depth == 0 or kind < 0.3:
        return Binary(rng.choice(["==", "!=", "<", "<=", ">", ">="]),
                      _random_int_expr(rng, 2), _random_int_expr(rng, 2))
    if kind < 0.55:
        return Binary(rng.choice(["and", "or"]), _random_c_bool_expr(rng, depth - 1),
                      _random_c_bool_expr(rng, depth - 1))
    if kind < 0.7:
        return Unary("not", _random_c_bool_expr(rng, depth - 1))
    if kind < 0.9:  # booleans compared
        return Binary(rng.choice(["==", "!="]), _random_c_bool_expr(rng, depth - 1),
                      _random_c_bool_expr(rng, depth - 1))
    return BoolLit(rng.random() < 0.5)


@needs_cc
def test_emitted_expressions_compute_what_the_interpreter_computes(tmp_path):
    """Each expression becomes one emitted function that stores its value in
    out[0]; a boolean one through a guard and its negation."""
    rng = random.Random(6)
    decls = [VarDecl(n, "int", "param") for n in "xyz"]
    decls.append(VarDecl("out", "array", "param", IntLit(1)))

    def store(value):
        return Assign(((("elem", "out", IntLit(0)), value),))

    (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
    exprs, sources = [], []
    for k in range(150):
        if k % 2:
            e = _random_int_expr(rng, 4)
            rules = [store(e)]
        else:
            e = _random_c_bool_expr(rng, 3)
            rules = [seq_of([Guard(e), store(IntLit(1))]),
                     seq_of([Guard(Unary("not", e)), store(IntLit(0))])]
        exprs.append(e)
        sources.append(emit(_one_cell(rules, decls), function_name="e%d" % k))
    table = ", ".join("e%d" % k for k in range(len(exprs)))
    sources.append(r"""
static void (*const fns[])(int64_t, int64_t, int64_t, int64_t[]) = { %s };
int main(void) {
    int k;
    long long x, y, z;
    while (scanf("%%d %%lld %%lld %%lld", &k, &x, &y, &z) == 4) {
        int64_t out[1];
        fns[k](x, y, z, out);
        printf("%%lld\n", (long long)out[0]);
    }
    return 0;
}
""" % table)
    (tmp_path / "exprs.c").write_text("\n".join(sources))
    exe = build(tmp_path, [tmp_path / "exprs.c"])
    cases = []
    for k, e in enumerate(exprs):
        for _ in range(6):
            state = {n: rng.randint(-6, 6) for n in "xyz"}
            try:
                expected = int(mc.eval_expr(state, e))
            except mc.EvalError:  # division by zero or overflow
                continue
            cases.append((k, state, expected))
    feed = "".join("%d %d %d %d\n" % (k, s["x"], s["y"], s["z"]) for k, s, _ in cases)
    out = subprocess.run([str(exe)], input=feed, capture_output=True, text=True,
                         check=True)
    got = [int(line) for line in out.stdout.split()]
    assert len(got) == len(cases) > 600
    for (k, state, expected), value in zip(cases, got):
        assert value == expected, (render_expr(exprs[k]), state)


@needs_cc
@pytest.mark.parametrize("name", ["primes", "primes0", "primes1", "primes2", "mrg0", "mrg1",
                                  "mrg2", "emerge", "turing"])
def test_every_translatable_corpus_machine_compiles(tmp_path, corpus, name):
    pf = corpus[name]
    (tmp_path / "matrixcode_rt.h").write_text(mc.support_header())
    (tmp_path / "m.c").write_text(emit(pf.matrix, dom=pf.domain))
    done = subprocess.run([CC, "-std=c99", "-fsyntax-only", str(tmp_path / "m.c")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
