import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import compose_pairs, fsm_words_reference, power_pairs, reachable_pairs

from matrixcode.expr import Binary, IntLit, Var
from matrixcode.matrix import CodeMatrix, VarDecl, power
from matrixcode.relations import Assign, Guard, seq_of, union_of
from matrixcode.verifier import DomainSpec
from matrixcode.kleene import (FSM, BoundedLanguage, FiniteRelation, RConst,
                               RDot, ROne, RPlus, RStar,
                               check_identities, closure, finite_dsm_relation,
                               fsm_language, interp_languages,
                               interp_relations, matrix_closure, tabulate)

A, B = RConst("a"), RConst("b")


def rel(n, *pairs):
    return FiniteRelation(n, frozenset(pairs))


# -- interpretation ---------------------------------------------------------------

def test_relation_composition():
    env = {"a": rel(2, (0, 1)), "b": rel(2, (1, 0))}
    assert interp_relations(RDot(A, B), env, 2) == rel(2, (0, 0))


def test_relation_one_is_identity():
    assert interp_relations(ROne(), {}, 3) == rel(3, (0, 0), (1, 1), (2, 2))


def test_language_star_truncates():
    env = {"a": BoundedLanguage.of(3, ["x"])}
    assert interp_languages(RStar(A), env, 3).words == {"", "x", "xx", "xxx"}


def test_unbound_constant_is_an_error():
    with pytest.raises(KeyError):
        interp_relations(RConst("nope"), {}, 2)


def test_sums_powers_and_repeats():
    from matrixcode.kleene import RPower, RPowerLess, RRepeat, RSum
    env = {"a": rel(3, (0, 1), (1, 2))}
    assert interp_relations(RSum(()), env, 3) == rel(3)          # empty sum is 0
    assert interp_relations(RSum((A, A)), env, 3) == env["a"]
    assert interp_relations(RRepeat(3, A), env, 3) == env["a"]   # nE = E
    assert interp_relations(RPower(A, 0), env, 3) == FiniteRelation.identity(3)
    assert interp_relations(RPower(A, 2), env, 3) == rel(3, (0, 2))
    # E^{<2} = 1 + E
    assert interp_relations(RPowerLess(A, 2), env, 3) \
        == FiniteRelation.identity(3).union(env["a"])


# -- closure -----------------------------------------------------------------------

def test_closure_adds_composed_paths():
    r = rel(3, (0, 1), (1, 2))
    assert closure(r) == rel(3, (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))


def test_closure_of_empty_is_identity():
    assert closure(rel(3)) == FiniteRelation.identity(3)


def test_closure_matches_reachability_oracle():
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randint(1, 6)
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        assert closure(rel(n, *pairs)).pairs == reachable_pairs(n, pairs)


def test_closure_is_a_least_fixpoint():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(1, 5)
        r = rel(n, *{(rng.randrange(n), rng.randrange(n)) for _ in range(n)})
        c = closure(r)
        assert closure(c) == c
        assert r.included_in(c)
        assert FiniteRelation.identity(n).included_in(c)


@st.composite
def pair_sets(draw):
    """n up to 200, so that a row spans several machine words, two pair sets
    over it and a power; a column is drawn often from the two ends, which
    puts the bits of one row far apart."""
    n = draw(st.integers(1, 200))
    col = st.one_of(st.integers(0, n - 1), st.sampled_from((0, n - 1)))
    pairs = st.frozensets(st.tuples(st.integers(0, n - 1), col), max_size=40)
    return n, draw(pairs), draw(pairs), draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(pair_sets())
def test_relation_rows_agree_with_pair_sets(case):
    n, r, s, k = case
    R, S = rel(n, *r), rel(n, *s)
    assert R.pairs == r and S.pairs == s
    assert all(bits & 1 for _lo, bits in R.rows.values())  # normalised
    assert R.then(S).pairs == compose_pairs(r, s)
    assert R.union(S).pairs == r | s
    assert R.star().pairs == reachable_pairs(n, r)
    assert R.power(k).pairs == power_pairs(n, r, k)
    assert R.included_in(S) == (r <= s) and S.included_in(R) == (s <= r)
    part = rel(n, *sorted(r)[::2])
    assert part.included_in(R) and R.included_in(part) == (len(r) < 2)
    assert (R == S) == (r == s)
    again = rel(n, *sorted(r, reverse=True))
    assert again == R and hash(again) == hash(R)


def test_relations_over_different_ranges_do_not_combine():
    for combine in (FiniteRelation.union, FiniteRelation.then):
        with pytest.raises(ValueError):
            combine(rel(2, (0, 1)), rel(3, (1, 2), (2, 2)))


def test_composing_sparse_relations_costs_their_pairs_not_n_bits_a_row():
    n = 20000
    rng = random.Random(63)
    f = [rng.randrange(n) for _ in range(n)]
    g = [rng.randrange(n) for _ in range(n)]
    f_pairs, g_pairs = frozenset(enumerate(f)), frozenset(enumerate(g))
    tracemalloc.start()
    try:
        fg = FiniteRelation(n, f_pairs).then(FiniteRelation(n, g_pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20  # rows stored from bit 0 would take about 25 MB each
    assert fg.pairs == {(a, g[f[a]]) for a in range(n)}


def power_sum(states, cells, zero, one, n):
    """I + M + ... + M^n by plain union/then loops; absent entries are zero."""
    power = {(i, j): one if i == j else zero for i in states for j in states}
    total = dict(power)
    for _ in range(n):
        nxt = {}
        for i in states:
            for j in states:
                cell = zero
                for k in states:
                    cell = cell.union(power[i, k].then(cells.get((k, j), zero)))
                nxt[i, j] = cell
        power = nxt
        total = {key: total[key].union(cell) for key, cell in power.items()}
    return total


def test_matrix_closure_is_the_sum_of_powers_on_every_entry():
    rng = random.Random(62)
    words = ["", "a", "b", "aa", "ab", "ba"]
    for trial in range(120):
        states = ("S", "A", "B", "C")[: rng.randint(1, 4)]
        if trial % 2 == 0:
            n = rng.randint(1, 4)
            zero, one = FiniteRelation.empty(n), FiniteRelation.identity(n)
            draw = lambda: rel(n, *{(rng.randrange(n), rng.randrange(n))
                                    for _ in range(rng.randint(1, n))})
            longest = len(states) * n  # no shortest path repeats (k, d)
        else:
            bound = rng.randint(0, 3)
            zero, one = BoundedLanguage.empty(bound), BoundedLanguage.unit(bound)
            draw = lambda: BoundedLanguage.of(bound, rng.sample(words, rng.randint(1, 3)))
            longest = len(states) * (bound + 1)  # nor (k, length read)
        cells = {(i, j): draw() for i in states for j in states
                 if i == j or rng.random() < 0.5}
        if trial % 2 == 1:  # empty-word loops on the diagonal
            cells = {(i, j): c.union(one) if i == j else c for (i, j), c in cells.items()}
        want = power_sum(states, cells, zero, one, longest)
        shuffled = list(states)
        rng.shuffle(shuffled)
        for order in (states, shuffled):
            got = matrix_closure(order, cells, one)
            assert {key: got.get(key, zero) for key in want} == want


# -- identity suite ----------------------------------------------------------------

@pytest.fixture(scope="module")
def identity_results():
    return check_identities(seed=7, trials=500)


def test_standard_laws_hold_in_both_semantics(identity_results):
    for r in identity_results:
        if not r.expected_failure:
            assert r.failures == 0, (r.law, r.semantics, r.first_counterexample)
            assert r.trials == 500


def test_printed_variants_are_refuted_in_both_semantics(identity_results):
    refuted = [(r.law, r.semantics) for r in identity_results
               if r.expected_failure and r.failures > 0]
    assert len(refuted) == 4  # two wrong laws, two semantics
    for r in identity_results:
        if r.expected_failure:
            assert r.first_counterexample is not None


def test_denesting_counterexample_by_hand():
    # (E+F)* != (E*.F).E* already for F = 0, E = 0: lhs is 1, rhs is 0
    env = {"E": rel(2), "F": rel(2), "G": rel(2)}
    lhs = interp_relations(RStar(RPlus(RConst("E"), RConst("F"))), env, 2)
    rhs = interp_relations(
        RDot(RDot(RStar(RConst("E")), RConst("F")), RStar(RConst("E"))), env, 2)
    assert lhs == FiniteRelation.identity(2)
    assert rhs == rel(2)


def test_product_denesting_counterexample_by_hand():
    # (E.F)* contains E.F itself; 1 + E.(F.E)*.E cannot produce it when
    # F.E is empty and E.E is empty
    env = {"E": rel(3, (0, 1)), "F": rel(3, (1, 2))}
    lhs = interp_relations(RStar(RDot(RConst("E"), RConst("F"))), env, 3)
    rhs = interp_relations(
        RPlus(ROne(), RDot(RDot(RConst("E"), RStar(RDot(RConst("F"), RConst("E")))),
                           RConst("E"))), env, 3)
    assert (0, 2) in lhs.pairs
    assert (0, 2) not in rhs.pairs


def test_example_sum_denesting_on_singletons():
    env = {"E": rel(2, (0, 1)), "F": rel(2, (1, 0))}
    lhs = interp_relations(RStar(RPlus(RConst("E"), RConst("F"))), env, 2)
    rhs = interp_relations(
        RDot(RStar(RDot(RStar(RConst("E")), RConst("F"))), RStar(RConst("E"))),
        env, 2)
    assert lhs == rhs == rel(2, (0, 0), (0, 1), (1, 0), (1, 1))


# -- machines ----------------------------------------------------------------------

def decimal_fsm():
    digits = frozenset(str(d) for d in range(10))
    return FSM(states=("S", "A", "B", "H"),
               alphabet=tuple("+-0123456789"),
               delta={("S", "A"): frozenset(["", "+", "-"]),
                      ("A", "B"): digits,
                      ("B", "B"): digits,
                      ("B", "H"): frozenset([""])},
               start="S", halt="H")


def test_decimal_language_both_ways_at_bound_two():
    by_matrix, by_search = fsm_language(decimal_fsm(), 2)
    assert by_matrix == by_search
    # 10 digits + 20 sign-digit + 100 digit-digit
    assert len(by_matrix) == 130
    assert "1" in by_matrix and "+1" in by_matrix and "-9" in by_matrix


def test_decimal_language_rejects_the_empty_word():
    by_matrix, by_search = fsm_language(decimal_fsm(), 2)
    assert "" not in by_matrix and "" not in by_search


def test_decimal_language_accepts_minus_123():
    by_matrix, by_search = fsm_language(decimal_fsm(), 4)
    assert "-123" in by_matrix and "-123" in by_search


def test_fsm_rejects_transitions_into_start():
    with pytest.raises(ValueError):
        FSM(states=("S", "H"), alphabet=("a",),
            delta={("S", "S"): frozenset(["a"])}, start="S", halt="H")


@pytest.mark.parametrize("states, delta, start, halt, message", [
    (("S", "H", "A"), {("H", "A"): {"a"}}, "S", "H", "no transition may leave the halt state"),
    (("S", "H"), {("S", "X"): {"a"}, ("X", "H"): {"b"}}, "S", "H",
     "'X' is not one of the states"),
    (("S", "H"), {("Y", "H"): set()}, "S", "H", "'Y' is not one of the states"),
    (("S", "H"), {("S", "H"): {"a"}}, "T", "H", "'T' is not one of the states"),
    (("S", "H"), {("S", "H"): {"a"}}, "S", "G", "'G' is not one of the states"),
    (("S", "H"), {("S", "H"): {"a", "ac"}}, "S", "H",
     "a word from S to H has a letter outside the alphabet")])
def test_a_malformed_fsm_is_refused(states, delta, start, halt, message):
    with pytest.raises(ValueError) as err:
        FSM(states, ("a", "b"), {key: frozenset(words) for key, words in delta.items()},
            start, halt)
    assert str(err.value) == message


def random_fsm(rng):
    n_states = rng.randint(2, 4)
    states = ("S", "H", "A", "B")[:n_states]
    alphabet = "ab"[: rng.randint(1, 2)]
    words = ["", "a", "b", "aa", "ab", "ba", "bb"]
    words = [w for w in words if set(w) <= set(alphabet)]
    delta = {}
    for frm in states:
        if frm == "H":
            continue
        for to in states:
            if to == "S":
                continue
            if rng.random() < 0.5:
                chosen = frozenset(rng.sample(words, rng.randint(1, min(3, len(words)))))
                delta[(frm, to)] = chosen
    return FSM(states, tuple(alphabet), delta, "S", "H")


def test_random_fsms_agree_both_ways():
    rng = random.Random(14)
    for _ in range(100):
        fsm = random_fsm(rng)
        bound = rng.randint(0, 4)
        by_matrix, by_search = fsm_language(fsm, bound)
        assert by_matrix == by_search


def test_both_ways_of_fsm_language_equal_a_simulation_of_every_word():
    rng = random.Random(26)
    shapes = set()
    for _ in range(150):
        states = ("S", "H", "A", "B")[: rng.randint(2, 4)]
        alphabet = "abc"[: rng.randint(1, 3)]
        words = ["", "", *alphabet, *(rng.choice(alphabet) * rng.randint(2, 3)
                                     + rng.choice(alphabet) for _ in range(3))]
        into_halt = rng.random() < 0.8
        delta = {(frm, to): frozenset(rng.sample(words, rng.randint(1, 3)))
                 for frm in states if frm != "H" for to in states
                 if to != "S" and (to != "H" or into_halt) and rng.random() < 0.5}
        bound = rng.randint(0, 5)
        want = fsm_words_reference(delta, alphabet, "S", "H", bound)
        assert fsm_language(FSM(states, tuple(alphabet), delta, "S", "H"), bound) == (want, want)
        shapes.add((bool(want), any(frm == to and "" in ws for (frm, to), ws in delta.items()),
                    bound))
    # accepting and empty languages, with and without "" self-loops, at every bound
    assert {(a, b) for a, b, _ in shapes} == {(True, True), (True, False), (False, True),
                                              (False, False)}
    assert {bound for *_, bound in shapes} == set(range(6))


# -- machine relation two ways --------------------------------------------------------

X = Var("x")
XDECL = (VarDecl("x", "int", "var"),)


def assign_x(expr):
    return Assign(((("var", "x"), expr),))


def pairs_to_rel(pairs):
    return union_of([seq_of([Guard(Binary("==", X, IntLit(a))), assign_x(IntLit(b))])
                     for a, b in pairs])


def machine(states, cells):
    return CodeMatrix("m", tuple(states), "S", "H",
                      {k: (v,) for k, v in cells.items()}, XDECL)


def dom_x(hi):
    return DomainSpec({"x": ("int", tuple(range(hi + 1)))})


def test_single_cell_machine_both_ways():
    m = machine(("S", "H"), {("S", "H"): pairs_to_rel([(0, 1)])})
    states, by_closure, by_search = finite_dsm_relation(m, dom_x(1))
    pairs = {(states[a]["x"], states[b]["x"]) for a, b in by_closure}
    assert by_closure == by_search
    assert pairs == {(0, 1)}


def test_null_machine_both_ways():
    m = machine(("S", "H"), {})
    _, by_closure, by_search = finite_dsm_relation(m, dom_x(1))
    assert by_closure == by_search == frozenset()


def random_machine(rng):
    n_states = rng.randint(2, 4)
    states = ("S", "H", "A", "B")[:n_states]
    dmax = rng.randint(1, 3)
    cells = {}
    for frm in states:
        if frm == "H":
            continue
        for to in states:
            if to == "S":
                continue
            if rng.random() < 0.45:
                pairs = sorted({(rng.randint(0, dmax), rng.randint(0, dmax))
                                for _ in range(rng.randint(1, 3))})
                cells[(frm, to)] = pairs_to_rel(pairs)
    return machine(states, cells), dmax


def test_random_machines_agree_both_ways():
    rng = random.Random(13)
    for _ in range(200):
        m, dmax = random_machine(rng)
        _, by_closure, by_search = finite_dsm_relation(m, dom_x(dmax))
        assert by_closure == by_search


def table_product(states, a, b, zero):
    """(A;B)[i,k] = union over j of A[i,j];B[j,k], dropping empty entries."""
    out = {}
    for i in states:
        for k in states:
            cell = zero
            for j in states:
                if (i, j) in a and (j, k) in b:
                    cell = cell.union(a[i, j].then(b[j, k]))
            if cell.pairs:
                out[i, k] = cell
    return out


def test_tabulating_a_symbolic_power_is_the_power_of_the_table():
    # every cell maps 0..dmax into itself, so no successor leaves the domain
    # and the paper's symbolic powers tabulate to the powers of the table
    rng = random.Random(71)
    for _ in range(80):
        m, dmax = random_machine(rng)
        states, table = tabulate(m, dom_x(dmax))
        n = len(states)
        want = {(k, k): FiniteRelation.identity(n) for k in m.states}
        for exponent in range(4):
            powered = machine(m.states, power(m.states, m.symbolic(), exponent))
            assert tabulate(powered, dom_x(dmax)) == (states, want)
            want = table_product(m.states, want, table, FiniteRelation.empty(n))
