"""The benchmark's four workloads.

Each workload is made from a seed alone: ``make(name, seed, root)`` returns
the machine sources that set-up parses and a ``build`` function that, given
the imported package and the parsed machines, returns the operations of one
round.  Every operation comes with a check of its output against a
computation made apart from the package (``tests/oracles.py`` and
``reference.py``); a wrong output raises ``WrongAnswer``.

Sizes come in doubling ladders.  Rung r of R is repeated 2**(R-1-r) times
per round, so that every rung costs about the same and the smallest inputs
get enough samples.  The input sizes do not depend on the seed, so neither
does the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracles
import reference


class WrongAnswer(Exception):
    """An operation returned an output that its check rejects."""


@dataclass
class Op:
    family: str
    label: str
    call: object  # () -> result
    check: object  # result -> None, raises WrongAnswer
    reps: int = 1
    size: str = None  # "small" | "large" | None: counts toward small_op_ms / large_op_ms
    rung: int = 0  # position in its family's doubling ladder
    steps: object = None  # result -> transitions taken, for deterministic runs


@dataclass
class Workload:
    name: str
    sources: dict  # key -> (source text, file name), parsed in set-up
    build: object  # (package, {key: ParsedFile}) -> [Op]


def expect(cond, message, *args):
    if not cond:
        raise WrongAnswer(message % args)


def rung_size(rung, top):
    return "small" if rung == 0 else "large" if rung == top else None


def ladder(family, sizes, make_op, sized=True):
    """Ops for a doubling ladder; make_op(size) -> (label, call, check, steps).
    With sized, its ends count toward small_op_ms and large_op_ms."""
    ops = []
    top = len(sizes) - 1
    for rung, n in enumerate(sizes):
        label, call, check, steps = make_op(n)
        ops.append(Op(family, label, call, check, reps=2 ** (top - rung),
                      size=rung_size(rung, top) if sized else None, rung=rung, steps=steps))
    return ops


def initial_state(api, m, **bindings):
    """Initial data state the way the CLI builds it: bound values, empty
    streams, UNSET scalars and arrays sized from their declaration."""
    state = {}
    for d in m.decls:
        if d.name in bindings:
            state[d.name] = bindings[d.name]
        elif d.type == "stream":
            state[d.name] = ()
        elif d.type == "array":
            state[d.name] = [api.UNSET] * api.eval_expr(state, d.length)
        else:
            state[d.name] = api.UNSET
    return state


def transitions(outcome):
    return len(outcome.trace.configs) - 1


def corpus_source(root, name):
    path = root / "src" / "matrixcode" / "corpus" / (name + ".mxc")
    return path.read_text(encoding="utf-8"), str(path.relative_to(root))


# ---------------------------------------------------------------------------
# run_arrays: primes over a ladder of N, turing over a ladder of tape lengths

PRIMES_N = (25, 50, 100, 200, 400)
TAPE_PARENS = (30, 60, 120, 240, 480)  # parentheses between the two fences
DYCK_PAIRS = 5  # pairs per balanced block


def run_arrays(seed, root):
    # A tape is a seeded sequence of balanced blocks, each drawn from the
    # blocks that the machine matches in the same number of steps, so that
    # every tape of a given length takes the same number of steps.
    rng = random.Random(seed)
    blocks = reference.equal_cost_blocks(DYCK_PAIRS)
    tapes = {n: "A" + "".join(rng.choice(blocks) for _ in range(n // (2 * DYCK_PAIRS))) + "A"
             for n in TAPE_PARENS}

    def build(api, parsed):
        primes = parsed["primes"].matrix
        turing = parsed["turing"].matrix

        def primes_op(n):
            d0 = initial_state(api, primes, N=n)
            want = oracles.first_n_primes(n)

            def check(out):
                expect(out.status == "success", "primes N=%d: %s", n, out.status)
                expect(out.trace.final.data["p"] == want, "primes N=%d: wrong table", n)
            return "primes N=%d" % n, lambda: api.run(primes, d0), check, transitions

        def turing_op(n):
            text = tapes[n]
            d0 = initial_state(api, turing, t=api.Tape.from_string(text, head=1))
            want = oracles.turing_oracle(text, head=1)

            def check(out):
                expect(out.status == "success", "turing %d: %s", n, out.status)
                got = out.trace.final.data["t"].render()
                expect(got == want, "turing %d: tape %r, oracle %r", n, got, want)
            return "turing %d" % n, lambda: api.run(turing, d0), check, transitions

        return ladder("primes", PRIMES_N, primes_op) + ladder("turing", TAPE_PARENS, turing_op)

    sources = {k: corpus_source(root, k) for k in ("primes", "turing")}
    return Workload("run_arrays", sources, build)


# ---------------------------------------------------------------------------
# run_streams: mrg2 and emerge over a ladder of stream lengths, and the
# all-branches search of decnum over a ladder of numeral lengths

MERGE_N = (125, 250, 500, 1000, 2000)  # values per input stream
NUMERAL_DIGITS = (64, 128, 256, 512)
MERGE_ORACLES = {"mrg2": oracles.mmerge_oracle, "emerge": oracles.emerge_oracle}


def run_streams(seed, root):
    rng = random.Random(seed)
    pairs = {n: (reference.increasing_stream(rng, n), reference.increasing_stream(rng, n))
             for n in MERGE_N}
    numerals = {}
    for k in NUMERAL_DIGITS:
        sign = rng.choice(((), (-1,), (-2,)))
        numerals[k] = sign + tuple(rng.randint(0, 9) for _ in range(k))

    def build(api, parsed):
        ops = []
        for family, oracle in MERGE_ORACLES.items():
            m = parsed[family].matrix

            def merge_op(n, m=m, family=family, oracle=oracle):
                left, right = pairs[n]
                d0 = initial_state(api, m, left=left, right=right, left0=left, right0=right)
                want_out, want_counts = oracle(left, right)
                expect(want_out == oracles.merge_sorted(left, right),
                       "%s oracle disagrees with merge_sorted", family)

                def check(out):
                    expect(out.status == "success", "%s %d: %s", family, n, out.status)
                    expect(out.trace.final.data["out"] == want_out, "%s %d: wrong merge", family, n)
                    got = {k: out.trace.counters[k] for k in want_counts}
                    expect(got == want_counts, "%s %d: counters %s, oracle %s",
                           family, n, got, want_counts)
                return "%s %d+%d" % (family, n, n), lambda: api.run(m, d0), check, transitions
            ops += ladder(family, MERGE_N, merge_op)

        decnum = parsed["decnum"].matrix

        def decnum_op(k):
            numeral = numerals[k]
            d0 = initial_state(api, decnum, left=numeral)
            leftovers, failures = reference.decnum_expected(numeral)

            def check(outcomes):
                wins = [o.trace.final.data for o in outcomes if o.status == "success"]
                got = sorted(d["left"] for d in wins)
                expect(got == leftovers, "decnum %d: %d successes, leftovers differ",
                       k, len(wins))
                expect(all(d["out"] + d["left"] == numeral for d in wins),
                       "decnum %d: consumed prefix lost", k)
                lost = sum(o.status == "failure" for o in outcomes)
                expect(lost == failures and len(outcomes) == len(wins) + failures,
                       "decnum %d: %d failed, %d outcomes", k, lost, len(outcomes))
            return ("decnum %d" % k, lambda: api.enumerate_runs(decnum, d0, k + 3),
                    check, None)
        # the search share counts in wall_s only
        return ops + ladder("decnum", NUMERAL_DIGITS, decnum_op, sized=False)

    sources = {k: corpus_source(root, k) for k in ("mrg2", "emerge", "decnum")}
    return Workload("run_streams", sources, build)


# ---------------------------------------------------------------------------
# verify_corpus: check_vector and completeness on every corpus file with a
# condition vector, on its own domain; primes and mrg2 also on widened
# domains; the corrupted primes fixture

SMALL_VERIFY_REPS = 16  # primes0 takes under a millisecond


def verify_corpus(seed, root):
    rng = random.Random(seed)
    extra_j = tuple(sorted(rng.sample(range(12, 24), 2)))  # own domain: j in 0..11
    extra_u = rng.choice((0, 3))  # own domain: u in 1..2

    def build(api, parsed):
        ops = []

        def verdict_ops(key, dom, label, size=None, reps=1):
            pf = parsed[key]
            holds, incomplete = reference.CORPUS_VERDICTS[key]

            def check_holds(report):
                expect(report.holds == holds, "%s: vector holds=%s", label, report.holds)

            def check_columns(cols):
                got = {c.control for c in cols}
                expect(got == incomplete, "%s: incomplete columns %s", label, sorted(got))
            ops.append(Op(key, "check_vector " + label,
                          lambda: api.check_vector(pf.vector, pf.matrix, dom),
                          check_holds, reps=reps, size=size))
            ops.append(Op(key, "completeness " + label,
                          lambda: api.completeness(pf.matrix, pf.vector, dom=dom),
                          check_columns, reps=reps, size=size))

        for key in reference.CORPUS_VERDICTS:
            small = key == "primes0"
            verdict_ops(key, parsed[key].domain, key, size="small" if small else None,
                        reps=SMALL_VERIFY_REPS if small else 1)
        wide_primes = parsed["primes"].domain.merged(
            api.DomainSpec({"j": ("int", tuple(range(12)) + extra_j)}))
        verdict_ops("primes", wide_primes, "primes j+%s" % (extra_j,), size="large")
        wide_mrg2 = parsed["mrg2"].domain.merged(
            api.DomainSpec({"u": ("int", tuple(sorted((1, 2, extra_u))))}))
        verdict_ops("mrg2", wide_mrg2, "mrg2 u+%d" % extra_u)

        bad = parsed["corrupted-primes"]
        bad_dom = bad.domain.merged(api.DomainSpec({"j": ("int", (5, 7)), "n": ("int", (0, 1))}))

        def check_corrupted(report):
            failing = {(c.frm, c.to): c.result.status for c in report.failing()}
            expect(set(failing) == reference.CORRUPTED_FAILING_CELLS
                   and set(failing.values()) == {"counterexample"},
                   "corrupted-primes: failing cells %s", failing)
        ops.append(Op("corrupted-primes", "check_vector corrupted-primes",
                      lambda: api.check_vector(bad.vector, bad.matrix, bad_dom),
                      check_corrupted))
        return ops

    sources = {k: corpus_source(root, k) for k in reference.CORPUS_VERDICTS}
    fixture = root / "tests" / "fixtures" / "corrupted-primes.mxc"
    sources["corrupted-primes"] = (fixture.read_text(encoding="utf-8"),
                                   str(fixture.relative_to(root)))
    return Workload("verify_corpus", sources, build)


# ---------------------------------------------------------------------------
# closure_random: finite_dsm_relation on random guarded-assignment machines,
# fsm_language on random FSMs, and check_identities
#
# The cost of a random machine's closure varies tenfold from one random
# shape to the next, so the shapes come from fixed generator seeds and the
# run's seed relabels them: a seeded permutation of the data values (and of
# the FSM alphabet) and a seeded order of cells and rules.  Relabelling
# changes every input but not the amount of work.

CLOSURE_VALUES = (4, 8, 16, 32)  # data values x in 0..D-1 per machine
CLOSURE_SHAPES = 4  # machines per rung
CLOSURE_CONTROLS = 6  # S, Q1..Q4, H
CELL_DENSITY = 0.5  # chance of a cell beyond the S -> Q1 -> ... -> H chain
RULE_SHARE = 0.5  # share of the D values each cell has a rule for
FSM_SHAPES = 4
FSM_CONTROLS = 6
FSM_BOUND = 6
IDENTITY_TRIALS = 100


def control_states(k):
    return ["S"] + ["Q%d" % i for i in range(1, k - 1)] + ["H"]


def machine_shape(shape_seed, size):
    """Cells of a random machine: (from, to) -> [(x, y)], one rule
    [x == x0]; { x = y0 } per pair."""
    rng = random.Random(shape_seed)
    states = control_states(CLOSURE_CONTROLS)
    chain = set(zip(states, states[1:]))
    cells = {}
    for frm in states[:-1]:
        for to in states[1:]:
            if (frm, to) in chain or rng.random() < CELL_DENSITY:
                sources = rng.sample(range(size), max(1, int(size * RULE_SHARE)))
                cells[(frm, to)] = [(a, rng.randrange(size)) for a in sources]
    return cells


def relabel_machine(rng, cells, size):
    perm = list(range(size))
    rng.shuffle(perm)
    keys = list(cells)
    rng.shuffle(keys)
    out = {}
    for key in keys:
        rules = [(perm[a], perm[b]) for a, b in cells[key]]
        rng.shuffle(rules)
        out[key] = rules
    return out


def machine_source(name, cells, size):
    lines = ["dsm %s {" % name, "  var x: int;", "  start S;", "  halt H;"]
    for (frm, to), rules in cells.items():
        lines.append("  from %s to %s: %s;" % (frm, to, " | ".join(
            "[x == %d]; { x = %d }" % rule for rule in rules)))
    lines.append("  domain { x in 0..%d; }" % (size - 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def fsm_shape(shape_seed):
    rng = random.Random(shape_seed)
    states = control_states(FSM_CONTROLS)
    words = [""] + list("abc") + [a + b for a in "abc" for b in "abc"]
    chain = set(zip(states, states[1:]))
    delta = {}
    for frm in states[:-1]:
        for to in states[1:]:
            if (frm, to) in chain or rng.random() < 0.4:
                delta[(frm, to)] = frozenset(rng.sample(words, rng.randint(1, 3)))
    return states, delta


def closure_random(seed, root):
    rng = random.Random(seed)
    machines = {}  # key -> (size, relabelled cells)
    sources = {}
    for rung, size in enumerate(CLOSURE_VALUES):
        for shape in range(CLOSURE_SHAPES):
            key = "rand_d%d_%d" % (size, shape)
            cells = relabel_machine(rng, machine_shape(1000 * size + shape, size), size)
            machines[key] = (rung, size, cells)
            sources[key] = (machine_source(key, cells, size), key + ".mxc")
    fsms = []
    for shape in range(FSM_SHAPES):
        states, delta = fsm_shape(2000 + shape)
        letters = dict(zip("abc", rng.sample("abc", 3)))
        delta = {key: frozenset("".join(letters[c] for c in w) for w in words)
                 for key, words in delta.items()}
        fsms.append((states, delta))

    def build(api, parsed):
        ops = []
        top = len(CLOSURE_VALUES) - 1
        for key, (rung, size, cells) in machines.items():
            pf = parsed[key]
            want = reference.closure_pairs(cells, size)

            def check(result, key=key, want=want):
                states, by_closure, by_search = result
                x = [s["x"] for s in states]
                for how, pairs in (("closure", by_closure), ("search", by_search)):
                    got = {(x[a], x[b]) for a, b in pairs}
                    expect(got == want, "%s: S->H by %s has %d pairs, BFS %d",
                           key, how, len(got), len(want))
            ops.append(Op("closure", key,
                          lambda pf=pf: api.finite_dsm_relation(pf.matrix, pf.domain),
                          check, reps=2 ** (top - rung), size=rung_size(rung, top),
                          rung=rung))
        for i, (states, delta) in enumerate(fsms):
            fsm = api.FSM(tuple(states), tuple("abc"), delta, "S", "H")
            want = reference.fsm_words(delta, "S", "H", FSM_BOUND)

            def check_fsm(result, i=i, want=want):
                by_matrix, by_search = result
                expect(set(by_matrix) == want and set(by_search) == want,
                       "fsm %d: %d/%d words, search finds %d",
                       i, len(by_matrix), len(by_search), len(want))
            ops.append(Op("fsm", "fsm %d" % i,
                          lambda fsm=fsm: api.fsm_language(fsm, FSM_BOUND), check_fsm))

        def check_laws(results):
            printed = [r for r in results if r.expected_failure]
            expect(len(printed) == 4 and all(r.failures for r in printed),
                   "printed denesting variants not all refuted")
            wrong = [(r.law, r.semantics) for r in results
                     if not r.expected_failure and (r.failures or r.trials != IDENTITY_TRIALS)]
            expect(not wrong, "laws failing: %s", wrong)
        ops.append(Op("identities", "check_identities",
                      lambda: api.check_identities(seed=seed, trials=IDENTITY_TRIALS),
                      check_laws))
        return ops

    return Workload("closure_random", sources, build)


WORKLOADS = {
    "run_arrays": run_arrays,
    "run_streams": run_streams,
    "verify_corpus": verify_corpus,
    "closure_random": closure_random,
}


def make(name, seed, root):
    return WORKLOADS[name](seed, Path(root))
