"""Expected results computed apart from the matrixcode package.

Together with ``tests/oracles.py`` these are what the benchmark checks
every output against.  Nothing here imports the package.
"""

from __future__ import annotations

import oracles

# What each corpus file's own development says about it: whether its
# condition vector holds, and which columns completeness must report.
# primes, mrg2 and emerge are finished, so they hold and are complete on
# any domain, widened ones included.
CORPUS_VERDICTS = {
    "primes0": (True, {"S"}),
    "primes1": (True, {"A"}),
    "primes2": (True, {"B"}),
    "primes": (True, set()),
    "mrg0": (True, {"S"}),
    "mrg1": (True, {"B", "C", "D"}),
    "mrg2": (True, set()),
    "emerge": (True, set()),
}

# tests/fixtures/corrupted-primes.mxc drops the store into p from cell
# B -> A, so exactly that cell has a counterexample.
CORRUPTED_FAILING_CELLS = {("B", "A")}


def balanced_words(pairs):
    """Every balanced parenthesis word with the given number of pairs."""
    if pairs == 0:
        return [""]
    return ["(" + inner + ")" + rest
            for k in range(pairs)
            for inner in balanced_words(k)
            for rest in balanced_words(pairs - 1 - k)]


def turing_steps(text, head=1):
    """Steps the quintuple machine of tests/oracles.py takes to halt."""
    tape = dict(enumerate(text))
    state = "Q0"
    steps = 0
    while state != "H":
        state, written, direction = oracles.TURING_RULES[(state, tape.get(head, "_"))]
        tape[head] = written
        head += {"L": -1, "R": 1, "d": 0}[direction]
        steps += 1
    return steps


def equal_cost_blocks(pairs):
    """The largest set of balanced words with `pairs` pairs that the
    machine matches in the same number of steps.  A block's steps add up
    along a tape, so tapes made of these blocks all take the same time."""
    by_cost = {}
    for word in balanced_words(pairs):
        by_cost.setdefault(turing_steps("A" + word + "A"), []).append(word)
    return max(by_cost.values(), key=len)


def increasing_stream(rng, n, max_step=9):
    """Strictly increasing stream of n values, steps uniform in 1..max_step."""
    out = []
    v = 0
    for _ in range(n):
        v += rng.randint(1, max_step)
        out.append(v)
    return tuple(out)


def decnum_expected(numeral):
    """All-branches computations of decnum on a numeral (sign code -1 for
    '-', -2 for '+', then digits), read off the numeral directly.

    The optional sign is consumed when present, then B may stop after any
    of the k >= 1 digits: k successful computations, the one that stopped
    after j digits leaving numeral[sign + j:].  With a sign, the branch that
    skips it dies at A, facing a non-digit: one failed computation.
    """
    signed = 1 if numeral and numeral[0] < 0 else 0
    digits = len(numeral) - signed
    leftovers = sorted(tuple(numeral[signed + j:]) for j in range(1, digits + 1))
    return leftovers, signed


def closure_pairs(cells, size, start="S", halt="H"):
    """{(x, y) | (start, x) ->* (halt, y)} by breadth-first search over
    (control, value) pairs, from each cell's generating (x, y) pairs."""
    succ = {}
    for (frm, to), pairs in cells.items():
        for a, b in pairs:
            succ.setdefault((frm, a), set()).add((to, b))
    out = set()
    for x in range(size):
        seen = {(start, x)}
        frontier = [(start, x)]
        while frontier:
            frontier = [nxt for cfg in frontier for nxt in succ.get(cfg, ())
                        if nxt not in seen]
            seen.update(frontier)
        out.update((x, y) for control, y in seen if control == halt)
    return out


def fsm_words(delta, start, halt, bound):
    """Words of length <= bound that take the FSM from start to halt, by a
    depth-first search over (state, word read so far)."""
    accepted = set()
    seen = set()
    todo = [(start, "")]
    while todo:
        cfg = todo.pop()
        if cfg in seen:
            continue
        seen.add(cfg)
        state, word = cfg
        if state == halt:
            accepted.add(word)
        for (frm, to), words in delta.items():
            if frm == state:
                todo.extend((to, word + w) for w in words if len(word) + len(w) <= bound)
    return accepted
