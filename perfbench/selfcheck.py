"""Show that every output check of the benchmark rejects a wrong output.

    python3 perfbench/selfcheck.py

For the smallest operation of each kind in each workload, the check must
accept the program's own output and reject each deliberately wrong copy
of it that ``mutations`` makes.  Prints one line per case; exits 1 if a check
accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import sys

from run import ROOT, set_up

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
import workloads  # noqa: E402  (needs the paths above)


def final(outcome):
    return outcome.trace.final.data


def _bump_last(seq):
    return seq[:-1] + type(seq)([seq[-1] + 1])


def _tape_flip(outcome):
    tape = final(outcome)["t"]
    tape.cells[tape.lo] = "(" if tape.cells.get(tape.lo) != "(" else ")"


def _drop_first_win(outcomes):
    wins = [i for i, o in enumerate(outcomes) if o.status == "success"]
    del outcomes[wins[0]]


def _flip_verdict(api):
    v = api.verifier

    def mutate(report):
        if report.holds:
            report.checks.append(v.CellCheck("S", "H", v.TripleResult("counterexample")))
        else:
            for c in report.checks:
                c.result = v.TripleResult("holds")
    return mutate


def _toggle_column(api):
    def mutate(cols):
        if cols:
            cols.pop()
        else:
            cols.append(api.verifier.ColumnWitnesses("S", [], 1))
    return mutate


def _closure_drop(which):
    def mutate(result):
        pairs = set(result[which])
        if pairs:
            pairs.pop()
        else:
            pairs.add((0, 0))
        return result[:which] + (frozenset(pairs),) + result[which + 1:]
    return mutate


def _law(expected_failure, failures):
    def mutate(results):
        r = next(r for r in results if r.expected_failure == expected_failure)
        r.failures = failures
    return mutate


def mutations(op, api):
    """(description, mutate) pairs for an op's output; mutate changes the
    output in place or returns a replacement."""
    if op.label.startswith("check_vector"):
        return [("verdict flipped", _flip_verdict(api))]
    if op.label.startswith("completeness"):
        return [("columns changed", _toggle_column(api))]
    family = op.family
    if family in ("primes", "turing", "mrg2", "emerge"):
        content = {
            "primes": ("wrong prime table", lambda o: final(o)["p"].__setitem__(-1, final(o)["p"][-1] + 2)),
            "turing": ("wrong final tape", _tape_flip),
            "mrg2": ("wrong merge output", lambda o: final(o).__setitem__("out", _bump_last(final(o)["out"]))),
            "emerge": ("wrong merge output", lambda o: final(o).__setitem__("out", _bump_last(final(o)["out"]))),
        }[family]
        out = [("failed computation", lambda o: setattr(o, "status", "failure")), content]
        if family in ("mrg2", "emerge"):
            out.append(("one getL call too many",
                        lambda o: o.trace.counters.__setitem__("getL", o.trace.counters["getL"] + 1)))
        return out
    if family == "decnum":
        return [("a successful computation missing", _drop_first_win),
                ("wrong leftover stream",
                 lambda outs: final(next(o for o in outs if o.status == "success"))
                 .__setitem__("left", (7, 7, 7)))]
    if family == "closure":
        return [("S->H pair missing from the closure", _closure_drop(1)),
                ("S->H pair missing from the search", _closure_drop(2))]
    if family == "fsm":
        return [("extra word", lambda r: (r[0] | {"zz"}, r[1])),
                ("word missing from the search", lambda r: (r[0], frozenset(sorted(r[1])[1:]) or {"zz"}))]
    return [("a law failing", _law(False, 1)),
            ("a printed variant not refuted", _law(True, 0))]


SEED = 1


def main():
    bad = 0
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, SEED, ROOT)
        _, api, parsed = set_up(workload.sources)
        seen = set()
        for op in workload.build(api, parsed):
            kind = (op.family, op.label.split()[0])
            if kind in seen:
                continue
            seen.add(kind)
            try:
                op.check(op.call())
            except workloads.WrongAnswer as exc:
                print("FAIL %s %s: right output rejected: %s" % (name, op.label, exc))
                bad += 1
                continue
            for what, mutate in mutations(op, api):
                result = op.call()
                changed = mutate(result)
                try:
                    op.check(result if changed is None else changed)
                except workloads.WrongAnswer as exc:
                    print("ok   %s %s: %s rejected (%s)" % (name, op.label, what, exc))
                else:
                    print("FAIL %s %s: %s accepted" % (name, op.label, what))
                    bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
