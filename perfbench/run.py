"""Benchmark of the matrixcode workbench: run, verify and closure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``
and the oracles from ``tests/oracles.py``; neither is modified.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics, measured with tracing off:

  wall_s       median over rounds of the time of all of one round's operations
  small_op_ms  mean over the smallest-input operations of each one's median time
  large_op_ms  mean over the largest-input operations of each one's median time
  peak_rss_mb  peak resident memory of this process
  setup_s      median over SETUP_REPS of: import the package, parse and
               validate every machine the workload uses

With ``--trace 1`` it holds the per-layer metrics instead (see README.md),
and the first spans recorded go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import Tracer, round_delta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15
PACKAGE = "matrixcode"


def set_up(sources):
    """Import the package afresh, then parse and validate every machine.
    Returns (seconds, package, parsed machines)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    api = importlib.import_module(PACKAGE)
    parsed = {}
    for key, (text, filename) in sources.items():
        pf = api.parse(text, filename=filename)
        if api.validate(pf.matrix):
            raise SystemExit("perfbench: %s does not validate" % filename)
        parsed[key] = pf
    return time.perf_counter() - t0, api, parsed


class Runner:
    """Runs whole rounds of the workload's operations and checks each output."""

    def __init__(self, ops, wrong_answer):
        self.ops = ops
        self.wrong_answer = wrong_answer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.steps = {}  # op index -> transitions taken

    def attempt(self, i, op):
        """One call of op; its duration in seconds, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a fault in the program: count it and go on
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - t0
        try:
            op.check(result)
        except self.wrong_answer as exc:
            self.failed += 1
            self.wrong += 1
            print("perfbench: wrong answer: %s" % exc, file=sys.stderr)
            return None
        if op.steps is not None:
            self.steps[i] = op.steps(result)
        return elapsed

    def round(self, after_op=None):
        """Per op, the durations of its successful repetitions."""
        gc.collect()
        times = []
        for i, op in enumerate(self.ops):
            durations = []
            for _ in range(op.reps):
                elapsed = self.attempt(i, op)
                if after_op is not None:
                    after_op()
                if elapsed is not None:
                    durations.append(elapsed)
            times.append(durations)
        return times

    def rounds(self, seconds, after_round=None, after_op=None):
        """Whole rounds until `seconds` have passed; at least one."""
        out = []
        t0 = time.perf_counter()
        while True:
            out.append(self.round(after_op))
            if after_round is not None:
                after_round()
            if time.perf_counter() - t0 >= seconds:
                return out


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def op_medians(rounds):
    """Per op, the median of its durations over all rounds."""
    return [_median_or_zero([t for r in rounds for t in r[i]]) for i in range(len(rounds[0]))]


def group_time(ops, medians, size):
    """Mean over the ops of that size of each op's median time."""
    picked = [medians[i] for i, op in enumerate(ops) if op.size == size]
    return sum(picked) / len(picked)


def end_to_end(runner, rounds, setup_times):
    ops = runner.ops
    medians = op_medians(rounds)
    return {
        "wall_s": (_median_or_zero([sum(map(sum, r)) for r in rounds]), "s"),
        "small_op_ms": (group_time(ops, medians, "small") * 1e3, "ms"),
        "large_op_ms": (group_time(ops, medians, "large") * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


# ---------------------------------------------------------------------------
# traced mode


def per_step(runner, medians):
    """us/step at the smallest and largest rung, and the time ratio between
    the two largest rungs (input doubled), over the deterministic-run
    families.  Zero where the workload has no such runs."""
    fams = {}
    for i, op in enumerate(runner.ops):
        if op.steps is not None and i in runner.steps:
            fams.setdefault(op.family, {})[op.rung] = (medians[i], runner.steps[i])
    if not fams:
        return 0.0, 0.0, 0.0
    sums = {"small": [0.0, 0], "large": [0.0, 0], "prev": [0.0, 0]}
    for family, rungs in fams.items():
        top = max(rungs)
        picks = {"small": rungs[0], "large": rungs[top], "prev": rungs[top - 1]}
        for k, (t, steps) in picks.items():
            sums[k][0] += t
            sums[k][1] += steps
        print("perfbench: %s: %.2f us/step at the smallest input, %.2f at the largest,"
              " doubling ratio %.3f" % (family, 1e6 * picks["small"][0] / picks["small"][1],
                                        1e6 * picks["large"][0] / picks["large"][1],
                                        picks["large"][0] / picks["prev"][0]), file=sys.stderr)
    return (1e6 * sums["small"][0] / sums["small"][1],
            1e6 * sums["large"][0] / sums["large"][1],
            sums["large"][0] / sums["prev"][0])


def large_op_peak_mb(runner):
    """tracemalloc peak of the largest deterministic run of each family."""
    tops = {}
    for i, op in enumerate(runner.ops):
        if op.steps is not None and op.size == "large":
            tops[op.family] = (i, op)
    peak = 0
    for i, op in tops.values():
        tracemalloc.start()
        try:
            runner.attempt(i, op)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def layer_metrics(tracer, traced_rounds, parse_passes):
    """Per-layer metrics.  Counts are those of the first traced round;
    times are medians over the traced rounds of each round's self time."""
    lid = {name: i for i, name in enumerate(tracer.layers)}
    first = traced_rounds[0]

    def count(layer):
        return first["calls"][lid[layer]]

    def units(layer):
        return first["units"][lid[layer]]

    def ms(layer, rounds=traced_rounds):
        return statistics.median(r["self_ns"][lid[layer]] for r in rounds) / 1e6

    def entered(layer, parent):
        return first["entered"].get((lid[layer], lid[parent]), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    parse = [round_delta(a, b) for a, b in parse_passes]
    return {
        "dsl.parse_ms": (ms("dsl.parse", parse), "ms"),
        "matrix.validate_ms": (ms("matrix.validate", parse), "ms"),
        "matrix.outgoing_calls": (count("matrix.outgoing"), "count"),
        "matrix.outgoing_ms": (ms("matrix.outgoing"), "ms"),
        "values.copy_state_calls": (count("values.copy_state"), "count"),
        "values.copy_state_ms": (ms("values.copy_state"), "ms"),
        "values.freeze_state_calls": (count("values.freeze_state"), "count"),
        "values.freeze_state_ms": (ms("values.freeze_state"), "ms"),
        "expr.eval_expr_calls": (count("expr.eval_expr"), "count"),
        "expr.eval_expr_ms": (ms("expr.eval_expr"), "ms"),
        "expr.compile_expr_calls": (count("expr.compile_expr"), "count"),
        "relations.image_calls": (count("relations.image"), "count"),
        "relations.image_ms": (ms("relations.image"), "ms"),
        "interpreter.steps": (units("interpreter.step"), "count"),
        "interpreter.step_ms": (ms("interpreter.step"), "ms"),
        "interpreter.rules_tried_per_step": (
            ratio(entered("relations.image", "interpreter.step"), count("interpreter.step")),
            "ratio"),
        "interpreter.run_self_ms": (ms("interpreter.run"), "ms"),
        "interpreter.enumerate_runs_ms": (ms("interpreter.enumerate_runs"), "ms"),
        "verifier.states_enumerated": (units("verifier.enumerate_states"), "count"),
        "verifier.enumerate_states_ms": (ms("verifier.enumerate_states"), "ms"),
        "verifier.holds_on_calls": (count("verifier.holds_on"), "count"),
        "verifier.holds_on_ms": (ms("verifier.holds_on"), "ms"),
        "verifier.precondition_hit_ratio": (
            ratio(units("verifier.holds_on"), count("verifier.holds_on")), "ratio"),
        "verifier.check_vector_ms": (ms("verifier.check_vector"), "ms"),
        "verifier.completeness_ms": (ms("verifier.completeness"), "ms"),
        "kleene.tabulate_ms": (ms("kleene.tabulate"), "ms"),
        "kleene.matrix_closure_ms": (ms("kleene.matrix_closure"), "ms"),
        "kleene.then_calls": (entered("kleene.then", "kleene.matrix_closure"), "count"),
        "kleene.reachability_ms": (ms("kleene._reachability"), "ms"),
        "kleene.fsm_language_ms": (ms("kleene.fsm_language"), "ms"),
        "kleene.check_identities_ms": (ms("kleene.check_identities"), "ms"),
    }


def traced(workload, api, runner, seconds):
    """Half the time in traced rounds, half in untraced rounds (for the
    per-step figures, which tracing would distort), then a tracemalloc pass
    over the largest runs."""
    tracer = Tracer()
    tracer.install(api)
    parse_passes = []
    for _ in range(SETUP_REPS):
        before = tracer.snapshot()
        for text, filename in workload.sources.values():
            api.parse(text, filename=filename)
        tracer.fold()
        parse_passes.append((before, tracer.snapshot()))

    deltas = []
    marks = [tracer.snapshot()]

    def close_round():
        marks.append(tracer.snapshot())
        deltas.append(round_delta(marks[-2], marks[-1]))

    traced_rounds = runner.rounds(seconds / 2, after_round=close_round, after_op=tracer.fold)
    tracer.uninstall()
    traced_s = _median_or_zero([sum(map(sum, r)) for r in traced_rounds])

    plain = runner.rounds(seconds / 2)
    plain_s = _median_or_zero([sum(map(sum, r)) for r in plain])
    small, large, doubling = per_step(runner, op_medians(plain))
    peak = large_op_peak_mb(runner) if runner.steps else 0.0

    metrics = layer_metrics(tracer, deltas, parse_passes)
    metrics["interpreter.us_per_step_small"] = (small, "us")
    metrics["interpreter.us_per_step_large"] = (large, "us")
    metrics["interpreter.doubling_ratio"] = (doubling, "ratio")
    metrics["interpreter.large_op_peak_mb"] = (peak, "MB")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("trace-%s.tsv" % workload.name)
    tracer.write(path, "%s: the first spans recorded (set-up parses, then the first"
                       " traced round)" % workload.name)
    print("perfbench: one round's operations take %.3f s traced, %.3f s untraced; spans in %s"
          % (traced_s, plain_s, path.relative_to(ROOT)), file=sys.stderr)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not ((ROOT / "src" / PACKAGE / "__init__.py").is_file()
            and (ROOT / "tests" / "oracles.py").is_file()):
        print("perfbench: no %s sources under %s (src/%s, tests/oracles.py)"
              % (PACKAGE, ROOT, PACKAGE), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; one of %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.make(args.workload, args.seed, ROOT)

    elapsed, api, parsed = set_up(workload.sources)
    if not api.__file__.startswith(str(ROOT / "src")):
        print("perfbench: imported %s from %s, not from this checkout" % (PACKAGE, api.__file__),
              file=sys.stderr)
        return 2
    runner = Runner(workload.build(api, parsed), workloads.WrongAnswer)

    if args.trace:
        metrics = traced(workload, api, runner, args.seconds)
    else:
        rounds = runner.rounds(args.seconds)
        # Repeat set-up only after the timed rounds: a process that has
        # imported the package nine times before them ran the closure_random round 7%
        # slower, and less steadily, than one that imported it once.
        setup_times = [elapsed] + [set_up(workload.sources)[0] for _ in range(SETUP_REPS - 1)]
        metrics = end_to_end(runner, rounds, setup_times)

    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
