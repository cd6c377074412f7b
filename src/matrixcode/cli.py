"""Command-line front door: matrixcode {run|enumerate|verify|compile|...} FILE.

Exit codes for run: 0 success, 1 failed computation, 2 step limit.
verify: 0 when the condition vector holds and no incomplete column is
found, 1 otherwise.  closure: 0 when the matrix closure and the
configuration search agree, 1 when they disagree.  compile: 1 when the
matrix is not translatable to C.  Every command exits 3 for a parse error,
an evaluation error, a file that cannot be read, decoded as UTF-8 or
written, a malformed --input literal (an integer outside signed 64 bits
among them), missing inputs, a domain entry that is malformed or fits no
declared variable, a negative array length, a --trials or --pairs below 1,
and an input, domain or array too large for memory; main maps each failure
to its exit code.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from pathlib import Path

from . import load_corpus
from .codegen import CodegenError, emit, support_header
from .dsl import ParseFailure, parse_domain_entry, parse_path, render_tabular
from .interpreter import (DEFAULT_STEP_BOUND, ExecutionError, FAILURE,
                          STEP_LIMIT, SUCCESS, enumerate_runs, render_trace, run)
from .kleene import check_identities, finite_dsm_relation, render_identity_report
from .values import INT64_MAX, INT64_MIN, UNSET, EvalError, Tape, render_value
from .verifier import DomainSpec, array_length, render_report, verify


def _int64(text):
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError("%s does not fit in 64 bits" % text.strip())
    return value


def parse_value(text, decl):
    """One command-line input literal, typed by the variable's declaration."""
    text = text.strip()
    if decl.type == "int":
        return _int64(text)
    if decl.type == "bool":
        if text in ("true", "false"):
            return text == "true"
        raise ValueError("expected true/false for %r" % decl.name)
    if decl.type == "sym":
        if len(text) == 3 and text[0] == text[2] == "'":
            return text[1]
        if len(text) == 1:
            return text
        raise ValueError("expected a single symbol for %r" % decl.name)
    if decl.type in ("array", "stream"):
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError("expected [v,v,...] for %r" % decl.name)
        body = text[1:-1].strip()
        items = [_int64(p) for p in body.split(",")] if body else []
        return items if decl.type == "array" else tuple(items)
    if decl.type == "tape":
        # tape[SYMBOLS]@HEAD:DIR with @HEAD and :DIR optional
        mo = re.fullmatch(r"tape\[([^\]]*)\](?:@([^:]*)(?::(.*))?)?(.*)", text, re.DOTALL)
        if not mo:
            raise ValueError("expected tape[...]@head:dir for %r" % decl.name)
        symbols, head, direction, rest = mo.groups()
        if rest:
            raise ValueError("trailing input after tape literal for %r" % decl.name)
        return Tape.from_string(symbols, head=0 if head is None else _int64(head),
                                direction="d" if direction is None else direction)
    raise ValueError("cannot bind %r" % decl.name)


def build_initial_state(matrix, bindings):
    """Initial data state from declarations plus name=value bindings.

    Unbound scalars and tapes start UNSET, streams start empty, arrays are
    sized from their declared length and filled with UNSET.
    """
    for name, text in bindings.items():
        if name not in {d.name for d in matrix.decls}:  # worded as domain_misfit
            raise ValueError("--input %s=%s: %r is not a declared variable"
                             % (name, text, name))
    state = {}
    for d in matrix.decls:
        if d.type == "array":
            try:
                length = array_length(d, state)
            except EvalError as exc:
                raise ValueError("cannot size array %r: %s" % (d.name, exc)) from exc
        if d.name in bindings:
            text = bindings[d.name]
            try:
                value = parse_value(text, d)
                if d.type == "array" and len(value) != length:
                    raise ValueError("array %r needs exactly %d elements"
                                     % (d.name, length))
            except ValueError as exc:
                raise ValueError("--input %s=%s: %s" % (d.name, text, exc)) from None
            state[d.name] = value
        elif d.type == "stream":
            state[d.name] = ()
        elif d.type == "array":
            state[d.name] = [UNSET] * length
        else:
            state[d.name] = UNSET
    return state


def _split(item, what, shape):
    """A NAME=VALUE command-line item as (NAME, VALUE)."""
    if "=" not in item:
        raise ValueError("%s must look like %s: %r" % (what, shape, item))
    name, value = item.split("=", 1)
    return name.strip(), value


def _bindings(pairs):
    return dict(_split(item, "input binding", "name=value") for item in pairs or ())


def _domain_overrides(items):
    entries = {}
    for item in items or ():
        name, spec = _split(item, "domain override", "name=lo..hi")
        is_array = name.endswith("[]")
        try:
            entries[name[:-2] if is_array else name] = parse_domain_entry(spec, is_array)
        except ParseFailure as exc:
            message = exc.diagnostics[0].message
            raise ValueError("--domain %s: %s" % (item, message)) from None
    return DomainSpec(entries)


def _domain(parsed, args):
    """The file's domain block merged with the --domain overrides; a
    ValueError when it is empty or an entry does not fit its variable."""
    dom = (parsed.domain or DomainSpec({})).merged(_domain_overrides(args.domain))
    if not dom.entries:
        raise ValueError("%s has no domain block and no --domain overrides" % args.file)
    dom.check_fits(parsed.matrix.decls)
    return dom


def cmd_run(args):
    m = parse_path(args.file).matrix
    d0 = build_initial_state(m, _bindings(args.input))
    try:
        outcome = run(m, d0, policy=args.mode, step_bound=args.steps)
    except ExecutionError as exc:
        print(render_trace(m, exc.trace), end="")
        raise
    print(render_trace(m, outcome.trace), end="")
    return {SUCCESS: 0, FAILURE: 1, STEP_LIMIT: 2}[outcome.status]


def cmd_enumerate(args):
    m = parse_path(args.file).matrix
    outcomes = enumerate_runs(m, build_initial_state(m, _bindings(args.input)),
                              args.depth)
    for o in outcomes:
        final = o.trace.final
        summary = ", ".join("%s=%s" % (k, render_value(v))
                            for k, v in sorted(final.data.items()))
        print("%-9s %s | %s" % (o.status, " ".join(o.trace.controls), summary))
    tally = [sum(1 for o in outcomes if o.status == s) for s in (SUCCESS, FAILURE, STEP_LIMIT)]
    print("%d computation(s): %d successful, %d failed, %d cut off" % (len(outcomes), *tally))
    return 0


def cmd_verify(args):
    parsed = parse_path(args.file)
    m = parsed.matrix
    if not parsed.vector:
        raise ValueError("%s carries no condition vector" % args.file)
    dom = _domain(parsed, args)
    report = verify(parsed.vector, m, dom)
    print(render_report(m, parsed.vector, report), end="")
    return 0 if report.holds and not report.incomplete else 1


def cmd_compile(args):
    parsed = parse_path(args.file)
    text = emit(parsed.matrix, function_name=args.name, dom=parsed.domain)
    if args.out:
        out = Path(args.out)
        out.write_text(text, encoding="utf-8")
        header = out.parent / "matrixcode_rt.h"
        header.write_text(support_header(), encoding="utf-8")
        print("wrote %s and %s" % (out, header))
    else:
        print(text, end="")
    return 0


def cmd_identities(args):
    results = check_identities(seed=args.seed, trials=args.trials)
    print(render_identity_report(results), end="")
    bad = [r for r in results if not r.ok]
    print("%d law checks, %d ok" % (len(results), len(results) - len(bad)))
    return 1 if bad else 0


def cmd_closure(args):
    parsed = parse_path(args.file)
    dom = _domain(parsed, args)
    _states, by_closure, by_search = finite_dsm_relation(parsed.matrix, dom)
    if by_closure == by_search:
        print("both paths agree: %d pair(s)" % len(by_closure))
        return 0
    print("DISAGREEMENT: closure %d pair(s), search %d pair(s)"
          % (len(by_closure), len(by_search)))
    return 1


def random_stream(rng, max_len=50, max_step=9):
    """Strictly increasing stream: length uniform in [0, max_len], increments
    uniform in [1, max_step]."""
    n = rng.randint(0, max_len)
    out = []
    v = 0
    for _ in range(n):
        v += rng.randint(1, max_step)
        out.append(v)
    return tuple(out)


def merge_inputs(matrix, left, right):
    state = build_initial_state(matrix, {})
    state.update({"left": left, "right": right, "out": (),
                  "left0": left, "right0": right})
    return state


def cmd_bench_merge(args):
    if args.pairs < 1:
        raise ValueError("--pairs must be at least 1, got %d" % args.pairs)
    rng = random.Random(args.seed)
    m_merge = load_corpus("mrg2").matrix
    e_merge = load_corpus("emerge").matrix
    print("%-8s %6s %6s %6s %6s" % ("", "getL", "getR", "putL", "putR"))
    for _ in range(args.pairs):
        left = random_stream(rng)
        right = random_stream(rng)
        for label, m in (("eMerge", e_merge), ("mMerge", m_merge)):
            outcome = run(m, merge_inputs(m, left, right))
            c = outcome.trace.counters
            print("%-8s %6d %6d %6d %6d"
                  % (label, c["getL"], c["getR"], c["putL"], c["putR"]))
    return 0


def cmd_render(args):
    parsed = parse_path(args.file)
    print(render_tabular(parsed.matrix, parsed.vector), end="")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="matrixcode",
                                 description="code-matrix workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a matrix and print the trace")
    p.add_argument("file")
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    p.add_argument("--mode", choices=("det", "all"), default="det")
    p.add_argument("--steps", type=int, default=DEFAULT_STEP_BOUND)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("enumerate", help="all computations up to a depth")
    p.add_argument("file")
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    p.add_argument("--depth", type=int, default=100)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="check the condition vector and "
                                      "column completeness")
    p.add_argument("file")
    p.add_argument("--domain", action="append", metavar="NAME=LO..HI")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compile", help="emit C99 source for a matrix")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--name")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("identities", help="randomized algebraic identity report")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("closure", help="machine relation two ways over a domain")
    p.add_argument("file")
    p.add_argument("--domain", action="append", metavar="NAME=LO..HI")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("bench-merge", help="call-count table for the two mergers")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=4)
    p.set_defaults(fn=cmd_bench_merge)

    p = sub.add_parser("render", help="matrix-layout table of a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_render)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseFailure as exc:
        messages, code = exc.diagnostics, 3
    except CodegenError as exc:
        messages, code = exc.report.findings, 1
    except (ExecutionError, EvalError) as exc:
        messages, code = ["evaluation error: %s" % exc], 3
    except (OSError, ValueError) as exc:
        messages, code = [exc], 3
    except MemoryError:
        messages, code = ["out of memory: an input, a domain or an array is too large"], 3
    for message in messages:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
