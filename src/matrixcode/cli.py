"""Command-line front door: matrixcode {run|enumerate|verify|compile|...} FILE.

Exit codes for run: 0 success, 1 failed computation, 2 step limit,
3 parse/evaluation error.  verify: 0 when the condition vector holds and
no incomplete column is found, 1 otherwise.  closure: 0 when the matrix
closure and the configuration search agree, 1 when they disagree.  Both
exit 3 for parse errors, missing inputs, a domain entry that is malformed
or fits no declared variable, or a negative array length (compile too);
closure also for an evaluation error while tabulating.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import load_corpus
from .codegen import CodegenError, emit, support_header
from .dsl import ParseFailure, parse_domain_entry, parse_path, render_tabular
from .interpreter import (DEFAULT_STEP_BOUND, ExecutionError, FAILURE,
                          STEP_LIMIT, SUCCESS, enumerate_runs, render_trace, run)
from .kleene import check_identities, finite_dsm_relation, render_identity_report
from .values import UNSET, EvalError, Tape, render_value
from .verifier import DomainSpec, array_length, check_vector, completeness, render_report


def _fail(message, code=3):
    print(message, file=sys.stderr)
    return code


def parse_value(text, decl):
    """One command-line input literal, typed by the variable's declaration."""
    text = text.strip()
    if decl.type in ("int",):
        return int(text)
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
        items = [int(p) for p in body.split(",")] if body else []
        return items if decl.type == "array" else tuple(items)
    if decl.type == "tape":
        # tape[SYMBOLS]@HEAD:DIR with @HEAD and :DIR optional
        if not text.startswith("tape["):
            raise ValueError("expected tape[...]@head:dir for %r" % decl.name)
        close = text.index("]")
        symbols = text[5:close]
        rest = text[close + 1:]
        head, direction = 0, "d"
        if rest.startswith("@"):
            rest = rest[1:]
            if ":" in rest:
                head_text, direction = rest.split(":", 1)
            else:
                head_text = rest
            head = int(head_text)
        elif rest:
            raise ValueError("trailing input after tape literal for %r" % decl.name)
        return Tape.from_string(symbols, head=head, direction=direction)
    raise ValueError("cannot bind %r" % decl.name)


def build_initial_state(matrix, bindings):
    """Initial data state from declarations plus name=value bindings.

    Unbound scalars and tapes start UNSET, streams start empty, arrays are
    sized from their declared length and filled with UNSET.
    """
    state = {}
    for d in matrix.decls:
        if d.type == "array":
            try:
                length = array_length(d, state)
            except EvalError as exc:
                raise ValueError("cannot size array %r: %s" % (d.name, exc)) from exc
        if d.name in bindings:
            value = parse_value(bindings[d.name], d)
            if d.type == "array" and len(value) != length:
                raise ValueError("array %r needs exactly %d elements" % (d.name, length))
            state[d.name] = value
        elif d.type == "stream":
            state[d.name] = ()
        elif d.type == "array":
            state[d.name] = [UNSET] * length
        else:
            state[d.name] = UNSET
    return state


def _bindings(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError("input binding must look like name=value: %r" % item)
        name, value = item.split("=", 1)
        out[name.strip()] = value
    return out


def _domain_overrides(items):
    entries = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError("domain override must look like name=lo..hi: %r" % item)
        name, spec = item.split("=", 1)
        name = name.strip()
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


def _load(path):
    try:
        return parse_path(path)
    except ParseFailure as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        raise SystemExit(3) from exc
    except OSError as exc:
        raise SystemExit(_fail("cannot read %s: %s" % (path, exc)))


def cmd_run(args):
    parsed = _load(args.file)
    m = parsed.matrix
    try:
        d0 = build_initial_state(m, _bindings(args.input))
        outcome = run(m, d0, policy=args.mode, step_bound=args.steps)
    except (ValueError, EvalError) as exc:
        return _fail(str(exc))
    except ExecutionError as exc:
        print(render_trace(m, exc.trace), end="")
        return _fail("evaluation error: %s" % exc)
    print(render_trace(m, outcome.trace), end="")
    return {SUCCESS: 0, FAILURE: 1, STEP_LIMIT: 2}[outcome.status]


def cmd_enumerate(args):
    parsed = _load(args.file)
    m = parsed.matrix
    try:
        d0 = build_initial_state(m, _bindings(args.input))
        outcomes = enumerate_runs(m, d0, args.depth)
    except (ValueError, EvalError) as exc:
        return _fail(str(exc))
    except ExecutionError as exc:
        return _fail("evaluation error: %s" % exc)
    for o in outcomes:
        final = o.trace.final
        summary = ", ".join("%s=%s" % (k, render_value(v))
                            for k, v in sorted(final.data.items()))
        print("%-9s %s | %s" % (o.status, " ".join(o.trace.controls), summary))
    wins = sum(1 for o in outcomes if o.status == SUCCESS)
    print("%d computation(s): %d successful, %d failed, %d cut off"
          % (len(outcomes), wins,
             sum(1 for o in outcomes if o.status == FAILURE),
             sum(1 for o in outcomes if o.status == STEP_LIMIT)))
    return 0


def cmd_verify(args):
    parsed = _load(args.file)
    m = parsed.matrix
    if not parsed.vector:
        return _fail("%s carries no condition vector" % args.file)
    try:
        dom = _domain(parsed, args)
        report = check_vector(parsed.vector, m, dom)
        witnesses = completeness(m, parsed.vector, dom=dom)
    except ValueError as exc:
        return _fail(str(exc))
    print(render_report(m, parsed.vector, report, witnesses), end="")
    return 0 if report.holds and not witnesses else 1


def cmd_compile(args):
    parsed = _load(args.file)
    m = parsed.matrix
    try:
        text = emit(m, function_name=args.name, dom=parsed.domain)
    except CodegenError as exc:
        for finding in exc.report.findings:
            print(str(finding), file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail(str(exc))
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
    parsed = _load(args.file)
    m = parsed.matrix
    try:
        dom = _domain(parsed, args)
        _states, by_closure, by_search = finite_dsm_relation(m, dom)
    except EvalError as exc:
        return _fail("evaluation error: %s" % exc)
    except ValueError as exc:
        return _fail(str(exc))
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
    parsed = _load(args.file)
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3


if __name__ == "__main__":
    sys.exit(main())
