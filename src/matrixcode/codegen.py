"""Translation of code matrices to imperative source text.

A matrix is translatable when every column is a deterministic dispatch:
each rule is a guard prefix followed by statements, and the guards of
distinct rules are mutually exclusive (syntactically complementary pairs,
distinct rd() symbols, or exclusivity established by enumerating a finite
domain).  Translation follows the classic shape: an integer-coded control
variable initialized at the start state, an endless loop around a switch,
one case per column in alphabetical order, return at the halt state.

The translation emits C99.  Streams travel through an opaque
Trinity handle and tapes through a Tape handle, both defined in the
matrixcode_rt.h support header shipped with the package.  A complementary
get pair compiles to one stream-test call with if/else, which keeps the
compiled call counters equal to the interpreter's.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from . import expr as E
from .relations import BUILTINS, Assign, Builtin, Guard, Seq, Union, image, seq_of
from .values import EvalError
from .verifier import _short_state, enumerate_states

C_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "true", "false", "bool",
}


@dataclass
class Finding:
    column: str
    message: str

    def __str__(self):
        return "column %s: %s" % (self.column, self.message)


@dataclass
class TranslatabilityReport:
    findings: list

    @property
    def translatable(self):
        return not self.findings


class CodegenError(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__("matrix is not translatable:\n"
                         + "\n".join(str(f) for f in report.findings))


def _split_rule(rule):
    """(guard_atoms, statement_atoms) or None if guards follow statements."""
    guards, stmts = [], []
    for atom in rule.parts if isinstance(rule, Seq) else (rule,):
        if isinstance(atom, Union):
            return None
        if isinstance(atom, Guard) or (
                isinstance(atom, Builtin) and atom.name in BUILTINS
                and BUILTINS[atom.name].guard):
            if stmts:
                return None
            guards.append(atom)
        else:
            stmts.append(atom)
    return guards, stmts


def _guard_key(a):
    """A guard atom as a comparison key: a guard by the text of its test."""
    return E.render_expr(a.expr) if isinstance(a, Guard) else a


def _complementary(a, b):
    """Syntactic complement of two guard atoms."""
    flips = {(">=", "<"), ("<", ">="), (">", "<="), ("<=", ">"),
             ("==", "!="), ("!=", "==")}
    if isinstance(a, Guard) and isinstance(b, Guard):
        ae, be = a.expr, b.expr
        # equal text is an equal test; render_expr loops along a long chain,
        # where == on the trees would recurse once per link
        text = E.render_expr
        if isinstance(be, E.Unary) and be.op == "not" and text(be.operand) == text(ae):
            return True
        if isinstance(ae, E.Unary) and ae.op == "not" and text(ae.operand) == text(be):
            return True
        return (isinstance(ae, E.Binary) and isinstance(be, E.Binary)
                and (ae.op, be.op) in flips
                and text(ae.left) == text(be.left) and text(ae.right) == text(be.right))
    if isinstance(a, Builtin) and isinstance(b, Builtin):
        pairs = {("getL", "ngetL"), ("ngetL", "getL"),
                 ("getR", "ngetR"), ("ngetR", "getR")}
        return (a.name, b.name) in pairs
    return False


def _pairwise_exclusive(ga, gb):
    """Can rules with guard lists ga/gb never both fire?  Syntactic check."""
    if not ga or not gb:
        return False
    # identical prefixes up to a complementary atom, at the end of the shorter
    k = min(len(ga), len(gb))
    if (list(map(_guard_key, ga[:k - 1])) == list(map(_guard_key, gb[:k - 1]))
            and _complementary(ga[k - 1], gb[k - 1])):
        return True
    # distinct rd symbols scan the same square
    a0, b0 = ga[0], gb[0]
    return (isinstance(a0, Builtin) and a0.name == "rd"
            and isinstance(b0, Builtin) and b0.name == "rd"
            and a0.arg != b0.arg)


def _overlap_witness(m, ga, gb, dom):
    """Search the domain for a state where both guard prefixes pass."""
    ra, rb = seq_of(ga), seq_of(gb)
    for state in enumerate_states(dom, m.decls):
        try:
            if image(ra, state) and image(rb, state):
                return state
        except EvalError:
            continue
    return None


def check_translatable(m, dom=None):
    """Decide whether the loop-plus-dispatch translation applies; findings
    name the offending column and rule pair."""
    findings = []
    for k in m.states:
        if k == m.halt:
            continue
        rules = m.outgoing(k)
        if not rules:
            continue
        split = []
        for idx, (_to, rule) in enumerate(rules):
            parts = _split_rule(rule)
            if parts is None:
                findings.append(Finding(
                    k, "rule %d is not of guard-then-statements shape" % (idx + 1)))
            split.append(parts)
        if any(p is None for p in split):
            continue
        for i in range(len(split)):
            for j in range(i + 1, len(split)):
                ga, gb = split[i][0], split[j][0]
                if _pairwise_exclusive(ga, gb):
                    continue
                if dom is not None:
                    witness = _overlap_witness(m, ga, gb, dom)
                    if witness is None:
                        continue
                    findings.append(Finding(
                        k, "rules %d and %d overlap, witness %s"
                        % (i + 1, j + 1, _short_state(witness))))
                else:
                    findings.append(Finding(
                        k, "cannot establish that rules %d and %d are mutually "
                           "exclusive (no domain to enumerate)" % (i + 1, j + 1)))
    return TranslatabilityReport(findings)


# ---------------------------------------------------------------------------
# C99 emission

def _cexpr(e):
    try:
        return E.render_expr(e, spelling=E.C99)
    except ValueError as exc:
        raise CodegenError(TranslatabilityReport([Finding("?", str(exc))])) from None


def _streams_declared(m):
    return [d for d in m.decls if d.type == "stream"]


def _tape_decl(m):
    tapes = [d for d in m.decls if d.type == "tape"]
    return tapes[0] if tapes else None


class _Emitter:
    def __init__(self, m):
        self.m = m
        self.tape = _tape_decl(m)
        self.uses_streams = bool(_streams_declared(m))
        names = {d.name for d in m.decls}
        self.state_const = {}
        for k in m.states:
            c = k
            if c in names or c in C_KEYWORDS or c in ("state", "tri"):
                c = "S_" + c
            self.state_const[k] = c

    def guard_c(self, atom):
        if isinstance(atom, Guard):
            return _cexpr(atom.expr)
        if atom.name in ("getL", "getR"):
            return "mc_%s(tri, &%s)" % (atom.name, atom.arg)
        if atom.name in ("ngetL", "ngetR"):
            return "!mc_%s(tri, 0)" % ("getL" if atom.name == "ngetL" else "getR")
        if atom.name == "rd":
            return "mc_rd(%s) == %s" % (self.tape.name, E.c_char(atom.arg))
        raise AssertionError(atom)

    def stmts_c(self, atoms):
        out = []
        for a in atoms:
            if isinstance(a, Assign):
                for target, rhs in a.targets:
                    if target[0] == "var":
                        lhs = target[1]
                    else:
                        lhs = "%s[%s]" % (target[1], _cexpr(target[2]))
                    out.append("%s = %s;" % (lhs, _cexpr(rhs)))
            elif a.name in ("putL", "putR"):
                out.append("mc_%s(tri);" % a.name)
            elif a.name in ("wr", "dir"):
                out.append("mc_%s(%s, %s);" % (a.name, self.tape.name, E.c_char(a.arg)))
            else:
                raise AssertionError(a)
        return out

    def branch_body(self, stmts, to):
        return " ".join(self.stmts_c(stmts) + ["state = %s;" % self.state_const[to]])


def _is_trivial_guard(guards):
    return all(isinstance(g, Guard) and g.expr == E.BoolLit(True) for g in guards)


def emit(m, function_name=None, dom=None):
    """Emit one C99 procedure for a translatable matrix.

    Pure function of (matrix, name, domain): output is byte-stable for
    golden testing.  Raises CodegenError when check_translatable objects.
    """
    report = check_translatable(m, dom)
    if not report.translatable:
        raise CodegenError(report)
    em = _Emitter(m)
    name = function_name or m.name

    params = []
    streams_done = False
    for d in m.decls:
        if d.kind != "param":
            continue
        if d.type == "stream":
            if not streams_done:
                params.append("Trinity *tri")
                streams_done = True
        elif d.type == "array":
            params.append("int64_t %s[]" % d.name)
        elif d.type == "int":
            params.append("int64_t %s" % d.name)
        elif d.type == "bool":
            params.append("bool %s" % d.name)
        elif d.type == "sym":
            params.append("char %s" % d.name)
        elif d.type == "tape":
            params.append("Tape *%s" % d.name)
    if em.uses_streams and not streams_done:
        params.append("Trinity *tri")

    local_types = {"int": "int64_t", "bool": "bool", "sym": "char"}
    locals_by_type = {}
    for d in m.decls:
        if d.kind == "var" and d.type in local_types:
            locals_by_type.setdefault(local_types[d.type], []).append(d.name)

    lines = []
    lines.append("/* %s: translated from code matrix %s */" % (name, m.name))
    lines.append("#include <assert.h>")
    lines.append('#include "matrixcode_rt.h"')
    lines.append("")
    lines.append("void %s(%s) {" % (name, ", ".join(params) or "void"))
    consts = ", ".join(em.state_const[k] for k in sorted(m.states))
    lines.append("    typedef enum { %s } State;" % consts)
    lines.append("    State state = %s;" % em.state_const[m.start])
    for ctype, names in locals_by_type.items():
        lines.append("    %s %s;" % (ctype, ", ".join(names)))
    lines.append("    while (true) {")
    lines.append("        switch (state) {")

    for k in sorted(m.states):
        lines.append("        case %s:" % em.state_const[k])
        if k == m.halt:
            lines.append("            return;")
            continue
        rules = m.outgoing(k)
        if not rules:
            lines.append('            assert(false && "no transition from %s");' % k)
            lines.append("            break;")
            continue
        split = [(_split_rule(rule), to) for to, rule in rules]
        if len(split) == 2:
            (ga, _), _ = split[0]
            (gb, _), _ = split[1]
            if len(ga) == 1 and len(gb) == 1 and _complementary(ga[0], gb[0]):
                # the test of the pair is its guard, or the get of a get pair
                if isinstance(ga[0], Builtin) and ga[0].name in ("ngetL", "ngetR"):
                    split.reverse()
                ((gp, sp), tp), ((_, sn), tn) = split
                lines.append("            if (%s) { %s }"
                             % (em.guard_c(gp[0]), em.branch_body(sp, tp)))
                lines.append("            else { %s }" % em.branch_body(sn, tn))
                lines.append("            break;")
                continue
        if len(split) == 1 and _is_trivial_guard(split[0][0][0]):
            (_, stmts), to = split[0]
            lines.append("            %s" % em.branch_body(stmts, to))
            lines.append("            break;")
            continue
        for (guards, stmts), to in split:
            clause = " && ".join(em.guard_c(g) for g in guards) or "true"
            lines.append("            if (%s) { %s break; }"
                         % (clause, em.branch_body(stmts, to)))
        lines.append('            assert(false && "no transition from %s");' % k)
        lines.append("            break;")

    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def support_header():
    """Contents of the fixed runtime support header (matrixcode_rt.h)."""
    return resources.files("matrixcode").joinpath("runtime/matrixcode_rt.h").read_text()
