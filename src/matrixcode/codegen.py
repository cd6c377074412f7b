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

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

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
# the object-like macros that the standard headers matrixcode_rt.h includes
# define, or may define under another libc or a later C (errno, static_assert)
_INT_LIMITS = {"INT%s%d_%s" % (kind, bits, end) for kind in ("", "_LEAST", "_FAST")
               for bits in (8, 16, 32, 64) for end in ("MIN", "MAX")}
C_MACROS = _INT_LIMITS | {"U" + name for name in _INT_LIMITS if name.endswith("MAX")} | {
    "NULL", "EOF", "BUFSIZ", "FILENAME_MAX", "FOPEN_MAX", "L_tmpnam", "TMP_MAX",
    "SEEK_SET", "SEEK_CUR", "SEEK_END", "stdin", "stdout", "stderr", "errno",
    "EXIT_SUCCESS", "EXIT_FAILURE", "RAND_MAX", "MB_CUR_MAX", "static_assert",
    "INTPTR_MIN", "INTPTR_MAX", "UINTPTR_MAX", "INTMAX_MIN", "INTMAX_MAX", "UINTMAX_MAX",
    "PTRDIFF_MIN", "PTRDIFF_MAX", "SIG_ATOMIC_MIN", "SIG_ATOMIC_MAX", "SIZE_MAX",
    "WCHAR_MIN", "WCHAR_MAX", "WINT_MIN", "WINT_MAX"}
# names the emitted code cannot give a variable, a control state or itself:
# C99's keywords, the frame's own names, what matrixcode_rt.h declares and
# its headers define, and C's reserved prefixes _X and __ (_Bool, __LINE__)
C_RESERVED = C_KEYWORDS | C_MACROS | {"state", "State", "tri", "Trinity", "Tape", "McIn",
                                      "McOut", "int64_t"}
# what the headers declare at file scope besides those macros, which the
# emitted function cannot also be: main, the functions of <stdio.h>,
# <stdlib.h> and <string.h> (C99 and C11), assert, and the headers' types
C_FILE_SCOPE = set("""
    main assert
    remove rename tmpfile tmpnam fclose fflush fopen freopen setbuf setvbuf
    fprintf fscanf printf scanf snprintf sprintf sscanf vfprintf vfscanf vprintf
    vscanf vsnprintf vsprintf vsscanf fgetc fgets fputc fputs getc getchar gets
    putc putchar puts ungetc fread fwrite fgetpos fseek fsetpos ftell rewind
    clearerr feof ferror perror
    atof atoi atol atoll strtod strtof strtold strtol strtoll strtoul strtoull
    rand srand aligned_alloc calloc free malloc realloc abort atexit at_quick_exit
    exit quick_exit getenv system bsearch qsort abs labs llabs div ldiv lldiv
    mblen mbtowc wctomb mbstowcs wcstombs
    memcpy memmove strcpy strncpy strcat strncat memcmp strcmp strcoll strncmp
    strxfrm memchr strchr strcspn strpbrk strrchr strspn strstr strtok memset
    strerror strlen
    FILE fpos_t size_t wchar_t div_t ldiv_t lldiv_t intptr_t uintptr_t intmax_t
    uintmax_t""".split()) | {"%sint%s%d_t" % (u, kind, bits) for u in ("", "u")
                             for kind in ("", "_least", "_fast") for bits in (8, 16, 32, 64)}


def _reserved(name):
    return name in C_RESERVED or name.startswith("mc_") or re.match("_[A-Z_]", name) is not None


@dataclass
class Finding:
    column: Optional[str]  # None for a finding about a name
    message: str

    def __str__(self):
        return ("column %s: " % self.column if self.column else "") + self.message


@dataclass
class TranslatabilityReport:
    findings: list
    # per non-halt control state: [((guards, statements), to), ...] in scan order
    columns: dict = field(default_factory=dict)

    @property
    def translatable(self):
        return not self.findings


class CodegenError(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__("matrix is not translatable:\n"
                         + "\n".join(str(f) for f in report.findings))


def _split_rule(rule):
    """(guard_atoms, statement_atoms), or None if guards follow statements or
    the rule holds a Union or a builtin that is not in BUILTINS."""
    guards, stmts = [], []
    for atom in rule.parts if isinstance(rule, Seq) else (rule,):
        if isinstance(atom, Union) or (isinstance(atom, Builtin) and atom.name not in BUILTINS):
            return None
        if isinstance(atom, Guard) or (isinstance(atom, Builtin) and BUILTINS[atom.name].guard):
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
    # two builtins that share a key are the two polarities of a stream test
    return (isinstance(a, Builtin) and isinstance(b, Builtin) and a.name != b.name
            and BUILTINS[a.name].key == BUILTINS[b.name].key)


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


def _undeclarable(d, params):
    """Why the procedure cannot declare a var as a local, or None: a tape
    comes in as a param, and an array is sized from int params and literals."""
    if d.type == "tape":
        return "var tape %r cannot be declared in C; make it a param" % d.name
    if d.type != "array":
        return None
    length, reads = E.render_expr(d.length), E.free_vars(d.length)
    if reads - params:
        return "var array %r has length %s, which reads %s; C sizes it from int params only" % (
            d.name, length, ", ".join(sorted(reads - params)))
    if not reads:
        try:
            size = E.eval_expr({}, d.length)
        except EvalError:
            size = 0
        if size < 1:
            return "var array %r has length %s, which is not a positive constant" % (
                d.name, length)
    return None


def check_translatable(m, dom=None):
    """Decide whether the loop-plus-dispatch translation applies; findings
    name a reserved variable name, a var that C cannot declare, or the
    offending column and rule pair.  The report keeps each column's split
    rules for emit."""
    params = {d.name for d in m.decls if d.kind == "param" and d.type in ("int", "array")}
    findings = [Finding(None, "variable %r has a name reserved in C" % d.name)
                for d in m.decls if _reserved(d.name)]
    findings.extend(Finding(None, why) for why in
                    (_undeclarable(d, params) for d in m.decls if d.kind == "var") if why)
    columns = {}
    for k in m.states:
        if k == m.halt:
            continue
        split = columns[k] = [(_split_rule(rule), to) for to, rule in m.outgoing(k)]
        bad = [i for i, (parts, _to) in enumerate(split) if parts is None]
        findings.extend(Finding(k, "rule %d is not of guard-then-statements shape" % (i + 1))
                        for i in bad)
        if bad:
            continue
        guards = [parts[0] for parts, _to in split]
        for i, ga in enumerate(guards):
            for j, gb in enumerate(guards[i + 1:], i + 1):
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
    return TranslatabilityReport(findings, columns)


# ---------------------------------------------------------------------------
# C99 emission

def _cexpr(e):
    try:
        return E.render_expr(e, spelling=E.C99)
    except ValueError as exc:
        raise CodegenError(TranslatabilityReport([Finding("?", str(exc))])) from None


# a declaration's C form; every stream travels in the one Trinity handle
_C_DECL = {"int": "int64_t {}", "bool": "bool {}", "sym": "char {}", "array": "int64_t {}[]",
           "tape": "Tape *{}", "stream": "Trinity *tri"}


class _Emitter:
    """C for guards and statements; a builtin is called as mc_<its key>."""

    def __init__(self, m):
        self.tape = next((d.name for d in m.decls if d.type == "tape"), None)
        # a state that is a variable's name or reserved takes the prefix S_,
        # again while its name is still taken
        names = {d.name for d in m.decls}
        taken = names | set(m.states)
        self.state_const = {}
        for k in m.states:
            c = k
            if k in names or _reserved(k):
                c = "S_" + k
                while c in taken:
                    c = "S_" + c
                taken.add(c)
            self.state_const[k] = c

    def guard_c(self, atom):
        if isinstance(atom, Guard):
            return _cexpr(atom.expr)
        spec = BUILTINS[atom.name]
        if not spec.streams:  # rd
            return "mc_%s(%s) == %s" % (spec.key, self.tape, E.c_char(atom.arg))
        if spec.arg:  # a get binds the head it tests for, an nget tests only
            return "mc_%s(tri, &%s)" % (spec.key, atom.arg)
        return "!mc_%s(tri, 0)" % spec.key

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
            else:  # a put moves a stream head, wr and dir act on the tape
                spec = BUILTINS[a.name]
                args = "tri" if spec.streams else "%s, %s" % (self.tape, E.c_char(a.arg))
                out.append("mc_%s(%s);" % (spec.key, args))
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
    name = function_name or m.name
    if (_reserved(name) or name in C_FILE_SCOPE
            or not re.fullmatch("[A-Za-z_][A-Za-z0-9_]*", name)):
        raise CodegenError(TranslatabilityReport([Finding(
            None, "function name %r is reserved in C or not a C identifier" % name)]))
    report = check_translatable(m, dom)
    if not report.translatable:
        raise CodegenError(report)
    em = _Emitter(m)
    # the parameters, then the Trinity of streams declared only as vars
    frame = [d for d in m.decls if d.kind == "param"] + [d for d in m.decls if d.type == "stream"]
    params = dict.fromkeys(_C_DECL[d.type].format(d.name) for d in frame)
    locals_by_type = {}  # a var array is an int64_t local sized by its length
    for d in m.decls:
        if d.kind == "var" and d.type in ("int", "bool", "sym"):
            locals_by_type.setdefault(_C_DECL[d.type], []).append(d.name)
        elif d.kind == "var" and d.type == "array":
            locals_by_type.setdefault(_C_DECL["int"], []).append(
                "%s[%s]" % (d.name, _cexpr(d.length)))

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
        lines.append("    %s;" % ctype.format(", ".join(names)))
    lines.append("    while (true) {")
    lines.append("        switch (state) {")

    for k in sorted(m.states):
        lines.append("        case %s:" % em.state_const[k])
        if k == m.halt:
            lines.append("            return;")
            continue
        split = report.columns[k]  # with no rule, only the closing assert
        if len(split) == 2:
            (ga, _), _ = split[0]
            (gb, _), _ = split[1]
            if len(ga) == 1 and len(gb) == 1 and _complementary(ga[0], gb[0]):
                # the test of the pair is its guard, or the get of a get pair
                if isinstance(ga[0], Builtin) and not BUILTINS[ga[0].name].arg:
                    split = split[::-1]
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
