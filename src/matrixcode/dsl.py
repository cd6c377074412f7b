"""Parser and pretty-printers for the .mxc matrix format.

A file holds one machine:

    dsm NAME {
      param N: int;            # parameters (inputs / in-out data)
      var k: int;              # locals; also: bool, sym, int[EXPR], stream, tape
      start S;
      halt H;
      cond A: "label" is EXPR;                 # optional condition vector
      from K1 to K2: RULE | RULE;              # one cell, rules in scan order
      domain { N in 2..4; b in bool; p[] in {2,3,5,7}; left in stream(0..2, 1..9); }
    }

A RULE is a ';'-composition of atoms: '[expr]' guards, '{ a = e; ... }'
assignment blocks (executed left to right), and builtin calls (getL(v),
ngetL, putL, rd('c'), wr('c'), dir(L), ...).  Rule order in the file is the
deterministic interpreter's scan order.  A symbol literal is one character
other than a newline between single quotes ('(' and ''' are both symbols).
Comments run from '#' to end of line; newlines are insignificant.

Conditions may use bounded quantifiers, len/count and stream indexing;
guards and statements may not.  A condition may name an earlier condition
to include it as a conjunct (the reference is expanded at parse time).
Declare names before using them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import expr as E
from . import relations as R
from .matrix import CodeMatrix, Diagnostic, VarDecl, validate
from .values import DIRECTIONS
from .verifier import Condition, DomainSpec, domain_misfit


class ParseFailure(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


@dataclass
class Token:
    kind: str  # IDENT INT SYM STRING OP EOF
    value: object
    line: int
    col: int

    def shown(self):
        """The token as a diagnostic names it."""
        return "end of input" if self.kind == "EOF" else repr(self.value)


# One alternative per token kind; blanks and comments match no named group.
# INT is decimal digits only, so int() accepts every match.  An IDENT match
# that starts with a numeric character other than a digit is not a name.
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n)
  | [ \t\r]+ | \#[^\n]*
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<INT>\d+)
  | '(?P<SYM>[^\n])'
  | "(?P<STRING>[^"\n]*)"
  | (?P<OP>==|!=|<=|>=|\.\.|[{}\[\]();:,|=<>+\-*/%])
  | (?P<BAD>.)""", re.VERBOSE)

_LEX_ERRORS = {"'": "symbol literal must be a single quoted character",
               '"': "unterminated string"}


def tokenize(text, filename="<string>"):
    """Tokens of .mxc source, each at its 1-based line and column, ending
    with an EOF token at the end of the input.  Raises ParseFailure at the
    first character that starts no token."""
    tokens, line, line_start = [], 1, 0
    for mo in _TOKEN.finditer(text):
        kind = mo.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, mo.end()
        elif kind is not None:
            value, col = mo.group(kind), mo.start() - line_start + 1
            if kind == "BAD" or (kind == "IDENT" and not value[0].isalpha()
                                 and value[0] != "_"):
                raise ParseFailure([Diagnostic(
                    "error", "%s:%d:%d" % (filename, line, col),
                    _LEX_ERRORS.get(value, "unexpected character %r" % value[0]))])
            tokens.append(Token(kind, int(value) if kind == "INT" else value, line, col))
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


@dataclass
class ParsedFile:
    matrix: CodeMatrix
    vector: dict  # state -> Condition, or None
    domain: DomainSpec  # or None


class _Parser:
    def __init__(self, text, filename):
        self.filename = filename
        self.tokens = tokenize(text, filename)
        self.i = 0
        self.diags = []
        self.decls = []
        self.decl_types = {}
        self.start = None
        self.halt = None
        self.conds = {}
        self.cells = {}
        self.domain_entries = {}
        self.mentioned = []  # control states in first-mention order
        self.depth = -1  # level of the expression being parsed (E.nesting)

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def loc(self, tok):
        return "%s:%d:%d" % (self.filename, tok.line, tok.col)

    def fail(self, tok, message):
        raise ParseFailure(self.diags + [Diagnostic("error", self.loc(tok), message)])

    def error(self, tok, message):
        self.diags.append(Diagnostic("error", self.loc(tok), message))

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "OP" or tok.value != op:
            self.fail(tok, "expected %r, found %s" % (op, tok.shown()))
        return tok

    def expect_ident(self, what="name"):
        tok = self.next()
        if tok.kind != "IDENT":
            self.fail(tok, "expected %s, found %s" % (what, tok.shown()))
        return tok

    def expect_keyword(self, kw):
        tok = self.next()
        if tok.kind != "IDENT" or tok.value != kw:
            self.fail(tok, "expected %r, found %s" % (kw, tok.shown()))
        return tok

    def at_keyword(self, kw):
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == kw

    def mention(self, state):
        if state not in self.mentioned:
            self.mentioned.append(state)

    # -- file structure ------------------------------------------------------
    def parse_file(self):
        self.expect_keyword("dsm")
        name_tok = self.expect_ident("machine name")
        self.expect_op("{")
        while not (self.peek().kind == "OP" and self.peek().value == "}"):
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(tok, "expected a declaration or '}', found %s" % tok.shown())
            if tok.value in ("param", "var"):
                self.parse_decl()
            elif tok.value in ("start", "halt"):
                self.parse_start_or_halt()
            elif tok.value == "cond":
                self.parse_cond()
            elif tok.value == "from":
                self.parse_cell()
            elif tok.value == "domain":
                self.parse_domain()
            else:
                self.fail(tok, "expected param/var/start/halt/cond/from/domain, "
                               "found %s" % tok.shown())
        self.expect_op("}")
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(tok, "trailing input after closing '}'")
        return self.finish(name_tok.value)

    def parse_decl(self):
        kind_tok = self.next()
        names = [self.expect_ident("variable name")]
        while self.peek().kind == "OP" and self.peek().value == ",":
            self.next()
            names.append(self.expect_ident("variable name"))
        self.expect_op(":")
        type_tok = self.expect_ident("type")
        length = None
        if type_tok.value == "int" and self.peek().kind == "OP" and self.peek().value == "[":
            self.next()
            length = self.parse_expr(cond_ctx=False)
            self.expect_op("]")
            type_name = "array"
        elif type_tok.value in ("int", "bool", "sym", "stream", "tape"):
            type_name = type_tok.value
        else:
            self.fail(type_tok, "unknown type %r" % type_tok.value)
        self.expect_op(";")
        for tok in names:
            if tok.value in self.decl_types:
                self.error(tok, "duplicate declaration of %r" % tok.value)
                continue
            if tok.value in self.conds:
                self.error(tok, "variable %r collides with a control state"
                           % tok.value)
                continue
            decl = VarDecl(tok.value, type_name, kind_tok.value, length,
                           pos=(tok.line, tok.col))
            self.decls.append(decl)
            self.decl_types[tok.value] = type_name

    def parse_start_or_halt(self):
        """'start K;' or 'halt K;', each kept in the attribute of its name."""
        tok = self.next()
        name = self.expect_ident("control state")
        self.expect_op(";")
        if getattr(self, tok.value) is not None:
            self.error(tok, "%s state declared twice" % tok.value)
        setattr(self, tok.value, name.value)
        self.mention(name.value)

    def parse_cond(self):
        self.next()
        name = self.expect_ident("control state")
        self.expect_op(":")
        label_tok = self.next()
        if label_tok.kind != "STRING":
            self.fail(label_tok, "expected a quoted condition label")
        self.expect_keyword("is")
        expr = self.parse_expr(cond_ctx=True)
        self.expect_op(";")
        if name.value in self.conds:
            self.error(name, "duplicate control state %r in condition vector"
                       % name.value)
            return
        if name.value in self.decl_types:
            self.error(name, "control state %r collides with a variable name"
                       % name.value)
        self.mention(name.value)
        self.conds[name.value] = Condition(name.value, label_tok.value, expr)

    def parse_cell(self):
        self.next()
        frm = self.expect_ident("control state")
        self.expect_keyword("to")
        to = self.expect_ident("control state")
        self.expect_op(":")
        rules = [self.parse_rule()]
        while self.peek().kind == "OP" and self.peek().value == "|":
            self.next()
            rules.append(self.parse_rule())
        self.expect_op(";")
        self.mention(frm.value)
        self.mention(to.value)
        key = (frm.value, to.value)
        if key in self.cells:
            self.error(frm, "duplicate cell %s -> %s" % key)
            return
        self.cells[key] = tuple(rules)

    def parse_rule(self):
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == ";":
                nxt = self.peek(1)
                starts_atom = (
                    (nxt.kind == "OP" and nxt.value in ("[", "{"))
                    or (nxt.kind == "IDENT" and nxt.value in R.BUILTINS))
                if starts_atom:
                    self.next()
                    atoms.append(self.parse_atom())
                    continue
            break
        return R.seq_of(atoms)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "[":
            self.next()
            guard = self.parse_expr(cond_ctx=False)
            self.expect_op("]")
            return R.Guard(guard, pos=(tok.line, tok.col))
        if tok.kind == "OP" and tok.value == "{":
            self.next()
            targets = []
            while not (self.peek().kind == "OP" and self.peek().value == "}"):
                targets.append(self.parse_assign())
                if self.peek().kind == "OP" and self.peek().value == ";":
                    self.next()
                else:
                    break
            self.expect_op("}")
            if not targets:
                self.fail(tok, "empty statement block")
            return R.Assign(tuple(targets), pos=(tok.line, tok.col))
        if tok.kind == "IDENT" and tok.value in R.BUILTINS:
            return self.parse_builtin()
        if tok.kind == "IDENT":
            self.fail(tok, "unknown builtin %r" % tok.value)
        self.fail(tok, "expected a rule atom ([guard], {statements} or a builtin)")

    def parse_assign(self):
        name = self.expect_ident("assignment target")
        self.check_var(name)
        target = ("var", name.value)
        if self.peek().kind == "OP" and self.peek().value == "[":
            self.next()
            idx = self.parse_expr(cond_ctx=False)
            self.expect_op("]")
            target = ("elem", name.value, idx)
        self.expect_op("=")
        rhs = self.parse_expr(cond_ctx=False)
        return (target, rhs)

    def parse_builtin(self):
        tok = self.next()
        name = tok.value
        pos = (tok.line, tok.col)
        kind = R.BUILTINS[name].arg
        if kind is None:
            return R.Builtin(name, None, pos=pos)
        self.expect_op("(")
        if kind == "var":
            arg = self.expect_ident("output variable")
            self.check_var(arg)
        elif kind == "sym":
            arg = self.next()
            if arg.kind != "SYM":
                self.fail(arg, "%s needs a symbol literal like '('" % name)
        else:
            arg = self.expect_ident("direction (L, R or d)")
            if arg.value not in DIRECTIONS:
                self.fail(arg, "direction must be L, R or d")
        self.expect_op(")")
        return R.Builtin(name, arg.value, pos=pos)

    def nest(self, tok, levels=1):
        """Go `levels` deeper at tok, failing past E.MAX_NESTING; returns levels."""
        self.depth += levels
        if self.depth > E.MAX_NESTING:
            self.fail(tok, "expression nested more than %d levels deep" % E.MAX_NESTING)
        return levels

    def check_var(self, tok, locals_=()):
        if tok.value not in self.decl_types and tok.value not in locals_:
            self.error(tok, "undeclared variable %r" % tok.value)

    # -- expressions ---------------------------------------------------------
    def parse_expr(self, cond_ctx, locals_=(), min_prec=1):
        """The expression whose operators all bind at least min_prec, by
        precedence climbing over expr.PREC.  An operator takes a left
        operand only as expr.operand_precs allows, so a comparison or a
        'not' may be followed by 'and'/'or' alone."""
        tok = self.peek()
        self.nest(tok)
        not_prec = E.MXC.not_prec
        if min_prec <= not_prec and self.at_keyword("not"):
            self.next()
            left = E.Unary("not", self.parse_expr(cond_ctx, locals_, not_prec),
                           pos=(tok.line, tok.col))
            left_prec = not_prec
        else:
            left = self.parse_unary(cond_ctx, locals_)
            left_prec = E.ATOM
        while True:
            tok = self.peek()
            op = tok.value if tok.kind in ("OP", "IDENT") else None
            if op not in E.PREC or E.PREC[op] < min_prec:
                break
            least_left, least_right = E.operand_precs(op)
            if left_prec < least_left:
                break
            self.next()
            right = self.parse_expr(cond_ctx, locals_, least_right)
            left = E.Binary(op, left, right, pos=(tok.line, tok.col))
            left_prec = E.PREC[op]
        self.depth -= 1
        return left

    def parse_unary(self, cond_ctx, locals_):
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.next()
            self.nest(tok)
            operand = self.parse_unary(cond_ctx, locals_)
            self.depth -= 1
            if isinstance(operand, E.IntLit):  # fold negative literals
                return E.IntLit(-operand.value, pos=(tok.line, tok.col))
            return E.Unary("neg", operand, pos=(tok.line, tok.col))
        return self.parse_postfix(cond_ctx, locals_)

    def parse_postfix(self, cond_ctx, locals_):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return E.IntLit(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "SYM":
            self.next()
            return E.SymLit(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "OP" and tok.value == "(":
            self.next()
            inner = self.parse_expr(cond_ctx, locals_)
            self.expect_op(")")
            return inner
        if tok.kind != "IDENT":
            self.fail(tok, "expected an expression, found %s" % tok.shown())
        if tok.value in ("true", "false"):
            self.next()
            return E.BoolLit(tok.value == "true", pos=(tok.line, tok.col))
        if tok.value in ("forall", "exists"):
            return self.parse_quant(cond_ctx, locals_)
        if tok.value in ("len", "count"):
            return self.parse_observer(cond_ctx, locals_)
        self.next()
        pos = (tok.line, tok.col)
        if self.peek().kind == "OP" and self.peek().value == "[":
            self.next()
            idx = self.parse_expr(cond_ctx, locals_)
            self.expect_op("]")
            self.check_var(tok, locals_)
            if (not cond_ctx and self.decl_types.get(tok.value) == "stream"):
                self.error(tok, "stream indexing is only allowed in conditions")
            return E.Index(tok.value, idx, pos=pos)
        if cond_ctx and tok.value in self.conds:  # include an earlier condition
            self.depth -= self.nest(tok, E.nesting(self.conds[tok.value].expr))
            return self.conds[tok.value].expr
        self.check_var(tok, locals_)
        return E.Var(tok.value, pos=pos)

    def parse_quant(self, cond_ctx, locals_):
        tok = self.next()
        if not cond_ctx:
            self.error(tok, "bounded quantifiers are only allowed in conditions")
        var = self.expect_ident("quantified variable")
        self.expect_keyword("in")
        bound = E.PREC["+"]
        lo = self.parse_expr(cond_ctx, locals_, bound)
        self.expect_op("..")
        hi = self.parse_expr(cond_ctx, locals_, bound)
        self.expect_op("(")
        body = self.parse_expr(cond_ctx, tuple(locals_) + (var.value,))
        self.expect_op(")")
        return E.Quant(tok.value, var.value, lo, hi, body, pos=(tok.line, tok.col))

    def parse_observer(self, cond_ctx, locals_):
        tok = self.next()
        if not cond_ctx:
            self.error(tok, "%s() is only allowed in conditions" % tok.value)
        self.expect_op("(")
        name = self.expect_ident("stream name")
        self.check_var(name, locals_)
        if tok.value == "len":
            self.expect_op(")")
            return E.Len(name.value, pos=(tok.line, tok.col))
        self.expect_op(",")
        value = self.parse_expr(cond_ctx, locals_)
        self.expect_op(")")
        return E.Count(name.value, value, pos=(tok.line, tok.col))

    # -- domain ----------------------------------------------------------------
    def parse_domain(self):
        self.next()
        self.expect_op("{")
        while not (self.peek().kind == "OP" and self.peek().value == "}"):
            name = self.expect_ident("variable name")
            is_array = False
            if self.peek().kind == "OP" and self.peek().value == "[":
                self.next()
                self.expect_op("]")
                is_array = True
            self.expect_keyword("in")
            entry = self.parse_domain_spec(is_array)
            self.expect_op(";")
            misfit = domain_misfit(name.value, entry, self.decls)
            if misfit:
                self.error(name, misfit)
            else:
                self.domain_entries[name.value] = entry
        self.expect_op("}")

    def parse_int(self):
        neg = False
        if self.peek().kind == "OP" and self.peek().value == "-":
            self.next()
            neg = True
        tok = self.next()
        if tok.kind != "INT":
            self.fail(tok, "expected an integer, found %s" % tok.shown())
        return -tok.value if neg else tok.value

    def parse_range(self):
        tok = self.peek()
        lo = self.parse_int()
        self.expect_op("..")
        hi = self.parse_int()
        if hi < lo:
            self.fail(tok, "empty range %d..%d" % (lo, hi))
        return lo, hi

    def parse_domain_spec(self, is_array):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("bool", "stream"):
            self.next()
            if is_array:
                self.fail(tok, "a %s domain entry takes no '[]'" % tok.value)
            if tok.value == "bool":
                return ("bool",)
            self.expect_op("(")
            at = self.peek()
            lengths = self.parse_range()
            if lengths[0] < 0:
                self.fail(at, "negative stream length %d" % lengths[0])
            self.expect_op(",")
            vlo, vhi = self.parse_range()
            self.expect_op(")")
            return ("stream", lengths, tuple(range(vlo, vhi + 1)))
        if tok.kind == "OP" and tok.value == "{":
            self.next()
            values = [self.parse_int()]
            while self.peek().kind == "OP" and self.peek().value == ",":
                self.next()
                values.append(self.parse_int())
            self.expect_op("}")
        else:
            lo, hi = self.parse_range()
            values = list(range(lo, hi + 1))
        return ("array" if is_array else "int", tuple(values))

    # -- assembly ----------------------------------------------------------------
    def finish(self, name):
        if self.start is None:
            self.diags.append(Diagnostic("error", self.filename,
                                         "missing start declaration"))
        if self.halt is None:
            self.diags.append(Diagnostic("error", self.filename,
                                         "missing halt declaration"))
        matrix = CodeMatrix(name, tuple(self.mentioned), self.start, self.halt,
                            dict(self.cells), tuple(self.decls))
        already = {d.message for d in self.diags}
        self.diags.extend(d for d in validate(matrix) if d.message not in already)
        vector = None
        if self.conds:
            for k in matrix.states:
                if k not in self.conds:
                    self.diags.append(Diagnostic(
                        "error", self.filename,
                        "condition vector is missing control state %r" % k))
            vector = dict(self.conds)
        domain = DomainSpec(self.domain_entries) if self.domain_entries else None
        if self.diags:
            raise ParseFailure(self.diags)
        return ParsedFile(matrix, vector, domain)


def parse(text, filename="<string>"):
    """Parse .mxc source.  Raises ParseFailure carrying located diagnostics."""
    return _Parser(text, filename).parse_file()


def parse_domain_entry(text, is_array):
    """One domain entry written as in a domain block: lo..hi, {v,...},
    bool or stream(lo..hi, vlo..vhi).  Raises ParseFailure."""
    parser = _Parser(text, "<domain>")
    entry = parser.parse_domain_spec(is_array)
    if parser.peek().kind != "EOF":
        parser.fail(parser.peek(), "trailing input after the domain entry")
    return entry


def parse_path(path):
    """Parse a UTF-8 .mxc file.  Raises ParseFailure, or OSError naming the
    path when the file cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError("cannot read %s: %s" % (path, exc)) from exc
    return parse(text, filename=str(path))


# ---------------------------------------------------------------------------
# rendering

def _render_domain_entry(name, entry):
    kind = entry[0]
    if kind == "bool":
        return "%s in bool;" % name
    if kind == "stream":
        (lo, hi), values = entry[1], entry[2]
        return "%s in stream(%d..%d, %d..%d);" % (name, lo, hi, values[0], values[-1])
    values = entry[1]
    suffix = "[]" if kind == "array" else ""
    contiguous = list(values) == list(range(values[0], values[-1] + 1))
    if contiguous and len(values) > 1:
        return "%s%s in %d..%d;" % (name, suffix, values[0], values[-1])
    return "%s%s in {%s};" % (name, suffix, ",".join(str(v) for v in values))


def render_source(parsed):
    """Canonical re-serialization; parse(render_source(p)) == p structurally."""
    m = parsed.matrix
    lines = ["dsm %s {" % m.name]
    for d in m.decls:
        if d.type == "array":
            typ = "int[%s]" % E.render_expr(d.length)
        else:
            typ = d.type
        lines.append("  %s %s: %s;" % (d.kind, d.name, typ))
    lines.append("")
    lines.append("  start %s;" % m.start)
    lines.append("  halt %s;" % m.halt)
    if parsed.vector:
        lines.append("")
        for k in m.states:
            cond = parsed.vector.get(k)
            if cond is not None:
                lines.append('  cond %s: "%s" is %s;'
                             % (k, cond.label, E.render_expr(cond.expr)))
    if m.cells:
        lines.append("")
        for (frm, to), rules in m.cells.items():
            body = " | ".join(R.render_relation(rule) for rule in rules)
            lines.append("  from %s to %s: %s;" % (frm, to, body))
    if parsed.domain:
        lines.append("")
        lines.append("  domain {")
        for name, entry in parsed.domain.entries.items():
            lines.append("    " + _render_domain_entry(name, entry))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tabular(m, vector=None):
    """Matrix layout table: columns are from-states (start rightmost, halt
    omitted), rows are to-states (halt first, start row omitted).  Row labels
    sit at the right edge and carry condition labels when a vector is given.
    """
    columns = sorted((k for k in m.states if k not in (m.start, m.halt)),
                     reverse=True)
    columns.append(m.start)
    rows = [m.halt] + sorted(k for k in m.states if k not in (m.start, m.halt))

    def cell_text(frm, to):
        rules = m.cells.get((frm, to))
        if not rules:
            return ""
        return " | ".join(R.render_relation(rule) for rule in rules)

    grid = [[cell_text(frm, to) for frm in columns] for to in rows]
    widths = []
    for c, frm in enumerate(columns):
        w = max([len(frm)] + [len(grid[r][c]) for r in range(len(rows))])
        widths.append(w)

    def label(state):
        if vector and state in vector:
            return "%s: %s" % (state, vector[state].label)
        return state

    lines = []
    header = " | ".join(frm.ljust(w) for frm, w in zip(columns, widths))
    lines.append(header + " ||")
    lines.append("-+-".join("-" * w for w in widths) + "-++-")
    for r, to in enumerate(rows):
        body = " | ".join(grid[r][c].ljust(widths[c]) for c in range(len(columns)))
        lines.append(body + " || " + label(to))
    return "\n".join(line.rstrip() for line in lines) + "\n"
