"""Corpus files: definitions plus check directives, and the text of a directive.

Grammar (comments run from '#' to end of line):

    file  := item*
    item  := def | check
    def   := ("poly" | "unipoly") NAME "=" expr
           | "derivation" NAME "{" x -> expr ";" y -> expr ";" z -> expr "}"
           | "automorphism" NAME "{" triple "}"
           | "planeaut" NAME "{" y -> expr ";" z -> expr "}"
           | "divisor" NAME "=" expr                      # in (y, z)
           | "context" NAME "{" P = expr ";" d = expr ";" deg_max = INT "}"
           | "law" NAME "{" mu = ints; rho1 = ints; rho2 = ints
                            [; nu = ints]; a' = expr "}"
    check := "check" NAME "(" [arg ("," arg)*] ")"
    arg   := [NAME "="] value
    value := "[" ... "]" | "n" "(" expr "," expr ")"
           | "gelem" "(" rat ("," rat)* ";" expr ";" expr ")" | INT | expr | NAME
    ints  := "[" [INT ("," INT)*] "]"
    rat   := ["-"] NUM ["/" NUM]                      # literals, read by the
    INT   := ["-"] NUM                                # expression parser

Parsing is total: every failure is a positioned ParseError.  Names must be
defined before use and never redefined.  Polynomial bodies are evaluated at
parse time in the ring their definition kind dictates; heavyweight objects
(contexts, laws) are validated structurally here and constructed by the
runner, so that their mathematical failures surface as report entries.
Directive names, and what each directive accepts, are runner.bind's: it
checks a parsed corpus against the directive schema.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .arith import ALLOWANCE, XYZ, YZ, ZVAR, Poly, WorkBudgetExceeded
from .automorphisms import Automorphism
from .derivations import Derivation
from .errors import ParseError
from .quotient_geometry import PlaneAut, plane_divisor
from .syntax import ExprParser, Token, Var, eval_expr, expr_to_str, literal, tokenize

# Term pairs the products of one polynomial body may spend while a corpus is
# parsed, about 1 s of dense products on a 2-CPU x86 machine (Python 3.11).
# The largest honest body measured spends 25; (x + y + z + 1)^30, 701,696.
PARSE_WORK_BUDGET = 1_000_000

# Identifiers usable bare inside polynomial arguments, and inside list items.
_POLY_VARS, _LIST_VARS = {"x", "y", "z", "P"}, {"x", "y", "z"}
_KEYWORDS = {"torus"}
# Value-literal heads, structural words and the variables x, y, z and P,
# which an expression always reads as variables; not definable as names.
_RESERVED = {"n", "gelem", "check", "poly", "unipoly", "derivation",
             "automorphism", "planeaut", "divisor", "context", "law", "x", "y", "z", "P"}
# Definition kinds with a polynomial body: the ring of the body, its opener
# ("=" for one expression, "{" for an image of each variable of the ring)
# and the constructor of the defined value from the polynomials read.
_BODIES = {
    "poly": (XYZ, "=", lambda a: a),
    "unipoly": (ZVAR, "=", lambda a: a),
    "divisor": (YZ, "=", plane_divisor),
    "derivation": (XYZ, "{", Derivation),
    "automorphism": (XYZ, "{", Automorphism),
    "planeaut": (YZ, "{", PlaneAut),
}


class ContextSpec(NamedTuple):
    P: Poly
    d: Poly
    deg_max: int


class LawSpec(NamedTuple):
    mu: tuple[int, ...]
    rho1: tuple[int, ...]
    rho2: tuple[int, ...]
    nu: tuple[int, ...] | None
    a_prime: Poly


class Definition(NamedTuple):
    kind: str  # poly | unipoly | derivation | automorphism | planeaut | divisor | context | law
    name: str
    value: object
    line: int
    col: int


# -- directive argument values ---------------------------------------------


class NameRef(NamedTuple):
    name: str
    line: int
    col: int


class ExprValue(NamedTuple):
    ast: object
    line: int
    col: int
    variables: tuple[Var, ...]  # every Var of ast, in source order


class ListValue(NamedTuple):
    items: tuple[ExprValue, ...]


class NElemValue(NamedTuple):
    h: ExprValue
    f: ExprValue


class GElemValue(NamedTuple):
    torus: tuple[Fraction, ...]
    h: ExprValue
    f: ExprValue


class KeywordValue(NamedTuple):
    word: str


class Arg(NamedTuple):
    key: str | None
    value: object
    line: int  # of the key, or of the value when there is none
    col: int


class Directive(NamedTuple):
    name: str
    args: tuple[Arg, ...]
    line: int
    col: int


class CorpusCase:
    """Definitions and check directives in source order, and the kind of
    each defined name; the parser appends."""

    def __init__(self):
        self.definitions: list[Definition] = []
        self.directives: list[Directive] = []
        self.kinds: dict[str, str] = {}


class _CorpusParser(ExprParser):
    def __init__(self, tokens: list[Token]):
        super().__init__(tokens)
        self.case = CorpusCase()

    # helpers ---------------------------------------------------------------

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> None:
        tok = self.expect_ident(f"keyword {word!r}")
        if tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text!r}", tok.line, tok.col)

    def fresh_name(self) -> Token:
        tok = self.expect_ident("a name")
        if tok.text in self.case.kinds:
            raise ParseError(f"redefinition of {tok.text!r}", tok.line, tok.col)
        if tok.text in _KEYWORDS or tok.text in _RESERVED:
            raise ParseError(f"{tok.text!r} is reserved", tok.line, tok.col)
        return tok

    def parse_expr_in(self, vars: tuple[str, ...]) -> Poly:
        start, armed = self.peek(), ALLOWANCE.set([PARSE_WORK_BUDGET])
        try:
            return eval_expr(self.parse_expr(), vars)
        except WorkBudgetExceeded:
            message = f"expression exceeds the parse-time budget of {PARSE_WORK_BUDGET} term pairs"
            raise ParseError(message, start.line, start.col) from None
        finally:
            ALLOWANCE.reset(armed)

    def parse_number(self, integer: bool = False) -> Fraction:
        """A literal ["-"] NUM ["/" NUM], or ["-"] NUM when integer, read as an
        expression factor; a fault is placed at its token after the sign."""
        tok = self.tokens[self.pos + self.at_sym("-")]
        value = literal(self.parse_factor()) if tok.kind == "num" else None
        if value is None or integer and self.tokens[self.pos - 1] is not tok:
            what = "an integer" if integer else "a rational number"
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return value

    def parse_int(self) -> int:
        return int(self.parse_number(integer=True))

    def items(self, read: Callable[[], object], opener: str, closer: str, empty=True) -> tuple:
        """`opener read, read, ... closer`, with no item only when empty allows it."""
        self.expect_sym(opener)
        out = []
        if not (empty and self.at_sym(closer)):
            out.append(read())
            while self.at_sym(","):
                self.advance()
                out.append(read())
        self.expect_sym(closer)
        return tuple(out)

    # file structure ---------------------------------------------------------

    def parse_file(self) -> CorpusCase:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.error("expected a definition or a check directive")
            if tok.text not in _BODIES and tok.text not in ("context", "law", "check"):
                raise ParseError(
                    f"unknown item {tok.text!r} (expected a definition or 'check')",
                    tok.line,
                    tok.col,
                )
            self.advance()
            if tok.text == "check":
                self._check()
                continue
            name, kind = self.fresh_name(), tok.text
            read = {"context": self._context, "law": self._law}.get(kind)
            value = read() if read else self._body(kind)
            self.case.definitions.append(Definition(kind, name.text, value, name.line, name.col))
            self.case.kinds[name.text] = kind
        return self.case

    def _body(self, kind: str) -> object:
        """`= expr`, or `{ v -> expr; ... }` over the variables v of the ring."""
        ring, opener, build = _BODIES[kind]
        self.expect_sym(opener)
        if opener == "=":
            body = self.parse_expr_in(ring)
            if kind == "divisor" and body.is_zero():
                raise self.error("divisor polynomial must be nonzero")
            return build(body)
        bodies = []
        for i, var in enumerate(ring):
            self.expect_keyword(var)
            self.expect_sym("->")
            bodies.append(self.parse_expr_in(ring))
            if i < len(ring) - 1:
                self.expect_sym(";")
        if self.at_sym(";"):
            self.advance()
        self.expect_sym("}")
        return build(*bodies)

    def _fields(self, kind: str, readers: dict[str, Callable[[], object]]) -> dict[str, object]:
        """A `{ key = value; ... }` block, each value read by its key's reader."""
        self.expect_sym("{")
        fields: dict[str, object] = {}
        while not self.at_sym("}"):
            key = self.expect_ident(f"a {kind} field ({', '.join(readers)})")
            self.expect_sym("=")
            if key.text not in readers:
                raise ParseError(f"unknown {kind} field {key.text!r}", key.line, key.col)
            fields[key.text] = readers[key.text]()
            if self.at_sym(";"):
                self.advance()
        self.expect_sym("}")
        return fields

    def _context(self) -> ContextSpec:
        fields = self._fields("context", {
            "P": lambda: self.parse_expr_in(XYZ),
            "d": lambda: self.parse_expr_in(ZVAR),
            "deg_max": self.parse_int,
        })
        if "P" not in fields:
            raise self.error("context needs a P field")
        return ContextSpec(fields["P"], fields.get("d", Poly.one(ZVAR)), fields.get("deg_max", 3))

    def _law(self) -> LawSpec:
        ints = lambda: self.items(self.parse_int, "[", "]")  # noqa: E731
        fields = self._fields("law", {
            "mu": ints, "rho1": ints, "rho2": ints, "nu": ints,
            "a'": lambda: self.parse_expr_in(ZVAR),
        })
        if any(key not in fields for key in ("mu", "rho1", "rho2", "a'")):
            raise self.error("law needs mu, rho1, rho2 and a' fields")
        vectors = [fields[key] for key in ("mu", "rho1", "rho2", "nu") if key in fields]
        if len({len(v) for v in vectors}) != 1:
            raise self.error("law character vectors have mixed ranks")
        return LawSpec(fields["mu"], fields["rho1"], fields["rho2"], fields.get("nu"), fields["a'"])

    # directives -------------------------------------------------------------

    def _check(self) -> None:
        name_tok = self.expect_ident("a directive name")
        keys: set[str] = set()
        args = self.items(lambda: self._arg(keys), "(", ")")
        self.case.directives.append(Directive(name_tok.text, args, name_tok.line, name_tok.col))

    def _arg(self, keys: set[str]) -> Arg:
        """An argument; keys are those of the directive's earlier arguments."""
        tok, key = self.peek(), None
        if tok.kind == "ident" and self._next_is("="):
            if tok.text in keys:
                raise self.error(f"keyword argument {tok.text!r} repeated")
            key = tok.text
            keys.add(key)
            self.pos += 2
        return Arg(key, self._value(), tok.line, tok.col)

    def _value(self):
        tok = self.peek()
        if self.at_sym("["):
            return ListValue(self.items(lambda: self._expr_value(_LIST_VARS), "[", "]"))
        if tok.kind == "ident" and tok.text == "n" and self._next_is("("):
            self.advance()
            self.expect_sym("(")
            h = self._expr_value()
            self.expect_sym(",")
            f = self._expr_value()
            self.expect_sym(")")
            return NElemValue(h, f)
        if tok.kind == "ident" and tok.text == "gelem" and self._next_is("("):
            self.advance()
            coords = self.items(self.parse_number, "(", ";", empty=False)
            h = self._expr_value()
            self.expect_sym(";")
            f = self._expr_value()
            self.expect_sym(")")
            return GElemValue(coords, h, f)
        if tok.kind == "ident" and tok.text in _KEYWORDS and not self._next_is("("):
            self.advance()
            return KeywordValue(tok.text)
        if tok.kind == "ident" and tok.text in self.case.kinds and not self._next_is("("):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "sym" and nxt.text in ("+", "-", "*", "^", "/"):
                return self._expr_value()
            self.advance()
            return NameRef(tok.text, tok.line, tok.col)
        return self._expr_value()

    def _next_is(self, sym: str) -> bool:
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "sym" and nxt.text == sym

    def _expr_value(self, variables: set[str] = _POLY_VARS) -> ExprValue:
        tok, first = self.peek(), len(self.variables)
        node = self.parse_expr()
        found = tuple(self.variables[first:])
        # An expression reads only variables, and no variable is definable,
        # so a name means one thing everywhere.
        var = next((var for var in found if var.name not in variables), None)
        if var is not None:
            message = f"undefined name {var.name!r}"
            if var.name in self.case.kinds:
                message = f"{var.name!r} names a definition, not a variable"
            elif var.name in _POLY_VARS:
                message = f"unknown variable {var.name!r} in a list item (x, y, z)"
            raise ParseError(message, var.line, var.col)
        return ExprValue(node, tok.line, tok.col, found)


def parse(source: str) -> CorpusCase:
    """Parse a corpus file; raises ParseError with a (line, column) position."""
    parser = _CorpusParser(tokenize(source))
    return parser.parse_file()


# -- directive text -----------------------------------------------------------


def _value_text(value) -> str:
    if isinstance(value, NameRef):
        return value.name
    if isinstance(value, ExprValue):
        return expr_to_str(value.ast)
    if isinstance(value, ListValue):
        return "[" + ", ".join(_value_text(v) for v in value.items) + "]"
    if isinstance(value, NElemValue):
        return f"n({_value_text(value.h)}, {_value_text(value.f)})"
    if isinstance(value, GElemValue):
        coords = ", ".join(str(c) for c in value.torus)
        return f"gelem({coords}; {_value_text(value.h)}; {_value_text(value.f)})"
    if isinstance(value, KeywordValue):
        return value.word
    raise TypeError(f"unprintable value {value!r}")


def directive_text(d: Directive) -> str:
    args = ", ".join(
        f"{a.key} = {_value_text(a.value)}" if a.key else _value_text(a.value)
        for a in d.args
    )
    return f"{d.name}({args})"

