"""Corpus files: definitions plus check directives, and the text of a directive.

Grammar (comments run from '#' to end of line):

    file  := item*
    item  := def | check
    def   := ("poly" | "unipoly") NAME "=" expr
           | "derivation" NAME "{" x -> expr ";" y -> expr ";" z -> expr "}"
           | "automorphism" NAME "{" triple "}"
           | "automorphism" NAME "=" compose "(" NAME "," NAME ")"
           | "planeaut" NAME "{" y -> expr ";" z -> expr "}"
           | "divisor" NAME "=" expr                      # in (y, z)
           | "context" NAME "{" P = expr ";" d = expr ";" deg_max = INT "}"
           | "law" NAME "{" mu = ints; rho1 = ints; rho2 = ints
                            [; nu = ints]; a' = expr "}"
    check := "check" NAME "(" [arg ("," arg)*] ")"
    arg   := [NAME "="] value
    value := "[" ... "]" | "n" "(" expr "," expr ")"
           | "gelem" "(" rat,* ";" expr ";" expr ")" | INT | expr | NAME

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
from typing import NamedTuple

from .arith import ALLOWANCE, XYZ, YZ, ZVAR, Poly, WorkBudgetExceeded
from .automorphisms import Automorphism
from .derivations import Derivation
from .errors import ParseError
from .quotient_geometry import PlaneAut, plane_divisor
from .syntax import ExprParser, Token, Var, eval_expr, expr_to_str, token_int, tokenize

# Term pairs the products of one polynomial body may spend while a corpus is
# parsed, about 1 s of dense products on a 2-CPU x86 machine (Python 3.11).
# The largest honest body measured spends 25; (x + y + z + 1)^30, 701,696.
PARSE_WORK_BUDGET = 1_000_000

# Identifiers usable bare inside polynomial arguments, and inside list items.
_POLY_VARS, _LIST_VARS = {"x", "y", "z", "P"}, {"x", "y", "z"}
_KEYWORDS = {"torus"}
# Value-literal heads, structural words and the variables x, y, z and P,
# which an expression always reads as variables; not definable as names.
_RESERVED = {"n", "gelem", "compose", "check", "poly", "unipoly", "derivation",
             "automorphism", "planeaut", "divisor", "context", "law", "x", "y", "z", "P"}


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


class Compose(NamedTuple):
    """The value of `automorphism NAME = compose(left, right)`."""

    left: NameRef
    right: NameRef


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

    def parse_int(self, what: str = "an integer") -> int:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            raise self.error(f"expected {what}")
        self.advance()
        return sign * token_int(tok)

    def parse_int_list(self) -> tuple[int, ...]:
        self.expect_sym("[")
        items = []
        if not self.at_sym("]"):
            items.append(self.parse_int())
            while self.at_sym(","):
                self.advance()
                items.append(self.parse_int())
        self.expect_sym("]")
        return tuple(items)

    # file structure ---------------------------------------------------------

    def parse_file(self) -> CorpusCase:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.error("expected a definition or a check directive")
            handler = {
                "poly": self._def_poly,
                "unipoly": self._def_unipoly,
                "derivation": self._def_derivation,
                "automorphism": self._def_automorphism,
                "planeaut": self._def_planeaut,
                "divisor": self._def_divisor,
                "context": self._def_context,
                "law": self._def_law,
                "check": self._check,
            }.get(tok.text)
            if handler is None:
                raise ParseError(
                    f"unknown item {tok.text!r} (expected a definition or 'check')",
                    tok.line,
                    tok.col,
                )
            self.advance()
            handler()
        return self.case

    def _add(self, kind: str, name_tok: Token, value) -> None:
        self.case.definitions.append(
            Definition(kind, name_tok.text, value, name_tok.line, name_tok.col)
        )
        self.case.kinds[name_tok.text] = kind

    def _def_poly(self) -> None:
        name = self.fresh_name()
        self.expect_sym("=")
        self._add("poly", name, self.parse_expr_in(XYZ))

    def _def_unipoly(self) -> None:
        name = self.fresh_name()
        self.expect_sym("=")
        self._add("unipoly", name, self.parse_expr_in(ZVAR))

    def _triple(self, coords: tuple[str, ...], ring: tuple[str, ...]) -> list[Poly]:
        self.expect_sym("{")
        images = []
        for i, coord in enumerate(coords):
            self.expect_keyword(coord)
            self.expect_sym("->")
            images.append(self.parse_expr_in(ring))
            if i < len(coords) - 1:
                self.expect_sym(";")
        if self.at_sym(";"):
            self.advance()
        self.expect_sym("}")
        return images

    def _def_derivation(self) -> None:
        name = self.fresh_name()
        images = self._triple(XYZ, XYZ)
        self._add("derivation", name, Derivation(*images))

    def _def_automorphism(self) -> None:
        name = self.fresh_name()
        if self.at_sym("="):
            self.advance()
            self.expect_keyword("compose")
            self.expect_sym("(")
            left = self._defined_name("automorphism")
            self.expect_sym(",")
            right = self._defined_name("automorphism")
            self.expect_sym(")")
            self._add("automorphism", name, Compose(left, right))
            return
        images = self._triple(XYZ, XYZ)
        self._add("automorphism", name, Automorphism(*images))

    def _defined_name(self, expected_kind: str) -> NameRef:
        tok = self.expect_ident(f"a defined {expected_kind} name")
        if tok.text not in self.case.kinds:
            raise ParseError(f"undefined name {tok.text!r}", tok.line, tok.col)
        return NameRef(tok.text, tok.line, tok.col)

    def _def_planeaut(self) -> None:
        name = self.fresh_name()
        images = self._triple(("y", "z"), YZ)
        self._add("planeaut", name, PlaneAut(*images))

    def _def_divisor(self) -> None:
        name = self.fresh_name()
        self.expect_sym("=")
        poly = self.parse_expr_in(YZ)
        if poly.is_zero():
            raise self.error("divisor polynomial must be nonzero")
        self._add("divisor", name, plane_divisor(poly))

    def _def_context(self) -> None:
        name = self.fresh_name()
        self.expect_sym("{")
        fields: dict[str, object] = {}
        while not self.at_sym("}"):
            key = self.expect_ident("a context field (P, d, deg_max)")
            self.expect_sym("=")
            if key.text == "P":
                fields["P"] = self.parse_expr_in(XYZ)
            elif key.text == "d":
                fields["d"] = self.parse_expr_in(ZVAR)
            elif key.text == "deg_max":
                fields["deg_max"] = self.parse_int()
            else:
                raise ParseError(f"unknown context field {key.text!r}", key.line, key.col)
            if self.at_sym(";"):
                self.advance()
        self.expect_sym("}")
        if "P" not in fields:
            raise self.error("context needs a P field")
        spec = ContextSpec(
            fields["P"],
            fields.get("d", Poly.one(ZVAR)),
            fields.get("deg_max", 3),
        )
        self._add("context", name, spec)

    def _def_law(self) -> None:
        name = self.fresh_name()
        self.expect_sym("{")
        vectors: dict[str, tuple[int, ...]] = {}
        a_prime: Poly | None = None
        while not self.at_sym("}"):
            key = self.expect_ident("a law field (mu, rho1, rho2, nu, a')")
            self.expect_sym("=")
            if key.text in ("mu", "rho1", "rho2", "nu"):
                vectors[key.text] = self.parse_int_list()
            elif key.text == "a'":
                a_prime = self.parse_expr_in(ZVAR)
            else:
                raise ParseError(f"unknown law field {key.text!r}", key.line, key.col)
            if self.at_sym(";"):
                self.advance()
        self.expect_sym("}")
        missing = [k for k in ("mu", "rho1", "rho2") if k not in vectors]
        if missing or a_prime is None:
            raise self.error(
                "law needs mu, rho1, rho2 and a' fields"
            )
        ranks = {len(v) for v in vectors.values()}
        if len(ranks) != 1:
            raise self.error("law character vectors have mixed ranks")
        spec = LawSpec(
            vectors["mu"], vectors["rho1"], vectors["rho2"], vectors.get("nu"), a_prime
        )
        self._add("law", name, spec)

    # directives -------------------------------------------------------------

    def _check(self) -> None:
        name_tok = self.expect_ident("a directive name")
        self.expect_sym("(")
        args: list[Arg] = []
        if not self.at_sym(")"):
            args.append(self._arg(args))
            while self.at_sym(","):
                self.advance()
                args.append(self._arg(args))
        self.expect_sym(")")
        self.case.directives.append(
            Directive(name_tok.text, tuple(args), name_tok.line, name_tok.col)
        )

    def _arg(self, before: list[Arg]) -> Arg:
        key = None
        tok = self.peek()
        if (
            tok.kind == "ident"
            and self.tokens[self.pos + 1].kind == "sym"
            and self.tokens[self.pos + 1].text == "="
        ):
            if any(arg.key == tok.text for arg in before):
                raise self.error(f"keyword argument {tok.text!r} repeated")
            key = tok.text
            self.advance()
            self.advance()
        return Arg(key, self._value(), tok.line, tok.col)

    def _value(self):
        tok = self.peek()
        if self.at_sym("["):
            self.advance()
            items = []
            if not self.at_sym("]"):
                items.append(self._expr_value(_LIST_VARS))
                while self.at_sym(","):
                    self.advance()
                    items.append(self._expr_value(_LIST_VARS))
            self.expect_sym("]")
            return ListValue(tuple(items))
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
            self.expect_sym("(")
            coords = [self._rational()]
            while self.at_sym(","):
                self.advance()
                coords.append(self._rational())
            self.expect_sym(";")
            h = self._expr_value()
            self.expect_sym(";")
            f = self._expr_value()
            self.expect_sym(")")
            return GElemValue(tuple(coords), h, f)
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

    def _rational(self) -> Fraction:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            raise self.error("expected a rational number")
        self.advance()
        numerator = token_int(tok)
        if self.at_sym("/"):
            self.advance()
            den_tok = self.peek()
            denominator = token_int(den_tok) if den_tok.kind == "num" else 0
            if denominator == 0:
                raise self.error("expected a nonzero integer denominator")
            self.advance()
            return Fraction(sign * numerator, denominator)
        return Fraction(sign * numerator)


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

