"""Tokenizer and expression grammar shared by the library and the CLI.

Polynomial expressions:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | primary ('^' NAT)*
    primary:= NAT ('/' NAT)? | IDENT | '(' expr ')'

Integer and rational literals (`-3`, `5/7`), explicit `*`, `^` with a
non-negative integer exponent.  `#` starts a comment running to end of line.
Sums and products may be of any length; parentheses, unary minus and '^'
nest at most MAX_NESTING deep.  Every diagnostic carries a (line, column)
position, 1-based.

`eval_expr` folds a tree in one pass into one {monomial: int} numerator map
over a shared denominator, as a Poly stores its terms; only the power of a
multi-term base runs Poly arithmetic.  Its products charge their term pairs
to an armed `arith.ALLOWANCE`, and a power b^e first the squared 64-bit
limb counts of (b's numerator 1-norm)^e and den^e; the corpus parser arms
`corpus.PARSE_WORK_BUDGET` for each polynomial body, the runner for the
expression arguments of each directive value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .arith import ALLOWANCE, Monomial, Poly, _add_terms, _charge, _form, _mul_terms
from .errors import ParseError

# Exponent guard against bombs like (x + y)^3000 or 7^99999999999 in
# untrusted text; only a monomial with coefficient 1 or -1 may exceed it,
# since its power costs nothing.
MAX_PARSED_POWER = 999

# Nesting bound on '(', unary '-' and '^' that keeps parsing, evaluating and
# printing far inside the interpreter's recursion limit.
MAX_NESTING = 100

# One line's token classes, tried in order at each position; spaces, tabs
# and carriage returns match nothing and are skipped.  A name starts with a
# word character other than a decimal digit and may end in primes (a'); a
# literal is a run of decimal digits, so a superscript such as '\u00b2' is
# part of a name, never a number.
_TOKEN_RE = re.compile(
    r"(?P<ident>[^\W\d]\w*'*)|(?P<num>\d+)|(?P<sym>->|[-{}()\[\],;=+*/^])"
    r"|(?P<comment>#.*)|(?P<bad>[^ \t\r])"
)


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for line, source in enumerate(text.split("\n"), 1):
        end = len(source) + 1
        for match in _TOKEN_RE.finditer(source):
            kind, col = match.lastgroup, match.start() + 1
            if kind == "comment":
                end = col
                break
            if kind == "bad":
                raise ParseError(f"unexpected character {match.group()!r}", line, col)
            tokens.append(tuple.__new__(Token, (kind, match.group(), line, col)))
    tokens.append(tuple.__new__(Token, ("eof", "", line, end)))
    return tokens


def token_int(tok: Token) -> int:
    """The value of a "num" token.  A literal longer than the interpreter
    converts (`sys.get_int_max_str_digits`) is a positioned ParseError."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            f"integer literal too long ({len(tok.text)} digits)", tok.line, tok.col
        ) from None


# -- expression AST ----------------------------------------------------------


class Num(NamedTuple):
    value: Fraction


class Var(NamedTuple):
    name: str
    line: int
    col: int


class Sum(NamedTuple):
    operands: tuple[object, ...]
    signs: tuple[str, ...]  # '+' or '-' before each of operands[1:]


class Product(NamedTuple):
    operands: tuple[object, ...]


class Neg(NamedTuple):
    operand: object


class Pow(NamedTuple):
    base: object
    exponent: int
    line: int
    col: int


Expr = object


class ExprParser:
    """Recursive-descent parser over a token list; shared cursor style."""

    def __init__(self, tokens: list[Token], pos: int = 0):
        self.tokens = tokens
        self.pos = pos
        self.depth = 0  # enclosing '(', unary '-' and '^' tokens
        self.variables: list[Var] = []  # every Var read, in source order

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect_sym(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def at_sym(self, text: str) -> bool:
        # No ident, num or eof text equals a symbol.
        return self.tokens[self.pos].text == text

    def nest(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col
            )

    # grammar ---------------------------------------------------------------
    # A parenthesized sum leading a sum, and a parenthesized product inside a
    # product, are spliced into it (associativity), so they print unbracketed.

    def parse_expr(self) -> Expr:
        first = self.parse_term()
        operands, signs = [first], []
        if isinstance(first, Sum):
            operands, signs = list(first.operands), list(first.signs)
        while self.at_sym("+") or self.at_sym("-"):
            signs.append(self.advance().text)
            operands.append(self.parse_term())
        return Sum(tuple(operands), tuple(signs)) if signs else operands[0]

    def parse_term(self) -> Expr:
        operands = [self.parse_factor()]
        while self.at_sym("*"):
            self.advance()
            operands.append(self.parse_factor())
        if len(operands) == 1:
            return operands[0]
        flat = [f for op in operands for f in (op.operands if isinstance(op, Product) else (op,))]
        return Product(tuple(flat))

    def parse_factor(self) -> Expr:
        depth = self.depth
        if self.at_sym("-"):
            self.nest(self.advance())
            node = Neg(self.parse_factor())
        else:
            node = self.parse_primary()
            while self.at_sym("^"):
                caret = self.advance()
                self.nest(caret)
                tok = self.peek()
                if tok.kind != "num":
                    raise self.error("expected a non-negative integer exponent after '^'")
                self.advance()
                node = Pow(node, token_int(tok), caret.line, caret.col)
        self.depth = depth
        return node

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            numerator = token_int(tok)
            if self.at_sym("/"):
                self.advance()
                denom_tok = self.peek()
                if denom_tok.kind != "num":
                    raise self.error("expected an integer denominator after '/'")
                self.advance()
                denominator = token_int(denom_tok)
                if denominator == 0:
                    raise ParseError("zero denominator", denom_tok.line, denom_tok.col)
                return Num(Fraction(numerator, denominator))
            return Num(Fraction(numerator))
        if tok.kind == "ident":
            self.advance()
            self.variables.append(Var(tok.text, tok.line, tok.col))
            return self.variables[-1]
        if self.at_sym("("):
            self.nest(self.advance())
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        raise self.error(f"expected an expression, found {tok.text or 'end of input'!r}")


def literal(node: Expr) -> Fraction | None:
    """The value of a number literal, optionally negated; None for any other expression."""
    sign = 1
    while type(node) is Neg:
        node, sign = node.operand, -sign
    return sign * node.value if type(node) is Num else None


def eval_expr(node: Expr, vars: tuple[str, ...]) -> Poly:
    """Evaluate an expression AST into the given ring in one pass (module
    docstring); a power past MAX_PARSED_POWER is a positioned ParseError."""
    return _form(vars, *_fold(node, vars))


def _fold(node: Expr, vars: tuple[str, ...]) -> tuple[int, dict[Monomial, int]]:
    """(den, numerators) of node, no numerator zero, in a new map."""
    kind = type(node)
    if kind is Product or kind is Num or kind is Var:
        den, acc, rest = _fold_atoms(node.operands if kind is Product else (node,), vars)
        for operand in rest:
            d, terms = _fold(operand, vars)
            _charge(len(acc) * len(terms))
            a, b = (acc, terms) if len(acc) <= len(terms) else (terms, acc)
            den, acc = den * d, _mul_terms(a, b)
        return den, acc
    if kind is Pow:
        den, terms = _fold(node.base, vars)
        e = node.exponent
        if len(terms) == 1 and abs(c := next(iter(terms.values()))) == den:
            c, den = c // den, 1  # a unit monomial takes any exponent
        elif e > MAX_PARSED_POWER:
            raise ParseError(
                f"exponent {e} too large for a base other than"
                " a monomial with coefficient 1 or -1",
                node.line,
                node.col,
            )
        if ALLOWANCE.get() is not None:  # the 1-norm bounds every numerator of the power
            norm = c if len(terms) == 1 else sum(map(abs, terms.values()))
            _charge(_power_cost(norm, e) + _power_cost(den, e))
        if len(terms) != 1:
            power = _form(vars, den, terms) ** e
            return power.den, dict(power.terms)
        return den**e, {tuple([k * e for k in next(iter(terms))]): c**e}
    if kind is Sum:
        den, total = _fold(node.operands[0], vars)
        for sign, operand in zip(node.signs, node.operands[1:]):
            den, total = _add_terms(den, total, *_fold(operand, vars), 1 if sign == "+" else -1)
        return den, total
    if kind is Neg:
        den, terms = _fold(node.operand, vars)
        return den, {m: -c for m, c in terms.items()}
    raise TypeError(f"not an expression node: {node!r}")


def _fold_atoms(operands: tuple, vars: tuple[str, ...]) -> tuple[int, dict[Monomial, int], tuple]:
    """(den, numerators, rest) of the leading run of numbers, variables and powers
    of variables among a product's operands (or one atom) as one term, charged as
    its one-term products; with no such run, of the first operand; rest follow."""
    num, den, mono, k = 1, 1, [0] * len(vars), 0
    for atom in operands:
        kind, n, d = type(atom), 1, 1
        if kind is Num:
            n, d = atom.value.numerator, atom.value.denominator
        elif kind is Var or kind is Pow and type(atom.base) is Var:
            var = atom if kind is Var else atom.base
            if var.name not in vars:
                raise unknown_variable(var, vars)
            mono[vars.index(var.name)] += 1 if kind is Var else atom.exponent
        else:
            break
        if k and num and n:
            _charge(1)
        num, den, k = num * n, den * d, k + 1
    if not k:
        return (*_fold(operands[0], vars), operands[1:])
    return den, {tuple(mono): num} if num else {}, operands[k:]


def unknown_variable(var: Var, vars: tuple[str, ...]) -> ParseError:
    ring = f"ring has {', '.join(vars)}" if vars else "expected a constant"
    return ParseError(f"unknown variable {var.name!r} ({ring})", var.line, var.col)


def _power_cost(n: int, e: int) -> int:
    """Over-estimate of the cost of n**e in term pairs: the square of the
    result's 64-bit limb count, since |n|**e < 2**(e * bits(n)); a power
    of 0, 1 or -1 is free."""
    if -1 <= n <= 1:
        return 0
    return (e * abs(n).bit_length() // 64 + 1) ** 2


def expr_to_str(node: Expr) -> str:
    """Canonical text for an expression AST; parsing it gives the same tree.
    Parentheses appear only where the grammar needs them, and around a negated
    factor of a product, `(-7)*z`, while that stays within MAX_NESTING."""
    return _print(node, "", MAX_NESTING)[0]


# Slots where a node needs parentheses: "term" (of a sum), "factor" (of a
# product or negation) and "base" (of a power).
_GROUPED_IN = {Sum: ("term", "factor", "base"), Product: ("factor", "base"), Neg: ("base",)}


def _print(node: Expr, slot: str, room: int) -> tuple[str, int]:
    """Text of node in slot, and the nesting levels it opens; room are left."""
    if isinstance(node, (Num, Var)):
        return (str(node.value) if isinstance(node, Num) else node.name), 0
    if slot in _GROUPED_IN.get(type(node), ()):
        text, levels = _print(node, "", room - 1)
        return f"({text})", levels + 1
    if isinstance(node, Neg):
        text, levels = _print(node.operand, "factor", room - 1)
        return "-" + text, levels + 1
    if isinstance(node, Pow):  # x^2^3 is Pow(Pow(x, 2), 3)
        carets = []
        while isinstance(node, Pow):
            carets.insert(0, f"^{node.exponent}")
            node = node.base
        text, levels = _print(node, "base", room)
        return text + "".join(carets), max(levels, len(carets) + (type(node) in _GROUPED_IN))
    if not isinstance(node, (Sum, Product)):
        raise TypeError(f"not an expression node: {node!r}")
    texts, levels = [], 0
    for operand in node.operands:
        text, more = _print(operand, "term" if isinstance(node, Sum) else "factor", room)
        if isinstance(node, Product) and isinstance(operand, Neg) and more < room:
            text, more = f"({text})", more + 1
        texts.append(text)
        levels = max(levels, more)
    if isinstance(node, Product):
        return "*".join(texts), levels
    return texts[0] + "".join(f" {s} {t}" for s, t in zip(node.signs, texts[1:])), levels


def parse_poly(text: str, vars: tuple[str, ...]) -> Poly:
    """Parse a standalone polynomial in the given ring."""
    parser = ExprParser(tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return eval_expr(node, vars)
