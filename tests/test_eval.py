"""One-pass expression evaluation against the Poly-fold oracle, and the
parse-time work budget."""

import random
import time
from pathlib import Path

import pytest

from lnd import corpus
from lnd.arith import ALLOWANCE, XYZ, YZ, ZP, ZVAR, Poly, WorkBudgetExceeded, _charge, _mul_terms
from lnd.errors import ParseError
from lnd.syntax import MAX_PARSED_POWER, ExprParser, Neg, Num, Pow, Product, Sum, Var
from lnd.syntax import _fold, eval_expr, parse_poly, tokenize

GOLDEN = Path(__file__).resolve().parent / "golden"


def poly_fold(node, vars):
    """The reference evaluator: one Poly per AST node, folded with Poly
    arithmetic."""
    if isinstance(node, Num):
        return Poly.const(vars, node.value)
    if isinstance(node, Var):
        if node.name not in vars:
            raise ParseError(
                f"unknown variable {node.name!r} (ring has {', '.join(vars)})",
                node.line,
                node.col,
            )
        return Poly.variable(vars, node.name)
    if isinstance(node, Neg):
        return -poly_fold(node.operand, vars)
    if isinstance(node, Sum):
        total = poly_fold(node.operands[0], vars)
        for sign, operand in zip(node.signs, node.operands[1:]):
            value = poly_fold(operand, vars)
            total = total + value if sign == "+" else total - value
        return total
    if isinstance(node, Product):
        product = poly_fold(node.operands[0], vars)
        for operand in node.operands[1:]:
            product = product * poly_fold(operand, vars)
        return product
    if isinstance(node, Pow):
        base = poly_fold(node.base, vars)
        unit_monomial = len(base.terms) == 1 and abs(base.leading_coeff()) == 1
        if node.exponent > MAX_PARSED_POWER and not unit_monomial:
            raise ParseError(
                f"exponent {node.exponent} too large for a base other than"
                " a monomial with coefficient 1 or -1",
                node.line,
                node.col,
            )
        return base**node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _tree(text):
    return ExprParser(tokenize(text)).parse_expr()


def _outcome(evaluate, node, vars):
    """The Poly, or the ParseError as (message, line, col)."""
    try:
        return evaluate(node, vars)
    except ParseError as err:
        return (err.message, err.line, err.col)


def _random_text(rng, names, depth):
    """Random expression text over `names` (plus an unknown 'w' now and then)
    with rationals, negation, nested powers, powers around MAX_PARSED_POWER
    of leaves and short sums, and differences of equal subexpressions."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            list(names) * 3 + ["0", "1", "7", "3/4", "-2/6", "w" if rng.random() < 0.1 else "1"]
        )
    kind = rng.randrange(6)

    def sub():
        return _random_text(rng, names, depth - 1)

    if kind == 0:
        return " + ".join(sub() for _ in range(rng.randint(2, 4)))
    if kind == 1:
        return "*".join(f"({sub()})" for _ in range(rng.randint(2, 3)))
    if kind == 2:
        return f"-({sub()})"
    if kind == 3:
        return f"({sub()})^{rng.randint(0, 3)}"
    if kind == 4:
        same = sub()
        return f"({same}) - ({same}) + {sub()}"
    name = rng.choice(names)
    base, exponents = rng.choice([
        (name, (999, 1000, 5000)),
        (f"-{name}", (999, 1000, 5000)),
        (f"-3/3*{name}", (999, 1000, 5000)),
        ("7", (999, 1000)),
        ("0", (999, 1000)),
        (f"{name} - {name}", (999, 1000)),
        (f"{name} + 1", (1000, 5000)),
    ])
    return f"({base})^{rng.choice(exponents)}"


RINGS = {"XYZ": XYZ, "YZ": YZ, "ZP": ZP, "ZVAR": ZVAR, "none": ()}

HAND_CASES = [
    "0^0",
    "(x - x)^0",
    "x^5000",
    "(-x)^1001",
    "(1/2*2*x)^5000",
    "(-3/3*x)^1001*x",
    "(x - x + 1)^5000",
    "((x^2)^3)^2 - x^12",
    "(2*x)^1000",
    "(x + 1)^1000",
    "0^1000",
    "7^1000",
    "(x + w)^1000",
    "(x + 1)^1000 + w",
    "w*(x + 1)^1000",
    "1/2*x - 3/4*x + 1/4*x",
    "-(2/3*x - 1/5)*(x + 5/7)^3",
    "(z - 1/2)*(z + 1/2) - z^2 + 1/4",
]


@pytest.mark.parametrize("ring", RINGS, ids=list(RINGS))
def test_eval_expr_matches_the_poly_fold(ring):
    vars = RINGS[ring]
    names = vars or ("x",)
    rng = random.Random(f"eval-{ring}")
    texts = [text.replace("x", names[0]).replace("z", names[-1]) for text in HAND_CASES]
    texts += [_random_text(rng, names, rng.randint(1, 4)) for _ in range(300)]
    kinds = set()
    for text in texts:
        node = _tree(text)
        expected = _outcome(poly_fold, node, vars)
        got = _outcome(eval_expr, node, vars)
        assert got == expected, text
        if isinstance(got, Poly):  # the same term order, too
            assert list(got.terms) == list(expected.terms), text
        kinds.add(type(expected).__name__ if isinstance(expected, Poly) else expected[0].split()[0])
    assert kinds == {"Poly", "unknown", "exponent"}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0^0", "1"),
        ("x^5000", "x^5000"),
        ("(-x)^1001", "-x^1001"),
        ("(1/2*2*x)^5000", "x^5000"),
        ("(x + y)*(x - y) - x^2 + y^2", "0"),
        ("2/4*x + 1/3", "1/2*x + 1/3"),
    ],
)
def test_eval_expr_fixed_values(text, expected):
    assert str(eval_expr(_tree(text), XYZ)) == expected


def test_over_limit_powers_keep_their_positions():
    for text, col in [("x + (x + 1)^1000", 12), ("(2*x)^1000", 6), ("0^1000*w", 2)]:
        with pytest.raises(ParseError) as err:
            eval_expr(_tree(text), XYZ)
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.message.startswith("exponent 1000 too large")


def test_directive_literals_make_no_poly_arithmetic(monkeypatch):
    """Every n(h, f) literal of a generated irreducibility corpus evaluates
    without one Poly product, sum or difference, to the oracle's value."""
    case = corpus.parse((GOLDEN / "irreducibility_1.corpus").read_text())
    nodes = [
        node
        for directive in case.directives
        for arg in directive.args
        if isinstance(arg.value, corpus.NElemValue)
        for node in (arg.value.h.ast, arg.value.f.ast)
    ]
    expected = [poly_fold(node, ZP) for node in nodes]
    calls = {"__mul__": 0, "__add__": 0, "__sub__": 0}
    for name in calls:
        method = getattr(Poly, name)

        def counting(a, b, name=name, method=method):
            calls[name] += 1
            return method(a, b)

        monkeypatch.setattr(Poly, name, counting)
    assert [eval_expr(node, ZP) for node in nodes] == expected
    assert len(nodes) == 240
    assert calls == {"__mul__": 0, "__add__": 0, "__sub__": 0}


def test_eval_expr_charges_its_products():
    expected = parse_poly("x^2*z + x^2 - y^2*z - y^2", XYZ)
    allowance = [100]
    token = ALLOWANCE.set(allowance)
    try:
        # (x + y)*(x - y) is 4 pairs and leaves 2 terms; times (z + 1), 4 more.
        assert eval_expr(_tree("(x + y)*(x - y)*(z + 1)"), XYZ) == expected
    finally:
        ALLOWANCE.reset(token)
    assert allowance == [92]


def _fold_by_products(node, vars):
    """(den, numerators) of a Product that multiplies in every operand in
    turn, each product first charging its len(acc) * len(terms) term pairs."""
    den, acc = _fold(node.operands[0], vars)
    for operand in node.operands[1:]:
        d, terms = _fold(operand, vars)
        _charge(len(acc) * len(terms))
        den, acc = den * d, _mul_terms(*((acc, terms) if len(acc) <= len(terms) else (terms, acc)))
    return den, acc


def _spend(fold, node, budget):
    """The fold's result and the term pairs it spent, "tripped", or the
    ParseError's message."""
    allowance = [budget]
    token = ALLOWANCE.set(allowance)
    try:
        return fold(node, XYZ), budget - allowance[0]
    except WorkBudgetExceeded:
        return "tripped"
    except ParseError as err:
        return err.message
    finally:
        ALLOWANCE.reset(token)


def test_product_fold_charges_as_its_pairwise_products():
    # A product's leading numbers, variables and powers of variables fold
    # into one term; the charges, the budgets that trip and the unknown
    # variable 'w' stay those of multiplying every operand in turn.
    atoms = ["0", "1", "7", "3/4", "x", "y", "z", "x^2", "y^5000", "z^3"]
    others = ["(x + 1)", "-y", "(y - z)^2", "7^2", "-(x + 2*y)", "(x*y + 1)", "(x + y)^0"]
    rng = random.Random("product-charges")
    texts = ["0*x", "x^5000*y", "x^5000*(x + y)*z", "2*x*-z*(y + 1)", "(x + 1)*3*y", "x*y*w"]
    texts += ["*".join(rng.choice(atoms * 2 + others + ["w^2"]) for _ in range(rng.randint(2, 6)))
              for _ in range(200)]
    for text in texts:
        node = _tree(text)
        assert isinstance(node, Product), text
        outcome = _spend(_fold, node, 10**6)
        assert outcome == _spend(_fold_by_products, node, 10**6), text
        spent = outcome[1] if isinstance(outcome, tuple) else len(node.operands)
        for budget in range(spent + 2):
            outcome = _spend(_fold, node, budget)
            assert outcome == _spend(_fold_by_products, node, budget), text
            assert outcome != "tripped" or budget < spent, text


def test_parse_time_budget_trips_as_a_positioned_parse_error():
    text = "derivation H { x -> (x + y + z + 1)^400; y -> 0; z -> 0 }\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        corpus.parse(text)
    # About 1 s: the squarings up to (x + y + z + 1)^32 spend 967,527 of the
    # budget's term pairs, and the next product would overdraw it.
    assert time.perf_counter() - start < 6.0
    assert (err.value.line, err.value.col) == (1, 21)
    assert err.value.message == (
        f"expression exceeds the parse-time budget of {corpus.PARSE_WORK_BUDGET} term pairs"
    )
    assert ALLOWANCE.get() is None


def test_parse_time_budget_admits_an_honest_power():
    # The squarings and products of (x + y + z + 1)^30 spend 701,696 term
    # pairs.
    (definition,) = corpus.parse("poly Q = (x + y + z + 1)^30\n").definitions
    assert len(definition.value.terms) == 5456


@pytest.mark.parametrize("k", [2, 8, 999])
def test_one_term_power_charged_to_the_parse_budget(k):
    # (7^999)^999 would be a 2.8-million-bit integer: its charge, the square of
    # the result's 64-bit limb count, overdraws the budget before it is built.
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        corpus.parse(f"poly Q = ((7^999)^999)^{k}\n")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.col) == (1, 10)
    assert "parse-time budget" in err.value.message


# A product of two factors charges 1 term pair; 2^100 and 3^100 are at most
# 4 limbs, 7^999 at most 47.
@pytest.mark.parametrize(
    "text, charge",
    [
        ("x^5000", 0),
        ("(-x)^1001", 0),
        ("(3*x)^4", 1 + 1),
        ("(2/3*y)^100", 1 + 4**2 + 4**2),
        ("7^999", 47**2),
    ],
)
def test_one_term_power_charge(text, charge):
    allowance = [10**9]
    token = ALLOWANCE.set(allowance)
    try:
        got = eval_expr(_tree(text), XYZ)
    finally:
        ALLOWANCE.reset(token)
    assert got == poly_fold(_tree(text), XYZ)
    assert allowance == [10**9 - charge]

