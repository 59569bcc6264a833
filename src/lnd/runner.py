"""Execute the directives of a parsed corpus and assemble a report.

Every directive yields PASS, FAIL or ERROR plus a one-line detail (FAIL
carries a counterexample witness, ERROR the offending condition); directive
failures never abort the run.  Output is byte-deterministic for a fixed
(file, seed, budget) triple: randomized directives draw from a generator
seeded by (seed, directive index).

A directive's schema is the signature of its `_run_<name>` handler after
(env, rng): how each parameter binds, its default, and as its annotation
what it accepts.  `bind` checks a parsed corpus against the schemas before
anything is built or evaluated, for `lnd parse` and `run` alike; a
directive that does not fit is an ERROR line while the others run.  A
directive's expression arguments are evaluated when it is dispatched.
"""

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import delta_family, groupmodel, quotient_geometry
from .arith import ALLOWANCE, XYZ, YZ, ZP, ZVAR, Poly, WorkBudgetExceeded
from .automorphisms import (
    Automorphism,
    commutes,
    compose,
    conjugation_formula_check,
    pullback,
)
from .corpus import (
    PARSE_WORK_BUDGET,
    ContextSpec,
    Compose,
    CorpusCase,
    Directive,
    ExprValue,
    GElemValue,
    KeywordValue,
    ListValue,
    NameRef,
    NElemValue,
    directive_text,
)
from .derivations import (
    Derivation,
    _exponential_with_orders,
    _log_series,
    compose_exp_word,
    exponential,
    logarithm,
    plinth_search,
    sat_instance_check,
    scale,
    standard_decomposition,
)
from .errors import LndError, ParseError
from .quotient_geometry import PlaneDivisor
from .syntax import eval_expr, unknown_variable

# Protective bounds for untrusted corpus input; honest errors, not crashes.
MAX_DEG_MAX = 12
MAX_SAMPLES = 10_000
MAX_Q_MAX = 16
MAX_K = 16


class Entry(NamedTuple):
    name: str
    verdict: str  # PASS | FAIL | ERROR
    detail: str
    extra: tuple[str, ...] = ()


class Report(NamedTuple):
    entries: tuple[Entry, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        p = sum(1 for e in self.entries if e.verdict == "PASS")
        f = sum(1 for e in self.entries if e.verdict == "FAIL")
        err = sum(1 for e in self.entries if e.verdict == "ERROR")
        return p, f, err

    @property
    def ok(self) -> bool:
        _, f, e = self.counts
        return f == 0 and e == 0


def format_report(report: Report, full: bool = False) -> str:
    lines = []
    for entry in report.entries:
        lines.append(f"{entry.verdict} {entry.name} — {entry.detail}")
        if full:
            lines.extend(f"  {line}" for line in entry.extra)
    p, f, e = report.counts
    lines.append(f"summary: {p}/{f}/{e}")
    return "\n".join(lines) + "\n"


class DirectiveError(LndError):
    """A directive argument that does not fit its parameter, placed at
    (line, col) by the bind step, or whose value is out of range."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message, self.line, self.col = message, line, col


class _Env:
    def __init__(self, deg_max_cap: int, budget: int | None):
        self.objects: dict[str, object] = {}
        self.deg_max_cap = deg_max_cap
        self.budget = budget

    def fetch(self, ref: NameRef):
        if ref.name not in self.objects:
            raise DirectiveError(f"{ref.name!r} is not defined or failed to build")
        return self.objects[ref.name]


def _evaluate(ring: tuple[str, ...], *values: ExprValue) -> list[Poly]:
    """The polynomials of expression arguments, metered together like one
    definition body: past corpus.PARSE_WORK_BUDGET term pairs, an ERROR."""
    armed = ALLOWANCE.set([PARSE_WORK_BUDGET])
    try:
        return [eval_expr(value.ast, ring) for value in values]
    except WorkBudgetExceeded:
        raise DirectiveError(
            f"argument exceeds the parse-time budget of {PARSE_WORK_BUDGET} term pairs"
        ) from None
    finally:
        ALLOWANCE.reset(armed)


def _int(value, what: str, low: int, high: int) -> int:
    """An int, or an integer expression, in [low, high]."""
    if isinstance(value, ExprValue):
        constant = _evaluate((), value)[0].constant_value()
        if constant.denominator != 1:
            raise DirectiveError(f"{what} must be an integer")
        value = int(constant)
    if not low <= value <= high:
        raise DirectiveError(f"{what} must lie in [{low}, {high}]")
    return value


def _samples(env: _Env, value) -> int:
    """run's `budget` when given, else the directive's `samples`."""
    return _int(value if env.budget is None else env.budget, "samples", 1, MAX_SAMPLES)


# -- what a parameter accepts ---------------------------------------------------


class _Accepts(NamedTuple):
    """A parameter's annotation: the argument value classes it takes, the
    definition kinds a name may have, the ring of its expressions and a
    parameter that must be given with it.  `read(env, value)` evaluates an
    argument into the handler's value."""

    expected: str
    shapes: tuple[type, ...]
    read: Callable
    kinds: tuple[str, ...] = ()
    ring: tuple[str, ...] = ()
    requires: str | None = None


def _object(*kinds: str, read: Callable = _Env.fetch) -> _Accepts:
    return _Accepts(f"a defined {' or '.join(kinds)} name", (NameRef,), read, kinds)


def _poly(ring: tuple[str, ...], requires: str | None = None) -> _Accepts:
    def read(env: _Env, value) -> Poly:
        if isinstance(value, ExprValue):
            return _evaluate(ring, value)[0]
        obj = env.fetch(value)
        return (obj.a if isinstance(obj, PlaneDivisor) else obj).to_ring(ring)

    kinds = ("poly", "unipoly", "divisor")
    return _Accepts("a polynomial", (NameRef, ExprValue), read, kinds, ring, requires)


def _polys(ring: tuple[str, ...]) -> _Accepts:
    read = lambda env, value: _evaluate(ring, *value.items)  # noqa: E731
    return _Accepts("a [p1, p2, ...] list", (ListValue,), read, ring=ring)


def _integer(what: str, low: int, high: int) -> _Accepts:
    read = lambda env, value: _int(value, what, low, high)  # noqa: E731
    return _Accepts(f"an integer for {what}", (ExprValue,), read)


def _derivation(env: _Env, ref: NameRef) -> Derivation:
    obj = env.fetch(ref)
    return logarithm(obj) if isinstance(obj, Automorphism) else obj


_CONTEXT, _AUTOMORPHISM = _object("context"), _object("automorphism")
_DERIVATION = _object("derivation", "automorphism", read=_derivation)
_NAMED = _object("derivation", "automorphism", read=lambda env, ref: (ref.name, env.fetch(ref)))
# Read by _samples in the handler, since run's `budget` overrides it.
_SAMPLES = _Accepts("an integer for samples", (ExprValue,), lambda env, value: value)
_ORDER = _Accepts(
    "an integer for order",
    (ExprValue, KeywordValue),
    lambda env, v: v.word if isinstance(v, KeywordValue) else _int(v, "order", 1, 10**6),
)
_NELEM = _Accepts(
    "an n(h, f) literal",
    (NElemValue,),
    lambda env, v: delta_family.n_elem(*_evaluate(ZP, v.h, v.f)),
    ring=ZP,
)
_GELEM = _Accepts(
    "a gelem(...; h; f) literal",
    (GElemValue,),
    lambda env, v: groupmodel.g_elem(v.torus, *_evaluate(ZP, v.h, v.f)),
    ring=ZP,
)


class _LazyRandom:
    """random.Random(key), seeded (about 10 µs) at the first draw; most
    directives draw nothing."""

    def __init__(self, key: str):
        self.key, self.rng = key, None

    def randint(self, a: int, b: int) -> int:
        self.rng = self.rng or random.Random(self.key)
        return self.rng.randint(a, b)


def _rand_fraction(rng: _LazyRandom) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_kernel_poly(rng: _LazyRandom, deg: int, z_only: bool = False) -> Poly:
    out = Poly.zero(ZP)
    for _ in range(4):
        ez = rng.randint(0, deg)
        ep = 0 if z_only else rng.randint(0, deg - ez)
        out = out + Poly(ZP, {(ez, ep): Fraction(rng.randint(-9, 9))})
    return out


def _rand_nelem(rng: _LazyRandom, deg: int) -> delta_family.NElem:
    return delta_family.n_elem(
        _rand_kernel_poly(rng, deg, z_only=True), _rand_kernel_poly(rng, deg)
    )


# -- directive implementations ------------------------------------------------


def _run_exp_log_roundtrip(env, rng, derivation: _NAMED, /):
    name, d = derivation
    if isinstance(d, Automorphism):
        # logarithm certifies exp(log u) = u itself, or raises
        logarithm(d)
        return "PASS", f"exp(log({name})) = {name} exactly"
    # the exponential's series on the generators give the vanishing orders;
    # back == d is itself the certificate exp(back) = u, so no round trip
    u, orders = _exponential_with_orders(d)
    back = _log_series(u)
    if back != d:
        return "FAIL", f"log(exp(D)) = {back}, expected {d}"
    return "PASS", f"roundtrip exact; vanishing orders {orders}"


def _run_one_parameter_group(env, rng, derivation: _DERIVATION, /, *, samples: _SAMPLES = 200):
    samples = _samples(env, samples)
    for _ in range(samples):
        s, t = _rand_fraction(rng), _rand_fraction(rng)
        rhs = exponential(scale(s + t, derivation))
        if compose_exp_word([scale(s, derivation), scale(t, derivation)]) != rhs:
            return "FAIL", f"group law fails at (s, t) = ({s}, {t})"
    return "PASS", f"exp(sD) o exp(tD) = exp((s+t)D) on {samples} rational pairs"


def _run_standard_decomposition_expect(
    env, rng, automorphism: _AUTOMORPHISM, /, d: _poly(XYZ), *, uprime: _AUTOMORPHISM = None
):
    got, u_prime = standard_decomposition(automorphism)
    if got != d.monic():
        return "FAIL", f"expected d = {d.monic()}, got d = {got}"
    if uprime is not None and u_prime != uprime:
        return "FAIL", "irreducible part differs from the expected automorphism"
    return (
        "PASS",
        f"d = {got}, u' irreducible with pullback x -> {u_prime.pullback_x}",
        (
            f"u' pullbacks: x -> {u_prime.pullback_x}; y -> {u_prime.pullback_y}; "
            f"z -> {u_prime.pullback_z}",
        ),
    )


def _run_plinth_expect(
    env, rng, derivation: _DERIVATION, /, gens: _polys(XYZ), *,
    deg_max: _integer("deg_max", 1, MAX_DEG_MAX) = 3, a: _poly(XYZ) = None, q: _poly(XYZ) = None,
):
    deg_max = min(deg_max, env.deg_max_cap)
    q_poly, a_poly = plinth_search(derivation, gens, deg_max)
    if a is not None and a_poly != a.monic():
        return "FAIL", f"expected a = {a.monic()}, got a = {a_poly}"
    if q is not None and q_poly != q:
        return "FAIL", f"expected Q = {q}, got Q = {q_poly}"
    return (
        "PASS",
        f"plinth pair Q = {q_poly}, a = {a_poly}",
        # plinth_search's exact elimination proves d(Q) = a.
        (f"d(Q) = {a_poly}", f"degree bound {deg_max}"),
    )


def _run_admissible_complement(env, rng, context: _CONTEXT, /):
    # make_context certified or its construction proves D'(Q) = a', E(P) = -a',
    # [D', E] = 0 and both irreducibilities; the directive reports the context.
    c = context
    return "PASS", f"Q = {c.Q}, a' = {c.a_prime}, e pullback x -> {c.e.pullback_x}"


def _run_ad_identity(
    env, rng, context: _CONTEXT, /, *,
    q_max: _integer("q_max", 0, MAX_Q_MAX) = 4, samples: _SAMPLES = 200,
):
    samples = _samples(env, samples)
    for _ in range(samples):
        n = _rand_nelem(rng, 3)
        report = delta_family.ad_identity_check(context, n.h, n.f, q_max)
        if not report.holds:
            return "FAIL", f"bracket power(s) {report.failures} fail for {n}"
    return "PASS", f"iterated-bracket identity for q <= {q_max} on {samples} samples"


def _run_n_group_homomorphism(env, rng, context: _CONTEXT, /, *, samples: _SAMPLES = 200):
    ctx = context
    samples = _samples(env, samples)
    for _ in range(samples):
        a, b = _rand_nelem(rng, 3), _rand_nelem(rng, 3)
        product = delta_family.n_mul(a, b, ctx)
        lhs = delta_family.n_to_aut(product, ctx)
        ga = delta_family.n_to_aut(a, ctx)
        rhs = delta_family.compose_with_family(ga, b, ctx)
        if lhs != rhs:
            return "FAIL", f"homomorphism fails on {a}, {b}"
        # Given g* D' = D' g*: g*(d D'(v)) - d D'(g* v) = (g*(d) - d) D'(g* v),
        # and D'(g* v) != 0 for some v (g is invertible and D' != 0), so g
        # commutes with D = d D' exactly when g*(d) = d.
        if not commutes(lhs, ctx.D_prime) or pullback(lhs, ctx.d) != ctx.d:
            return "FAIL", f"image of {product} does not centralize u or u'"
        # lhs is n_to_aut(product): recovering product certifies the round-trip.
        if delta_family._recover_pair(lhs, ctx) != product:
            return "FAIL", f"round-trip fails on {product}"
        delta_family.exp_m_decompose(a, ctx)
    return (
        "PASS",
        f"homomorphism, centralizing, round-trip and Exp-split on {samples} pairs "
        f"(convention {delta_family.E_OUTER})",
    )


def _run_sat_instance(env, rng, B: _DERIVATION, F: _DERIVATION, f: _poly(XYZ), /):
    report = sat_instance_check(B, F, f)
    if not report.identity_holds:
        return "FAIL", "bracket identity [fF, B] = f[F, B] - B(f) F violated"
    if report.bracket_is_zero:
        if not report.conclusions_hold:
            return "FAIL", f"[fF, B] = 0 but B(f) = {report.b_of_f} or [F, B] != 0"
        return "PASS", "bracket vanishes; B(f) = 0 and [F, B] = 0 follow"
    return "PASS", f"obstruction reported: B(f) = {report.b_of_f}"


def _run_irreducibility_criterion(
    env, rng, context: _CONTEXT, /, pair: _NELEM = None, *, samples: _SAMPLES = 200
):
    if pair is not None:
        pairs = [pair]
        described = str(pair)
    else:
        samples = _samples(env, samples)
        pairs = [_rand_nelem(rng, 3) for _ in range(samples)]
        described = f"{samples} random pairs"
    checked = 0
    for n in pairs:
        if n.h.is_zero() and n.f.is_zero():
            continue
        checked += 1
        report = delta_family.irreducibility_criterion_check(context, n)
        if not report.holds:
            side = "irreducibility" if report.criterion_applies else "content"
            return "FAIL", f"{side} check fails for {n} (gcd = {report.gcd_hf})"
    return "PASS", f"criterion verified on {described} ({checked} nonzero)"


def _run_conjugation_formula(
    env, rng, g: _AUTOMORPHISM, f: _poly(XYZ), u_prime: _AUTOMORPHISM, d: _poly(XYZ), /
):
    report = conjugation_formula_check(g, f, u_prime, d)
    if not report.holds:
        return "FAIL", f"conjugate is not the predicted modification (mu = {report.mu})"
    return "PASS", f"mu = {report.mu}, orientation {report.orientation}"


def _run_divisor_symmetry_expect(
    env, rng, divisor: _poly(ZVAR), /, *,
    mu: _poly(()) = None, order: _ORDER = None, k0: _integer("k0", 0, 10**6) = None,
):
    sym = quotient_geometry.affine_symmetries(divisor)
    if mu is not None and sym.center != mu.constant_value():
        return "FAIL", f"expected center {mu.constant_value()}, got {sym.center}"
    if order == "torus" and not sym.is_torus:
        return "FAIL", f"expected the torus case, got order {sym.order}"
    if order not in (None, "torus") and sym.order != order:
        return "FAIL", f"expected order {order}, got {sym.order}"
    if k0 is not None and sym.lambda_exponent != k0:
        return "FAIL", f"expected k0 = {k0}, got {sym.lambda_exponent}"
    order = "torus" if sym.is_torus else str(sym.order)
    return "PASS", f"center {sym.center}, order {order}, k0 = {sym.lambda_exponent}"


def _run_lift_H(env, rng, g: _object("planeaut"), divisor: _object("divisor"), /):
    sigma = quotient_geometry.lift_to_H(g, divisor)
    return "PASS", (
        f"lift ({sigma.pullback_x}, {sigma.pullback_y}, {sigma.pullback_z}) "
        f"centralizes the modified translation"
    )


def _run_pres_lemma(env, rng, law: _object("law"), /, *candidates: _GELEM):
    law = groupmodel.make_group_law(law.mu, law.rho1, law.rho2, law.a_prime, law.nu)
    z = Poly.variable(ZP, "z")
    if not candidates:
        pv = Poly.variable(ZP, "P")
        point = tuple(Fraction(p) for p in (2, 3, 5, 7)[: law.rank])
        candidates = [
            groupmodel.g_identity(law),
            groupmodel.g_elem(point, 0, 0),
            groupmodel.g_elem((Fraction(1),) * law.rank, z, 0),
            groupmodel.g_elem((Fraction(1),) * law.rank, 0, pv),
        ]
    # Built lazily: verify_pres_lemma reads only up to the first usable one.
    witnesses = (groupmodel.derived_witness(law, z**i) for i in range(3))
    report = groupmodel.verify_pres_lemma(law, witnesses, candidates)
    if not report.holds:
        bad = next(v for v in report.verdicts if not v.consistent)
        return "FAIL", f"candidate {bad.candidate} misclassified"
    survivors = sum(1 for v in report.verdicts if v.centralizes_all)
    return "PASS", (
        f"fiber isolated: {survivors}/{len(report.verdicts)} candidates "
        f"centralize all {len(report.witnesses)} derived witnesses"
    )


def _run_char_commutator(
    env, rng, context: _CONTEXT, /, *,
    h: _poly(ZP) = None, f: _poly(ZP, requires="h") = None, samples: _SAMPLES = 200,
):
    if h is not None:
        f = f if f is not None else Poly.zero(ZP)
        report = groupmodel.char_commutator_check(context, h, f)
        if not report.holds:
            return "FAIL", f"nested commutator differs from {report.expected_factor}.u'"
        return "PASS", f"nested commutator equals ({report.expected_factor}).u'"
    samples = _samples(env, samples)
    for _ in range(samples):
        h = _rand_kernel_poly(rng, 3, z_only=True)
        f = _rand_kernel_poly(rng, 1)
        report = groupmodel.char_commutator_check(context, h, f)
        if not report.holds:
            return "FAIL", f"nested commutator fails for h = {h}, f = {f}"
    return "PASS", f"nested commutator identity on {samples} random h"


def _run_nonfence_commutator(
    env, rng, u_prime: _AUTOMORPHISM, d: _poly(XYZ), t: _AUTOMORPHISM, f: _poly(XYZ),
    v: _poly(XYZ), /, k: _integer("k", 0, MAX_K),
):
    report = groupmodel.nonfence_commutator_check(u_prime, d, t, f, v, k)
    if not report.holds:
        return "FAIL", f"composition differs from the scalar form ({report.scalar})"
    return "PASS", f"scalar {report.scalar}, orientation {report.orientation}"


def _run_fixed_scheme(env, rng, divisor: _object("divisor"), /, *, multipliers: _polys(YZ) = None):
    if multipliers is None:
        multipliers = [
            Poly.variable(YZ, "z"),
            Poly.variable(YZ, "y"),
            Poly.variable(YZ, "z") + Poly.one(YZ),
        ]
    report = quotient_geometry.fixed_scheme_check(divisor, multipliers)
    if not report.holds:
        bad = ", ".join(str(m) for m in report.failed_multipliers)
        return "FAIL", f"enlarged subscheme(s) not moved: {bad}"
    return "PASS", (
        f"divisor fixed pointwise; {len(report.moved_multipliers)} enlargements moved"
    )


# -- the bind step ----------------------------------------------------------------


class _Param(NamedTuple):
    name: str
    mode: str  # "/" by position only, "" either way, "*" by key only, "*args" the surplus
    accepts: _Accepts
    required: bool


def _params(run: Callable) -> tuple[_Param, ...]:
    """run's parameters after (env, rng), in the order Python binds them,
    read off its code object as inspect.signature reads them."""
    code, notes = run.__code__, run.__annotations__
    names, positional = code.co_varnames, code.co_argcount
    keyed = positional + code.co_kwonlyargcount
    required = positional - len(run.__defaults__ or ())
    params = [
        _Param(name, "/" if i < code.co_posonlyargcount else "", notes[name], i < required)
        for i, name in enumerate(names[2:positional], 2)
    ]
    if code.co_flags & 0x04:  # CO_VARARGS; the *args name follows the keyword-only ones
        params.append(_Param(names[keyed], "*args", notes[names[keyed]], False))
    kwdefaults = run.__kwdefaults__ or {}
    for name in names[positional:keyed]:
        params.append(_Param(name, "*", notes[name], name not in kwdefaults))
    return tuple(params)


_SCHEMA = {
    run.__name__.removeprefix("_run_"): (run, _params(run))
    for run in (
        _run_exp_log_roundtrip, _run_one_parameter_group, _run_standard_decomposition_expect,
        _run_plinth_expect, _run_admissible_complement, _run_ad_identity,
        _run_n_group_homomorphism, _run_sat_instance, _run_irreducibility_criterion,
        _run_conjugation_formula, _run_divisor_symmetry_expect, _run_lift_H, _run_pres_lemma,
        _run_char_commutator, _run_nonfence_commutator, _run_fixed_scheme,
    )
}


def _check(accepts: _Accepts, value, line: int, col: int, kinds: dict[str, str]) -> None:
    """Raise the fault of an argument value that does not fit `accepts`;
    a variable outside its ring is the ParseError evaluation would raise."""
    if type(value) not in accepts.shapes:
        raise DirectiveError(f"expected {accepts.expected}", line, col)
    if isinstance(value, NameRef) and kinds[value.name] not in accepts.kinds:
        message = f"{value.name!r} is a {kinds[value.name]}, expected {' or '.join(accepts.kinds)}"
        raise DirectiveError(message, value.line, value.col)
    for expression in _expressions(value):
        var = next((var for var in expression.variables if var.name not in accepts.ring), None)
        if var is not None:
            raise unknown_variable(var, accepts.ring)


def _expressions(value) -> tuple[ExprValue, ...]:
    if isinstance(value, ExprValue):
        return (value,)
    if isinstance(value, ListValue):
        return value.items
    return (value.h, value.f) if isinstance(value, (NElemValue, GElemValue)) else ()


def _bind(params: tuple[_Param, ...], directive: Directive, kinds: dict[str, str]) -> list:
    """(parameter, argument) pairs in parameter order, bound as Python binds
    a call of that signature and with its messages, each then checked."""
    positional = [arg for arg in directive.args if arg.key is None]
    keyword = {arg.key: arg for arg in directive.args if arg.key is not None}
    bound: dict[str, list] = {}
    for param in params:
        if positional and param.mode in ("/", ""):
            if param.mode == "" and param.name in keyword:
                twice = keyword[param.name]
                message = f"multiple values for argument {param.name!r}"
                raise DirectiveError(message, twice.line, twice.col)
            bound[param.name] = [positional.pop(0)]
        elif positional and param.mode == "*args":
            bound[param.name], positional = positional, []
        elif param.name in keyword and param.mode != "*args":
            arg = keyword.pop(param.name)
            if param.mode == "/":
                message = "parameter is positional only, but was passed as a keyword"
                raise DirectiveError(f"{param.name!r} {message}", arg.line, arg.col)
            bound[param.name] = [arg]
        elif param.required and not positional:
            message = f"missing a required argument: {param.name!r}"
            raise DirectiveError(message, directive.line, directive.col)
    if positional:
        arg = positional[0]
        raise DirectiveError("too many positional arguments", arg.line, arg.col)
    for arg in keyword.values():
        raise DirectiveError(f"got an unexpected keyword argument {arg.key!r}", arg.line, arg.col)
    pairs = []
    for param in params:
        requires = param.accepts.requires
        for arg in bound.get(param.name, ()):
            if requires is not None and requires not in bound:
                message = f"{param.name} is given without {requires}"
                raise DirectiveError(message, arg.line, arg.col)
            _check(param.accepts, arg.value, arg.line, arg.col, kinds)
            pairs.append((param, arg))
    return pairs


def bind(case: CorpusCase) -> tuple[dict[str, LndError], list[list | LndError]]:
    """Check a parsed corpus against the directive schemas, building and
    evaluating nothing.  Returns the fault of each compose definition with
    an operand of another kind, by name, and for each directive its
    (parameter, argument) pairs or its first fault.  An unknown directive,
    or a definition named like one, is a ParseError."""
    definition_faults: dict[str, LndError] = {}
    for definition in case.definitions:
        if definition.name in _SCHEMA:
            raise ParseError(f"{definition.name!r} is reserved", definition.line, definition.col)
        try:
            for ref in definition.value if isinstance(definition.value, Compose) else ():
                _check(_AUTOMORPHISM, ref, ref.line, ref.col, case.kinds)
        except DirectiveError as fault:
            definition_faults[definition.name] = fault
    arguments: list[list | LndError] = []
    for directive in case.directives:
        if directive.name not in _SCHEMA:
            message = f"unknown directive {directive.name!r}"
            raise ParseError(message, directive.line, directive.col)
        try:
            arguments.append(_bind(_SCHEMA[directive.name][1], directive, case.kinds))
        except LndError as fault:
            arguments.append(fault)
    return definition_faults, arguments


def _dispatch(run: Callable) -> Callable:
    """The (args, rng) handler of run; args = (env, the bind step's result
    for the directive).  Reads the arguments and passes them as given."""

    def handler(args, rng):
        env, pairs = args
        if isinstance(pairs, LndError):
            raise pairs
        positional, keyword = [], {}
        for param, arg in pairs:
            value = param.accepts.read(env, arg.value)
            if arg.key is None:
                positional.append(value)
            else:
                keyword[arg.key] = value
        return run(env, rng, *positional, **keyword)

    return handler


_HANDLERS = {name: _dispatch(run) for name, (run, _) in _SCHEMA.items()}


def _build_definitions(
    case: CorpusCase, env: _Env, entries: list[Entry], faults: dict[str, LndError]
) -> None:
    for definition in case.definitions:
        kind, name, value = definition.kind, definition.name, definition.value
        try:
            if name in faults:
                raise faults[name]
            if kind == "context":
                spec: ContextSpec = value
                env.objects[name] = delta_family.make_context(
                    spec.P, spec.d, min(spec.deg_max, env.deg_max_cap, MAX_DEG_MAX)
                )
            elif isinstance(value, Compose):
                env.objects[name] = compose(env.fetch(value.left), env.fetch(value.right))
            else:
                env.objects[name] = value
        except (LndError, ValueError, ZeroDivisionError, OverflowError) as exc:
            entries.append(Entry(f"{kind} {name}", "ERROR", str(exc)))


def run(
    case: CorpusCase,
    seed: int = 0,
    budget: int | None = None,
    deg_max_cap: int = MAX_DEG_MAX,
) -> Report:
    """Execute all directives in source order.

    `budget` overrides the per-directive sample count when given; `seed`
    fixes the random streams; `deg_max_cap` bounds search degrees so that
    hostile inputs terminate with honest ERROR entries.  The bind step runs
    first, so a ParseError from it leaves nothing run.  Report names are
    rendered after the loop, so only dispatch set-up runs between directives.
    """
    definition_faults, arguments = bind(case)
    entries: list[Entry] = []
    env = _Env(deg_max_cap, budget)
    _build_definitions(case, env, entries, definition_faults)
    outcomes = []
    for index, (directive, bound) in enumerate(zip(case.directives, arguments)):
        rng = _LazyRandom(f"{seed}:{index}:{directive.name}")
        try:
            outcome = _HANDLERS[directive.name]((env, bound), rng)
            extra = outcome[2] if len(outcome) > 2 else ()
            outcomes.append((outcome[0], outcome[1], tuple(extra)))
        except LndError as exc:
            outcomes.append(("ERROR", str(exc), ()))
        except (ValueError, ZeroDivisionError, OverflowError, KeyError) as exc:
            outcomes.append(("ERROR", f"{type(exc).__name__}: {exc}", ()))
    for directive, outcome in zip(case.directives, outcomes):
        entries.append(Entry(directive_text(directive), *outcome))
    return Report(tuple(entries))
