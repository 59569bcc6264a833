"""Execute the directives of a parsed corpus and assemble a report.

Every directive yields PASS, FAIL or ERROR plus a one-line detail (FAIL
carries a counterexample witness, ERROR the offending condition); directive
failures never abort the run.  Output is byte-deterministic for a fixed
(file, seed, budget) triple: randomized directives draw from a generator
seeded by (seed, directive index).

A directive's arguments bind like a Python call of its `_run_<name>`
handler after (env, rng): parameters before `/` are taken by position only,
those after `*` by key only, the rest either way.  A call that does not
fit, such as a misspelled key or a surplus argument, is an ERROR line.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

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
    CorpusCase,
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
from .errors import LndError
from .quotient_geometry import PlaneDivisor
from .syntax import eval_expr

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
    """Schema violation in directive arguments."""


class _Env:
    def __init__(self, deg_max_cap: int, budget: int | None):
        self.objects: dict[str, tuple[str, object]] = {}
        self.deg_max_cap = deg_max_cap
        self.budget = budget

    def fetch(self, name: str, kinds: tuple[str, ...]):
        if name not in self.objects:
            raise DirectiveError(f"{name!r} is not defined or failed to build")
        kind, value = self.objects[name]
        if kind not in kinds:
            raise DirectiveError(f"{name!r} is a {kind}, expected {' or '.join(kinds)}")
        return value


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


def _object(env: _Env, value, kinds: tuple[str, ...]):
    if isinstance(value, NameRef):
        return env.fetch(value.name, kinds)
    raise DirectiveError(f"expected a defined {' or '.join(kinds)} name")


def _poly(env: _Env, value, ring: tuple[str, ...]) -> Poly:
    if isinstance(value, NameRef):
        obj = env.fetch(value.name, ("poly", "unipoly", "divisor"))
        if isinstance(obj, PlaneDivisor):
            obj = obj.a
        return obj.to_ring(ring)
    if isinstance(value, ExprValue):
        return _evaluate(ring, value)[0]
    raise DirectiveError("expected a polynomial")


def _int(value, what: str, low: int, high: int) -> int:
    """An int, or an integer expression, in [low, high]."""
    if isinstance(value, ExprValue):
        constant = _evaluate((), value)[0].constant_value()
        if constant.denominator != 1:
            raise DirectiveError(f"{what} must be an integer")
        value = int(constant)
    elif not isinstance(value, int):
        raise DirectiveError(f"expected an integer for {what}")
    if not low <= value <= high:
        raise DirectiveError(f"{what} must lie in [{low}, {high}]")
    return value


def _samples(env: _Env, value) -> int:
    """run's `budget` when given, else the directive's `samples`, else 200."""
    if env.budget is not None:
        value = env.budget
    elif value is None:
        return 200
    return _int(value, "samples", 1, MAX_SAMPLES)


def _nelem(value) -> delta_family.NElem:
    if isinstance(value, NElemValue):
        return delta_family.n_elem(*_evaluate(ZP, value.h, value.f))
    raise DirectiveError("expected an n(h, f) literal")


def _gelem(value) -> groupmodel.GElem:
    if isinstance(value, GElemValue):
        return groupmodel.g_elem(value.torus, *_evaluate(ZP, value.h, value.f))
    raise DirectiveError("expected a gelem(...; h; f) literal")


def _poly_list(value, ring: tuple[str, ...]) -> list[Poly]:
    if isinstance(value, ListValue):
        return _evaluate(ring, *value.items)
    raise DirectiveError("expected a [p1, p2, ...] list")


def _derivation(env: _Env, value) -> Derivation:
    obj = _object(env, value, ("derivation", "automorphism"))
    if isinstance(obj, Automorphism):
        return logarithm(obj)
    return obj


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


def _run_exp_log_roundtrip(env, rng, derivation, /) -> tuple[str, str]:
    d = _object(env, derivation, ("derivation", "automorphism"))
    if isinstance(d, Automorphism):
        # logarithm certifies exp(log u) = u itself, or raises
        logarithm(d)
        return "PASS", f"exp(log({derivation.name})) = {derivation.name} exactly"
    # the exponential's series on the generators give the vanishing orders;
    # back == d is itself the certificate exp(back) = u, so no round trip
    u, orders = _exponential_with_orders(d)
    back = _log_series(u)
    if back != d:
        return "FAIL", f"log(exp(D)) = {back}, expected {d}"
    return "PASS", f"roundtrip exact; vanishing orders {orders}"


def _run_one_parameter_group(env, rng, derivation, /, *, samples=None) -> tuple[str, str]:
    d = _derivation(env, derivation)
    samples = _samples(env, samples)
    for _ in range(samples):
        s, t = _rand_fraction(rng), _rand_fraction(rng)
        rhs = exponential(scale(s + t, d))
        if compose_exp_word([scale(s, d), scale(t, d)]) != rhs:
            return "FAIL", f"group law fails at (s, t) = ({s}, {t})"
    return "PASS", f"exp(sD) o exp(tD) = exp((s+t)D) on {samples} rational pairs"


def _run_standard_decomposition_expect(
    env, rng, automorphism, /, d, *, uprime=None
) -> tuple[str, str]:
    u = _object(env, automorphism, ("automorphism",))
    expected_d = _poly(env, d, XYZ)
    d, u_prime = standard_decomposition(u)
    if d != expected_d.monic():
        return "FAIL", f"expected d = {expected_d.monic()}, got d = {d}"
    if uprime is not None:
        expected_up = _object(env, uprime, ("automorphism",))
        if u_prime != expected_up:
            return "FAIL", "irreducible part differs from the expected automorphism"
    return (
        "PASS",
        f"d = {d}, u' irreducible with pullback x -> {u_prime.pullback_x}",
        (
            f"u' pullbacks: x -> {u_prime.pullback_x}; y -> {u_prime.pullback_y}; "
            f"z -> {u_prime.pullback_z}",
        ),
    )


def _run_plinth_expect(
    env, rng, derivation, /, gens, *, deg_max=3, a=None, q=None
) -> tuple[str, str]:
    d = _derivation(env, derivation)
    gens = _poly_list(gens, XYZ)
    deg_max = min(_int(deg_max, "deg_max", 1, MAX_DEG_MAX), env.deg_max_cap)
    q_poly, a_poly = plinth_search(d, gens, deg_max)
    if a is not None:
        expected = _poly(env, a, XYZ).monic()
        if a_poly != expected:
            return "FAIL", f"expected a = {expected}, got a = {a_poly}"
    if q is not None:
        expected_q = _poly(env, q, XYZ)
        if q_poly != expected_q:
            return "FAIL", f"expected Q = {expected_q}, got Q = {q_poly}"
    return (
        "PASS",
        f"plinth pair Q = {q_poly}, a = {a_poly}",
        # plinth_search's exact elimination proves d(Q) = a.
        (f"d(Q) = {a_poly}", f"degree bound {deg_max}"),
    )


def _run_admissible_complement(env, rng, context, /) -> tuple[str, str]:
    # make_context certified or its construction proves D'(Q) = a', E(P) = -a',
    # [D', E] = 0 and both irreducibilities; the directive reports the context.
    ctx = _object(env, context, ("context",))
    return "PASS", f"Q = {ctx.Q}, a' = {ctx.a_prime}, e pullback x -> {ctx.e.pullback_x}"


def _run_ad_identity(env, rng, context, /, *, q_max=4, samples=None) -> tuple[str, str]:
    ctx = _object(env, context, ("context",))
    q_max = _int(q_max, "q_max", 0, MAX_Q_MAX)
    samples = _samples(env, samples)
    for _ in range(samples):
        n = _rand_nelem(rng, 3)
        report = delta_family.ad_identity_check(ctx, n.h, n.f, q_max)
        if not report.holds:
            return "FAIL", f"bracket power(s) {report.failures} fail for {n}"
    return "PASS", f"iterated-bracket identity for q <= {q_max} on {samples} samples"


def _run_n_group_homomorphism(env, rng, context, /, *, samples=None) -> tuple[str, str]:
    ctx = _object(env, context, ("context",))
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


def _run_sat_instance(env, rng, B, F, f, /) -> tuple[str, str]:
    b = _derivation(env, B)
    f_der = _derivation(env, F)
    f = _poly(env, f, XYZ)
    report = sat_instance_check(b, f_der, f)
    if not report.identity_holds:
        return "FAIL", "bracket identity [fF, B] = f[F, B] - B(f) F violated"
    if report.bracket_is_zero:
        if not report.conclusions_hold:
            return "FAIL", f"[fF, B] = 0 but B(f) = {report.b_of_f} or [F, B] != 0"
        return "PASS", "bracket vanishes; B(f) = 0 and [F, B] = 0 follow"
    return "PASS", f"obstruction reported: B(f) = {report.b_of_f}"


def _run_irreducibility_criterion(
    env, rng, context, /, pair=None, *, samples=None
) -> tuple[str, str]:
    ctx = _object(env, context, ("context",))
    if pair is not None:
        pairs = [_nelem(pair)]
        described = str(pairs[0])
    else:
        samples = _samples(env, samples)
        pairs = [_rand_nelem(rng, 3) for _ in range(samples)]
        described = f"{samples} random pairs"
    checked = 0
    for n in pairs:
        if n.h.is_zero() and n.f.is_zero():
            continue
        checked += 1
        report = delta_family.irreducibility_criterion_check(ctx, n)
        if not report.holds:
            side = "irreducibility" if report.criterion_applies else "content"
            return "FAIL", f"{side} check fails for {n} (gcd = {report.gcd_hf})"
    return "PASS", f"criterion verified on {described} ({checked} nonzero)"


def _run_conjugation_formula(env, rng, g, f, u_prime, d, /) -> tuple[str, str]:
    g = _object(env, g, ("automorphism",))
    f = _poly(env, f, XYZ)
    u_prime = _object(env, u_prime, ("automorphism",))
    d = _poly(env, d, XYZ)
    report = conjugation_formula_check(g, f, u_prime, d)
    if not report.holds:
        return "FAIL", f"conjugate is not the predicted modification (mu = {report.mu})"
    return "PASS", f"mu = {report.mu}, orientation {report.orientation}"


def _run_divisor_symmetry_expect(
    env, rng, divisor, /, *, mu=None, order=None, k0=None
) -> tuple[str, str]:
    sym = quotient_geometry.affine_symmetries(_poly(env, divisor, ZVAR))
    if mu is not None:
        expected = _poly(env, mu, ()).constant_value()
        if sym.center != expected:
            return "FAIL", f"expected center {expected}, got {sym.center}"
    if order is not None:
        if isinstance(order, KeywordValue) and order.word == "torus":
            if not sym.is_torus:
                return "FAIL", f"expected the torus case, got order {sym.order}"
        else:
            expected_order = _int(order, "order", 1, 10**6)
            if sym.order != expected_order:
                return "FAIL", f"expected order {expected_order}, got {sym.order}"
    if k0 is not None:
        expected_k0 = _int(k0, "k0", 0, 10**6)
        if sym.lambda_exponent != expected_k0:
            return "FAIL", f"expected k0 = {expected_k0}, got {sym.lambda_exponent}"
    order = "torus" if sym.is_torus else str(sym.order)
    return "PASS", f"center {sym.center}, order {order}, k0 = {sym.lambda_exponent}"


def _run_lift_H(env, rng, g, divisor, /) -> tuple[str, str]:
    g = _object(env, g, ("planeaut",))
    div = _object(env, divisor, ("divisor",))
    sigma = quotient_geometry.lift_to_H(g, div)
    return "PASS", (
        f"lift ({sigma.pullback_x}, {sigma.pullback_y}, {sigma.pullback_z}) "
        f"centralizes the modified translation"
    )


def _run_pres_lemma(env, rng, law, /, *candidates) -> tuple[str, str]:
    law_spec = _object(env, law, ("law",))
    law = groupmodel.make_group_law(
        law_spec.mu, law_spec.rho1, law_spec.rho2, law_spec.a_prime, law_spec.nu
    )
    candidates = [_gelem(value) for value in candidates]
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
    env, rng, context, /, *, h=None, f=None, samples=None
) -> tuple[str, str]:
    ctx = _object(env, context, ("context",))
    if h is not None:
        h = _poly(env, h, ZP)
        f = _poly(env, f, ZP) if f is not None else Poly.zero(ZP)
        report = groupmodel.char_commutator_check(ctx, h, f)
        if not report.holds:
            return "FAIL", f"nested commutator differs from {report.expected_factor}.u'"
        return "PASS", f"nested commutator equals ({report.expected_factor}).u'"
    if f is not None:
        raise DirectiveError("f is given without h")
    samples = _samples(env, samples)
    for _ in range(samples):
        h = _rand_kernel_poly(rng, 3, z_only=True)
        f = _rand_kernel_poly(rng, 1)
        report = groupmodel.char_commutator_check(ctx, h, f)
        if not report.holds:
            return "FAIL", f"nested commutator fails for h = {h}, f = {f}"
    return "PASS", f"nested commutator identity on {samples} random h"


def _run_nonfence_commutator(env, rng, u_prime, d, t, f, v, /, k) -> tuple[str, str]:
    u_prime = _object(env, u_prime, ("automorphism",))
    d = _poly(env, d, XYZ)
    t = _object(env, t, ("automorphism",))
    f = _poly(env, f, XYZ)
    v = _poly(env, v, XYZ)
    k = _int(k, "k", 0, MAX_K)
    report = groupmodel.nonfence_commutator_check(u_prime, d, t, f, v, k)
    if not report.holds:
        return "FAIL", f"composition differs from the scalar form ({report.scalar})"
    return "PASS", f"scalar {report.scalar}, orientation {report.orientation}"


def _run_fixed_scheme(env, rng, divisor, /, *, multipliers=None) -> tuple[str, str]:
    div = _object(env, divisor, ("divisor",))
    if multipliers is not None:
        multipliers = _poly_list(multipliers, YZ)
    else:
        multipliers = [
            Poly.variable(YZ, "z"),
            Poly.variable(YZ, "y"),
            Poly.variable(YZ, "z") + Poly.one(YZ),
        ]
    report = quotient_geometry.fixed_scheme_check(div, multipliers)
    if not report.holds:
        bad = ", ".join(str(m) for m in report.failed_multipliers)
        return "FAIL", f"enlarged subscheme(s) not moved: {bad}"
    return "PASS", (
        f"divisor fixed pointwise; {len(report.moved_multipliers)} enlargements moved"
    )


def _bound(run):
    """The (args, rng) handler of `run`, with args = (env, positional, keyword).

    Only after a TypeError is the signature inspected, to tell a call that
    does not fit it (an ERROR) from a TypeError inside run (propagated);
    `inspect` is imported only then, as at start-up it would cost every
    process about 7 ms and 0.7 MB (2-CPU Xeon).
    """

    def handler(args, rng):
        env, positional, keyword = args
        try:
            return run(env, rng, *positional, **keyword)
        except TypeError:
            import inspect

            try:
                inspect.signature(run).bind(env, rng, *positional, **keyword)
            except TypeError as mismatch:
                raise DirectiveError(str(mismatch)) from None
            raise

    return handler


_HANDLERS = {
    "exp_log_roundtrip": _bound(_run_exp_log_roundtrip),
    "one_parameter_group": _bound(_run_one_parameter_group),
    "standard_decomposition_expect": _bound(_run_standard_decomposition_expect),
    "plinth_expect": _bound(_run_plinth_expect),
    "admissible_complement": _bound(_run_admissible_complement),
    "ad_identity": _bound(_run_ad_identity),
    "n_group_homomorphism": _bound(_run_n_group_homomorphism),
    "sat_instance": _bound(_run_sat_instance),
    "irreducibility_criterion": _bound(_run_irreducibility_criterion),
    "conjugation_formula": _bound(_run_conjugation_formula),
    "divisor_symmetry_expect": _bound(_run_divisor_symmetry_expect),
    "lift_H": _bound(_run_lift_H),
    "pres_lemma": _bound(_run_pres_lemma),
    "char_commutator": _bound(_run_char_commutator),
    "nonfence_commutator": _bound(_run_nonfence_commutator),
    "fixed_scheme": _bound(_run_fixed_scheme),
}


def _build_definitions(case: CorpusCase, env: _Env, entries: list[Entry]) -> None:
    for definition in case.definitions:
        kind, name, value = definition.kind, definition.name, definition.value
        try:
            if kind == "context":
                spec: ContextSpec = value
                ctx = delta_family.make_context(
                    spec.P, spec.d, min(spec.deg_max, env.deg_max_cap, MAX_DEG_MAX)
                )
                env.objects[name] = ("context", ctx)
            elif kind == "automorphism" and isinstance(value, tuple):
                _, left, right = value
                g = env.fetch(left, ("automorphism",))
                h = env.fetch(right, ("automorphism",))
                env.objects[name] = ("automorphism", compose(g, h))
            else:
                env.objects[name] = (kind, value)
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
    hostile inputs terminate with honest ERROR entries.  Report names are
    rendered after the loop, so only dispatch set-up runs between directives.
    """
    entries: list[Entry] = []
    env = _Env(deg_max_cap, budget)
    _build_definitions(case, env, entries)
    outcomes = []
    for index, directive in enumerate(case.directives):
        rng = _LazyRandom(f"{seed}:{index}:{directive.name}")
        positional = [a.value for a in directive.args if a.key is None]
        keyword = {a.key: a.value for a in directive.args if a.key is not None}
        try:
            outcome = _HANDLERS[directive.name]((env, positional, keyword), rng)
            extra = outcome[2] if len(outcome) > 2 else ()
            outcomes.append((outcome[0], outcome[1], tuple(extra)))
        except LndError as exc:
            outcomes.append(("ERROR", str(exc), ()))
        except (ValueError, ZeroDivisionError, OverflowError, KeyError) as exc:
            outcomes.append(("ERROR", f"{type(exc).__name__}: {exc}", ()))
    for directive, outcome in zip(case.directives, outcomes):
        entries.append(Entry(directive_text(directive), *outcome))
    return Report(tuple(entries))
