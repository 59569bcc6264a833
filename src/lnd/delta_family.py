"""The plinth family over A = Q[z]: Jacobian-type derivations, admissible
complements, and the group N of pairs (h, f) with the shifted product law.

A context packages a kernel generator P in x, y with z-coefficients together
with everything derived from it: the derivation D' that kills z and P, a
plinth element Q with D'(Q) = a', the complement E that kills z and Q, and
the optional modification factor d.

NElem pairs (h, f) live in the abstract kernel ring Q[z, P]; h uses z only.
They model both group elements h.e o f.u' and derivations h E + f D'.  The
product law is

    (h, f) . (hb, fb) = (h + hb, f(P - hb a') + fb)

and (h, f) -> exp(hE) o exp(fD') is a group isomorphism onto N.  The order
of the two factors (E_OUTER: the u'-modification acts first on points) is
forced by the law.  Pullbacks compose in reverse, so the pullback of the
product word is exp(fb D') exp(hb E) exp(f D') exp(h E) as ring maps, the
rightmost applied first.  Let phi = exp(hb E).  Since [E, D'] = 0 and hb in
Q[z] is killed by both derivations, phi (f D') phi^-1 = phi(f) D'; since
E(P) = -a' and E(a') = E(z) = 0, phi(f(z, P)) = f(z, P - hb a').  So
exp(hb E) exp(f D') = exp(f(P - hb a') D') exp(hb E), the two D'-factors
merge because their coefficients lie in ker D', and the E-factors merge, which
leaves exactly the realization of the product pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple

from .arith import (
    XYZ,
    ZP,
    Poly,
    _add_terms,
    _charge,
    _form,
    _mul_terms,
    divide_exact,
    gcd_many,
    gcd_multivariate,
    is_univariate_in,
)
from .automorphisms import Automorphism, pullback
from .derivations import (
    Derivation,
    apply,
    compose_exp_word,
    delta,
    exponential,
    is_irreducible,
    is_locally_nilpotent,
    lie_bracket,
    plinth_search,
    scale,
    scale_poly,
)
from .errors import (
    ContextError,
    NonDivisibleError,
    NotInNError,
    NotLocallyNilpotentError,
    RingMismatchError,
    Validated,
    VerificationError,
)

# The realization order forced by the product law (see the module docstring).
E_OUTER = "e-outer"  # compose(h.e, f.u'): the u'-modification acts first


class _NElem(NamedTuple):
    h: Poly
    f: Poly


class NElem(Validated, _NElem):
    """Pair (h, f) in the kernel ring Q[z, P]; h must use z alone."""

    __slots__ = ()

    def __new__(cls, h: Poly, f: Poly):
        if h.vars != ZP or f.vars != ZP:
            raise RingMismatchError("NElem components live in the (z, P) ring")
        if not is_univariate_in(h, "z"):
            raise ValueError(f"h component must lie in Q[z]: {h}")
        return tuple.__new__(cls, (h, f))

    def __str__(self) -> str:
        return f"n({self.h}, {self.f})"


def n_elem(h, f) -> NElem:
    """Coerce (h, f) given as Polys in compatible rings or scalars."""
    if not isinstance(h, Poly):
        h = Poly.const(ZP, h)
    if not isinstance(f, Poly):
        f = Poly.const(ZP, f)
    return NElem(h.to_ring(ZP), f.to_ring(ZP))


class DeltaContext(NamedTuple):
    """Validated plinth-family data, immutable but for P_powers: numerators of
    P^j over P.den^j, grown on demand.  u' = exp(D') and u = exp(D) are held
    as D' and D; e = exp(E) is built."""

    P: Poly  # in (x, y, z)
    d: Poly  # in (z,): stored over XYZ with z-support only
    Q: Poly
    a_prime: Poly
    D_prime: Derivation
    E: Derivation
    D: Derivation  # d D'
    e: Automorphism
    P_powers: list[dict]

    def a_prime_zp(self) -> Poly:
        return self.a_prime.to_ring(ZP)


def _realization_word(ctx: DeltaContext, h_amb: Poly, f_amb: Poly) -> list[Derivation]:
    """The E_OUTER word [h E, f D'] of exp(hE) o exp(fD')."""
    return [scale_poly(h_amb, ctx.E), scale_poly(f_amb, ctx.D_prime)]


def shift_in_P(f: Poly, s: Poly, plus: Poly = Poly.zero(ZP), k=1, r1=1, r2=1) -> Poly:
    """k f(r1 z, r2 (P - s)) + plus for s in Q[z] and nonzero rationals k, r1,
    r2, as one Taylor shift on int numerators: each term c z^i P^j of f adds
    C(j, t) c z^i P^(j - t) (-s)^t from a table of the powers of -s, each
    past the first charged to an armed ALLOWANCE as a Poly product, over one
    shared denominator, and the sum is formed once."""
    if not f.terms:
        return plus
    if not s.terms and r1 == r2 == 1:
        return f * k + plus
    top_z, top_p = map(max, zip(*f.terms))
    powers, sd = [{(0, 0): 1}, {m: -c for m, c in s.terms.items()}], s.den
    while s.terms and len(powers) <= top_p:
        _charge(len(s.terms) * len(powers[-1]))
        powers.append(_mul_terms(powers[1], powers[-1]))
    kn, an, ad, bn, bd = k.numerator, r1.numerator, r1.denominator, r2.numerator, r2.denominator
    unscaled = an == ad == bn == bd == 1
    out: dict = {}
    get = out.get
    for (i, j), c in f.terms.items():
        c *= kn if unscaled else kn * an**i * ad ** (top_z - i) * bn**j * bd ** (top_p - j)
        for t, power in enumerate(powers[: j + 1]):
            ct = c * comb(j, t) * sd ** (top_p - t)
            for (e, _), cs in power.items():
                mono = (i + e, j - t)
                v = get(mono, 0) + ct * cs
                if v:
                    out[mono] = v
                else:
                    del out[mono]
    den = k.denominator * f.den * ad**top_z * (bd * sd) ** top_p
    if plus.terms:
        den, out = _add_terms(den, out, plus.den, plus.terms, 1)
    return _form(ZP, den, out)


def make_context(P: Poly, d: Poly | None = None, deg_max: int = 4) -> DeltaContext:
    """Build and verify a context for the kernel generator P (and factor d).

    Runs the plinth search with kernel generators [z, P], forms the
    complement from its output, and checks what the construction does not
    prove; any failure raises ContextError with the offending fact.  D' is
    certified by its series; D = d D' needs none, as d in ker D' gives
    (dD')^k = d^k D'^k.  Facts the construction proves are not checked;
    with delta(p) = {p, .} for {f, g} = f_x g_y - f_y g_x (z a constant):
      D'(P) = {P, P} = 0, and D'(z) = 0 as delta has zero z-image;
      a' != 0 and D'(Q) = a' hold by plinth_search's construction;
      E(P) = {Q, P} = -D'(Q) = -a';
      [D', E] = delta({P, Q}) by Jacobi, = delta(a') = 0 as a' lies in Q[z].
    """
    P = P.to_ring(XYZ)
    if d is None:
        d = Poly.one(XYZ)
    d = d.to_ring(XYZ)
    if not is_univariate_in(d, "z") or d.is_zero():
        raise ContextError(f"modification factor must be a nonzero element of Q[z]: {d}")
    if max(P.degree_in("x"), P.degree_in("y")) < 1:
        raise ContextError("P must have positive degree in (x, y)")
    d_prime = delta(P)
    if not is_locally_nilpotent(d_prime).is_nilpotent:
        raise ContextError("no nilpotency certificate for the derivation of P")
    q_poly, a_prime = plinth_search(d_prime, [Poly.variable(XYZ, "z"), P], deg_max)
    if not is_univariate_in(a_prime, "z"):
        raise ContextError(f"plinth generator is not in Q[z]: {a_prime}")
    e_der = delta(q_poly)
    for ok, fact in (
        (is_irreducible(d_prime), "D' irreducible"),
        (is_irreducible(e_der), "E irreducible"),
    ):
        if not ok:
            raise ContextError(f"context invariant failed: {fact}")
    try:
        e_aut = exponential(e_der)
    except NotLocallyNilpotentError:
        raise ContextError("context invariant failed: E locally nilpotent") from None
    return DeltaContext(
        P=P,
        d=d,
        Q=q_poly,
        a_prime=a_prime,
        D_prime=d_prime,
        E=e_der,
        D=Derivation(*(d * img for img in d_prime.images)),
        e=e_aut,
        P_powers=[{(0, 0, 0): 1}],
    )


# -- moving between the abstract kernel ring and the ambient ring -------------


def expand_kernel_poly(ctx: DeltaContext, f: Poly) -> Poly:
    """Substitute the actual z and P for the kernel variables: over f.den *
    P.den^J, J the top P-degree, each term c z^i P^j adds c P.den^(J - j) z^i
    times the tabled P^j, whose growth charges an armed ALLOWANCE."""
    f = f.to_ring(ZP)
    powers, top, den = ctx.P_powers, max((j for _, j in f.terms), default=0), ctx.P.den
    while len(powers) <= top:
        _charge(len(ctx.P.terms) * len(powers[-1]))
        powers.append(_mul_terms(ctx.P.terms, powers[-1]))
    out: dict = {}
    for (i, j), c in f.terms.items():
        shifted = {(a, b, e + i): cp for (a, b, e), cp in powers[j].items()}
        _add_terms(1, out, 1, shifted, c * den ** (top - j))
    return _form(XYZ, f.den * den**top, out)


def express_in_zp(ctx: DeltaContext, g: Poly) -> Poly:
    """Write an ambient kernel element as a polynomial in (z, P), by peeling
    with the complement E.

    E(z) = 0 and E(P) = -a', so on Q[z, P] E acts as -a' d/dP: if g has
    P-degree n with top coefficient c_n in Q[z], then E^(n+1)(g) = 0 and
    E^n(g) = n! (-a')^n c_n.  Dividing that out gives c_n; subtracting
    c_n P^n lowers the E-order, so at most n + 1 peels reach zero and the
    result reproduces g exactly.  A failed division, or a c_n outside Q[z],
    shows g is not in Q[z, P] and raises NotInNError.
    """
    pv = Poly.variable(ZP, "P")
    out = Poly.zero(ZP)
    remainder = g.to_ring(XYZ)
    while not remainder.is_zero():
        top, n = remainder, 0
        step = apply(ctx.E, top)
        while not step.is_zero():
            top, n = step, n + 1
            step = apply(ctx.E, top)
        try:
            c = divide_exact(top, (-ctx.a_prime) ** n) * Fraction(1, factorial(n)) if n else top
        except NonDivisibleError:
            raise NotInNError(f"{g} is not a polynomial in z and P") from None
        if not is_univariate_in(c, "z"):
            raise NotInNError(f"{g} is not a polynomial in z and P")
        term = c.to_ring(ZP) * pv**n
        out = out + term
        remainder = remainder - expand_kernel_poly(ctx, term)
    return out


# -- the group law -------------------------------------------------------------


def n_mul(lhs: NElem, rhs: NElem, ctx: DeltaContext) -> NElem:
    """(h, f) . (hb, fb) = (h + hb, f(P - hb a') + fb)."""
    return NElem(lhs.h + rhs.h, shift_in_P(lhs.f, rhs.h * ctx.a_prime_zp(), rhs.f))


def m_derivation(ctx: DeltaContext, n: NElem) -> Derivation:
    """The derivation h E + f D' with f expanded: each image h E_v + f D'_v
    accumulates on int numerators, each product charged as a Poly product."""
    h, f = n.h.to_ring(XYZ), expand_kernel_poly(ctx, n.f)
    images = []
    for ei, di in zip(ctx.E.images, ctx.D_prime.images):
        out, den = {}, lcm(h.den * ei.den, f.den * di.den)
        for c, img in ((h, ei), (f, di)):
            _charge(len(c.terms) * len(img.terms))
            scale, a = den // (c.den * img.den), c.terms
            _mul_terms({m: x * scale for m, x in a.items()} if scale > 1 else a, img.terms, out)
        images.append(_form(XYZ, den, out))
    return Derivation(*images)


def n_to_aut(n: NElem, ctx: DeltaContext) -> Automorphism:
    """Realize (h, f) as h.e o f.u' (E_OUTER, see the module docstring).

    The pullbacks are produced by the terminating exp-series of the two
    modification factors (equal to composing the modifications, with no
    intermediate power blowup); the inverse slot holds a thunk realizing the
    reversed word with negated derivations.
    """
    h_amb = n.h.to_ring(XYZ)
    f_amb = expand_kernel_poly(ctx, n.f)
    word = _realization_word(ctx, h_amb, f_amb)
    fwd = compose_exp_word(word)
    fwd._inverse = lambda: compose_exp_word(
        [scale(Fraction(-1), w) for w in reversed(word)]
    )
    return fwd


def compose_with_family(g: Automorphism, n: NElem, ctx: DeltaContext) -> Automorphism:
    """compose(g, n_to_aut(n)) with the inner factor applied as exp-series.

    Identical to the generic composition (the series is the pullback of the
    realized automorphism) but avoids expanding powers of large images.
    """
    f_amb = expand_kernel_poly(ctx, n.f)
    word = _realization_word(ctx, n.h.to_ring(XYZ), f_amb)
    return compose_exp_word([g, *word])


def _recover_pair(g: Automorphism, ctx: DeltaContext) -> NElem:
    """The pair (h, f) that g realizes if g lies in N; uncertified.

    h = (P - g*(P)) / a' must lie in Q[z].  The pullback of h.e o f.u' is
    exp(fD') exp(hE) as ring maps (see the module docstring), and exp(hE)
    fixes Q: E = delta(Q) kills Q and h in Q[z] lies in ker E.  So g*(Q) =
    exp(fD')(Q) = Q + f a' (D'(Q) = a' lies in ker D'), and f is
    (g*(Q) - Q) / a', which must lie in Q[z, P]; stripping h.e from g first
    would leave g*(Q) unchanged for every g.  That also puts f in ker D'
    with no check by D': express_in_zp either raises NotInNError or
    rebuilds f exactly in Q[z, P], which lies inside ker D'.  Failures raise
    NotInNError; each caller certifies a success once.
    """
    moved = ctx.P - pullback(g, ctx.P)
    try:
        h_amb = divide_exact(moved, ctx.a_prime)
    except NonDivisibleError:
        raise NotInNError("P-shift is not divisible by the plinth generator") from None
    if not is_univariate_in(h_amb, "z"):
        raise NotInNError("P-shift quotient does not lie in Q[z]")
    shift = pullback(g, ctx.Q) - ctx.Q
    try:
        f_amb = divide_exact(shift, ctx.a_prime)
    except NonDivisibleError:
        raise NotInNError("residual is not a modification of u'") from None
    return NElem(h_amb.to_ring(ZP), express_in_zp(ctx, f_amb))


def aut_to_n(g: Automorphism, ctx: DeltaContext) -> NElem:
    """Recover (h, f) from g, or raise NotInNError if g is not in N; the
    certificate is that the recovered pair realizes g again."""
    result = _recover_pair(g, ctx)
    if n_to_aut(result, ctx) != g:
        raise NotInNError("recovered pair fails to reproduce the automorphism")
    return result


def exp_m_decompose(n: NElem, ctx: DeltaContext) -> Poly:
    """Split Exp(h E + f D') as h.e composed with a modification of u'.

    Returns the factor g in (z, P) with Exp(hE + fD') realized by the pair
    (h, g); the derivation is exponentiated directly by its series, so this
    realizes membership of the exponential in N.  The recovered pair keeps
    h with no check: (hE + fD')(P) = -h a' lies in Q[z], inside both
    kernels, so Exp(hE + fD')*(P) = P - h a'.  The certificate is that the
    recovered pair recomposes to the exponential.
    """
    big = exponential(m_derivation(ctx, n))
    try:
        pair = _recover_pair(big, ctx)
    except NotInNError as exc:
        raise VerificationError(str(exc)) from None
    if n_to_aut(pair, ctx) != big:
        raise VerificationError("decomposition does not recompose")
    return pair.f


class IrreducibilityReport(NamedTuple):
    gcd_hf: Poly  # gcd of the pair in Q[z, P]
    combined_content: Poly  # gcd of the generator images of h E + f D'
    criterion_applies: bool  # gcd(h, f) = 1
    combined_irreducible: bool | None  # set when the criterion applies
    content_matches: bool  # expanded gcd equals the content (up to monic)

    @property
    def holds(self) -> bool:
        if self.criterion_applies:
            return bool(self.combined_irreducible)
        return self.content_matches


def irreducibility_criterion_check(ctx: DeltaContext, n: NElem) -> IrreducibilityReport:
    """gcd(h, f) = 1 forces irreducibility of h E + f D'; otherwise the gcd
    is exactly the content of the combined derivation.

    For nonconstant g = gcd(h, f), w1 = (h/g) E + (f/g) D' with exact
    cofactors in Q[z, P].  Expansion is a ring homomorphism, so h E + f D' =
    expand(g) w1; gcd_many and products of monic polynomials are monic, so
    the content is the monic expansion of g times gcd_many(w1's images);
    those are usually coprime, which modular images certify.
    """
    g = gcd_multivariate(n.h, n.f) if n.h.terms or n.f.terms else n.f
    if g.is_constant():
        w = m_derivation(ctx, n)
        if w.is_zero():
            raise ValueError("zero combined derivation")
        content = gcd_many(w.images)
        irreducible = content.is_constant()
        return IrreducibilityReport(g, content, True, irreducible, irreducible)
    w1 = m_derivation(ctx, NElem(divide_exact(n.h, g), divide_exact(n.f, g)))
    expanded = expand_kernel_poly(ctx, g).monic()
    content = expanded * gcd_many(w1.images)
    return IrreducibilityReport(g, content, False, None, expanded == content)


class AdIdentityReport(NamedTuple):
    failures: tuple[int, ...]  # bracket powers where the identity failed

    @property
    def holds(self) -> bool:
        return not self.failures


def ad_identity_check(ctx: DeltaContext, h: Poly, f: Poly, q_max: int) -> AdIdentityReport:
    """Iterated bracket identity: (f D') ad(h E)^q = (-1)^q h^q E^q(f) D'."""
    if q_max < 0:
        raise ValueError("q_max must be non-negative")
    h_amb = h.to_ring(XYZ)
    f_amb = expand_kernel_poly(ctx, f) if f.vars == ZP else f.to_ring(XYZ)
    he = scale_poly(h_amb, ctx.E)
    current = scale_poly(f_amb, ctx.D_prime)
    e_power_f = f_amb
    failures = []
    for q in range(q_max + 1):
        sign = Fraction(1) if q % 2 == 0 else Fraction(-1)
        expected = scale_poly(h_amb**q * e_power_f * sign, ctx.D_prime)
        if current.images != expected.images:
            failures.append(q)
        current = lie_bracket(current, he)
        e_power_f = apply(ctx.E, e_power_f)
    return AdIdentityReport(tuple(failures))
