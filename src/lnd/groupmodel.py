"""The abstract group T x| (A x| A[P]) and its commutator calculus.

Elements are triples (torus point, h, f) with h in Q[z] and f in Q[z, P].
The fiber multiplies by the shifted product law

    (h, f) . (hb, fb) = (h + hb, f(P - hb a') + fb)

and the torus conjugates the fiber term by term through characters: mu and
rho1, rho2 scale f (value and the two coordinates), nu scales h.  Only the action on
the f-part is forced by the concrete realizations; the nu-extension on the
h-part is a declared model.  Conjugation must be an automorphism of the shifted fiber
product, which forces rho1^m = rho2 * nu for every exponent m in the
support of a' (so a' must be a z-monomial once rho1 is nontrivial); the
default nu = rho1^deg(a') / rho2 is the unique compatible choice and is the
one realized by diagonal torus elements acting on the concrete family.

The commutator is [a, b] = a b a^-1 b^-1 for every law, as for
automorphisms.  On elements with the unit torus point the torus acts
trivially, so the derived-subgroup identity [(1,0,q), (1,h0,f0)] =
(1, 0, q - q(P + h0 a')) follows from the fiber law alone, whatever the
characters.

The law runs on int numerator maps through one fiber kernel shared with
n_mul, delta_family.shift_in_P: k f(r1 z, r2 (P - s)) + g with s = hb a' and
k, r1, r2 the characters at the torus point, none evaluated at the unit
point.  Its elements skip GElem's validation: nu h(r1 z) + hb stays in Q[z],
and products and inverses of nonzero torus points are nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .arith import XYZ, ZP, Poly, _raw, is_univariate_in
from .automorphisms import Automorphism, commutes, compose, inverse, modification, mu_character
from .delta_family import expand_kernel_poly, n_elem, n_to_aut, shift_in_P
from .derivations import apply, logarithm, scale_poly
from .errors import LawHypothesisError, RingMismatchError, Validated

# First distinct primes; a torus point with these coordinates kills a
# character exactly when its exponent vector is zero.
_PRIMES = (2, 3, 5, 7, 11, 13)
_ZERO = Poly.zero(ZP)


class CharacterVector(NamedTuple):
    """A torus character by its exponent tuple; evaluation is the monomial."""

    exponents: tuple[int, ...]

    @lru_cache(maxsize=4096)
    def evaluate(self, point: tuple[Fraction, ...]) -> Fraction:
        if len(point) != len(self.exponents):
            raise ValueError("torus point has the wrong rank")
        value = Fraction(1)
        for coord, e in zip(point, self.exponents):
            coord = Fraction(coord)
            if coord == 0:
                raise ValueError("torus points have nonzero coordinates")
            value *= coord**e
        return value

    def __add__(self, other: "CharacterVector") -> "CharacterVector":
        return CharacterVector(
            tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __mul__(self, k: int) -> "CharacterVector":
        return CharacterVector(tuple(k * e for e in self.exponents))

    __rmul__ = __mul__  # not tuple repetition


class _GroupLaw(NamedTuple):
    mu: CharacterVector
    rho1: CharacterVector
    rho2: CharacterVector
    nu: CharacterVector
    a_prime: Poly  # in the (z, P) ring, z only


class GroupLaw(Validated, _GroupLaw):
    """Characters and plinth generator fixing the semidirect product."""

    __slots__ = ()

    def __new__(cls, mu, rho1, rho2, nu, a_prime: Poly):
        ranks = {len(c.exponents) for c in (mu, rho1, rho2, nu)}
        if len(ranks) != 1:
            raise ValueError("character vectors have mixed ranks")
        if a_prime.vars != ZP or not is_univariate_in(a_prime, "z"):
            raise RingMismatchError("a' must be a z-polynomial in the (z, P) ring")
        if a_prime.is_zero():
            raise ValueError("a' must be nonzero")
        # Associativity of the semidirect product: conjugation by the torus
        # must respect the shifted fiber law, i.e. a'(rho1 z) = rho2 nu a'.
        target = rho2 + nu
        for mono in a_prime.terms:
            if rho1 * sum(mono) != target:
                raise LawHypothesisError(
                    "incompatible law: rho1^m != rho2 * nu on the support of a'"
                )
        return tuple.__new__(cls, (mu, rho1, rho2, nu, a_prime))

    @property
    def rank(self) -> int:
        return len(self.mu.exponents)


def make_group_law(mu, rho1, rho2, a_prime: Poly, nu=None) -> GroupLaw:
    """Build a law from exponent lists; nu defaults to rho1^deg(a') / rho2,
    the unique choice compatible with the shifted fiber law."""
    mu = CharacterVector(tuple(mu))
    rho1 = CharacterVector(tuple(rho1))
    rho2 = CharacterVector(tuple(rho2))
    a_prime = a_prime.to_ring(ZP)
    if nu is None:
        nu_vec = rho1 * max(a_prime.total_degree(), 0) + rho2 * (-1)
    else:
        nu_vec = CharacterVector(tuple(nu))
    return GroupLaw(mu, rho1, rho2, nu_vec, a_prime)


class _GElem(NamedTuple):
    torus: tuple[Fraction, ...]
    h: Poly
    f: Poly


class GElem(Validated, _GElem):
    """Group element (torus point; h; f); h in Q[z], f in Q[z, P]."""

    __slots__ = ()

    def __new__(cls, torus: tuple[Fraction, ...], h: Poly, f: Poly):
        if h.vars != ZP or f.vars != ZP:
            raise RingMismatchError("GElem components live in the (z, P) ring")
        if not is_univariate_in(h, "z"):
            raise ValueError("h component must lie in Q[z]")
        for coord in torus:
            if coord == 0:
                raise ValueError("torus coordinates must be nonzero")
        return tuple.__new__(cls, (torus, h, f))

    def __str__(self) -> str:
        torus = ", ".join(str(c) for c in self.torus)
        return f"({torus}; {self.h}; {self.f})"


def g_elem(torus, h, f) -> GElem:
    torus = tuple(Fraction(c) for c in torus)
    if not isinstance(h, Poly):
        h = Poly.const(ZP, h)
    if not isinstance(f, Poly):
        f = Poly.const(ZP, f)
    return GElem(torus, h.to_ring(ZP), f.to_ring(ZP))


def g_identity(law: GroupLaw) -> GElem:
    return g_elem((Fraction(1),) * law.rank, 0, 0)


def _is_unit(point: tuple[Fraction, ...]) -> bool:
    return point.count(1) == len(point)


@lru_cache(maxsize=4096)
def _fiber_scalars(law: GroupLaw, point: tuple[Fraction, ...]) -> tuple:
    """(mu, rho1, rho2, nu) at a torus point, cached per law and point."""
    return tuple(character.evaluate(point) for character in law[:4])


def g_mul(a: GElem, b: GElem, law: GroupLaw) -> GElem:
    """Semidirect product: torus parts multiply, the incoming torus
    conjugates the left fiber, fibers multiply by the shifted law."""
    if not len(a.torus) == len(b.torus) == law.rank:
        raise ValueError("element rank does not match the law")
    s = b.h * law.a_prime
    if _is_unit(b.torus):
        return tuple.__new__(GElem, (a.torus, a.h + b.h, shift_in_P(a.f, s, b.f)))
    mu, r1, r2, nu = _fiber_scalars(law, b.torus)
    torus = tuple(x * y for x, y in zip(a.torus, b.torus))
    h = shift_in_P(a.h, _ZERO, b.h, nu, r1)
    return tuple.__new__(GElem, (torus, h, shift_in_P(a.f, s, b.f, mu, r1, r2)))


def g_inverse(a: GElem, law: GroupLaw) -> GElem:
    """(lambda, h, f)^-1 = (lambda^-1, -nu h(r1 z), -mu f(r1 z, r2 (P - s))),
    characters at lambda^-1 and s the new h times a'."""
    if len(a.torus) != law.rank:
        raise ValueError("element rank does not match the law")
    if _is_unit(a.torus):
        point, mu, r1, r2, h = a.torus, 1, 1, 1, -a.h
    else:
        point = tuple(1 / Fraction(c) for c in a.torus)
        mu, r1, r2, nu = _fiber_scalars(law, point)
        h = shift_in_P(a.h, _ZERO, _ZERO, -nu, r1)
    f = shift_in_P(a.f, h * law.a_prime, _ZERO, -mu, r1, r2)
    return tuple.__new__(GElem, (point, h, f))


def commutator(a: GElem, b: GElem, law: GroupLaw) -> GElem:
    """[a, b] = a b a^-1 b^-1."""
    ai, bi = g_inverse(a, law), g_inverse(b, law)
    return g_mul(g_mul(g_mul(a, b, law), ai, law), bi, law)


# -- the presentation lemma ----------------------------------------------------


class PresWitness(NamedTuple):
    stage: int  # the P-power j of the generating z^i P^j
    power: int  # the z-power i actually used
    element: GElem


class CandidateVerdict(NamedTuple):
    candidate: GElem
    in_fiber: bool
    centralizes_all: bool
    failing_witness: PresWitness | None

    @property
    def consistent(self) -> bool:
        return self.in_fiber == self.centralizes_all


class PresLemmaReport(NamedTuple):
    witnesses: tuple[PresWitness, ...]
    verdicts: tuple[CandidateVerdict, ...]

    @property
    def holds(self) -> bool:
        return all(v.consistent for v in self.verdicts)


def _test_point(rank: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(p) for p in _PRIMES[:rank])


def verify_pres_lemma(
    law: GroupLaw, witnesses: Iterable[GElem], candidates: list[GElem]
) -> PresLemmaReport:
    """Mechanize the centralizer-of-second-derived-subgroup computation.

    From the first supplied first-derived witness (1, h0, f0) with h0 != 0
    (witnesses after it are never read, so they may come lazily), builds
    the three second-derived witness families

        (1, 0, -z^i h0 a'), (1, 0, -z^i h0 a' (2P + h0 a')),
        (1, 0, -z^i h0 a' (3P^2 + 3P h0 a' + (h0 a')^2))

    as honest commutators [(1, 0, z^i P^j), (1, h0, f0)].  "i sufficiently
    large" is resolved as: per stage j, the three smallest i <= 64 making
    the torus character mu rho1^i rho2^j nontrivial at the prime test point
    (several i per stage, because rational torus points of order two see
    only the parity of i).  A candidate must centralize every witness, c w
    == w c, exactly when its torus part is trivial and its h part vanishes.
    """
    point = _test_point(law.rank)
    if law.rho1.evaluate(point) == 1 and law.rho2.evaluate(point) == 1:
        raise LawHypothesisError(
            "rho1 and rho2 both vanish at the test point: kernel condition fails"
        )
    chosen: GElem | None = None
    for w in witnesses:
        if _is_unit(w.torus) and not w.h.is_zero():
            chosen = w
            break
    if chosen is None:
        raise LawHypothesisError("no supplied witness has trivial torus and h != 0")
    one = (Fraction(1),) * law.rank
    pv = Poly.variable(ZP, "P")
    h0a = chosen.h * law.a_prime
    closed_forms = {
        1: -h0a,
        2: -h0a * (pv * 2 + h0a),
        3: -h0a * (pv * pv * 3 + pv * h0a * 3 + h0a * h0a),
    }
    chosen_inverse = g_inverse(chosen, law)
    witness_elems: list[PresWitness] = []
    for j in (1, 2, 3):
        for i in _effective_powers(law, point, j):
            generator = GElem(one, _ZERO, _raw(ZP, 1, {(i, j): 1}))
            ab = g_mul(generator, chosen, law)
            w2 = g_mul(g_mul(ab, g_inverse(generator, law), law), chosen_inverse, law)
            expected = GElem(one, _ZERO, _raw(ZP, 1, {(i, 0): 1}) * closed_forms[j])
            if w2 != expected:
                raise LawHypothesisError(
                    f"derived witness for stage {j} disagrees with its closed form"
                )
            witness_elems.append(PresWitness(j, i, w2))
    verdicts = []
    for cand in candidates:
        failing = None
        for w2 in witness_elems:
            if g_mul(cand, w2.element, law) != g_mul(w2.element, cand, law):
                failing = w2
                break
        in_fiber = all(c == 1 for c in cand.torus) and cand.h.is_zero()
        verdicts.append(
            CandidateVerdict(cand, in_fiber, failing is None, failing)
        )
    return PresLemmaReport(tuple(witness_elems), tuple(verdicts))


# Stage j uses the first 3 powers z^i, i <= 64, where mu rho1^i rho2^j != 1.
_WITNESS_POWERS = 3
_POWER_CAP = 64


def _effective_powers(law: GroupLaw, point, j: int) -> list[int]:
    mu, rho1, rho2, _ = _fiber_scalars(law, point)
    num, den = (mu * rho2**j).as_integer_ratio()  # of mu rho1^i rho2^j, unreduced
    powers = []
    for i in range(_POWER_CAP + 1):
        if num != den:
            powers.append(i)
            if len(powers) == _WITNESS_POWERS:
                return powers
        num, den = num * rho1.numerator, den * rho1.denominator
    if powers:
        return powers
    raise LawHypothesisError(
        f"mu rho1^i rho2^{j} stays trivial for all i <= {_POWER_CAP}"
    )


def derived_witness(law: GroupLaw, h: Poly) -> GElem:
    """A first-derived element (1, h0, 0) built as a torus commutator."""
    torus_elem = GElem(_test_point(law.rank), Poly.zero(ZP), Poly.zero(ZP))
    fiber = GElem((Fraction(1),) * law.rank, h.to_ring(ZP), Poly.zero(ZP))
    return commutator(torus_elem, fiber, law)


# -- honest 3-space commutator checks ------------------------------------------


def aut_commutator(a: Automorphism, b: Automorphism) -> Automorphism:
    """[a, b] = a b a^-1 b^-1, as for group elements."""
    return compose(compose(a, b), compose(inverse(a), inverse(b)))


class CharCommutatorReport(NamedTuple):
    holds: bool
    lhs: Automorphism
    rhs: Automorphism
    expected_factor: Poly  # -2 h (a')^2 in the kernel ring


def char_commutator_check(ctx, h: Poly, f: Poly) -> CharCommutatorReport:
    """[h.e o f.u', [P^2.u', e]] = (-2 h (a')^2).u' via real compositions.

    Every factor is composed as an automorphism of 3-space; the right side
    is the predicted modification of u'."""
    n = n_elem(h, f)
    g = n_to_aut(n, ctx)
    p2 = expand_kernel_poly(ctx, Poly.variable(ZP, "P") ** 2)
    inner = aut_commutator(modification(p2, ctx.D_prime), ctx.e)
    lhs = aut_commutator(g, inner)
    factor = n.h * ctx.a_prime_zp() ** 2 * (-2)
    rhs = modification(expand_kernel_poly(ctx, factor), ctx.D_prime)
    return CharCommutatorReport(lhs == rhs, lhs, rhs, factor)


class NonfenceCommutatorReport(NamedTuple):
    holds: bool
    orientation: str  # "mu", "mu-inverse", or "none" when it fails
    scalar: Fraction
    lhs: Automorphism
    rhs: Automorphism


def nonfence_commutator_check(
    u_prime: Automorphism,
    d: Poly,
    t: Automorphism,
    f: Poly,
    v: Poly,
    k: int,
) -> NonfenceCommutatorReport:
    """[t o f.u', [t^-1, v^k.u']] = (1 - mu rho^k)(1 - (mu rho^k)^-1) v^k.u'.

    t must be diagonal on the declared quotient coordinates (checked through
    proportionality of pullbacks) and commute with the d-modification of u';
    f must be u'-invariant.  Commuting with d D' gives t* D' = D' t* / mu,
    so conjugation by t rescales exp(h D') to exp(t*(h) / mu D'), and all
    modifications of D' by invariants commute; the commutator is therefore
    exp((1 - 1/beta)(1 - beta) v^k D') with beta = rho^k / mu, and only
    that right side is built.  The orientation is "mu" (with gamma =
    mu rho^k's scalar) exactly when gamma's derivation equals beta's.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    d = d.to_ring(XYZ)
    f = f.to_ring(XYZ)
    v = v.to_ring(XYZ)
    d_prime = logarithm(u_prime)
    for name, p in (("d", d), ("f", f), ("v", v)):
        if not apply(d_prime, p).is_zero():
            raise ValueError(f"{name} is not invariant for u'")
    if not commutes(t, scale_poly(d, d_prime)):
        raise ValueError("t does not commute with the modified automorphism")
    mu_t = mu_character(t, d)
    rho_t = mu_character(t, v)
    t_inv = inverse(t)
    vk = v**k
    inner = aut_commutator(t_inv, modification(vk, d_prime))
    lhs = aut_commutator(compose(t, modification(f, d_prime)), inner)
    gamma = mu_t * rho_t**k
    beta = (Fraction(1) / mu_t) * rho_t**k
    scalar = (1 - Fraction(1) / beta) * (1 - beta)
    rhs = modification(vk * scalar, d_prime)
    gamma_scalar = (1 - Fraction(1) / gamma) * (1 - gamma)
    orientation = "mu-inverse"
    if scale_poly(vk * gamma_scalar, d_prime) == scale_poly(vk * scalar, d_prime):
        orientation, scalar = "mu", gamma_scalar
    if lhs != rhs:
        return NonfenceCommutatorReport(False, "none", scalar, lhs, rhs)
    return NonfenceCommutatorReport(True, orientation, scalar, lhs, rhs)
