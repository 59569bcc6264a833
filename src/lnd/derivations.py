"""Derivations of Q[x, y, z]: nilpotency evidence, exp/log, plinth search.

A derivation is determined by its images on the generators and extends by
the Leibniz rule.  Local nilpotency is semi-decidable: iterating on the
generators either reaches zero (a certificate, since the locally nilpotent
elements form a subalgebra) or the budget runs out and the verdict is
"inconclusive" - never "not locally nilpotent".
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial
from typing import NamedTuple

from . import linalg
from .arith import (
    XYZ,
    ALLOWANCE,
    Poly,
    WorkBudgetExceeded,
    divide_exact,
    gcd_many,
    grlex_key,
    substitute,
)
from .automorphisms import Automorphism, identity
from .errors import (
    NotInKernelError,
    NotLocallyNilpotentError,
    NotUnipotentError,
    RingMismatchError,
    SearchExhaustedError,
    Validated,
    VerificationError,
)

# The two bounds of every series (exp, log, nilpotency): at most DEFAULT_CAP
# steps, and at most WORK_BUDGET term pairs of Poly multiplication.
DEFAULT_CAP = 64
WORK_BUDGET = 2_000_000


class _Derivation(NamedTuple):
    image_x: Poly
    image_y: Poly
    image_z: Poly


class Derivation(Validated, _Derivation):
    """Images of the generators x, y, z; extends via the Leibniz rule."""

    __slots__ = ()

    def __new__(cls, image_x: Poly, image_y: Poly, image_z: Poly):
        images = (image_x, image_y, image_z)
        for img in images:
            if img.vars != XYZ:
                raise RingMismatchError("derivation images must live in (x, y, z)")
        return tuple.__new__(cls, images)

    @property
    def images(self) -> tuple[Poly, Poly, Poly]:
        return (self.image_x, self.image_y, self.image_z)

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def __str__(self) -> str:
        return f"(x -> {self.image_x}; y -> {self.image_y}; z -> {self.image_z})"


def derivation(image_x, image_y, image_z) -> Derivation:
    return Derivation(image_x.to_ring(XYZ), image_y.to_ring(XYZ), image_z.to_ring(XYZ))


def apply(d: Derivation, p: Poly) -> Poly:
    """Leibniz-rule extension: sum of image_v * dp/dv."""
    p = p.to_ring(XYZ)
    present = p.variables_present()
    terms = [img * p.partial_derivative(v) for img, v in zip(d.images, XYZ)
             if v in present and not img.is_zero()]
    return sum(terms[1:], terms[0]) if terms else Poly.zero(XYZ)


def add(d: Derivation, e: Derivation) -> Derivation:
    return Derivation(*(a + b for a, b in zip(d.images, e.images)))


def scale(c: Fraction | int, d: Derivation) -> Derivation:
    return Derivation(*(img * c for img in d.images))


def scale_poly(f: Poly, d: Derivation) -> Derivation:
    f = f.to_ring(XYZ)
    return Derivation(*(f * img for img in d.images))


def lie_bracket(d: Derivation, e: Derivation) -> Derivation:
    """[d, e] via generator images d(e(v)) - e(d(v))."""
    images = []
    for v in XYZ:
        var = Poly.variable(XYZ, v)
        images.append(apply(d, apply(e, var)) - apply(e, apply(d, var)))
    return Derivation(*images)


def delta(p: Poly) -> Derivation:
    """The Jacobian-type derivation -p_y d/dx + p_x d/dy (kills z and p)."""
    p = p.to_ring(XYZ)
    return Derivation(
        -p.partial_derivative("y"), p.partial_derivative("x"), Poly.zero(XYZ)
    )


def _series(step, p: Poly, weights, what: str, error: type) -> tuple[Poly, int]:
    """Sum of weights[k] * step^k(p) over k >= 0, and the order n with
    step^n(p) = 0; `weights` None skips the sum.

    Two bounds make every series stop: n may not exceed DEFAULT_CAP, and the
    Poly products of the whole series may spend at most WORK_BUDGET term
    pairs.  Either raises `error`, naming the bound, `what` and the step.
    """
    total = Poly.zero(p.vars)
    term, k = p, 0
    token = ALLOWANCE.set([WORK_BUDGET])
    try:
        while not term.is_zero():
            if k == DEFAULT_CAP:
                raise error(f"{what} exceeded the step cap of {k} (step {k + 1})")
            c = weights[k] if weights else 0
            if c:
                c_term = term if c == 1 else term * c
                total = c_term if total.is_zero() else total + c_term
            k += 1
            term = step(term)
    except WorkBudgetExceeded:
        raise error(
            f"{what} exceeded the work budget of {WORK_BUDGET} term pairs (step {k})"
        ) from None
    finally:
        ALLOWANCE.reset(token)
    return total, k


_EXP_WEIGHTS = tuple(Fraction(1, factorial(k)) for k in range(DEFAULT_CAP))
_LOG_WEIGHTS = (0,) + tuple(Fraction((-1) ** (k + 1), k) for k in range(1, DEFAULT_CAP))


class NilpotencyEvidence(NamedTuple):
    status: str  # "nilpotent" | "inconclusive"
    vanishing_orders: tuple[int, int, int] | None

    @property
    def is_nilpotent(self) -> bool:
        return self.status == "nilpotent"


def is_locally_nilpotent(d: Derivation) -> NilpotencyEvidence:
    """Nilpotency certificate from each generator's d-series, or "inconclusive"."""
    try:
        orders = tuple(
            _series(partial(apply, d), Poly.variable(XYZ, v), None,
                    f"d-series on {v}", NotLocallyNilpotentError)[1]
            for v in XYZ
        )
    except NotLocallyNilpotentError:
        return NilpotencyEvidence("inconclusive", None)
    return NilpotencyEvidence("nilpotent", orders)


def exponential(d: Derivation) -> Automorphism:
    """The automorphism with pullbacks sum_i d^i(v)/i!; inverse is exp(-d).

    The series on each generator is its own nilpotency certificate; if a
    series bound stops it first, this raises NotLocallyNilpotentError.
    """
    return _exponential_with_orders(d)[0]


def _exponential_with_orders(d: Derivation) -> tuple[Automorphism, tuple[int, int, int]]:
    """exponential(d) and the vanishing order of d on each generator, the
    step at which its series stopped."""
    series = [
        _series(partial(apply, d), Poly.variable(XYZ, v), _EXP_WEIGHTS,
                f"exp-series on {v}", NotLocallyNilpotentError)
        for v in XYZ
    ]
    fwd = Automorphism(*(pullback for pullback, _ in series))
    fwd._inverse = lambda: exponential(scale(Fraction(-1), d))
    return fwd, tuple(order for _, order in series)


def apply_exp(w: Derivation, p: Poly) -> Poly:
    """e^w(p) = sum w^k(p)/k!, the pullback of exponential(w) applied to p.

    Equal to substituting the pullbacks of exponential(w) into p (both are
    ring homomorphisms agreeing on generators), but far cheaper on large p
    because no intermediate powers are formed.
    """
    return _series(partial(apply, w), p, _EXP_WEIGHTS, "exp-series",
                   NotLocallyNilpotentError)[0]


def compose_exp_word(word: list) -> Automorphism:
    """Compose a word of factors, each an Automorphism or a Derivation.

    A Derivation factor stands for its exponential.  The word [a, b, c]
    denotes a o b o c (c acts first on points); pullbacks are applied left
    to right, each exponential factor through its terminating series.
    """
    images = []
    for v in XYZ:
        p = Poly.variable(XYZ, v)
        for item in word:
            if isinstance(item, Derivation):
                p = apply_exp(item, p)
            else:
                p = substitute(p, item.pullbacks)
        images.append(p)
    return Automorphism(*images)


def logarithm(u: Automorphism) -> Derivation:
    """The derivation with exponential(log u) = u, via log(id + (u* - id)).

    Per generator the series sum (-1)^(k+1) (u* - id)^k / k terminates when
    u is unipotent; the series bounds stop it on impostors, raising
    NotUnipotentError (never a wrong answer: the round-trip is verified).
    """
    d = Derivation(*(
        _series(lambda q: substitute(q, u.pullbacks) - q, Poly.variable(XYZ, v),
                _LOG_WEIGHTS, f"(u* - id)-series on {v}", NotUnipotentError)[0]
        for v in XYZ
    ))
    try:
        back = exponential(d)
    except NotLocallyNilpotentError:
        back = None
    if back != u:
        raise NotUnipotentError("logarithm round-trip failed: u is not unipotent")
    return d


def is_irreducible(d: Derivation) -> bool:
    """True iff the gcd of the generator images is a constant."""
    if d.is_zero():
        raise ValueError("the zero derivation has no irreducibility status")
    return gcd_many(d.images).is_constant()


# -- bounded linear-algebra searches ------------------------------------------


def _monomials_up_to(deg: int) -> list[tuple[int, int, int]]:
    out = [
        (i, j, k)
        for i in range(deg + 1)
        for j in range(deg + 1 - i)
        for k in range(deg + 1 - i - j)
    ]
    out.sort(key=grlex_key, reverse=True)
    return out


def _poly_rows(polys: list[Poly]) -> tuple[list[tuple[int, ...]], list[list[Fraction]]]:
    """Coefficient rows of the polys over their joint support, descending grlex."""
    monomials = sorted(
        {m for p in polys for m in p.terms}, key=grlex_key, reverse=True
    )
    zero = Fraction(0)
    coeffs = [p.coefficients() for p in polys]
    return monomials, [[c.get(m, zero) for m in monomials] for c in coeffs]


def _echelon_polys(polys: list[Poly]) -> list[Poly]:
    """RREF of the span, as polynomials, pivots on the largest grlex monomials.

    Every nonzero element of the span has its leading monomial among the
    pivot monomials, so the last row realizes the minimal achievable leading
    monomial (hence minimal total degree, since graded-lex refines degree).
    """
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return []
    ring = nonzero[0].vars
    monomials, rows = _poly_rows(nonzero)
    reduced, _ = linalg.rref(rows)
    return [
        Poly(ring, {m: c for m, c in zip(monomials, row) if c}) for row in reduced
    ]


def _reduce_against(p: Poly, echelon: list[Poly]) -> Poly:
    """Eliminate the pivot monomials of an echelon basis from p."""
    for row in echelon:
        lead = row.leading_monomial()
        coeff = p.coefficient(lead)
        if coeff:
            p = p - row * (coeff / row.leading_coeff())
    return p


def plinth_search(
    d: Derivation, kernel_gens: list[Poly], deg_max: int
) -> tuple[Poly, Poly]:
    """Find (Q, a) with d(Q) = a, a a nonzero combination of products of the
    kernel generators, minimizing the total degree of a.

    Exact linear algebra over the monomial coefficients: the achievable a
    form a subspace; echelonizing it with pivots on the largest graded-lex
    monomials makes the last row the canonical minimal representative
    (monic).  Q is then the particular solution, reduced modulo bounded
    kernel elements, so the output is deterministic.

    The caller supplies generators of ker d, which are spot-checked.
    """
    from .automorphisms import kernel_products

    gens = [g.to_ring(XYZ) for g in kernel_gens]
    for g in gens:
        if not apply(d, g).is_zero():
            raise NotInKernelError(f"claimed kernel generator {g} has d(g) != 0")
    if d.is_zero():
        raise SearchExhaustedError("the zero derivation has no plinth element")
    image_deg = max(img.total_degree() for img in d.images if not img.is_zero())
    a_bound = max(deg_max - 1 + image_deg, 0)
    q_monomials = _monomials_up_to(deg_max)
    d_of_q = [apply(d, Poly(XYZ, {m: Fraction(1)})) for m in q_monomials]
    products = kernel_products(gens, a_bound) if gens else []
    if not products:
        products = [((), Poly.one(XYZ))]
    # Unknowns: q-coefficients then combination coefficients; rows demand
    # d(Q) - sum c_e K_e = 0, one per monomial of the joint support.
    _, columns = _poly_rows(d_of_q + [-kp for _, kp in products])
    basis = linalg.nullspace(list(zip(*columns)), len(columns))
    candidates = []
    for vec in basis:
        a_poly = Poly.zero(XYZ)
        for (_, kp), coeff in zip(products, vec[len(q_monomials):]):
            if coeff:
                a_poly = a_poly + kp * coeff
        candidates.append(a_poly)
    achievable = _echelon_polys(candidates)
    if not achievable:
        raise SearchExhaustedError(
            f"no plinth element with deg(Q) <= {deg_max}; raise the bound"
        )
    a = achievable[-1].monic()
    # Particular solution with d(Q) = a: solve for a combination of the
    # nullspace basis whose a-part equals a.
    monomials, rows_a = _poly_rows(candidates + [a])
    coeff_rows = [list(col) for col in zip(*rows_a[:-1])] if candidates else []
    target = [a.coefficient(m) for m in monomials]
    combo = linalg.solve(coeff_rows, target)
    if combo is None:
        raise VerificationError("echelon element not reachable (internal)")
    q_poly = Poly.zero(XYZ)
    for vec, c in zip(basis, combo):
        if c:
            for mono, qc in zip(q_monomials, vec[: len(q_monomials)]):
                if qc:
                    q_poly = q_poly + Poly(XYZ, {mono: qc * c})
    # Canonicalize Q modulo bounded kernel elements (solutions of d(Q) = 0).
    kernel_polys = []
    for vec, a_poly in zip(basis, candidates):
        if a_poly.is_zero():
            kq = Poly.zero(XYZ)
            for mono, qc in zip(q_monomials, vec[: len(q_monomials)]):
                if qc:
                    kq = kq + Poly(XYZ, {mono: qc})
            if not kq.is_zero():
                kernel_polys.append(kq)
    q_poly = _reduce_against(q_poly, _echelon_polys(kernel_polys))
    if apply(d, q_poly) != a:
        raise VerificationError("plinth search produced an inconsistent pair")
    return q_poly, a


def preslice_search(d: Derivation, deg_max: int) -> Poly:
    """A polynomial f with d(f) != 0 and d(d(f)) = 0, degree <= deg_max.

    Smallest-leading-monomial representative of the bounded solution space,
    reduced modulo bounded kernel elements and normalized monic.
    """
    if d.is_zero():
        raise ValueError("the zero derivation admits no preslice")
    monomials = _monomials_up_to(deg_max)
    basis_polys = [Poly(XYZ, {m: Fraction(1)}) for m in monomials]
    second = [apply(d, apply(d, p)) for p in basis_polys]
    _, columns = _poly_rows(second)
    null = linalg.nullspace(list(zip(*columns)), len(monomials))
    solutions = []
    for vec in null:
        q = Poly(XYZ, {m: c for m, c in zip(monomials, vec) if c})
        solutions.append(q)
    first_kernel = _echelon_polys([q for q in solutions if apply(d, q).is_zero()])
    for q in reversed(_echelon_polys(solutions)):
        if not apply(d, q).is_zero():
            return _reduce_against(q, first_kernel).monic()
    raise SearchExhaustedError(f"no preslice of degree <= {deg_max}")


def standard_decomposition(u: Automorphism) -> tuple[Poly, Automorphism]:
    """Split a unipotent u as d . u' with u' irreducible and d invariant.

    d is the monic gcd of the generator images of log(u); each image divides
    exactly; the stripped derivation must be locally nilpotent and
    irreducible.  d . u' = u needs no separate check: logarithm certified
    exp(log u) = u, and the exact divisions make d * stripped = log u.
    """
    if u == identity():
        raise ValueError("the identity has no standard decomposition")
    d_log = logarithm(u)
    d = gcd_many(d_log.images)
    stripped = Derivation(
        *(
            divide_exact(img, d) if not img.is_zero() else img
            for img in d_log.images
        )
    )
    if not apply(d_log, d).is_zero():
        raise VerificationError("content of the log images is not invariant")
    try:
        u_prime = exponential(stripped)
    except NotLocallyNilpotentError:
        raise VerificationError("stripped derivation lost local nilpotency") from None
    if not is_irreducible(stripped):
        raise VerificationError("stripped derivation is not irreducible")
    return d, u_prime


class SatReport(NamedTuple):
    """Result of a saturation instance check on ([f F, B], B(f), [F, B])."""

    bracket_is_zero: bool
    conclusions_hold: bool | None  # None when the bracket is an obstruction
    bracket: Derivation
    b_of_f: Poly
    fb_bracket: Derivation
    identity_holds: bool  # [fF, B] = f [F, B] - B(f) F, always expected


def sat_instance_check(b: Derivation, f_der: Derivation, f: Poly) -> SatReport:
    """Evaluate [f.F, B]; zero forces B(f) = 0 and [F, B] = 0, else report
    the obstruction.  Requires F locally nilpotent and f in ker F."""
    f = f.to_ring(XYZ)
    if not is_locally_nilpotent(f_der).is_nilpotent:
        raise NotLocallyNilpotentError("F needs a nilpotency certificate")
    if not apply(f_der, f).is_zero():
        raise NotInKernelError("f is not in ker F")
    bracket = lie_bracket(scale_poly(f, f_der), b)
    b_of_f = apply(b, f)
    fb = lie_bracket(f_der, b)
    expected = Derivation(
        *(
            f * i - b_of_f * j
            for i, j in zip(fb.images, f_der.images)
        )
    )
    identity_holds = bracket.images == expected.images
    if bracket.is_zero():
        conclusions = b_of_f.is_zero() and fb.is_zero()
        return SatReport(True, conclusions, bracket, b_of_f, fb, identity_holds)
    return SatReport(False, None, bracket, b_of_f, fb, identity_holds)
