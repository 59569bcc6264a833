"""Derivations of Q[x, y, z]: nilpotency evidence, exp/log, plinth search.

A derivation is determined by its images on the generators and extends by
the Leibniz rule.  Local nilpotency is semi-decidable: iterating on the
generators either reaches zero (a certificate, since the locally nilpotent
elements form a subalgebra) or the budget runs out and the verdict is
"inconclusive" - never "not locally nilpotent".

The bounded plinth search is one exact elimination of tagged coefficient
rows: blocks of monomial columns side by side, so the block a row's pivot
falls in says which subspace the row belongs to.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import linalg
from .arith import (
    XYZ,
    ALLOWANCE,
    Poly,
    WorkBudgetExceeded,
    _add_terms,
    _charge,
    _form,
    _mul_terms,
    divide_exact,
    gcd_many,
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


def apply(d: Derivation, p: Poly) -> Poly:
    """Leibniz-rule extension: sum of image_v * dp/dv, accumulated on int
    numerators and formed once; each product first charges an armed ALLOWANCE."""
    p, out = p.to_ring(XYZ), {}
    lcm = math.lcm(*(img.den for img in d.images))
    for i, img in enumerate(d.images):
        a = img.terms
        if not a:
            continue
        scale = lcm // img.den
        b = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] * scale for m, c in p.terms.items() if m[i]}
        if b:
            _charge(len(a) * len(b))
            _mul_terms(a, b, out)
    return _form(XYZ, p.den * lcm, out)


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
    step^n(p) = 0; `weights` None skips the sum.  The sum accumulates in
    place over the running lcm of its denominators and is formed once.

    Two bounds make every series stop: n may not exceed DEFAULT_CAP, and the
    products of the whole series may spend at most WORK_BUDGET term
    pairs.  Either raises `error`, naming the bound, `what` and the step.
    """
    den, acc = 1, {}
    term, k = p, 0
    token = ALLOWANCE.set([WORK_BUDGET])
    try:
        while term.terms:
            if k == DEFAULT_CAP:
                raise error(f"{what} exceeded the step cap of {k} (step {k + 1})")
            c = weights[k] if weights else 0
            if c:
                den, acc = _add_terms(den, acc, term.den * c.denominator, term.terms, c.numerator)
            k += 1
            term = step(term)
    except WorkBudgetExceeded:
        raise error(
            f"{what} exceeded the work budget of {WORK_BUDGET} term pairs (step {k})"
        ) from None
    finally:
        ALLOWANCE.reset(token)
    return _form(p.vars, den, acc), k


_EXP_WEIGHTS = tuple(Fraction(1, math.factorial(k)) for k in range(DEFAULT_CAP))
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
    d = _log_series(u)
    try:
        back = exponential(d)
    except NotLocallyNilpotentError:
        back = None
    if back != u:
        raise NotUnipotentError("logarithm round-trip failed: u is not unipotent")
    return d


def _log_series(u: Automorphism) -> Derivation:
    """The logarithm's series on each generator, without the round-trip
    certificate, for a caller whose own comparison certifies the result."""
    return Derivation(*(
        _series(lambda q: substitute(q, u.pullbacks) - q, Poly.variable(XYZ, v),
                _LOG_WEIGHTS, f"(u* - id)-series on {v}", NotUnipotentError)[0]
        for v in XYZ
    ))


def is_irreducible(d: Derivation) -> bool:
    """True iff the gcd of the generator images is a constant."""
    if d.is_zero():
        raise ValueError("the zero derivation has no irreducibility status")
    return gcd_many(d.images).is_constant()


# -- the bounded plinth search ------------------------------------------------


def _monomials_up_to(deg: int) -> list[Poly]:
    """Every monomial of total degree <= deg, as a polynomial."""
    return [
        Poly(XYZ, {(i, j, k): 1})
        for i in range(deg + 1)
        for j in range(deg + 1 - i)
        for k in range(deg + 1 - i - j)
    ]


def _tagged(*blocks: Poly) -> dict:
    """One sparse int row of the blocks' coefficients times their lcm den.

    Column (b, -deg m, -m) holds the coefficient of m in block b, so the
    blocks follow each other, each in descending graded-lex order, and
    every pivot falls on the largest monomial that its block allows.
    """
    lcm, row = math.lcm(*(p.den for p in blocks)), {}
    for b, p in enumerate(blocks):
        for (i, j, k), c in p.terms.items():
            row[b, -i - j - k, -i, -j, -k] = c * (lcm // p.den)
    return row


def _block(row: dict, b: int) -> Poly:
    """The polynomial in block b of a tagged row."""
    return Poly(XYZ, {(-i, -j, -k): c for (rb, _, i, j, k), c in row.items() if rb == b})


def kernel_products(
    gens: list[Poly], deg_max: int
) -> list[tuple[tuple[int, ...], Poly]]:
    """All products gens^e with expanded total degree <= deg_max."""
    for g in gens:
        if g.is_zero() or g.is_constant():
            raise ValueError("kernel generators must be nonconstant")
    degs = [g.total_degree() for g in gens]
    products: list[tuple[tuple[int, ...], Poly]] = []

    def extend(i: int, exps: tuple[int, ...], value: Poly, used: int) -> None:
        if i == len(gens):
            products.append((exps, value))
            return
        e = 0
        current = value
        while used + e * degs[i] <= deg_max:
            extend(i + 1, exps + (e,), current, used + e * degs[i])
            e += 1
            if used + e * degs[i] <= deg_max:
                current = current * gens[i]
    extend(0, (), Poly.one(gens[0].vars), 0)
    return products


def plinth_search(
    d: Derivation, kernel_gens: list[Poly], deg_max: int
) -> tuple[Poly, Poly]:
    """Find (Q, a) with d(Q) = a, a a nonzero combination of products of the
    kernel generators, minimizing the total degree of a.

    One exact elimination of tagged rows (d(Q) - a | a | Q): (d(m) | 0 | m)
    for each monomial m of degree <= deg_max and (-K | K | 0) for each
    product K of the generators.  Their span holds every such triple, and
    its reduced rows with a zero first block span the pairs with d(Q) = a.
    Among those, the rows with their pivot in the a-block carry the RREF of
    the achievable a, pivots on the largest graded-lex monomials: every
    achievable a leads with one of these pivots, so the last row leads with
    the least monomial (hence least total degree, as graded-lex refines
    degree) and is monic.  The rows with their pivot in the Q-block are the
    RREF of the bounded kernel {Q : d(Q) = 0}, and the last a-row is zero at
    their pivots, so its Q is reduced modulo bounded kernel elements and
    the output is canonical.  No closing check is needed: every seed row
    has block0 = d(block2) - block1, the relation is linear, so every
    reduced row keeps it, and a row with its pivot in the a-block has an
    empty first block, hence d(Q) = a.

    The caller supplies generators of ker d, which are spot-checked.
    """
    gens = [g.to_ring(XYZ) for g in kernel_gens]
    for g in gens:
        if not apply(d, g).is_zero():
            raise NotInKernelError(f"claimed kernel generator {g} has d(g) != 0")
    if d.is_zero():
        raise SearchExhaustedError("the zero derivation has no plinth element")
    image_deg = max(img.total_degree() for img in d.images if not img.is_zero())
    a_bound = max(deg_max - 1 + image_deg, 0)
    products = kernel_products(gens, a_bound) if gens else []
    if not products:
        products = [((), Poly.one(XYZ))]
    rows = [_tagged(apply(d, m), Poly.zero(XYZ), m) for m in _monomials_up_to(deg_max)]
    rows += [_tagged(-kp, kp) for _, kp in products]
    achievable = [row for row in linalg.rref(rows) if min(row)[0] == 1]
    if not achievable:
        raise SearchExhaustedError(
            f"no plinth element with deg(Q) <= {deg_max}; raise the bound"
        )
    return _block(achievable[-1], 2), _block(achievable[-1], 1)


def standard_decomposition(u: Automorphism) -> tuple[Poly, Automorphism]:
    """Split a unipotent u as d . u' with u' irreducible and d invariant.

    d is the monic gcd of the images of log(u); the construction proves the
    rest.  The stripped images have a constant gcd, so u' is irreducible;
    log(u) = d * stripped is locally nilpotent, so d is in its kernel
    (Freudenburg, ch. 1); logarithm certified exp(log u) = u.  Only the
    series of exponential(stripped) can still stop, on its bound.
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
    try:
        u_prime = exponential(stripped)
    except NotLocallyNilpotentError:
        raise VerificationError("stripped derivation lost local nilpotency") from None
    return d, u_prime


class SatReport(NamedTuple):
    """Result of a saturation instance check on ([f F, B], B(f), [F, B])."""

    bracket_is_zero: bool
    conclusions_hold: bool | None  # None when the bracket is an obstruction
    b_of_f: Poly
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
        return SatReport(True, conclusions, b_of_f, identity_holds)
    return SatReport(False, None, b_of_f, identity_holds)
