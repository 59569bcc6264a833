"""Polynomial endomorphisms and automorphisms of affine 3-space.

An automorphism is stored through its pullback images: the triple
(g*(x), g*(y), g*(z)).  Composition follows (g o h)(v) = g(h(v)), so
pullbacks compose in reverse: (g o h)* = h* o g*.  That convention is fixed
here once and stated wherever an identity depends on it.

General inversion is deliberately not provided.  Each automorphism has one
inverse slot holding its inverse, a zero-argument thunk that builds it, or
None.  The constructions of this package fill the slot with a thunk: exp(-D)
for an exponential, the reversed word for a pair of N, the reversed
composition when both factors can be inverted.  With an empty slot, affine
maps are inverted by one exact row reduction and unipotent maps as the
exponential of the negated logarithm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import linalg
from .arith import XYZ, Poly, substitute
from .errors import LndError

if TYPE_CHECKING:
    from .derivations import Derivation


class Automorphism:
    """Endomorphism of A^3 given by pullbacks, with one inverse slot.

    Equality and hashing look only at the pullback triple; the slot is
    evidence of invertibility, not part of the value.  `_inverse` holds the
    inverse automorphism, a zero-argument thunk that returns it, or None;
    `inverse()` calls a thunk at most once and then links the two
    automorphisms to each other.
    """

    __slots__ = ("pullback_x", "pullback_y", "pullback_z", "_inverse")

    def __init__(self, pullback_x: Poly, pullback_y: Poly, pullback_z: Poly):
        for img in (pullback_x, pullback_y, pullback_z):
            if img.vars != XYZ:
                raise LndError("pullbacks must live in the (x, y, z) ring")
        self.pullback_x = pullback_x
        self.pullback_y = pullback_y
        self.pullback_z = pullback_z
        self._inverse = None

    @property
    def pullbacks(self) -> dict[str, Poly]:
        return {"x": self.pullback_x, "y": self.pullback_y, "z": self.pullback_z}

    @property
    def degree(self) -> int:
        """Max total degree of the pullbacks (the ind-group filtration level)."""
        return max(
            self.pullback_x.total_degree(),
            self.pullback_y.total_degree(),
            self.pullback_z.total_degree(),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.pullback_x == other.pullback_x
            and self.pullback_y == other.pullback_y
            and self.pullback_z == other.pullback_z
        )

    def __hash__(self) -> int:
        return hash((self.pullback_x, self.pullback_y, self.pullback_z))

    def __repr__(self) -> str:
        return (
            f"Automorphism(x -> {self.pullback_x}, y -> {self.pullback_y}, "
            f"z -> {self.pullback_z})"
        )


def identity() -> Automorphism:
    g = Automorphism(*(Poly.variable(XYZ, v) for v in XYZ))
    g._inverse = g
    return g


def pullback(g: Automorphism, p: Poly) -> Poly:
    """g*(p) = p composed with g."""
    return substitute(p, g.pullbacks)


def _invertible_evidence(g: Automorphism) -> bool:
    return g._inverse is not None or is_affine(g)


def compose(g: Automorphism, h: Automorphism) -> Automorphism:
    """(g o h)(v) = g(h(v)); pullback images are h*(g*(v))."""
    out = Automorphism(
        *(substitute(q, h.pullbacks) for q in (g.pullback_x, g.pullback_y, g.pullback_z))
    )
    if _invertible_evidence(g) and _invertible_evidence(h):
        out._inverse = lambda: compose(inverse(h), inverse(g))
    return out


def commutes(g: Automorphism, d: Derivation) -> bool:
    """True iff g commutes with exp(d), for a locally nilpotent d, tested by
    intertwining: g*(d(v)) = d(g*(v)) for v = x, y, z (Freudenburg, Algebraic
    Theory of Locally Nilpotent Derivations, ch. 2).  For any endomorphism:
    if phi = g* commutes with exp(d), phi(exp(nd) p) = exp(nd)(phi p) for all
    n >= 0 is a polynomial identity in n with linear term phi d = d phi;
    conversely phi d = d phi gives phi d^k = d^k phi.  Both obey the Leibniz
    rule along phi, so agreeing on the generators suffices."""
    from . import derivations

    return all(
        pullback(g, img) == derivations.apply(d, q)
        for img, q in zip(d.images, (g.pullback_x, g.pullback_y, g.pullback_z))
    )


def is_affine(g: Automorphism) -> bool:
    return g.degree <= 1


def _affine_inverse(g: Automorphism) -> Automorphism:
    """Invert an affine map g*(v) = A v + b by one reduction of [A | I].

    The exact RREF of [A | I] with A nonsingular is [I | A^-1], so the map
    built from it is the inverse with no check by composition; a singular A
    leaves a zero left block in the last row and raises.
    """
    # Row k of [A | I] times g*(v_k)'s denominator: column (0, j) holds v_j's numerator there.
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rows, shifted = [], []
    for k, img in enumerate((g.pullback_x, g.pullback_y, g.pullback_z)):
        row = {(0, j): img.terms.get(unit, 0) for j, unit in enumerate(units)}
        row[1, k] = img.den
        rows.append(row)
        b_k = Poly.const(XYZ, img.coefficient((0, 0, 0)))
        shifted.append(Poly.variable(XYZ, XYZ[k]) - b_k)
    reduced = linalg.rref(rows)
    if min(reduced[-1])[0] == 1:
        raise LndError("affine map is singular")
    # Row i is (e_i | row i of A^-1): h*(v_i) = sum_j A^-1[i][j] * (v_j - b_j).
    images = []
    for row in reduced:
        acc = Poly.zero(XYZ)
        for (block, j), coeff in row.items():
            if block == 1:
                acc = acc + shifted[j] * coeff
        images.append(acc)
    return Automorphism(*images)


def inverse(g: Automorphism) -> Automorphism:
    """The inverse from g's slot, else by affine solve or unipotent logarithm.

    A computed inverse is stored in g's slot and g in the inverse's, so
    each inverse is built at most once.
    """
    back = g._inverse
    if isinstance(back, Automorphism):
        return back
    if back is not None:
        back = back()
    elif is_affine(g):
        back = _affine_inverse(g)
    else:
        back = inverse_unipotent(g)
    g._inverse, back._inverse = back, g
    return back


def inverse_unipotent(u: Automorphism) -> Automorphism:
    """exponential(-logarithm(u)); errors if u is not unipotent."""
    from . import derivations

    d = derivations.logarithm(u)
    return derivations.exponential(derivations.scale(Fraction(-1), d))


def _modifying(f: Poly, d: Derivation) -> Derivation:
    """The derivation f * d, for f in the kernel of d."""
    from . import derivations

    f = f.to_ring(XYZ)
    if not derivations.apply(d, f).is_zero():
        raise LndError(
            f"modification factor {f} is not annihilated by the logarithm"
        )
    return derivations.scale_poly(f, d)


def modification(f: Poly, d: Derivation) -> Automorphism:
    """exponential(f * d), the f-modification of exp(d), for f in ker d."""
    from . import derivations

    return derivations.exponential(_modifying(f, d))


def mu_character(g: Automorphism, d: Poly) -> Fraction:
    """The scalar with g*(d) = scalar * d; errors if d is not semi-invariant."""
    d = d.to_ring(XYZ)
    if d.is_zero():
        raise ValueError("divisor polynomial must be nonzero")
    image = pullback(g, d)
    if image.is_zero():
        raise LndError("pullback of the divisor polynomial vanished")
    ratio = image.leading_coeff() / d.leading_coeff()
    if image != d * ratio:
        raise ValueError(f"g*({d}) = {image} is not proportional to {d}")
    return ratio


class ConjugationReport(NamedTuple):
    """Outcome of checking conjugation of a modification against the
    character formula, recording which character orientation it takes."""

    holds: bool
    mu: Fraction
    orientation: str  # "mu", "mu-inverse", or "none" when it fails
    lhs: Automorphism
    rhs: Automorphism


def conjugation_formula_check(
    g: Automorphism, f: Poly, u_prime: Automorphism, d: Poly
) -> ConjugationReport:
    """Check g^{-1} o (f.u') o g against modification(g*(f) / mu, u').

    Preconditions: g commutes with the d-modification of u' (tested on
    d log u'), and f lies in ker(log u').  With D' = log u' and
    g*(d) = mu d, intertwining gives g* D' = D' g* / mu, so the conjugate
    is exp(g*(f) / mu D'); only that right side is built.  exp is injective
    on locally nilpotent derivations, so the orientation is "mu" exactly
    when g*(f) mu D' equals g*(f) / mu D', and "mu-inverse" otherwise.
    """
    from . import derivations

    d = d.to_ring(XYZ)
    f = f.to_ring(XYZ)
    dp = derivations.logarithm(u_prime)
    if not commutes(g, _modifying(d, dp)):
        raise ValueError("g does not commute with the modified automorphism")
    if not derivations.apply(dp, f).is_zero():
        raise LndError("f is not invariant for u'")
    mu = mu_character(g, d)
    lhs = compose(inverse(g), compose(modification(f, dp), g))
    gf = pullback(g, f)
    proven = gf * (1 / mu)
    rhs = modification(proven, dp)
    if lhs != rhs:
        return ConjugationReport(False, mu, "none", lhs, rhs)
    same = derivations.scale_poly(gf * mu, dp) == derivations.scale_poly(proven, dp)
    return ConjugationReport(True, mu, "mu" if same else "mu-inverse", lhs, rhs)
