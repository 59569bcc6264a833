"""Divisors on the quotient plane and the automorphisms that respect them.

The quotient plane carries coordinates (y, z).  A divisor is a nonzero
polynomial up to scalar, stored monic.  A vertical fence is a divisor whose
polynomial depends on z alone: its components are parallel lines, pairwise
disjoint.  For root divisors on the line this module computes the affine
symmetry data (center, rotation order, scaling character) exactly, from the
support of the recentred polynomial alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    XYZ,
    YZ,
    Poly,
    divides,
    is_univariate_in,
    substitute,
)
from .automorphisms import Automorphism
from .errors import RingMismatchError, Validated


class _PlaneDivisor(NamedTuple):
    a: Poly


class PlaneDivisor(Validated, _PlaneDivisor):
    """Effective divisor div(a) on the plane; a is nonzero and stored monic."""

    __slots__ = ()

    def __new__(cls, a: Poly):
        if a.vars != YZ:
            raise RingMismatchError("divisor polynomial must live in (y, z)")
        if a.is_zero():
            raise ValueError("divisor polynomial must be nonzero")
        return tuple.__new__(cls, (a,))

    def __str__(self) -> str:
        return f"div({self.a})"


def plane_divisor(a: Poly) -> PlaneDivisor:
    return PlaneDivisor(a.to_ring(YZ).monic())


class _PlaneAut(NamedTuple):
    pullback_y: Poly
    pullback_z: Poly


class PlaneAut(Validated, _PlaneAut):
    """Plane endomorphism by pullbacks (g*(y), g*(z)); equality by pullbacks."""

    __slots__ = ()

    def __new__(cls, pullback_y: Poly, pullback_z: Poly):
        if pullback_y.vars != YZ or pullback_z.vars != YZ:
            raise RingMismatchError("plane pullbacks must live in (y, z)")
        return tuple.__new__(cls, (pullback_y, pullback_z))

    @property
    def pullbacks(self) -> dict[str, Poly]:
        return {"y": self.pullback_y, "z": self.pullback_z}

    def __repr__(self) -> str:
        return f"PlaneAut(y -> {self.pullback_y}, z -> {self.pullback_z})"


def is_vertical_fence(a: Poly) -> bool:
    """True iff a depends on z alone.

    Then div(a) is a disjoint union of vertical lines, hence a fence whenever
    a is non-constant; nonzero constants pass trivially (empty divisor).
    """
    a = a.to_ring(YZ)
    if a.is_zero():
        raise ValueError("zero polynomial defines no divisor")
    return all(m[0] == 0 for m in a.terms)


def preserves_divisor(g: PlaneAut, div: PlaneDivisor) -> Fraction | None:
    """The scalar with g*(a) = scalar * a, or None if the divisor moves."""
    image = substitute(div.a, g.pullbacks)
    if image.is_zero():
        return None
    ratio = image.leading_coeff() / div.a.leading_coeff()
    if image == div.a * ratio:
        return ratio
    return None


def is_inert(g: PlaneAut, div: PlaneDivisor) -> bool:
    """True iff g preserves div(a) and restricts to the identity on it,
    i.e. both pullback shifts are divisible by a; False if g moves div(a)."""
    if preserves_divisor(g, div) is None:
        return False
    y, z = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
    return divides(div.a, g.pullback_y - y) and divides(div.a, g.pullback_z - z)


# -- affine symmetries of a root divisor on the line ---------------------------


class DivisorSymmetry(NamedTuple):
    """Affine symmetry data of a root divisor on the line.

    center: the unique fixed point every affine symmetry must fix
    (multiplicity-weighted root centroid, computed from coefficients).
    order: rotation order e of the symmetry group, or None for the torus
    case (recentred polynomial is a monomial, so every scaling works).
    lambda_exponent: k0 with the scaling character acting as alpha^k0;
    every support exponent is congruent to k0 modulo the order.
    """

    center: Fraction
    order: int | None
    lambda_exponent: int

    @property
    def is_torus(self) -> bool:
        return self.order is None


def affine_symmetries(a: Poly) -> DivisorSymmetry:
    """Symmetry data of div(a) on the line, exactly.

    The center is -c_{d-1}/(d c_d).  After recentring, a monomial means the
    full torus acts; otherwise the order is the gcd of the support-exponent
    differences.  That proves the symmetry: each support exponent e has
    e = k0 (mod order), so cyclotomic(order) | t^order - 1 | t^e - t^k0.
    """
    if "z" not in a.vars or not is_univariate_in(a, "z"):
        raise ValueError("expected a polynomial in z alone")
    coeffs = {sum(mono): c for mono, c in a.coefficients().items()}
    d = max(coeffs)
    if d < 1:
        raise ValueError("divisor polynomial must be non-constant")
    center = -coeffs.get(d - 1, Fraction(0)) / (d * coeffs[d])
    z_ring = ("z",)
    z = Poly.variable(z_ring, "z")
    recentred = substitute(
        Poly(z_ring, {(e,): c for e, c in coeffs.items()}),
        {"z": z + Poly.const(z_ring, center)},
    )
    support = sorted(sum(m) for m in recentred.terms)
    if len(support) == 1:
        return DivisorSymmetry(center, None, support[0])
    base = support[0]
    order = math.gcd(*(e - base for e in support[1:]))
    return DivisorSymmetry(center, order, base % order)


# -- lifting plane data to 3-space ---------------------------------------------


def lift_to_H(g: PlaneAut, div: PlaneDivisor) -> Automorphism:
    """Lift a divisor-preserving plane automorphism to (lambda x, g(y, z)).

    The lift sigma commutes with the modified translation (x + a, y, z) =
    exp(a d/dx) with no further check: sigma*(a) = g*(a) = lambda a is the
    equality preserves_divisor returned lambda for, and a d/dx kills
    sigma*(y) and sigma*(z), which lie in Q[y, z].
    """
    lam = preserves_divisor(g, div)
    if lam is None:
        raise ValueError("plane automorphism does not preserve the divisor")
    return Automorphism(
        Poly.variable(XYZ, "x") * lam,
        g.pullback_y.to_ring(XYZ),
        g.pullback_z.to_ring(XYZ),
    )


def fence_unipotent_witness(div: PlaneDivisor) -> PlaneAut:
    """The shear (y + a(z), z) witnessing unipotent symmetries of a fence."""
    if not is_vertical_fence(div.a):
        raise ValueError("divisor is not a vertical fence")
    if div.a.degree_in("z") < 1:
        raise ValueError("fence witness needs a non-constant divisor")
    return PlaneAut(Poly.variable(YZ, "y") + div.a, Poly.variable(YZ, "z"))


class FixedSchemeReport(NamedTuple):
    """Whether every proper enlargement div(a*m) in the test family moves
    under the witness shear, which fixes div(a) pointwise."""

    moved_multipliers: tuple[Poly, ...]
    failed_multipliers: tuple[Poly, ...]

    @property
    def holds(self) -> bool:
        return not self.failed_multipliers


def fixed_scheme_check(div: PlaneDivisor, multipliers: list[Poly]) -> FixedSchemeReport:
    """Test which enlargements div(a*m) the witness shear moves.

    The shear (y + a(z), z) fixes div(a) pointwise by construction, with no
    check: it pulls a(z) back to a(z), and its shifts a and 0 are divisible
    by a.
    """
    shear = fence_unipotent_witness(div)
    moved: list[Poly] = []
    failed: list[Poly] = []
    for m in multipliers:
        m = m.to_ring(YZ)
        if m.is_constant():
            raise ValueError("enlargement multipliers must be non-constant")
        bigger = plane_divisor(div.a * m)
        if is_inert(shear, bigger):
            failed.append(m)
        else:
            moved.append(m)
    return FixedSchemeReport(tuple(moved), tuple(failed))
