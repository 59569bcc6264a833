import random
from fractions import Fraction

import pytest

from lnd.arith import XYZ, YZ, Poly, substitute
from lnd.automorphisms import Automorphism
from lnd.automorphisms import compose as compose_3d
from lnd.quotient_geometry import (
    FixedSchemeReport,
    PlaneAut,
    affine_symmetries,
    fence_unipotent_witness,
    fixed_scheme_check,
    is_inert,
    is_vertical_fence,
    lift_to_H,
    plane_divisor,
    preserves_divisor,
)
from lnd.syntax import parse_poly
from test_acceptance import _oracle_cyclotomic_check, cyclotomic


def q(text):
    return parse_poly(text, YZ)


Y, Z = Poly.variable(YZ, "y"), Poly.variable(YZ, "z")
IDENTITY = PlaneAut(Y, Z)


def compose(g, h):
    """(g o h)(v) = g(h(v)); pullbacks compose in reverse, as in 3-space."""
    return PlaneAut(*(substitute(p, h.pullbacks) for p in g))


def test_is_vertical_fence():
    assert is_vertical_fence(q("z^2"))
    assert is_vertical_fence(q("z^3 - z"))
    assert not is_vertical_fence(q("y*z^2"))
    with pytest.raises(ValueError):
        is_vertical_fence(Poly.zero(YZ))


def test_preserves_divisor():
    shear = PlaneAut(Y + Z, Z)
    assert preserves_divisor(shear, plane_divisor(q("z^2"))) == 1
    reflect = PlaneAut(-Y, -Z)
    assert preserves_divisor(reflect, plane_divisor(q("z^3 - z"))) == -1
    shift = PlaneAut(Y, Z + Poly.one(YZ))
    assert preserves_divisor(shift, plane_divisor(q("z"))) is None


def test_preserves_divisor_multiplicative():
    rng = random.Random(97)
    div = plane_divisor(q("z^3 - z"))
    pool = [PlaneAut(-Y, -Z), PlaneAut(Y + q("z^3 - z"), Z), PlaneAut(Y * 2, Z)]
    for _ in range(10):
        g = pool[rng.randrange(len(pool))]
        h = pool[rng.randrange(len(pool))]
        lg, lh = preserves_divisor(g, div), preserves_divisor(h, div)
        assert preserves_divisor(compose(g, h), div) == lg * lh


def test_is_inert():
    d2 = plane_divisor(q("z^2"))
    for h in (Poly.one(YZ), Z, q("z^2 - 3*z")):
        g = PlaneAut(Y + q("z^2") * h, Z)
        assert is_inert(g, d2)
    assert not is_inert(PlaneAut(Y + Z, Z), d2)
    assert is_inert(IDENTITY, d2)
    assert not is_inert(PlaneAut(Y, Z + Poly.one(YZ)), d2)  # moves div(z^2)


def test_inert_elements_form_group():
    d2 = plane_divisor(q("z^2"))
    g = PlaneAut(Y + q("z^2"), Z)
    h = PlaneAut(Y + q("z^3"), Z)
    g_inv = PlaneAut(Y - q("z^2"), Z)
    assert compose(g, g_inv) == compose(g_inv, g) == IDENTITY
    assert is_inert(compose(g, h), d2)
    assert is_inert(g_inv, d2)


def test_cyclotomic_polynomials():
    t = ("t",)
    assert cyclotomic(1) == parse_poly("t - 1", t)
    assert cyclotomic(2) == parse_poly("t + 1", t)
    assert cyclotomic(3) == parse_poly("t^2 + t + 1", t)
    assert cyclotomic(4) == parse_poly("t^2 + 1", t)
    assert cyclotomic(6) == parse_poly("t^2 - t + 1", t)


def test_affine_symmetries_three_line_fence():
    sym = affine_symmetries(parse_poly("z^3 - z", ("z",)))
    assert sym.center == 0
    assert sym.order == 2
    assert sym.lambda_exponent % 2 == 1  # the scaling value alpha^k0 is -1
    # direct substitution oracle: a(-z) = -a(z)
    a = parse_poly("z^3 - z", ("z",))
    assert substitute(a, {"z": -Poly.variable(("z",), "z")}) == -a


def test_affine_symmetries_torus_case():
    sym = affine_symmetries(parse_poly("z^2", ("z",)))
    assert sym.center == 0 and sym.is_torus


def test_affine_symmetries_cube_roots():
    sym = affine_symmetries(parse_poly("z^3 + 1", ("z",)))
    assert sym.center == 0
    assert sym.order == 3
    assert sym.lambda_exponent == 0


def test_affine_symmetries_shifted_center():
    # roots centered at 1: (z-1)^3 - (z-1)
    a = parse_poly("z^3 - 3*z^2 + 2*z", ("z",))
    sym = affine_symmetries(a)
    assert sym.center == 1
    assert sym.order == 2


def test_no_larger_symmetry_order():
    # support differences of the recentred z^3 - z are not divisible by 3..4
    a = parse_poly("z^3 - z", ("z",))
    support = sorted(sum(m) for m in a.terms)
    for order in (3, 4):
        assert any((e - support[0]) % order for e in support[1:])


def test_lift_to_H():
    div = plane_divisor(q("z^3 - z"))
    assert lift_to_H(IDENTITY, div) == Automorphism(
        *(Poly.variable(XYZ, v) for v in XYZ)
    )
    reflect = PlaneAut(-Y, -Z)
    sigma = lift_to_H(reflect, div)
    assert sigma == Automorphism(
        parse_poly("-x", XYZ), parse_poly("-y", XYZ), parse_poly("-z", XYZ)
    )
    shear = PlaneAut(Y + q("z^3 - z"), Z)
    sigma = lift_to_H(shear, div)
    assert sigma.pullback_x == parse_poly("x", XYZ)
    assert sigma.pullback_y == parse_poly("y + z^3 - z", XYZ)


def test_lift_is_homomorphism_into_centralizer():
    div = plane_divisor(q("z^3 - z"))
    g = PlaneAut(-Y, -Z)
    h = PlaneAut(Y + q("z^3 - z"), Z)
    assert lift_to_H(compose(g, h), div) == compose_3d(lift_to_H(g, div), lift_to_H(h, div))
    translation = Automorphism(
        parse_poly("x + z^3 - z", XYZ),
        Poly.variable(XYZ, "y"),
        Poly.variable(XYZ, "z"),
    )
    sigma = lift_to_H(g, div)
    assert compose_3d(sigma, translation) == compose_3d(translation, sigma)


def test_lift_recovers_plane_action_on_quotient():
    from oracles import quotient_action

    div = plane_divisor(q("z^3 - z"))
    g = PlaneAut(-Y, -Z)
    sigma = lift_to_H(g, div)
    ey, ez = quotient_action(
        sigma, [Poly.variable(XYZ, "y"), Poly.variable(XYZ, "z")], 3, YZ
    )
    assert ey == q("-y") and ez == q("-z")


def test_fence_unipotent_witness():
    assert fence_unipotent_witness(plane_divisor(q("z"))) == PlaneAut(Y + Z, Z)
    assert fence_unipotent_witness(plane_divisor(q("z^2"))) == PlaneAut(Y + q("z^2"), Z)
    with pytest.raises(ValueError):
        fence_unipotent_witness(plane_divisor(q("y*z")))


def test_fixed_scheme_check():
    multipliers = [q("z"), q("y"), q("z + 1")]
    for a_text in ("z", "z^2"):
        report = fixed_scheme_check(plane_divisor(q(a_text)), multipliers)
        assert report.holds
        assert len(report.moved_multipliers) == 3


def test_fixed_scheme_check_substitutes_each_divisor_once(monkeypatch):
    from lnd import quotient_geometry

    calls = []

    def counting(p, images):
        calls.append(p)
        return substitute(p, images)

    monkeypatch.setattr(quotient_geometry, "substitute", counting)
    multipliers = [q("z"), q("y"), q("z + 1")]
    report = fixed_scheme_check(plane_divisor(q("z^2")), multipliers)
    assert len(calls) == 3  # the three enlargements
    assert report == FixedSchemeReport(tuple(multipliers), ())


def test_affine_symmetries_higher_orders():
    # support gaps of 4, 5, 6; the cyclotomic oracle certifies each order
    for text, order, k0 in (("z^5 - z", 4, 1), ("z^6 + z", 5, 1), ("z^7 + z", 6, 1)):
        a = parse_poly(text, ("z",))
        sym = affine_symmetries(a)
        assert (sym.center, sym.order, sym.lambda_exponent) == (0, order, k0)
        assert _oracle_cyclotomic_check(a, order, k0)
        for bigger in range(order + 1, 2 * order + 1):
            assert not any(_oracle_cyclotomic_check(a, bigger, j) for j in range(bigger))
    # a shifted center: the order is read off the recentred support
    sym = affine_symmetries(parse_poly("(z + 1/2)^7 - 3*(z + 1/2)^3", ("z",)))
    assert (sym.center, sym.order, sym.lambda_exponent) == (Fraction(-1, 2), 4, 3)
    assert _oracle_cyclotomic_check(parse_poly("z^7 - 3*z^3", ("z",)), 4, 3)
    # and no strictly larger order up to 2e passes the support test
    for text, order in (("z^5 - z", 4), ("z^7 + z", 6)):
        support = sorted(sum(m) for m in parse_poly(text, ("z",)).terms)
        for bigger in range(order + 1, 2 * order + 1):
            assert any((e - support[0]) % bigger for e in support[1:])


def test_affine_symmetries_agree_with_the_cyclotomic_oracle():
    # seeded supports k0 + order * j, shifted to a random center
    rng = random.Random(20)
    z = ("z",)
    for _ in range(30):
        order, k0 = rng.randint(2, 7), rng.randint(0, 6)
        exps = {k0 + order * j for j in rng.sample(range(5), rng.randint(2, 4))}
        recentred = Poly(z, {(e,): Fraction(rng.choice([-3, -1, 2, 5])) for e in exps})
        center = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a = substitute(recentred, {"z": Poly.variable(z, "z") - Poly.const(z, center)})
        sym = affine_symmetries(a)
        assert sym.center == center and sym.order % order == 0
        assert sym.lambda_exponent == min(exps) % sym.order
        assert _oracle_cyclotomic_check(recentred, sym.order, sym.lambda_exponent)
