import random
from fractions import Fraction

import pytest

from lnd.arith import XYZ, ZP, Poly
from lnd.automorphisms import (
    Automorphism,
    commutes,
    compose,
    conjugation_formula_check,
    identity,
    inverse,
    inverse_unipotent,
    modification,
    mu_character,
)
from lnd.delta_family import make_context, n_elem, n_to_aut
from lnd.derivations import Derivation, delta, exponential, logarithm, scale_poly
from lnd.errors import (
    NotInKernelError,
    NotInvertibleError,
    NotUnipotentError,
    SearchExhaustedError,
)
from lnd.syntax import parse_poly
from oracles import express_in_kernel, quotient_action


def p(text):
    return parse_poly(text, XYZ)


X, Y, Z = (Poly.variable(XYZ, v) for v in XYZ)
P = p("x*z + y^2")
D_P = delta(P)
U_P = exponential(D_P)
TRANSLATION = Automorphism(p("x + 1"), Y, Z)
DDX = Derivation(Poly.one(XYZ), Poly.zero(XYZ), Poly.zero(XYZ))  # log TRANSLATION


def test_compose_identity_neutral():
    u = exponential(D_P)
    assert compose(u, identity()) == u
    assert compose(identity(), u) == u


def test_translation_doubling():
    t = TRANSLATION
    assert compose(t, t) == Automorphism(p("x + 2"), Y, Z)


def test_compose_exp_with_inverse_exp():
    from lnd.derivations import scale

    assert compose(exponential(D_P), exponential(scale(-1, D_P))) == identity()


def test_compose_associative_random():
    rng = random.Random(41)
    for _ in range(8):
        mods = [
            modification(Poly.const(XYZ, rng.randint(-3, 3)) * Z + Poly.const(XYZ, rng.randint(-3, 3)), D_P)
            for _ in range(3)
        ]
        swap = Automorphism(X, Z, Y)
        a, b, c = mods[0], compose(mods[1], swap), mods[2]
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_degree_filtration_bound():
    g = exponential(scale_poly(Z, D_P))
    h = U_P
    assert compose(g, h).degree <= g.degree * h.degree
    assert identity().degree == 1


def test_inverse_unipotent():
    assert inverse_unipotent(TRANSLATION) == Automorphism(p("x - 1"), Y, Z)
    v = inverse_unipotent(U_P)
    assert v.pullback_x == p("x + 2*y - z")
    assert v.pullback_y == p("y - z")
    with pytest.raises(NotUnipotentError):
        inverse_unipotent(Automorphism(p("2*x"), Y, Z))


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _affine(m, b):
    return Automorphism(
        *(
            sum(((X, Y, Z)[j] * m[i][j] for j in range(3)), Poly.const(XYZ, b[i]))
            for i in range(3)
        )
    )


def test_inverse_affine():
    # The inverse comes from one exact reduction; composing both ways is
    # only this test's oracle.
    g = Automorphism(p("2*x + z + 1"), p("y - 3"), p("-z"))
    h = inverse(g)
    assert compose(g, h) == identity()
    assert compose(h, g) == identity()
    rng = random.Random(43)
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 5)]
    built = 0
    while built < 25:
        m = [[rng.choice(values) for _ in range(3)] for _ in range(3)]
        if _det3(m) == 0:
            continue
        g = _affine(m, [rng.choice(values) for _ in range(3)])
        h = inverse(g)
        assert compose(g, h) == identity()
        assert compose(h, g) == identity()
        built += 1
    singular = _affine([[1, 2, 0], [2, 4, 0], [0, 0, 1]], [1, 0, 0])
    with pytest.raises(NotInvertibleError):
        inverse(singular)


@pytest.mark.parametrize(
    "build",
    [
        lambda: exponential(D_P),
        lambda: n_to_aut(
            n_elem(parse_poly("z^2 - 1", ZP), parse_poly("z*P + 2", ZP)),
            make_context(P, deg_max=3),
        ),
        lambda: compose(exponential(D_P), exponential(scale_poly(Z, D_P))),
        lambda: Automorphism(p("2*x + z + 1"), p("y - 3"), p("-z")),
        lambda: Automorphism(p("x + y^2"), Y, Z),
    ],
    ids=["exponential", "n_to_aut", "compose", "affine", "unipotent"],
)
def test_inverse_is_built_once_and_linked(build):
    g = build()
    h = inverse(g)
    assert inverse(g) is h
    assert inverse(h) is g
    assert compose(g, h) == identity()
    assert compose(h, g) == identity()


def test_commutes():
    assert commutes(exponential(D_P), scale_poly(Z, D_P))
    swap_yz = Automorphism(X, Z, Y)
    assert commutes(swap_yz, DDX)
    swap_xy = Automorphism(Y, X, Z)
    assert not commutes(swap_xy, DDX)


def _commutes_by_composition(g, u):
    return compose(g, u) == compose(u, g)


def test_commutes_by_intertwining_matches_composition():
    """commutes(g, D) against the oracle compose(g, exp D) == compose(exp D, g)."""
    from lnd.quotient_geometry import PlaneAut, lift_to_H, plane_divisor

    ctx = make_context(P, d=Z, deg_max=3)
    u, u_prime, e = exponential(ctx.D), exponential(ctx.D_prime), ctx.e
    rng = random.Random(73)

    def rand_zp(z_only):
        out = Poly.zero(ZP)
        for _ in range(3):
            ez = rng.randint(0, 2)
            ep = 0 if z_only else rng.randint(1, 2)
            out = out + Poly(ZP, {(ez, ep): Fraction(rng.randint(1, 9))})
        return out

    cases = []  # (g, D, exp D, expected)
    for _ in range(6):
        g = n_to_aut(n_elem(rand_zp(True), rand_zp(False)), ctx)
        cases += [(g, ctx.D, u, True), (g, ctx.D_prime, u_prime, True)]
        cases.append((g, ctx.E, e, False))  # f involves P: [f D', E] = -E(f) D' != 0
    y, z = (Poly.variable(("y", "z"), v) for v in ("y", "z"))
    for text in ("z^3 - z", "z^2", "z^4 - 2*z^2"):
        div = plane_divisor(parse_poly(text, ("y", "z")))
        d_a = Derivation(div.a.to_ring(XYZ), Poly.zero(XYZ), Poly.zero(XYZ))
        for plane in (PlaneAut(-y, -z), PlaneAut(y + div.a, z)):
            cases.append((lift_to_H(plane, div), d_a, exponential(d_a), True))
    swap_xy = Automorphism(Y, X, Z)
    cases.append((swap_xy, DDX, TRANSLATION, False))
    # endomorphisms that are not invertible
    cases.append((Automorphism(X, Poly.zero(XYZ), Poly.zero(XYZ)), DDX, TRANSLATION, True))
    cases.append((Automorphism(X * X, Y, Z), DDX, TRANSLATION, False))
    for g, d, exp_d, expected in cases:
        assert commutes(g, d) == _commutes_by_composition(g, exp_d) == expected, (g, d)


def test_modification_basic():
    assert modification(Poly.one(XYZ), D_P) == U_P
    assert modification(Z, D_P) == exponential(scale_poly(Z, D_P))
    with pytest.raises(NotInKernelError):
        modification(X, DDX)


def test_modification_additive_in_f():
    rng = random.Random(43)
    for _ in range(6):
        f1 = Z * rng.randint(-4, 4) + P * rng.randint(-2, 2)
        f2 = Poly.const(XYZ, rng.randint(-4, 4)) + Z * Z * rng.randint(-2, 2)
        lhs = compose(modification(f1, D_P), modification(f2, D_P))
        assert lhs == modification(f1 + f2, D_P)


def test_mu_character():
    assert mu_character(identity(), p("z^2")) == 1
    flip = Automorphism(X, Y, p("-z"))
    assert mu_character(flip, p("z^2")) == 1
    assert mu_character(flip, p("z^3")) == -1
    with pytest.raises(ValueError):
        mu_character(Automorphism(X, Y, p("z + 1")), Z)


def test_conjugation_formula_identity_g():
    report = conjugation_formula_check(identity(), Z, U_P, Poly.one(XYZ))
    assert report.holds
    assert report.orientation == "mu"


def test_conjugation_formula_z_flip():
    flip = Automorphism(X, Y, p("-z"))
    u_prime = TRANSLATION
    report = conjugation_formula_check(flip, Z, u_prime, p("z^2"))
    assert report.holds
    # mu = 1 and g*(z) = -z, so the conjugate is the (-z)-modification
    assert report.mu == 1
    assert report.lhs == modification(p("-z"), DDX)


def test_conjugation_formula_in_n():
    # g a modification composed with an admissible complement for the family
    e = Automorphism(p("x - 1"), Y, Z)
    g = compose(modification(Z * 2 + Poly.one(XYZ), D_P), e)
    report = conjugation_formula_check(g, P, U_P, Poly.one(XYZ))
    assert report.holds


def test_conjugation_formula_nontrivial_mu():
    # diagonal torus element commuting with the z^3-modified translation
    g = Automorphism(p("8*x"), Y, p("2*z"))
    report = conjugation_formula_check(g, Z, TRANSLATION, p("z^3"))
    assert report.holds
    assert report.mu == 8
    # g*(z) = 2z and the conjugate is exp(g*(z)/8 d/dx), not exp(8 g*(z) d/dx)
    assert report.orientation == "mu-inverse"
    assert report.rhs == modification(p("2*z") * Fraction(1, 8), DDX)


def test_conjugation_formula_mu_minus_one():
    # mu = -1 is its own inverse, so the proven side carries the "mu" label
    flip = Automorphism(p("-x"), Y, p("-z"))
    report = conjugation_formula_check(flip, Z, TRANSLATION, p("z^3"))
    assert report.holds
    assert (report.mu, report.orientation) == (-1, "mu")
    assert report.rhs == report.lhs == modification(Z, DDX)


def test_conjugation_formula_identity_u_prime():
    # log(identity) = 0, so both orientations give the same derivation
    g = Automorphism(p("8*x"), Y, p("2*z"))
    report = conjugation_formula_check(g, Z, identity(), p("z^3"))
    assert report.holds
    assert (report.mu, report.orientation) == (8, "mu")
    assert report.rhs == identity()


def test_conjugation_formula_builds_one_right_side(monkeypatch):
    import lnd.automorphisms as automorphisms

    calls = []

    def counting(f, d):
        calls.append(f)
        return modification(f, d)

    monkeypatch.setattr(automorphisms, "modification", counting)
    g = Automorphism(p("8*x"), Y, p("2*z"))
    report = conjugation_formula_check(g, Z, TRANSLATION, p("z^3"))
    assert report.orientation == "mu-inverse"
    assert len(calls) == 2  # f.u' on the left, the proven right side


def test_express_in_kernel():
    gens = [Z, P]
    expr = express_in_kernel(Z * Z, gens, 2, ("z", "P"))
    assert expr == parse_poly("z^2", ("z", "P"))
    expr = express_in_kernel(P + Z * 3, gens, 2, ("z", "P"))
    assert expr == parse_poly("P + 3*z", ("z", "P"))
    with pytest.raises(SearchExhaustedError):
        express_in_kernel(X, gens, 3, ("z", "P"))


def test_quotient_action_modification_is_identity():
    g = modification(Z + P * 2, D_P)
    g1, g2 = quotient_action(g, [Z, P], 4, ("z", "P"))
    assert g1 == parse_poly("z", ("z", "P"))
    assert g2 == parse_poly("P", ("z", "P"))


def test_quotient_action_of_complement():
    e = Automorphism(p("x - 1"), Y, Z)
    g1, g2 = quotient_action(e, [Z, P], 4, ("z", "P"))
    assert g1 == parse_poly("z", ("z", "P"))
    assert g2 == parse_poly("P - z", ("z", "P"))


def test_quotient_action_point_reflection():
    g = Automorphism(p("-x"), Y, p("-z"))
    g1, g2 = quotient_action(g, [Z, P], 4, ("z", "P"))
    assert g1 == parse_poly("-z", ("z", "P"))
    assert g2 == parse_poly("P", ("z", "P"))


def test_quotient_action_failure_for_non_normalizing():
    g = Automorphism(X, Y, p("-z"))  # moves P out of the kernel ring
    with pytest.raises(SearchExhaustedError):
        quotient_action(g, [Z, P], 4, ("z", "P"))


def test_membership_characterization_of_modifications():
    # commuting with u and acting trivially on the quotient forces log = f D'
    from lnd.arith import divide_exact
    from lnd.derivations import apply

    g = modification(P - Z * 5, D_P)
    assert commutes(g, D_P)
    g1, g2 = quotient_action(g, [Z, P], 6, ("z", "P"))
    assert (g1, g2) == (parse_poly("z", ("z", "P")), parse_poly("P", ("z", "P")))
    log_g = logarithm(g)
    f = divide_exact(log_g.image_y, D_P.image_y)
    assert scale_poly(f, D_P).images == log_g.images
    assert apply(D_P, f).is_zero()
