import math
import random
from fractions import Fraction

import pytest

from lnd import groupmodel
from lnd.arith import XYZ, ZP, Poly, substitute
from lnd.automorphisms import Automorphism, identity, modification
from lnd.delta_family import make_context
from lnd.derivations import Derivation
from lnd.errors import LawHypothesisError
from lnd.groupmodel import (
    CharacterVector,
    GElem,
    char_commutator_check,
    commutator,
    derived_witness,
    g_elem,
    g_identity,
    g_inverse,
    g_mul,
    make_group_law,
    nonfence_commutator_check,
    verify_pres_lemma,
)
from lnd.syntax import parse_poly


def k(text):
    return parse_poly(text, ZP)


def p(text):
    return parse_poly(text, XYZ)


LAW = make_group_law([-2], [1], [2], k("z"))
DDX = Derivation(Poly.one(XYZ), Poly.zero(XYZ), Poly.zero(XYZ))  # log(x + 1, y, z)


def rand_gelem(rng, law=LAW, allow_torus=True):
    torus = tuple(
        Fraction(rng.choice([1, 2, 3, -1, 1, 1]))
        if allow_torus
        else Fraction(1)
        for _ in range(law.rank)
    )
    h = Poly.zero(ZP)
    for e in range(3):
        h = h + Poly(ZP, {(e, 0): Fraction(rng.randint(-4, 4))})
    f = Poly.zero(ZP)
    for _ in range(3):
        f = f + Poly(ZP, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))})
    return GElemWrap(torus, h, f)


def GElemWrap(torus, h, f):
    return g_elem(torus, h, f)


def test_character_evaluation():
    chi = CharacterVector((2, -1))
    assert chi.evaluate((Fraction(2), Fraction(3))) == Fraction(4, 3)
    assert CharacterVector((0, 0)).evaluate((Fraction(2), Fraction(3))) == 1


def test_literal_torus_fiber_product():
    lam = g_elem((2,), 0, 0)
    hf = g_elem((1,), k("z"), k("P"))
    assert g_mul(lam, hf, LAW) == g_elem((2,), k("z"), k("P"))


def test_fiber_product_instances():
    got = g_mul(g_elem((1,), 1, k("P")), g_elem((1,), 2, k("z")), LAW)
    assert got == g_elem((1,), 3, k("P - 2*z + z"))
    got = g_mul(g_elem((1,), 1, k("P^2")), g_elem((1,), 1, k("0")), LAW)
    assert got == g_elem((1,), 2, (k("P") - k("z")) ** 2)


def test_group_axioms_random():
    rng = random.Random(101)
    e = g_identity(LAW)
    for _ in range(25):
        a, b, c = (rand_gelem(rng) for _ in range(3))
        assert g_mul(g_mul(a, b, LAW), c, LAW) == g_mul(a, g_mul(b, c, LAW), LAW)
        assert g_mul(a, e, LAW) == a and g_mul(e, a, LAW) == a
        ai = g_inverse(a, LAW)
        assert g_mul(a, ai, LAW) == e and g_mul(ai, a, LAW) == e


def _chi(character, point):
    return math.prod(Fraction(c) ** e for c, e in zip(point, character.exponents))


def _old_conjugate(law, point, h, f):
    """Torus conjugation of the fiber with each rescale a generic substitution."""
    zv, pv = k("z"), k("P")
    r1, r2 = _chi(law.rho1, point), _chi(law.rho2, point)
    h_c = substitute(h, {"z": zv * r1, "P": pv}) * _chi(law.nu, point)
    f_c = substitute(f, {"z": zv * r1, "P": pv * r2}) * _chi(law.mu, point)
    return h_c, f_c


def _old_mul(a, b, law):
    h_c, f_c = _old_conjugate(law, b.torus, a.h, a.f)
    shifted = substitute(f_c, {"z": k("z"), "P": k("P") - b.h * law.a_prime})
    torus = tuple(x * y for x, y in zip(a.torus, b.torus))
    return GElem(torus, h_c + b.h, shifted + b.f)


def _old_inverse(a, law):
    point = tuple(1 / c for c in a.torus)
    h_c, f_c = _old_conjugate(law, point, a.h, a.f)
    f_part = -substitute(f_c, {"z": k("z"), "P": k("P") + h_c * law.a_prime})
    return GElem(point, -h_c, f_part)


@pytest.mark.parametrize(
    "law",
    [
        LAW,
        make_group_law([1], [1], [1], k("z^2")),
        make_group_law([-1, -1], [1, 0], [0, 1], k("z")),
        make_group_law([2, -1], [1, 1], [0, 1], k("-3*z")),
    ],
    ids=["rank1", "rank1-z2", "rank2", "rank2-mixed"],
)
def test_group_operations_agree_with_substitution_formulas(law):
    rng = random.Random(113 + law.rank)
    coords = [Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(-1, 3)]
    elems = []
    for i in range(12):
        el = rand_gelem(rng, law, allow_torus=False)
        if i % 3:  # every third element keeps the unit torus point
            el = GElem(tuple(rng.choice(coords) for _ in range(law.rank)), el.h, el.f)
        elems.append(el)
    assert _derived_identity_holds(law)
    e = g_identity(law)
    for a, b in zip(elems, elems[1:] + elems[:1]):
        assert g_mul(a, b, law) == _old_mul(a, b, law)
        assert g_inverse(a, law) == _old_inverse(a, law)
        ai, bi = _old_inverse(a, law), _old_inverse(b, law)
        old_bracket = _old_mul(_old_mul(_old_mul(a, b, law), ai, law), bi, law)
        assert commutator(a, b, law) == old_bracket
        assert g_mul(a, g_inverse(a, law), law) == e


def _derived_identity_holds(law):
    """[(1, 0, P), (1, 1, 0)] = (1, 0, P - P(P + a')) under the law."""
    one = (1,) * law.rank
    pv = k("P")
    shifted = substitute(pv, {"z": k("z"), "P": pv + law.a_prime})
    bracket = commutator(g_elem(one, 0, pv), g_elem(one, 1, 0), law)
    return bracket == g_elem(one, 0, pv - shifted)


def test_commutator_convention_matches_derived_identity():
    assert _derived_identity_holds(LAW)


def test_derived_subgroup_identity_symbolic():
    rng = random.Random(103)
    zv, pv = k("z"), k("P")
    for _ in range(25):
        q = Poly.zero(ZP)
        for _ in range(3):
            q = q + Poly(ZP, {(rng.randint(0, 2), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))})
        h0 = Poly.zero(ZP)
        for e in range(3):
            h0 = h0 + Poly(ZP, {(e, 0): Fraction(rng.randint(-5, 5))})
        lhs = commutator(g_elem((1,), 0, q), g_elem((1,), h0, k("3*z*P - 1")), LAW)
        shift = substitute(q, {"z": zv, "P": pv + h0 * LAW.a_prime})
        assert lhs == g_elem((1,), 0, q - shift)


def test_commutator_depends_only_on_q_and_h0():
    rng = random.Random(107)
    q = k("z*P^2 - 3*P")
    h0 = k("z + 1")
    base = commutator(g_elem((1,), 0, q), g_elem((1,), h0, k("0")), LAW)
    for _ in range(5):
        f0 = Poly(ZP, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-5, 5))})
        assert commutator(g_elem((1,), 0, q), g_elem((1,), h0, f0), LAW) == base


def test_torus_commutator_scales_by_character():
    # [(lam,0,0), (1,0,z^i P^j)] = (1, 0, (chi(lam)^-1 - 1) z^i P^j)
    lam = g_elem((3,), 0, 0)
    for i, j in ((1, 1), (0, 2), (2, 0)):
        q = Poly(ZP, {(i, j): Fraction(1)})
        got = commutator(lam, g_elem((1,), 0, q), LAW)
        chi = Fraction(3) ** (-2 + i + 2 * j)
        assert got == g_elem((1,), 0, q * (Fraction(1) / chi - 1))


def test_fiber_is_abelian_and_normal():
    rng = random.Random(109)
    for _ in range(10):
        a = rand_gelem(rng)
        f_el = g_elem((1,), 0, k("z*P - 2"))
        conj = g_mul(g_mul(g_inverse(a, LAW), f_el, LAW), a, LAW)
        assert all(c == 1 for c in conj.torus)
        assert conj.h.is_zero()


def test_derived_witness_construction():
    # which h survive the torus commutator depends on nu + deg(h) * rho1
    w = derived_witness(LAW, k("1"))
    assert all(c == 1 for c in w.torus)
    assert not w.h.is_zero()
    w = derived_witness(LAW, k("z^2"))
    assert not w.h.is_zero()


def test_verify_pres_lemma_rank1():
    witnesses = [derived_witness(LAW, k("1")), derived_witness(LAW, k("z^2"))]
    candidates = [
        g_identity(LAW),
        g_elem((2,), 0, 0),
        g_elem((1,), 1, 0),
        g_elem((1,), 0, k("P")),
        g_elem((1,), 0, k("z^2*P - 7")),
    ]
    report = verify_pres_lemma(LAW, witnesses, candidates)
    assert report.holds
    fiber_flags = [v.in_fiber for v in report.verdicts]
    assert fiber_flags == [True, False, False, True, True]
    passed = [v.centralizes_all for v in report.verdicts]
    assert passed == [True, False, False, True, True]
    assert len(report.witnesses) == 9


def test_verify_pres_lemma_partial_eliminations():
    # a candidate with torus part -1 and the matching h-part centralizes the
    # first-choice witness of every stage; only the enlarged power family
    # (parity coverage) eliminates it, so rejection requires the full list
    law = make_group_law([-3], [1], [2], k("z"))
    witnesses = [derived_witness(law, k("1"))]
    h0 = witnesses[0].h
    cand = g_elem((Fraction(-1),), -h0, 0)
    report = verify_pres_lemma(law, witnesses, [cand])
    verdict = report.verdicts[0]
    assert not verdict.in_fiber and not verdict.centralizes_all
    first_choice = {}
    for w in report.witnesses:
        first_choice.setdefault(w.stage, w)
    for w in first_choice.values():
        assert commutator(cand, w.element, law) == g_identity(law)
    assert verdict.failing_witness.power > first_choice[verdict.failing_witness.stage].power


def test_verify_pres_lemma_monotone_in_power():
    # verdicts are stable when the witness powers are enlarged further
    witnesses = [derived_witness(LAW, k("1"))]
    candidates = [g_elem((2,), 0, 0), g_elem((1,), 0, k("P"))]
    base = verify_pres_lemma(LAW, witnesses, candidates)
    zv, pv = k("z"), k("P")
    for w in base.witnesses:
        for extra in (1, 2):
            gen = g_elem((1,), 0, zv ** (w.power + extra) * pv**w.stage)
            w2 = commutator(gen, witnesses[0], LAW)
            for cand, verdict in zip(candidates, base.verdicts):
                if verdict.in_fiber:
                    assert commutator(cand, w2, LAW) == g_identity(LAW)


def test_verify_pres_lemma_rejects_a_witness_off_its_closed_form(monkeypatch):
    # A law that shifts P the wrong way, f(z, P - h a'), gives commutators
    # (1, 0, z^i h0 a') at stage 1, against the closed form -z^i h0 a'.
    shift = groupmodel.shift_in_P
    monkeypatch.setattr(groupmodel, "shift_in_P", lambda f, h, a_prime: shift(f, -h, a_prime))
    with pytest.raises(LawHypothesisError) as err:
        verify_pres_lemma(LAW, [derived_witness(LAW, k("1"))], [g_identity(LAW)])
    assert str(err.value) == "derived witness for stage 1 disagrees with its closed form"


def test_verify_pres_lemma_degenerate_law_rejected():
    law = make_group_law([1], [0], [0], k("z"))
    with pytest.raises(LawHypothesisError):
        verify_pres_lemma(law, [derived_witness(LAW, k("1"))], [])


def test_char_commutator_zero_h():
    ctx = make_context(p("x*z + y^2"), deg_max=3)
    report = char_commutator_check(ctx, k("0"), k("P"))
    assert report.holds
    assert report.rhs == identity()


def test_char_commutator_reproduces_factor():
    ctx = make_context(p("x*z + y^2"), deg_max=3)
    report = char_commutator_check(ctx, k("1"), k("0"))
    assert report.holds
    assert report.expected_factor == k("-2*z^2")
    assert report.rhs == modification(p("-2*z^2"), ctx.D_prime)
    report = char_commutator_check(ctx, k("z"), k("P"))
    assert report.holds
    assert report.expected_factor == k("-2*z^3")


def test_char_commutator_random_h():
    ctx = make_context(p("x*z + y^2"), deg_max=3)
    rng = random.Random(113)
    for _ in range(5):
        h = Poly.zero(ZP)
        for e in range(3):
            h = h + Poly(ZP, {(e, 0): Fraction(rng.randint(-4, 4))})
        f = Poly(ZP, {(rng.randint(0, 2), rng.randint(0, 1)): Fraction(rng.randint(-4, 4))})
        assert char_commutator_check(ctx, h, f).holds


def test_nonfence_commutator():
    u_prime = Automorphism(p("x + 1"), p("y"), p("z"))
    d = p("y*z^2")
    t = Automorphism(p("18*x"), p("2*y"), p("3*z"))  # mu = rho1 rho2^2 forced
    report = nonfence_commutator_check(u_prime, d, t, p("z"), p("y"), 1)
    assert report.holds
    # mu = 18, rho = 2: beta = rho/mu = 1/9 gives (1 - 9)(1 - 1/9) = -64/9
    assert (report.orientation, report.scalar) == ("mu-inverse", Fraction(-64, 9))
    assert report.rhs == modification(p("y") * Fraction(-64, 9), DDX)


def test_nonfence_commutator_identity_u_prime_keeps_gamma():
    # log(identity) = 0: both derivations vanish, so the "mu" label and
    # gamma = mu rho = 36's scalar (1 - 1/36)(1 - 36) are reported
    t = Automorphism(p("18*x"), p("2*y"), p("3*z"))
    report = nonfence_commutator_check(identity(), p("y*z^2"), t, p("z"), p("y"), 1)
    assert report.holds
    assert (report.orientation, report.scalar) == ("mu", Fraction(-1225, 36))
    assert report.lhs == report.rhs == identity()


def test_nonfence_commutator_builds_one_right_side(monkeypatch):
    import lnd.groupmodel as groupmodel

    calls = []

    def counting(f, d):
        calls.append(f)
        return modification(f, d)

    monkeypatch.setattr(groupmodel, "modification", counting)
    u_prime = Automorphism(p("x + 1"), p("y"), p("z"))
    t = Automorphism(p("18*x"), p("2*y"), p("3*z"))
    report = nonfence_commutator_check(u_prime, p("y*z^2"), t, p("z"), p("y"), 1)
    assert report.orientation == "mu-inverse"
    assert len(calls) == 3  # v^k.u', f.u' and the proven right side


def test_nonfence_commutator_identity_t():
    u_prime = Automorphism(p("x + 1"), p("y"), p("z"))
    report = nonfence_commutator_check(
        u_prime, p("y*z^2"), identity(), p("z"), p("y"), 2
    )
    assert report.holds
    assert report.lhs == identity() and report.scalar == 0


def test_nonfence_commutator_k_zero_scalar_case():
    u_prime = Automorphism(p("x + 1"), p("y"), p("z"))
    t = Automorphism(p("2*x"), p("2*y"), p("z"))
    report = nonfence_commutator_check(u_prime, p("y*z^2"), t, p("0"), p("y"), 0)
    assert report.holds
    # gamma = 2 and beta = 1/2 share the scalar -1/2, so the label is "mu"
    assert (report.orientation, report.scalar) == ("mu", Fraction(-1, 2))
