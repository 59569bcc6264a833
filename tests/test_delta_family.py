import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lnd import arith, corpus, delta_family, derivations, runner
from lnd.arith import ALLOWANCE, XYZ, ZP, Poly, WorkBudgetExceeded, gcd_many, substitute
from lnd.automorphisms import Automorphism, commutes, compose
from lnd.delta_family import (
    compose_with_family,
    E_OUTER,
    _realization_word,
    _recover_pair,
    ad_identity_check,
    aut_to_n,
    exp_m_decompose,
    expand_kernel_poly,
    express_in_zp,
    irreducibility_criterion_check,
    m_derivation,
    make_context,
    n_elem,
    n_mul,
    n_to_aut,
    shift_in_P,
)
from lnd.derivations import (
    apply,
    compose_exp_word,
    exponential,
    is_irreducible,
    lie_bracket,
    scale_poly,
    standard_decomposition,
)
from lnd.errors import ContextError, NotInNError, SearchExhaustedError, VerificationError
from lnd.syntax import parse_poly
import oracles
from oracles import combine_to_delta, express_in_kernel, n_inverse, quotient_action


def p(text):
    return parse_poly(text, XYZ)


def k(text):
    return parse_poly(text, ZP)


CTX = make_context(p("x*z + y^2"), deg_max=3)
CTX_Z = make_context(p("x*z + y^2"), p("z").to_ring(("z",)), deg_max=3)


def rand_nelem(rng, deg=3):
    h = Poly.zero(ZP)
    for e in range(deg + 1):
        h = h + Poly(ZP, {(e, 0): Fraction(rng.randint(-9, 9))})
    f = Poly.zero(ZP)
    for _ in range(4):
        ez = rng.randint(0, deg)
        ep = rng.randint(0, deg - ez)
        f = f + Poly(ZP, {(ez, ep): Fraction(rng.randint(-9, 9))})
    return n_elem(h, f)


def test_context_data():
    assert CTX.Q == p("y")
    assert CTX.a_prime == p("z")
    assert CTX.d * CTX.a_prime == p("z")
    assert CTX.E.images == (p("-1"), p("0"), p("0"))
    assert CTX.e == Automorphism(p("x - 1"), p("y"), p("z"))


def test_context_slice_case():
    ctx = make_context(p("y"), deg_max=2)
    assert ctx.Q == p("-x")
    assert ctx.a_prime == Poly.one(XYZ)
    assert ctx.E.images == (p("0"), p("-1"), p("0"))


def test_context_with_modification_factor():
    assert CTX_Z.d * CTX_Z.a_prime == p("z^2")
    assert CTX_Z.a_prime == p("z")
    assert exponential(CTX_Z.D) == exponential(scale_poly(p("z"), CTX.D_prime))


def test_context_rejects_non_nilpotent():
    with pytest.raises(ContextError):
        make_context(p("x^2 + y^2"), deg_max=2)


def test_combine_to_delta_trivial_parts():
    f_poly, ok = combine_to_delta(CTX, n_elem(k("1"), k("0")))
    assert ok and f_poly == CTX.Q
    f_poly, ok = combine_to_delta(CTX, n_elem(k("0"), k("1")))
    assert ok and f_poly == CTX.P


def test_combine_to_delta_mixed():
    f_poly, ok = combine_to_delta(CTX, n_elem(k("z"), k("P")))
    assert ok
    assert f_poly == p("y") * p("z") + (p("x*z + y^2") ** 2) * Fraction(1, 2)


def test_combine_to_delta_random():
    rng = random.Random(51)
    for _ in range(15):
        n = rand_nelem(rng, 2)
        _, ok = combine_to_delta(CTX, n)
        assert ok


def test_n_mul_shifted_product_instances():
    a_prime = CTX.a_prime_zp()
    got = n_mul(n_elem(k("1"), k("P")), n_elem(k("2"), k("z")), CTX)
    assert got == n_elem(k("3"), k("P") - a_prime * 2 + k("z"))
    got = n_mul(n_elem(k("1"), k("P^2")), n_elem(k("1"), k("0")), CTX)
    assert got == n_elem(k("2"), (k("P") - a_prime) ** 2)


def test_n_mul_identity_and_inverse():
    rng = random.Random(53)
    for _ in range(20):
        n = rand_nelem(rng)
        assert n_mul(n, n_elem(0, 0), CTX) == n
        assert n_mul(n_elem(0, 0), n, CTX) == n
        inv = n_inverse(n, CTX)
        assert n_mul(n, inv, CTX) == n_elem(0, 0)
        assert n_mul(inv, n, CTX) == n_elem(0, 0)


@pytest.mark.parametrize("ctx", [CTX, CTX_Z], ids=["d=1", "d=z"])
def test_n_mul_agrees_with_the_substitution_law(ctx):
    rng = random.Random(59)
    elems = [rand_nelem(rng) for _ in range(12)]
    elems += [n_elem(0, 0), n_elem(k("1/2*z - 1"), 0), n_elem(0, k("1/3*P^3 - z*P"))]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        assert n_mul(a, b, ctx) == oracles.n_mul(a, b, ctx)


def test_shift_in_P_charges_the_powers_of_s():
    f, s = k("z*P^3 - P + 1/2"), k("2*z^2 - 3/5*z")
    expected = oracles.shift_in_P(f, -s, Poly.one(ZP)) * Fraction(-3, 2) + k("P")
    # s^2 and s^3 are tabled: 2 * 2 + 2 * 3 = 10 term pairs
    for allowance, trips in ((9, True), (10, False)):
        token = ALLOWANCE.set([allowance])
        try:
            if trips:
                with pytest.raises(WorkBudgetExceeded):
                    shift_in_P(f, s, k("P"), Fraction(-3, 2))
            else:
                assert shift_in_P(f, s, k("P"), Fraction(-3, 2)) == expected
                assert ALLOWANCE.get() == [0]
        finally:
            ALLOWANCE.reset(token)


def test_n_inverse_closed_forms():
    assert n_inverse(n_elem(k("0"), k("z*P")), CTX) == n_elem(k("0"), k("-z*P"))
    assert n_inverse(n_elem(k("z^2"), k("0")), CTX) == n_elem(k("-z^2"), k("0"))
    got = n_inverse(n_elem(k("1"), k("P")), CTX)
    assert got == n_elem(k("-1"), -(k("P") + CTX.a_prime_zp()))


def test_group_associativity_random():
    rng = random.Random(57)
    for _ in range(15):
        a, b, c = (rand_nelem(rng, 2) for _ in range(3))
        assert n_mul(n_mul(a, b, CTX), c, CTX) == n_mul(a, n_mul(b, c, CTX), CTX)


def test_n_to_aut_basics():
    from lnd.automorphisms import identity

    assert n_to_aut(n_elem(0, 0), CTX) == identity()
    assert n_to_aut(n_elem(k("1"), k("0")), CTX) == CTX.e
    u_prime = exponential(CTX.D_prime)
    assert n_to_aut(n_elem(k("0"), k("1")), CTX) == u_prime
    assert u_prime.pullback_x == p("x - 2*y - z")


def test_homomorphism_property_random():
    rng = random.Random(59)
    for _ in range(25):
        a, b = rand_nelem(rng, 2), rand_nelem(rng, 2)
        lhs = n_to_aut(n_mul(a, b, CTX), CTX)
        rhs = compose(n_to_aut(a, CTX), n_to_aut(b, CTX))
        assert lhs == rhs


def _commutes_by_composition(g, u):
    return compose(g, u) == compose(u, g)


def test_images_commute_with_u_and_uprime():
    rng = random.Random(61)
    u, u_prime = exponential(CTX_Z.D), exponential(CTX_Z.D_prime)
    for _ in range(10):
        g = n_to_aut(rand_nelem(rng, 2), CTX_Z)
        assert _commutes_by_composition(g, u)
        assert _commutes_by_composition(g, u_prime)
        assert commutes(g, CTX_Z.D) and commutes(g, CTX_Z.D_prime)


def test_aut_to_n_roundtrip():
    rng = random.Random(67)
    for _ in range(15):
        n = rand_nelem(rng, 2)
        assert aut_to_n(n_to_aut(n, CTX), CTX) == n
    from lnd.automorphisms import identity

    assert aut_to_n(identity(), CTX) == n_elem(0, 0)


def test_aut_to_n_rejects_outsiders():
    flip = Automorphism(p("x"), p("y"), p("-z"))
    with pytest.raises(NotInNError):
        aut_to_n(flip, CTX)
    # fixes P and Q, so both exact divisions succeed and only the final
    # recomposition rejects it
    double_flip = Automorphism(p("-x"), p("y"), p("-z"))
    assert _recover_pair(double_flip, CTX) == n_elem(0, 0)
    with pytest.raises(NotInNError):
        aut_to_n(double_flip, CTX)
    homothety = Automorphism(p("2*x"), p("2*y"), p("2*z"))
    # commutes with u but acts nontrivially on the quotient: not in N
    assert commutes(homothety, CTX.D)
    with pytest.raises(NotInNError):
        aut_to_n(homothety, CTX)


def test_exp_m_decompose():
    assert exp_m_decompose(n_elem(k("0"), k("z^2 - P")), CTX) == k("z^2 - P")
    assert exp_m_decompose(n_elem(k("z^3"), k("0")), CTX) == k("0")
    rng = random.Random(71)
    for _ in range(10):
        n = rand_nelem(rng, 2)
        g_res = exp_m_decompose(n, CTX)
        assert aut_to_n(exponential(m_derivation(CTX, n)), CTX) == n_elem(n.h, g_res)


def test_exp_m_decompose_certificate_rejects_a_wrong_exponential(monkeypatch):
    # double_flip fixes P and Q, so the recovery returns (0, 0) and keeps
    # h = 0; only the recomposition sees that the pair does not realize it
    double_flip = Automorphism(p("-x"), p("y"), p("-z"))
    monkeypatch.setattr(delta_family, "exponential", lambda d: double_flip)
    with pytest.raises(VerificationError, match="^decomposition does not recompose$"):
        exp_m_decompose(n_elem(k("0"), k("z*P")), CTX)


CENTRALIZER_CORPUS = """
context C { P = x*z + y^2; d = 1; deg_max = 3 }
context CZ { P = x*z + y^2; d = z; deg_max = 3 }
check n_group_homomorphism(C, samples = 5)
check n_group_homomorphism(CZ, samples = 5)
"""


def test_round_trip_fails_when_the_recovered_pair_differs(monkeypatch):
    def off_by_one(g, ctx):
        pair = _recover_pair(g, ctx)
        return n_elem(pair.h, pair.f + k("1"))

    monkeypatch.setattr(delta_family, "_recover_pair", off_by_one)
    report = runner.run(corpus.parse(CENTRALIZER_CORPUS), seed=0)
    assert [e.verdict for e in report.entries] == ["FAIL", "FAIL"]
    assert all(e.detail.startswith("round-trip fails on n(") for e in report.entries)


def _count_products(monkeypatch) -> list[int]:
    """[products, term pairs] of every Poly x Poly product from here on:
    those of Poly.__mul__, and the products that run on numerator maps: the
    Leibniz products image_v * dp/dv of derivations.apply, and in
    delta_family the products h E_v and f D'_v of m_derivation, the
    growth of a context's table of powers of P and shift_in_P's powers of s."""
    counts = [0, 0]
    mul = Poly.__mul__

    def counting_mul(a, b):
        if isinstance(b, Poly):
            counts[0] += 1
            counts[1] += len(a.terms) * len(b.terms)
        return mul(a, b)

    def counting(map_product):
        def product(a, b, out=None):
            counts[0] += 1
            counts[1] += len(a) * len(b)
            return map_product(a, b, out)

        return product

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    for module in (derivations, delta_family):
        monkeypatch.setattr(module, "_mul_terms", counting(module._mul_terms))
    return counts


def test_centralizer_work_is_pinned(monkeypatch):
    # Poly x Poly term pairs of the whole run, contexts included (48,198
    # when the round-trip also recomposed the recovered pair, 39,519 while
    # divide_exact multiplied each quotient term by the divisor, 39,198 while
    # centralizing u was checked by intertwining with D = d D', 38,379 while
    # express_in_zp peeled by x-degree, 38,327 while the pair recovery
    # re-checked D'(f) = 0, 38,201 while it stripped exp(-hE) before reading
    # f off g*(Q), 37,993 while expand_kernel_poly substituted P by Horner's
    # rule instead of reading a context's table of powers of P, 36,868 while
    # n_mul shifted P by Horner's rule instead of a table of powers of s).
    case = corpus.parse(CENTRALIZER_CORPUS)
    products = _count_products(monkeypatch)
    report = runner.run(case, seed=0)
    assert [e.verdict for e in report.entries] == ["PASS", "PASS"]
    assert products[1] == 36_793


def test_a_scaling_that_commutes_with_d_prime_does_not_centralize_u(monkeypatch):
    # (2x, 2y, 2z) commutes with D' = (-2y, z, 0) but moves d = z, so it does
    # not commute with D = z D'.
    scaling = Automorphism(p("2*x"), p("2*y"), p("2*z"))
    assert commutes(scaling, CTX_Z.D_prime) and not commutes(scaling, CTX_Z.D)
    monkeypatch.setattr(delta_family, "n_to_aut", lambda n, ctx: scaling)
    monkeypatch.setattr(delta_family, "compose_with_family", lambda g, n, ctx: scaling)
    case = corpus.parse(
        "context CZ { P = x*z + y^2; d = z; deg_max = 3 }\n"
        "check n_group_homomorphism(CZ, samples = 1)\n"
    )
    [entry] = runner.run(case, seed=0).entries
    assert entry.verdict == "FAIL"
    assert "does not centralize u or u'" in entry.detail


def test_ad_identity_instances():
    rep = ad_identity_check(CTX, k("1"), k("P"), 1)
    assert rep.holds
    rep = ad_identity_check(CTX, k("z"), k("P^2"), 2)
    assert rep.holds
    rng = random.Random(73)
    for _ in range(10):
        n = rand_nelem(rng, 2)
        assert ad_identity_check(CTX, n.h, n.f, 4).holds


def test_irreducibility_criterion():
    rep = irreducibility_criterion_check(CTX, n_elem(k("1"), k("P")), )
    assert rep.criterion_applies and rep.combined_irreducible
    rep = irreducibility_criterion_check(CTX, n_elem(k("z"), k("z*P")))
    assert not rep.criterion_applies
    assert rep.gcd_hf == k("z")
    assert rep.content_matches
    rep = irreducibility_criterion_check(CTX, n_elem(k("1"), k("0")))
    assert rep.criterion_applies and rep.combined_irreducible


def test_irreducibility_criterion_heavy_tail_pair():
    # The images of h E + f D' for this pair are 10-term polynomials of degree
    # 7 whose exact PRS gcd grows coefficients past a million bits.
    started = time.monotonic()
    rep = irreducibility_criterion_check(
        CTX, n_elem(k("21*z^3"), k("4*z^3 + z^2*P + 4*P^3 - 7*P"))
    )
    elapsed = time.monotonic() - started
    assert rep.criterion_applies and rep.combined_irreducible
    assert elapsed < 2, f"heavy-tail pair took {elapsed:.1f}s"


def test_irreducibility_corpus_never_reaches_the_prs(monkeypatch):
    # gcd(h, f) with h in Q[z] folds over f's coefficients in P into integer
    # Euclids in z, and the cofactor gcds are certified coprime; sending the
    # nonconstant gcd(h, f) to the PRS costs 98 _gcd_prs calls here.
    calls = []
    prs = arith._gcd_prs
    monkeypatch.setattr(arith, "_gcd_prs", lambda p, q, i: calls.append(p) or prs(p, q, i))
    golden = Path(__file__).resolve().parent / "golden"
    case = corpus.parse((golden / "irreducibility_1.corpus").read_text())
    report = runner.format_report(runner.run(case))
    assert report == (golden / "irreducibility_1.check.txt").read_text()
    assert not calls


def test_irreducibility_work_is_pinned(monkeypatch):
    # Poly products and their term pairs over the whole run, and the
    # divisions of the criterion: 34 directives with a nonconstant
    # gcd(h, f) each divide h and f by it in Q[z, P].  Dividing the three
    # images of h E + f D' by the expanded gcd in Q[x, y, z] instead took
    # 1,419 products with 3,275 term pairs and 102 divisions.  Substituting P
    # by Horner's rule in every expansion, and forming h E_v + f D'_v from
    # Poly products and a sum, took 1,056 products with 2,578 term pairs.
    products, divisions = _count_products(monkeypatch), []
    divide = delta_family.divide_exact
    monkeypatch.setattr(
        delta_family, "divide_exact", lambda p, q: divisions.append(p.vars) or divide(p, q)
    )
    golden = Path(__file__).resolve().parent / "golden"
    report = runner.run(corpus.parse((golden / "irreducibility_1.corpus").read_text()))
    assert runner.format_report(report) == (golden / "irreducibility_1.check.txt").read_text()
    assert products == [791, 1_686]
    assert divisions == [ZP] * 68


CTX_HALF = make_context(p("1/2*x*z + 3/4*y^2"), deg_max=3)


def _rand_rational_pair(rng):
    """(h, f) with rational coefficients, h in Q[z] and f of P-degree <= 4."""
    h = Poly(ZP, {(e, 0): Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in range(3)})
    f = Poly(ZP, {
        (rng.randint(0, 2), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for _ in range(rng.randint(1, 5))
    })
    return n_elem(h, f)


def _spent(fn, *args):
    """fn(*args) and the term pairs it charged to an armed ALLOWANCE."""
    allowance = [10**6]
    token = arith.ALLOWANCE.set(allowance)
    try:
        return fn(*args), 10**6 - allowance[0]
    finally:
        arith.ALLOWANCE.reset(token)


@pytest.mark.parametrize("ctx", [CTX, CTX_Z, CTX_HALF], ids=["d=1", "d=z", "rational-P"])
def test_numerator_kernels_agree_with_poly_arithmetic(ctx):
    # expand_kernel_poly against substitution, m_derivation against the Poly
    # products h E_v + f D'_v, whose term pairs it charges; on a fresh table
    # of powers of P, which grows as they run (each charge is checked once
    # f's powers are in the table).
    ctx = ctx._replace(P_powers=[{(0, 0, 0): 1}])
    rng = random.Random(f"kernels-{ctx.P}")
    pairs = [n_elem(k("0"), k("z*P^4 - 1/3")), n_elem(k("2/5*z - 1"), k("0")),
             n_elem(k("z"), k("7/2")), n_elem(k("0"), k("0"))]
    pairs += [_rand_rational_pair(rng) for _ in range(40)]
    for n in pairs:
        f_amb = substitute(n.f, {"z": p("z"), "P": ctx.P})
        assert expand_kernel_poly(ctx, n.f) == f_amb
        h_amb = n.h.to_ring(XYZ)
        w, spent = _spent(m_derivation, ctx, n)
        images = zip(ctx.E.images, ctx.D_prime.images)
        assert w.images == tuple(h_amb * e + f_amb * d for e, d in images)
        products = [(h_amb, e) for e in ctx.E.images] + [(f_amb, d) for d in ctx.D_prime.images]
        assert spent == sum(len(a.terms) * len(b.terms) for a, b in products)
    assert len(ctx.P_powers) == 5


def _rand_z_poly(rng, deg):
    out = Poly(ZP, {(deg, 0): Fraction(rng.randint(1, 5), rng.randint(1, 3))})
    for e in range(deg):
        out = out + Poly(ZP, {(e, 0): Fraction(rng.randint(-5, 5))})
    return out


def _rand_zp_poly(rng, deg):
    out = Poly(ZP, {(0, 1): Fraction(rng.randint(1, 5))})
    for _ in range(3):
        ez = rng.randint(0, deg)
        out = out + Poly(ZP, {(ez, rng.randint(0, deg - ez)): Fraction(rng.randint(-5, 5))})
    return out


CTX_Z2 = make_context(p("x*z + y^2"), p("z^2 + 1").to_ring(("z",)), deg_max=3)


@pytest.mark.parametrize("ctx", [CTX, CTX_Z, CTX_Z2], ids=["d=1", "d=z", "d=z^2+1"])
def test_cofactor_content_agrees_with_image_gcd(ctx):
    # A common factor g in Q[z] of degree 1-3 makes the criterion's content
    # the expansion of gcd(h, f) times the cofactors' gcd; the oracle is the
    # gcd of the images themselves.
    rng = random.Random(7)
    for deg in (1, 2, 3, 1, 2, 3):
        g = _rand_z_poly(rng, deg)
        n = n_elem(g * _rand_z_poly(rng, rng.randint(0, 1)), g * _rand_zp_poly(rng, 2))
        rep = irreducibility_criterion_check(ctx, n)
        assert not rep.criterion_applies
        assert rep.combined_content == gcd_many(m_derivation(ctx, n).images)
        assert rep.holds
    # With h = 0 or f = 0 the gcd is the other component, which may involve P.
    for h, f in (("0", "z + P"), ("0", "-2*z^2*P - 2*z*P^2 + 6"), ("3*z^2 - 3", "0")):
        n = n_elem(k(h), k(f))
        rep = irreducibility_criterion_check(ctx, n)
        assert not rep.criterion_applies and rep.gcd_hf == k(f if h == "0" else h).monic()
        assert rep.combined_content == gcd_many(m_derivation(ctx, n).images)
        assert rep.holds
    with pytest.raises(ValueError, match="zero combined derivation"):
        irreducibility_criterion_check(ctx, n_elem(0, 0))


def test_cofactor_content_with_shared_cofactor_factor():
    # Scaling E and D' by x + 1 gives every pair's cofactors the factor
    # x + 1, so the content is more than the expanded gcd(h, f).
    xp1 = p("x + 1")
    ctx = CTX._replace(E=scale_poly(xp1, CTX.E), D_prime=scale_poly(xp1, CTX.D_prime))
    contents = []
    for n in (n_elem(k("z + 1"), k("z*P + P")), n_elem(k("z"), k("z^2 + z*P"))):
        rep = irreducibility_criterion_check(ctx, n)
        assert not rep.criterion_applies and not rep.holds
        assert rep.combined_content == gcd_many(m_derivation(ctx, n).images)
        contents.append(rep.combined_content)
    assert contents == [p("x*z + x + z + 1"), p("x*z + z")]


def _law_pairs():
    z, pv = k("z"), k("P")
    return [
        (n_elem(k("1"), pv), n_elem(k("1"), k("0"))),
        (n_elem(z, pv * pv), n_elem(z * z, pv + z)),
    ]


U_OUTER = "u-outer"  # the reversed word [f D', h E], which the law rules out


def _word(ctx, n, conv):
    f_amb = substitute(n.f, {"z": p("z"), "P": ctx.P})
    word = _realization_word(ctx, n.h.to_ring(XYZ), f_amb)
    return word if conv == E_OUTER else word[::-1]


def _word_law_holds(ctx):
    """Per order, whether word(a.b) composes to word(a) + word(b) on the law pairs."""
    return {
        conv: all(
            compose_exp_word(_word(ctx, n_mul(a, b, ctx), conv))
            == compose_exp_word(_word(ctx, a, conv) + _word(ctx, b, conv))
            for a, b in _law_pairs()
        )
        for conv in (E_OUTER, U_OUTER)
    }


@pytest.mark.parametrize("ctx", [CTX, CTX_Z], ids=["C", "CZ"])
def test_convention_by_exp_words(ctx):
    for conv in (E_OUTER, U_OUTER):
        for a, b in _law_pairs():
            joined = compose_exp_word(_word(ctx, a, conv) + _word(ctx, b, conv))
            composed = compose(
                compose_exp_word(_word(ctx, a, conv)), compose_exp_word(_word(ctx, b, conv))
            )
            assert joined == composed
    assert _word_law_holds(ctx) == {E_OUTER: True, U_OUTER: False}


def _random_context(rng):
    """make_context on P = c m(z) x + q(y, z), with x and y swapped half the
    time, and a random d in Q[z]; None when the draw is rejected."""
    x, y = (p("x"), p("y")) if rng.random() < 0.5 else (p("y"), p("x"))
    m = _rand_z_poly(rng, rng.randint(0, 2)).to_ring(XYZ)
    q_yz = Poly.zero(XYZ)
    for _ in range(rng.randint(1, 3)):
        q_yz = q_yz + y ** rng.randint(1, 3) * p("z") ** rng.randint(0, 2) * rng.randint(-4, 4)
    big_p = m * x * rng.randint(1, 3) + q_yz + p("z") * rng.randint(-2, 2)
    d = _rand_z_poly(rng, rng.randint(0, 2))
    try:
        return make_context(big_p, d.to_ring(("z",)), deg_max=3)
    except (ContextError, SearchExhaustedError):
        return None


def test_random_contexts_satisfy_the_construction_and_the_e_outer_law():
    # make_context checks none of these facts: the construction proves them
    started = time.monotonic()
    rng = random.Random(211)
    contexts = []
    for _ in range(200):
        ctx = _random_context(rng)
        if ctx is not None:
            contexts.append(ctx)
        if len(contexts) == 20:
            break
    assert len(contexts) == 20
    assert len({(ctx.P, ctx.d) for ctx in contexts}) == 20
    for ctx in contexts:
        assert apply(ctx.D_prime, ctx.P).is_zero()
        assert apply(ctx.D_prime, p("z")).is_zero()
        assert not ctx.a_prime.is_zero()
        assert apply(ctx.D_prime, ctx.Q) == ctx.a_prime
        assert apply(ctx.E, ctx.P) == -ctx.a_prime
        assert lie_bracket(ctx.D_prime, ctx.E).is_zero()
        assert _word_law_holds(ctx) == {E_OUTER: True, U_OUTER: False}, ctx.P
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"20 random contexts took {elapsed:.1f}s"


def test_criterion_strips_through_standard_decomposition():
    n = n_elem(k("z"), k("z*P"))
    w = m_derivation(CTX, n)
    d, u_prime = standard_decomposition(exponential(w))
    assert d == p("z")
    assert is_irreducible(
        __import__("lnd.derivations", fromlist=["logarithm"]).logarithm(u_prime)
    )


def test_quotient_action_of_n_elements():
    rng = random.Random(79)
    zv, pv = parse_poly("z", ZP), parse_poly("P", ZP)
    for _ in range(8):
        n = rand_nelem(rng, 2)
        g = n_to_aut(n, CTX)
        g1, g2 = quotient_action(g, [p("z"), CTX.P], 8, ZP)
        assert g1 == zv
        assert g2 == pv - n.h * CTX.a_prime_zp()


def test_fixed_scheme_of_modified_family():
    # the induced shift on Q[z]/(a) is trivial: a divides (P - g*(P)) exactly
    # when h is divisible by d, and always lies in (a') here
    n = n_elem(k("z"), k("0"))
    g = n_to_aut(n, CTX_Z)
    from lnd.automorphisms import pullback

    shift = CTX_Z.P - pullback(g, CTX_Z.P)
    assert shift == expand_kernel_poly(CTX_Z, n.h * CTX_Z.a_prime_zp())


def test_express_in_zp_fast_path():
    f = expand_kernel_poly(CTX, k("P^3 - 2*z*P + 7"))
    assert express_in_zp(CTX, f) == k("P^3 - 2*z*P + 7")
    with pytest.raises(NotInNError):
        express_in_zp(CTX, p("x"))
    with pytest.raises(NotInNError):
        express_in_zp(CTX, p("y^2"))


def test_express_in_zp_without_x():
    ctx = make_context(p("y"), deg_max=2)
    f = expand_kernel_poly(ctx, k("P^2 + z"))
    assert express_in_zp(ctx, f) == k("P^2 + z")


# Kernel generators P of x-degree 0, 1, 1, 2 and 2.
ZP_CONTEXTS = [
    make_context(p(text), deg_max=3)
    for text in ("y", "x*z + y^2", "x*z + y^3", "x^2 + y", "x^2*z + y")
]


@pytest.mark.parametrize("ctx", ZP_CONTEXTS, ids=lambda c: str(c.P))
def test_express_in_zp_agrees_with_the_linear_solve(ctx):
    rng = random.Random(137)
    gens = [p("z"), ctx.P]
    for _ in range(30):
        f = rand_nelem(rng, 3).f
        g = expand_kernel_poly(ctx, f)
        got = express_in_zp(ctx, g)
        assert got == f
        if not g.is_zero():
            assert got == express_in_kernel(g, gens, g.total_degree(), ZP)
    for text in ("x", "x*y^2", "x*y*z + 1"):
        with pytest.raises(NotInNError):
            express_in_zp(ctx, p(text))


def test_sat_for_combined_family():
    rng = random.Random(83)
    found = 0
    while found < 4:
        n = rand_nelem(rng, 1)
        rep = irreducibility_criterion_check(CTX, n) if not (n.h.is_zero() and n.f.is_zero()) else None
        if rep is None or not rep.criterion_applies:
            continue
        found += 1
        assert rep.combined_irreducible
        c = Poly(XYZ, {(0, 0, 1): Fraction(rng.randint(1, 5))})
        w = m_derivation(CTX, n)
        scaled = exponential(
            __import__("lnd.derivations", fromlist=["scale_poly"]).scale_poly(c, w)
        )
        d, _ = standard_decomposition(scaled)
        assert d == c.monic()


def test_complement_choice_does_not_change_n():
    # another admissible complement, from a genuinely shifted plinth element
    # (z-only shifts leave the derivation unchanged): everything it generates
    # is recognized by the original context, with the same h-part
    from lnd.automorphisms import modification
    from lnd.derivations import apply, delta, exponential, is_irreducible, lie_bracket

    q2 = CTX.Q + p("x*z^2 + y^2*z")  # Q + z*P: still solves D'(Q) = a'
    assert apply(CTX.D_prime, q2) == CTX.a_prime
    e2_der = delta(q2)
    assert e2_der.images != CTX.E.images
    assert apply(e2_der, CTX.P) == -CTX.a_prime
    assert lie_bracket(CTX.D_prime, e2_der).is_zero()
    assert is_irreducible(e2_der)
    for h in (k("1"), k("z^2 - 3"), k("-2*z")):
        g = compose(modification(h.to_ring(XYZ), e2_der), n_to_aut(n_elem(k("0"), k("z*P")), CTX))
        recovered = aut_to_n(g, CTX)
        assert recovered.h == h
        # E2 - E is the z-modification of D', so the factor shifts by h z
        assert recovered.f == h * k("z") + k("z*P")


def test_log_of_realized_pair_lies_in_span():
    # the logarithm of a realized pair splits as h E + g D' with the same h
    from lnd.arith import divide_exact
    from lnd.derivations import Derivation, apply, logarithm, scale_poly

    rng = random.Random(127)
    for _ in range(5):
        n = rand_nelem(rng, 1)
        g = n_to_aut(n, CTX)
        log_g = logarithm(g)
        h_amb = n.h.to_ring(XYZ)
        rest = Derivation(
            *(li - h_amb * ei for li, ei in zip(log_g.images, CTX.E.images))
        )
        quotients = {
            divide_exact(ri, di)
            for ri, di in zip(rest.images, CTX.D_prime.images)
            if not di.is_zero()
        }
        assert len(quotients) == 1
        g_part = quotients.pop()
        assert apply(CTX.D_prime, g_part).is_zero()
        assert scale_poly(g_part, CTX.D_prime).images == rest.images
        express_in_zp(CTX, g_part)  # must be a kernel element


def test_plinth_search_exhaustion_signal():
    from lnd.derivations import plinth_search
    from lnd.errors import SearchExhaustedError

    with pytest.raises(SearchExhaustedError):
        plinth_search(CTX.D_prime, [p("z"), CTX.P], 0)


def test_context_with_cubic_kernel_generator():
    ctx = make_context(p("x*z + y^3"), deg_max=3)
    assert ctx.Q == p("y") and ctx.a_prime == p("z")
    assert ctx.D_prime.images == (p("-3*y^2"), p("z"), p("0"))
    assert ctx.E.images == (p("-1"), p("0"), p("0"))
    rng = random.Random(131)
    for _ in range(6):
        a, b = rand_nelem(rng, 2), rand_nelem(rng, 2)
        lhs = n_to_aut(n_mul(a, b, ctx), ctx)
        rhs = compose_with_family(n_to_aut(a, ctx), b, ctx)
        assert lhs == rhs
        assert aut_to_n(lhs, ctx) == n_mul(a, b, ctx)
    f_poly, ok = combine_to_delta(ctx, n_elem(k("z"), k("P^2")))
    assert ok


def test_context_slice_combine_formula():
    ctx = make_context(p("y"), deg_max=2)
    f_poly, ok = combine_to_delta(ctx, n_elem(k("z^2"), k("z*P")))
    assert ok
    assert f_poly == ctx.Q * p("z^2") + p("z") * p("y^2") * Fraction(1, 2)


def test_context_rejects_reducible_generator_derivation():
    with pytest.raises(ContextError):
        make_context(p("x*z + y^2*z"), deg_max=3)


def test_divisor_shift_vanishes_exactly_when_d_divides_h():
    # on Q[z]/(a) with a = d a': the induced P-shift h a' is zero mod a
    # exactly when d divides h
    from lnd.arith import divides
    from lnd.automorphisms import pullback

    rng = random.Random(137)
    for _ in range(12):
        h = Poly.zero(ZP)
        for e in range(3):
            h = h + Poly(ZP, {(e, 0): Fraction(rng.randint(-4, 4))})
        if h.is_zero():
            continue
        g = n_to_aut(n_elem(h, k("0")), CTX_Z)
        shift = CTX_Z.P - pullback(g, CTX_Z.P)
        a_divides = divides(CTX_Z.d * CTX_Z.a_prime, shift)
        d_divides = divides(CTX_Z.d, h.to_ring(XYZ))
        assert a_divides == d_divides, h
