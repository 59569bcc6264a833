import math
import random
import time
from fractions import Fraction

import pytest

from lnd.arith import (
    _CERT_PRIMES,
    ALLOWANCE,
    XYZ,
    ZP,
    ZVAR,
    Poly,
    WorkBudgetExceeded,
    _coprime_by_images,
    divide_exact,
    gcd_multivariate,
    grlex_key,
    poly_to_str,
    substitute,
)
from lnd.errors import MissingImageError, NonDivisibleError, RingMismatchError
from lnd.syntax import parse_poly
from oracles import gcd_prs, integrate_in


def p(text, vars=XYZ):
    return parse_poly(text, vars)


X, Y, Z = (Poly.variable(XYZ, v) for v in XYZ)


def rand_poly(rng, vars=XYZ, deg=3, lo=-9, hi=9, nterms=5):
    out = Poly.zero(vars)
    for _ in range(nterms):
        exps = []
        budget = deg
        for _ in vars:
            e = rng.randint(0, budget)
            exps.append(e)
            budget -= e
        coeff = rng.randint(lo, hi)
        out = out + Poly(vars, {tuple(exps): Fraction(coeff)})
    return out


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == p("x^2 - y^2")


def test_mul_by_zero():
    q = p("x*z + y^2")
    assert q * Poly.zero(XYZ) == Poly.zero(XYZ)


def test_square_of_xz_plus_y2():
    # term-by-term expansion: (xz + y^2)^2 = x^2 z^2 + 2 x y^2 z + y^4
    q = p("x*z + y^2")
    assert q * q == p("x^2*z^2 + 2*x*y^2*z + y^4")


def test_armed_allowance_charges_products_before_they_run():
    import threading

    a, square = parse_poly("x + y", XYZ), parse_poly("x^2 + 2*x*y + y^2", XYZ)
    cube = square * a
    token = ALLOWANCE.set([5])
    try:
        assert a * a == square  # 4 term pairs
        with pytest.raises(WorkBudgetExceeded):
            a * a  # 4 more would overdraw the last 1
        # another thread does not see this context's allowance
        results = []
        worker = threading.Thread(target=lambda: results.append(a * a * a))
        worker.start()
        worker.join()
        assert results == [cube]
    finally:
        ALLOWANCE.reset(token)
    assert a * a * a == cube  # unmetered once disarmed


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        p("z") + parse_poly("z", ZVAR)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_substitute_invariance_of_plinth_generator():
    target = p("x*z + y^2")
    images = {"x": p("x - 2*y - z"), "y": p("y + z"), "z": Z}
    assert substitute(target, images) == target


def test_substitute_identity():
    q = p("x^2*z - 3*y + 5/7")
    assert substitute(q, {"x": X, "y": Y, "z": Z}) == q


def test_substitute_sign_flip_odd():
    q = parse_poly("z^3 - z", ZVAR)
    image = {"z": -Poly.variable(ZVAR, "z")}
    assert substitute(q, image) == -q


def test_substitute_missing_image():
    with pytest.raises(MissingImageError):
        substitute(p("x + y"), {"x": X})


def _naive_substitute(q, images, target):
    """Oracle: sum c * prod(image_v ** e), one factor at a time."""
    total = Poly.zero(target)
    for mono, c in q.coefficients().items():
        term = Poly.const(target, c)
        for v, e in zip(q.vars, mono):
            for _ in range(e):
                term = term * images[v]
        total = total + term
    return total


@pytest.mark.parametrize(
    "source, target, seed",
    [(XYZ, XYZ, 41), (ZP, ZP, 43), (ZP, XYZ, 47)],
    ids=["xyz", "zP", "zP-into-xyz"],
)
def test_substitute_agrees_with_naive_evaluation(source, target, seed):
    rng = random.Random(seed)
    special = [
        Poly.zero(target),
        Poly.const(target, Fraction(-3, 2)),
        Poly.variable(target, target[-1]) * Fraction(5, 7),
        *(Poly.variable(target, v) for v in target),
    ]
    # x^9 + x^2*y + 1 in the source ring: exponent gaps and a lone high power.
    a, b = (Poly.variable(source, v) for v in source[:2])
    gapped = a**9 + a**2 * b + Poly.one(source)
    for _ in range(30):
        images = {
            v: rng.choice(special)
            if rng.random() < 0.3
            else rand_poly(rng, target, deg=2, nterms=3) * Fraction(1, rng.randint(1, 3))
            for v in source
        }
        polys = [rand_poly(rng, source, deg=4, nterms=6) for _ in range(3)]
        polys += [Poly.const(source, 7), Poly.zero(source), a, gapped]
        expected = [_naive_substitute(q, images, target) for q in polys]
        assert [substitute(q, images) for q in polys] == expected


def test_substitute_images_in_different_rings():
    with pytest.raises(RingMismatchError, match="different rings"):
        substitute(p("x + y"), {"x": X, "y": Poly.variable(ZP, "z")})


def test_partial_derivative_basic():
    assert p("x*z + y^2").partial_derivative("y") == p("2*y")
    assert p("5").partial_derivative("x") == Poly.zero(XYZ)


def test_partial_derivative_linearity_random():
    rng = random.Random(5)
    for _ in range(25):
        h, f = rand_poly(rng), rand_poly(rng)
        lhs = (h + f).partial_derivative("x")
        assert lhs == h.partial_derivative("x") + f.partial_derivative("x")


def test_leibniz_rule_for_derivative():
    rng = random.Random(6)
    for _ in range(25):
        f, g = rand_poly(rng), rand_poly(rng)
        for v in XYZ:
            got = (f * g).partial_derivative(v)
            want = f.partial_derivative(v) * g + f * g.partial_derivative(v)
            assert got == want


# -- gcd ---------------------------------------------------------------------


def _euclid_univariate(a, b):
    """Independent oracle: monic Euclid on z-polynomials as coefficient lists."""

    def coeffs(q):
        d = q.degree_in("z")
        return [q.coefficient((0, 0, i)) for i in range(d + 1)]

    def degree(c):
        return len(c) - 1

    def rem(num, den):
        num = num[:]
        while len(num) >= len(den) and any(num):
            factor = num[-1] / den[-1]
            shift = len(num) - len(den)
            for i, dv in enumerate(den):
                num[shift + i] -= factor * dv
            while num and num[-1] == 0:
                num.pop()
        return num

    ca, cb = coeffs(a), coeffs(b)
    while cb:
        ca, cb = cb, rem(ca, cb)
    lead = ca[-1]
    normalized = [c / lead for c in ca]
    return Poly(XYZ, {(0, 0, i): c for i, c in enumerate(normalized)})


def test_gcd_univariate_against_euclid_oracle():
    a, b = p("z^2"), p("z^3 - z^2")
    assert gcd_multivariate(a, b) == _euclid_univariate(a, b) == p("z^2")
    a, b = p("z^3 - z"), p("z^2 - 1")
    assert gcd_multivariate(a, b) == _euclid_univariate(a, b)


def test_gcd_with_zero():
    q = p("-2*y*z")
    assert gcd_multivariate(q, Poly.zero(XYZ)) == p("y*z")
    with pytest.raises(ValueError):
        gcd_multivariate(Poly.zero(XYZ), Poly.zero(XYZ))


def test_gcd_content_extraction():
    # the standard-decomposition gcd for the z-modified plinth derivation
    assert gcd_multivariate(p("-2*y*z"), p("z*z")) == Z


def test_gcd_divides_and_scales():
    rng = random.Random(7)
    for _ in range(12):
        a = rand_poly(rng, deg=2, nterms=3)
        b = rand_poly(rng, deg=2, nterms=3)
        r = rand_poly(rng, deg=2, nterms=2)
        if a.is_zero() and b.is_zero():
            continue
        g = gcd_multivariate(a, b)
        if not a.is_zero():
            divide_exact(a, g)
        if not b.is_zero():
            divide_exact(b, g)
        if not r.is_zero() and not (a * r).is_zero() and not (b * r).is_zero():
            lhs = gcd_multivariate(a * r, b * r)
            rhs = (g * r).monic()
            assert lhs == rhs


def _rand_rational_poly(rng, vars, deg=3, nterms=4):
    """Random polynomial with Fraction coefficients; about a third of the
    time its top-degree terms in one variable get a factor of the first
    certificate prime, so that leading coefficient vanishes mod that prime."""
    out = Poly.zero(vars)
    for _ in range(nterms):
        exps = []
        budget = deg
        for _ in vars:
            e = rng.randint(0, budget)
            exps.append(e)
            budget -= e
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = out + Poly(vars, {tuple(exps): coeff})
    if out.is_zero() or rng.random() > 0.35:
        return out
    i = rng.randrange(len(vars))
    top = max(m[i] for m in out.terms)
    return Poly(
        vars,
        {m: c * _CERT_PRIMES[0] if m[i] == top else c for m, c in out.coefficients().items()},
    )


@pytest.mark.parametrize(
    "vars, seed, deg", [(XYZ, 31, 3), (ZP, 37, 3)], ids=["xyz", "zP"]
)
def test_gcd_certificate_agrees_with_prs(vars, seed, deg):
    rng = random.Random(seed)
    certified = 0
    for _ in range(40):
        a = _rand_rational_poly(rng, vars, deg=deg)
        b = _rand_rational_poly(rng, vars, deg=deg)
        if a.is_zero() or b.is_zero():
            continue
        g = gcd_multivariate(a, b)
        assert g == gcd_prs(a, b), (a, b)
        certified += _coprime_by_images(a, b)
        factor = _rand_rational_poly(rng, vars, deg=2, nterms=3)
        if factor.is_constant():
            continue
        common = gcd_multivariate(a * factor, b * factor)
        divide_exact(common, factor)
        assert not _coprime_by_images(a * factor, b * factor)
    assert certified >= 10


def test_gcd_certificate_skips_bad_points():
    b = p("x + z")
    # lc_x = p1*y vanishes mod the first prime only: the next attempt certifies.
    a = Poly(XYZ, {(1, 1, 0): Fraction(_CERT_PRIMES[0]), (0, 0, 0): Fraction(1)})
    assert _coprime_by_images(a, b)
    # x and y are both shared; lc_x = p1*y vanishes mod the first prime only,
    # lc_y = p1*x + 1 does not, so y is certified by the first attempt and x
    # by the second; a common factor x + 1 shows only in the images in x.
    a = Poly(XYZ, {(1, 1, 0): _CERT_PRIMES[0], (0, 1, 0): 1, (0, 0, 0): 1})
    assert _coprime_by_images(a, p("x + y"))
    assert not _coprime_by_images(a * p("x + 1"), p("x + y") * p("x + 1"))
    # lc_x = (p1*p2*p3)*y vanishes mod every certificate prime, so no attempt
    # is usable and the exact PRS decides.
    big = _CERT_PRIMES[0] * _CERT_PRIMES[1] * _CERT_PRIMES[2]
    a = Poly(XYZ, {(1, 1, 0): Fraction(big), (0, 0, 0): Fraction(1)})
    assert not _coprime_by_images(a, b)
    assert gcd_multivariate(a, b) == gcd_prs(a, b) == Poly.one(XYZ)


# Supports (as variable lists) of the two operands, and the ring they are
# read in; a common factor lives in the variables both use.
_SUPPORT_CASES = {
    "z-against-zP": (ZP, ("z",), ("z", "P")),
    "x-only": (XYZ, ("x",), ("x",)),
    "y-only": (XYZ, ("y",), ("y",)),
    "z-only": (XYZ, ("z",), ("z",)),
    "xz-against-yz": (XYZ, ("x", "z"), ("y", "z")),
    "x-against-y": (XYZ, ("x",), ("y",)),
    "constant-against-xy": (XYZ, (), ("x", "y")),
}


def _rand_in(rng, vars, ring, deg, nterms=4):
    """A random rational polynomial in the variables `vars`, read in `ring`."""
    if not vars:
        return Poly.const(ring, Fraction(rng.choice([-3, -1, 2, 7]), rng.randint(1, 5)))
    return _rand_rational_poly(rng, vars, deg=deg, nterms=nterms).to_ring(ring)


@pytest.mark.parametrize("case", sorted(_SUPPORT_CASES))
def test_gcd_reduction_agrees_with_prs(case):
    ring, left, right = _SUPPORT_CASES[case]
    shared = tuple(v for v in left if v in right)
    rng = random.Random(f"gcd-{case}")
    nonconstant = 0
    for _ in range(25):
        factor = _rand_in(rng, shared, ring, deg=2, nterms=3)
        a = _rand_in(rng, left, ring, deg=3) * factor
        b = _rand_in(rng, right, ring, deg=3) * factor
        if a.is_zero() or b.is_zero():
            continue
        g = gcd_multivariate(a, b)
        assert g == gcd_prs(a, b), (a, b)
        if not factor.is_zero():
            divide_exact(g, factor)
        nonconstant += not g.is_constant()
    assert nonconstant >= (10 if shared else 0)


def test_gcd_reduction_with_constants_and_rational_coefficients():
    half = Poly.const(ZP, Fraction(1, 2))
    h = p("3/4*z^2 - 3/4", ZP)
    assert gcd_multivariate(half, h) == gcd_multivariate(h, half) == Poly.one(ZP)
    assert gcd_multivariate(h, p("1/2*z*P - 1/2*P + 5/3*z - 5/3", ZP)) == p("z - 1", ZP)


def test_gcd_dense_degree_60_within_ceiling():
    # a * g and b * g in z alone, each factor with 30-bit coefficients.  The
    # integer Euclid takes about 0.06 s; the recursive PRS ran past 120 s here.
    rng = random.Random(60)

    def rand_z(deg):
        terms = {(0, 0, k): rng.randint(-(2**30), 2**30) for k in range(deg)}
        terms[(0, 0, deg)] = rng.randint(1, 2**30)
        return Poly(XYZ, terms)

    g, a, b = rand_z(20), rand_z(40), rand_z(40)
    assert _coprime_by_images(a, b)
    start = time.perf_counter()
    got = gcd_multivariate(a * g, b * g)
    elapsed = time.perf_counter() - start
    assert got == g.monic()
    assert elapsed < 1.0, f"degree-60 gcd took {elapsed:.2f}s"


def _same_support_factor_pairs():
    """30 seeded pairs (a, b, f): a and b have 5 terms of total degree <= 4,
    f has 3 terms of degree <= 2, one of them quadratic."""
    rng = random.Random(31)

    def monomials(deg):
        return [
            (i, j, k)
            for i in range(deg + 1)
            for j in range(deg + 1 - i)
            for k in range(deg + 1 - i - j)
        ]

    def draw(picked):
        return Poly(XYZ, {m: rng.choice([-3, -2, -1, 1, 2, 3, 5, 7]) for m in picked})

    pairs = []
    for _ in range(30):
        a = draw(rng.sample(monomials(4), 5))
        b = draw(rng.sample(monomials(4), 5))
        picked = rng.sample(monomials(2), 3)
        while max(map(sum, picked)) < 2:
            picked = rng.sample(monomials(2), 3)
        pairs.append((a, b, draw(picked)))
    return pairs


def test_gcd_same_support_common_factor_within_ceiling():
    # a * f and b * f share all of x, y, z, so the gcd runs the PRS.  Its
    # contents stay cheap only through gcd_multivariate: the recursive PRS
    # oracle runs past 5 s on 14 of these pairs.
    started = time.perf_counter()
    for a, b, f in _same_support_factor_pairs():
        g = gcd_multivariate(a * f, b * f)
        assert g == f.monic(), (a, b, f)
        assert _coprime_by_images(divide_exact(a * f, g), divide_exact(b * f, g))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"30 same-support gcds took {elapsed:.2f}s"


def test_divide_exact_roundtrip():
    assert divide_exact(p("x^2*z^2 + 2*x*y^2*z + y^4"), p("x*z + y^2")) == p("x*z + y^2")
    q = p("x*z - 3*y + 1/2")
    assert divide_exact(q, Poly.one(XYZ)) == q


def test_divide_exact_obstruction():
    for dividend, divisor, message in [
        ("z + 1", "z", "leading term 1 not divisible by z"),
        ("y^2 + 1", "x + 1", "leading term y^2 not divisible by x"),  # at once
        ("x^2*z + x + 1", "-2/3*x*z + 1/5", "leading term x not divisible by x*z"),  # later
        ("x^2*z + 1/3", "x*z", "leading term 1 not divisible by x*z"),  # at the end
    ]:
        with pytest.raises(NonDivisibleError) as err:
            divide_exact(p(dividend), p(divisor))
        assert str(err.value) == message


def test_integrate_in_power_rule():
    # integrating P^i in P gives P^{i+1}/(i+1)
    P = Poly.variable(ZP, "P")
    for i in range(5):
        got = integrate_in(P**i, "P")
        assert got == P ** (i + 1) * Fraction(1, i + 1)
    assert integrate_in(Poly.zero(ZP), "P") == Poly.zero(ZP)


def test_integrate_then_differentiate_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        q = rand_poly(rng)
        assert integrate_in(q, "y").partial_derivative("y") == q


def test_derivative_then_integrate_on_zero_constant_term():
    rng = random.Random(10)
    for _ in range(25):
        q = rand_poly(rng)
        no_const = q * Poly.variable(XYZ, "y")
        assert integrate_in(no_const.partial_derivative("y"), "y") == no_const


# -- canonical text ------------------------------------------------------------


def test_print_parse_roundtrip_random():
    rng = random.Random(12)
    for _ in range(60):
        q = rand_poly(rng)
        text = poly_to_str(q)
        assert parse_poly(text, XYZ) == q
        assert poly_to_str(parse_poly(text, XYZ)) == text


def test_print_formats():
    assert poly_to_str(Poly.zero(XYZ)) == "0"
    assert poly_to_str(p("-2*y")) == "-2*y"
    assert poly_to_str(p("z^3 - z")) == "z^3 - z"
    assert poly_to_str(p("x + 1/2*y^2")) == "1/2*y^2 + x"
    assert poly_to_str(p("x*z + y^2")) == "x*z + y^2"


def test_grlex_order_is_degree_then_lex():
    q = p("z + y^2 + x*y*z + 4")
    assert poly_to_str(q) == "x*y*z + y^2 + z + 4"


# -- the (den, numerators) representation against a {mono: Fraction} oracle ----


def _oracle_poly(rng, vars, nterms=3, deg=2):
    """Random {mono: Fraction}: numerators of 60-64 bits, denominators up to 10^6."""
    out = {}
    for _ in range(nterms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(len(vars))] += 1
        sign = rng.choice((-1, 1))
        out[tuple(mono)] = Fraction(sign * rng.randrange(2**60, 2**64), rng.randint(1, 10**6))
    return out


def _o_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _o_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _o_substitute(a, images, target):
    total = {}
    for mono, c in a.items():
        term = {(0,) * len(target): c}
        for image, e in zip(images, mono):
            for _ in range(e):
                term = _o_mul(term, image)
        total = _o_add(total, term)
    return total


def _check(poly, oracle, vars):
    """poly is canonical and has exactly the oracle's coefficients."""
    assert poly.vars == vars and type(poly.den) is int and poly.den >= 1
    assert all(type(c) is int and c for c in poly.terms.values())
    assert math.gcd(poly.den, *poly.terms.values()) == 1
    assert {m: Fraction(c, poly.den) for m, c in poly.terms.items()} == oracle
    rebuilt = Poly(vars, oracle)
    assert rebuilt == poly and hash(rebuilt) == hash(poly)
    assert parse_poly(str(poly), vars) == poly


@pytest.mark.parametrize("vars, target, seed", [(XYZ, ZP, 61), (ZP, XYZ, 67)], ids=["xyz", "zP"])
def test_representation_against_fraction_oracle(vars, target, seed):
    rng = random.Random(seed)
    for _ in range(12):
        oa, ob = _oracle_poly(rng, vars), _oracle_poly(rng, vars)
        a, b = Poly(vars, oa), Poly(vars, ob)
        _check(a, oa, vars)
        _check(a + b, _o_add(oa, ob), vars)
        _check(a - b, _o_add(oa, ob, -1), vars)
        _check(a - a, {}, vars)
        _check(a * b, _o_mul(oa, ob), vars)
        _check(a**3, _o_mul(oa, _o_mul(oa, oa)), vars)
        k = rng.randrange(-(2**62), 2**62)
        r = Fraction(rng.randrange(1, 2**62), rng.randint(1, 10**6))
        _check(a * k, {m: c * k for m, c in oa.items() if c * k}, vars)
        _check(r * a, {m: c * r for m, c in oa.items()}, vars)
        s = Fraction(a.den, rng.randint(1, 10**6))  # cancels the denominator
        _check(a * s, {m: c * s for m, c in oa.items()}, vars)
        _check(divide_exact(a * b, b), oa, vars)
        lead = max(oa, key=lambda m: (sum(m), m))
        _check(a.monic(), {m: c / oa[lead] for m, c in oa.items()}, vars)
        v = vars[rng.randrange(len(vars))]
        i = vars.index(v)
        derivative = {
            m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in oa.items() if m[i]
        }
        _check(a.partial_derivative(v), derivative, vars)
        images = [_oracle_poly(rng, target, nterms=2, deg=1) for _ in vars]
        got = substitute(a, {v: Poly(target, img) for v, img in zip(vars, images)})
        _check(got, _o_substitute(oa, images, target), target)


def _o_divide(a, b):
    """Long division of {mono: Fraction} maps: (quotient, None) when b divides
    a, else (None, the remainder's leading monomial that b's does not divide)."""
    lead_b = max(b, key=grlex_key)
    remainder, quotient = dict(a), {}
    while remainder:
        lead = max(remainder, key=grlex_key)
        diff = tuple(x - y for x, y in zip(lead, lead_b))
        if min(diff) < 0:
            return None, lead
        quotient[diff] = remainder[lead] / b[lead_b]
        remainder = _o_add(remainder, _o_mul({diff: quotient[diff]}, b), -1)
    return quotient, None


def _mono_text(vars, mono):
    return str(Poly(vars, {mono: 1}))


@pytest.mark.parametrize(
    "vars, seed", [(XYZ, 71), (ZP, 73), (ZVAR, 79)], ids=["xyz", "zP", "z"]
)
def test_divide_exact_against_fraction_oracle(monkeypatch, vars, seed):
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(b) or mul(a, b))
    rng = random.Random(seed)
    failures = set()  # whether each non-divisible case failed at its first step
    for trial in range(16):
        oa, ob = _oracle_poly(rng, vars, nterms=4), _oracle_poly(rng, vars)
        lead_b = max(ob, key=grlex_key)
        if (ob[lead_b] > 0) == (trial % 2 == 0):  # negative leading coefficient half the time
            ob = {m: -c for m, c in ob.items()}
        a, b = Poly(vars, oa), Poly(vars, ob)
        assert a.den > 1 and b.den > 1  # denominators on both sides
        product = a * b
        quotient, _ = _o_divide(_o_mul(oa, ob), ob)
        assert quotient == oa
        # The charge is len(b.terms) per quotient term, checked to the unit.
        charge = len(a.terms) * len(b.terms)
        allowance = [charge]
        token = ALLOWANCE.set(allowance)
        try:
            del products[:]
            got = divide_exact(product, b)
            assert not products  # no Poly product per quotient term
            assert allowance == [0]
            allowance[0] = charge - 1
            with pytest.raises(WorkBudgetExceeded):
                divide_exact(product, b)
        finally:
            ALLOWANCE.reset(token)
        _check(got, quotient, vars)
        # Adding one monomial makes b fail to divide, at the first leading
        # term or at a later remainder; the message names that term.
        extra = {tuple(rng.randint(0, 3) for _ in vars): Fraction(rng.randint(1, 9), 7)}
        bad = _o_add(_o_mul(oa, ob), extra)
        quotient, stuck = _o_divide(bad, ob)
        if quotient is not None:  # b still divides, as a constant b always does
            _check(divide_exact(Poly(vars, bad), b), quotient, vars)
            continue
        failures.add(stuck == max(bad, key=grlex_key))
        with pytest.raises(NonDivisibleError) as err:
            divide_exact(Poly(vars, bad), b)
        assert str(err.value) == (
            f"leading term {_mono_text(vars, stuck)} not divisible by"
            f" {_mono_text(vars, lead_b)}"
        )
    # Each seed fails at a later remainder term; the xyz seed also at once.
    assert False in failures and (vars != XYZ or True in failures)
