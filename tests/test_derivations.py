import random
import time
from fractions import Fraction

import pytest

from lnd.arith import ALLOWANCE, XYZ, Poly, WorkBudgetExceeded, divides, substitute
from lnd.automorphisms import Automorphism, compose, identity
from lnd.derivations import (
    Derivation,
    apply,
    apply_exp,
    delta,
    exponential,
    is_irreducible,
    is_locally_nilpotent,
    lie_bracket,
    logarithm,
    plinth_search,
    sat_instance_check,
    scale,
    scale_poly,
    standard_decomposition,
)
from lnd.errors import (
    NotInKernelError,
    NotLocallyNilpotentError,
    NotUnipotentError,
)
from lnd.syntax import parse_poly
from oracles import leibniz_apply


def p(text):
    return parse_poly(text, XYZ)


X, Y, Z = (Poly.variable(XYZ, v) for v in XYZ)
P = p("x*z + y^2")
D_P = delta(P)  # images (-2y, z, 0)
DDX = Derivation(Poly.one(XYZ), Poly.zero(XYZ), Poly.zero(XYZ))  # d/dx


def rand_poly(rng, deg=2, nterms=3):
    out = Poly.zero(XYZ)
    for _ in range(nterms):
        exps = []
        budget = deg
        for _ in XYZ:
            e = rng.randint(0, budget)
            exps.append(e)
            budget -= e
        out = out + Poly(XYZ, {tuple(exps): Fraction(rng.randint(-9, 9))})
    return out


def rand_derivation(rng):
    """Random triangular derivation: certified locally nilpotent."""
    img_x = substitute(rand_poly(rng), {"x": Poly.zero(XYZ), "y": Y, "z": Z})
    img_y = substitute(rand_poly(rng), {"x": Poly.zero(XYZ), "y": Poly.zero(XYZ), "z": Z})
    return Derivation(img_x, img_y, Poly.zero(XYZ))


def test_apply_on_generators():
    assert apply(D_P, X) == p("-2*y")
    assert apply(D_P, Y) == Z
    assert apply(D_P, Poly.const(XYZ, Fraction(7, 3))) == Poly.zero(XYZ)


def _rand_image(rng):
    """Zero, a constant, or a few terms over a random denominator, so the
    images of one derivation carry different denominators."""
    kind = rng.choice(["zero", "constant", "terms", "terms"])
    if kind == "zero":
        return Poly.zero(XYZ)
    den = rng.choice([1, 2, 3, 7, 10**9 + 7])
    if kind == "constant":
        return Poly.const(XYZ, Fraction(rng.choice([-3, 1, 5]), den))
    return rand_poly(rng, deg=3, nterms=rng.randint(1, 5)) * Fraction(1, den)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_apply_matches_the_poly_level_leibniz_sum(seed):
    rng = random.Random(seed)
    for _ in range(60):
        d = Derivation(*(_rand_image(rng) for _ in XYZ))
        q = rand_poly(rng, deg=4, nterms=rng.randint(0, 6)) * Fraction(rng.randint(1, 9), 6)
        missing = rng.choice("xyz-")  # a variable q does not involve, or none
        if missing != "-":
            q = substitute(q, {v: Poly.zero(XYZ) if v == missing else Poly.variable(XYZ, v)
                               for v in XYZ})
        assert apply(d, q) == leibniz_apply(d, q)


@pytest.mark.parametrize("seed", [4, 5])
def test_apply_charges_the_allowance_as_the_poly_products(seed):
    rng = random.Random(seed)
    for _ in range(30):
        d = Derivation(*(_rand_image(rng) for _ in XYZ))
        q = rand_poly(rng, deg=4, nterms=rng.randint(1, 6))
        spent = []
        for kernel in (apply, leibniz_apply):
            allowance = [10**6]
            token = ALLOWANCE.set(allowance)
            try:
                kernel(d, q)
            finally:
                ALLOWANCE.reset(token)
            spent.append(10**6 - allowance[0])
        assert spent[0] == spent[1]
        # Each budget below the spend trips both kernels, each above none.
        for budget in range(spent[0] + 2):
            outcomes = []
            for kernel in (apply, leibniz_apply):
                token = ALLOWANCE.set([budget])
                try:
                    kernel(d, q)
                    outcomes.append("done")
                except WorkBudgetExceeded:
                    outcomes.append("tripped")
                finally:
                    ALLOWANCE.reset(token)
            assert outcomes[0] == outcomes[1] == ("done" if budget >= spent[0] else "tripped")


def test_delta_kills_its_polynomial():
    assert apply(D_P, P) == Poly.zero(XYZ)
    assert apply(D_P, Z) == Poly.zero(XYZ)


def test_leibniz_rule():
    rng = random.Random(3)
    for _ in range(20):
        f, g = rand_poly(rng), rand_poly(rng)
        assert apply(D_P, f * g) == apply(D_P, f) * g + f * apply(D_P, g)


def test_nilpotency_orders():
    ev = is_locally_nilpotent(DDX)
    assert ev.is_nilpotent and ev.vanishing_orders == (2, 1, 1)
    # D(x) = -2y, D^2(x) = -2z, D^3(x) = 0: smallest vanishing powers (3, 2, 1)
    ev = is_locally_nilpotent(D_P)
    assert ev.is_nilpotent and ev.vanishing_orders == (3, 2, 1)


def test_nilpotency_inconclusive_for_euler():
    euler = Derivation(X, Poly.zero(XYZ), Poly.zero(XYZ))
    ev = is_locally_nilpotent(euler)
    assert ev.status == "inconclusive"
    # exp and apply_exp stop at the same step cap as the nilpotency check
    for run in (lambda: exponential(euler), lambda: apply_exp(euler, X)):
        with pytest.raises(NotLocallyNilpotentError, match=r"step cap of 64 \(step 65\)"):
            run()


def test_exponential_translation():
    u = exponential(DDX)
    assert u.pullback_x == p("x + 1")
    assert u.pullback_y == Y and u.pullback_z == Z


def test_exponential_of_delta():
    u = exponential(D_P)
    assert u.pullback_x == p("x - 2*y - z")
    assert u.pullback_y == p("y + z")
    assert u.pullback_z == Z


def test_exponential_of_z_modified_delta():
    u = exponential(scale_poly(Z, D_P))
    assert u.pullback_x == p("x - 2*y*z - z^3")
    assert u.pullback_y == p("y + z^2")
    assert u.pullback_z == Z


def test_exponential_inverse_witness():
    from lnd.automorphisms import inverse

    u = exponential(D_P)
    v = inverse(u)
    assert compose(u, v) == identity()
    assert v.pullback_x == p("x + 2*y - z")
    assert v.pullback_y == p("y - z")


def test_exponential_requires_certificate():
    euler = Derivation(X, Poly.zero(XYZ), Poly.zero(XYZ))
    with pytest.raises(NotLocallyNilpotentError):
        exponential(euler)


def test_logarithm_translation():
    u = Automorphism(p("x + 1"), Y, Z)
    assert logarithm(u) == DDX


def test_logarithm_roundtrip():
    for d in (D_P, scale_poly(Z, D_P), DDX, scale_poly(p("z^2 + 1"), DDX)):
        assert logarithm(exponential(d)) == d


def test_logarithm_rejects_semisimple():
    with pytest.raises(NotUnipotentError):
        logarithm(Automorphism(p("2*x"), Y, Z))


def test_one_parameter_group_law():
    rng = random.Random(17)
    for d in (DDX, D_P, scale_poly(Z, D_P)):
        for _ in range(10):
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            lhs = compose(exponential(scale(s, d)), exponential(scale(t, d)))
            assert lhs == exponential(scale(s + t, d))


def test_exp_log_random_triangular():
    rng = random.Random(23)
    for _ in range(20):
        d = rand_derivation(rng)
        u = exponential(d)
        assert logarithm(u) == d
        assert exponential(logarithm(u)) == u


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = random.Random(29)
    for _ in range(8):
        a, b, c = (rand_derivation(rng) for _ in range(3))
        assert lie_bracket(a, a).is_zero()
        assert lie_bracket(a, b).images == scale(-1, lie_bracket(b, a)).images
        jac = add3(
            lie_bracket(a, lie_bracket(b, c)),
            lie_bracket(b, lie_bracket(c, a)),
            lie_bracket(c, lie_bracket(a, b)),
        )
        assert jac.is_zero()


def add3(a, b, c):
    return Derivation(*(x + y + z for x, y, z in zip(a.images, b.images, c.images)))


def test_bracket_of_commuting_pair():
    e = Derivation(-Poly.one(XYZ), Poly.zero(XYZ), Poly.zero(XYZ))  # -d/dx
    assert lie_bracket(D_P, e).is_zero()


def test_bracket_modification_identity():
    # [f F, B] = f [F, B] - B(f) F on random data
    rng = random.Random(31)
    for _ in range(10):
        f_der, b = rand_derivation(rng), rand_derivation(rng)
        f = rand_poly(rng)
        lhs = lie_bracket(scale_poly(f, f_der), b)
        fb = lie_bracket(f_der, b)
        rhs = Derivation(
            *(
                f * i - apply(b, f) * j
                for i, j in zip(fb.images, f_der.images)
            )
        )
        assert lhs.images == rhs.images


def test_plinth_search_delta_family():
    q, a = plinth_search(D_P, [Z, P], 3)
    assert a == Z
    assert q == Y


def test_plinth_search_slice_case():
    q, a = plinth_search(DDX, [Y, Z], 1)
    assert a == Poly.one(XYZ)
    assert apply(DDX, q) == a
    assert q == X


def test_plinth_search_modified_delta():
    q, a = plinth_search(scale_poly(Z, D_P), [Z, P], 3)
    assert a == p("z^2")
    assert q == Y


def test_plinth_search_checks_generators():
    with pytest.raises(NotInKernelError):
        plinth_search(D_P, [X], 2)


def test_is_irreducible():
    assert is_irreducible(D_P)
    assert not is_irreducible(scale_poly(Z, D_P))
    assert is_irreducible(DDX)
    with pytest.raises(ValueError):
        is_irreducible(Derivation(*[Poly.zero(XYZ)] * 3))


def test_is_irreducible_same_support_common_factor_within_ceiling():
    # The images share the factor 2xy + 7yz + 2 and all of x, y, z, so the
    # gcd runs the PRS; the recursive PRS oracle runs past 5 s on this pair.
    f = p("2*x*y + 7*y*z + 2")
    a = p("-x^3*y + 2*x*y^2*z - 3*x*y^2 - 2*y^3 + 5*y*z^2")
    b = p("2*x^2*z^2 + x*y^3 + y^3*z + 5*y^2 + 2*x")
    started = time.perf_counter()
    assert not is_irreducible(Derivation(a * f, b * f, Poly.zero(XYZ)))
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"is_irreducible took {elapsed:.2f}s"


def test_standard_decomposition_z_modified():
    u = exponential(scale_poly(Z, D_P))
    d, u_prime = standard_decomposition(u)
    assert d == Z
    assert u_prime == exponential(D_P)


def test_standard_decomposition_irreducible_input():
    u = Automorphism(p("x + 1"), Y, Z)
    d, u_prime = standard_decomposition(u)
    assert d == Poly.one(XYZ)
    assert u_prime == u


def test_standard_decomposition_modified_translation():
    u = exponential(scale_poly(p("z^2 + 1"), DDX))
    d, u_prime = standard_decomposition(u)
    assert d == p("z^2 + 1")
    assert u_prime == Automorphism(p("x + 1"), Y, Z)


def test_sat_positive_instance():
    report = sat_instance_check(D_P, D_P, Z)
    assert report.bracket_is_zero and report.conclusions_hold
    assert report.identity_holds


def test_sat_obstruction_ddz():
    ddz = Derivation(Poly.zero(XYZ), Poly.zero(XYZ), Poly.one(XYZ))
    report = sat_instance_check(ddz, D_P, Z)
    assert not report.bracket_is_zero
    assert report.b_of_f == Poly.one(XYZ)
    assert report.identity_holds


def test_sat_contrapositive_with_invariant():
    e = Derivation(-Poly.one(XYZ), Poly.zero(XYZ), Poly.zero(XYZ))
    report = sat_instance_check(e, D_P, P)
    assert not report.bracket_is_zero  # B(P) = -z is the obstruction
    assert report.b_of_f == p("-z")
    assert report.identity_holds


def test_sat_requires_kernel_membership():
    with pytest.raises(NotInKernelError):
        sat_instance_check(D_P, D_P, X)


def test_factorial_closure_on_kernel_products():
    rng = random.Random(37)
    kernel = [Z, P, Z * P, P * P]
    for _ in range(10):
        f = kernel[rng.randrange(len(kernel))] * Fraction(rng.randint(1, 5))
        g = kernel[rng.randrange(len(kernel))]
        assert apply(D_P, f * g).is_zero()
        assert apply(D_P, f).is_zero() and apply(D_P, g).is_zero()


def test_eigenvalue_style_divisibility_forces_kernel():
    # if d(f) is exactly divisible by f then d(f) = 0, on corpus-style samples
    samples = [Z, P, Z * P + Z, Y + Z, Y * Z, X, P * P - Z]
    for d in (D_P, scale_poly(Z, D_P), DDX):
        for f in samples:
            value = apply(d, f)
            if not value.is_zero() and divides(f, value):
                raise AssertionError(f"{f} divides its image {value} under {d}")


def test_logarithm_budget_stops_runaway_growth():
    # quadratic pullbacks double the series degree each step; the budget
    # guard must reject them quickly instead of grinding through huge powers
    hostile = Automorphism(p("x^2 - 2*y - z"), p("y + z"), Z)
    started = time.monotonic()
    with pytest.raises(NotUnipotentError) as info:
        logarithm(hostile)
    assert time.monotonic() - started < 10
    assert "work budget" in str(info.value) and "step cap" not in str(info.value)


@pytest.mark.parametrize("power", [12, 30])
def test_logarithm_of_large_exponential_within_budget(power):
    # honest unipotent maps whose pullback of x has hundreds of terms
    d = Derivation(p(f"(y + z + 1)^{power}"), p("z^5"), Poly.zero(XYZ))
    u = exponential(d)
    started = time.monotonic()
    assert logarithm(u) == d
    assert time.monotonic() - started < 20


def test_apply_exp_stops_growing_iterates_on_work_budget():
    s8 = p("(x + y + z + 1)^8")
    started = time.monotonic()
    with pytest.raises(NotLocallyNilpotentError, match="work budget"):
        apply_exp(Derivation(s8, s8, s8), X)
    assert time.monotonic() - started < 10


def test_work_accounting_of_exp_log_is_pinned(monkeypatch):
    # The series budget counts len(a) * len(b) for every armed product, before
    # any shortcut in the kernel; the total for this round trip is fixed.
    from lnd import derivations
    from lnd.arith import ALLOWANCE

    armed = []

    class Recording:
        def set(self, value):
            armed.append(value)
            return ALLOWANCE.set(value)

        def reset(self, token):
            ALLOWANCE.reset(token)

    d = Derivation(p("(y + z + 1)^12"), p("z^5"), Poly.zero(XYZ))
    monkeypatch.setattr(derivations, "ALLOWANCE", Recording())
    assert logarithm(exponential(d)) == d
    assert len(armed) == 9  # exp, log and log's round-trip exp, 3 generators each
    assert sum(derivations.WORK_BUDGET - a[0] for a in armed) == 31_392
