"""Reference implementations that tests compare the package against.

None of these is reached from `lnd` itself; each exists so that a test can
check a result of the package by an independent route.
"""

from fractions import Fraction
from typing import Mapping

from lnd.arith import XYZ, ZP, Monomial, Poly, _form, _raw, divide_exact, substitute
from lnd.automorphisms import Automorphism, pullback
from lnd.delta_family import DeltaContext, NElem, expand_kernel_poly, m_derivation
from lnd.derivations import Derivation, delta, kernel_products
from lnd.errors import SearchExhaustedError
from lnd.groupmodel import GElem, GroupLaw
from lnd.linalg import rref


def solve(rows: list[Mapping], rhs: list) -> dict | None:
    """One solution of A x = b, one equation per row, with the free columns
    set to 0, as sparse {column: value}; None when the system is inconsistent."""
    augmented = [
        {**{(0, c): v for c, v in row.items()}, (1,): b} for row, b in zip(rows, rhs)
    ]
    x = {}
    for row in rref(augmented):
        pivot = min(row)
        if pivot == (1,):
            return None  # row (0 ... 0 | 1): inconsistent
        if (1,) in row:
            x[pivot[1]] = row[(1,)]
    return x


def express_in_kernel(
    f: Poly, gens: list[Poly], deg_max: int, var_names: tuple[str, ...]
) -> Poly:
    """Write f as a polynomial in the generators, as an exact linear solve.

    Searches products of the generators with expanded total degree at most
    `deg_max`.  The result lives in the ring with one variable per
    generator, named by `var_names`, and substitutes back to f exactly;
    failure to represent raises SearchExhaustedError.
    """
    ring = f.vars
    gens = [g.to_ring(ring) for g in gens]
    products = kernel_products(gens, max(deg_max, 0))
    # One equation per monomial: sum_j c_j * coefficient of m in product j = f_m.
    target = f.coefficients()
    equations: dict = {m: {} for m in target}
    for j, (_, kp) in enumerate(products):
        for mono, coeff in kp.coefficients().items():
            equations.setdefault(mono, {})[j] = coeff
    solution = solve(list(equations.values()), [target.get(m, 0) for m in equations])
    if solution is None:
        raise SearchExhaustedError(
            f"{f} has no representation in the generators within degree {deg_max}"
        )
    out = Poly(var_names, {products[j][0]: coeff for j, coeff in solution.items()})
    check = substitute(out, dict(zip(var_names, gens))) if not out.is_zero() else Poly.zero(ring)
    if check != f:
        raise SearchExhaustedError("representation verification failed")
    return out


def quotient_action(
    g: Automorphism, gens: list[Poly], deg_max: int, var_names: tuple[str, ...]
) -> tuple[Poly, ...]:
    """The induced map on the algebraic quotient: each g*(gen) re-expressed
    in the kernel generators; errors if g does not normalize the kernel ring
    within the degree bound."""
    images = []
    for gen in gens:
        moved = pullback(g, gen.to_ring(XYZ))
        bound = max(deg_max, moved.total_degree())
        images.append(express_in_kernel(moved, gens, bound, var_names))
    return tuple(images)


def leibniz_apply(d: Derivation, p: Poly) -> Poly:
    """sum of image_v * dp/dv as Poly products and sums, one product per
    nonzero image and variable present in p, each charged to an armed
    ALLOWANCE by Poly.__mul__."""
    p = p.to_ring(XYZ)
    present = p.variables_present()
    terms = [img * p.partial_derivative(v) for img, v in zip(d.images, XYZ)
             if v in present and not img.is_zero()]
    return sum(terms[1:], terms[0]) if terms else Poly.zero(XYZ)


def shift_in_P(f: Poly, h: Poly, a_prime: Poly) -> Poly:
    """f(z, P + h a') in the kernel ring by the generic substitution."""
    pv = Poly.variable(ZP, "P")
    return substitute(f, {"z": Poly.variable(ZP, "z"), "P": pv + h * a_prime})


def n_inverse(n: NElem, ctx: DeltaContext) -> NElem:
    """(-h, -f(P + h a')); both products with n give the identity."""
    return NElem(-n.h, -shift_in_P(n.f, n.h, ctx.a_prime_zp()))


def n_mul(lhs: NElem, rhs: NElem, ctx: DeltaContext) -> NElem:
    """(h, f) . (hb, fb) = (h + hb, f(P - hb a') + fb) on Polys."""
    return NElem(lhs.h + rhs.h, shift_in_P(lhs.f, -rhs.h, ctx.a_prime_zp()) + rhs.f)


# The group law of `groupmodel` on Poly values: each torus rescale rebuilds
# the Poly from its Fraction coefficients, and the shift substitutes.


def scale_var(p: Poly, r_z: Fraction, r_p: Fraction) -> Poly:
    """p(r_z z, r_p P)."""
    return Poly(ZP, {m: c * r_z ** m[0] * r_p ** m[1] for m, c in p.coefficients().items()})


def _chi(character, point) -> Fraction:
    value = Fraction(1)
    for coord, e in zip(point, character.exponents):
        value *= Fraction(coord) ** e
    return value


def conjugate_fiber(law: GroupLaw, point, h: Poly, f: Poly) -> tuple[Poly, Poly]:
    """lambda^-1 (1, h, f) lambda: h scales by nu with rho1-scaled z, f by mu
    with (rho1, rho2)-scaled coordinates."""
    r1 = _chi(law.rho1, point)
    h_c = scale_var(h, r1, Fraction(1)) * _chi(law.nu, point)
    f_c = scale_var(f, r1, _chi(law.rho2, point)) * _chi(law.mu, point)
    return h_c, f_c


def g_mul(a: GElem, b: GElem, law: GroupLaw) -> GElem:
    h_c, f_c = conjugate_fiber(law, b.torus, a.h, a.f)
    shifted = shift_in_P(f_c, -b.h, law.a_prime)
    torus = tuple(x * y for x, y in zip(a.torus, b.torus))
    return GElem(torus, h_c + b.h, shifted + b.f)


def g_inverse(a: GElem, law: GroupLaw) -> GElem:
    point = tuple(1 / Fraction(c) for c in a.torus)
    h_c, f_c = conjugate_fiber(law, point, a.h, a.f)
    return GElem(point, -h_c, -shift_in_P(f_c, h_c, law.a_prime))


def commutator(a: GElem, b: GElem, law: GroupLaw) -> GElem:
    """[a, b] = a b a^-1 b^-1."""
    ai, bi = g_inverse(a, law), g_inverse(b, law)
    return g_mul(g_mul(g_mul(a, b, law), ai, law), bi, law)


def integrate_in(p: Poly, var: str) -> Poly:
    """Formal antiderivative of p with zero constant term in `var`."""
    i = p.vars.index(var)
    return Poly(
        p.vars,
        {m[:i] + (m[i] + 1,) + m[i + 1 :]: c / (m[i] + 1) for m, c in p.coefficients().items()},
    )


def combine_to_delta(ctx: DeltaContext, n: NElem) -> tuple[Poly, bool]:
    """The combined potential F = h Q + f P - int(df/dP * P) dP, and whether
    the derivation of F equals h E + f D' exactly."""
    pv = Poly.variable(ZP, "P")
    correction = integrate_in(n.f.partial_derivative("P") * pv, "P")
    g_part = n.f * pv - correction
    f_poly = n.h.to_ring(XYZ) * ctx.Q + expand_kernel_poly(ctx, g_part)
    check = delta(f_poly).images == m_derivation(ctx, n).images
    return f_poly, check


# The fully recursive primitive PRS gcd: every content is itself a PRS gcd,
# with no modular certificate, support fold or integer Euclid, so it checks
# `gcd_multivariate` by a route that shares none of its gcd code.


def _univ_split(p: Poly, i: int) -> dict[int, Poly]:
    """View p as univariate in variable index i; coefficients keep the ring."""
    out: dict[int, dict[Monomial, int]] = {}
    for mono, c in p.terms.items():
        out.setdefault(mono[i], {})[mono[:i] + (0,) + mono[i + 1 :]] = c
    return {e: _form(p.vars, p.den, terms) for e, terms in out.items()}


def _shift(p: Poly, i: int, e: int) -> Poly:
    """Multiply by (variable i)^e."""
    if e == 0 or p.is_zero():
        return p
    return _raw(
        p.vars, p.den, {m[:i] + (m[i] + e,) + m[i + 1 :]: c for m, c in p.terms.items()}
    )


def _lc_in(p: Poly, i: int) -> tuple[int, Poly]:
    """(degree, leading coefficient) of p viewed in variable index i."""
    split = _univ_split(p, i)
    d = max(split)
    return d, split[d]


def _prem(a: Poly, b: Poly, i: int) -> Poly:
    """Pseudo-remainder of a by b in variable index i (lc(b)^k * a mod b)."""
    db, lb = _lc_in(b, i)
    r = a
    while not r.is_zero():
        dr, lr = _lc_in(r, i)
        if dr < db:
            break
        r = lb * r - _shift(lr, i, dr - db) * b
    return r


def _content_in(p: Poly, i: int) -> Poly:
    """Monic gcd of p's coefficients in variable index i (p nonzero), by PRS."""
    acc: Poly | None = None
    for coeff in _univ_split(p, i).values():
        acc = coeff.monic() if acc is None else gcd_prs(acc, coeff)
        if acc.is_constant():
            return Poly.one(p.vars)
    return acc


def gcd_prs(p: Poly, q: Poly) -> Poly:
    """gcd by the primitive pseudo-remainder sequence, exact over Q."""
    p._check_ring(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    present = [
        i
        for i in range(len(p.vars))
        if p.degree_in(p.vars[i]) > 0 or q.degree_in(p.vars[i]) > 0
    ]
    if not present:
        return Poly.one(p.vars)
    i = present[0]
    cont_p = _content_in(p, i)
    cont_q = _content_in(q, i)
    pp_p = divide_exact(p, cont_p)
    pp_q = divide_exact(q, cont_q)
    cont = gcd_prs(cont_p, cont_q)
    if pp_p.degree_in(p.vars[i]) < pp_q.degree_in(p.vars[i]):
        pp_p, pp_q = pp_q, pp_p
    a, b = pp_p, pp_q
    while not b.is_zero():
        r = _prem(a, b, i)
        if not r.is_zero():
            r = divide_exact(r, _content_in(r, i))
        a, b = b, r
    return (cont * a).monic()
