"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is an ordered tuple of variable names, a positive int `den`
and a map `terms` from monomials to nonzero int numerators; its value is
sum(terms[m] * m) / den.  The monomial for a ring with variables (x, y, z)
is an exponent tuple (ex, ey, ez).

  x*z + y^2/2   over ("x", "y", "z")   ->   den 2, {(1, 0, 1): 2, (0, 2, 0): 1}

Everything is exact and the form is canonical: gcd(den, *numerators) == 1,
no numerator is zero, and the zero polynomial is den 1 with no terms.  A
larger shared denominator k * den would need k to divide den and every
numerator, so each value has exactly one form and equality of polynomials
is equality of (vars, den, terms).  Products and sums run on the int
numerators alone; one gcd restores the form, and only when den != 1, so
integer polynomials never pay for it.  Exact rational coefficients come
from `coefficient`, `coefficients` and `leading_coeff`.  All values are
immutable once built, so they can be shared freely.

The canonical term order is graded lexicographic with the earlier variable
bigger (x > y > z for the ambient ring); printing emits terms in descending
graded-lex order, so string output is deterministic and parse/print
round-trips byte for byte.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, Mapping

from .errors import MissingImageError, NonDivisibleError, RingMismatchError

Monomial = tuple[int, ...]

# Standard rings used throughout the higher modules.
XYZ = ("x", "y", "z")
ZP = ("z", "P")
YZ = ("y", "z")
ZVAR = ("z",)


class WorkBudgetExceeded(Exception):
    """A Poly product would overdraw the armed ALLOWANCE."""


# Term pairs Poly products may still spend in this context: None (unmetered)
# unless armed with a one-item list, from which each product deducts
# len(a) * len(b) before it runs.
ALLOWANCE: ContextVar[list[int] | None] = ContextVar("lnd_allowance", default=None)


def _charge(pairs: int) -> None:
    """Deduct term pairs from an armed ALLOWANCE; WorkBudgetExceeded past it."""
    allowance = ALLOWANCE.get()
    if allowance is not None:
        allowance[0] -= pairs
        if allowance[0] < 0:
            raise WorkBudgetExceeded


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded-lex order (earlier variables are bigger)."""
    return (sum(mono), mono)


class Poly:
    """Immutable sparse polynomial: int numerators over one shared denominator."""

    __slots__ = ("vars", "den", "terms", "_hash")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[Monomial, int | Fraction]):
        items = [(tuple(mono), c) for mono, c in terms.items() if c]
        den = math.lcm(*(c.denominator for _, c in items))
        _SET_VARS(self, tuple(vars))
        _SET_DEN(self, den)
        _SET_TERMS(self, {m: c.numerator * (den // c.denominator) for m, c in items})

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Poly":
        return _raw(tuple(vars), 1, {})

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "Poly":
        return _raw(tuple(vars), 1, {(0,) * len(vars): 1})

    @classmethod
    def const(cls, vars: tuple[str, ...], value: int | Fraction) -> "Poly":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    @lru_cache(maxsize=None)
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        if name not in vars:
            raise RingMismatchError(f"variable {name!r} not in ring {vars}")
        return _raw(vars, 1, {tuple(1 if v == name else 0 for v in vars): 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.coefficient((0,) * len(self.vars))

    def total_degree(self) -> int:
        """Max total degree of the support; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self._var_index(var)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def variables_present(self) -> set[str]:
        present: set[str] = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    present.add(self.vars[i])
        return present

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.terms.get(tuple(mono), 0), self.den)

    def coefficients(self) -> dict[Monomial, Fraction]:
        """The exact coefficient of every monomial of the support."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.terms.items()}

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> Fraction:
        return Fraction(self.terms[self.leading_monomial()], self.den)

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient equals 1."""
        if not self.terms:
            return self
        lc = self.terms[self.leading_monomial()]
        if lc == self.den:
            return self
        sign = 1 if lc > 0 else -1
        return _form(self.vars, abs(lc), {m: c * sign for m, c in self.terms.items()})

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise RingMismatchError(f"variable {var!r} not in ring {self.vars}") from None

    def _check_ring(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise RingMismatchError(f"ring mismatch: {self.vars} vs {other.vars}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _combine(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return _combine(self, other, -1)

    def __neg__(self) -> "Poly":
        return _raw(self.vars, self.den, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check_ring(other)
            a, b = self.terms, other.terms
            _charge(len(a) * len(b))
            p, q = (self, other) if len(a) <= len(b) else (other, self)
            a, b = p.terms, q.terms
            if not a:
                return p
            if len(a) == 1:
                (ma, ca), = a.items()
                if ca == p.den and not any(ma):
                    return q  # p is the constant 1
            return _form(self.vars, self.den * other.den, _mul_terms(a, b))
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            if n == d:
                return self
            if not n:
                return Poly.zero(self.vars)
            return _form(self.vars, self.den * d, {m: c * n for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial exponent")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Poly.one(self.vars) if result is None else result

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.vars, self.den, frozenset(self.terms.items())))
            _SET_HASH(self, h)
            return h

    # -- calculus and structure -------------------------------------------

    def partial_derivative(self, var: str) -> "Poly":
        i = self._var_index(var)
        out: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                out[mono[:i] + (e - 1,) + mono[i + 1 :]] = c * e
        return _form(self.vars, self.den, out)

    def to_ring(self, vars: tuple[str, ...]) -> "Poly":
        """Re-express over another variable list, matching by name.

        Every variable that actually occurs must exist in the target ring.
        """
        vars = tuple(vars)
        if vars == self.vars:
            return self
        positions: list[int | None] = [
            vars.index(v) if v in vars else None for v in self.vars
        ]
        out: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            target = [0] * len(vars)
            for i, e in enumerate(mono):
                if not e:
                    continue
                j = positions[i]
                if j is None:
                    raise RingMismatchError(
                        f"cannot move {self.vars[i]!r}-term into ring {vars}"
                    )
                target[j] = e
            out[tuple(target)] = c
        return _raw(vars, self.den, out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({'+'.join(self.vars)}: {poly_to_str(self)})"


_SET_VARS, _SET_DEN, _SET_TERMS, _SET_HASH = (
    getattr(Poly, slot).__set__ for slot in Poly.__slots__
)


def _raw(vars: tuple[str, ...], den: int, terms: dict[Monomial, int]) -> Poly:
    """Build a Poly from a form already known to be canonical."""
    p = object.__new__(Poly)
    _SET_VARS(p, vars)
    _SET_DEN(p, den)
    _SET_TERMS(p, terms)
    return p


def _form(vars: tuple[str, ...], den: int, terms: dict[Monomial, int]) -> Poly:
    """The canonical Poly for terms / den (den > 0, no zero numerator)."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return _raw(vars, den, terms)


def _mul_terms(a: dict[Monomial, int], b: dict[Monomial, int], out: dict | None = None) -> dict:
    """The numerators of the product of two numerator maps, a ideally the
    shorter; added in place into `out` when given, a map only the caller holds."""
    if out is None:
        if len(a) == 1:
            (ma, ca), = a.items()
            return {tuple(map(add, ma, mb)): ca * cb for mb, cb in b.items()}
        out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            s = get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign * q, on the numerators over the lcm of the denominators."""
    return _form(p.vars, *_add_terms(p.den, dict(p.terms), q.den, q.terms, sign))


def _add_terms(den: int, out: dict, d: int, terms: Mapping, sign: int) -> tuple[int, dict]:
    """out / den + sign * terms / d, numerator maps with no zero, as (lcm of
    the denominators, numerators); adds into `out` when den is that lcm."""
    lcm = den if den == d else math.lcm(den, d)
    if lcm != den:
        out = {m: c * (lcm // den) for m, c in out.items()}
    factor = sign * (lcm // d)
    get = out.get
    for mono, c in terms.items():
        s = get(mono, 0) + c * factor
        if s:
            out[mono] = s
        else:
            del out[mono]
    return lcm, out


class _Substitution:
    """A substitution: variable images that all live in one target ring."""

    def __init__(self, images: Mapping[str, Poly]):
        self.images = dict(images)
        target: tuple[str, ...] | None = None
        for img in self.images.values():
            if target is None:
                target = img.vars
            elif img.vars != target:
                raise RingMismatchError("substitution images live in different rings")
        self.target = target

    def apply(self, p: Poly) -> Poly:
        present = p.variables_present()
        missing = sorted(present - set(self.images))
        if missing:
            raise MissingImageError(
                f"no image for variable(s): {', '.join(missing)}"
            )
        if self.target is None:
            return p
        if not p.terms:
            return Poly.zero(self.target)
        split = [(i, self.images[v]) for i, v in enumerate(p.vars) if v in present]
        out = _horner(list(p.terms.items()), split, 0)
        if not isinstance(out, Poly):
            out = _raw(self.target, 1, {(0,) * len(self.target): out})
        return out if p.den == 1 else _form(out.vars, out.den * p.den, out.terms)


def _horner(terms: list, split: list[tuple[int, Poly]], k: int):
    """Evaluate the distinct-monomial `terms` (int numerators) by Horner's
    rule in the variables split[k:], given as (position, image): split on
    the first, sum x^e p_e = (..(p_top * img^(top - e2) + p_e2) ..) * img^(e_last).

    A single term is its numerator times its image powers, so a constant
    comes back as an int rather than a constant Poly.
    """
    if len(terms) == 1:
        (mono, acc), = terms
        for i, img in split[k:]:
            if mono[i]:
                acc = acc * img ** mono[i]
        return acc
    i, img = split[k]
    parts: dict[int, list] = {}
    for term in terms:
        parts.setdefault(term[0][i], []).append(term)
    exps = sorted(parts, reverse=True)
    acc = _horner(parts[exps[0]], split, k + 1)
    for hi, lo in zip(exps, exps[1:]):
        acc = acc * img ** (hi - lo)
        part = _horner(parts[lo], split, k + 1)
        if isinstance(part, Poly):
            acc = acc + part
        else:
            constant = {(0,) * len(acc.vars): part}
            acc = _form(acc.vars, *_add_terms(acc.den, dict(acc.terms), 1, constant, 1))
    return acc * img ** exps[-1] if exps[-1] else acc


def substitute(p: Poly, images: Mapping[str, Poly]) -> Poly:
    """Evaluate `p` at the given variable images (a ring homomorphism).

    Every variable occurring in `p` must have an image; all images must share
    one target ring, which becomes the ring of the result.
    """
    return _Substitution(images).apply(p)


def divide_exact(p: Poly, q: Poly) -> Poly:
    """Return r with p = q*r, or raise NonDivisibleError.

    Non-divisibility is a meaningful signal for the callers (membership
    tests), so it gets its own exception rather than returning a remainder.
    Long division on the int numerators, keeping s * p = q * quotient +
    remainder: each step scales all three by |lc(q)| / gcd(lc(q), c), c the
    leading remainder numerator, so that the new quotient term is an int,
    charges an armed ALLOWANCE len(q.terms) and subtracts in place.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_ring(q)
    q_lead = q.leading_monomial()
    q_lc = q.terms[q_lead]
    rest = [(m, c) for m, c in q.terms.items() if m != q_lead]
    remainder, quotient, s = dict(p.terms), {}, 1
    while remainder:
        lead = max(remainder, key=grlex_key)
        diff = tuple(a - b for a, b in zip(lead, q_lead))
        if any(d < 0 for d in diff):
            raise NonDivisibleError(
                f"leading term {_mono_str(p.vars, lead)} not divisible by "
                f"{_mono_str(p.vars, q_lead)}"
            )
        _charge(len(q.terms))
        scale = abs(q_lc) // math.gcd(remainder[lead], q_lc)
        if scale != 1:
            s *= scale
            remainder = {m: c * scale for m, c in remainder.items()}
            quotient = {m: c * scale for m, c in quotient.items()}
        quotient[diff] = c = remainder.pop(lead) // q_lc
        for m, cq in rest:
            mono = tuple(map(add, diff, m))
            v = remainder.get(mono, 0) - c * cq
            if v:
                remainder[mono] = v
            else:
                del remainder[mono]
    return _form(p.vars, s * p.den, {m: c * q.den for m, c in quotient.items()})


def divides(q: Poly, p: Poly) -> bool:
    """True iff q divides p exactly (q nonzero)."""
    try:
        divide_exact(p, q)
        return True
    except NonDivisibleError:
        return False


# -- greatest common divisors ---------------------------------------------
#
# gcd_multivariate is the one gcd entry: every gcd in the package, the PRS's
# contents included, goes through it.  It first tries to prove the gcd
# constant from univariate images modulo a fixed word-size prime
# (_coprime_by_images; Brown, J. ACM 18(4), 1971), which settles the coprime
# case with no coefficient growth, in one pass over each operand per attempt.
# Otherwise the supports decide.  If one operand has positive degree in
# variables the other lacks, every common divisor has degree 0 in them, so
# the gcd is the fold of gcd(other, c) over the coefficients c in those
# variables, stopping at a constant; this recurses until both supports
# agree.  Two operands in the same one variable run a primitive Euclid on
# their dense int numerators (_gcd_dense), each pseudo-remainder divided by
# its integer content.  A shared support of two or more variables runs the
# primitive pseudo-remainder sequence (_gcd_prs) in the first shared
# variable; its contents have degree 0 in that variable, so they re-enter
# gcd_multivariate with one variable fewer.  A bad prime or point can only
# cost time, never change a result.  Output is normalized so the graded-lex
# leading coefficient is 1.

# One prime per attempt; the evaluation point of an attempt is a fixed
# function of the attempt and variable index, so every run certifies alike.
_CERT_PRIMES = (2147483647, 2147483629, 2147483587)


def _images_mod(terms: dict, pending: list[int], powers: list[list[int]], prime: int) -> list:
    """In one pass over terms, for each variable index i in `pending`, the dense
    coefficients (low to high) in variable i mod prime, every other variable j
    set to the point with powers powers[j]; trailing zeros stripped."""
    images = [[0] * len(powers[i]) for i in pending]
    for mono, c in terms.items():
        values = list(map(list.__getitem__, powers, mono))
        full = c * math.prod(values)  # a point is nonzero mod prime, so is each value
        for i, coeffs in zip(pending, images):
            coeffs[mono[i]] += full // values[i]  # c times the other variables' values
    for coeffs in images:
        coeffs[:] = [c % prime for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    return images


def _gcd_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    """A gcd of two dense polynomials over GF(prime) (Euclid)."""
    while b:
        inv = pow(b[-1], -1, prime)
        db = len(b) - 1
        a = a[:]
        while len(a) > db:
            c = a[-1] * inv % prime
            shift = len(a) - 1 - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - c * b[k]) % prime
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _coprime_by_images(p: Poly, q: Poly) -> bool:
    """True only if gcd(p, q) is a constant, proved by modular images.

    Take the integer numerator polynomials P = p.den * p and Q = q.den * q.
    For each variable v in which both have positive degree, map Z[vars] ->
    GF(prime)[v] by reducing mod a fixed prime and setting every other
    variable to a fixed point, chosen so the leading coefficient of P in v
    does not vanish there; then require gcd(image P, image Q) to have
    degree 0.  Each variable takes the first attempt whose point keeps lc_v(P)
    nonzero; an attempt images every variable still pending at once.

    Why this is sound: take g primitive over Z with g | p and g | q.  By
    Gauss's lemma g | P and g | Q over Z, so the quotients are integral and
    the images of g divide both images.  The leading coefficient in v is
    multiplicative, lc_v(P) = lc_v(g) * lc_v(P / g), and it does not vanish
    at the point, so neither does lc_v(g): the image of g keeps degree
    deg_v(g), which is therefore at most the image gcd's degree, 0.  In a
    variable where only one of p, q has positive degree, g divides a nonzero
    polynomial of degree 0 in v, so again deg_v(g) = 0.  Hence g is constant.

    False means "not proved": the images share a factor, or no attempt gave
    a usable point; the caller then computes the gcd exactly.
    """
    deg_p, deg_q = list(map(max, zip(*p.terms))), list(map(max, zip(*q.terms)))
    pending = [i for i, (dp, dq) in enumerate(zip(deg_p, deg_q)) if dp and dq]
    for attempt, prime in enumerate(_CERT_PRIMES):
        if not pending:
            break
        powers = []
        for j, top in enumerate(map(max, deg_p, deg_q)):
            if pending == [j]:  # a lone pending variable's row only sizes its image
                powers.append([1] * (top + 1))
                continue
            point, row = 0x9E3779B1 * (attempt * len(deg_p) + j + 1) % prime, [1]
            for _ in range(top):
                row.append(row[-1] * point % prime)
            powers.append(row)
        images = [_images_mod(t, pending, powers, prime) for t in (p.terms, q.terms)]
        still = []
        for i, image_p, image_q in zip(pending, *images):
            if len(image_p) <= deg_p[i]:
                still.append(i)  # lc_v(P) vanishes at this point: try the next one
            elif len(_gcd_mod(image_p, image_q, prime)) > 1:
                return False
        pending = still
    return not pending


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
    """Monic gcd of p's coefficients in variable index i (p nonzero)."""
    return gcd_many(_univ_split(p, i).values())


def gcd_multivariate(p: Poly, q: Poly) -> Poly:
    """A greatest common divisor, monic in graded-lex leading coefficient;
    a zero operand leaves the other one, made monic (comment block above)."""
    p._check_ring(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero() or q.is_zero():
        return (q if p.is_zero() else p).monic()
    if _coprime_by_images(p, q):
        return Poly.one(p.vars)
    return _gcd_reduced(p, q)


def _gcd_reduced(p: Poly, q: Poly) -> Poly:
    """gcd of nonzero p and q: coefficient folds until the supports agree,
    then the integer Euclid in one variable or the PRS in more."""
    support_p, support_q = p.variables_present(), q.variables_present()
    if not support_p or not support_q:
        return Poly.one(p.vars)
    if support_q - support_p:
        return _gcd_fold(p, q, support_q - support_p)
    if support_p - support_q:
        return _gcd_fold(q, p, support_p - support_q)
    i = min(p.vars.index(v) for v in support_p)
    if len(support_p) > 1:
        return _gcd_prs(p, q, i)
    return _gcd_dense(p, q, i)


def _gcd_fold(p: Poly, q: Poly, names: set[str]) -> Poly:
    """gcd(p, q) for nonzero p of degree 0 in the variables `names`: a common
    divisor has degree 0 in them too, so it divides every coefficient of q
    in them, and the gcd is the fold over those coefficients."""
    extra = {p.vars.index(v) for v in names}
    coeffs: dict[Monomial, dict[Monomial, int]] = {}
    for mono, c in q.terms.items():
        key = tuple(e if i in extra else 0 for i, e in enumerate(mono))
        rest = tuple(0 if i in extra else e for i, e in enumerate(mono))
        coeffs.setdefault(key, {})[rest] = c
    acc = p
    for terms in coeffs.values():
        acc = _gcd_reduced(acc, _raw(p.vars, 1, terms))
        if acc.is_constant():
            break
    return acc


def _gcd_dense(p: Poly, q: Poly, i: int) -> Poly:
    """Monic gcd of nonzero p and q that involve only variable index i.

    Over Q the denominators and integer contents are units, so this is the
    primitive Euclid on the dense int numerators (low to high degree): each
    pseudo-remainder is divided by its content; the last nonzero one is the
    gcd up to a unit.
    """
    a, b = _dense(p.terms, i), _dense(q.terms, i)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prem_dense(a, b)
    zero = (0,) * len(p.vars)
    terms = {zero[:i] + (k,) + zero[i + 1 :]: c for k, c in enumerate(a) if c}
    return _raw(p.vars, 1, terms).monic()


def _dense(terms: dict[Monomial, int], i: int) -> list[int]:
    """Dense int coefficients (low to high) of a polynomial in variable i alone."""
    out = [0] * (1 + max(m[i] for m in terms))
    for mono, c in terms.items():
        out[mono[i]] = c
    return out


def _prem_dense(a: list[int], b: list[int]) -> list[int]:
    """A primitive pseudo-remainder of dense a by b (len(a) >= len(b) > 0):
    each step scales by lc(b) / gcd(lc(b), lc(r)), one integer multiple of
    lc(b)^k * a mod b; trailing zeros stripped."""
    lb, db = b[-1], len(b) - 1
    r = a[:]
    while len(r) > db:
        c = r.pop()
        g = math.gcd(c, lb)
        scale, c = lb // g, c // g
        if scale != 1:
            r = [x * scale for x in r]
        shift = len(r) - db
        for k in range(db):
            r[shift + k] -= c * b[k]
        while r and not r[-1]:
            r.pop()
    if r:
        g = math.gcd(*r)
        if g != 1:
            r = [x // g for x in r]
    return r


def _gcd_prs(p: Poly, q: Poly, i: int) -> Poly:
    """gcd of nonzero p and q, both of positive degree in variable index i,
    by the primitive pseudo-remainder sequence in that variable."""
    cont_p = _content_in(p, i)
    cont_q = _content_in(q, i)
    pp_p = divide_exact(p, cont_p)
    pp_q = divide_exact(q, cont_q)
    cont = gcd_multivariate(cont_p, cont_q)
    if pp_p.degree_in(p.vars[i]) < pp_q.degree_in(p.vars[i]):
        pp_p, pp_q = pp_q, pp_p
    a, b = pp_p, pp_q
    while not b.is_zero():
        r = _prem(a, b, i)
        if not r.is_zero():
            r = divide_exact(r, _content_in(r, i))
        a, b = b, r
    return (cont * a).monic()


def gcd_many(polys: Iterable[Poly]) -> Poly:
    """Fold gcd over an iterable of polynomials (ignoring zeros)."""
    acc: Poly | None = None
    ring: tuple[str, ...] | None = None
    for p in polys:
        ring = p.vars
        if p.is_zero():
            continue
        acc = p.monic() if acc is None else gcd_multivariate(acc, p)
        if acc.is_constant():
            return Poly.one(acc.vars)
    if acc is None:
        if ring is None:
            raise ValueError("gcd of an empty collection")
        raise ValueError("gcd(0, ..., 0) is undefined")
    return acc


# -- printing ----------------------------------------------------------------


def _mono_str(vars: tuple[str, ...], mono: Monomial) -> str:
    parts = []
    for name, e in zip(vars, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def poly_to_str(p: Poly) -> str:
    """Deterministic text form: descending graded-lex, canonical spacing.

    The output is re-parseable by the shared expression grammar and
    round-trips byte for byte.
    """
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    terms = sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    for idx, (mono, c) in enumerate(terms):
        negative = c < 0
        mag = Fraction(abs(c), p.den) if p.den != 1 else abs(c)
        vars_part = _mono_str(p.vars, mono)
        if vars_part == "1":
            body = str(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        if idx == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def is_univariate_in(p: Poly, var: str) -> bool:
    """True iff every monomial of p uses only `var`."""
    i = p._var_index(var)
    return all(
        all(e == 0 for j, e in enumerate(m) if j != i) for m in p.terms
    )
