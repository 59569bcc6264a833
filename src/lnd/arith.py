"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from monomials to nonzero Fraction coefficients,
together with an ordered tuple of variable names.  The monomial for a ring
with variables (x, y, z) is an exponent tuple (ex, ey, ez).

  x*z + y^2   over ("x", "y", "z")   ->   {(1, 0, 1): 1, (0, 2, 0): 1}

Everything is exact: coefficients are `fractions.Fraction`, no rounding ever
occurs and equality of polynomials is equality of canonical term maps (no
zero coefficient is ever stored).  All values are immutable once built, so
they can be shared freely.

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

# Coefficients are stored as plain int whenever the value is integral (int
# and Fraction compare and hash equal for equal values, so this is purely a
# speed representation; no observable behavior depends on it).
Coef = int | Fraction

Monomial = tuple[int, ...]

# Standard rings used throughout the higher modules.
XYZ = ("x", "y", "z")
ZP = ("z", "P")
YZ = ("y", "z")
ZVAR = ("z",)


def frac(value) -> Fraction:
    """Coerce an int/Fraction/str into an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def _intern(value) -> Coef:
    """Normalize integral Fractions to int (faster arithmetic)."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


class WorkBudgetExceeded(Exception):
    """A Poly product would overdraw the armed ALLOWANCE."""


# Term pairs Poly products may still spend in this context: None (unmetered)
# unless armed with a one-item list, from which each product deducts
# len(a) * len(b) before it runs.
ALLOWANCE: ContextVar[list[int] | None] = ContextVar("lnd_allowance", default=None)


def exact_div(a: Coef, b: Coef) -> Coef:
    """a / b as an exact rational (int when integral)."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return _intern(frac(a) / frac(b))


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded-lex order (earlier variables are bigger)."""
    return (sum(mono), mono)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[Monomial, Coef]):
        canonical: dict[Monomial, Coef] = {}
        for mono, coeff in terms.items():
            c = _intern(coeff)
            if c:
                canonical[tuple(mono)] = c
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Poly":
        return cls(vars, {})

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "Poly":
        return cls.const(vars, 1)

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "Poly":
        c = frac(value)
        if not c:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    @lru_cache(maxsize=None)
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        if name not in vars:
            raise RingMismatchError(f"variable {name!r} not in ring {vars}")
        mono = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {mono: Fraction(1)})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Coef:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

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

    def coefficient(self, mono: Monomial) -> Coef:
        return self.terms.get(tuple(mono), 0)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> Coef:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient equals 1."""
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self * (Fraction(1) / frac(lc))

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
        out = dict(self.terms)
        get = out.get
        for mono, coeff in other.terms.items():
            s = get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return _raw(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        get = out.get
        for mono, coeff in other.terms.items():
            s = get(mono, 0) - coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return _raw(self.vars, out)

    def __neg__(self) -> "Poly":
        return _raw(self.vars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _intern(other)
            if not c:
                return Poly.zero(self.vars)
            if c == 1:
                return self
            return _raw(self.vars, {m: k * c for m, k in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        a, b = self.terms, other.terms
        allowance = ALLOWANCE.get()
        if allowance is not None:
            allowance[0] -= len(a) * len(b)
            if allowance[0] < 0:
                raise WorkBudgetExceeded
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Coef] = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = tuple(map(add, ma, mb))
                s = get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return _raw(self.vars, out)

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
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and structure -------------------------------------------

    def partial_derivative(self, var: str) -> "Poly":
        i = self._var_index(var)
        out: dict[Monomial, Coef] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
            out[lowered] = coeff * e
        return _raw(self.vars, out)

    def integrate_in(self, var: str) -> "Poly":
        """Formal antiderivative with zero constant term in `var`."""
        i = self._var_index(var)
        out: dict[Monomial, Coef] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            raised = mono[:i] + (e + 1,) + mono[i + 1 :]
            out[raised] = exact_div(coeff, e + 1)
        return _raw(self.vars, out)

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
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
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
            out[tuple(target)] = coeff
        return Poly(vars, out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({'+'.join(self.vars)}: {poly_to_str(self)})"


def _raw(vars: tuple[str, ...], terms: dict[Monomial, Fraction]) -> Poly:
    """Build a Poly from terms already known to be canonical."""
    p = Poly.__new__(Poly)
    object.__setattr__(p, "vars", vars)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


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
        if isinstance(out, Poly):
            return out
        return _raw(self.target, {(0,) * len(self.target): out})


def _horner(terms: list, split: list[tuple[int, Poly]], k: int):
    """Evaluate the distinct-monomial `terms` by Horner's rule in the
    variables split[k:], given as (position, image): split on the first,
    sum x^e p_e = (..(p_top * img^(top - e2) + p_e2) ..) * img^(e_last).

    A single term is its coefficient times its image powers, so a constant
    comes back as a scalar rather than a constant Poly.
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
            folded = dict(acc.terms)
            zero = (0,) * len(acc.vars)
            s = folded.get(zero, 0) + part
            if s:
                folded[zero] = s
            else:
                del folded[zero]
            acc = _raw(acc.vars, folded)
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
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_ring(q)
    if p.is_zero():
        return Poly.zero(p.vars)
    q_lead = q.leading_monomial()
    q_lc = q.terms[q_lead]
    remainder = p
    quotient: dict[Monomial, Coef] = {}
    while not remainder.is_zero():
        lead = remainder.leading_monomial()
        diff = tuple(a - b for a, b in zip(lead, q_lead))
        if any(d < 0 for d in diff):
            raise NonDivisibleError(
                f"leading term {_mono_str(p.vars, lead)} not divisible by "
                f"{_mono_str(p.vars, q_lead)}"
            )
        coeff = exact_div(remainder.terms[lead], q_lc)
        quotient[diff] = coeff
        remainder = remainder - _raw(p.vars, {diff: coeff}) * q
    return Poly(p.vars, quotient)


def divides(q: Poly, p: Poly) -> bool:
    """True iff q divides p exactly (q nonzero)."""
    try:
        divide_exact(p, q)
        return True
    except NonDivisibleError:
        return False


# -- greatest common divisors ---------------------------------------------
#
# gcd_multivariate first tries to prove the gcd constant from univariate
# images modulo a fixed word-size prime (_coprime_by_images; Brown, J. ACM
# 18(4), 1971).  That certificate settles the coprime case, which is what the
# irreducibility checks ask, without any coefficient growth.  Any other
# outcome -- a nonconstant image gcd, or no usable evaluation point within
# the fixed attempts -- falls back to _gcd_prs, the one exact path for
# nonconstant gcds: recursive content / primitive-part reduction, picking the
# highest-priority variable present, stripping contents (gcds in one fewer
# variable), then a pseudo-remainder sequence on the primitive parts, keeping
# remainders primitive at every step.  A bad prime or point can only cost
# time, never change a result.  Output is normalized so the graded-lex
# leading coefficient is 1.

# One prime per attempt; the evaluation point of an attempt is a fixed
# function of the attempt and variable index, so every run certifies alike.
_CERT_PRIMES = (2147483647, 2147483629, 2147483587)


def _integral_terms(p: Poly) -> dict[Monomial, int]:
    """The terms of p times the lcm of its denominators: an integer polynomial."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}


def _image_mod(
    terms: dict[Monomial, int], i: int, point: list[int], prime: int
) -> list[int]:
    """Dense coefficients (low to high) in variable i, every other variable
    set to its point value, mod prime; trailing zeros stripped."""
    coeffs = [0] * (1 + max(m[i] for m in terms))
    for mono, c in terms.items():
        value = c
        for j, e in enumerate(mono):
            if e and j != i:
                value = value * pow(point[j], e, prime)
        coeffs[mono[i]] = (coeffs[mono[i]] + value) % prime
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


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

    Scale p and q to integer polynomials P and Q.  For each variable v in
    which both have positive degree, map Z[vars] -> GF(prime)[v] by reducing
    mod a fixed prime and setting every other variable to a fixed point,
    chosen so the leading coefficient of P in v does not vanish there; then
    require gcd(image P, image Q) to have degree 0.

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
    deg_p = [p.degree_in(v) for v in p.vars]
    deg_q = [q.degree_in(v) for v in q.vars]
    shared = [i for i in range(len(p.vars)) if deg_p[i] and deg_q[i]]
    if not shared:
        return True
    int_p, int_q = _integral_terms(p), _integral_terms(q)
    for i in shared:
        for attempt, prime in enumerate(_CERT_PRIMES):
            point = [
                0x9E3779B1 * (attempt * len(p.vars) + j + 1) % prime
                for j in range(len(p.vars))
            ]
            image_p = _image_mod(int_p, i, point, prime)
            if len(image_p) - 1 < deg_p[i]:
                continue  # lc_v(P) vanishes at this point: try the next one
            image_q = _image_mod(int_q, i, point, prime)
            if len(_gcd_mod(image_p, image_q, prime)) > 1:
                return False
            break
        else:
            return False
    return True


def _univ_split(p: Poly, i: int) -> dict[int, Poly]:
    """View p as univariate in variable index i; coefficients keep the ring."""
    out: dict[int, dict[Monomial, Coef]] = {}
    for mono, coeff in p.terms.items():
        e = mono[i]
        rest = mono[:i] + (0,) + mono[i + 1 :]
        out.setdefault(e, {})[rest] = coeff
    return {e: _raw(p.vars, terms) for e, terms in out.items()}


def _shift(p: Poly, i: int, e: int) -> Poly:
    """Multiply by (variable i)^e."""
    if e == 0 or p.is_zero():
        return p
    return _raw(
        p.vars, {m[:i] + (m[i] + e,) + m[i + 1 :]: c for m, c in p.terms.items()}
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
        acc = coeff.monic() if acc is None else _gcd_prs(acc, coeff)
        if acc.is_constant():
            return Poly.one(p.vars)
    return acc


def gcd_multivariate(p: Poly, q: Poly) -> Poly:
    """A greatest common divisor, monic in graded-lex leading coefficient.

    A constant gcd is certified from modular images when it can be
    (_coprime_by_images); everything else is the exact primitive PRS.
    """
    p._check_ring(q)
    if not p.is_zero() and not q.is_zero() and _coprime_by_images(p, q):
        return Poly.one(p.vars)
    return _gcd_prs(p, q)


def _gcd_prs(p: Poly, q: Poly) -> Poly:
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
    cont = _gcd_prs(cont_p, cont_q)
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
    for idx, (mono, coeff) in enumerate(p.sorted_terms()):
        negative = coeff < 0
        mag = -coeff if negative else coeff
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
