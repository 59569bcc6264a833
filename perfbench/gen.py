"""Seeded corpus generators for the lnd benchmark.

Each generator returns the corpus text and, for every check directive in
source order, the verdict the construction guarantees.  The verdicts come
from the mathematics of the construction (the identities the checker
certifies, or an expectation deliberately made false), never from running
lnd.  The same (workload, seed) always gives the same bytes.

    python3 perfbench/gen.py WORKLOAD SEED      # prints the corpus
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

WORKLOADS = ("centralizer", "irreducibility", "breadth")

PLINTH_P = "x*z + y^2"
CONTEXTS = (
    "context C { P = x*z + y^2; d = 1; deg_max = 3 }",
    "context CZ { P = x*z + y^2; d = z; deg_max = 3 }",
)


# -- polynomial text ---------------------------------------------------------


def poly_text(terms: dict[tuple[int, ...], Fraction], names: tuple[str, ...]) -> str:
    """Text of sum(c * prod(name^e)); zero terms are dropped, "0" if empty."""
    pieces = []
    for mono, coeff in sorted(terms.items(), reverse=True):
        if coeff == 0:
            continue
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e
        ]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {body}")
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def _nonzero(rng: random.Random, low: int = -9, high: int = 9) -> int:
    value = 0
    while value == 0:
        value = rng.randint(low, high)
    return value


def _rational(rng: random.Random) -> Fraction:
    return Fraction(_nonzero(rng), rng.randint(1, 4))


def _random_poly(
    rng: random.Random, names: tuple[str, ...], deg: int, terms: int
) -> dict[tuple[int, ...], Fraction]:
    """Up to `terms` monomials of total degree <= deg with small coefficients."""
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        mono = [0] * len(names)
        budget = rng.randint(0, deg)
        for _ in range(budget):
            mono[rng.randrange(len(names))] += 1
        out[tuple(mono)] = out.get(tuple(mono), Fraction(0)) + rng.randint(-9, 9)
    return {m: c for m, c in out.items() if c}


def _nonconstant(rng, names, deg, terms) -> dict:
    while True:
        poly = _random_poly(rng, names, deg, terms)
        if any(sum(m) for m in poly):
            return poly


def _monic_leading(
    rng: random.Random, lead: tuple[int, ...], names: tuple[str, ...], terms: int
) -> dict[tuple[int, ...], Fraction]:
    """Coefficient 1 on `lead` plus lower-degree terms, so `lead` is the
    graded-lex leading monomial and the polynomial is monic in lnd's sense."""
    poly = {lead: Fraction(1)}
    if sum(lead) > 0:
        for mono, c in _random_poly(rng, names, sum(lead) - 1, terms).items():
            poly[mono] = poly.get(mono, Fraction(0)) + c
    return {m: c for m, c in poly.items() if c}


# -- centralizer ----------------------------------------------------------------


def centralizer(seed: int) -> tuple[str, list[str]]:
    """The centralizer checks of the shipped freudenburg_family corpus, one
    sample per directive: n_group_homomorphism 25 times on C and 15 times on
    CZ, char_commutator 4 times at random and once with a constant h and
    f = 0, in seeded order.  The random pairs come from lnd's own seeded
    streams (the benchmark seed is passed as --seed).  Every directive is a
    theorem: PASS."""
    rng = random.Random(f"centralizer:{seed}")
    kinds = ["C"] * 25 + ["CZ"] * 15 + ["cc-random"] * 4 + ["cc-constant"]
    rng.shuffle(kinds)
    lines = ["# centralizer workload, seed %d" % seed, *CONTEXTS]
    for kind in kinds:
        if kind in ("C", "CZ"):
            lines.append(f"check n_group_homomorphism({kind}, samples = 1)")
        elif kind == "cc-random":
            lines.append("check char_commutator(C, samples = 1)")
        else:
            lines.append(f"check char_commutator(C, h = {_nonzero(rng)}, f = 0)")
    return "\n".join(lines) + "\n", ["PASS"] * len(kinds)


def _kernel_draw(
    rng: random.Random, deg: int, z_only: bool = False
) -> dict[tuple[int, int], Fraction]:
    """Four summed terms c z^ez P^ep with c in [-9, 9], as in the checker's
    random kernel elements."""
    out: dict[tuple[int, int], Fraction] = {}
    for _ in range(4):
        ez = rng.randint(0, deg)
        ep = 0 if z_only else rng.randint(0, deg - ez)
        out[(ez, ep)] = out.get((ez, ep), Fraction(0)) + rng.randint(-9, 9)
    return {m: c for m, c in out.items() if c}


# -- irreducibility -------------------------------------------------------------

# The 100 stream pairs are drawn once, from a fixed stream, from the
# distribution of acceptance criterion 8 (four summed terms c z^ez P^ep,
# degree <= 3, c in [-9, 9]); the benchmark seed draws the 20 factor pairs
# and the order of all pairs.  The time of the primitive PRS depends on the
# signs as well as the shapes (one pair took 18.5 s with one choice of signs
# and 22.7 s with another), so the stream pairs are the same in every run:
# runs with different seeds stay comparable, and the heavy tail of the
# natural draw, slow pair included, is in every run.
STREAM_PAIRS = 100
FACTOR_PAIRS = 20


def _stream_panel() -> list[tuple[dict, dict]]:
    rng = random.Random("irreducibility-panel")
    panel = []
    while len(panel) < STREAM_PAIRS:
        h, f = _kernel_draw(rng, 3, z_only=True), _kernel_draw(rng, 3)
        if h or f:
            panel.append((h, f))
    return panel


def irreducibility(seed: int) -> tuple[str, list[str]]:
    """irreducibility_criterion(C, n(h, f)) on explicit pairs: 100 drawn like
    criterion 8's stream (coprime or not), and 20 degree-1 pairs multiplied
    by a common factor g(z) = c1 z^e + c0.  The criterion holds for every
    nonzero pair (irreducible when gcd(h, f) = 1, content equal to the
    expanded gcd otherwise), so every verdict is PASS."""
    rng = random.Random(f"irreducibility:{seed}")
    zp = ("z", "P")
    pairs = [(poly_text(h, zp), poly_text(f, zp)) for h, f in _stream_panel()]
    for _ in range(FACTOR_PAIRS):
        g = {(rng.randint(1, 2), 0): Fraction(rng.randint(1, 5))}
        g[(0, 0)] = Fraction(rng.randint(0, 5))
        while True:
            h0 = _kernel_draw(rng, 1, z_only=True)
            f0 = _kernel_draw(rng, 1)
            if h0 and f0:
                break
        g_text = poly_text(g, zp)
        pairs.append(
            (f"({poly_text(h0, zp)})*({g_text})", f"({poly_text(f0, zp)})*({g_text})")
        )
    rng.shuffle(pairs)
    lines = ["# irreducibility workload, seed %d" % seed, CONTEXTS[0]]
    lines += [f"check irreducibility_criterion(C, n({h}, {f}))" for h, f in pairs]
    return "\n".join(lines) + "\n", ["PASS"] * len(pairs)


# -- breadth --------------------------------------------------------------------

YZ = ("y", "z")
Z = ("z",)
FALSE_SHARE = 0.2  # share of expect-directives given a wrong expectation


class _Breadth:
    def __init__(self, seed: int):
        self.rng = random.Random(f"breadth:{seed}")
        self.defs: list[str] = []
        self.checks: list[tuple[str, str]] = []
        self.counter = 0

    def name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def define(self, kind: str, prefix: str, body: str) -> str:
        name = self.name(prefix)
        self.defs.append(f"{kind} {name} {body}")
        return name

    def falsify(self) -> bool:
        return self.rng.random() < FALSE_SHARE

    # random triangular derivations x -> a(y, z), y -> b(z), z -> c are
    # locally nilpotent, so exp/log round-trips and the group law hold.
    def triangular(self) -> str:
        rng = self.rng
        a = poly_text(_nonconstant(rng, YZ, 3, 3), YZ)
        b = poly_text(_random_poly(rng, Z, 2, 2), Z)
        c = rng.randint(-3, 3)
        return self.define("derivation", "D", f"{{ x -> {a}; y -> {b}; z -> {c} }}")

    def exp_log(self):
        self.checks.append((f"exp_log_roundtrip({self.triangular()})", "PASS"))

    def one_parameter(self):
        d = self.triangular()
        self.checks.append((f"one_parameter_group({d}, samples = 2)", "PASS"))

    def plinth(self):
        rng = self.rng
        if rng.random() < 0.5:
            # f(y, z) d/dx: kernel Q[y, z], plinth ideal (f), Q = x / lc(f)
            lead = (rng.randint(0, 2), rng.randint(0, 2))
            monic = _monic_leading(rng, lead, YZ, 2)
            scale = _rational(rng)
            f = {m: c * scale for m, c in monic.items()}
            d = self.define(
                "derivation", "T", f"{{ x -> {poly_text(f, YZ)}; y -> 0; z -> 0 }}"
            )
            gens, extra = "[y, z]", ", deg_max = 1"
        else:
            # s(z) D' with D' = delta(x*z + y^2): plinth generator z s(z)
            lead = (rng.randint(0, 2),)
            monic = _monic_leading(rng, lead, Z, 2)
            scale = _rational(rng)
            s = poly_text({m: c * scale for m, c in monic.items()}, Z)
            d = self.define(
                "derivation", "S", f"{{ x -> -2*y*({s}); y -> z*({s}); z -> 0 }}"
            )
            monic = {(m[0] + 1,): c for m, c in monic.items()}
            gens, extra = f"[z, {PLINTH_P}]", ""
        names = YZ if gens == "[y, z]" else Z
        verdict = "PASS"
        if self.falsify():
            monic = {(*m[:-1], m[-1] + 1): c for m, c in monic.items()}  # times z
            verdict = "FAIL"
        a = poly_text(monic, names)
        self.checks.append((f"plinth_expect({d}, gens = {gens}, a = {a}{extra})", verdict))

    def standard_decomposition(self):
        # u = (x + c m(y, z), y, z) = exp(c m d/dx) with m monic and non-constant:
        # the invariant factor is m and the irreducible part is (x + c, y, z).
        rng = self.rng
        lead = (rng.randint(0, 2), rng.randint(1, 2))
        if rng.random() < 0.5:
            lead = lead[::-1]
        m = _monic_leading(rng, lead, YZ, 3)
        c = _rational(rng)
        shift = poly_text({k: v * c for k, v in m.items()}, YZ)
        u = self.define("automorphism", "U", f"{{ x -> x + {shift}; y -> y; z -> z }}")
        up = self.define("automorphism", "V", f"{{ x -> x + {c}; y -> y; z -> z }}")
        expected, verdict = poly_text(m, YZ), "PASS"
        if self.falsify():
            expected, verdict = f"({expected})*(z + 1)", "FAIL"
        self.checks.append(
            (f"standard_decomposition_expect({u}, d = {expected}, uprime = {up})", verdict)
        )

    def sat(self):
        rng = self.rng
        dx = self.define("derivation", "F", "{ x -> 1; y -> 0; z -> 0 }")
        kind = rng.randrange(3)
        if kind == 0:
            # B = (al y + be z) d/dx and f = (ga y + de z)^k: [fF, B] = 0
            al, be = rng.randint(-5, 5), rng.randint(-5, 5)
            b = self.define("derivation", "B", f"{{ x -> {al}*y + {be}*z; y -> 0; z -> 0 }}")
            f = f"({_nonzero(rng)}*y + {rng.randint(-9, 9)}*z)^{rng.randint(0, 2)}"
            self.checks.append((f"sat_instance({b}, {dx}, {f})", "PASS"))
        elif kind == 1:
            # B = b(z, P) D', F = D', f = g(z, P): both kill z and P
            bz = poly_text(_kernel_draw(rng, 2), ("z", "(x*z + y^2)"))
            b = self.define(
                "derivation", "B", f"{{ x -> -2*y*({bz}); y -> z*({bz}); z -> 0 }}"
            )
            dp = self.define("derivation", "E", "{ x -> -2*y; y -> z; z -> 0 }")
            f = poly_text(_kernel_draw(rng, 2), ("z", "(x*z + y^2)"))
            if f == "0":
                f = "z"
            self.checks.append((f"sat_instance({b}, {dp}, {f})", "PASS"))
        else:
            # B = c d/dy and f depends on y: the obstruction B(f) != 0 is reported
            b = self.define("derivation", "B", f"{{ x -> 0; y -> {_nonzero(rng)}; z -> 0 }}")
            f = f"y*({poly_text(_nonconstant(rng, YZ, 2, 2), YZ)}) + {_nonzero(rng)}*y"
            self.checks.append((f"sat_instance({b}, {dx}, {f})", "PASS"))

    def divisor_symmetry(self):
        # a(z) = k * b(z - mu) with b(w) = w^e0 (w^(r n) + s w^r ...) has
        # centre mu, order r and k0 = e0 mod r; b = w^m is the torus case.
        rng = self.rng
        mu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        w = f"(z - {mu})" if mu >= 0 else f"(z + {-mu})"
        k = _nonzero(rng)
        if rng.random() < 0.2:
            m = rng.randint(2, 4)
            text, expect = f"{k}*{w}^{m}", f"mu = {mu}, order = torus"
            wrong = f"mu = {mu}, order = 2"
        else:
            r = rng.randint(2, 4)
            e0 = rng.randint(0, r - 1 if r > 2 else 2)
            exps = [e0, e0 + r] + ([e0 + 2 * r] if rng.random() < 0.4 else [])
            body = " + ".join(f"{_nonzero(rng)}*{w}^{e}" for e in exps)
            text = f"{k}*({body})"
            expect = f"mu = {mu}, order = {r}, k0 = {e0 % r}"
            wrong = f"mu = {mu}, order = {r + 1}, k0 = {e0 % r}"
        if self.falsify():
            self.checks.append((f"divisor_symmetry_expect({text}, {wrong})", "FAIL"))
        else:
            self.checks.append((f"divisor_symmetry_expect({text}, {expect})", "PASS"))

    def lift(self):
        # shears (y + s(z), z) preserve every fence a(z); (-y + s(z), -z)
        # preserves odd or even a; diagonal maps preserve y^i z^j.
        rng = self.rng
        kind = rng.randrange(3)
        if kind == 0:
            a = poly_text(_nonconstant(rng, Z, 4, 3), Z)
            s = poly_text(_random_poly(rng, Z, 3, 3), Z)
            g = self.define("planeaut", "G", f"{{ y -> y + {s}; z -> z }}")
        elif kind == 1:
            parity = rng.randint(0, 1)
            a = " + ".join(
                f"{_nonzero(rng)}*z^{e}" for e in range(parity + 2 * rng.randint(0, 1), 6, 2)
            )
            s = poly_text(_random_poly(rng, Z, 3, 3), Z)
            g = self.define("planeaut", "G", f"{{ y -> -y + {s}; z -> -z }}")
        else:
            a = f"y^{rng.randint(1, 2)}*z^{rng.randint(1, 3)}"
            g = self.define(
                "planeaut", "G", f"{{ y -> {_rational(rng)}*y; z -> {_rational(rng)}*z }}"
            )
        div = self.define("divisor", "A", f"= {a}")
        self.checks.append((f"lift_H({g}, {div})", "PASS"))

    def _diagonal_pair(self) -> tuple[str, str]:
        """A diagonal t = (al x, be y, ga z) and d = y^i z^j with t*(d) = al d,
        so t commutes with the d-modification of (x + 1, y, z)."""
        rng = self.rng
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        if i + j == 0:
            j = 1
        be = Fraction(_nonzero(rng, -3, 3), rng.randint(1, 2))
        ga = Fraction(_nonzero(rng, -3, 3), rng.randint(1, 2))
        al = be**i * ga**j
        t = self.define(
            "automorphism", "W", f"{{ x -> {al}*x; y -> {be}*y; z -> {ga}*z }}"
        )
        d = poly_text({(i, j): Fraction(1)}, YZ)
        return t, d

    def unit_translation(self) -> str:
        return self.define("automorphism", "X", "{ x -> x + 1; y -> y; z -> z }")

    def conjugation(self):
        rng = self.rng
        if rng.random() < 0.25:
            # g = u' = exp(D') with d = 1 and f = k(z, P) in the kernel
            u = self.define(
                "automorphism", "U", "{ x -> x - 2*y - z; y -> y + z; z -> z }"
            )
            f = poly_text(_kernel_draw(rng, 2), ("z", "(x*z + y^2)"))
            if f == "0":
                f = "z"
            self.checks.append((f"conjugation_formula({u}, {f}, {u}, 1)", "PASS"))
            return
        t, d = self._diagonal_pair()
        f = poly_text(_nonconstant(rng, YZ, 2, 3), YZ)
        self.checks.append((f"conjugation_formula({t}, {f}, {self.unit_translation()}, {d})", "PASS"))

    def nonfence(self):
        rng = self.rng
        t, d = self._diagonal_pair()
        f = poly_text(_nonconstant(rng, YZ, 2, 2), YZ)
        v = rng.choice(("y", "z", "y*z"))
        k = rng.randint(0, 2)
        x1 = self.unit_translation()
        self.checks.append((f"nonfence_commutator({x1}, {d}, {t}, {f}, {v}, k = {k})", "PASS"))

    def pres(self):
        # a' = c z^e with nu left to its default satisfies the law hypothesis;
        # candidate tori use powers of distinct primes, so only the trivial
        # torus can act trivially on the derived witnesses.
        rng = self.rng
        rank = rng.randint(1, 2)

        def vec():
            return "[" + ", ".join(str(_nonzero(rng, -3, 3)) for _ in range(rank)) + "]"

        law = self.define(
            "law",
            "L",
            f"{{ mu = {vec()}; rho1 = {vec()}; rho2 = {vec()}; "
            f"a' = {_nonzero(rng, 1, 5)}*z^{rng.randint(1, 2)} }}",
        )
        primes = (2, 3)
        cands = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                torus = ", ".join("1" for _ in range(rank))
            else:
                torus = ", ".join(
                    str(Fraction(primes[i]) ** rng.choice((-1, 1, 2))) for i in range(rank)
                )
            h = poly_text(_random_poly(rng, Z, 2, 2), Z)
            f = poly_text(_kernel_draw(rng, 2), ("z", "P"))
            cands.append(f"gelem({torus}; {h}; {f})")
        self.checks.append((f"pres_lemma({law}, {', '.join(cands)})", "PASS"))

    def fixed_scheme(self):
        rng = self.rng
        a = poly_text(_nonconstant(rng, Z, 3, 3), Z)
        div = self.define("divisor", "A", f"= {a}")
        mults = [poly_text(_nonconstant(rng, YZ, 2, 2), YZ) for _ in range(rng.randint(1, 3))]
        self.checks.append((f"fixed_scheme({div}, multipliers = [{', '.join(mults)}])", "PASS"))


# directive family -> count per breadth corpus (300 directives)
BREADTH_MIX = {
    "exp_log": 40,
    "one_parameter": 25,
    "plinth": 30,
    "standard_decomposition": 30,
    "sat": 30,
    "divisor_symmetry": 40,
    "lift": 25,
    "conjugation": 25,
    "nonfence": 20,
    "pres": 15,
    "fixed_scheme": 20,
}


def breadth(seed: int) -> tuple[str, list[str]]:
    """Many small directives of every kind not in the other two workloads;
    a share of the expect-directives carries a false expectation (FAIL)."""
    state = _Breadth(seed)
    families = [name for name, count in BREADTH_MIX.items() for _ in range(count)]
    state.rng.shuffle(families)
    for family in families:
        getattr(state, family)()
    lines = [f"# breadth workload, seed {seed}", *state.defs]
    lines += [f"check {text}" for text, _ in state.checks]
    return "\n".join(lines) + "\n", [verdict for _, verdict in state.checks]


def generate(workload: str, seed: int) -> tuple[str, list[str]]:
    return {"centralizer": centralizer, "irreducibility": irreducibility, "breadth": breadth}[
        workload
    ](seed)


if __name__ == "__main__":
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2]))[0])
