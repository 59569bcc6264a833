"""Span tracing of lnd's public functions, installed from outside the program.

`install()` wraps each traced function on every binding that refers to it:
modules import functions by name (for example `runner` holds its own
`compose` and `commutes`), so patching only the defining module would miss
those calls.  Spans are kept in memory with their parents as flat integer
records (name, parent, start_ns, end_ns, outermost) and written out once at
the end.  Self time is a span's duration minus its child spans; total time
counts only calls with no enclosing span of the same name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

# span name -> (module, attribute) of each traced function; "Class.method"
# attributes are patched on the class, which covers every caller.
SPANS = {
    "arith.mul": [("arith", "Poly.__mul__"), ("arith", "Poly.__rmul__")],
    "arith.add": [("arith", "Poly.__add__"), ("arith", "Poly.__sub__")],
    "arith.substitute": [("arith", "_Substitution.apply")],
    "arith.gcd": [("arith", "gcd_multivariate"), ("arith", "gcd_many")],
    "arith.divide_exact": [("arith", "divide_exact")],
    "corpus.parse": [("corpus", "parse")],
    "syntax.eval_expr": [("syntax", "eval_expr")],
    "linalg.rref": [("linalg", "rref")],
    "derivations.apply": [("derivations", "apply")],
    "derivations.exponential": [("derivations", "exponential")],
    "derivations.logarithm": [("derivations", "logarithm")],
    "derivations.is_irreducible": [("derivations", "is_irreducible")],
    "derivations.plinth_search": [("derivations", "plinth_search")],
    "derivations.standard_decomposition": [("derivations", "standard_decomposition")],
    "automorphisms.compose": [("automorphisms", "compose")],
    "automorphisms.commutes": [("automorphisms", "commutes")],
    "automorphisms.inverse": [("automorphisms", "inverse")],
    "delta_family.make_context": [("delta_family", "make_context")],
    "delta_family.n_to_aut": [("delta_family", "n_to_aut")],
    "delta_family.aut_to_n": [("delta_family", "aut_to_n")],
    "delta_family.compose_with_family": [("delta_family", "compose_with_family")],
    "delta_family.exp_m_decompose": [("delta_family", "exp_m_decompose")],
    "delta_family.irreducibility_criterion_check": [
        ("delta_family", "irreducibility_criterion_check")
    ],
    "groupmodel.char_commutator_check": [("groupmodel", "char_commutator_check")],
    "groupmodel.verify_pres_lemma": [("groupmodel", "verify_pres_lemma")],
    "quotient_geometry.affine_symmetries": [("quotient_geometry", "affine_symmetries")],
    "quotient_geometry.lift_to_H": [("quotient_geometry", "lift_to_H")],
    "quotient_geometry.fixed_scheme_check": [("quotient_geometry", "fixed_scheme_check")],
}
# The span around each directive dispatch, installed by the worker.
DIRECTIVE_SPAN = "runner.directives"
COUNTS = ("arith.mul.term_pairs", "arith.mul.coeff_bits_max", "arith.peak_terms", "corpus.tokens")

FIELDS = 5  # name, parent, start_ns, end_ns, outermost


def _coeff_bits(poly) -> int:
    best = 0
    for c in poly.terms.values():
        if isinstance(c, Fraction):
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        else:
            bits = c.bit_length()
        if bits > best:
            best = bits
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.active.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        records, stack, active = self.records, self.stack, self.active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(records) // FIELDS
            outermost = active[nid] == 0
            records.extend((nid, stack[-1] if stack else -1, clock(), 0, outermost))
            stack.append(index)
            active[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                records[index * FIELDS + 3] = clock()
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # work counters, updated after the traced call returns --------------------

    def _after_mul(self, args, result):
        if result is NotImplemented:
            return
        counts = self.counts
        if isinstance(args[1], type(result)):
            counts["arith.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        bits = _coeff_bits(result)
        if bits > counts["arith.mul.coeff_bits_max"]:
            counts["arith.mul.coeff_bits_max"] = bits
        self._after_poly(args, result)

    def _after_poly(self, args, result):
        if len(result.terms) > self.counts["arith.peak_terms"]:
            self.counts["arith.peak_terms"] = len(result.terms)

    def _after_tokenize(self, args, result):
        self.counts["corpus.tokens"] += len(result)

    def install(self) -> None:
        """Wrap every traced function on every lnd binding that refers to it."""
        for name in ("lnd", "lnd.corpus", "lnd.runner", "lnd.cli"):
            importlib.import_module(name)
        modules = [m for n, m in sys.modules.items() if n == "lnd" or n.startswith("lnd.")]
        after = {
            "arith.mul": self._after_mul,
            "arith.add": self._after_poly,
            "arith.substitute": self._after_poly,
        }
        targets = [(name, mod, attr) for name, spots in SPANS.items() for mod, attr in spots]
        targets.append(("", "syntax", "tokenize"))
        for name, mod, attr in targets:
            owner = sys.modules[f"lnd.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], after.get(name)))
                continue
            original = getattr(owner, attr)
            if name:
                wrapped = self.wrap(name, original, after.get(name))
            else:
                wrapped = _counting(original, self._after_tokenize)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # results ------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span: calls, self_s and total_s; plus the directive spans' total."""
        rec = self.records
        n = len(rec) // FIELDS
        child = [0] * n
        for i in range(n):
            parent = rec[i * FIELDS + 1]
            if parent >= 0:
                child[parent] += rec[i * FIELDS + 3] - rec[i * FIELDS + 2]
        stats = {name: [0, 0, 0] for name in self.names}
        directive_id = self._name_id(DIRECTIVE_SPAN)
        directive_total = 0
        for i in range(n):
            nid, parent, start, end, outer = rec[i * FIELDS : i * FIELDS + FIELDS]
            dur = end - start
            entry = stats[self.names[nid]]
            entry[0] += 1
            entry[1] += dur - child[i]
            if outer:
                entry[2] += dur
            if nid == directive_id and parent < 0:
                directive_total += dur
        out = {}
        for name, (calls, self_ns, total_ns) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.total_s"] = total_ns / 1e9
        out.update(self.counts)
        return {"metrics": out, "spans": n, "directive_total_s": directive_total / 1e9}

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw int64 records."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns", "outermost"]}
            handle.write(json.dumps(header).encode() + b"\n")
            self.records.tofile(handle)


def _counting(fn, after):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return counted


def span_names() -> list[str]:
    return [*SPANS, DIRECTIVE_SPAN]
