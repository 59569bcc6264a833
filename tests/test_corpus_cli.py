import inspect
import random
import time
from pathlib import Path

import pytest

from lnd import cli, corpus, derivations, runner
from lnd.arith import ALLOWANCE, XYZ
from lnd.errors import ParseError
from lnd.syntax import ExprParser, eval_expr, parse_poly, tokenize

CORPORA = sorted((Path(__file__).resolve().parent.parent / "corpora").glob("*.corpus"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_shipped_corpora_exist():
    names = {p.name for p in CORPORA}
    assert "freudenburg_family.corpus" in names
    assert len(CORPORA) >= 3


def test_parse_simple_definitions():
    case = corpus.parse(
        "poly Q = x*z + y^2\n"
        "derivation D { x -> -2*y; y -> z; z -> 0 }\n"
        "check exp_log_roundtrip(D)\n"
    )
    assert [d.kind for d in case.definitions] == ["poly", "derivation"]
    assert case.directives[0].name == "exp_log_roundtrip"


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("poly = 3", "expected a name"),
        ("poly Q = x +", "expected an expression"),
        ("poly Q = w", "unknown variable"),
        ("poly Q = 1\npoly Q = 2", "redefinition"),
        ("check exp_log_roundtrip(D)", "undefined name"),
        ("derivation D { x -> 1; y -> 0 }", "expected"),
        ("poly Q = 5/0", "zero denominator"),
        ("law L { mu = [1] }", "law needs"),
        ("poly Q = (x + y)^2000", "too large"),
        ("poly Q = 7^2000", "too large"),
        ("poly Q = (2*x)^2000", "too large"),
        ("poly Q = x^\u00b2", "expected a non-negative integer exponent"),
        ("poly Q = \u00b2", "unknown variable '\u00b2'"),
        ("unipoly z = z^2 - 1", "'z' is reserved"),
        ("poly P = x*z + y^2", "'P' is reserved"),
        ("divisor G = z\ncheck divisor_symmetry_expect(G*z)", "'G' names a definition"),
        ("check divisor_symmetry_expect(z, k0 = 0, k0 = 1)", "keyword argument 'k0' repeated"),
        ("derivation D { x -> -2*y; y -> z; z -> 0 }\ncheck plinth_expect(D, gens = [z, P])",
         "2:35: unknown variable 'P' in a list item (x, y, z)"),
    ],
)
def test_positioned_diagnostics(source, fragment):
    with pytest.raises(ParseError) as err:
        corpus.parse(source)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("check bogus(1)", "unknown directive"),
        ("poly lift_H = z", "'lift_H' is reserved"),
    ],
)
def test_bind_step_positioned_diagnostics(source, fragment):
    case = corpus.parse(source)
    with pytest.raises(ParseError) as err:
        runner.bind(case)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


def test_unknown_directive_stops_parse_and_check(tmp_path, capsys):
    target = tmp_path / "bogus.corpus"
    target.write_text("poly q = z\ncheck bogus(q)\n")
    for command in ("parse", "check"):
        assert cli.main([command, str(target)]) == 2
        assert capsys.readouterr().out == f"error: {target}:2:7: unknown directive 'bogus'\n"


def test_tokenize_fixed_text():
    from lnd.syntax import tokenize

    text = "law L {\ta' = 12*z^3 # note -> here\r\n\ty -> 007;}\n# end"
    assert [tuple(tok) for tok in tokenize(text)] == [
        ("ident", "law", 1, 1), ("ident", "L", 1, 5), ("sym", "{", 1, 7),
        ("ident", "a'", 1, 9), ("sym", "=", 1, 12), ("num", "12", 1, 14),
        ("sym", "*", 1, 16), ("ident", "z", 1, 17), ("sym", "^", 1, 18),
        ("num", "3", 1, 19), ("ident", "y", 2, 2), ("sym", "->", 2, 4),
        ("num", "007", 2, 7), ("sym", ";", 2, 10), ("sym", "}", 2, 11),
        ("eof", "", 3, 1),
    ]


def _with_printed_directives(source):
    """The parsed source and, parsed after it, a copy of each directive
    written back as `check <directive_text>`."""
    case = corpus.parse(source)
    checks = "".join(f"check {corpus.directive_text(d)}\n" for d in case.directives)
    copies = corpus.parse(f"{source}\n{checks}").directives[len(case.directives):]
    return case.directives, copies


def test_print_parse_idempotent_on_shipped():
    for path in CORPORA:
        originals, copies = _with_printed_directives(path.read_text())
        printed = [corpus.directive_text(d) for d in originals]
        assert [corpus.directive_text(d) for d in copies] == printed, path.name


def _expr_leaves(value):
    """Every expression AST inside a directive argument value."""
    if isinstance(value, corpus.ExprValue):
        yield value.ast
    elif isinstance(value, corpus.ListValue):
        for item in value.items:
            yield item.ast
    elif isinstance(value, (corpus.NElemValue, corpus.GElemValue)):
        yield value.h.ast
        yield value.f.ast


def _argument_values(directives):
    """Each expression argument of each directive, evaluated over (x, y, z, P)."""
    from lnd.syntax import eval_expr

    return [
        eval_expr(node, ("x", "y", "z", "P"))
        for directive in directives
        for arg in directive.args
        for node in _expr_leaves(arg.value)
    ]


# The hand cases parse after this prelude, which defines the names they use.
_PRELUDE = "context C { P = x*z + y^2 }\nderivation D { x -> 1; y -> 0; z -> 0 }\n"
_HAND_ARGUMENTS = [
    "divisor_symmetry_expect(z*(2*z^2 - 3))",
    "divisor_symmetry_expect(-(z + 1)*z - (z - (3 - z)))",
    "divisor_symmetry_expect(2/3*(z + 1)^3*(z - 1), mu = 1/2*(1 - 3))",
    "irreducibility_criterion(C, pair = n(z*(z + 1), P*-(P - z)))",
    "plinth_expect(D, gens = [x*(y - z), (x + y)*(y + z)^2])",
]


@pytest.mark.parametrize(
    "source",
    [path.read_text() for path in CORPORA]
    + [f"{_PRELUDE}check {text}\n" for text in _HAND_ARGUMENTS],
    ids=[path.stem for path in CORPORA] + _HAND_ARGUMENTS,
)
def test_printing_preserves_argument_values(source):
    originals, copies = _with_printed_directives(source)
    assert _argument_values(copies) == _argument_values(originals)


def test_empty_corpus_runs_empty_report():
    report = runner.run(corpus.parse(""))
    assert report.entries == ()
    assert runner.format_report(report) == "summary: 0/0/0\n"


def test_run_captures_directive_errors():
    case = corpus.parse(
        "derivation E { x -> x; y -> 0; z -> 0 }\n"  # not locally nilpotent
        "check exp_log_roundtrip(E)\n"
        "check one_parameter_group(E, samples = 2)\n"
    )
    report = runner.run(case)
    assert [e.verdict for e in report.entries] == ["ERROR", "ERROR"]
    assert not report.ok


BINDING_DEFINITIONS = (
    "derivation D { x -> -2*y; y -> z; z -> 0 }\n"
    "automorphism U { x -> x - 2*y - z; y -> y + z; z -> z }\n"
    "context C { P = x*z + y^2; d = 1; deg_max = 3 }\n"
)


@pytest.mark.parametrize(
    "directive, detail",
    [
        ("one_parameter_group(D, sample = 2)", "got an unexpected keyword argument 'sample'"),
        ("admissible_complement(C, C, bogus = 7)", "too many positional arguments"),
        ("admissible_complement(C, bogus = 7)", "got an unexpected keyword argument 'bogus'"),
        ("exp_log_roundtrip(D, D, D)", "too many positional arguments"),
        ("conjugation_formula(U)", "missing a required argument: 'f'"),
        (
            "irreducibility_criterion(C, n(z, P), pair = n(1, P))",
            "multiple values for argument 'pair'",
        ),
        ("admissible_complement(C, samples = 3)", "got an unexpected keyword argument 'samples'"),
        ("char_commutator(C, f = P, samples = 3)", "f is given without h"),
    ],
)
def test_arguments_that_do_not_bind_are_error_lines(directive, detail):
    case = corpus.parse(BINDING_DEFINITIONS + f"check {directive}\n")
    (entry,) = runner.run(case).entries
    assert (entry.verdict, entry.detail) == ("ERROR", detail)


def test_a_type_error_inside_a_handler_propagates(monkeypatch):
    def broken(u):
        raise TypeError("inside the handler")

    monkeypatch.setattr(runner, "standard_decomposition", broken)
    case = corpus.parse(BINDING_DEFINITIONS + "check standard_decomposition_expect(U, d = 1)\n")
    with pytest.raises(TypeError, match="inside the handler"):
        runner.run(case)


def test_budget_zero_is_an_error_on_randomized_directives_only(tmp_path, capsys):
    target = tmp_path / "budget.corpus"
    target.write_text(
        BINDING_DEFINITIONS + "check one_parameter_group(D, samples = 2)\n"
        "check ad_identity(C)\n"
        "check irreducibility_criterion(C)\n"
        "check irreducibility_criterion(C, n(z, P))\n"
        "check admissible_complement(C)\n"
        "check exp_log_roundtrip(D)\n"
    )
    assert cli.main(["check", str(target), "--budget", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines[:-1]] == ["ERROR"] * 3 + ["PASS"] * 3
    assert all(line.endswith("samples must lie in [1, 10000]") for line in lines[:3])


# The fault classes a corpus can show before anything runs: (directive, its
# column on line 4, the `lnd parse` message, the `lnd check` ERROR detail
# where it is not that message).
STATIC_FAULTS = [
    ("conjugation_formula(U)", 7, "missing a required argument: 'f'", None),
    (
        "one_parameter_group(D, sample = 2)",
        30,
        "got an unexpected keyword argument 'sample'",
        None,
    ),
    ("exp_log_roundtrip(D, D, D)", 28, "too many positional arguments", None),
    (
        "irreducibility_criterion(C, n(z, P), pair = n(1, P))",
        44,
        "multiple values for argument 'pair'",
        None,
    ),
    ("exp_log_roundtrip(C)", 25, "'C' is a context, expected derivation or automorphism", None),
    ("irreducibility_criterion(C, pair = [z])", 35, "expected an n(h, f) literal", None),
    (
        "divisor_symmetry_expect(y + z)",
        31,
        "unknown variable 'y' (ring has z)",
        "4:31: unknown variable 'y' (ring has z)",
    ),
    ("char_commutator(C, f = P, samples = 3)", 26, "f is given without h", None),
]


@pytest.mark.parametrize(
    "directive, col, message, detail", STATIC_FAULTS, ids=[f[0] for f in STATIC_FAULTS]
)
def test_parse_reports_each_static_fault_where_it_is(
    tmp_path, capsys, directive, col, message, detail
):
    target = tmp_path / "fault.corpus"
    target.write_text(BINDING_DEFINITIONS + f"check {directive}\n")
    assert cli.main(["parse", str(target)]) == 1
    assert capsys.readouterr().out == f"error: {target}:4:{col}: {message}\n"
    assert cli.main(["check", str(target)]) == 1
    expected = f"ERROR {directive} — {detail or message}\nsummary: 0/0/1\n"
    assert capsys.readouterr().out == expected


def test_parse_reports_every_fault_and_check_runs_the_rest(tmp_path, capsys):
    target = tmp_path / "faults.corpus"
    target.write_text(
        "poly p = x + 1\n"
        "automorphism U { x -> x - 2*y - z; y -> y + z; z -> z }\n"
        "automorphism W = compose(U, p)\n"
        "check exp_log_roundtrip(p)\n"
        "check exp_log_roundtrip(U)\n"
        "check divisor_symmetry_expect(y + z)\n"
    )
    assert cli.main(["parse", str(target)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: {target}:3:29: 'p' is a poly, expected automorphism",
        f"error: {target}:4:25: 'p' is a poly, expected derivation or automorphism",
        f"error: {target}:6:31: unknown variable 'y' (ring has z)",
    ]
    assert cli.main(["check", str(target)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ERROR automorphism W — 'p' is a poly, expected automorphism",
        "ERROR exp_log_roundtrip(p) — 'p' is a poly, expected derivation or automorphism",
        "PASS exp_log_roundtrip(U) — exp(log(U)) = U exactly",
        "ERROR divisor_symmetry_expect(y + z) — 6:31: unknown variable 'y' (ring has z)",
        "summary: 1/0/3",
    ]


_MODES = {
    inspect.Parameter.POSITIONAL_ONLY: "/",
    inspect.Parameter.POSITIONAL_OR_KEYWORD: "",
    inspect.Parameter.KEYWORD_ONLY: "*",
    inspect.Parameter.VAR_POSITIONAL: "*args",
}


def test_the_schema_is_each_handler_signature():
    assert list(runner._HANDLERS) == list(runner._SCHEMA)
    for name, (run, params) in runner._SCHEMA.items():
        assert run.__name__ == f"_run_{name}"
        env, rng, *rest = inspect.signature(run).parameters.values()
        assert [(env.name, env.kind), (rng.name, rng.kind)] == [
            ("env", inspect.Parameter.POSITIONAL_ONLY),
            ("rng", inspect.Parameter.POSITIONAL_ONLY),
        ], name
        assert params == tuple(
            runner._Param(
                p.name,
                _MODES[p.kind],
                p.annotation,
                p.default is p.empty and p.kind != p.VAR_POSITIONAL,
            )
            for p in rest
        ), name
        assert all(isinstance(p.accepts, runner._Accepts) for p in params), name
        assert all(p.accepts.requires in (None, *(q.name for q in params)) for p in params)


def test_the_bind_step_binds_as_python_binds_the_handler(monkeypatch):
    monkeypatch.setattr(runner, "_check", lambda *args: None)
    rng = random.Random(28)
    for name, (run, params) in runner._SCHEMA.items():
        signature = inspect.signature(run)
        keys = [p.name for p in params] + ["bogus", "env"]
        for _ in range(300):
            count = rng.randint(0, len(params) + 1)
            given = rng.sample(keys, rng.randint(0, 3))
            args = [corpus.Arg(None, i, 1, i + 1) for i in range(count)]
            args += [corpus.Arg(key, key, 2, 1) for key in given]
            directive = corpus.Directive(name, tuple(args), 1, 1)
            try:
                expected = signature.bind("env", "rng", *range(count), **{k: k for k in given})
            except TypeError as mismatch:
                with pytest.raises(runner.DirectiveError) as err:
                    runner._bind(params, directive, {})
                assert err.value.message == str(mismatch), (name, count, given)
                continue
            pairs = runner._bind(params, directive, {})
            bound = {}
            for param, arg in pairs:
                bound.setdefault(param.name, []).append(arg.value)
            del expected.arguments["env"], expected.arguments["rng"]
            assert bound == {
                key: list(value) if isinstance(value, tuple) else [value]
                for key, value in expected.arguments.items()
            }, (name, count, given)


def _benchmark_corpora():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [
        (f"{workload}_{seed}", gen.generate(workload, seed)[0])
        for workload in ("breadth", "irreducibility", "centralizer")
        for seed in (1, 4, 9)
    ]


def test_parse_accepts_every_shipped_golden_and_benchmark_corpus(tmp_path, capsys):
    texts = [(path.stem, path.read_text()) for path in GOLDEN_CORPORA] + _benchmark_corpora()
    for name, text in texts:
        case = corpus.parse(text)
        target = tmp_path / f"{name}.corpus"
        target.write_text(text)
        assert cli.main(["parse", str(target)]) == 0, name
        assert capsys.readouterr().out == (
            f"ok: {len(case.definitions)} definitions, {len(case.directives)} directives\n"
        ), name


def test_exponent_guard_covers_directive_arguments():
    case = corpus.parse("check divisor_symmetry_expect((z+1)^3000)\n")
    start = time.perf_counter()
    report = runner.run(case)
    assert time.perf_counter() - start < 5.0
    (entry,) = report.entries
    assert entry.verdict == "ERROR"
    assert "too large" in entry.detail


def test_directive_argument_budget_trips_as_an_error_line():
    text = (
        "context C { P = x*z + y^2; d = 1; deg_max = 3 }\n"
        "check irreducibility_criterion(C, n(z, (z + P + 1)^300))\n"
    )
    case = corpus.parse(text)
    start = time.perf_counter()
    report = runner.run(case)
    # About 0.4 s; the power alone would spend 109,614,756 term pairs.
    assert time.perf_counter() - start < 6.0
    (entry,) = report.entries
    assert (entry.verdict, entry.detail) == (
        "ERROR",
        f"argument exceeds the parse-time budget of {corpus.PARSE_WORK_BUDGET} term pairs",
    )



def test_multi_term_power_charged_by_its_coefficient_norm():
    # The numerator 1-norm 7^99 + 1 (278 bits) bounds every coefficient of
    # the 300th power: 1,304^2 = 1,700,416 term pairs are charged before the
    # power runs (it ran 6.4 s with no error when only products were charged).
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        corpus.parse("poly Q = (7^99*x + 1)^300\n")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.col) == (1, 10)
    assert err.value.message == (
        f"expression exceeds the parse-time budget of {corpus.PARSE_WORK_BUDGET} term pairs"
    )


def test_multi_term_power_norm_charge_of_an_honest_power():
    # (x + y + z + 1)^30: 1-norm 4, so (30 * 3 // 64 + 1)^2 = 4 pairs on top
    # of the products that the power itself charges.
    base = parse_poly("x + y + z + 1", XYZ)
    node = ExprParser(tokenize("(x + y + z + 1)^30")).parse_expr()
    values, spent = [], []
    for build in (lambda: base**30, lambda: eval_expr(node, XYZ)):
        allowance = [corpus.PARSE_WORK_BUDGET]
        token = ALLOWANCE.set(allowance)
        try:
            values.append(build())
        finally:
            ALLOWANCE.reset(token)
        spent.append(corpus.PARSE_WORK_BUDGET - allowance[0])
    assert spent == [701_696, 701_700]
    assert values[0] == values[1]


def test_named_polynomials_as_keyword_arguments():
    case = corpus.parse(
        "context C { P = x*z + y^2; d = 1; deg_max = 3 }\n"
        "unipoly a = z^2 + 1\n"
        "check char_commutator(C, h = a)\n"
        "check divisor_symmetry_expect(z^2, mu = a)\n"
    )
    report = runner.run(case)
    assert [e.verdict for e in report.entries] == ["PASS", "ERROR"]
    assert report.entries[1].detail == "cannot move 'z'-term into ring ()"

def test_exp_log_roundtrip_certifies_once(monkeypatch):
    # On a derivation, back == D is the certificate; only an automorphism's
    # logarithm re-exponentiates to certify itself.
    calls = []
    exponential = derivations.exponential
    monkeypatch.setattr(
        derivations, "exponential", lambda d: calls.append(d) or exponential(d)
    )
    case = corpus.parse(
        "derivation D { x -> -2*y; y -> z; z -> 0 }\n"
        "automorphism U { x -> x - 2*y - z; y -> y + z; z -> z }\n"
        "check exp_log_roundtrip(D)\n"
        "check exp_log_roundtrip(U)\n"
    )
    report = runner.run(case)
    assert [e.verdict for e in report.entries] == ["PASS", "PASS"]
    assert len(calls) == 1

def test_run_captures_definition_errors():
    case = corpus.parse(
        "context BAD { P = x^2 + y^2; d = 1; deg_max = 3 }\n"
        "check admissible_complement(BAD)\n"
    )
    report = runner.run(case)
    assert report.entries[0].verdict == "ERROR"
    assert report.entries[1].verdict == "ERROR"


def test_expected_failure_reports_witness():
    case = corpus.parse(
        "derivation D { x -> -2*y; y -> z; z -> 0 }\n"
        "check plinth_expect(D, gens = [z, x*z + y^2], a = 1)\n"
    )
    report = runner.run(case)
    entry = report.entries[0]
    assert entry.verdict == "FAIL"
    assert "got a = z" in entry.detail


def test_determinism_same_seed():
    text = CORPORA[0].read_text()
    case = corpus.parse(text)
    first = runner.format_report(runner.run(case, seed=7, budget=5))
    second = runner.format_report(runner.run(corpus.parse(text), seed=7, budget=5))
    assert first == second


def test_summary_counts():
    case = corpus.parse(
        "derivation D { x -> 1; y -> 0; z -> 0 }\n"
        "check exp_log_roundtrip(D)\n"
        "check plinth_expect(D, gens = [y, z], a = z, deg_max = 1)\n"
    )
    report = runner.run(case)
    assert report.counts == (1, 1, 0)
    text = runner.format_report(report)
    assert text.endswith("summary: 1/1/0\n")


def test_cli_check_and_parse(tmp_path, capsys):
    target = tmp_path / "case.corpus"
    target.write_text(
        "derivation D { x -> 1; y -> 0; z -> 0 }\ncheck exp_log_roundtrip(D)\n"
    )
    assert cli.main(["parse", str(target)]) == 0
    assert cli.main(["check", str(target)]) == 0
    out = capsys.readouterr().out
    assert "PASS exp_log_roundtrip(D)" in out
    assert "summary: 1/0/0" in out


def test_cli_reports_parse_errors_with_position(tmp_path, capsys):
    target = tmp_path / "bad.corpus"
    target.write_text("poly Q = $\n")
    assert cli.main(["parse", str(target)]) == 2
    out = capsys.readouterr().out
    assert ":1:10:" in out


_LONG = "7" * 5000  # past the interpreter's 4300-digit int conversion limit


@pytest.mark.parametrize(
    "source, position",
    [
        (f"poly q = {_LONG}\n", ":1:10:"),
        (f"poly q = x + 1/{_LONG}\n", ":1:16:"),
        (f"poly q = y^{_LONG}\n", ":1:12:"),
        (f"law L {{ mu = [-{_LONG}]; rho1 = [1]; rho2 = [2]; a' = z }}\n", ":1:16:"),
        (
            "law L { mu = [-2]; rho1 = [1]; rho2 = [2]; a' = z }\n"
            f"check pres_lemma(L, gelem(1/{_LONG}; 0; 0))\n",
            ":2:29:",
        ),
    ],
    ids=["numerator", "denominator", "exponent", "law_integer", "gelem_denominator"],
)
def test_cli_oversized_literal_is_positioned_parse_error(tmp_path, capsys, source, position):
    target = tmp_path / "long.corpus"
    target.write_text(source)
    for command in ("parse", "check"):
        assert cli.main([command, str(target)]) == 2
        out = capsys.readouterr().out
        assert f"{position} integer literal too long (5000 digits)" in out


@pytest.mark.parametrize(
    "expr, position",
    [
        ("(" * 3000 + "x" + ")" * 3000, ":1:110:"),
        ("-" * 3000 + "x", ":1:110:"),
        ("x" + "^1" * 3000, ":1:211:"),
    ],
    ids=["parens", "minus", "power"],
)
def test_cli_deep_expression_is_positioned_parse_error(tmp_path, capsys, expr, position):
    target = tmp_path / "deep.corpus"
    target.write_text(f"poly q = {expr}\n")
    for command in ("parse", "check"):
        assert cli.main([command, str(target)]) == 2
        out = capsys.readouterr().out
        assert f"{position} expression nested deeper than 100 levels" in out


def test_cli_long_flat_expressions(tmp_path, capsys):
    """Sums and products of 3,000 operands evaluate and print without recursion."""
    x_sum, x_product = " + ".join(["x"] * 3000), "*".join(["x"] * 3000)
    z_sum, z_difference = " + ".join(["z"] * 3000), " - ".join(["z"] * 3000)
    target = tmp_path / "long.corpus"
    target.write_text(
        f"derivation D {{ x -> 0; y -> {x_sum}; z -> {x_product} }}\n"
        f"poly q = {z_difference}\n"
        "check exp_log_roundtrip(D)\n"
        f"check divisor_symmetry_expect({z_sum})\n"
    )
    assert cli.main(["report", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"PASS divisor_symmetry_expect({z_sum})" in out
    assert out.endswith("summary: 2/0/0\n")


@pytest.mark.parametrize(
    "opener, closer", [("(", ")"), ("-", ""), ("", "^1")], ids=["parens", "minus", "power"]
)
def test_nesting_bound_is_exact(opener, closer):
    from lnd.syntax import MAX_NESTING, parse_poly

    ring = ("x", "y", "z")
    x = parse_poly("x", ring)
    deep = opener * MAX_NESTING + "x" + closer * MAX_NESTING
    assert parse_poly(deep, ring) in (x, -x)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_poly(opener + deep + closer, ring)


def _shape(node):
    """An expression tree without source positions."""
    from lnd import syntax

    if isinstance(node, syntax.Var):
        return ("var", node.name)
    if isinstance(node, syntax.Num):
        return ("num", node.value)
    if isinstance(node, syntax.Neg):
        return ("neg", _shape(node.operand))
    if isinstance(node, syntax.Pow):
        return ("pow", _shape(node.base), node.exponent)
    if isinstance(node, syntax.Sum):
        return ("sum", tuple(map(_shape, node.operands)), node.signs)
    return ("product", tuple(map(_shape, node.operands)))


def _random_expr_text(rng, room, budget):
    """Random text of the expression grammar whose '(', unary '-' and '^'
    nest at most `room` deep; `budget` caps the number of atoms."""

    def factor(room):
        if room and rng.random() < 0.35:
            return "-" + factor(room - 1)
        used = 0
        if budget[0] <= 0 or rng.random() < 0.3:
            budget[0] -= 1
            text = rng.choice(["x", "y", "z", "3", "2/5", "0"])
        else:
            used = 1 if room else 0
            text = f"({expr(room - 1)})" if room else rng.choice(["x", "1"])
        for _ in range(rng.choice([0, 0, 1, 2])):
            if used < room:
                used += 1
                text += f"^{rng.randint(0, 3)}"
        return text

    def term(room):
        return "*".join(factor(room) for _ in range(rng.choice([1, 1, 2, 3])))

    def expr(room):
        text = term(room)
        for _ in range(rng.choice([0, 0, 1, 2])):
            text += rng.choice([" + ", " - "]) + term(room)
        return text

    return expr(room)


def test_printing_reproduces_the_parsed_tree():
    from lnd.syntax import MAX_NESTING, ExprParser, expr_to_str, tokenize

    def tree(text):
        return ExprParser(tokenize(text)).parse_expr()

    rng = random.Random(2024)
    for room in [MAX_NESTING] * 150 + [rng.randint(0, 20) for _ in range(150)]:
        t = tree(_random_expr_text(rng, room, [rng.choice([3, 20, 60])]))
        assert _shape(tree(expr_to_str(t))) == _shape(t), expr_to_str(t)
    # No parentheses beyond the grammar's, except around a negated factor,
    # and those only while they fit within MAX_NESTING; products and leading
    # sums in parentheses are spliced by the parser.
    cases = {
        "--x": "--x",
        "x^2^3": "x^2^3",
        "-(-x*y)": "-((-x)*y)",
        "(a - b) + c - (d - e)": "a - b + c - (d - e)",
        "(a*b)*(c*(-d*e))": "a*b*c*(-d)*e",
        "x*-y": "x*(-y)",
        "-7*z^2 + 13": "(-7)*z^2 + 13",
        "(-x)^2^3": "(-x)^2^3",
        "x + (" * 99 + "-7*z + 1" + ")" * 99: "x + (" * 99 + "-7*z + 1" + ")" * 99,
        "x + (" * 98 + "-7*z + 1" + ")" * 98: "x + (" * 98 + "(-7)*z + 1" + ")" * 98,
        "-" * MAX_NESTING + "x": "-" * MAX_NESTING + "x",
        # '^' after a parenthesized base nests one level below the group
        "x + (" * 97 + "-(x + 1)^2*z + 1" + ")" * 97: "x + (" * 97 + "-(x + 1)^2*z + 1" + ")" * 97,
        "x + (" * 96 + "-(x + 1)^2*z + 1" + ")" * 96: "x + (" * 96 + "(-(x + 1)^2)*z + 1" + ")" * 96,
    }
    for text, printed in cases.items():
        assert expr_to_str(tree(text)) == printed


def test_cli_exit_code_on_failure(tmp_path):
    target = tmp_path / "fail.corpus"
    target.write_text(
        "derivation D { x -> -2*y; y -> z; z -> 0 }\n"
        "check plinth_expect(D, gens = [z, x*z + y^2], a = 1)\n"
    )
    assert cli.main(["check", str(target)]) == 1


def test_fuzz_mutations_do_not_crash():
    rng = random.Random(2024)
    base_texts = [p.read_text() for p in CORPORA]
    alphabet = "abcxyzPQ0123456789+-*/^(){}[];=,.#'\"\\ \n\t->"
    survived = 0
    for i in range(150):
        text = base_texts[i % len(base_texts)]
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = rng.choice(alphabet)
            elif op == 1:
                chars.insert(pos, rng.choice(alphabet))
            else:
                del chars[pos]
        mutated = "".join(chars)
        try:
            case = corpus.parse(mutated)
            runner.bind(case)  # an unknown directive is a ParseError here
        except ParseError as err:
            assert err.line >= 1 and err.col >= 1
            continue
        survived += 1
        if survived <= 5:
            report = runner.run(case, seed=1, budget=2, deg_max_cap=5)
            assert all(e.verdict in ("PASS", "FAIL", "ERROR") for e in report.entries)


def test_unipoly_definition_and_use():
    case = corpus.parse(
        "unipoly a = z^2 + 1\n"
        "derivation T { x -> z^2 + 1; y -> 0; z -> 0 }\n"
        "automorphism U { x -> x + z^2 + 1; y -> y; z -> z }\n"
        "check standard_decomposition_expect(U, d = a)\n"
    )
    report = runner.run(case)
    assert report.entries[0].verdict == "PASS"


def test_cli_report_mode_prints_witness_lines(tmp_path, capsys):
    target = tmp_path / "case.corpus"
    target.write_text(
        "derivation D { x -> -2*y; y -> z; z -> 0 }\n"
        "check plinth_expect(D, gens = [z, x*z + y^2], a = z)\n"
    )
    assert cli.main(["report", str(target)]) == 0
    out = capsys.readouterr().out
    assert "PASS plinth_expect" in out
    assert "\n  d(Q) = z" in out


def test_divisor_symmetry_fail_paths():
    case = corpus.parse(
        "check divisor_symmetry_expect(z^3 - z, order = 3)\n"
        "check divisor_symmetry_expect(z^2, order = 2)\n"
        "check divisor_symmetry_expect(z^3 - z, mu = 1)\n"
    )
    report = runner.run(case)
    assert [e.verdict for e in report.entries] == ["FAIL", "FAIL", "FAIL"]


def test_divisor_symmetry_order_is_read_off_the_support():
    # the order is the gcd of the support differences, so a large order
    # needs no reduction modulo a cyclotomic polynomial of high degree
    case = corpus.parse("check divisor_symmetry_expect(z^5040 + 1, order = 5040, k0 = 0)\n")
    start = time.perf_counter()
    report = runner.run(case)
    assert time.perf_counter() - start < 2.0
    (entry,) = report.entries
    assert (entry.verdict, entry.detail) == ("PASS", "center 0, order 5040, k0 = 0")


def test_standard_decomposition_expect_fail_path():
    case = corpus.parse(
        "automorphism UZ { x -> x - 2*y*z - z^3; y -> y + z^2; z -> z }\n"
        "check standard_decomposition_expect(UZ, d = z^2)\n"
    )
    report = runner.run(case)
    assert report.entries[0].verdict == "FAIL"
    assert "got d = z" in report.entries[0].detail


def test_fixed_scheme_rejects_non_fence():
    case = corpus.parse("divisor GY = y*z\ncheck fixed_scheme(GY)\n")
    report = runner.run(case)
    assert report.entries[0].verdict == "ERROR"
    assert "vertical fence" in report.entries[0].detail


def test_shipped_corpora_all_pass():
    for path in CORPORA:
        case = corpus.parse(path.read_text())
        report = runner.run(case, seed=0, budget=3)
        assert report.ok, (path.name, runner.format_report(report))
        assert all(e.verdict == "PASS" for e in report.entries)


# The shipped corpora, and generated benchmark corpora (perfbench/gen.py
# WORKLOAD SEED) kept beside their golden output.
GOLDEN_CORPORA = CORPORA + sorted(GOLDEN.glob("*.corpus"))


@pytest.mark.parametrize("path", GOLDEN_CORPORA, ids=[p.stem for p in GOLDEN_CORPORA])
def test_reports_match_golden_files(path):
    """`lnd check` and `lnd report` stdout at seed 0, byte for byte, against
    every tests/golden/<corpus>.<command>.txt there is."""
    report = runner.run(corpus.parse(path.read_text()), seed=0)
    goldens = [GOLDEN / f"{path.stem}.{command}.txt" for command in ("check", "report")]
    assert any(golden.exists() for golden in goldens)
    for golden, full in zip(goldens, (False, True)):
        if golden.exists():
            text = runner.format_report(report, full=full)
            assert text.encode("utf-8") == golden.read_bytes(), golden.name


def test_benchmark_bindings_resolve():
    """perfbench wraps lnd functions by name: every SPANS target resolves,
    and the worker's handler table covers the directives in order."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for group in spans.SPANS.values() for target in group]
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(f"lnd.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"lnd.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"lnd.{module}.{attr}"
    assert list(runner._HANDLERS) == list(runner._SCHEMA)
    assert all(callable(handler) for handler in runner._HANDLERS.values())
