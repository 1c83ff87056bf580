"""Grammar, canonical formatting, and problem-document parsing."""

import dataclasses
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posicert import cli
from posicert.parsing import (
    MAX_DEGREE,
    ParseError,
    format_polynomial,
    parse_monomial_sum,
    parse_polynomial,
    parse_problem,
)
from posicert.poly import Grading, Polynomial, grlex_key, sum_of_squared_variables

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def stengle_expansion():
    # independent oracle: expand x^3 + (x*y^2 - x^2 - 1)^2 by hand convolution
    inner = {(1, 2): Fraction(1), (2, 0): Fraction(-1), (0, 0): Fraction(-1)}
    out = {(3, 0): Fraction(1)}
    for e1, c1 in inner.items():
        for e2, c2 in inner.items():
            ev = (e1[0] + e2[0], e1[1] + e2[1])
            out[ev] = out.get(ev, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


class TestParsePolynomial:
    def test_motzkin_transcription(self):
        p = parse_polynomial("x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2", XYZ)
        assert dict(p.terms) == {
            (4, 2, 0): 1,
            (2, 4, 0): 1,
            (0, 0, 6): 1,
            (2, 2, 2): -3,
        }
        assert len(p) == 4

    def test_parenthesized_expansion(self):
        p = parse_polynomial("x^3 + (x*y^2 - x^2 - 1)^2", XY)
        assert dict(p.terms) == stengle_expansion()
        assert p.coefficient((0, 0)) == 1
        assert p.evaluate([0, 0]) == 1

    def test_zero(self):
        assert parse_polynomial("0", XY).is_zero()

    def test_rational_coefficients_and_juxtaposition(self):
        p = parse_polynomial("1/2x^2y - 2/4 * y*x^2 + 3(x + y)", XY)
        assert p == parse_polynomial("3*x + 3*y", XY)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("x + w", XY)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("x^-2", XY)

    def test_fractional_exponent(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^1.5", XY)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_polynomial("   ", XY)

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError):
            parse_polynomial("(x + y", XY)
        with pytest.raises(ParseError):
            parse_polynomial("x + y)", XY)

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x/2", XY)

    def test_degree_cap_refuses_before_expanding(self):
        # expanded, the first would not finish and the second would not fit
        for text in ("(x+y+1)^120", "9^99999999", "(9^5)^5", "(x+y)^11*(x-y)^10"):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="degree"):
                parse_polynomial(text, XY)
            assert time.perf_counter() - start < 1.0

    def test_degree_cap_is_inclusive(self):
        assert parse_polynomial(f"(x+y)^{MAX_DEGREE}", XY).total_degree() == MAX_DEGREE
        assert parse_polynomial(f"x^{MAX_DEGREE - 1}*2^1", XY).total_degree() == MAX_DEGREE - 1
        with pytest.raises(ParseError, match="degree"):
            parse_polynomial(f"x^{MAX_DEGREE}*y", XY)

    def test_monomial_sum_is_uncapped_and_expands_nothing(self):
        p = parse_monomial_sum("-3/4*x^30*y + x^2 - 1", XY)
        assert p.total_degree() == 31 > MAX_DEGREE
        assert format_polynomial(p, XY) == "-3/4*x^30*y + x^2 - 1"
        for text in ("(x+y+1)^120", "9^99999999", "2*(x+y)"):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="sum of monomials"):
                parse_monomial_sum(text, XY)
            assert time.perf_counter() - start < 1.0


class TestFormatPolynomial:
    def test_graded_lex_order(self):
        p = parse_polynomial("y^2 + x^2", XY)
        assert format_polynomial(p, XY) == "x^2 + y^2"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(2), XY) == "0"

    def test_negative_fraction_rendering(self):
        p = parse_polynomial("x^2 - 3/4*y", XY)
        assert format_polynomial(p, XY) == "x^2 - 3/4*y"

    def test_mixed_degrees(self):
        p = parse_polynomial("1 + x + x^2", XY)
        assert format_polynomial(p, XY) == "x^2 + x + 1"


def random_polynomial(rng, n_vars):
    terms = {}
    for _ in range(rng.randint(0, 7)):
        ev = tuple(rng.randint(0, 5) for _ in range(n_vars))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if c:
            terms[ev] = c
    return Polynomial(n_vars, terms)


def test_round_trip_thousand_random():
    rng = random.Random(7)
    names = ["x", "y", "z", "w_1"]
    for _ in range(1000):
        n = rng.randint(1, 4)
        p = random_polynomial(rng, n)
        text = format_polynomial(p, names[:n])
        assert parse_polynomial(text, names[:n]) == p


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_polynomial(text, XY)
    except ParseError:
        pass


@given(st.text(alphabet="xy0123456789+-*/^() ", max_size=30))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_grammar_alphabet(text):
    try:
        parse_polynomial(text, XY)
    except ParseError:
        pass


VALID = 'vars = x, y\nf = "x^2 + y^2"\n'
SEVENTEEN = [f"x^{k} + y" for k in range(1, 18)]
ODD_M = "m_max: must be an odd positive integer"
H_MARGIN = "h_margin: required and nonzero in epsilon-margin mode"
EPSILON = 'mode = epsilon-margin\nh_margin = "x*y"\n'
ZERO = Polynomial.zero(2)
X_TIMES_Y = parse_polynomial("x*y", XY)


def _with(lines: str) -> str:
    """VALID with the given key lines added; a key VALID sets already is replaced."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = "".join(line + "\n" for line in VALID.splitlines() if line.split("=")[0].strip() not in keys)
    return kept + lines


# Each ProblemSpec rule: (how its message starts, naming the key; document
# lines that break it, added to VALID by _with; fields that break it in a
# valid spec; subcommand and flags that break it on the command line, or
# None where no flag can)
SPEC_RULES = {
    "mode": ("mode: expected one of", "mode = bogus", dict(mode="bogus"), None),
    "n_max": ("n_max: must be nonnegative", "n_max = -1", dict(n_max=-1), ["certify", "--n-max=-1"]),
    "m_max_even": (ODD_M, "mode = odd-power\nm_max = 4", dict(m_max=4), ["odd-power", "--m-max=4"]),
    "m_max_zero": (ODD_M, "mode = odd-power\nm_max = 0", dict(m_max=0), ["odd-power", "--m-max=0"]),
    "h_count": (
        "h: at most 16 constraints",
        "h = [" + ", ".join(f'"{h}"' for h in SEVENTEEN) + "]",
        dict(constraints=tuple(parse_polynomial(h, XY) for h in SEVENTEEN)),
        None,
    ),
    "h_zero": (
        "h: constraint polynomials must be nonzero",
        'h = ["x^2", "0"]',
        dict(constraints=(Polynomial.zero(2),)),
        None,
    ),
    "h_margin_missing": (H_MARGIN, "mode = epsilon-margin", dict(mode="epsilon-margin"), ["epsilon"]),
    "h_margin_zero": (
        H_MARGIN,
        'mode = epsilon-margin\nh_margin = "0"',
        dict(mode="epsilon-margin", h_margin=Polynomial.zero(2)),
        None,
    ),
    "g_zero_certify": (
        "g: must be nonzero in certify mode",
        'mode = certify\ng = "0"',
        dict(mode="certify", g=ZERO),
        None,
    ),
    "g_zero_epsilon": (
        "g: must be nonzero in epsilon-margin mode",
        EPSILON + 'g = "0"',
        dict(mode="epsilon-margin", h_margin=X_TIMES_Y, g=ZERO),
        None,
    ),
    "f_zero_epsilon": (
        "f: must be nonzero in epsilon-margin mode",
        EPSILON + 'f = "0"',
        dict(mode="epsilon-margin", h_margin=X_TIMES_Y, f=ZERO),
        None,
    ),
}


# Rules of the problem document that a ProblemSpec built in code never meets:
# (how the message starts, naming the key; document lines added to VALID by _with)
DOCUMENT_RULES = {
    "h_margin_outside_epsilon": ("h_margin: only valid in epsilon-margin mode", 'mode = certify\nh_margin = "x*y"'),
    "blocks_without_parentheses": ("blocks: expected a parenthesized group list", "blocks = x, y"),
    "blocks_empty_group": ("blocks: empty group", "blocks = (x, y | )"),
    "homogeneous_not_boolean": ("homogeneous: expected true/false, found 'maybe'", "homogeneous = maybe"),
    "f_not_homogeneous_per_block": (
        "f: not homogeneous w.r.t. the declared blocks",
        "blocks = (x | y)\nhomogeneous = true",
    ),
    "h_not_homogeneous": (
        "h[0]: not homogeneous w.r.t. the declared blocks",
        'mode = certify\nh = ["x^2 - y"]\nhomogeneous = true',
    ),
    "vars_invalid_name": ("vars: invalid variable name '2y'", "vars = x, 2y"),
}


class TestParseProblem:
    def test_defaults_from_single_key(self):
        spec = parse_problem('f = "x^2 + y^2"')
        assert spec.mode == "check-sos"
        assert spec.variables == ("x", "y")
        assert spec.g == sum_of_squared_variables(2)
        assert len(spec.constraints) == 0
        assert spec.n_max == 10
        assert spec.grading == Grading.single(2)

    def test_constrained_document(self):
        doc = """
        vars = x, y
        f = "x^2 - 1/2*y^2"
        g = "x^2 + y^2"
        h = ["x^2 - y^2"]
        mode = certify
        """
        spec = parse_problem(doc)
        assert len(spec.constraints) == 1
        assert spec.mode == "certify"
        assert spec.constraints[0] == parse_polynomial("x^2 - y^2", XY)

    def test_odd_degree_constraint_under_homogeneous(self):
        doc = """
        vars = x, y
        f = "x^2 + y^2"
        h = ["x^3 - y^3"]
        mode = certify
        homogeneous = true
        """
        with pytest.raises(ParseError, match=r"h\[0\]"):
            parse_problem(doc)

    def test_missing_f(self):
        with pytest.raises(ParseError, match="missing f"):
            parse_problem("vars = x, y")

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_problem('f = "x^2"\nfrobnicate = 3')

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_problem('f = "x^2"\nf = "y^2"\nvars = x, y')

    def test_blocks(self):
        doc = """
        vars = x, y, z
        blocks = (x, y | z)
        f = "x^2*z^2 + y^2*z^2"
        """
        spec = parse_problem(doc)
        assert spec.grading == Grading(((0, 1), (2,)))
        assert spec.f.multidegree(spec.grading) == (2, 2)

    def test_blocks_must_match_declared_order(self):
        doc = 'vars = x, y\nblocks = (y | x)\nf = "x^2"'
        with pytest.raises(ParseError, match="blocks"):
            parse_problem(doc)

    def test_comments_and_quotes(self):
        doc = '# heading\nvars = x, y  # trailing\nf = "x^2 + y^2"  # the target\n'
        spec = parse_problem(doc)
        assert spec.f == parse_polynomial("x^2+y^2", XY)

    def test_m_max_requires_odd_power_mode(self):
        with pytest.raises(ParseError, match="m_max"):
            parse_problem('f = "x^2"\nm_max = 3')

    @pytest.mark.parametrize("rule", SPEC_RULES)
    def test_spec_rule_is_refused_on_every_path(self, rule, tmp_path, capsys):
        start, lines, fields, argv = SPEC_RULES[rule]
        message = "^" + re.escape(start)
        with pytest.raises(ParseError, match=message):
            parse_problem(_with(lines))
        with pytest.raises(ParseError, match=message):
            dataclasses.replace(parse_problem(VALID), **fields)
        if argv is not None:
            problem = tmp_path / "valid.txt"
            problem.write_text(VALID)
            assert cli.main([argv[0], str(problem), *argv[1:]]) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith(f"input error: {start}")
            assert captured.out == ""  # refused before the precheck

    @pytest.mark.parametrize("rule", SPEC_RULES)
    def test_spec_rule_comes_before_the_homogeneous_checks(self, rule, tmp_path, capsys):
        # the homogeneous checks take degrees, which a zero constraint has not
        start = SPEC_RULES[rule][0]
        document = _with(SPEC_RULES[rule][1]) + "\nhomogeneous = true\n"
        with pytest.raises(ParseError, match="^" + re.escape(start)):
            parse_problem(document)
        problem = tmp_path / "homogeneous.txt"
        problem.write_text(document)
        assert cli.main(["certify", str(problem)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {start}")
        assert captured.out == ""

    @pytest.mark.parametrize("rule", DOCUMENT_RULES)
    def test_document_rule_is_refused(self, rule):
        start, lines = DOCUMENT_RULES[rule]
        with pytest.raises(ParseError, match="^" + re.escape(start)):
            parse_problem(_with(lines))

    def test_homogeneous_false_is_accepted(self):
        spec = parse_problem(_with('f = "x^2 + y + 1"\nhomogeneous = false'))
        assert spec.f == parse_polynomial("x^2 + y + 1", XY)

    def test_zero_g_under_homogeneous(self):
        with pytest.raises(ParseError, match="^g: zero polynomial"):
            parse_problem(VALID + 'g = "0"\nhomogeneous = true')

    def test_inferred_variable_order_is_first_appearance(self):
        spec = parse_problem('f = "y^2 + x^2 + z^2"')
        assert spec.variables == ("y", "x", "z")


def test_grlex_key_orders_by_degree_then_lex():
    evs = [(0, 2), (1, 0), (2, 0), (0, 0), (1, 1)]
    assert sorted(evs, key=grlex_key) == [(0, 0), (1, 0), (0, 2), (1, 1), (2, 0)]
