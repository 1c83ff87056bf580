"""Polynomial text grammar, problem documents, and canonical serialization.

Polynomial grammar (whitespace insensitive):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor (['*'] factor)*        # '*' or juxtaposition
    factor   := atom ['^' natural]
    atom     := rational | name | '(' expr ')'
    rational := natural ['/' natural]
    name     := [a-zA-Z][a-zA-Z0-9_]*

Parenthesized subexpressions are expanded eagerly, so the result is always
a plain term map.  Division only appears inside rational coefficients.  No
product or power may expand past total degree MAX_DEGREE.  A canonical sum of
monomials, as format_polynomial writes it, expands nothing: parse_monomial_sum
reads one with no degree cap and refuses parentheses and powers of numbers.

Problem documents are line oriented, ``key = value``, with ``#`` comments:

    vars = x, y, z
    blocks = (x, y | z)          # optional, omitted = one block
    f = "x^4*y^2 + ..."          # nonzero in epsilon-margin mode
    g = "x^2 + y^2 + z^2"        # optional, default sum of squared vars;
                                 # nonzero in certify and epsilon-margin mode
    h = ["x^2 - y^2"]            # optional constraint list
    mode = certify               # certify | check-sos | odd-power | epsilon-margin
    n_max = 10                   # nonnegative
    m_max = 7                    # odd-power mode only, odd and positive
    h_margin = "x*y"             # epsilon-margin mode only, required and nonzero there
    homogeneous = true

Unknown keys are errors.  When ``vars`` is omitted the variables are
inferred from the polynomial texts in order of first appearance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .gram import MAX_CONSTRAINTS
from .poly import Grading, Polynomial, grlex_key, sum_of_squared_variables

NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
TOKEN_RE = re.compile(r"\s*(?:(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^()]))")

MODES = ("certify", "check-sos", "odd-power", "epsilon-margin")

# Largest total degree a product or power may expand to; a number raised to
# the k-th power counts as degree k, so 9^99999999 is refused like x^99999999.
MAX_DEGREE = 20


class ParseError(ValueError):
    """Raised for any malformed polynomial or problem document, and for a
    ProblemSpec that breaks one of its invariants however it is built."""


# ---------------------------------------------------------------------------
# polynomial expressions
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        pos = m.end()
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("op"):
            tokens.append(("op", m.group("op")))
    return tokens


class _ExprParser:
    def __init__(self, tokens, variables: Sequence[str], monomial_sum: bool):
        self.tokens = tokens
        self.pos = 0
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(variables)}
        self.n = len(self.variables)
        self.monomial_sum = monomial_sum

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise ParseError("empty polynomial expression")
        p, _ = self.expr()
        kind, val = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing {val!r}")
        return p

    # Each method returns (polynomial, degree bound): the total degree the
    # expression would have with every power of a number counted as a power
    # of a variable.  Products and powers are refused before they expand
    # past MAX_DEGREE, except in a sum of monomials, where they expand nothing.

    def capped(self, degree: int) -> int:
        if degree > MAX_DEGREE and not self.monomial_sum:
            raise ParseError(f"expression degree {degree} exceeds the parser's limit of {MAX_DEGREE}")
        return degree

    def expr(self):
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        total, degree = self.term()
        total = total * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t, t_degree = self.term()
                total = total + (t if val == "+" else -t)
                degree = max(degree, t_degree)
            else:
                return total, degree

    def term(self):
        product, degree = self.factor()
        while True:
            kind, val = self.peek()
            # '*' or juxtaposition: 2x^2y, 3(x+y)
            if kind == "op" and val == "*":
                self.take()
            elif not (kind == "name" or (kind == "op" and val == "(")):
                return product, degree
            other, other_degree = self.factor()
            degree = self.capped(degree + other_degree)
            product = product * other

    def factor(self):
        base, degree = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ParseError(f"malformed exponent: expected a nonnegative integer, found {val!r}")
            if self.monomial_sum and degree == 0:
                raise ParseError("a sum of monomials has no powers of numbers")
            exponent = int(val)
            degree = self.capped(max(degree, 1) * exponent)
            base = base**exponent
        return base, degree

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            numerator = int(val)
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3 = self.take()
                if k3 != "num":
                    raise ParseError("malformed rational: denominator must be an integer")
                if int(v3) == 0:
                    raise ParseError("malformed rational: zero denominator")
                return Polynomial.constant(self.n, Fraction(numerator, int(v3))), 0
            return Polynomial.constant(self.n, numerator), 0
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}")
            return Polynomial.variable(self.n, self.index[val]), 1
        if kind == "op" and val == "(":
            if self.monomial_sum:
                raise ParseError("a sum of monomials has no parentheses")
            inner = self.expr()
            kind, val = self.take()
            if kind != "op" or val != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        if kind is None:
            raise ParseError("unexpected end of expression")
        raise ParseError(f"unexpected {val!r}")


def _parse(text: str, variables: Sequence[str], monomial_sum: bool) -> Polynomial:
    if not variables:
        raise ParseError("no variables declared")
    for name in variables:
        if not NAME_RE.fullmatch(name):
            raise ParseError(f"invalid variable name {name!r}")
    return _ExprParser(_tokenize(text), variables, monomial_sum).parse()


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression over the declared variables into canonical form."""
    return _parse(text, variables, monomial_sum=False)


def parse_monomial_sum(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse a sum of monomial terms such as format_polynomial writes.

    Every product in such a text multiplies single terms, so nothing expands
    and MAX_DEGREE does not apply; parentheses and powers of numbers, which
    would expand, are refused.
    """
    return _parse(text, variables, monomial_sum=True)


def format_polynomial(p: Polynomial, variables: Optional[Sequence[str]] = None) -> str:
    """Canonical text: graded-lex from the top, explicit coefficients.

    ``parse_polynomial(format_polynomial(p), variables) == p`` exactly.
    Default variable names are x0, x1, ...
    """
    if variables is None:
        variables = [f"x{i}" for i in range(p.n_vars)]
    if len(variables) != p.n_vars:
        raise ValueError("variable name count does not match polynomial")
    if p.is_zero():
        return "0"
    pieces = []
    for ev in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.coefficient(ev)
        mono = format_monomial(ev, variables)
        mag = abs(c)
        if not any(ev):
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def format_monomial(exponents, variables: Sequence[str]) -> str:
    """Monomial part only, '1' for the constant."""
    mono = "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exponents) if e
    )
    return mono or "1"


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A certification task: polynomials, grading, mode and search limits.

    Valid by construction: however a spec is built (parse_problem,
    dataclasses.replace, a direct call), __post_init__ checks its rules.
    """

    variables: tuple
    grading: Grading
    f: Polynomial
    g: Polynomial
    constraints: tuple
    mode: str = "check-sos"
    n_max: int = 10
    m_max: int = 11
    h_margin: Optional[Polynomial] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParseError(f"mode: expected one of {MODES}, found {self.mode!r}")
        if self.n_max < 0:
            raise ParseError("n_max: must be nonnegative")
        if self.m_max < 1 or self.m_max % 2 == 0:
            raise ParseError("m_max: must be an odd positive integer")
        if len(self.constraints) > MAX_CONSTRAINTS:
            raise ParseError(f"h: at most {MAX_CONSTRAINTS} constraints supported, found {len(self.constraints)}")
        if any(h.is_zero() for h in self.constraints):
            raise ParseError("h: constraint polynomials must be nonzero")
        if self.mode in ("certify", "epsilon-margin") and self.g.is_zero():
            raise ParseError(f"g: must be nonzero in {self.mode} mode, whose identities hold a power of g")
        if self.mode == "epsilon-margin" and self.f.is_zero():
            raise ParseError("f: must be nonzero in epsilon-margin mode, whose stage target f*g^(n+1) is then zero")
        if self.mode == "epsilon-margin" and (self.h_margin is None or self.h_margin.is_zero()):
            raise ParseError("h_margin: required and nonzero in epsilon-margin mode (zero leaves epsilon unbounded)")


def strip_comment(line: str) -> str:
    """Drop a '#' comment, ignoring '#' inside double quotes."""
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def split_top_level(text: str, sep: str = ",") -> list:
    """Split on sep at bracket depth zero, respecting double quotes."""
    parts = []
    depth = 0
    in_quote = False
    current = []
    for ch in text:
        if ch == '"':
            in_quote = not in_quote
            current.append(ch)
        elif in_quote:
            current.append(ch)
        elif ch in "([{":
            depth += 1
            current.append(ch)
        elif ch in ")]}":
            depth -= 1
            current.append(ch)
        elif ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def bracketed_items(value: str, error: str) -> list:
    """The top-level items of a '[a, b, ...]' list, stripped; error is the
    message for a value that is not bracketed."""
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise ParseError(error)
    inner = value[1:-1].strip()
    return [item.strip() for item in split_top_level(inner)] if inner else []


def parse_polynomial_list(value: str, variables: Sequence[str], error: str) -> list:
    """The polynomials of a bracketed list of quoted texts, '["p", "q"]'."""
    return [parse_polynomial(_unquote(text), variables) for text in bracketed_items(value, error)]


def _parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ParseError(f"{key}: expected true/false, found {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ParseError(f"{key}: expected an integer, found {value!r}") from None


def read_key_values(document: str) -> list:
    """All (key, value, line_no) triples of a key=value document."""
    triples = []
    for line_no, raw in enumerate(document.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', found {raw.strip()!r}")
        key, _, value = line.partition("=")
        triples.append((key.strip(), value.strip(), line_no))
    return triples

_PROBLEM_KEYS = {"vars", "blocks", "f", "g", "h", "mode", "n_max", "m_max", "h_margin", "homogeneous"}


def parse_variables(value: str) -> list:
    """A ``vars`` list: comma separated, nonempty, valid and distinct names."""
    variables = [n.strip() for n in value.split(",") if n.strip()]
    if not variables:
        raise ParseError("vars: empty variable list")
    for name in variables:
        if not NAME_RE.fullmatch(name):
            raise ParseError(f"vars: invalid variable name {name!r}")
    if len(set(variables)) != len(variables):
        raise ParseError("vars: duplicate variable name")
    return variables


def _infer_variables(texts: list) -> list:
    seen = []
    for text in texts:
        for name in NAME_RE.findall(text):
            if name not in seen:
                seen.append(name)
    return seen


def _parse_blocks(value: str, variables: Sequence[str]) -> Grading:
    v = value.strip()
    if not (v.startswith("(") and v.endswith(")")):
        raise ParseError("blocks: expected a parenthesized group list, e.g. (x, y | z)")
    groups = [g.strip() for g in v[1:-1].split("|")]
    listed = []
    blocks = []
    start = 0
    for group in groups:
        names = [n.strip() for n in group.split(",") if n.strip()]
        if not names:
            raise ParseError("blocks: empty group")
        blocks.append(tuple(range(start, start + len(names))))
        start += len(names)
        listed.extend(names)
    if listed != list(variables):
        raise ParseError(
            f"blocks: must list the declared variables in order; found {listed}, declared {list(variables)}"
        )
    return Grading(tuple(blocks))


def parse_problem(document: str) -> ProblemSpec:
    """Parse a problem document, filling defaults; ProblemSpec checks the spec.

    The rules here are about the document's keys: m_max only in odd-power
    mode, h_margin only in epsilon-margin mode, and ``homogeneous``.
    """
    values = {}
    for key, value, line_no in read_key_values(document):
        if key not in _PROBLEM_KEYS:
            raise ParseError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {line_no}: duplicate key {key!r}")
        values[key] = value

    if "f" not in values:
        raise ParseError("missing f")

    if "vars" in values:
        variables = parse_variables(values["vars"])
    else:
        # names in order of first appearance; quotes and brackets hold none
        variables = _infer_variables([values.get(key, "") for key in ("f", "g", "h", "h_margin")])
        if not variables:
            raise ParseError("vars: no variables declared or inferable")
    n = len(variables)

    grading = _parse_blocks(values["blocks"], variables) if "blocks" in values else Grading.single(n)

    f = parse_polynomial(_unquote(values["f"]), variables)
    g = (
        parse_polynomial(_unquote(values["g"]), variables)
        if "g" in values
        else sum_of_squared_variables(n)
    )
    constraints = tuple(
        parse_polynomial_list(values.get("h", "[]"), variables, "h: expected a bracketed list of polynomial strings")
    )

    mode = values.get("mode", "check-sos").strip()
    if "m_max" in values and mode != "odd-power":
        raise ParseError("m_max: only valid in odd-power mode")
    limits = {key: _parse_int(values[key], key) for key in ("n_max", "m_max") if key in values}

    if "h_margin" in values and mode != "epsilon-margin":
        raise ParseError("h_margin: only valid in epsilon-margin mode")
    h_margin = parse_polynomial(_unquote(values["h_margin"]), variables) if "h_margin" in values else None

    spec = ProblemSpec(
        variables=tuple(variables),
        grading=grading,
        f=f,
        g=g,
        constraints=constraints,
        mode=mode,
        h_margin=h_margin,
        **limits,
    )

    # after the spec's own rules, so every constraint here is nonzero
    homogeneous = _parse_bool(values["homogeneous"], "homogeneous") if "homogeneous" in values else False
    if homogeneous:
        for name, p in (("f", f), ("g", g)):
            if p.is_zero():
                raise ParseError(f"{name}: zero polynomial has no degree, invalid under homogeneous = true")
            if p.multidegree(grading) is None:
                raise ParseError(f"{name}: not homogeneous w.r.t. the declared blocks")
        for i, h in enumerate(constraints):
            md = h.multidegree(grading)
            if md is None:
                raise ParseError(f"h[{i}]: not homogeneous w.r.t. the declared blocks")
            if any(d % 2 for d in md):
                raise ParseError(f"h[{i}]: per-block degree {md} must be even")
    return spec
