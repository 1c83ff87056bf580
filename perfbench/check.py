"""Checks of the program's outputs that share no code with the program.

Certificate and problem files are split into ``key = value`` lines here,
their polynomials are read with sympy's own parser, and every identity is
re-expanded with sympy, never with ``posicert.poly``:

    f * g^N  -  sum_e  h^e * sum_j w_j p_j^2  ==  0,   every w_j > 0.

Known answers come from mathematics (see ``workloads``), not from earlier
output.  ``self_check`` shows that the checker rejects a certificate with one
weight's sign flipped and one with one coefficient changed.
"""

from __future__ import annotations

import re

import sympy
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

_LINE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*(.*?)\s*$")
_QUOTED = re.compile(r'"([^"]*)"')
_PAIR = re.compile(r'\(\s*([-+]?\d+(?:/\d+)?)\s*,\s*"([^"]*)"\s*\)')

# A certificate written by hand for x^2 - y^2/2 >= 0 on x^2 >= y^2:
# (1/4) y^2 + (1/4) x^2 + (3/4) (x^2 - y^2) = x^2 - (1/2) y^2.
REFERENCE_CERTIFICATE = """\
vars = x, y
blocks = (x, y)
f = "x^2 - 1/2*y^2"
g = "x^2 + y^2"
h = ["x^2 - y^2"]
N = 0
e = (0)
basis = [y, x]
squares = [(1/4, "y"), (1/4, "x")]
e = (1)
basis = [1]
squares = [(3/4, "1")]
"""


class CheckError(Exception):
    """An output failed a check; the message says which and why."""


def key_values(text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _LINE.match(line)
        if m is None:
            raise CheckError(f"unreadable line {raw!r}")
        out.append((m.group(1), m.group(2)))
    return out


def poly(text: str, names) -> sympy.Poly:
    """A polynomial text over the named variables as a sympy polynomial over QQ."""
    symbols = [sympy.Symbol(n) for n in names]
    expr = parse_expr(text.replace("^", "**"), local_dict=dict(zip(names, symbols)),
                      transformations=standard_transformations)
    return sympy.Poly(expr, *symbols, domain="QQ")


def parse_certificate(text: str) -> dict:
    header, blocks = {}, []
    for key, value in key_values(text):
        if key == "e":
            index = tuple(int(t) for t in value.strip("()").split(",") if t.strip())
            blocks.append((index, []))
        elif key == "squares":
            if not blocks:
                raise CheckError("squares before any 'e =' line")
            pairs = _PAIR.findall(value)
            if len(pairs) != value.count('"') // 2:
                raise CheckError(f"unreadable squares list {value[:80]!r}")
            blocks[-1][1].extend(pairs)
        elif key != "basis":
            header[key] = value
    names = tuple(n.strip() for n in header["vars"].split(",") if n.strip())
    return {
        "vars": names,
        "f": poly(_QUOTED.findall(header["f"])[0], names),
        "g": poly(_QUOTED.findall(header["g"])[0], names),
        "h": [poly(t, names) for t in _QUOTED.findall(header.get("h", ""))],
        "N": int(header["N"]),
        "blocks": [(index, [(sympy.Rational(w), poly(p, names)) for w, p in squares])
                   for index, squares in blocks],
    }


def check_identity(cert: dict) -> None:
    """Raise CheckError unless the certificate's identity holds exactly."""
    names = cert["vars"]
    rhs = poly("0", names)
    for index, squares in cert["blocks"]:
        if len(index) != len(cert["h"]):
            raise CheckError(f"product index {index} does not match {len(cert['h'])} constraints")
        multiplier = poly("1", names)
        for h, e in zip(cert["h"], index):
            if e:
                multiplier = multiplier * h
        for w, p in squares:
            if w <= 0:
                raise CheckError(f"weight {w} is not positive")
            rhs = rhs + (p * p * multiplier) * w
    if cert["f"] * cert["g"] ** cert["N"] != rhs:
        raise CheckError("f*g^N differs from the weighted squares")


def _same(actual: sympy.Poly, text: str, names, what: str) -> None:
    if actual != poly(text, names):
        raise CheckError(f"{what} is {actual.as_expr()}, expected {text}")


def check_problem_file(text: str, known: dict) -> None:
    """The bundled problem file still states the problem the answer is known for."""
    values = dict(key_values(text))
    names = known["vars"]
    for key in ("f", "g", "h_margin"):
        if key in known:
            _same(poly(_QUOTED.findall(values[key])[0], names), known[key], names, f"problem {key}")
    if "h" in known:
        found = _QUOTED.findall(values.get("h", ""))
        if len(found) != len(known["h"]):
            raise CheckError(f"problem has {len(found)} constraints, expected {len(known['h'])}")
        for got, want in zip(found, known["h"]):
            _same(poly(got, names), want, names, "problem h")


def check_certificate(text: str, expect: dict, epsilon=None) -> None:
    """Identity, positive weights, and the problem the certificate claims."""
    cert = parse_certificate(text)
    names = cert["vars"]
    check_identity(cert)
    if epsilon is not None:
        # epsilon mode certifies g*f - eps*h_margin^2 against g
        known = expect["epsilon"]
        want = poly(known["g"], names) * poly(known["f"], names) - \
            sympy.Rational(epsilon) * poly(known["h_margin"], names) ** 2
        if cert["f"] != want:
            raise CheckError(f"epsilon certificate f is {cert['f'].as_expr()}, expected g*f - {epsilon}*h^2")
        _same(cert["g"], known["g"], names, "certificate g")
        return
    if tuple(names) != tuple(expect["vars"]):
        raise CheckError(f"certificate variables {names}, expected {expect['vars']}")
    _same(cert["f"], expect["f"], names, "certificate f")
    _same(cert["g"], expect["g"], names, "certificate g")
    if len(cert["h"]) != len(expect["h"]):
        raise CheckError(f"certificate has {len(cert['h'])} constraints, expected {len(expect['h'])}")
    for got, want in zip(cert["h"], expect["h"]):
        _same(got, want, names, "certificate h")
    if "N" in expect and cert["N"] != expect["N"]:
        raise CheckError(f"certificate N = {cert['N']}, expected {expect['N']}")


def mutants(text: str) -> dict:
    """A certificate with its first weight's sign flipped, and one with the
    constant coefficient of f raised by one."""
    flipped = re.sub(r'squares = \[\(\s*', "squares = [(-", text, count=1)
    changed = re.sub(r'^(f = "[^"]*)"', r'\1 + 1"', text, count=1, flags=re.M)
    if flipped == text or changed == text:
        raise CheckError("certificate has no weight or no f to mutate")
    return {"weight sign flipped": flipped, "one coefficient changed": changed}


def self_check(text: str) -> None:
    """The identity check accepts ``text`` and rejects both of its mutants."""
    check_identity(parse_certificate(text))
    for what, mutant in mutants(text).items():
        try:
            check_identity(parse_certificate(mutant))
        except CheckError:
            continue
        raise CheckError(f"checker accepted a certificate with {what}")
