"""Seeded inputs of the four benchmark workloads and their known answers.

Everything here is plain text and data: no posicert and no sympy import, so
the measured worker, the set-up probes and the checker all build the same
problems from the same seed.  A problem is a problem document plus the way
it is run and the answer mathematics gives for it (``expect``), which the
checker compares with the program's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

WORKLOADS = ("sos_batch", "motzkin_boundary", "stengle_odd", "cli_default")

SOS_BATCH_SIZE = 8  # instances per round: about 5 s on 2 cores, three rounds a run
CLI_RANDOM_FILES = 1  # random check-sos files per cli_default round (each costs ~12 s of precheck)
MOTZKIN_POWERS = range(4)  # k = 0..3 in M * g^k; k = 4 alone takes about 30 s

XYZ = ("x", "y", "z")
G_XYZ = "x^2 + y^2 + z^2"
MOTZKIN = "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2"
# Known content of the bundled problem files the workloads run.  The checker
# compares each file with these before it applies the known answer.
STENGLE_FILE = "problems/stengle.txt"
STENGLE = {"vars": ("x", "y"), "f": "x^3 + (x*y^2 - x^2 - 1)^2"}
PERTURBED_FILE = "problems/perturbed_motzkin.txt"
PERTURBED = {"vars": XYZ, "f": MOTZKIN + " + 1/8*(x^2 + y^2 + z^2)^3", "g": G_XYZ, "h": ()}
CONSTRAINED_FILE = "problems/constrained_example.txt"
CONSTRAINED = {"vars": ("x", "y"), "f": "x^2 - 1/2*y^2", "g": "x^2 + y^2", "h": ("x^2 - y^2",)}
EPSILON_FILE = "problems/epsilon_example.txt"
EPSILON = {"vars": ("x", "y"), "f": "x^2 + y^2", "g": "x^2 + y^2", "h_margin": "x*y"}


@dataclass(frozen=True)
class Problem:
    """One operation of a round.

    ``run`` is ``library`` (a posicert search function called on the parsed
    document) or ``cli`` (``posicert.cli.main`` on a file, without
    ``--force``).  ``path`` is relative to the checkout; generated documents
    are written there during set-up, bundled ones are read from there.
    """

    name: str
    run: str
    command: str  # certify | check-sos | odd-power | epsilon
    path: str
    text: str = ""  # generated document; empty for a bundled file
    expect: dict = field(default_factory=dict)


def _random_cubic(rng: random.Random) -> dict:
    """A dense cubic in x, y, z: integer coefficients in [-3, 3] by exponent."""
    return {e: rng.randint(-3, 3) for e in product(range(4), repeat=3) if sum(e) <= 3}


def _cubic_text(coeffs: dict, signs) -> str:
    """The cubic with each variable v replaced by sign_v * v."""
    terms = []
    for exps, coeff in coeffs.items():
        for s, e in zip(signs, exps):
            coeff *= s**e
        if coeff:
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(XYZ, exps) if e)
            terms.append(f"{coeff}*{mono}" if mono else str(coeff))
    return " + ".join(terms).replace("+ -", "- ") or "0"


def random_sos_text(index: int, rng: random.Random) -> str:
    """A sum of four squares of dense ternary cubics, left unexpanded: the
    program's parser expands it, so the program sees only the sextic.

    The cubics of instance ``index`` are fixed; ``rng`` (the seed's) picks
    the sign of each variable.  x -> -x maps a sum of squares to a sum of
    squares and leaves the SDP's floating-point path bit for bit the same,
    so the seed changes every coefficient's sign pattern, the exact
    arithmetic and the certificate text, but not whether the instance
    certifies: the solver fails on about one in a hundred random instances
    of this family (see README), which a seed-drawn family would turn
    into failures on some seeds only.
    """
    base = random.Random(f"sos-base:{index}")
    signs = tuple(rng.choice((1, -1)) for _ in XYZ)
    squares = " + ".join(f"({_cubic_text(_random_cubic(base), signs)})^2" for _ in range(4))
    return f'vars = x, y, z\nf = "{squares}"\nmode = check-sos\n'


def _sos_expect(text: str) -> dict:
    f = text.split('f = "', 1)[1].split('"', 1)[0]
    return {"certifies": True, "vars": XYZ, "f": f, "g": G_XYZ, "h": (), "N": 0}


def build(workload: str, seed: int, workdir: str) -> list:
    """The problems of one round of the workload, made from the seed.

    ``workdir`` is the checkout-relative directory generated documents are
    written to.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sos_batch":
        out = []
        for i in range(SOS_BATCH_SIZE):
            text = random_sos_text(i, rng)
            out.append(Problem(f"sos{i:02d}", "library", "check-sos", f"{workdir}/sos{i:02d}.txt",
                               text, _sos_expect(text)))
        return out
    if workload == "motzkin_boundary":
        out = []
        for k in MOTZKIN_POWERS:
            f = f"({MOTZKIN})*({G_XYZ})^{k}"
            text = f'vars = x, y, z\nf = "{f}"\nmode = check-sos\nhomogeneous = true\n'
            # Motzkin's form is not a sum of squares; M*g^k is for k >= 1.
            expect = {"certifies": k >= 1, "vars": XYZ, "f": f, "g": G_XYZ, "h": (), "N": 0}
            out.append(Problem(f"motzkin_k{k}", "library", "check-sos", f"{workdir}/motzkin_k{k}.txt",
                               text, expect))
        return out
    if workload == "stengle_odd":
        # Stengle: no odd power of f is a sum of squares, so nothing certifies
        # and the scan must reach m = 1 and m = 3.
        expect = {"certifies": False, "exponents": [1, 3], "file": STENGLE}
        return [Problem("stengle", "library", "odd-power", STENGLE_FILE, "", expect)]
    if workload == "cli_default":
        out = []
        for i in range(CLI_RANDOM_FILES):
            text = random_sos_text(SOS_BATCH_SIZE + i, rng)
            expect = dict(_sos_expect(text), exit=0)
            out.append(Problem(f"cli_sos{i}", "cli", "check-sos", f"{workdir}/cli_sos{i}.txt", text, expect))
        out.append(Problem("cli_perturbed", "cli", "certify", PERTURBED_FILE, "",
                           dict(PERTURBED, certifies=True, exit=0, file=PERTURBED)))
        out.append(Problem("cli_constrained", "cli", "certify", CONSTRAINED_FILE, "",
                           dict(CONSTRAINED, certifies=True, exit=0, file=CONSTRAINED)))
        out.append(Problem("cli_epsilon", "cli", "epsilon", EPSILON_FILE, "",
                           {"certifies": True, "exit": 0, "epsilon": EPSILON, "file": EPSILON}))
        return out
    raise ValueError(f"unknown workload {workload!r}")
