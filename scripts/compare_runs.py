"""Print a fingerprint of the search's results on a fixed set of runs.

One line per run: its name, the outcome, every scan record (exponent,
status, rounding attempts, note, repr of t*) and the sha256 of the
certificate text with its length in bytes, after the certificate has been
re-checked by ``verify_certificate``, then the sha256 of that text without
its ``margin =`` line.  The margin is the float t*, so the second digest
covers only the exact content: two versions whose solves differ only in
t*'s last digits print the same one.  Then one line per ``dump-sdp`` output,
with the sha256 of its bytes and, in plain text, its ``blocks`` line
of block sizes, of each problem at the exponents its mode scans first: n = 0,
1 in certify and epsilon-margin mode, n = 0 in check-sos mode and m = 1, 3 in
odd-power mode.  Last, one line per ``positivity_precheck`` run, with its (negative,
zero, kept, total): each bundled problem at seeds 0 and 7, the random sums
of squares, and at seeds 0 and 7 an indefinite form and a polynomial
negative only near one grid point.  Two versions of the program that print
the same lines reach the same verdicts with byte-identical certificates,
SDPs and precheck results:

    PYTHONPATH=src python scripts/compare_runs.py > side.txt

on each version, then ``diff`` the two files.
"""

import hashlib
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import posicert as pc
from posicert import cli
from posicert.gram import monomials_up_to
from posicert.poly import Grading, Polynomial

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
MOTZKIN = "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2"
ROBINSON = (
    "x^6 + y^6 + z^6 - x^4*y^2 - x^2*y^4 - x^4*z^2 - x^2*z^4 - y^4*z^2 - y^2*z^4"
    " + 3*x^2*y^2*z^2"
)
G_XYZ = "x^2 + y^2 + z^2"
ODD_POWER = ("x^2 + y^2", "x^2*y^2*(x^2 + y^2 - 1)^2 + 1/100", "x^4 + x^3", "x^4 + y^4 + x^2*y^2 - x*y^3")
MIXED_H = '"1", "x + 2", "x^2 + y^2 - 1", "x*y + 3"'  # not graded, of degrees 0, 1, 2, 2
EPSILON = "2*x^2 + x*y + 3*y^2"
CHECK_SOS_WITH_H = 'vars = x, y\nf = "(x^2 - y^2)^2"\nh = ["x*y"]\nmode = check-sos\n'
FIRST_EXPONENTS = {"certify": (0, 1), "check-sos": (0,), "odd-power": (1, 3), "epsilon-margin": (0, 1)}
SEARCHES = {"certify": pc.certify, "check-sos": pc.certify, "odd-power": pc.odd_power, "epsilon-margin": pc.epsilon_margin}


def _documents():
    """(name, problem document) of every search run."""
    for name, f, top in (("motzkin", MOTZKIN, 4), ("robinson", ROBINSON, 3)):
        for k in range(top + 1):
            yield f"{name}_g{k}", f'vars = x, y, z\nf = "({f})*({G_XYZ})^{k}"\nmode = check-sos\n'
    for hs in (("x*y",), ("x^2 - y^2",), ("x*y", "x^2 - y^2")):
        h = ", ".join(f'"{text}"' for text in hs)
        yield f"square_h[{', '.join(hs)}]", f'vars = x, y\nf = "(x^2 - y^2)^2"\nh = [{h}]\nmode = certify\nn_max = 1\n'
    many = ", ".join(f'"x^2 + {i}*y^2 + 1"' for i in range(1, 13))  # 79 of the 2^12 products have a basis
    yield "many_h[12]", f'vars = x, y\nf = "x^4 + y^4 + 1"\nh = [{many}]\nmode = certify\nn_max = 0\n'
    yield "mixed_h", f'vars = x, y\nf = "x^4 + y^4 + 1"\nh = [{MIXED_H}]\nmode = certify\nn_max = 1\n'
    for f in ODD_POWER:
        yield f"odd[{f}]", f'vars = x, y\nf = "{f}"\nmode = odd-power\nm_max = 3\n'
    # certifies epsilon = 71/12 from epsilon* = 7.888, where a 1/16 grid would give 95/16
    yield f"epsilon[{EPSILON}]", (
        f'vars = x, y\nf = "{EPSILON}"\ng = "x^2 + y^2"\nh_margin = "x*y"\nmode = epsilon-margin\nn_max = 1\n'
    )
    yield from _dumped()


def _dumped():
    """(name, problem document) of every dump-sdp run."""
    yield "check_sos_h[x*y]", CHECK_SOS_WITH_H
    for path in sorted(PROBLEMS.glob("*.txt")):
        yield path.stem, path.read_text()


def _prechecked():
    """(name, spec, seed) of every precheck run."""
    for path in sorted(PROBLEMS.glob("*.txt")):
        for seed in (0, 7):
            yield path.stem, pc.parse_problem(path.read_text()), seed
    for name, spec in _random_sos(8, 733):
        yield name, spec, 0
    # negative at the first draws, and only on the grid, in a later batch
    for f in ("x^2 - y^2", "(x - 3/5)^2 + (y - 3/5)^2 - 1/1000"):
        for seed in (0, 7):
            yield f"indefinite[{f}]", pc.parse_problem(f'vars = x, y\nf = "{f}"\nmode = certify\n'), seed


def _random_sos(count: int, seed: int):
    """Sums of four squares of dense ternary cubics, as scripts/run_random_sos_suite.py draws them."""
    rng = random.Random(seed)
    monos = monomials_up_to(3, 3)
    for trial in range(count):
        total = Polynomial.zero(3)
        for _ in range(4):
            q = Polynomial(3, {ev: Fraction(rng.randint(-3, 3)) for ev in monos})
            total = total + q * q
        spec = pc.ProblemSpec(
            variables=("x", "y", "z"),
            grading=Grading.single(3),
            f=total,
            g=pc.sum_of_squared_variables(3),
            constraints=(),
            mode="check-sos",
        )
        yield f"sos{seed}_{trial}", spec


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _search_line(name: str, spec) -> str:
    report = SEARCHES[spec.mode](spec)
    records = [(r.exponent, r.status, r.rounding_attempts, r.note, repr(r.t_star)) for r in report.records]
    cert = "-"
    if report.certificate is not None:
        assert pc.verify_certificate(report.certificate).valid, name
        text = pc.format_certificate(report.certificate)
        exact = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("margin = "))
        cert = f"{_digest(text)} {len(text.encode())} {_digest(exact)}"
    return f"{name} {report.outcome} {records} {cert}"


def main():
    for name, text in _documents():
        print(_search_line(name, pc.parse_problem(text)), flush=True)
    for name, spec in _random_sos(8, 733):
        print(_search_line(name, spec), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = pathlib.Path(tmp) / "problem.txt", pathlib.Path(tmp) / "dump.txt"
        for name, text in _dumped():
            problem.write_text(text)
            for n in FIRST_EXPONENTS[pc.parse_problem(text).mode]:
                code = cli.main(["dump-sdp", str(problem), "--n", str(n), "--out", str(out)])
                digest, sizes = "-", "-"
                if code == 0:
                    text = out.read_text()
                    digest, sizes = _digest(text), text.splitlines()[1]  # "blocks d1 d2 ..."
                print(f"dump-sdp {name} n={n} exit={code} {digest} [{sizes}]", flush=True)
                out.unlink(missing_ok=True)
    for name, spec, seed in _prechecked():
        result = pc.positivity_precheck(spec, seed=seed)
        print(f"precheck {name} seed={seed} {(result.negative, result.zero, result.kept, result.total)}", flush=True)


if __name__ == "__main__":
    main()
