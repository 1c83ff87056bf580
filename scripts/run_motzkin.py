"""Certify the classical nonnegative-but-not-SOS ternary sextic.

Expected: margin clearly negative at n = 0, an exact rational certificate at
n = 1.  n = 1 is the boundary case: the optimal margin of the full system is
exactly zero there, and the search solves the face at the 12 grid zeros of
the target instead, whose margin is 1/2.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import posicert as pc
from posicert.driver import render_report

PROBLEM = pathlib.Path(__file__).resolve().parent.parent / "problems" / "motzkin.txt"


def main():
    spec = pc.parse_problem(PROBLEM.read_text())
    report = pc.certify(spec)
    print(render_report(report))
    cert = report.certificate
    if cert is not None:
        print()
        for block in cert.blocks:
            for sq in block.squares:
                print(f"  {sq.weight} * ({pc.format_polynomial(sq.poly, cert.variables)})^2")
        out = pathlib.Path("motzkin.cert")
        out.write_text(pc.format_certificate(cert))
        print(f"\ncertificate written to {out}")


if __name__ == "__main__":
    main()
