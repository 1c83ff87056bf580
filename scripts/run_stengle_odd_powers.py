"""Scan odd powers of a strictly positive polynomial that is never SOS.

No odd power of x^3 + (x*y^2 - x^2 - 1)^2 is a sum of squares; the scan
reports numerical evidence only (m = 1 is clearly negative, m = 3 sits on
the boundary of the cone and comes back borderline/undecided).
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import posicert as pc
from posicert.driver import render_report

PROBLEM = pathlib.Path(__file__).resolve().parent.parent / "problems" / "stengle.txt"


def main():
    spec = pc.parse_problem(PROBLEM.read_text())
    start = time.monotonic()
    report = pc.odd_power(spec)
    print(render_report(report))
    print(f"elapsed: {time.monotonic() - start:.1f} s")


if __name__ == "__main__":
    main()
