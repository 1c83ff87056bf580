"""posicert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a posicert checkout.  The run starts the measured worker
(``worker.py``) and a few set-up probes as separate processes, then checks
every output apart from the program: each certificate is re-expanded with
sympy and re-verified by ``python3 -m posicert.cli verify`` in its own
process, and each verdict is compared with the answer known from
mathematics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Certificate digests are kept in ``perfbench/out/digests.json`` so that a run
reports whether the same code ever emitted different bytes for the same input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # set-up is timed in these plus the measured worker; the median is reported
WORKER_TIMEOUT_S = 150
VERIFY_TIMEOUT_S = 60
EPSILON_LINE = re.compile(r"outcome: certified epsilon = (\S+) at n = \d+")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    threads = str(len(os.sched_getaffinity(0)))  # nproc: BLAS pools stay within it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _start_worker(args, root: Path, out: Path, env: dict, *extra) -> dict:
    """Run worker.py to completion; its set-up clock starts just before launch."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), *extra]
    with open(out / "worker.log", "a", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=log, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {out / 'worker.log'}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if "--setup-only" in extra else {}


def _verify(paths, root: Path, env: dict, results: dict) -> None:
    """posicert verify, one process per certificate file: (exit code, seconds)."""
    for path in paths:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "posicert.cli", "verify", str(path)], cwd=root,
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                                  timeout=VERIFY_TIMEOUT_S)
            results[path] = (proc.returncode, time.perf_counter() - start, proc.stdout.strip())
        except subprocess.TimeoutExpired:
            results[path] = (None, time.perf_counter() - start, f"timed out after {VERIFY_TIMEOUT_S} s")


def _code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _record_digests(root: Path, workload: str, problems, rounds) -> tuple:
    """Compare certificate digests with earlier runs of the same code and
    inputs and with the other rounds of this run: (compared, differing)."""
    store = HERE / "out" / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    table = known.setdefault(_code_digest(root), {})
    inputs = {p.name: hashlib.sha256((root / p.path).read_bytes()).hexdigest()[:16] for p in problems}
    compared = differing = 0
    for r in rounds:
        for outcome in r["outcomes"]:
            digest = outcome.get("cert_sha256")
            if digest is None:
                continue
            key = f"{workload}/{outcome['name']}/{inputs[outcome['name']]}"
            if key in table:
                compared += 1
                if table[key] != digest:
                    differing += 1
                    print(f"determinism: {key} emitted {digest[:12]}, earlier {table[key][:12]}")
            else:
                table[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    os.replace(tmp, store)
    return compared, differing


def _check_outcome(problem, outcome, out: Path, verified: dict, checked: dict, check) -> str:
    """Empty string when the outcome is right, else why it is wrong."""
    expect = problem.expect
    if "error" in outcome:
        return outcome["error"]
    if "exit" in expect and outcome.get("exit") != expect["exit"]:
        return f"exit code {outcome.get('exit')}, expected {expect['exit']}"
    has_cert = "cert_file" in outcome
    if problem.run == "library" and (outcome["outcome"] == "certificate") != expect["certifies"]:
        return f"outcome {outcome['outcome']}, expected certificate: {expect['certifies']}"
    if has_cert != expect["certifies"]:
        return f"certificate emitted: {has_cert}, expected: {expect['certifies']}"
    if "exponents" in expect and outcome["exponents"] != expect["exponents"]:
        return f"records for {outcome['exponents']}, expected {expect['exponents']}"
    if not has_cert:
        return ""
    epsilon = None
    if "epsilon" in expect:
        m = EPSILON_LINE.search(outcome["stdout"])
        if m is None or not float(check.sympy.Rational(m.group(1))) > 0:
            return "no positive certified epsilon printed"
        epsilon = m.group(1)
    path = out / outcome["cert_file"]
    if (path, epsilon) not in checked:
        try:
            check.check_certificate(path.read_text(encoding="utf-8"), expect, epsilon)
            checked[(path, epsilon)] = ""
        except Exception as exc:  # a malformed certificate fails its problem, not the run
            checked[(path, epsilon)] = f"independent check: {type(exc).__name__}: {exc}"
    if checked[(path, epsilon)]:
        return checked[(path, epsilon)]
    code, _, text = verified[path]
    if code != 0 or text != "Valid":
        return f"posicert verify exited {code}: {text[-200:]}"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "posicert" / "__init__.py").is_file():
        print(f"error: {root} is not a posicert checkout (no src/posicert)", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _env(root)

    setups = [_start_worker(args, root, out, env, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    _start_worker(args, root, out, env)
    result = json.loads((out / "result.json").read_text())
    setups.append(result["setup_s"])
    rounds = result["rounds"]

    # separate-process verification runs while this process checks with sympy
    reference = out / "reference.cert"
    import check

    reference.write_text(check.REFERENCE_CERTIFICATE, encoding="utf-8")
    reference_mutants = []
    for i, mutant in enumerate(check.mutants(check.REFERENCE_CERTIFICATE).values()):
        reference_mutants.append(out / f"reference_mutant{i}.cert")
        reference_mutants[-1].write_text(mutant, encoding="utf-8")
    cert_files = sorted({out / o["cert_file"] for r in rounds for o in r["outcomes"] if "cert_file" in o})
    verified = {}
    verifier = threading.Thread(target=_verify, args=([reference, *reference_mutants, *cert_files],
                                                      root, env, verified))
    verifier.start()

    problems = {p.name: p for p in workloads.build(args.workload, args.seed, out.relative_to(root).as_posix())}
    errors = []
    try:
        check.self_check(check.REFERENCE_CERTIFICATE)
        if cert_files:
            check.self_check(cert_files[0].read_text(encoding="utf-8"))
        for p in problems.values():
            if "file" in p.expect:
                check.check_problem_file((root / p.path).read_text(encoding="utf-8"), p.expect["file"])
    except check.CheckError as exc:
        errors.append(f"self-check: {exc}")
    checked = {}
    verifier.join()
    if verified[reference][0] != 0 or any(verified[m][0] != 1 for m in reference_mutants):
        errors.append("self-check: posicert verify accepted a mutant or rejected the reference")
    attempted = failed = 0
    for r in rounds:
        for outcome in r["outcomes"]:
            attempted += 1
            why = _check_outcome(problems[outcome["name"]], outcome, out, verified, checked, check)
            if why:
                failed += 1
                print(f"FAILED {outcome['name']}: {why}")
    compared, differing = _record_digests(root, args.workload, problems.values(), rounds)

    untraced = rounds[: result["untraced_rounds"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(rounds) - len(untraced)} traced rounds of {len(problems)} problems; "
          f"{attempted} attempted, {failed} failed; worker threads {result['threads']}")
    print(f"determinism: {compared} certificates compared with earlier rounds and runs "
          f"of the same code and inputs, {differing} differed")
    for e in errors:
        print(e)
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["cli.verify_process_s"] = sum(verified[p][1] for p in verified)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in report.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
