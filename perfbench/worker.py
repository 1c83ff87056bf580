"""The measured process of one benchmark run; started by ``run.py``.

It imports posicert from ``src/`` of the checkout it runs in, makes the
workload's inputs from the seed, writes and parses them (set-up), then runs
whole rounds of the workload for ``--seconds`` and writes
``result.json`` into ``--out``: set-up time, wall and CPU time per round,
peak RSS, every outcome, and the certificates.  With ``--trace 1`` the first
half of the time runs untraced rounds and the second half traced ones, and
the per-layer metrics of the traced rounds are written too.  With
``--setup-only`` it stops after set-up.

Set-up is timed from ``--t0``, a ``time.monotonic()`` reading the parent
takes just before it starts this process, so interpreter start and imports
count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # every thread, BLAS included
    return usage.ru_utime + usage.ru_stime


def _run_problem(problem, spec, root: Path, out: Path, posicert) -> dict:
    """One operation: its verdict, and its certificate text if it emitted one."""
    outcome = {"name": problem.name}
    try:
        if problem.run == "library":
            search = posicert.driver.odd_power if problem.command == "odd-power" else posicert.driver.certify
            report = search(spec)
            outcome["outcome"] = report.outcome
            outcome["exponents"] = [r.exponent for r in report.records]
            if report.certificate is not None:
                outcome["certificate"] = posicert.exact.format_certificate(report.certificate)
        else:
            cert_path = out / f"{problem.name}.cert"
            argv = [problem.command, str(root / problem.path), "--out", str(cert_path)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                outcome["exit"] = posicert.cli.main(argv)
            outcome["stdout"] = stdout.getvalue()
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()  # into worker.log
    return outcome


def _collect_cli_certificates(outcomes, out: Path) -> None:
    """Move certificates the CLI wrote into the outcomes, outside the timing."""
    for outcome in outcomes:
        path = out / f"{outcome['name']}.cert"
        if path.exists():
            outcome["certificate"] = path.read_text(encoding="utf-8")
            path.unlink()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    import posicert
    import posicert.cli  # noqa: F401  (the package does not import its CLI)

    if not Path(posicert.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"posicert imported from {posicert.__file__}, not from {src}")
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    workdir = out.relative_to(root).as_posix()
    problems = workloads.build(args.workload, args.seed, workdir)
    for p in problems:
        if p.text:
            (root / p.path).write_text(p.text, encoding="utf-8")
    texts = {p.name: (root / p.path).read_text(encoding="utf-8") for p in problems}

    def parse_all():
        return {p.name: posicert.parsing.parse_problem(texts[p.name]) for p in problems}

    specs = parse_all()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def one_round() -> dict:
        wall0, cpu0 = time.perf_counter(), _cpu()
        outcomes = [_run_problem(p, specs[p.name], root, out, posicert) for p in problems]
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        _collect_cli_certificates(outcomes, out)
        return {"wall_s": wall, "cpu_s": cpu, "outcomes": outcomes}

    def rounds_until(deadline: float) -> list:
        """Whole rounds while the next one, as long as the last, ends by the deadline."""
        done = [one_round()]
        while time.perf_counter() + done[-1]["wall_s"] <= deadline:
            done.append(one_round())
        return done

    start = time.perf_counter()
    if args.trace:
        import tracing

        untraced = rounds_until(start + args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        parse_all()  # the set-up parse, traced
        setup_parse = tracer.inclusive["parsing.parse"]
        traced, layer_metrics = [], []
        while not traced or time.perf_counter() + traced[-1]["wall_s"] <= start + args.seconds:
            tracer.reset()
            traced.append(one_round())
            metrics = tracer.metrics(traced[-1]["wall_s"])
            metrics["parsing.parse_s"] += setup_parse
            layer_metrics.append(metrics)
            if len(traced) == 1:
                with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
        per_layer = {k: statistics.median(m[k] for m in layer_metrics) for k in layer_metrics[0]}
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        per_layer["trace.overhead_s"] = per_layer["trace.round_s"] - untraced_wall
        rounds = untraced + traced
    else:
        rounds = rounds_until(start + args.seconds)
        untraced, per_layer = rounds, None

    # certificates are stored once per distinct text; outcomes keep the digest
    for r in rounds:
        for outcome in r["outcomes"]:
            text = outcome.pop("certificate", None)
            if text is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                outcome["cert_sha256"] = digest
                path = out / f"{outcome['name']}.{digest[:12]}.cert"
                if not path.exists():
                    path.write_text(text, encoding="utf-8")
                outcome["cert_file"] = path.name
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = int(next(line.split()[1] for line in fh if line.startswith("Threads:")))
    result = {
        "setup_s": setup_s,
        "untraced_rounds": len(untraced),
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threads,
        "per_layer": per_layer,
    }
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
