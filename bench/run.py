"""holoifs benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root::

    python3 bench/run.py --workload cantor-fine --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 0

The package is imported from ``src/`` of the checkout the script sits in, in
one process with ``HOLOIFS_THREADS`` unset (one worker).  Subprocesses (the
set-up probes and the CLI calls) run one at a time, never beside an
in-process operation.

With ``--trace 0`` the run measures the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter that imports
  ``holoifs.cli`` and loads the workload's configs (``probe.py``);
* ``cli_s``: median wall time of a fresh-process CLI call on the configs,
  including the check of its exit code and output;
* ``op_s.p50``: median wall time of one warm in-process operation;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics of ``tracing.py``, the median over traced operations
of each per-operation value, plus ``trace.overhead_s``.

Every operation's output is checked (``workloads.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary with
the sample counts, ``fail_ratio``, the ``op_s`` tail and the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120.0


def _unit(name: str) -> str:
    if name.endswith("_s") or name == "op_s.p50":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any raise is a failed operation
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def provenance(threads_env: str | None) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        # the value found in the environment; the run itself always unsets it
        "HOLOIFS_THREADS": threads_env if threads_env is not None else "unset",
    }


def _probe(inputs, env: dict) -> tuple[float, dict]:
    cmd = [sys.executable, str(BENCH / "probe.py"), *map(str, inputs.configs)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    wall = time.perf_counter() - t0
    return wall, json.loads(proc.stdout.decode().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Interleaved rounds of every measurement until ``seconds`` have passed.

    One round is a set-up probe, then a CLI call and an in-process operation
    (``trace`` off), or an untraced and a traced operation (``trace`` on).
    Interleaving spreads each metric's samples over the whole run, so a slow
    spell of the machine touches all of them alike.
    """
    import tracing
    import workloads

    inputs = workloads.make_inputs(workload, seed, WORK / f"{workload}-s{seed}-t{int(trace)}")
    systems = workloads.load(inputs)
    tally = Tally()

    def op(times: list, tracer=None):
        def body():
            if tracer is not None:
                tracer.op = len(times)
                tracer.install()
            try:
                t0 = time.perf_counter()
                try:
                    result = workloads.run_op(inputs, systems)
                finally:
                    times.append(time.perf_counter() - t0)
                data = workloads.check_op(inputs, systems, result)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            return result, data
        return tally.attempt(body)

    def cli_call():
        t0 = time.perf_counter()
        try:
            workloads.run_cli(inputs, ROOT, env, op_bytes)
        finally:
            cli_times.append(time.perf_counter() - t0)

    warm = op([])  # lazy set-up and allocator growth, checked but not timed
    op_bytes = warm[1] if warm else None
    probes: list = []
    cli_times: list = []
    times: list = []
    traced: list = []
    per_op: list = []
    tracer = tracing.Tracer()
    t_start = time.perf_counter()
    while len(probes) < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        probes.append(_probe(inputs, env))
        if not trace:
            tally.attempt(cli_call)
            op(times)
            continue
        # alternate which of the pair goes first, so neither gains from order
        if len(probes) % 2:
            op(times)
        done = op(traced, tracer)
        if not len(probes) % 2:
            op(times)
        values = tracer.per_op(len(traced) - 1)
        report = done[0] if done else None
        values["symmetry.prep_points"] = (sum(getattr(report, "prep_forward", ()))
                                          + sum(getattr(report, "prep_backward", ())))
        values["symmetry.functional_equations"] = len(getattr(report, "functional_equations", ()))
        per_op.append(values)

    samples = {"setup_s": [wall for wall, _ in probes], "op_s": times}
    if not trace:
        samples["cli_s"] = cli_times
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "cli_s": statistics.median(cli_times),
            "op_s.p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tracer.write(inputs.workdir / "trace.jsonl")
        samples["op_s_traced"] = traced
        metrics = {key: statistics.median(v[key] for v in per_op) for key in per_op[0]}
        metrics["cli.import_s"] = statistics.median(p["import_s"] for _, p in probes)
        metrics["cli.load_system.self_s"] = statistics.median(p["load_s"] for _, p in probes)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)

    return {"tally": tally, "metrics": metrics, "samples": samples, "workdir": inputs.workdir}


def _tail(times: list) -> str:
    n = len(times)
    if n < 11:
        return f"op_s.tail = n/a ({n} samples; a tail needs at least 11)"
    value = sorted(times)[n - 11]
    return (f"op_s.tail = {value:.6g} s (p{100.0 * (n - 10) / n:.0f}, "
            f"10 of {n} samples beyond it)")


def run_one(args, threads_env: str | None) -> int:
    env = {k: v for k, v in os.environ.items() if k != "HOLOIFS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), env)
    tally, metrics, samples = out["tally"], out["metrics"], out["samples"]
    prov = provenance(threads_env)

    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    print("  samples = " + ", ".join(f"{k}: {len(v)}" for k, v in samples.items()))
    if "op_s" in samples and not args.trace:
        print("  " + _tail(samples["op_s"]))
    print(f"  fail_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for err in tally.errors:
        print(f"  failure: {err}")
    print("  provenance = " + json.dumps(prov))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=prov, samples=samples, errors=tally.errors)
    (out["workdir"] / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holoifs" / "__init__.py").is_file():
        print(f"error: no holoifs package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads_env = os.environ.pop("HOLOIFS_THREADS", None)
    sys.path.insert(0, str(SRC))
    import holoifs
    import workloads

    if Path(holoifs.__file__).resolve().parent != (SRC / "holoifs").resolve():
        print(f"error: imported holoifs from {holoifs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, threads_env)


if __name__ == "__main__":
    sys.exit(main())
