"""Benchmark of the entwit CLI: certify, extend and the MDI audit.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

The benchmark is a closed loop with one client: it runs the workload's CLI
invocations one child process at a time (``python -m entwit.cli`` on the
checkout's ``src``), in whole rounds, and stops before a round that would end
after ``--seconds``.  Every output is checked (see ``checks.py``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it also
replays each round in this process through ``entwit.cli.main``, every
invocation once plain and once with the wrappers of ``tracing.py``
installed, and reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (machine facts,
per-invocation times, spans) goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

# One BLAS thread: the loop is single-client on a small shared machine, and
# the operators are at most a few hundred wide, so a second thread mostly adds
# run-to-run noise.  The value in effect is read back and recorded.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The speed of a shared machine drifts by up to ~1.7x within seconds.  The
# benchmark therefore pins itself and its children to one CPU and, while a
# child runs, times a ~1 ms task of its own (``Reference``) every
# SAMPLE_EVERY_S.  The child's wall time, less those samples, is scaled by
# REF_NOMINAL_S over the mean reference time around and during it: it reads
# as seconds on a machine where the reference task takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.0012
SAMPLE_EVERY_S = 0.05
# Start-up children: after one warm-up, a few before the first round and a
# few more at the start of every round, so that the median samples the whole
# run rather than one moment of it.
SETUP_FIRST = 3
SETUP_PER_ROUND = 2
DIRECT_VALUE_REPEATS = 5
REPLAY_REF_SAMPLES = 3
CHILD_TIMEOUT_S = 60
OUT_DIR = ".bench_out"

# Child that measures start-up: interpreter, numpy, then the entwit CLI module.
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import entwit.cli; print(t1 - t0, time.perf_counter() - t1)"
)


@dataclass
class OpResult:
    op: object
    raw_seconds: float
    seconds: float       # scaled to the reference speed
    code: int
    stdout: bytes
    checks: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or not all(ok for _, ok in self.checks)


class Reference:
    """A fixed Python-and-numpy task, independent of the program under test."""

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        a = rng.normal(size=(9, 9))
        self.np, self.a, self.b = numpy, a + a.T, rng.normal(size=(64, 64))
        self.samples: list[float] = []
        for _ in range(3):
            self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(10_000):
            total += k
        for _ in range(15):
            self.np.linalg.eigh(self.a)
            self.np.einsum("ij,j->i", self.a, self.a[0])
        for _ in range(2):
            self.b @ self.b
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]


class Runner:
    """Starts the children from the checkout root, one at a time."""

    def __init__(self, root: Path, ref: Reference):
        self.root, self.ref = root, ref
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.setup_walls: list[float] = []
        self.import_deltas: list[float] = []

    def child(self, cmd: list[str]) -> tuple[float, float, int, bytes]:
        """Run one child process to its end: its raw wall time, that time
        scaled to the reference speed, its exit code and its stdout."""
        samples = [self.ref.samples[-1]]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        while True:
            try:
                out, _ = proc.communicate(timeout=SAMPLE_EVERY_S)
                code = proc.returncode
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                    out, _ = proc.communicate()
                    code = -9
                    break
                samples.append(self.ref.sample())
        wall = time.perf_counter() - start - sum(samples[1:])
        samples.append(self.ref.sample())
        return wall, wall * REF_NOMINAL_S / statistics.mean(samples), code, out

    def setup(self, repeats: int) -> None:
        """Time start-up children: scaled wall time, and the entwit share of
        the import as the child timed it."""
        for _ in range(repeats):
            _, scaled, code, out = self.child([sys.executable, "-c", SETUP_CODE])
            if code != 0:
                raise RuntimeError(f"start-up child exited with {code}")
            self.setup_walls.append(scaled)
            self.import_deltas.append(float(out.split()[1]))

    def run_op(self, op, checks) -> OpResult:
        res = OpResult(op, *self.child([sys.executable, "-m", "entwit.cli", *op.argv, "--quiet"]))
        res.checks.append(("exit code 0", res.code == 0))
        if res.code == 0:
            try:
                doc = json.loads(res.stdout)
                res.checks += checks.check_config(doc, op.argv)
                res.checks += checks.CHECKS[op.kind](doc, op.expect)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                res.checks.append((f"document readable ({type(exc).__name__}: {exc})", False))
        return res


def blas_threads(numpy) -> int | None:
    """Thread count the BLAS library reports, or None if it cannot be asked."""
    import ctypes
    base = Path(numpy.__file__).parent
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in sorted(base.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "entwit" / "cli.py").is_file():
        print("error: run from the root of an entwit checkout (src/entwit/cli.py not found)",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.path.insert(0, str(root / "src"))

    # numpy reads the BLAS settings when it is first imported, so everything
    # that imports it comes after the environment is set.
    import numpy
    import entwit.cli
    import checks
    from workloads import WORKLOADS, make_round

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if Path(entwit.__file__).resolve().parent != (root / "src" / "entwit").resolve():
        print(f"error: imported entwit from {entwit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    work = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(cpus), "pinned_cpu": cpus[-1],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads_set": min(BLAS_THREADS, len(cpus)),
        "blas_threads_reported": blas_threads(numpy), "ref_nominal_s": REF_NOMINAL_S,
    }
    w_choi = checks.load_fixture(root, "choi")[0]
    ref = Reference(numpy)
    runner = Runner(root, ref)
    runner.child([sys.executable, "-c", SETUP_CODE])  # fills the bytecode cache
    runner.setup(SETUP_FIRST)
    tracer = tracing.Tracer() if args.trace else None

    rounds = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        r = len(rounds)
        runner.setup(SETUP_PER_ROUND)
        ops = make_round(args.workload, root, work / "inputs", args.seed, r)
        row = {"results": [runner.run_op(op, checks) for op in ops]}
        try:
            row["mdi"], direct_value = checks.check_mdi_identities(
                entwit, w_choi, numpy.random.default_rng([args.seed, r, 1]))
        except (ValueError, RuntimeError) as exc:
            row["mdi"] = [(f"MDI identities ran ({type(exc).__name__}: {exc})", False)]
            direct_value = None
        if tracer is not None:
            row.update(traced_replay(entwit, tracer, ref, row["results"], direct_value))
        rounds.append(row)
        now = time.perf_counter()
        if now - start + (now - t_round) > args.seconds:
            break

    results = [res for row in rounds for res in row["results"]]
    mdi_ops = [row["mdi"] for row in rounds]
    all_checks = [c for res in results for c in res.checks] + [c for m in mdi_ops for c in m]
    failed = sum(res.failed for res in results) + sum(not all(ok for _, ok in m)
                                                      for m in mdi_ops)
    attempted = len(results) + len(mdi_ops)
    # A wrong document from an invocation that exited 0 makes the run incorrect.
    correct = all(ok for res in results if res.code == 0 for _, ok in res.checks) and all(
        ok for m in mdi_ops for _, ok in m)
    if tracer is not None:
        metrics = layer_metrics(tracer, rounds, runner)
    else:
        metrics = end_to_end_metrics(rounds, runner)

    record = {
        "facts": dict(facts, rounds=len(rounds), ref_median_s=statistics.median(ref.samples)),
        "operations": {"attempted": attempted, "failed": failed,
                       "invocations": len(results),
                       "invocations_failed": sum(res.failed for res in results),
                       "checks": len(all_checks),
                       "checks_failed": sum(not ok for _, ok in all_checks)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_walls_s": runner.setup_walls,
        "invocations": [
            {"round": i, "argv": res.op.argv, "seconds": res.seconds,
             "raw_seconds": res.raw_seconds, "code": res.code,
             "failed_checks": [label for label, ok in res.checks if not ok]}
            for i, row in enumerate(rounds) for res in row["results"]
        ],
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    (work / "result.json").write_text(json.dumps(record))

    ops = record["operations"]
    print("facts: " + json.dumps(record["facts"], sort_keys=True))
    for label in sorted({label for label, ok in all_checks if not ok}):
        print(f"FAILED CHECK: {label}")
    print(f"rounds: {len(rounds)}; operations attempted {attempted}, failed {failed}; "
          f"invocations {ops['invocations']} (failed {ops['invocations_failed']}); "
          f"checks {ops['checks']} (failed {ops['checks_failed']})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def traced_replay(entwit, tracer, ref, results, direct_value) -> dict:
    """Replay the round in this process, each invocation plain and then
    traced.  The traced stdout of every invocation must equal its child's
    stdout byte for byte."""
    argvs = [res.op.argv + ["--quiet"] for res in results]

    def speed() -> float:
        return statistics.mean(ref.sample() for _ in range(REPLAY_REF_SAMPLES))

    plain, traced_total, traced = tracing.replay(entwit, tracer, argvs, speed)
    for res, (code, out) in zip(results, traced):
        res.checks.append(("traced stdout equals the child's stdout",
                           code == res.code and out == res.stdout))
    times = []
    for _ in range(DIRECT_VALUE_REPEATS if direct_value is not None else 0):
        t = time.perf_counter()
        direct_value()
        times.append(time.perf_counter() - t)
    return {"plain_s": plain * REF_NOMINAL_S, "traced_s": traced_total * REF_NOMINAL_S,
            "stdout_bytes": sum(len(out) for _, out in traced),
            "direct_value_ms": 1e3 * statistics.median(times) if times else float("nan")}


def end_to_end_metrics(rounds, runner) -> dict[str, tuple[float, str]]:
    def per_round(kind):
        return [sum(res.seconds for res in row["results"] if res.op.kind == kind)
                for row in rounds]

    trial_rates = [
        sum(res.op.trials for res in row["results"] if res.op.kind == "audit")
        / sum(res.seconds for res in row["results"] if res.op.kind == "audit")
        for row in rounds
    ]
    return {
        "setup_s": (statistics.median(runner.setup_walls), "s"),
        "certify_s": (statistics.median(per_round("certify")), "s"),
        "extend_s": (statistics.median(per_round("extend")), "s"),
        "audit_trials_per_s": (statistics.median(trial_rates), "trials/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, rounds, runner) -> dict[str, tuple[float, str]]:
    metrics = tracer.layer_metrics(len(rounds))
    metrics["cli.import_s"] = (statistics.median(runner.import_deltas), "s")
    metrics["mdiew.direct_value_ms"] = (
        statistics.median(row["direct_value_ms"] for row in rounds), "ms")
    metrics["serialization.stdout_bytes"] = (
        statistics.mean(row["stdout_bytes"] for row in rounds), "bytes")
    metrics["trace.overhead_s"] = (
        statistics.mean(row["traced_s"] - row["plain_s"] for row in rounds), "s")
    metrics["trace.wrapper_cost_s"] = (tracer.wrapper_cost_s() / len(rounds), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
