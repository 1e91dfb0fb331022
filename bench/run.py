"""Benchmark of whole ``ppp`` CLI runs, with a traced per-layer mode.

    python3 bench/run.py --workload seq-build --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Each job of a workload runs as a fresh ``python -m ppp.cli`` process with the
checkout's own ``src`` first on the path, one at a time (closed loop, one
client).  Every output is checked outside the timed region.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
replays the same jobs in-process (see ``replay.py``) and reports per-layer
self times and counts.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files go to ``.bench_tmp/`` and are removed at the end; traced spans
are written to ``.bench_out/``.  ``--out FILE`` also saves the result with
the environment it was measured in, for ``compare.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import mpmath

from workloads import WORKLOADS, Failed, Job, Wrong

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "arith.primes_up_to_s": "s",
    "arith.primorial_table_s": "s",
    "arith.binomial_row_s": "s",
    "arith.binomial_row_calls": "count",
    "transforms.binomial_transform_s": "s",
    "transforms.inverse_binomial_transform_s": "s",
    "transforms.calls": "count",
    "transforms.terms": "count",
    "certify.primary_direct_s": "s",
    "certify.primary_hall_s": "s",
    "certify.pseudo_hall_s": "s",
    "certify.counterexamples": "count",
    "construct.construct_genuine_s": "s",
    "construct.steps": "count",
    "egfinv.egf_reciprocal_s": "s",
    "egfinv.egf_triple_s": "s",
    "recur.guess_recurrence_s": "s",
    "recur.verify_recurrence_s": "s",
    "recur.apply_recurrence_s": "s",
    "bounds.parameters_s": "s",
    "bounds.j_scan_s": "s",
    "bounds.height_search_s": "s",
    "bounds.report_rest_s": "s",
    "bounds.H_bits": "bits",
    "bounds.J": "count",
    "cli.startup_s": "s",
    "cli.io_s": "s",
    "trace.overhead_s": "s",
}
SETUP_RUNS = 5
SLICE_S = 0.5
# probe() on a quiet CPU of the 2-core Xeon host the benchmark was set up on
PROBE_S = 0.022
# What "python -m ppp.cli ARGS" does, plus a note of the process's own peak
# RSS at exit.  ru_maxrss cannot give it: a child inherits the high-water
# mark of the parent it was forked from, here the benchmark with its inputs.
CLI = ("import atexit, os, runpy\n"
       "def peak():\n"
       "    with open('/proc/self/status') as f:\n"
       "        kib = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
       "    with open(os.environ['BENCH_PEAK_FILE'], 'w') as f:\n"
       "        f.write(kib)\n"
       "atexit.register(peak)\n"
       "runpy.run_module('ppp.cli', run_name='__main__', alter_sys=True)\n")
STARTUP_PROBE = ("import time; t = time.perf_counter(); import ppp.cli as c; "
                 "c.build_parser(); print(time.perf_counter() - t)")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # both change what the program does; the benchmark measures the defaults
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("PPP_PRECISION_BITS", None)
    return env


class Run:
    """One benchmark run of one workload: its scratch files and outcomes."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.tmp = tmp
        self.jobs: list[Job] = WORKLOADS[workload](seed)
        self.attempted = self.failed = 0
        self.correct = True
        self._verdicts: dict[str, str | None] = {}
        for i, job in enumerate(self.jobs):
            for name, content in job.files.items():
                (tmp / name).write_text(content, encoding="utf-8")
            (tmp / f"{i}.in").write_text(job.stdin, encoding="utf-8")
            job.argv = [a.replace("{tmp}", str(tmp)) for a in job.argv]

    def stdin(self, i: int) -> Path:
        return self.tmp / f"{i}.in"

    def record(self, job: Job, rc: int, out_path: Path, err_path: Path) -> str:
        """Check one job's output; identical outputs are checked once."""
        out = out_path.read_text(encoding="utf-8")
        err = err_path.read_text(encoding="utf-8")
        key = hashlib.sha256(f"{job.name}\0{rc}\0{out}\0{err}".encode()).hexdigest()
        if key not in self._verdicts:
            try:
                job.check(rc, out, err)
                self._verdicts[key] = None
            except Failed as exc:
                if isinstance(exc, Wrong):
                    self.correct = False
                self._verdicts[key] = f"{type(exc).__name__.lower()}: {exc}"
            except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
                self.correct = False
                self._verdicts[key] = f"wrong: unreadable output ({type(exc).__name__}: {exc})"
        problem = self._verdicts[key]
        self.attempted += 1
        if problem is not None:
            self.failed += 1
        return problem or "ok"


def probe() -> tuple[float, float]:
    """Wall and CPU seconds for a fixed mix of the program's kinds of work, mean of 2.

    Other tenants of the host slow a CPU by up to 1.7x for tens of seconds at
    a time; probe times on the pinned CPU track that speed.  The mix covers
    interpreter loops, big-integer products and sums, and mpmath logarithms.
    """
    big = 3**6000
    t, c = time.perf_counter(), time.process_time()
    for _ in range(2):
        acc = 0
        for i in range(80_000):
            acc += i * i % 7
        for i in range(100):
            acc += (big * (big + i)) >> 9000
        row = [big + i for i in range(3000)]  # a few MB, as the transforms use
        for _ in range(3):
            for j in range(1, 3000):
                row[j] += row[j - 1]
        with mpmath.workprec(4096):
            for k in range(3):
                mpmath.log(10**30 + k)
    return (time.perf_counter() - t) / 2, (time.process_time() - c) / 2


def run_process(argv: list[str], stdin: Path, out: Path, err: Path, sampled: bool = False,
                env: dict | None = None) -> dict:
    """Run one process to completion on this process's CPU.

    Returns the exit code, wall (running time) and cpu (user + sys).  When
    ``sampled``, the process is paused every SLICE_S seconds to probe the
    CPU's speed.  ``work`` is the sum over the slices of (slice time / mean
    wall time of the probes around it): the running time in probe units,
    free of the host's slow spells.  ``cpu_work`` is the CPU time divided by
    the probes' mean CPU time, weighted by slice: CPU time is not charged for
    time the host takes the CPU away, so it is scaled by CPU time only.
    """
    probes = [probe()] if sampled else []
    work = probe_cpu = 0.0
    with open(stdin, "rb") as fin, open(out, "wb") as fout, open(err, "wb") as ferr:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                env=env or child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            wall, exited = 0.0, False
            while not exited:
                exited = bool(select.select([pidfd], [], [], SLICE_S if sampled else None)[0])
                seg = time.perf_counter() - t
                wall += seg
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                    info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    exited = info.si_code != os.CLD_STOPPED
                    if not exited:
                        os.waitid(os.P_PID, proc.pid, os.WSTOPPED)
                if sampled:
                    probes.append(probe())
                    (w0, c0), (w1, c1) = probes[-2:]
                    work += seg / ((w0 + w1) / 2)
                    probe_cpu += seg * (c0 + c1) / 2
                if not exited:
                    os.kill(proc.pid, signal.SIGCONT)
                t = time.perf_counter()
        except BaseException:
            proc.kill()  # also ends a paused process
            raise
        finally:
            os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return {"rc": proc.returncode, "wall": wall, "cpu": cpu, "work": work,
            "cpu_work": cpu * wall / probe_cpu if sampled else 0.0}


def cold_starts(argv: list[str], run: Run, parse, sampled: bool = False) -> list[dict]:
    """SETUP_RUNS fresh processes, after one that warms the caches.

    ``parse(rc, stdout, result)`` returns the value of one start, or None
    when the command failed.
    """
    empty, out, err = run.tmp / "empty.in", run.tmp / "setup.out", run.tmp / "setup.err"
    empty.write_text("")
    starts = []
    for i in range(SETUP_RUNS + 1):
        result = run_process(argv, empty, out, err, sampled)
        result["value"] = parse(result["rc"], out.read_text(), result)
        if result["value"] is None:
            run.correct = False
            print(f"  set-up command failed: {err.read_text()[-200:]}", flush=True)
            return [result | {"value": result["work"] or result["wall"]}]
        if i:
            starts.append(result)
    return starts


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics: repeat whole passes while the next one fits in ``seconds``.

    Times are in reference seconds: each process's ``work`` and ``cpu_work``
    (running and CPU time in probe units) times PROBE_S, the probe's time on
    a quiet CPU.  Per pass the jobs are summed; the median pass is reported.
    """
    sieve = [sys.executable, "-m", "ppp.cli", "sieve", "--kind", "primorial", "--n", "1"]
    setup = cold_starts(sieve, run, lambda rc, out, r: r["work"] if rc == 0 and out == "1\n1\n" else None,
                        sampled=True)
    passes = []
    start = time.perf_counter()
    while True:
        results = []
        for i, job in enumerate(run.jobs):
            out, err, peak = (run.tmp / f"{i}.{ext}" for ext in ("out", "err", "peak"))
            peak.unlink(missing_ok=True)
            r = run_process([sys.executable, "-c", CLI, *job.argv], run.stdin(i), out, err,
                            sampled=True, env=child_env() | {"BENCH_PEAK_FILE": str(peak)})
            r["rss"] = int(peak.read_text()) / 1024 if peak.exists() else 0.0
            status = run.record(job, r["rc"], out, err)
            print(f"  {job.name:<22} exit {r['rc']}  {r['wall']:8.3f} s  "
                  f"{r['work'] * PROBE_S:8.3f} ref s  {status}", flush=True)
            results.append(r)
        passes.append(results)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    def median_pass(value):
        return statistics.median(sum(value(r) for r in rs) for rs in passes)

    print(f"  {len(passes)} pass(es); plain wall {median_pass(lambda r: r['wall']):.3f} s")
    return {
        "wall_s": median_pass(lambda r: r["work"]) * PROBE_S,
        "cpu_s": median_pass(lambda r: r["cpu_work"]) * PROBE_S,
        "peak_rss_mb": max(r["rss"] for rs in passes for r in rs),
        "setup_s": statistics.median(r["value"] for r in setup) * PROBE_S,
    }


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, _, _, _), t in zip(spans, own):
        totals[name] += t
    return totals


def trace(run: Run, trace_file: Path) -> dict:
    """Per-layer metrics from in-process replays, untraced then traced, job by job."""
    importer = [sys.executable, "-c", STARTUP_PROBE]
    startup = statistics.median(
        r["value"] for r in cold_starts(importer, run, lambda rc, out, r: float(out) if rc == 0 else None))
    walls = {False: 0.0, True: 0.0}
    metrics: dict[str, float] = defaultdict(int)
    log = []
    for i, job in enumerate(run.jobs):
        for traced in (False, True):
            spec, prefix = run.tmp / f"{i}.spec", run.tmp / f"{i}.{int(traced)}"
            spec.write_text(json.dumps({"src": str(SRC), "argv": job.argv, "trace": traced,
                                        "stdin": str(run.stdin(i)), "bounds": job.bounds}))
            replayed = run_process(
                [sys.executable, str(Path(__file__).with_name("replay.py")), str(spec), str(prefix)],
                run.stdin(i), run.tmp / "replay.out", run.tmp / "replay.err")
            if replayed["rc"] != 0:
                raise RuntimeError(f"replay of {job.name} crashed: "
                                   f"{(run.tmp / 'replay.err').read_text()[-500:]}")
            result = json.loads(Path(f"{prefix}.json").read_text())
            status = run.record(job, result["rc"], Path(f"{prefix}.out"), Path(f"{prefix}.err"))
            walls[traced] += result["wall"]
        print(f"  {job.name:<22} exit {result['rc']}  {result['wall']:8.3f} s traced  {status}",
              flush=True)
        own = self_times(result["spans"])
        dur = defaultdict(float)
        for name, start, end, _ in result["spans"]:
            dur[name] += end - start
        for name, t in own.items():
            if name in ("cli.main", "cli.io"):
                metrics["cli.io_s"] += t
            elif name != "bounds.report":
                metrics[f"{name}_s"] += t
        if "bounds.report" in dur:
            metrics["bounds.report_rest_s"] += (
                dur["bounds.report"] - dur["bounds.parameters"] - dur["bounds.height_search"])
        for name, n in result["counts"].items():
            metrics[name] += n
        log.append({"job": i, "name": job.name, "spans": [
            {"id": k, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for k, s in enumerate(result["spans"])]})
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(log))
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    # one CPU for the harness, its probes and every job: a closed loop, one client
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        run = Run(workload, seed, tmp)
        print(f"{workload} (seed {seed}, {len(run.jobs)} jobs, trace {int(traced)})", flush=True)
        if traced:
            values = trace(run, ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json")
        else:
            values = measure(run, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not traced:
        print(f"  ops = {run.attempted} count\n  failed_ops = {run.failed} count")
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="also save the result and environment here")
    args = parser.parse_args(argv)
    # end through the clean-up paths, which stop the job being measured
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ppp" / "cli.py").is_file():
        print(f"error: no ppp sources at {SRC / 'ppp'}; run from a checkout", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.out:
        args.out.write_text(json.dumps({"environment": env, "seed": args.seed,
                                        "trace": args.trace, "results": results}, indent=1))
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
