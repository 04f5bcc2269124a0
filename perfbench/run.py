"""tropimpl benchmark: batch jobs through the ``tropimpl.cli`` front end.

    python3 perfbench/run.py --workload adisc-gf101 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 40] [--trace 0|1]

One single-threaded client calls ``cli.main([...])`` in-process in a
closed loop: the next job starts when the previous one has written its
artifact, until the next job would end past ``--seconds`` (always at
least one job).  Every artifact is checked (see ``workloads.py``); a job
that raises, exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``job_s`` (median wall time
of one job), ``setup_s`` (median over fresh interpreters of the time from
start to ready: importing ``tropimpl`` and writing the input) and
``peak_rss_mb`` (peak resident memory of this process).  ``--trace 1``
runs one untraced job and two traced ones, and reports per-layer self
times and counts; it fails the run when tracing changes an artifact byte
or when a count differs between the two traced jobs.  Spans go to
``perfbench/.work/traces/``.  ``--all`` runs every workload in its own
process and prints one table.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

import workloads  # noqa: E402
from tracer import Tracer, is_installed  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
SETUP_PROBES = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("job_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Self times (``_s``) of the layers traced in tracer.TARGETS, stage
# totals (``_total_s``), then counts.
PER_LAYER = [(name, "s", "lower") for name in (
    "exactcore.gfp_echelon_s",
    "exactcore.gfp_kernel_s",
    "exactcore.crt_reconstruct_s",
    "exactcore.rational_kernel_s",
    "exactcore.saturate_s",
    "interpolate.row_eval_s",
    "interpolate.sample_s",
    "interpolate.verify_s",
    "interpolate.vandermonde_kernel_s",
    "interpolate.implicit_equation_s",
    "implicitize.get_trop_a_disc_s",
    "implicitize.get_tropical_cycle_s",
    "implicitize.reconstruct_polytope_s",
    "implicitize.get_vertex_s",
    "tropical.push_forward_cycle_s",
    "tropical.stable_sum_s",
    "polyhedra.polytope_init_s",
    "polyhedra.lattice_points_s",
    "polyhedra.cone_contains_s",
    "polyhedra.mixed_volume_s",
    "chow.chow_fan_s",
    "chow.chow_polytope_s",
    "chow.chow_form_s",
    "cli.self_s",
)] + [(name, "s", "lower") for name in (
    # stages, children included: what a stage costs the job in all
    "implicitize.get_trop_a_disc_total_s",
    "implicitize.get_tropical_cycle_total_s",
    "implicitize.reconstruct_polytope_total_s",
    "interpolate.implicit_equation_total_s",
    "chow.chow_polytope_total_s",
    "chow.chow_form_total_s",
)] + [(name, "count", "lower") for name in (
    "exactcore.gfp_kernel_calls",
    "exactcore.gfp_kernel_rows",
    "exactcore.gfp_kernel_nullity",
    "exactcore.crt_primes",
    "interpolate.rows",
    "interpolate.samples",
    "interpolate.vandermonde_kernel_calls",
    "implicitize.get_vertex_calls",
    "tropical.cycle_cones",
    "polyhedra.polytope_init_calls",
    "polyhedra.lattice_points_calls",
    "polyhedra.lattice_points_count",
    "polyhedra.cone_contains_calls",
    "polyhedra.mixed_volume_calls",
    "chow.chow_form_calls",
)] + [
    ("interpolate.kernel_useful_ratio", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def environment():
    """What the numbers depend on besides the code."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        # metadata only: importing numpy here would move its import cost
        # out of the first job, where every CLI run pays it
        "numpy": importlib.metadata.version("numpy"),
        "gmpy2": "present" if importlib.util.find_spec("gmpy2") else "absent",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


class Runner:
    """Runs one workload's job and checks its artifact."""

    def __init__(self, w, cli, seed, directory):
        self.w = w
        self.cli = cli
        self.seed = seed
        self.directory = directory
        self.inp, in_path = workloads.write_input(w, seed, directory)
        self.out_path = directory / "artifact"
        self.argv = [w.argv[0], "--in", str(in_path),
                     "--out", str(self.out_path), "--seed", str(seed),
                     *w.argv[1:]]
        self.units = w.units(self.inp)
        self.attempted = 0
        self.failed = 0
        self._checked = {}
        self._reported = set()

    def job(self, index=0):
        """The index-th job of the run: (wall seconds, artifact bytes or
        None, problems)."""
        self.inp, _ = workloads.write_input(self.w, self.seed, self.directory,
                                            index)
        self.units = self.w.units(self.inp)
        if self.out_path.exists():
            self.out_path.unlink()   # mfp-search appends
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(self.argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - t0
        if code != 0 or not self.out_path.exists():
            why = f"exit {code}: {out.getvalue().strip()}"
            return seconds, None, [(u, why) for u in range(self.units)]
        artifact = self.out_path.read_bytes()
        return seconds, artifact, self._check(artifact)

    def _check(self, artifact):
        # an artifact names its input (mfp records echo their triples), so
        # equal digests mean equal checks
        digest = hashlib.sha256(artifact).hexdigest()
        if digest not in self._checked:
            try:
                problems = list(self.w.check(artifact, self.inp, self.seed))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                problems = [(u, f"artifact lacks an expected field: {exc!r}")
                            for u in range(self.units)]
            if self.w.sha256 and digest != self.w.sha256:
                problems.append((0, f"artifact sha256 {digest} differs from "
                                    f"the reference {self.w.sha256}"))
            self._checked[digest] = problems
        return self._checked[digest]

    def account(self, problems):
        for unit, why in problems:
            if (unit, why) not in self._reported:
                self._reported.add((unit, why))
                print(f"{self.w.name}: FAILED unit {unit}: {why}",
                      file=sys.stderr)
        self.attempted += self.units
        self.failed += min(self.units, len({u for u, _ in problems}))

    def closed_loop(self, seconds):
        times = []
        start = time.perf_counter()
        while True:
            dt, _, problems = self.job(len(times))
            self.account(problems)
            times.append(dt)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(times) > seconds:
                return times


def probe_setup(w, seed, directory):
    """Seconds from starting a fresh interpreter to ready for a job."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), w.name, str(seed),
         str(directory)], stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        code = proc.wait(timeout=120)
    if code != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited {code}")
    return float(line) - t0


STAGES = [name[:-len("_total_s")] for name, _, _ in PER_LAYER
          if name.endswith("_total_s")]


def layer_metrics(tracers, traced_times, untraced_s):
    selfs = [t.self_times() for t in tracers]
    totals = [t.total_times(STAGES) for t in tracers]
    counts = tracers[0].counts
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith("_total_s"):
            layer = name[:-len("_total_s")]
            value = statistics.mean(t[layer] for t in totals)
        elif name == "trace.overhead_frac":
            value = statistics.mean(traced_times) / untraced_s - 1
        elif name == "interpolate.kernel_useful_ratio":
            calls = counts["interpolate.vandermonde_kernel_calls"]
            useful = counts["interpolate.vandermonde_kernel_useful"]
            value = useful / calls if calls else 0.0
        elif unit == "s":
            layer = "cli" if name == "cli.self_s" else name[:-2]
            value = statistics.mean(s.get(layer, 0.0) for s in selfs)
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out


def print_shares(metrics, traced_times):
    """Each layer's self time, then each stage's, as a share of the job."""
    total = statistics.mean(traced_times)
    times = [(m["value"], name) for name, m in metrics.items()
             if m["unit"] == "s" and m["value"]]
    for s, name in sorted(times, key=lambda t: (t[1].endswith("_total_s"),
                                                -t[0])):
        print(f"  {s / total:6.1%}  {s:9.4f} s  {name}")


def traced_pass(runner, trace_path):
    """One untraced job, then two traced ones; returns per-layer metrics."""
    untraced_s, reference, problems = runner.job()
    runner.account(problems)
    tracers, times = [], []
    for k in range(2):
        tracer = Tracer()
        with tracer:
            dt, artifact, problems = runner.job()
        if is_installed():
            raise RuntimeError("tracing wrappers were left installed")
        if artifact != reference:
            problems = problems + [(0, "artifact bytes differ with tracing "
                                       "on and off")]
        if k and tracer.counts != tracers[0].counts:
            diff = sorted(key for key in set(tracer.counts) |
                          set(tracers[0].counts)
                          if tracer.counts[key] != tracers[0].counts[key])
            problems = problems + [(0, f"counts differ between two traced "
                                       f"runs: {diff}")]
        runner.account(problems)
        tracers.append(tracer)
        times.append(dt)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        for k, tracer in enumerate(tracers):
            tracer.dump(fh, k)
    print(f"untraced job {untraced_s:.3f} s, traced jobs "
          f"{', '.join(f'{t:.3f}' for t in times)} s; spans in {trace_path}")
    metrics = layer_metrics(tracers, times, untraced_s)
    print_shares(metrics, times)
    return metrics


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tropimpl import cli
    return cli


def measure(w, seed, seconds, trace, probes=SETUP_PROBES):
    """Run one workload and return the result object."""
    cli = import_program()
    directory = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        runner = Runner(w, cli, seed, directory)
        if trace:
            metrics = traced_pass(
                runner, WORK / "traces" / f"{w.name}.jsonl")
        else:
            setups = []
            for k in range(probes):
                sub = directory / f"probe{k}"
                sub.mkdir()
                setups.append(probe_setup(w, seed, sub))
            times = runner.closed_loop(seconds)
            print(f"{w.name}: {len(times)} jobs, "
                  f"{', '.join(f'{t:.3f}' for t in times)} s; set-up "
                  f"{', '.join(f'{s:.3f}' for s in setups)} s")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "job_s": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in its own process; one table of every metric."""
    rows = []
    every = workloads.WORKLOADS + workloads.EXTRA_WORKLOADS
    for w in every:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w.name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w.name}: exit {proc.returncode}")
            rows.append(None)
            continue
        rows.append(json.loads(lines[-1]))
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    units["fail_frac"] = "ratio"
    width = max(len(n) for n in units) + 8
    print(f"{'metric':<{width}}" + "".join(
        f"{w.name:>16}" for w in every))
    for name, unit in units.items():
        cells = []
        for result in rows:
            if result is None:
                cells.append(f"{'-':>16}")
            elif name == "fail_frac":
                cells.append(f"{result['failed'] / result['attempted']:>16.4f}")
            else:
                cells.append(f"{result['metrics'][name]['value']:>16.4f}")
        print(f"{name + ' (' + unit + ')':<{width}}" + "".join(cells))
    ok = all(r is not None and r["correct"] for r in rows)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=[
        w.name for w in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS])
    group.add_argument("--all", action="store_true",
                       help="every workload, one process each, one table")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropimpl" / "cli.py").is_file():
        print(f"perfbench: no tropimpl sources in {SRC}", file=sys.stderr)
        return 2
    # one process, no extra threads: numpy is imported later, in the jobs
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    print("env: " + json.dumps(environment()))
    w = workloads.BY_NAME[args.workload]
    result = measure(w, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
