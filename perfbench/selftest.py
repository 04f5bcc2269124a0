"""Fast self-test of the benchmark harness, on tiny inputs.

    python3 perfbench/selftest.py

Runs the untraced and the traced pass on the README's quadratic
discriminant (mod 101 and by CRT) and plane curve and on one small
triangle triple, one untraced Chow job, shows that each check rejects a
corrupted artifact, that no tracing wrapper outlives its job, that
BENCHMARK.json matches the harness, and that the benchmark refuses to run
without the program's sources.  Exits 1 if any of these fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import tracer
import workloads

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def check_runs():
    for w in workloads.SELFTEST_WORKLOADS:
        for trace in (0, 1):
            result = run.measure(w, 3, 0.5, trace, probes=1)
            names = [n for n, _, _ in (run.PER_LAYER if trace
                                       else run.END_TO_END)]
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w.name} trace={trace}: artifacts pass their checks")
            expect(list(result["metrics"]) == names,
                   f"{w.name} trace={trace}: reports exactly its metrics")
            expect(not tracer.is_installed(),
                   f"{w.name} trace={trace}: no wrapper left installed")
    result = run.measure(workloads.BY_NAME["chow-quartic"], 1, 0.0, 0,
                         probes=1)
    expect(result["correct"] and result["attempted"] == 1,
           "chow-quartic: one untraced job passes its checks")


def corrupt(artifact, old, new):
    text = artifact.decode()
    if old not in text:
        raise ValueError(f"{old!r} not in the artifact")
    return text.replace(old, new, 1).encode()


def check_checks():
    """Each check must reject a plausible wrong artifact."""
    cli = run.import_program()
    directory = run.WORK / "selftest"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        def edit(old, new):
            return f"{old!r} -> {new!r}", lambda a: corrupt(a, old, new)

        cases = {
            "quadratic-gf101": [edit('"coeff": 97', '"coeff": 96'),
                                edit('"lattice_point_count": 2',
                                     '"lattice_point_count": 3')],
            "quadratic-crt": [edit('"coeff": -4', '"coeff": -3')],
            "plane-curve": [edit('"coeff": 2401', '"coeff": 2400'),
                            edit('"f_vector": [\n      3,\n      3',
                                 '"f_vector": [\n      3,\n      4')],
            "mfp-small": [edit('"kind": "fixed"', '"kind": "random"'),
                          ("no records", lambda a: b"")],
        }
        for name, edits in cases.items():
            w = workloads.BY_NAME[name]
            runner = run.Runner(w, cli, 3, directory)
            _, artifact, problems = runner.job()
            expect(artifact is not None and not problems,
                   f"{name}: reference artifact passes")
            for label, spoil in edits:
                expect(bool(w.check(spoil(artifact), runner.inp, 3)),
                       f"{name}: check rejects {label}")
        w = workloads.BY_NAME["quadratic-gf101"]
        runner = run.Runner(w, cli, 3, directory)
        expect(bool(runner._check(b"{}")),
               "an artifact without its fields counts as failed")
        w_ref = workloads.Workload(w.name, w.why, w.argv, w.make_input,
                                   w.check, sha256="0" * 64)
        runner.w = w_ref
        _, _, problems = runner.job()
        expect(any("sha256" in p for _, p in problems),
               "a changed artifact hash is reported")
        runner.argv = runner.argv + ["--field", "gf:100"]
        _, artifact, problems = runner.job()
        expect(artifact is None and len(problems) == 1,
               "a job that exits non-zero counts as failed")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def check_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]]
           == [w.name for w in workloads.WORKLOADS]
           and [w["why"] for w in spec["workloads"]]
           == [w.why for w in workloads.WORKLOADS],
           "BENCHMARK.json lists the harness's workloads and reasons")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == run.END_TO_END
           and [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json lists the harness's metrics")
    expect(spec["run_seconds"] == run.DEFAULT_SECONDS,
           "BENCHMARK.json run_seconds is the harness default")


def check_refuses_without_sources():
    empty = run.WORK / "empty"
    shutil.rmtree(empty, ignore_errors=True)
    (empty / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.HERE.parent / "BENCHMARK.json", empty)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, empty / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "adisc-gf101",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the benchmark exits non-zero, printing nothing")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def main():
    t0 = time.perf_counter()
    check_benchmark_json()
    check_refuses_without_sources()
    check_checks()
    check_runs()
    print(f"selftest: {len(failures)} failures in "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
