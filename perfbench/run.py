#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

prints the benchmark's report; its last line is one JSON object, and the
exit code is non-zero when the build or any output check fails.

    python3 perfbench/run.py --steadiness N --workload W --seconds S [--trace 0|1] [--first-seed K]

runs the workload N times with seeds K, K+1, ... (default K=1) and prints,
for every metric and for the run's median host factor (see
perfbench/NOTES.md), the median, the quartiles and the spread
(q3 - q1) / median.

Run from the root of a checkout of the repository; see perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run_timeout_s(seconds):
    # five set-ups, the timed phase and the untimed log replay
    return 3 * seconds + 60


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.exit("perfbench: %s holds no dune-project and lib/ to build" % ROOT)
    r = subprocess.run(
        # no shared dune cache: the build writes only under ROOT/_build
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def exe_args(a, seed):
    return [
        EXE,
        "--workload", a.workload,
        "--seed", str(seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
    ]


def declared_units(trace):
    """The metrics BENCHMARK.json declares for this mode, name -> unit."""
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_captured(a, seed):
    """Run one workload; return (exit code, host factor, result, report
    text). A run that times out, prints no result, or prints metrics other
    than the declared ones gets a non-zero code and result None."""
    try:
        p = subprocess.run(
            exe_args(a, seed), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=run_timeout_s(a.seconds),
        )
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print("perfbench: run exceeded %d s" % run_timeout_s(a.seconds), file=sys.stderr)
        return 1, None, None, out
    lines = p.stdout.strip().splitlines()
    factor = next(
        (float(l.split()[1]) for l in lines if l.startswith("host_factor ")),
        None,
    )
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the run printed no result", file=sys.stderr)
        return p.returncode or 1, factor, None, p.stdout
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    if got != declared_units(a.trace):
        print("perfbench: printed metrics differ from BENCHMARK.json", file=sys.stderr)
        return p.returncode or 1, factor, None, p.stdout
    return p.returncode, factor, res, p.stdout


def steadiness(a):
    runs = []
    failed_runs = 0
    for i in range(a.steadiness):
        seed = a.first_seed + i
        rc, factor, res, _ = run_captured(a, seed)
        if res is None:
            failed_runs += 1
            print("seed %d exit %d: no result" % (seed, rc), flush=True)
            continue
        runs.append((seed, rc, factor, res))
        print(
            "seed %d exit %d correct %s attempted %d failed %d host_factor %.4f"
            % (seed, rc, res["correct"], res["attempted"], res["failed"], factor),
            flush=True,
        )
    if len(runs) < 2:
        return 1
    series = {"host_factor": ("ratio", [r[2] for r in runs])}
    for name, m in runs[0][3]["metrics"].items():
        series[name] = (m["unit"], [r[3]["metrics"][name]["value"] for r in runs])
    print("%-30s %-9s %12s %12s %12s %8s  per run, by seed" % ("metric", "unit", "median", "q1", "q3", "spread"))
    for name, (unit, vals) in series.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-30s %-9s %12.6g %12.6g %12.6g %8.4f  %s" % (
            name, unit, med, q1, q3, spread, " ".join("%.4g" % v for v in vals)))
    return 0 if failed_runs == 0 and all(r[1] == 0 for r in runs) else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    build()
    if a.steadiness > 0:
        sys.exit(steadiness(a))
    rc, _, res, out = run_captured(a, a.seed)
    if res is None:
        # keep the partial report, but not as a result line
        sys.stdout.write("".join("# " + l + "\n" for l in out.splitlines()))
        sys.exit(rc)
    sys.stdout.write(out)
    sys.exit(rc)


if __name__ == "__main__":
    main()
