#!/usr/bin/env python3
"""Build and run the htnoc benchmark from the root of a checkout.

One run (prints the result JSON as the last line of standard output):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Trajectory record: run every workload of BENCHMARK.json untraced for its
`run_seconds`, once per seed 1..10, print each end-to-end metric's median
and A/A spread (the distance between its first and third quartile over
its median), and append the record, keyed by git revision and host, to
perfbench/trajectory.json:

    python3 perfbench/run.py --trajectory

The benchmark is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: .bench_build).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Seeds per workload in a trajectory record.
RUNS = 10


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr: standard output carries only the
    # benchmark's result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def capture(cmd):
    # Git must not look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.dirname(HERE)))
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host():
    rev = capture(["git", "rev-parse", "--short", "HEAD"])
    if rev != "unknown" and capture(["git", "status", "--porcelain"]) not in ("", "unknown"):
        rev += "+uncommitted"
    return {"rev": rev, "nproc": os.cpu_count(), "rustc": capture(["rustc", "-V"])}


def trajectory(binary):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    record = {"host": host(), "seconds": seconds, "workloads": {}}
    print(json.dumps(record["host"]))
    for workload in (w["name"] for w in bench["workloads"]):
        values, failed = {}, 0
        for seed in range(1, RUNS + 1):
            out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"],
                                 capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        row = {"failed_ops": failed, "metrics": {}}
        for name, v in values.items():
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            row["metrics"][name] = {"median": med, "aa_spread": (q[2] - q[0]) / med,
                                    "values": v}
            print(f"{workload:13s} {name:17s} median {med:<14.6g} "
                  f"A/A spread {(q[2] - q[0]) / med * 100:5.2f} %")
        print(f"{workload:13s} failed operations: {failed}")
        record["workloads"][workload] = row
    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            history = json.load(f)
    history.append(record)
    with open(TRAJECTORY, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")


def main():
    argv = sys.argv[1:]
    binary = build()
    if argv == ["--trajectory"]:
        trajectory(binary)
        return 0
    print("perfbench host: " + json.dumps(host()), file=sys.stderr)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
