#!/usr/bin/env python3
"""Build the ΣVP benchmark binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload traffic|fleet|functional \
        --seed N --seconds S --trace 0|1

The first call configures and builds `perfbench/` (the simulator libraries
from `src/` plus `sigvp_perfbench`) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset; later calls only re-check the build. Build output goes
to `<build dir>/build.log`, so the benchmark's report is all that reaches
stdout. Its last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` reports every end-to-end
metric of BENCHMARK.json and `--trace 1` every per-layer one.

On the seed recorded in `perfbench/expected_digests.json` each scenario's
sim-domain digest must equal the recorded one; on other seeds only the
seed-independent invariants are checked. The exit status is nonzero on a
usage error, a failed build, a failed check or a malformed report.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("traffic", "fleet", "functional")
BINARY = "sigvp_perfbench"
# The benchmark binary's run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one ΣVP benchmark workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", BINARY, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")
    return out / BINARY


def expected_digest(workload, seed):
    recorded = json.loads((HERE / "expected_digests.json").read_text())
    if seed != recorded["seed"]:
        return None
    return recorded["digests"][workload]


def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_report(report, trace):
    """Returns the problems with the binary's final JSON (empty = well formed)."""
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"report keys {sorted(report)}")
        return problems
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(report["failed"], int) or report["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in report["metrics"].items()}
    if got != declared:
        problems.append(f"metrics/units {got} differ from BENCHMARK.json {declared}")
    return problems


def main(argv):
    args = parse_args(argv)
    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    digest = expected_digest(args.workload, args.seed)
    if digest is not None:
        cmd += ["--expect-digest", digest]

    # SIGVP_* variables switch tracing, tiers, caches and shards inside the
    # simulator; the benchmark sets every such knob itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIGVP_")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{BINARY} printed nothing (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(stdout, end="")
        fail(f"{BINARY}'s last line is not JSON (exit {proc.returncode})")
    problems = check_report(report, args.trace)
    if problems:
        print("\n".join(lines[:-1]))
        fail("; ".join(problems))

    print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not report["correct"] or report["failed"]:
        fail(f"{report['failed']} of {report['attempted']} scenarios failed their checks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
