#!/usr/bin/env python3
"""Builds and runs the ethergrid benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload fig1_sweep --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest            # equivalence tests
  python3 perfbench/run.py --ledger --seed 1     # ledger across workloads

The first call configures and builds perfbench/CMakeLists.txt (the
simulator libraries plus the benchmark) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench.  A benchmark run prints the benchmark
binary's result object as the last line of stdout; build output and
diagnostics go to stderr.  Any failure exits non-zero without a result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig1_sweep", "ftsh_pipeline", "grid_sharded")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = ("Makefile", "build.ninja")
        if not any(os.path.exists(os.path.join(build_dir, name))
                   for name in generated):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", target],
                       stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, target)


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run; returns (result line, parsed result)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("benchmark exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError("malformed result: %s" % lines[-1])
    return lines[-1], result


def ledger(binary, seed, seconds):
    """Traced runs of every workload, answering where the time goes."""
    metrics = {}
    for workload in WORKLOADS:
        _, result = run_once(binary, workload, seed, seconds, 1)
        metrics[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    layers = ("ledger.sim_share", "ledger.grid_share", "ledger.core_share",
              "shell.share", "obs.share", "ledger.shard_share",
              "ledger.residual_share")
    print("%-22s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for key in ("ledger.wall_s", "sim.events", "sim.ns_per_event") + layers + (
            "trace.overhead_pct",):
        print("%-22s" % key +
              "".join("%16.4g" % metrics[w][key] for w in WORKLOADS))
    fig1, grid = metrics["fig1_sweep"], metrics["grid_sharded"]
    print()
    print("Per-event cost gap: grid_sharded %.0f ns/event vs fig1_sweep %.0f "
          "ns/event (%.1fx); coordinator share of grid_sharded (threads=1) "
          "%.0f%%." % (grid["sim.ns_per_event"], fig1["sim.ns_per_event"],
                       grid["sim.ns_per_event"] / fig1["sim.ns_per_event"],
                       100 * grid["ledger.shard_share"]))
    print("Windows per cross-shard message: %.1f (%d windows, %d messages)."
          % (grid["shard.windows_per_msg"], grid["shard.windows"],
             grid["shard.msgs"]))
    print("Horizon scan: %.1f us per sweep at queue depth %d, %.0f%% of the "
          "workers' time (window p50 %.1f us, idle window %.1f us)."
          % (grid["shard.scan_us"], grid["sim.queue_depth_max"],
             100 * grid["shard.scan_share"], grid["shard.window_us_p50"],
             grid["shard.empty_window_us"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the equivalence tests")
    parser.add_argument("--ledger", action="store_true",
                        help="traced runs of every workload, summarised")
    args = parser.parse_args()
    try:
        if args.selftest:
            binary = build("perfbench_equivalence")
            return subprocess.run([binary, str(args.seed)],
                                  timeout=RUN_TIMEOUT_S).returncode
        binary = build("ethergrid_perfbench")
        if args.ledger:
            ledger(binary, args.seed, args.seconds)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        line, _ = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
