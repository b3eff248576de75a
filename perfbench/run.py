#!/usr/bin/env python3
"""Build and run the WanKeeper benchmark.

One run of one workload, as BENCHMARK.json describes it:

    python3 perfbench/run.py --workload rt_local --seed 1 --seconds 10 --trace 0

builds perfbench/ (and with it ../src) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, runs the wkbench binary, and prints its
check and metric lines followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. Exits 1 if a
correctness check failed and 2 if the program could not be built or run.

    python3 perfbench/run.py --selftest [--seconds 2]

runs every workload briefly, untraced and traced, and checks that every
metric of BENCHMARK.json is printed with its unit, that every correctness
check ran and passed, and that the layer split the workloads were chosen
for holds. It prints all metrics by name and unit and the tracing overhead
(traced minus untraced end-to-end value) per workload.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Wall limit of one wkbench run is this plus three times --seconds: room for
# the set-ups, drain and settle around the measured window on a slow host.
RUN_TIMEOUT_BASE_S = 120

# Checks each workload must run; codec_roundtrip only in the traced run.
CHECKS = {
    "rt_local": ["setup", "ops_completed", "consistency", "converged",
                 "frames_dropped"],
    "rt_shared_tcp": ["setup", "ops_completed", "consistency", "converged",
                      "frames_dropped"],
    "des_hostile5": ["sweep_ok"],
}
TRACED_CHECKS = {"rt_local": ["codec_roundtrip"],
                 "rt_shared_tcp": ["codec_roundtrip"]}

# The layer split the workloads were chosen for: (metric, workloads on which
# it must be non-zero); on every other workload it must read zero.
LAYER_SPLIT = [
    ("token.recalls_per_op", {"rt_shared_tcp", "des_hostile5"}),
    ("token.grants_per_op", {"rt_shared_tcp", "des_hostile5"}),
    ("broker.wan_forwards_per_op", {"rt_shared_tcp", "des_hostile5"}),
    ("rt.tcp_hop_us.p50", {"rt_shared_tcp"}),
    ("rt.hop_us.p50", {"rt_local", "rt_shared_tcp"}),
    ("codec.encode_ns", {"rt_local", "rt_shared_tcp"}),
    ("sim.events", {"des_hostile5"}),
    ("sim.events_per_s", {"des_hostile5"}),
    ("net.msgs_per_op", {"des_hostile5"}),
    ("span.wan_hop_ms.p50", {"des_hostile5"}),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds wkbench; returns its path or None."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "wkbench")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "wkbench",
                      "-j", "4"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                return None
    return binary


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (returncode, checks, metrics, ops, lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_BASE_S + 3 * seconds)
    except subprocess.TimeoutExpired:
        log("wkbench timed out: " + " ".join(cmd))
        return None
    checks, metrics, ops = {}, {}, None
    lines = r.stdout.splitlines()
    for line in lines:
        parts = line.split(" ", 3)
        if parts[0] == "check" and len(parts) >= 3:
            checks[parts[1]] = parts[2] == "ok"
        elif parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "ops" and len(parts) == 3:
            ops = (int(parts[1]), int(parts[2]))
    return r.returncode, checks, metrics, ops, lines


def select(spec, metrics, trace):
    """The metrics BENCHMARK.json lists for this mode; list of problems."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out, problems = {}, []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got[1] != m["unit"]:
            problems.append("unit of %s is %s, not %s"
                            % (m["name"], got[1], m["unit"]))
        else:
            out[m["name"]] = {"value": got[0], "unit": got[1]}
    return out, problems


def run_once(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload " + repr(args.workload))
        return 2
    binary = build()
    if binary is None:
        return 2
    res = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    if res is None or res[3] is None:
        return 2
    rc, checks, metrics, ops, lines = res
    for line in lines:
        print(line)
    selected, problems = select(spec, metrics, args.trace)
    for p in problems:
        log(p)
    correct = rc == 0 and not problems and bool(checks) and all(
        checks.values())
    print(json.dumps({"correct": correct, "attempted": ops[0],
                      "failed": ops[1], "metrics": selected}))
    return 0 if correct else 1


def selftest(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 2
    failures = []
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            res = run_binary(binary, name, 1, args.seconds, trace)
            if res is None or res[3] is None:
                failures.append("%s trace %d: no result" % (name, trace))
                continue
            rc, checks, metrics, _, _ = res
            results[(name, trace)] = metrics
            expected = CHECKS[name] + (TRACED_CHECKS.get(name, [])
                                       if trace else [])
            for c in expected:
                if c not in checks:
                    failures.append("%s trace %d: check %s did not run"
                                    % (name, trace, c))
                elif not checks[c]:
                    failures.append("%s trace %d: check %s failed"
                                    % (name, trace, c))
            if rc != 0:
                failures.append("%s trace %d: exit code %d" % (name, trace, rc))
            selected, problems = select(spec, metrics, trace)
            if not trace:
                problems += ["%s is 0" % m for m, v in selected.items()
                             if v["value"] == 0]
            failures += ["%s trace %d: %s" % (name, trace, p)
                         for p in problems]

    print("%-30s %-6s" % ("metric", "unit")
          + "".join("%16s" % w["name"] for w in spec["workloads"]))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for m in spec[group]:
            row = "%-30s %-6s" % (m["name"], m["unit"])
            for w in spec["workloads"]:
                v = results.get((w["name"], trace), {}).get(m["name"])
                row += "%16.6g" % v[0] if v else "%16s" % "-"
            print(row)
    print("tracing overhead (traced - untraced):")
    for m in spec["end_to_end"]:
        row = "%-30s %-6s" % (m["name"], m["unit"])
        for w in spec["workloads"]:
            a = results.get((w["name"], 0), {}).get(m["name"])
            b = results.get((w["name"], 1), {}).get(m["name"])
            row += "%16.6g" % (b[0] - a[0]) if a and b else "%16s" % "-"
        print(row)

    for metric, nonzero_on in LAYER_SPLIT:
        for w in spec["workloads"]:
            v = results.get((w["name"], 1), {}).get(metric)
            if v is None:
                continue
            if (v[0] != 0) != (w["name"] in nonzero_on):
                failures.append("layer split: %s = %g on %s"
                                % (metric, v[0], w["name"]))
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        if args.seconds is None:
            args.seconds = 2
        return selftest(args)
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
