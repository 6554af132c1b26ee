#!/usr/bin/env python3
"""DGE benchmark: builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dge_build --seed 1 --seconds 15 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.

Other modes:
    --all            run every workload once and print every metric
    --self-test      plant one wrong answer per workload; each must fail
    --determinism    run dge_build and recrawl_refresh twice on one seed;
                     their counts must be identical
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dge_build", "recrawl_refresh", "query_mix")
RUN_TIMEOUT_S = 170

# Counts that must repeat exactly for a seed: (workload, line, metric).
DETERMINISTIC = [
    ("dge_build", "detail", "belief_accuracy"),
    ("dge_build", "detail", "ie.extractor_runs"),
    ("dge_build", "detail", "facts_rows"),
    ("dge_build", "detail", "beliefs"),
    ("dge_build", "layer", "ii.pairs_scored"),
    ("recrawl_refresh", "detail", "refresh_divergent_rows"),
    ("recrawl_refresh", "detail", "rebuilt_rows"),
    ("recrawl_refresh", "detail", "ie.refresh_extractor_runs"),
    ("recrawl_refresh", "detail", "lineage_nodes_per_round"),
]


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no structura sources at %s/src: run from a full checkout" % ROOT)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", out, "-j", jobs]):
            if subprocess.call(cmd, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "dge_bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, workload, seed, seconds, trace, plant_wrong=False):
    """Runs one workload; returns (lines before the result, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", os.path.join(build_dir(), "work")]
    if plant_wrong:
        cmd.append("--plant-wrong")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    return lines[:-1], result


def validate(result, trace):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    names = declared_metrics(trace)
    if list(result["metrics"]) != names:
        fail("metrics %s differ from BENCHMARK.json %s"
             % (list(result["metrics"]), names))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s is not a finite number" % name)


def parse_line(lines, prefix):
    """The JSON payload of the output line starting with `prefix`."""
    for line in lines:
        if line.startswith(prefix + " "):
            return json.loads(line[len(prefix) + 1:])
    return None


def self_test(binary, seed):
    ok = True
    for w in WORKLOADS:
        _, r = run_binary(binary, w, seed, 1, False, plant_wrong=True)
        caught = r["correct"] is False and r["failed"] >= 1
        print("self-test %-16s planted wrong answer %s (attempted %d, failed %d)"
              % (w, "caught" if caught else "MISSED", r["attempted"], r["failed"]))
        ok = ok and caught
    return ok


def determinism(binary, seed):
    values = {}
    for attempt in (0, 1):
        for w in ("dge_build", "recrawl_refresh"):
            lines, r = run_binary(binary, w, seed, 1, True)
            detail = parse_line(lines, "detail")["metrics"]
            for wl, line, name in DETERMINISTIC:
                if wl != w:
                    continue
                src = detail if line == "detail" else r["metrics"]
                values.setdefault((w, name), []).append(src[name]["value"])
    ok = True
    for (w, name), (a, b) in sorted(values.items()):
        same = a == b
        ok = ok and same
        print("determinism %-16s %-28s %s %s" % (w, name, a if same else (a, b),
                                                 "same" if same else "DIFFERS"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.all or args.self_test or args.determinism):
        p.error("one of --workload, --all, --self-test, --determinism is required")

    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary, args.seed) else 1)
    if args.determinism:
        sys.exit(0 if determinism(binary, args.seed) else 1)
    workloads = WORKLOADS if args.all else (args.workload,)
    for w in workloads:
        lines, result = run_binary(binary, w, args.seed, args.seconds,
                                   args.trace == 1)
        validate(result, args.trace == 1)
        if args.all:
            print("== %s" % w)
        for line in lines:
            print(line)
        print(json.dumps(result))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
