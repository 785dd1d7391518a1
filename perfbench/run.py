#!/usr/bin/env python3
"""The AVIV end-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt: the repository's libraries, avivd and
trace_report from source, plus the avivbench driver) under .bench_build/.
It then runs the workload, prints the machine context and the run's notes,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and the run's spans are written as
Chrome trace JSON and checked with trace_report --validate. See
perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper-cold", "dag-scale", "serve-mixed")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170

# Sources the benchmark builds from or reads at run time.
REQUIRED = (
    "BENCHMARK.json",
    "src/driver/codegen.h",
    "examples/avivd.cpp",
    "tools/trace_report.cpp",
    "machines/arch1.isdl",
    "blocks/ex1.blk",
    "tests/golden",
)


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    step = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr)
    if step.returncode != 0:
        fail("build failed", 3)


def read_steal_s():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_context():
    model, mhz = "", 0.0
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and not model:
                model = value.strip()
            elif key == "cpu MHz" and not mhz:
                mhz = float(value)
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    return {"nproc": os.cpu_count(), "cpu_model": model, "cpu_mhz": mhz,
            "build_type": BUILD_TYPE, "loadavg": load}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("run from a full checkout; missing " + ", ".join(missing), 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    # Relative paths keep the unix socket path short and inside the checkout.
    os.chdir(ROOT)
    rel_build = os.path.relpath(BUILD, ROOT)
    scratch = os.path.join(".bench_build", "run-%d" % os.getpid())
    trace_out = os.path.join(".bench_build", "traces",
                             "%s-%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [os.path.join(rel_build, "avivbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--avivd", os.path.join(rel_build, "avivd"),
           "--scratch", scratch]
    if args.trace:
        cmd += ["--trace-out", trace_out]

    context = machine_context()
    steal_before = read_steal_s()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    context["run_s"] = round(time.monotonic() - started, 3)
    context["steal_s"] = round(read_steal_s() - steal_before, 3)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("avivbench exited with %d" % proc.returncode, 5)
    context["calibration_ms"] = result["calibration_ms"]

    failures = list(result["failures"])
    if args.trace:
        check = subprocess.run(
            [os.path.join(rel_build, "trace_report"), trace_out, "--validate",
             "--top", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.rstrip())
        if check.returncode != 0:
            failures.append("trace_report --validate rejected " + trace_out)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        got = result["metrics"].get(name)
        if got is None:
            failures.append("metric %s was not measured" % name)
            continue
        if got["unit"] != entry["unit"]:
            failures.append("metric %s has unit %s, expected %s"
                            % (name, got["unit"], entry["unit"]))
        metrics[name] = {"value": got["value"], "unit": entry["unit"]}

    print("context: " + json.dumps(context))
    for name, m in metrics.items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    for why in failures:
        print("perfbench: FAILED: " + why, file=sys.stderr)
    correct = not failures and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
