#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady --workload W [--repeats 10]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the ehdl libraries from src/ plus the
ehdl_perfbench program) into .bench_build/; later calls rebuild only what
changed. A measuring run then

  1. times fresh --setup-only processes, each building the workload's
     native AOT modules into its own empty cache directory (setup_s is the
     median of their CPU times, compilers included, each scaled to the
     reference host by the host speed that --probe processes measure
     around it),
  2. runs the workload once, reusing the last cache directory, and
  3. prints one JSON object as the last line of stdout: every end-to-end
     metric with --trace 0, every per-layer metric with --trace 1.

--steady runs two sets of --repeats runs (seeds 1..N) and prints the
median, quartiles and spread of every end-to-end metric per set, and how
far the second set's median moved from the first's, against the bounds in
BENCHMARK.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ehdl_perfbench")
WORKLOADS = ("sat64_apps", "caida_4q_host_ctl", "fuzz_diff")

# Seed of the recorded baseline, and the held-out seed a claimed gain must
# also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

# Cold set-ups timed per measuring run. A sat64_apps set-up compiles five
# native modules (~16 s on a 4-core x86 host), so it gets two samples; a
# fuzz_diff set-up is a process start of a few ms, so it gets nine.
SETUP_SAMPLES = {"sat64_apps": 2, "caida_4q_host_ctl": 3, "fuzz_diff": 9}

RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    """Keep compiler temporaries inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    env.pop("EHDL_AOT_DISABLE_NATIVE", None)
    return env


def build():
    """Configure once, then build incrementally. Raises on failure."""
    env = child_env()
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)


def fresh_dir(name):
    path = os.path.join(BUILD, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def last_json(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def host_speed():
    """Host speed relative to the reference host, from a --probe process."""
    proc = subprocess.run([BINARY, "--probe"], capture_output=True, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S, check=True)
    return float(last_json(proc.stdout)["host_speed"])


def children_cpu():
    """CPU seconds (user + system) of every child process reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_setups(workload, seed, count):
    """Cold set-ups, each timed and scaled to the reference host by the
    mean host speed probed just before and after it; returns (scaled
    times, last report, dir).

    A set-up's time is the CPU time of its process and of the compilers
    it runs. On the sim workloads that is its wall time within 1%; on
    fuzz_diff, a process start of ~3 ms, wall time also holds the wait
    for an idle vCPU to be scheduled again, which moved medians by 60%
    between runs on a shared host."""
    times, report, cache = [], None, None
    speed_before = host_speed()
    for i in range(count):
        cache = fresh_dir("aot-cache-%d" % i)
        start = children_cpu()
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--setup-only", "--aot-cache", cache],
            capture_output=True, text=True, env=child_env(),
            timeout=RUN_TIMEOUT_S)
        cpu = children_cpu() - start
        if proc.returncode not in (0, 3):
            raise RuntimeError("setup failed: " + proc.stderr.strip())
        report = last_json(proc.stdout)
        speed_after = host_speed()
        times.append(cpu * (speed_before + speed_after) / 2)
        speed_before = speed_after
    return times, report, cache


def module_kb(cache):
    total = 0
    for name in os.listdir(cache):
        if name.endswith(".so"):
            total += os.path.getsize(os.path.join(cache, name))
    return total / 1024.0


def measure(workload, seed, seconds, trace):
    """One measuring run; returns the result object."""
    samples = 1 if trace else SETUP_SAMPLES[workload]
    setup_times, setup, cache = time_setups(workload, seed, samples)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--aot-cache", cache]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("run failed with exit code %d" % proc.returncode)
    result = last_json(proc.stdout)
    metrics = result["metrics"]
    native = setup["native_loaded"] == 1 if setup["programs"] else True
    if trace:
        sim = setup["programs"] > 0
        metrics["aot.build_s"] = {"value": setup["aot_build_s"] if sim
                                  else 0.0, "unit": "s"}
        metrics["aot.module_kb"] = {"value": module_kb(cache) if sim
                                    else 0.0, "unit": "KiB"}
        metrics["aot.native_loaded"] = {"value": 1.0 if sim and native
                                        else 0.0, "unit": "bool"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times),
                               "unit": "s"}, **metrics}
    if not native:
        log("native AOT backend fell back during set-up")
        result["correct"] = False
        result["failed"] = result["attempted"]
    for i in range(samples):
        shutil.rmtree(os.path.join(BUILD, "aot-cache-%d" % i),
                      ignore_errors=True)
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(result, trace):
    """Every metric BENCHMARK.json declares for this mode must be present."""
    spec = load_spec()
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in want if n not in result["metrics"]]
    if missing:
        raise RuntimeError("missing metrics: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in want}


def steady(workload, repeats, seconds):
    """Two sets of `repeats` runs; print spread and drift per metric."""
    spec = load_spec()
    sets = []
    for set_no in range(2):
        runs = []
        for i in range(repeats):
            seed = DEFAULT_SEED + i
            res = measure(workload, seed, seconds, False)
            check_metrics(res, False)
            if not res["correct"] or res["failed"]:
                raise RuntimeError("seed %d: %d failed" % (seed, res["failed"]))
            runs.append(res)
            log("set %d seed %d done" % (set_no + 1, seed))
        sets.append(runs)
    ok = True
    print("%-26s %5s %12s %12s %12s %7s %7s %7s" %
          ("metric", "set", "q1", "median", "q3", "spread", "drift", "bound"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for set_no, runs in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            medians.append(med)
            drift = ""
            if set_no == 1:
                worse = (med - medians[0]) if m["better"] == "lower" \
                    else (medians[0] - med)
                rel = worse / medians[0] if medians[0] else 0.0
                drift = "%+.3f" % rel
                ok &= rel <= bound
            if name != "setup_s":
                ok &= spread <= bound
            print("%-26s %5d %12.6g %12.6g %12.6g %7.3f %7s %7.3f" %
                  (name, set_no + 1, q1, med, q3, spread, drift, bound))
    print("steady: %s" % ("yes" if ok else "no"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (baseline %d, held-out %d)"
                    % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--repeats", type=int, default=10)
    args = ap.parse_args()

    try:
        build()
        if args.steady:
            return steady(args.workload, args.repeats, args.seconds)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        check_metrics(result, bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench:", e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
