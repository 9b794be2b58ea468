#!/usr/bin/env python3
"""Benchmark for throughputlab: one workload per invocation, each run in a
fresh process.

Run from the root of the repository:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

It builds perfbench/ (a Go module over the repository's packages) into
.bench_build/perfbench, then, until --seconds have been measured, alternates
set-ups (the workload's prepare process) with timed runs, each in a fresh
process, and finally runs the workload's cross-path check once. CPU time and
peak RSS come from each run's rusage, so no run's heap carries over into the
next.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1 (untraced and traced runs
alternate, and trace.overhead_s is the difference of their median wall
times). Every sample, every span and the work directory's filesystem type
are written to .bench_build/perfbench/results/. Workload inputs and the
layer map are in perfbench/workloads.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
MIB = 1 << 20

# Workers and GOMAXPROCS: the CPUs available, at most two, so that results
# from machines of different sizes stay comparable.
MAX_WORKERS = 2
# Fewest timed runs per kind, untraced and traced, even past --seconds.
MIN_RUNS = 3
# A set-up shorter than this (every workload's but reload's) is repeated
# SETUP_REPS times per round, so that setup_s rests on many samples.
CHEAP_SETUP_S = 0.1
SETUP_REPS = 5
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """Environment that keeps the Go toolchain's caches inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOENV="off")
    return env


def build(env):
    """Brings the benchmark binary up to date and returns its path."""
    exe = os.path.join(BUILD, "tlbench")
    proc = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout.decode(errors="replace"))
    return exe


class Child:
    """One finished child process: its exit, rusage and JSON line."""

    def __init__(self, code, elapsed, cpu, rss_mb, data, stderr):
        self.code, self.elapsed, self.cpu, self.rss_mb = code, elapsed, cpu, rss_mb
        self.data, self.stderr = data, stderr

    def error(self):
        if self.code != 0 or self.data is None:
            return "exit %d: %s" % (self.code, self.stderr.strip()[-2000:])
        errs = self.data.get("errors") or []
        return "; ".join(errs) if errs else None


def spawn(argv, env, workdir):
    # Fresh file names: truncating a file that holds data makes ext4 flush
    # it on close, which would add disk waits between runs.
    spawn.count += 1
    out_path = os.path.join(workdir, "child-%d.out" % spawn.count)
    err_path = os.path.join(workdir, "child-%d.err" % spawn.count)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        lines = f.read().decode(errors="replace").strip().splitlines()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    os.remove(out_path)
    os.remove(err_path)
    data = None
    if proc.returncode == 0 and lines:
        try:
            data = json.loads(lines[-1])
        except ValueError:
            stderr += "\nunparseable output: " + lines[-1][:200]
    return Child(proc.returncode, elapsed, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, data, stderr)


spawn.count = 0


class Tally:
    """Counts operations (set-ups, runs, checks) and their failures."""

    def __init__(self, name):
        self.name, self.attempted, self.failed, self.errors = name, 0, 0, []

    def record(self, what, err):
        self.attempted += 1
        if err:
            self.failed += 1
            self.errors.append("%s: %s" % (what, err))
            print("perfbench: %s %s failed: %s" % (self.name, what, err), file=sys.stderr)
        return not err


def median(xs):
    return statistics.median(xs) if xs else 0.0


def bench_workload(name, design, bench, seed, seconds, trace, exe, env):
    wl = design["workloads"][name]
    workers = max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS))
    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    child_env = dict(env, GOMAXPROCS=str(workers))
    args = ["-workload", name, "-scale", wl["inputs"]["scale"], "-tests", str(wl["inputs"]["tests"]),
            "-seed", str(seed), "-workers", str(workers), "-dir", workdir]
    tally = Tally(name)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "workers": workers,
              "inputs": wl["inputs"], "setups": [], "runs": [], "check": None}
    try:
        # Set-ups and timed runs alternate, so that the set-ups sample the
        # same stretch of time as the runs; setup_s is their median. A set-up
        # is the workload's prepare process; one that takes less than
        # CHEAP_SETUP_S is repeated SETUP_REPS times, so that its median
        # rests on many samples. Each set-up is followed by as many runs as
        # take about as long as it did (at least one), so an expensive
        # set-up (reload writes its corpus) does not crowd the runs out.
        # With --trace 1 untraced and traced runs alternate.
        first_sha = None
        plain, traced, durations, setup_times, run_times = [], [], [], [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            t0 = time.perf_counter()
            cheap = setup_times and median(setup_times) < CHEAP_SETUP_S
            for _ in range(SETUP_REPS if cheap else 1):
                c = spawn([exe, "prepare"] + args, child_env, workdir)
                ok = tally.record("setup %d" % len(record["setups"]), c.error())
                record["setups"].append({"prepare_s": c.elapsed, "ok": ok, "prepare": c.data})
                if not ok:
                    break
                setup_times.append(c.elapsed)
                if "fs_type" not in record:
                    record["fs_type"], record["ram_backed"] = c.data["fs_type"], c.data["ram_backed"]
                    if not record["ram_backed"]:
                        print("perfbench: WARNING: work directory %s is on %s, not RAM-backed; corpus bytes "
                              "are kept in memory, but the checkpoint layer's fsyncs and renames reach that "
                              "disk" % (workdir, record["fs_type"]), file=sys.stderr)
            runs = max(1, round(median(setup_times) / median(run_times))) if ok and run_times else 1
            for _ in range(runs if ok else 0):
                is_traced = bool(trace) and i % 2 == 1
                run_id = "%s-s%d-r%d" % (name, seed, i)
                i += 1
                c = spawn([exe, "run"] + args + (["-trace"] if is_traced else []), child_env, workdir)
                run_times.append(c.elapsed)
                err = c.error()
                if not err:
                    first_sha = first_sha or c.data["sha256"]
                    if c.data["sha256"] != first_sha:
                        err = "output sha256 %s differs from the first run's %s" % (c.data["sha256"], first_sha)
                ok = tally.record("run %s" % run_id, err)
                sample = {"id": run_id, "traced": is_traced, "ok": ok, "elapsed_s": c.elapsed,
                          "cpu_s": c.cpu, "peak_rss_mb": c.rss_mb}
                record["runs"].append(sample)
                if c.code == 0 and c.data:
                    # A run that completed is timed even when its output
                    # failed a check; the failure is counted above.
                    sample.update({k: v for k, v in c.data.items() if k != "errors"})
                    for sp in sample.get("spans", []):
                        sp["run"] = run_id
                    (traced if is_traced else plain).append(sample)
            durations.append(time.perf_counter() - t0)
            enough = len(plain) >= MIN_RUNS and (not trace or len(traced) >= MIN_RUNS)
            if enough and time.perf_counter() + median(durations) > deadline:
                break
            if len(durations) >= 4 * MIN_RUNS and not (plain or traced):
                break  # no run completes: stop early
        if not plain:
            fail("%s: every run failed:\n%s" % (name, "\n".join(tally.errors[-3:])))

        # Cross-path check, once.
        c = spawn([exe, "check"] + args, child_env, workdir)
        err = c.error()
        if not err:
            bad = ["%s renders sha256 %s" % (path, sha) for path, sha in sorted(c.data["paths"].items())
                   if sha != first_sha]
            if bad:
                err = "differs from the timed runs' sha256 %s: %s" % (first_sha, "; ".join(bad))
        tally.record("check", err)
        record["check"] = c.data
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    corpus_bytes = median([r["corpus_bytes"] for r in plain])
    if not corpus_bytes and record["check"]:
        corpus_bytes = record["check"]["corpus_bytes"]
    values = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "tests_per_s": median([r["counts"][0]["tests"] / r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "corpus_mb": corpus_bytes / MIB,
        "setup_s": median(setup_times),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    if trace:
        names = {m["name"] for m in bench["per_layer"]}
        for r in traced:
            unknown = set(r["layers"]) - names
            if unknown:
                fail("%s: per-layer values missing from BENCHMARK.json: %s" % (name, sorted(unknown)))
        layer = {n: median([r["layers"].get(n, 0.0) for r in traced]) for n in names}
        layer["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - values["wall_s"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    record["metrics"] = metrics
    record["errors"] = tally.errors

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)
    return tally, metrics


def main():
    # Exit through SystemExit on SIGTERM, so that spawn kills and reaps the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of perfbench/workloads.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="measured time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        design = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = list(design["workloads"]) if a.workload == "all" else [a.workload]
    if any(n not in design["workloads"] for n in names):
        fail("unknown workload %r (want one of %s, or all)" % (a.workload, ", ".join(design["workloads"])))
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]

    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        fail("the throughputlab sources (go.mod, internal/) are not next to perfbench/")
    env = go_env()
    exe = build(env)
    attempted = failed = 0
    metrics = {}
    for n in names:
        tally, m = bench_workload(n, design, bench, a.seed, seconds, a.trace, exe, env)
        attempted += tally.attempted
        failed += tally.failed
        if len(names) == 1:
            metrics = m
            continue
        for k, v in m.items():
            print("%-9s %-32s %14.6g %s" % (n, k, v["value"], v["unit"]))
            metrics[n + "." + k] = v
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
