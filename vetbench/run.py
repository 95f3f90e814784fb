#!/usr/bin/env python3
"""End-to-end vetting benchmark for saintdroid (see vetbench/README.md).

    python3 vetbench/run.py --workload corpus-scan --seed 7 --seconds 12 --trace 0

Run from the root of a source checkout. The first run configures and builds
the CLI and the benchmark helpers into $CARGO_TARGET_DIR (default
.bench_build); every run then generates its inputs from --seed, drives the
real `saintdroid` commands as child processes, checks every result row
against the reference, and prints one JSON object as its last line. With
--trace 1 it instead runs the in-process traced replay and prints the
per-layer metrics.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus-scan", "serve-new", "update-stream", "fleet")
SETUP_REPEATS = 5        # cold model-cache fills per corpus-scan run
SAT_LEGS = 3             # closed-loop saturation legs (Poisson nominal)
NOMINAL_LEGS = 3         # minimum nominal legs per serve run
SERVE_LIMIT_MS = 100.0   # p99 limit of a ladder rung
E2E_UNITS = {"setup_s": "s", "apps_per_s": "1/s", "p50_ms": "ms",
             "p99_ms": "ms", "max_rps": "1/s", "peak_rss_mb": "MB",
             "cpu_s": "s"}


def fail(message):
    print("vetbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def quiet(cmd, log):
    with open(log, "ab") as out:
        return subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)


def build(trace):
    """Configures once, then brings the needed targets up to date."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("tools", "saintdroid_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no saintdroid sources here (missing %s)" % need)
    tree = os.path.join(build_dir(), "cmake")
    os.makedirs(tree, exist_ok=True)
    log = os.path.join(build_dir(), "build.log")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        if quiet(["cmake", "-S", HERE, "-B", tree,
                  "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("configure failed, see " + log)
    targets = ["sdbench", "saintdroid_cli"] + (["sdtrace"] if trace else [])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if quiet(["cmake", "--build", tree, "-j", jobs, "--target"] + targets,
             log) != 0:
        fail("build failed, see " + log)
    return {"sdbench": os.path.join(tree, "sdbench"),
            "sdtrace": os.path.join(tree, "sdtrace"),
            "saintdroid": os.path.join(tree, "saintdroid", "tools", "saintdroid"),
            "tree": tree}


def environment(bins):
    """Build type, compiler, cores, commit and source hash of this run."""
    cache = open(os.path.join(bins["tree"], "CMakeCache.txt")).read()
    compiler = "unknown"
    for line in cache.splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            try:
                compiler = subprocess.run([path, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
            except (OSError, IndexError):
                compiler = path
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    hc = subprocess.run([bins["sdbench"], "env"], capture_output=True,
                        text=True).stdout.strip()
    return {"build_type": "Release", "compiler": compiler,
            "nproc": os.cpu_count(), "hardware_concurrency": int(hc or 0),
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile; failures are passed in as +inf."""
    if not values:
        return float("inf")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class Run:
    """One benchmark run: inputs, helpers, tallies and samples."""

    def __init__(self, bins, env, workload, seed, seconds):
        self.bins, self.workload, self.seed, self.seconds = bins, workload, seed, seconds
        self.work = os.path.join(build_dir(), "work", "%s-%d" % (workload, seed))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.inputs = os.path.join(self.work, "inputs")
        # The reference model cache is keyed by the sources it was mined
        # with, so a change to the miner never meets a stale database.
        refcache = os.path.join(build_dir(), "refcache-" + env["source_sha256"])
        out = subprocess.run([bins["sdbench"], "gen", workload, str(seed),
                              self.inputs, refcache], capture_output=True, text=True)
        if out.returncode != 0:
            fail("input generation failed: " + out.stderr.strip())
        self.info = json.loads(out.stdout.splitlines()[-1])
        self.expected = os.path.join(self.inputs, "expected.tsv")
        self.manifest = [line.split("\t") for line in
                         open(os.path.join(self.inputs, "manifest.tsv")).read().splitlines()]
        self.jobs = max(1, min(4, os.cpu_count() or 1))
        self.log = os.path.join(self.work, "children.log")
        self.legs = 0
        self.attempted = 0
        self.failed = 0
        self.known = 0  # accepted rows that show a known defect (README.md)
        self.samples = {}
        self.notes = {}

    def apps(self, *roles):
        return [os.path.join(self.inputs, "apps", stem + ".apk")
                for role, stem, _ in self.manifest if role in roles]

    def fresh(self, name):
        self.legs += 1
        path = os.path.join(self.work, "%s%d" % (name, self.legs))
        os.makedirs(path)
        return path

    def sdrun(self, commands, watch=None, queue=None, check=None):
        out = os.path.join(self.work, "leg%d.json" % self.legs)
        cmd = [self.bins["sdbench"], "run", "--expected", self.expected,
               "--log", self.log, "--out", out]
        if watch:
            cmd += ["--watch", watch]
        if queue:
            cmd += ["--queue-name", queue]
        if check:
            cmd += ["--check", check]
        cmd.append("--")
        for i, c in enumerate(commands):
            cmd += (["--and"] if i else []) + c
        if subprocess.call(cmd) != 0:
            fail("sdbench run failed")
        return json.load(open(out))

    def tally(self, expected_rows, rows):
        """Counts a leg's rows: every expected app exactly once and correct."""
        self.attempted += expected_rows
        self.known += rows["known_defect"]
        self.failed += max(0, expected_rows - accepted(rows))
        if accepted(rows) != expected_rows:
            self.note_failure(rows)

    def note_failure(self, detail):
        """Keeps what a failing leg reported, so the record explains it."""
        self.notes.setdefault("failed_legs", []).append(detail)

    def cold_fill(self, sample=True):
        """`batch` over the warm-up set into an empty model cache."""
        cache = self.fresh("cache")
        journal = self.fresh("journal")
        warm = self.apps("warm")
        leg = self.sdrun([[self.bins["saintdroid"], "batch"] + warm +
                          ["--jobs", str(self.jobs), "--model-cache", cache,
                           "--journal", os.path.join(journal, "rows.jsonl")]],
                         watch=journal)
        self.tally(len(warm), leg["rows"])
        if sample:
            self.samples.setdefault("setup_s", []).append(leg["wall_s"])
        return cache


def accepted(counts):
    """Rows the oracle accepted: correct, or equal to a known defect's row."""
    return counts.get("ok", 0) + counts.get("known_defect", 0)


def batch_metrics(run, legs, count):
    """Medians over the repetitions of each repetition's own figures."""
    rates = [count / leg["wall_s"] for leg in legs]
    latencies = [[1e3 * t for t in leg["row_s"]] for leg in legs]
    rate = median(rates)
    run.samples["apps_per_s"] = rates
    run.samples["p50_ms"] = run.samples["p99_ms"] = [x for rep in latencies for x in rep]
    return {"apps_per_s": rate,
            "p50_ms": median([percentile(rep, 0.50) for rep in latencies]),
            "p99_ms": median([percentile(rep, 0.99) for rep in latencies]),
            # A scan has no arrival stream: the highest sustainable arrival
            # rate is its completion rate.
            "max_rps": rate,
            "peak_rss_mb": median([sum(leg["maxrss_kb"]) / 1024 for leg in legs]),
            "cpu_s": median([sum(leg["cpu_s"]) for leg in legs])}


def corpus_scan(run):
    """Warm `batch` over the corpus; set-up = cold fills of the model cache."""
    for _ in range(SETUP_REPEATS):
        cache = run.cold_fill()
    apps = run.apps("app")
    legs = []
    start = time.monotonic()
    while len(legs) < 3 or time.monotonic() - start < run.seconds:
        journal = run.fresh("journal")
        leg = run.sdrun([[run.bins["saintdroid"], "batch"] + apps +
                         ["--jobs", str(run.jobs), "--model-cache", cache,
                          "--journal", os.path.join(journal, "rows.jsonl")]],
                        watch=journal)
        run.tally(len(apps), leg["rows"])
        legs.append(leg)
    metrics = batch_metrics(run, legs, len(apps))
    metrics["setup_s"] = median(run.samples["setup_s"])
    run.notes["reps"] = len(legs)
    return metrics


def fleet(run):
    """`coordinate` + 2 `work` agents; set-up = time to publish the queue."""
    cache = run.cold_fill(sample=False)
    apps = run.apps("app")
    per_agent = str(max(1, run.jobs // 2))
    legs = []
    start = time.monotonic()
    while len(legs) < 3 or time.monotonic() - start < run.seconds:
        workdir = run.fresh("workdir")
        agents = [[run.bins["saintdroid"], "work", workdir, "--jobs", per_agent,
                   "--model-cache", cache, "--worker", name] for name in ("a", "b")]
        leg = run.sdrun([[run.bins["saintdroid"], "coordinate", workdir] + apps]
                        + agents, watch=workdir, queue="queue.sdwq",
                        check=os.path.join(workdir, "merged.jsonl"))
        # The merged journal must hold every app once, each row equal to the
        # batch reference. Every worker-journal row is an operation checked
        # the same way, and so are the leg's exit codes and queue publish.
        run.tally(len(apps), leg["checked"])
        bad_rows = leg["rows"]["wrong"] + leg["rows"]["failed"] + leg["rows"]["incomplete"]
        bad_exit = min(leg["codes"]) < 0 or max(leg["codes"]) > 1 or leg["queue_s"] < 0
        run.attempted += leg["rows"]["rows"] + 1
        run.failed += bad_rows + int(bad_exit)
        if bad_rows or bad_exit:
            run.note_failure({k: leg[k] for k in ("codes", "queue_s", "rows", "checked")})
        run.samples.setdefault("setup_s", []).append(leg["queue_s"])
        legs.append(leg)
    metrics = batch_metrics(run, legs, len(apps))
    metrics["setup_s"] = median(run.samples["setup_s"])
    run.notes["reps"] = len(legs)
    return metrics


def leg_rate(leg):
    """Correct responses per second, first send to last response."""
    return accepted(leg["counts"]) / max(1e-9, leg["last_recv"] - leg["first_send"])


def serve_leg(run, cache, sched, window=0):
    """One daemon lifetime: restart on a filled model cache, warm up, play."""
    state = os.path.relpath(run.fresh("state"), run.work)
    shutil.copytree(cache, os.path.join(run.work, state, "model-cache"))
    daemon = [run.bins["saintdroid"], "serve", state, "--jobs", str(max(1, run.jobs - 1)),
              "--queue", str(run.info["queue"])]
    if run.workload == "update-stream":
        daemon += ["--incr-cache", os.path.join(state, "incr")]
    out = os.path.join(run.work, "leg%d.json" % run.legs)
    cmd = [run.bins["sdbench"], "serve-leg", "--expected", run.expected,
           "--apps", os.path.join(run.inputs, "apps"),
           "--socket", os.path.join(state, "serve.sock"),
           "--setup", os.path.join(run.inputs, "sched-setup.tsv"),
           "--sched", os.path.join(run.inputs, "sched-%s.tsv" % sched),
           "--log", run.log, "--out", out]
    if window:
        cmd += ["--window", str(window)]
    if subprocess.call(cmd + ["--"] + daemon, cwd=run.work) != 0:
        fail("serve leg %s failed to start" % sched)
    leg = json.load(open(out))
    # Anything but a correct row is a failure: shed, rejected, timed out,
    # malformed, failed, incomplete or wrong.
    leg["errors"] = leg["requests"] - accepted(leg["counts"])
    # Load failures decide a ladder rung; a wrong row is a correctness
    # defect that every rung would repeat, counted in `failed` instead.
    leg["load_errors"] = leg["errors"] - leg["counts"].get("wrong", 0)
    leg["setup_errors"] = run.info["setup_requests"] - accepted(leg["setup_counts"])
    run.samples.setdefault("setup_s", []).append(leg["setup_s"])
    lat = [x if x >= 0 else float("inf") for x in leg["latency_ms"]]
    leg["lat"] = lat
    # Growing backlog: latency climbs through the leg. (A completion-rate
    # test would also fail a leg whose last answer met one host stall.)
    quarter = max(1, len(lat) // 4)
    leg["backlog"] = median(lat[-quarter:]) > 2 * median(lat[quarter:2 * quarter]) + 5
    late = sorted(x for x in leg["lateness_ms"] if x >= 0)
    leg["late_p99_ms"] = percentile(late, 0.99) if late else 0.0
    return leg


def serve_workload(run):
    """Saturation legs, the rate ladder upward, then nominal legs while
    --seconds lasts. A burst nominal schedule (every request due at once)
    saturates the daemon by itself, so its legs are the saturation legs."""
    cache = run.cold_fill(sample=False)
    start = time.monotonic()
    window = 2 * max(1, run.jobs - 1)
    burst = run.info["nominal_rate"] == 0
    sat_legs = [] if burst else [serve_leg(run, cache, "sat", window=window)
                                 for _ in range(SAT_LEGS)]
    counted = list(sat_legs)
    nominal_legs = []
    rungs = []
    max_rps = 0.0
    for r, rate in enumerate(run.info["ladder"]):
        # A failing rung is tried once more, so one burst of host noise does
        # not decide it.
        for attempt in range(2):
            leg = serve_leg(run, cache, "r%d" % r)
            p99 = percentile(leg["lat"], 0.99)
            passed = (leg["load_errors"] == 0 and p99 <= SERVE_LIMIT_MS
                      and not leg["backlog"])
            rungs.append({"rate": rate, "attempt": attempt, "passed": passed,
                          "p50_ms": percentile(leg["lat"], 0.5), "p99_ms": p99,
                          "errors": leg["errors"], "backlog": leg["backlog"],
                          "late_p99_ms": leg["late_p99_ms"], "requests": leg["requests"]})
            if passed:
                break
        if not passed:
            break
        counted.append(leg)
        max_rps = leg_rate(leg)
    while len(nominal_legs) < NOMINAL_LEGS or time.monotonic() - start < run.seconds:
        nominal_legs.append(serve_leg(run, cache, "nominal"))
    if burst:
        sat_legs = nominal_legs
    for leg in counted + nominal_legs:
        run.attempted += leg["requests"] + run.info["setup_requests"]
        run.known += leg["counts"].get("known_defect", 0) + \
            leg["setup_counts"].get("known_defect", 0)
        run.failed += leg["errors"] + leg["setup_errors"]
        if leg["errors"] or leg["setup_errors"]:
            run.note_failure({k: leg[k] for k in ("counts", "setup_counts", "code")})
    # Percentiles over the pooled requests of every nominal leg, so p99 has
    # at least ten samples beyond it; the per-leg ones go into the record.
    pooled = [x for leg in nominal_legs for x in leg["lat"]]
    p50s = [percentile(leg["lat"], 0.50) for leg in nominal_legs]
    p99s = [percentile(leg["lat"], 0.99) for leg in nominal_legs]
    run.samples["apps_per_s"] = [leg_rate(leg) for leg in sat_legs]
    run.samples["p50_ms"] = run.samples["p99_ms"] = pooled
    run.notes.update({"ladder": rungs, "latency_limit_ms": SERVE_LIMIT_MS,
                      "nominal_legs": len(nominal_legs),
                      "nominal_p50_ms": p50s, "nominal_p99_ms": p99s,
                      "late_p99_ms": median([leg["late_p99_ms"] for leg in nominal_legs])})
    return {"setup_s": median(run.samples["setup_s"]),
            "apps_per_s": median(run.samples["apps_per_s"]),
            "p50_ms": percentile(pooled, 0.50), "p99_ms": percentile(pooled, 0.99),
            "max_rps": max_rps,
            "peak_rss_mb": median([leg["maxrss_kb"] / 1024 for leg in nominal_legs]),
            "cpu_s": median([leg["cpu_s"] for leg in nominal_legs])}


def traced(run):
    """In-process replay with layer spans (sdtrace); prints per-layer metrics."""
    out = os.path.join(run.work, "trace.json")
    spans = os.path.join(build_dir(), "trace-%s-%d.json" % (run.workload, run.seed))
    cmd = [run.bins["sdtrace"], run.workload, run.inputs,
           os.path.join(run.work, "trace-work"), out, spans, str(run.jobs)]
    if subprocess.call(cmd, stdout=subprocess.DEVNULL) != 0:
        fail("traced replay failed")
    result = json.load(open(out))
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.known += result["known_defects"]
    run.notes.update({"spans": os.path.relpath(spans, ROOT), "self_s": result["self_s"],
                      "plain_wall_s": result["plain_wall_s"],
                      "traced_wall_s": result["traced_wall_s"]})
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bins = build(args.trace == 1)
    env = environment(bins)
    run = Run(bins, env, args.workload, args.seed, args.seconds)
    if args.trace:
        values = traced(run)
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in values.items()}
    else:
        body = {"corpus-scan": corpus_scan, "fleet": fleet,
                "serve-new": serve_workload, "update-stream": serve_workload}
        values = body[args.workload](run)
        # A percentile over failed requests is infinite; JSON has no such
        # number, so it reads as 1e9 (the run is then not correct anyway).
        metrics = {name: {"value": values[name] if math.isfinite(values[name]) else 1e9,
                          "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    correct = run.failed == 0 and run.attempted > 0
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "inputs": {"content_hash": run.info["content_hash"],
                         "apps": run.info["apps"], "oracle": run.info["oracle"]},
              "failed_frac": run.failed / max(1, run.attempted),
              "known_defect_rows": run.known,
              "sample_counts": {k: len(v) for k, v in run.samples.items()},
              "notes": run.notes, "metrics": metrics}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record))
    shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
