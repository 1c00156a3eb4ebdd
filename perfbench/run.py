#!/usr/bin/env python3
"""Benchmark driver for decasim: end-to-end host time per workload, and a
traced run for per-layer metrics.

Run from the repository root:

  python3 perfbench/run.py --workload gemm_full --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --update-refs [--workload W]
  python3 perfbench/run.py --compare A.json B.json

A run builds perfbench/CMakeLists.txt into .bench_build/cmake (the
repository's own decasim target, the host-speed probe, decasim's traced
twin and the layer microbenches), then starts fresh decasim processes on
the workload until --seconds is used up. Every process runs in an empty
scratch directory with HOME and TMPDIR inside it; files it leaves there
are listed in the result. Each scenario's JSON manifest, with elapsed_ms
stripped, must match the digest in perfbench/refs.json for the workload
and seed.

Host times are normalized to a reference host speed: every 0.2 s the
driver stops decasim, times one fixed chunk of host_probe work on the
same core, and resumes it. Times are divided by (mean chunk time /
PROBE_REF_NS); the pauses themselves are not counted.

The metrics, every metric by name with its unit, and the output check go
to stdout; the full result with the host fingerprint is written to
.bench_build/results/. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BIN = os.path.join(BUILD, "bin")
WORK = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
RESULTS = os.path.join(ROOT, ".bench_build", "results")
REFS = os.path.join(HERE, "refs.json")

# Scenario seeds the serving workloads rotate through; every one has a
# recorded reference. Seed 1 is the scenarios' default.
SCENARIO_SEEDS = list(range(1, 11))

# Each workload is a list of decasim invocations, run one after another
# as one sample. "{seed}" takes the scenario seed. A pinned workload is
# single-threaded and runs, with the probe, on one core; dse keeps every
# core because its pool runs on more than one. "enters" are the traced
# spans the workload must record: a traced sample without one of them
# fails, since a wrapper that is no longer called would otherwise read
# as a layer that got free.
WORKLOADS = {
    "gemm_full": {
        "procs": [["run", "fig12", "fig13", "fig14", "--threads=1"]],
        "scenarios": ["fig12", "fig13", "fig14"],
        "seeded": False,
        "pinned": True,
        "enters": ["kernels.gemm_steady", "kernels.gemm",
                   "compress.tile_pool"],
    },
    "serve_faults": {
        "procs": [["run", "serve_resilience", "--threads=1",
                   "--set", "seed={seed}"]],
        "scenarios": ["serve_resilience"],
        "seeded": True,
        "pinned": True,
        "enters": ["kernels.gemm_steady", "kernels.gemm",
                   "compress.tile_pool", "llm.fc_throughput",
                   "serve.step_cost", "serve.sim"],
    },
    "serve_load": {
        "procs": [["run", "serve_saturation", "--threads=1",
                   "--set", "requests=80000", "--set", "seed={seed}"]],
        "scenarios": ["serve_saturation"],
        "seeded": True,
        "pinned": True,
        "enters": ["kernels.gemm_steady", "kernels.gemm",
                   "compress.tile_pool", "llm.fc_throughput",
                   "serve.step_cost", "serve.sim"],
    },
    "dse": {
        "procs": [["run", "dse_campaign", "--set", "points=2471040",
                   "--threads=2"],
                  ["run", "dse_memory", "--threads=2"]],
        "scenarios": ["dse_campaign", "dse_memory"],
        "seeded": False,
        "pinned": False,
        "enters": ["kernels.gemm_steady", "kernels.gemm",
                   "roofsurface.campaign", "roofsurface.calibrate",
                   "roofsurface.validate", "roofsurface.error_distribution",
                   "roofsurface.explore_memory"],
    },
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by every traced run (0 where the workload
# never enters the layer).
TRACED_SCENARIOS = ["fig12", "fig13", "fig14", "serve_resilience",
                    "serve_saturation", "dse_campaign", "dse_memory"]
LAYER_UNITS = {
    "sim.event_queue.ns_per_event.mixed": "ns",
    "sim.event_queue.ns_per_event.far_future": "ns",
    "sim.memory.ns_per_line.ddr5": "ns",
    "sim.memory.ns_per_line.hbm": "ns",
    "sim.memory.ns_per_line.hbm3e": "ns",
    "sim.memory.sim_row_hit_ratio.ddr5": "frac",
    "sim.memory.sim_row_hit_ratio.hbm": "frac",
    "sim.memory.sim_row_hit_ratio.hbm3e": "frac",
    "kernels.gemm_steady.calls": "count",
    "kernels.gemm_steady.distinct": "count",
    "kernels.gemm_steady.self_s": "s",
    "kernels.gemm.calls": "count",
    "kernels.gemm.self_s": "s",
    "kernels.gemm.sim_cycles": "cycles",
    "kernels.gemm.cycles_per_s": "1/s",
    "kernels.sample_baseline_cache.hits": "count",
    "kernels.sample_baseline_cache.misses": "count",
    "compress.tile_pool.calls": "count",
    "compress.tile_pool.self_s": "s",
    "llm.fc_throughput.calls": "count",
    "llm.fc_throughput.self_s": "s",
    "serve.step_cost.calls": "count",
    "serve.step_cost.distinct": "count",
    "serve.step_cost.self_s": "s",
    "serve.sim.runs": "count",
    "serve.sim.self_s": "s",
    "serve.sim.requests_per_s": "1/s",
    "roofsurface.campaign.points_per_s": "1/s",
    "roofsurface.campaign.sim_p95_err_pct": "%",
    "roofsurface.calibrate.self_s": "s",
    "roofsurface.validate.self_s": "s",
    "roofsurface.explore_memory.self_s": "s",
    **{"runner.scenario.%s.self_s" % n: "s" for n in TRACED_SCENARIOS},
    "runner.outside_s": "s",
    "trace.overhead_frac": "frac",
}

PROC_TIMEOUT_S = 120.0
# Typical host_probe chunk time on a 4-vCPU 2.1 GHz Xeon VM, the
# reference speed. Normalized times are seconds at that speed.
PROBE_REF_NS = 6.0e6
PAUSE_EVERY_S = 0.2


class BenchError(Exception):
    """A condition that stops the benchmark without a result."""


# ---------------------------------------------------------------- build


def build():
    """Configure and build the benchmark targets. The traced targets are
    optional: a failure there only fails traced runs."""
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no decasim sources next to perfbench/ "
                             "(missing %s)" % need)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "wb") as log:
        def cmake(*args):
            return subprocess.run(["cmake", *args], stdout=log, env=env,
                                  stderr=subprocess.STDOUT).returncode == 0
        # Configure every time: a build that regenerates itself midway
        # does not know targets added by the regeneration.
        if not cmake("-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"):
            raise BenchError("cmake configure failed, see " + log_path)
        if not cmake("--build", BUILD, "-j", jobs, "--target", "decasim",
                     "host_probe", "spawn"):
            raise BenchError("building decasim failed, see " + log_path)
        return cmake("--build", BUILD, "-j", jobs, "--target",
                     "decasim_traced", "layer_bench")


# ---------------------------------------------------------- fingerprint


def fingerprint():
    """Host and build identity. Results compare only when `host`
    matches; `run` is recorded for the reader."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {}
    try:
        with open(os.path.join(BUILD, "build_info.json")) as f:
            info = json.load(f)
    except (OSError, ValueError):
        pass
    rev, dirty = "none", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        out = subprocess.run(git + ["rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
            st = subprocess.run(git + ["status", "--porcelain"],
                                capture_output=True, text=True)
            dirty = bool(st.stdout.strip())
    return {
        "host": {
            "cpu_model": cpu,
            "nproc": os.cpu_count(),
            "compiler": info.get("compiler", "unknown"),
            "build_type": info.get("build_type", "unknown"),
        },
        "run": {
            "loadavg_start": list(os.getloadavg()),
            "git_rev": rev,
            "git_dirty": dirty,
        },
    }


# ------------------------------------------------------ manifest parsing


def scenarios_of(doc):
    """decasim's JSON is a bare scenario object for one scenario and
    {"scenarios": [...]} for several."""
    if isinstance(doc, dict) and isinstance(doc.get("scenarios"), list):
        return doc["scenarios"]
    if isinstance(doc, dict) and "name" in doc:
        return [doc]
    raise ValueError("not a decasim manifest")


def digest(scenario):
    """Digest of one scenario's manifest with elapsed_ms stripped."""
    body = {k: v for k, v in scenario.items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(stdout, expected, refs):
    """Return (per-scenario problems, scenarios) for one process's stdout.
    `refs` maps scenario name to its reference digest."""
    try:
        got = scenarios_of(json.loads(stdout))
    except ValueError as e:
        return {n: "unparsable output: %s" % e for n in expected}, []
    by_name = {s.get("name"): s for s in got}
    problems = {}
    for name in expected:
        s = by_name.get(name)
        if s is None:
            problems[name] = "missing from output"
        elif s.get("status") != 0:
            problems[name] = "status %s" % s.get("status")
        elif name not in refs:
            problems[name] = "no reference recorded"
        elif digest(s) != refs[name]:
            problems[name] = "output differs from reference"
    return problems, got


def p95_err_pct(scenarios):
    """dse_campaign's printed p95 analytic-vs-sim error, in percent."""
    for s in scenarios:
        if s.get("name") != "dse_campaign":
            continue
        for sec in s.get("sections", []):
            m = re.search(r"p95 analytic-vs-sim relative error: ([0-9.]+)%",
                          sec.get("text", ""))
            if m:
                return float(m.group(1))
    return None


# ------------------------------------------------------------- processes


class Probe:
    """The host_probe process: one chunk of fixed work per request."""

    def __init__(self):
        self.p = subprocess.Popen([os.path.join(BIN, "host_probe")],
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
        for _ in range(3):
            self.chunk()

    def chunk(self):
        self.p.stdin.write("\n")
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        if not line:
            raise BenchError("host_probe exited")
        return int(line.split()[0])

    def close(self):
        self.p.stdin.close()
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()


class Proc:
    """One finished decasim process. Times are host seconds; `pauses`
    are the (start, end) CLOCK_MONOTONIC ns of its probe pauses."""

    def __init__(self, **kw):
        self.__dict__.update(kw)

    @property
    def paused(self):
        return sum(b - a for a, b in self.pauses) / 1e9


_counter = [0]


def send(pidfd, sig):
    """Signal the process; False once its launcher has reaped it, which
    can happen at any point after it exits."""
    try:
        signal.pidfd_send_signal(pidfd, sig)
        return True
    except ProcessLookupError:
        return False


def run_proc(binary, argv, probe, traced=False):
    """Run one decasim process in a fresh scratch directory; every
    PAUSE_EVERY_S stop it, time one probe chunk and resume it. A
    watchdog kills it after PROC_TIMEOUT_S."""
    _counter[0] += 1
    tag = str(_counter[0])
    scratch = os.path.join(WORK, tag)
    os.makedirs(os.path.join(scratch, "home"))
    os.makedirs(os.path.join(scratch, "tmp"))
    out_path = os.path.join(WORK, tag + ".out")
    spans_path = os.path.join(WORK, tag + ".spans.json") if traced else None
    env = {k: v for k, v in os.environ.items() if not k.startswith("DECA_")}
    env["HOME"] = os.path.join(scratch, "home")
    env["TMPDIR"] = os.path.join(scratch, "tmp")
    if spans_path:
        env["DECA_TRACE_OUT"] = spans_path
    chunks, pauses, timed_out = [], [], False
    with open(out_path, "wb") as out:
        t0 = time.monotonic_ns()
        # The launcher forks and execs decasim and reports its rusage, so
        # the peak RSS is decasim's and not this driver's (see spawn.cc).
        launcher = subprocess.Popen([os.path.join(BIN, "spawn"), binary,
                                     *argv], cwd=scratch, env=env,
                                    stdin=subprocess.PIPE, stdout=out,
                                    stderr=subprocess.PIPE, text=True)
        pidfd = None
        try:
            pidfd = os.pidfd_open(int(launcher.stderr.readline().split()[1]))
            # The launcher reaps decasim only after this; the pidfd then
            # names decasim for the rest of the run.
            launcher.stdin.close()
            deadline = t0 + int(PROC_TIMEOUT_S * 1e9)
            next_pause = t0 + int(PAUSE_EVERY_S * 1e9)
            while True:
                wait_ns = min(next_pause, deadline) - time.monotonic_ns()
                if select.select([pidfd], [], [], max(wait_ns, 0) / 1e9)[0]:
                    break
                if time.monotonic_ns() >= deadline:
                    timed_out = send(pidfd, signal.SIGKILL)
                    break
                a = time.monotonic_ns()
                if not send(pidfd, signal.SIGSTOP):
                    break
                chunks.append(probe.chunk())
                send(pidfd, signal.SIGCONT)
                b = time.monotonic_ns()
                pauses.append((a, b))
                next_pause = b + int(PAUSE_EVERY_S * 1e9)
            t1 = time.monotonic_ns()
            report = launcher.stderr.readline().split()
            launcher.wait()
        except BaseException:
            if pidfd is not None:
                send(pidfd, signal.SIGKILL)
            launcher.kill()
            launcher.wait()
            raise
        finally:
            if pidfd is not None:
                os.close(pidfd)
            launcher.stdin.close()
            launcher.stderr.close()
    if len(report) != 6 or report[0] != "exit":
        raise BenchError("launcher failed for %s" % argv)
    status, utime, stime = int(report[1]), float(report[2]), float(report[3])
    if not chunks:
        chunks.append(probe.chunk())
    with open(out_path, "rb") as f:
        stdout = f.read().decode(errors="replace")
    os.remove(out_path)
    left = []
    for dirpath, dirnames, filenames in os.walk(scratch):
        rel = os.path.relpath(dirpath, scratch)
        for n in filenames:
            left.append(os.path.normpath(os.path.join(rel, n)))
        if rel not in (".", "home", "tmp") and not filenames and not dirnames:
            left.append(rel + "/")
    shutil.rmtree(scratch)
    return Proc(wall=(t1 - t0) / 1e9, t1=t1, cpu=utime + stime,
                rss_mb=int(report[4]) / 1024.0,
                launcher_rss_mb=int(report[5]) / 1024.0,
                code=os.waitstatus_to_exitcode(status),
                timed_out=timed_out, stdout=stdout, left_behind=sorted(left),
                spans_path=spans_path, chunks=chunks, pauses=pauses)


def scenario_seed(seed):
    return SCENARIO_SEEDS[seed % len(SCENARIO_SEEDS)]


def invocation_argvs(workload, scen_seed):
    w = WORKLOADS[workload]
    s = str(scen_seed)
    return [[a.replace("{seed}", s) for a in argv] + ["--jobs=1",
                                                       "--format=json"]
            for argv in w["procs"]]


def ref_key(workload, seed):
    return str(scenario_seed(seed)) if WORKLOADS[workload]["seeded"] else "-"


def run_invocation(workload, seed, binary, refs, probe, traced=False):
    """One sample of a workload: its processes in order. Returns
    (procs, attempted, problems, scenarios)."""
    procs, problems, scenarios, attempted = [], {}, [], 0
    expected_all = WORKLOADS[workload]["scenarios"]
    for argv in invocation_argvs(workload, scenario_seed(seed)):
        expected = [n for n in expected_all if n in argv]
        attempted += len(expected)
        p = run_proc(binary, argv, probe, traced)
        procs.append(p)
        if p.timed_out or p.code != 0:
            why = "timed out" if p.timed_out else "exit code %d" % p.code
            problems.update({n: why for n in expected})
            continue
        if p.rss_mb <= p.launcher_rss_mb:
            problems.update({n: "peak RSS %.2f MB not above the launcher's "
                                "%.2f MB" % (p.rss_mb, p.launcher_rss_mb)
                             for n in expected})
            continue
        probs, got = check_outputs(p.stdout, expected, refs)
        problems.update(probs)
        scenarios.extend(got)
        p.elapsed = sum(s.get("elapsed_ms", 0.0) for s in got) / 1e3
    return procs, attempted, problems, scenarios


def slowdown(procs):
    """Host slowdown over a sample: mean probe chunk time against the
    reference. Chunks are evenly spaced in time, so the mean weighs the
    host's speed by how long it lasted."""
    chunks = [c for p in procs for c in p.chunks]
    return statistics.mean(chunks) / PROBE_REF_NS


def setup_of(proc, elapsed_s):
    """Process wall time outside its scenarios. elapsed_ms includes the
    pauses inside scenarios, so it is taken against the wall time that
    includes them too. A pause can also land after the last scenario,
    during rendering or exit. Such a pause starts within the final
    `setup` seconds of the process, which no pause inside a scenario
    can do while pauses outlast the real setup time. It is taken off."""
    setup = proc.wall - elapsed_s
    for a, b in reversed(proc.pauses):
        if a < proc.t1 - setup * 1e9:
            break
        setup -= (b - a) / 1e9
    return setup


def e2e_of(procs):
    """End-to-end metrics of one sample, normalized by its slowdown."""
    f = slowdown(procs)
    wall = sum(p.wall - p.paused for p in procs)
    setup = sum(setup_of(p, p.elapsed) for p in procs)
    cpu = sum(p.cpu for p in procs)
    return {
        "wall_s": wall / f,
        "cpu_s": cpu / f,
        "setup_s": setup / f,
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "raw_setup_s": setup,
        "slowdown": f,
    }


# ------------------------------------------------------------------ spans


def self_times(spans):
    """Map span id to self time in seconds: the span's duration minus
    the part of its interval its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], reach), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo - covered) / 1e9
    return out


def adopt_orphans(spans):
    """Give each root span on a pool worker thread a parent: the
    innermost span open on a scenario thread when it started. Worker
    spans run on behalf of the scenario that fanned them out, so their
    time is not the scenario's self time."""
    owners = {s["thread"] for s in spans
              if s["name"].startswith("runner.scenario.")}
    hosts = sorted((s for s in spans if s["thread"] in owners),
                   key=lambda s: s["start_ns"])
    for s in spans:
        if s["parent"] != -1 or s["thread"] in owners:
            continue
        inner = None
        for h in hosts:
            if h["start_ns"] > s["start_ns"]:
                break
            if h["end_ns"] >= s["start_ns"]:
                inner = h
        if inner is not None:
            s["parent"] = inner["id"]
    return spans


def remove_pauses(spans, pauses):
    """Shift span times (CLOCK_MONOTONIC ns) onto a clock that stops
    during the driver's probe pauses, so no span counts a pause."""
    starts = [a for a, _ in pauses]
    before = [0]
    for a, b in pauses:
        before.append(before[-1] + b - a)

    def shift(t):
        i = bisect.bisect_right(starts, t)
        if i and t < pauses[i - 1][1]:
            return pauses[i - 1][0] - before[i - 1]
        return t - before[i]

    for s in spans:
        s["start_ns"], s["end_ns"] = shift(s["start_ns"]), shift(s["end_ns"])
    return spans


def load_spans(path, pauses=()):
    with open(path) as f:
        spans = json.load(f)["spans"]
    # A span still open at exit has end_ns -1; it carries no time.
    spans = [s for s in spans if s["end_ns"] >= s["start_ns"]]
    return adopt_orphans(remove_pauses(spans, list(pauses)))


def layer_metrics(procs):
    """Per-layer metrics of one traced sample (all its processes), and
    the number of spans per name."""
    calls, self_s, incl_s, keys, attrs = {}, {}, {}, {}, {}
    outside = 0.0
    baseline = {"hits": 0, "misses": 0}
    p95 = None
    for p in procs:
        spans = load_spans(p.spans_path, p.pauses)
        own = self_times(spans)
        top = 0.0
        proc_baseline = {"hits": 0, "misses": 0}
        for s in spans:
            name = s["name"]
            dur = (s["end_ns"] - s["start_ns"]) / 1e9
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
            incl_s[name] = incl_s.get(name, 0.0) + dur
            a = s["attrs"]
            if "key" in a:
                keys.setdefault(name, set()).add(a["key"])
            for k, v in a.items():
                if k != "key":
                    attrs[(name, k)] = attrs.get((name, k), 0.0) + v
            if name.startswith("runner.scenario."):
                top += dur
                proc_baseline["hits"] = max(proc_baseline["hits"],
                                            a.get("baseline_hits", 0))
                proc_baseline["misses"] = max(proc_baseline["misses"],
                                              a.get("baseline_misses", 0))
            if name == "roofsurface.error_distribution" and p95 is None:
                p95 = a.get("p95")
        outside += p.wall - p.paused - top
        for k in baseline:
            baseline[k] += proc_baseline[k]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for layer in ("kernels.gemm_steady", "kernels.gemm", "compress.tile_pool",
                  "llm.fc_throughput", "serve.step_cost"):
        m[layer + ".calls"] = calls.get(layer, 0)
        m[layer + ".self_s"] = self_s.get(layer, 0.0)
    m["kernels.gemm_steady.distinct"] = len(keys.get("kernels.gemm_steady", ()))
    m["serve.step_cost.distinct"] = len(keys.get("serve.step_cost", ()))
    cycles = attrs.get(("kernels.gemm", "sim_cycles"), 0.0)
    m["kernels.gemm.sim_cycles"] = int(cycles)
    m["kernels.gemm.cycles_per_s"] = rate(cycles, incl_s.get("kernels.gemm", 0))
    m["kernels.sample_baseline_cache.hits"] = int(baseline["hits"])
    m["kernels.sample_baseline_cache.misses"] = int(baseline["misses"])
    m["serve.sim.runs"] = calls.get("serve.sim", 0)
    m["serve.sim.self_s"] = self_s.get("serve.sim", 0.0)
    m["serve.sim.requests_per_s"] = rate(
        attrs.get(("serve.sim", "requests"), 0.0), incl_s.get("serve.sim", 0))
    m["roofsurface.campaign.points_per_s"] = rate(
        attrs.get(("roofsurface.campaign", "points"), 0.0),
        incl_s.get("roofsurface.campaign", 0))
    m["roofsurface.campaign.sim_p95_err_pct"] = (p95 or 0.0) * 100.0
    for layer in ("calibrate", "validate", "explore_memory"):
        m["roofsurface.%s.self_s" % layer] = self_s.get(
            "roofsurface." + layer, 0.0)
    for n in TRACED_SCENARIOS:
        m["runner.scenario.%s.self_s" % n] = self_s.get(
            "runner.scenario." + n, 0.0)
    m["runner.outside_s"] = outside
    return normalize(m, slowdown(procs)), calls


def missing_spans(workload, calls):
    """The spans a workload must record that its traced sample lacks:
    each of its layers and each of its scenarios."""
    w = WORKLOADS[workload]
    need = w["enters"] + ["runner.scenario." + n for n in w["scenarios"]]
    return [n for n in need if not calls.get(n)]


def normalize(metrics, f):
    """Host times at the reference speed: divide times by the slowdown,
    multiply rates by it."""
    unit = {"s": 1.0 / f, "ns": 1.0 / f, "1/s": f}
    return {k: v * unit.get(LAYER_UNITS.get(k), 1.0)
            for k, v in metrics.items()}


# ------------------------------------------------------------------- runs


def load_refs():
    try:
        with open(REFS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def median_of(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def layer_bench(probe):
    """The microbenches, normalized by probe chunks taken around them."""
    before = [probe.chunk() for _ in range(5)]
    lb = subprocess.run([os.path.join(BIN, "layer_bench")],
                        capture_output=True, text=True, timeout=120)
    after = [probe.chunk() for _ in range(5)]
    if lb.returncode != 0:
        raise BenchError("layer_bench failed: " + lb.stderr.strip())
    f = statistics.mean(before + after) / PROBE_REF_NS
    return normalize(json.loads(lb.stdout), f)


def pin(workload):
    """Cores for this run: one for single-threaded workloads, all for
    the rest. The driver, the probe and decasim inherit them."""
    cores = sorted(os.sched_getaffinity(0))
    if WORKLOADS[workload]["pinned"]:
        cores = cores[-1:]
        os.sched_setaffinity(0, cores)
    return cores


def measure(args):
    refs = load_refs().get(args.workload, {}).get(
        ref_key(args.workload, args.seed), {})
    traced_ok = build()
    if args.trace and not traced_ok:
        raise BenchError("the traced build failed, see " +
                         os.path.join(BUILD, "build.log"))
    fp = fingerprint()
    fp["run"]["cores"] = pin(args.workload)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    plain = os.path.join(BIN, "decasim")
    traced = os.path.join(BIN, "decasim_traced")

    attempted, problems, left_behind = 0, [], []
    e2e_samples, layer_samples, traced_walls = [], [], []
    p95, durations, layer, kept_spans = None, [], {}, []
    probe = Probe()
    try:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for is_traced in ([False, True] if args.trace else [False]):
                procs, n, probs, scen = run_invocation(
                    args.workload, args.seed, traced if is_traced else plain,
                    refs, probe, traced=is_traced)
                attempted += n
                if is_traced and not probs:
                    layers, calls = layer_metrics(procs)
                    missing = missing_spans(args.workload, calls)
                    if missing:
                        probs = {k: "traced run recorded no %s span" %
                                 ", ".join(missing)
                                 for k in WORKLOADS[args.workload][
                                     "scenarios"]}
                problems += [{"scenario": k, "traced": is_traced,
                              "problem": v} for k, v in sorted(probs.items())]
                for p in procs:
                    left_behind += p.left_behind
                if probs:
                    continue
                if is_traced:
                    traced_walls.append(
                        sum(p.wall - p.paused for p in procs) /
                        slowdown(procs))
                    layer_samples.append(layers)
                    kept_spans = procs
                else:
                    e2e_samples.append(e2e_of(procs))
                    if p95 is None:
                        p95 = p95_err_pct(scen)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            # Start another sample only if it would end nearer the
            # budget than stopping now does.
            if elapsed + 0.5 * statistics.median(durations) >= args.seconds:
                break
        if args.trace and layer_samples and e2e_samples:
            layer = layer_bench(probe)
        fp["run"]["probe_chunk_ns_end"] = statistics.median(
            [probe.chunk() for _ in range(5)])
    finally:
        probe.close()

    failed = len(problems)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": scenario_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fp,
        "samples": len(durations),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / max(attempted, 1),
        "problems": problems,
        "left_behind": sorted(set(left_behind)),
        "e2e_samples": e2e_samples,
        "layer_samples": layer_samples,
    }
    metrics = {}
    if layer:
        values = median_of(layer_samples)
        values.update(layer)
        values["trace.overhead_frac"] = (
            statistics.median(traced_walls) /
            median_of(e2e_samples)["wall_s"] - 1.0)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
        result["spans_note"] = (
            "host core, DECA pipeline and TEPL queue have no public entry "
            "across translation units; their time is inside "
            "kernels.gemm.self_s")
    elif e2e_samples and not args.trace:
        values = median_of(e2e_samples)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in E2E_UNITS.items()}
        result["raw"] = {k: values["raw_" + k] for k in
                         ("wall_s", "cpu_s", "setup_s")}
        result["slowdown"] = values["slowdown"]
        if p95 is not None:
            result["campaign_p95_err_pct"] = p95
    result["metrics"] = metrics

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time())))
    # The last good traced sample's spans stay next to the result, with
    # the pauses (CLOCK_MONOTONIC ns) the driver took out of them.
    result["spans"] = []
    for i, p in enumerate(kept_spans):
        name = os.path.basename(path)[:-len(".json")] + ".spans%d.json" % i
        shutil.move(p.spans_path, os.path.join(RESULTS, name))
        result["spans"].append({"file": name, "pauses": p.pauses,
                                "wall_s": p.wall})
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    shutil.rmtree(WORK, ignore_errors=True)

    print_report(result, path)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(attempted, 1),
                      "failed": failed if metrics else max(failed, 1),
                      "metrics": metrics}))


def print_report(result, path):
    fp = result["fingerprint"]
    print("workload %s  seed %d (scenario seed %d)  trace %d  samples %d" % (
        result["workload"], result["seed"], result["scenario_seed"],
        result["trace"], result["samples"]))
    print("host: %s" % json.dumps(fp["host"], sort_keys=True))
    print("run:  %s" % json.dumps(fp["run"], sort_keys=True))
    print("output check: %d of %d scenario runs failed (fail_frac %.4f)" % (
        result["failed"], result["attempted"],
        result["failed"] / max(result["attempted"], 1)))
    for p in result["problems"]:
        print("  FAIL %s%s: %s" % (p["scenario"],
                                   " (traced)" if p["traced"] else "",
                                   p["problem"]))
    print("files left behind: %s" % (", ".join(result["left_behind"])
                                     or "none"))
    if "slowdown" in result:
        print("host slowdown %.4f (probe chunk / reference); raw host "
              "values: %s" % (result["slowdown"], ", ".join(
                  "%s %.6g s" % kv for kv in sorted(result["raw"].items()))))
    if "campaign_p95_err_pct" in result:
        print("  %-44s %14.4f %s" % ("campaign_p95_err_pct",
                                     result["campaign_p95_err_pct"], "%"))
    for k, m in result["metrics"].items():
        print("  %-44s %14.6g %s" % (k, m["value"], m["unit"]))
    if "spans_note" in result:
        print("note: " + result["spans_note"])
    print("result: " + os.path.relpath(path, ROOT))
    for sp in result["spans"]:
        print("spans:  " + os.path.relpath(os.path.join(RESULTS, sp["file"]),
                                           ROOT))


# ------------------------------------------------------------ references


def update_refs(workloads):
    build()
    refs = load_refs()
    os.makedirs(WORK, exist_ok=True)
    plain = os.path.join(BIN, "decasim")
    probe = Probe()
    for w in workloads:
        seeds = SCENARIO_SEEDS if WORKLOADS[w]["seeded"] else [0]
        for seed in seeds:
            table = {}
            for argv in invocation_argvs(w, seed):
                p = run_proc(plain, argv, probe)
                if p.code != 0 or p.timed_out:
                    raise BenchError("%s %s failed" % (w, argv))
                for s in scenarios_of(json.loads(p.stdout)):
                    if s.get("status") != 0:
                        raise BenchError("%s: %s status %s" % (
                            w, s.get("name"), s.get("status")))
                    table[s["name"]] = digest(s)
            key = str(seed) if seed else "-"
            refs.setdefault(w, {})[key] = table
            print("%s seed %s: %s" % (w, key, table), flush=True)
    probe.close()
    shutil.rmtree(WORK, ignore_errors=True)
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


# --------------------------------------------------------------- compare


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["fingerprint"]["host"] != b["fingerprint"]["host"]:
        raise BenchError("refusing to compare results from different hosts: "
                         "%s vs %s" % (a["fingerprint"]["host"],
                                       b["fingerprint"]["host"]))
    for k in ("workload", "seconds", "trace"):
        if a[k] != b[k]:
            raise BenchError("refusing to compare: %s differs (%s vs %s)" % (
                k, a[k], b[k]))
    print("%-44s %14s %14s %9s" % ("metric", "A", "B", "B/A-1"))
    for k, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"].get(k, {}).get("value")
        if vb is None:
            continue
        ch = "%+8.2f%%" % (100.0 * (vb / va - 1.0)) if va else "       -"
        print("%-44s %14.6g %14.6g %9s %s" % (k, va, vb, ch, m["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-refs", action="store_true",
                    help="record reference digests (all workloads, or "
                         "--workload)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result files from the same host")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
        elif args.update_refs:
            update_refs([args.workload] if args.workload
                        else sorted(WORKLOADS))
        elif args.workload:
            measure(args)
        else:
            ap.error("--workload is required")
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
