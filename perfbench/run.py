#!/usr/bin/env python3
"""The ICB checker's benchmark: time to verdict, drain throughput and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the checker's libraries, the
icb_perf driver and the kv_server test module) into .bench_build/, runs the
workload for about S seconds, checks every result against the counts pinned
in perfbench/reference.json, and prints the metrics by name and unit. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of untraced runs;
--trace 1 reports the per-layer metrics of traced runs.

Workloads (perfbench/README.md says why each was chosen):
    dryad-drain     Dryad Channels drained through bound 1 at --jobs nproc
    bug-suite       the 16 Table 2 bugs plus kv_server, one check each
    dist-bluetooth  bluetoothModel(3) through bound 4 on a loopback
                    coordinator with min(3, nproc - 1) joiners

Every check runs in a fresh icb_perf process; run.py times it from the
moment it spawns the process. `--pin` rewrites reference.json from jobs-1
runs of the current build instead of measuring.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PERF = BUILD / "icb_perf"
KV_MODULE = BUILD / "kv_server.so"
REFERENCE = HERE / "reference.json"
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 165
# A workload's timed runs stop starting repetitions once the next would end
# past --seconds, but run at least this many so the medians mean something.
MIN_REPS = 3
# Extra passes over a local workload's checks that stop at the first
# execution: cheap set-up samples for a steadier setup_s median. The
# distributed workload's short repetitions give it enough samples, and a
# coordinator stopped early strands joiners reconnecting after a revoked
# lease.
SETUP_PASSES = 9

def spec_metrics(kind):
    """(name, unit) of the metrics BENCHMARK.json lists under `kind`. Every
    time among the per-layer metrics is measured on every workload; a count
    or fraction reads 0 where the workload cannot measure it (the printout
    says why)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


# Per-unit times of a layer that some workload does not run at all. They are
# printed with the traced run (or marked unavailable) but kept out of
# BENCHMARK.json: a time that is 0 by construction is not a measurement.
PER_LAYER_PRINTED = [
    ("search.publish_ns", "ns"),
    ("rt.chain_us_p50", "us"),
    ("rt.chain_us_p99", "us"),
    ("trace.hash_ns", "ns"),
    ("race.detect_ns", "ns"),
    ("vm.chain_us_p50", "us"),
    ("vm.chain_us_p99", "us"),
    ("dist.tax_us_per_exec", "us"),
]

SELF_LAYERS = ("search", "rt_sched", "rt_replay", "trace", "race", "io", "por",
               "vm", "vm_replay", "dist")

# bug-suite: Table 2's sixteen seeded bugs and the POSIX kv_server eviction
# use-after-free, each its own check.
BUG_CHECKS = [
    "bug:Bluetooth/stop-vs-work check-then-act",
    "bug:Work Stealing Queue/pop-check-then-act",
    "bug:Work Stealing Queue/pop-retry-no-lock",
    "bug:Work Stealing Queue/unsynchronized-steal",
    "bug:Transaction Manager/commit-stomp",
    "bug:Transaction Manager/reap-collision",
    "bug:Transaction Manager/commit-upsert",
    "bug:APE/missing-sentinel",
    "bug:APE/eager-teardown",
    "bug:APE/lost-completion-update",
    "bug:APE/broken-stats-latch",
    "bug:Dryad Channels/stats-race",
    "bug:Dryad Channels/fig3-use-after-free",
    "bug:Dryad Channels/late-write",
    "bug:Dryad Channels/alert-lost-update",
    "bug:Dryad Channels/early-ack",
    "bug:kv_server",
]
ALL_CHECKS = ["dryad-drain", "dist-bluetooth"] + BUG_CHECKS

# Deterministic counts every check must reproduce exactly.
STAT_KEYS = ["executions", "steps", "states", "terminal", "completed",
             "per_bound_executions", "bugs"]


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Build and stamp
# --------------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "common" / "CMakeLists.txt").is_file():
        die(f"the checker's sources (src/, tools/common/) are not under "
            f"{ROOT}; run from a full checkout", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc())])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            die(f"build failed: {' '.join(cmd)}")


def source_digest():
    """The commit when the root is a git work tree, else a digest of the
    sources."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "include", "examples", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def machine_stamp():
    p = subprocess.run([str(PERF), "--mode=stamp"], capture_output=True,
                       text=True, timeout=30)
    if p.returncode != 0:
        die("icb_perf --mode=stamp failed")
    stamp = json.loads(p.stdout.strip().splitlines()[-1])
    if not stamp["optimized"]:
        die("refusing an unoptimized build: it is not the program users run")
    if stamp["icb_no_metrics"]:
        die("refusing an ICB_NO_METRICS build: it is not the program users run")
    cpu = mem = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                mem = f"{int(line.split()[1]) // 1024} MB"
                break
    except OSError:
        pass
    stamp.update(nproc=nproc(), cpu=cpu, memory=mem, commit=source_digest())
    return stamp


# --------------------------------------------------------------------------
# One check in one fresh process
# --------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def run_check(check, mode, topo, deadline, spans=None):
    args = [str(PERF), f"--check={check}", f"--mode={mode}",
            f"--jobs={topo['jobs']}", f"--joiners={topo['joiners']}",
            "--order=" + ",".join(map(str, topo["order"]))]
    if check == "bug:kv_server":
        args.append(f"--module={KV_MODULE}")
    if spans:
        args.append(f"--spans={spans}")
    left = deadline - time.monotonic()
    if left <= 0:
        raise CheckFailed(f"{check} ({mode}) not started: out of time")
    spawn_ns = time.monotonic_ns()
    try:
        p = subprocess.run(args, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{check} ({mode}) timed out")
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        raise CheckFailed(f"{check} ({mode}) exited {p.returncode}: "
                          f"{p.stderr.strip()[-500:]}")
    out = json.loads(lines[-1])
    if out["first_exec_ns"] == 0:
        raise CheckFailed(f"{check} ({mode}) completed no execution")
    if out.get("trace", {}).get("codec", {}).get("errors"):
        raise CheckFailed(f"{check} ({mode}): a lease frame did not survive "
                          f"its encode/decode round trip")
    out["setup_s"] = (out["first_exec_ns"] - spawn_ns) / 1e9
    out["verdict_s"] = (out["end_ns"] - spawn_ns) / 1e9
    out["wall_s"] = (out["end_ns"] - out["entry_ns"]) / 1e9
    out["cpu_s"] = out["utime_s"] + out["stime_s"]
    out["spans_path"] = spans
    return out


def mismatches(out, ref):
    """Differences between a check's counts and its pinned reference."""
    got = out["counts"]
    bad = [f"{k}: {got.get(k)} != {v}" for k, v in ref["counts"].items()
           if k in got and got[k] != v]
    bad += [f"{k} missing" for k in STAT_KEYS if k not in got]
    if ref["paper_bound"] >= 0:
        bugs = got.get("bugs", [])
        if len(bugs) != 1 or bugs[0]["bound"] != ref["paper_bound"]:
            bad.append(f"bug not reported at paper bound "
                       f"{ref['paper_bound']}: {bugs}")
    return bad


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def workload_checks(name, seed):
    """The checks one repetition runs, in seed order, and the topology."""
    jobs = nproc()
    joiners = max(1, min(3, jobs - 1))
    rng = random.Random(seed)
    order = list(range(joiners))
    if name == "dryad-drain":
        checks = ["dryad-drain"]
    elif name == "bug-suite":
        checks = list(BUG_CHECKS)
        rng.shuffle(checks)
        jobs = 1  # icb_check's default: the sequential driver.
    elif name == "dist-bluetooth":
        checks = ["dist-bluetooth"]
        rng.shuffle(order)
    else:
        die(f"unknown workload '{name}' "
            f"(dryad-drain, bug-suite, dist-bluetooth)", 2)
    return checks, {"jobs": jobs, "joiners": joiners, "order": order}


class Tally:
    """Checks attempted and failed across the whole invocation. Set-up
    samples are not checks (they stop before a verdict), so only their
    failures count."""

    def __init__(self, reference, deadline):
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.stranded = 0

    def run(self, check, mode, topo, spans=None):
        if mode != "setup":
            self.attempted += 1
        try:
            out = run_check(check, mode, topo, self.deadline, spans)
        except CheckFailed as e:
            self.failures.append(str(e))
            return None
        self.stranded += out["stranded_joiners"]
        bad = [] if mode == "setup" else mismatches(out, self.reference[check])
        if bad:
            self.failures.append(f"{check} ({mode}): " + "; ".join(bad))
            return None
        return out


def run_rep(checks, mode, topo, tally, spans_dir=None):
    """One pass over the workload's checks; None if any check failed."""
    outs = []
    for check in checks:
        spans = None
        if spans_dir:
            spans = spans_dir / (check.replace("/", "_").replace(" ", "_")
                                 .replace(":", "_") + ".tsv")
        out = tally.run(check, mode, topo, spans)
        if out is None:
            return None
        outs.append(out)
    return outs


def end_to_end(outs):
    verdict = sum(o["verdict_s"] for o in outs)
    setup = sum(o["setup_s"] for o in outs)
    execs = sum(o["counts"]["executions"] for o in outs)
    return {
        "verdict_s": verdict,
        "setup_s": setup,
        "execs_per_s": execs / (verdict - setup),
        "peak_rss_mb": max(o["maxrss_kb"] for o in outs) / 1024,
        "cpu_s": sum(o["cpu_s"] for o in outs),
    }


def repeat(start, seconds, min_reps, one):
    """Calls one() until the next call would end more than `seconds` after
    `start`; (results, True), or (results so far, False) once a call fails."""
    results, began = [], time.monotonic()
    while True:
        r = one()
        if r is None:
            return results, False
        results.append(r)
        now = time.monotonic()
        if len(results) >= min_reps and \
                now + (now - began) / len(results) - start > seconds:
            return results, True


def median_setup(reps, setup_reps):
    """setup_s: per check, the median over every sample (set-up passes and
    timed repetitions alike); summed over the workload's checks."""
    per_check = {}
    for rep in list(setup_reps) + list(reps):
        for o in rep:
            per_check.setdefault(o["check"], []).append(o["setup_s"])
    return sum(statistics.median(v) for v in per_check.values())


# --------------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# --------------------------------------------------------------------------

def pct(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def log2_hist_pct(hist, q):
    """Percentile of a registry log2 histogram (bucket b = [2^(b-1), 2^b)
    ns), interpolated linearly inside the bucket."""
    total = sum(hist)
    if total == 0:
        return 0.0
    target, cum = q * total, 0
    for b, n in enumerate(hist):
        if n and cum + n >= target:
            if b == 0:
                return 0.0
            lo, hi = 2 ** (b - 1), 2 ** b
            return lo + (hi - lo) * (target - cum) / n
        cum += n
    return float(2 ** (len(hist) - 1))


def read_spans(out):
    """(start_ns, dur_ns) of every chain span in a traced check's spans
    file; starts are relative to the entry call."""
    path = out.get("spans_path")
    if not path or not Path(path).is_file():
        return []
    with open(path) as f:
        next(f)
        return [tuple(int(x) for x in line.split("\t", 4)[2:4]) for line in f]


def uncovered_ns(spans, wall_ns):
    """Wall time during which no worker runs a chain: set-up, bound
    barriers and the frontier teardown before the verdict."""
    covered, end = 0, 0
    for start, dur in sorted(spans):
        if start + dur > end:
            covered += start + dur - max(start, end)
            end = start + dur
    return max(0, wall_ns - covered)


def layer_metrics(traced, metered, bare):
    """Per-layer metrics of one traced repetition (a list of check outputs),
    with the metered and bare repetitions of the same round for the
    overhead fractions. Returns (metrics, reasons a metric is unavailable)."""
    ph = lambda o, name, key="sum_ns": o["registry"]["phases"][name][key]
    ctr = lambda o, name: o["registry"]["counters"][name]
    tot = lambda outs, f: sum(f(o) for o in outs)
    safe = lambda a, b: a / b if b else 0.0
    hooks_ns = lambda o: (o["trace"]["probe_ns"] + o["trace"]["publish_ns"]
                          + o["trace"]["account_ns"])

    rt = [o for o in traced if o["form"] == "rt"]
    vm_local = [o for o in traced if o["form"] == "vm"]
    dist = [o for o in traced if o["form"] == "dist"]
    local = rt + vm_local
    spans = {id(o): read_spans(o) for o in local}
    m, na = {}, {}

    # search: the wrapper's probe/publish spans on local checks; on the
    # distributed check the joiners' registry phases (no wrapper there).
    probes = tot(local, lambda o: o["trace"]["probes"])
    probe_ns = tot(local, lambda o: o["trace"]["probe_ns"])
    if dist:
        probes += tot(dist, lambda o: sum(ctr(o, k) for k in (
            "seen_hit", "seen_miss", "terminal_hit", "terminal_miss",
            "item_hit", "item_miss")))
        probe_ns += tot(dist, lambda o: ph(o, "cache_probe"))
    hits = tot(traced, lambda o: ctr(o, "seen_hit") + ctr(o, "terminal_hit")
               + ctr(o, "item_hit"))
    m["search.probes"] = probes
    m["search.probe_ns"] = safe(probe_ns, probes)
    m["search.probe_hit_frac"] = safe(hits, probes)
    published = tot(traced, lambda o: ctr(o, "branched_items")
                    + ctr(o, "deferred_items"))
    m["search.items_published"] = published
    m["search.publish_ns"] = safe(tot(local, lambda o: o["trace"]["publish_ns"]),
                                  tot(local, lambda o: o["trace"]["publishes"]))
    if dist:
        na["search.publish_ns"] = "joiner publishes run inside tool::runJoin, " \
                                  "which carries no benchmark spans"
    peak = max(traced, key=lambda o: o["trace"]["frontier_peak_items"])
    m["search.frontier_peak_items"] = peak["trace"]["frontier_peak_items"]
    m["search.frontier_bytes_per_item"] = safe(
        peak["trace"]["rss_at_peak"] - peak["trace"]["rss_first"],
        peak["trace"]["frontier_peak_items"])
    busy = tot(traced, lambda o: o["registry"]["busy_ns"])
    idle = tot(traced, lambda o: o["registry"]["idle_ns"])
    m["search.worker_idle_frac"] = safe(idle, busy + idle)
    if busy + idle == 0:
        na["search.worker_idle_frac"] = "only the parallel driver splits " \
                                        "worker busy/idle time"
    m["search.steal_hit_frac"] = safe(tot(traced, lambda o: ctr(o, "steal_hits")),
                                      tot(traced, lambda o: ctr(o, "steal_attempts")))
    if not tot(traced, lambda o: ctr(o, "steal_attempts")):
        na["search.steal_hit_frac"] = "no check of this workload runs the " \
                                      "parallel driver"
    slept = tot(traced, lambda o: ctr(o, "transitions_slept"))
    m["search.sleep_pruned_frac"] = safe(slept, slept + published)
    serial = {id(o): uncovered_ns(spans[id(o)], o["wall_s"] * 1e9)
              for o in local}
    m["search.serial_frac"] = safe(sum(serial.values()),
                                   tot(local, lambda o: o["wall_s"] * 1e9))
    if not local:
        na["search.serial_frac"] = "the joiners' chains carry no " \
                                   "benchmark spans"

    # rt: chain spans and the registry's phase splits inside them.
    rt_chain_ns = tot(rt, lambda o: o["trace"]["chain_ns"])
    rt_steps = tot(rt, lambda o: o["counts"]["steps"])
    f = safe(tot(rt, lambda o: ctr(o, "replay_steps")), rt_steps)
    p = {k: tot(rt, lambda o, k=k: ph(o, k))
         for k in ("replay", "hash", "race_detect", "por", "io")}
    rt_hooks = tot(rt, hooks_ns)
    # Hash, race and io scopes of replayed steps nest inside the replay
    # window; count only their share past the divergence point.
    nested = lambda k: p[k] * (1 - f)
    sched_ns = rt_chain_ns - rt_hooks - (p["replay"] + nested("hash") +
                                         nested("race_detect") + nested("io") +
                                         p["por"])
    rt_durs = sorted(d for o in rt for _, d in spans[id(o)])
    m["rt.chain_us_p50"] = pct(rt_durs, 0.50) / 1e3
    m["rt.chain_us_p99"] = pct(rt_durs, 0.99) / 1e3
    m["rt.steps_per_exec"] = safe(rt_steps,
                                  tot(rt, lambda o: o["counts"]["executions"]))
    m["rt.sched_share"] = safe(sched_ns, rt_chain_ns)
    m["rt.replay_step_frac"] = f
    m["rt.replay_depth_mean"] = safe(
        tot(rt, lambda o: o["registry"]["replay_depth_sum"]),
        tot(rt, lambda o: o["registry"]["replay_depth_count"]))
    m["rt.replay_share"] = safe(p["replay"], rt_chain_ns)
    m["trace.hash_share"] = safe(p["hash"], rt_chain_ns)
    m["trace.hash_ns"] = safe(p["hash"], tot(rt, lambda o: ph(o, "hash", "count")))
    m["race.detect_share"] = safe(p["race_detect"], rt_chain_ns)
    m["race.detect_ns"] = safe(p["race_detect"],
                               tot(rt, lambda o: ph(o, "race_detect", "count")))
    m["io.share"] = safe(p["io"], rt_chain_ns)
    if not rt:
        for k in ("rt.chain_us_p50", "rt.chain_us_p99", "rt.steps_per_exec",
                  "rt.sched_share", "rt.replay_step_frac",
                  "rt.replay_depth_mean", "rt.replay_share",
                  "race.detect_share", "race.detect_ns", "io.share"):
            na[k] = "no check of this workload runs the rt executor"
        for k in ("trace.hash_share", "trace.hash_ns"):
            na[k] = "no check of this workload runs the rt executor, and " \
                    "the VM executor's per-step hash is untimed"
    elif p["io"] == 0:
        na["io.share"] = "no check of this workload does modeled I/O"

    # vm: local chains from the spans; distributed chains from the joiners'
    # execute-phase histogram merged into the coordinator's registry.
    vm_all = vm_local + dist
    vm_chain_ns = tot(vm_local, lambda o: o["trace"]["chain_ns"]) + \
        tot(dist, lambda o: ph(o, "execute"))
    hist = []
    for o in dist:
        h = o["registry"]["phases"]["execute"]["log2_hist"]
        hist = [a + b for a, b in zip(hist + [0] * (len(h) - len(hist)),
                                      h + [0] * (len(hist) - len(h)))]
    if vm_local:
        vm_durs = sorted(d for o in vm_local for _, d in spans[id(o)])
        m["vm.chain_us_p50"] = pct(vm_durs, 0.50) / 1e3
        m["vm.chain_us_p99"] = pct(vm_durs, 0.99) / 1e3
    else:
        m["vm.chain_us_p50"] = log2_hist_pct(hist, 0.50) / 1e3
        m["vm.chain_us_p99"] = log2_hist_pct(hist, 0.99) / 1e3
    m["vm.steps_per_exec"] = safe(tot(vm_all, lambda o: o["counts"]["steps"]),
                                  tot(vm_all, lambda o: o["counts"]["executions"]))
    vm_replay = tot(vm_all, lambda o: ph(o, "replay"))
    m["vm.replay_share"] = safe(vm_replay, vm_chain_ns)
    if not vm_all:
        for k in ("vm.chain_us_p50", "vm.chain_us_p99", "vm.steps_per_exec",
                  "vm.replay_share"):
            na[k] = "no check of this workload runs the VM executor"

    # Chain latency whichever executor runs it: the chain spans of local
    # checks, the execute histogram of distributed ones.
    all_durs = sorted(d for o in local for _, d in spans[id(o)])
    if all_durs:
        m["chain_us_p50"] = pct(all_durs, 0.50) / 1e3
        m["chain_us_p99"] = pct(all_durs, 0.99) / 1e3
    else:
        m["chain_us_p50"] = log2_hist_pct(hist, 0.50) / 1e3
        m["chain_us_p99"] = log2_hist_pct(hist, 0.99) / 1e3

    # dist: the coordinator's counters, the joiners' lease time, and the
    # joiner threads' spans.
    dist_keys = ("dist.leases", "dist.items_per_lease", "dist.joiner_busy_frac",
                 "dist.tax_us_per_exec", "dist.leases_revoked",
                 "dist.reconnects", "dist.joiners_stranded")
    for k in dist_keys:
        m[k] = 0.0
    dist_self_ns = 0
    if dist:
        o = dist[0]
        joiners, wall = o["workers"], o["wall_s"] * 1e9
        lease_ns = ph(o, "execute") + ph(o, "replay")
        m["dist.leases"] = ctr(o, "dist_leases")
        m["dist.items_per_lease"] = safe(ctr(o, "dist_lease_items"),
                                         ctr(o, "dist_leases"))
        m["dist.joiner_busy_frac"] = safe(lease_ns, joiners * wall)
        m["dist.tax_us_per_exec"] = safe(joiners * wall - lease_ns,
                                         o["counts"]["executions"]) / 1e3
        m["dist.leases_revoked"] = ctr(o, "dist_lease_revoked")
        m["dist.reconnects"] = ctr(o, "dist_reconnects")
        m["dist.joiners_stranded"] = tot(traced + metered + bare,
                                         lambda o: o["stranded_joiners"])
        dist_self_ns = sum(s["dur_ns"] for s in o["trace"]["joiner_spans"]) \
            - lease_ns
    else:
        for k in dist_keys:
            na[k] = "only dist-bluetooth crosses dist"

    # session: lease frames built, encoded and decoded over the frontier at
    # each bound barrier (the coordinator's real leases on dist-bluetooth).
    codec = {k: tot(traced, lambda o, k=k: o["trace"]["codec"][k])
             for k in ("items", "bytes", "encode_ns", "decode_ns")}
    m["session.bytes_per_item"] = safe(codec["bytes"], codec["items"])
    m["session.codec_ns_per_item"] = safe(
        codec["encode_ns"] + codec["decode_ns"], codec["items"])

    # obs and whole-run.
    m["obs.scopes"] = tot(traced, lambda o: sum(
        v["count"] for v in o["registry"]["phases"].values()))
    e_traced, e_metered, e_bare = (end_to_end(x) for x in (traced, metered, bare))
    m["obs.meter_overhead_frac"] = e_metered["verdict_s"] / e_bare["verdict_s"] - 1
    m["obs.trace_overhead_frac"] = e_traced["verdict_s"] / e_metered["verdict_s"] - 1
    m["setup_share"] = e_metered["setup_s"] / e_metered["verdict_s"]
    bug_checks = [o for o in traced if o["check"].startswith("bug:")]
    m["suite.execs_to_bugs"] = tot(bug_checks, lambda o: o["counts"]["executions"])
    if not bug_checks:
        na["suite.execs_to_bugs"] = "only bug-suite hunts bugs"

    # Layer self times partition workers x wall of each traced check; what
    # no span or phase covers is unexplained. Wall time with no chain
    # running is the search driver's (set-up, barriers, frontier teardown).
    vm_por = tot(vm_all, lambda o: ph(o, "por"))
    dist_probe = tot(dist, lambda o: ph(o, "cache_probe"))
    s = {
        "search": tot(local, hooks_ns) + idle + dist_probe +
                  tot(local, lambda o: serial[id(o)] * o["workers"]),
        "rt_sched": sched_ns,
        "rt_replay": p["replay"],
        "trace": nested("hash"),
        "race": nested("race_detect"),
        "io": nested("io"),
        "por": p["por"] + vm_por,
        "vm": vm_chain_ns - tot(vm_local, hooks_ns) - vm_por - dist_probe,
        "vm_replay": vm_replay,
        "dist": dist_self_ns,
    }
    worker_ns = tot(traced, lambda o: o["workers"] * o["wall_s"] * 1e9)
    for k in SELF_LAYERS:
        m[f"self_s.{k}"] = s[k] / 1e9
        m[f"self_frac.{k}"] = s[k] / worker_ns
    m["run.worker_s"] = worker_ns / 1e9
    m["unexplained_frac"] = 1 - sum(s.values()) / worker_ns
    return m, na


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def median_metrics(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def print_metrics(title, names, samples, medians, unavailable=None):
    print(f"{title} (median of {len(samples)})")
    for name, unit in names:
        vals = [s[name] for s in samples]
        note = f"  [unavailable: {unavailable[name]}]" \
            if unavailable and name in unavailable else ""
        print(f"  {name:32s} {medians[name]:>16.6g} {unit:6s} "
              f"min {min(vals):.6g} max {max(vals):.6g}{note}")


def measure_end_to_end(a, checks, topo, tally, start):
    """Set-up samples, then timed repetitions (no benchmark spans) until
    --seconds after `start`. Returns the end-to-end metrics, or {}."""
    passes = 0 if a.workload == "dist-bluetooth" else SETUP_PASSES
    setup_reps = [run_rep(checks, "setup", topo, tally) for _ in range(passes)]
    reps, ok = repeat(start, a.seconds, MIN_REPS,
                      lambda: run_rep(checks, "timed", topo, tally))
    if not ok or not all(setup_reps):
        return {}
    samples = [end_to_end(r) for r in reps]
    med = median_metrics(samples)
    med["setup_s"] = median_setup(reps, setup_reps)
    names = spec_metrics("end_to_end")
    print_metrics(a.workload, names, samples, med)
    return {n: {"value": med[n], "unit": u} for n, u in names}


def measure_layers(a, checks, topo, tally, start):
    """Rounds of a metered, a bare and a traced repetition until --seconds
    after `start`. Returns the per-layer metrics, or {}."""
    spans_dir = BUILD / "spans" / a.workload
    spans_dir.mkdir(parents=True, exist_ok=True)

    def round_():
        metered = run_rep(checks, "timed", topo, tally)
        bare = metered and run_rep(checks, "bare", topo, tally)
        traced = bare and run_rep(checks, "traced", topo, tally, spans_dir)
        return traced and layer_metrics(traced, metered, bare)

    rounds, ok = repeat(start, a.seconds, 1, round_)
    if not ok:
        return {}
    samples = [r[0] for r in rounds]
    med = median_metrics(samples)
    names = spec_metrics("per_layer")
    print_metrics(a.workload + " traced", names + PER_LAYER_PRINTED,
                  samples, med, rounds[-1][1])
    print("  layer self times (s): " + ", ".join(
        f"{k} {med['self_s.' + k]:.4g}" for k in SELF_LAYERS))
    return {n: {"value": med[n], "unit": u} for n, u in names}


def pin(checks):
    reference = {}
    topo = {"jobs": 1, "joiners": 1, "order": [0]}
    deadline = time.monotonic() + 3600
    for check in checks:
        out = run_check(check, "reference", topo, deadline)
        counts = out["counts"]
        if out["paper_bound"] >= 0 and [b["bound"] for b in counts["bugs"]] \
                != [out["paper_bound"]]:
            die(f"{check}: bug not at its paper bound: {counts['bugs']}")
        reference[check] = {"paper_bound": out["paper_bound"],
                            "counts": counts}
        print(f"pinned {check}: {counts['executions']} executions",
              file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite reference.json from jobs-1 runs")
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    stamp = machine_stamp()
    if a.pin:
        pin(ALL_CHECKS)
        return
    if not REFERENCE.is_file():
        die(f"missing {REFERENCE}", 2)
    reference = json.loads(REFERENCE.read_text())
    if not a.workload:
        die("--workload is required", 2)
    checks, topo = workload_checks(a.workload, a.seed)
    tally = Tally(reference, deadline)

    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"workload {a.workload}: seed {a.seed}, {len(checks)} check(s) per "
          f"repetition, jobs {topo['jobs']}, joiners {topo['joiners']}, "
          f"order {topo['order']}")

    # One discarded check first: the first process of a run is slower (cold
    # CPU and allocator state), which would bias whichever mode runs first.
    # Its counts are still checked.
    start = time.monotonic()
    metrics = {}
    if run_rep(checks[:1], "bare", topo, tally):
        measure = measure_end_to_end if a.trace == 0 else measure_layers
        metrics = measure(a, checks, topo, tally, start)

    failed = len(tally.failures)
    for f in tally.failures:
        print(f"WRONG {f}")
    print(f"  {'wrong_verdict_frac':32s} {failed / max(1, tally.attempted):>16.6g} "
          f"frac   ({failed} of {tally.attempted} checks)")
    if tally.stranded:
        print(f"  {tally.stranded} joiner(s) stranded after the verdict "
              f"(README.md, 'Findings')")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(1, tally.attempted),
                      "failed": failed,
                      "metrics": metrics if failed == 0 else {}}))


if __name__ == "__main__":
    main()
