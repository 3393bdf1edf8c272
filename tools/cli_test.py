#!/usr/bin/env python3
"""Tool-level CLI contract tests for icb_check / icb_report.

Covers the observability surface the unit tests cannot reach: the exact
--metrics-csv column set and the final row flushed on a bug-found early
exit, --trace=FILE Perfetto export (valid JSON, flow-id consistency),
icb_report's estimator / per-site tables, and — when pointed at an
ICB_NO_METRICS binary — the hard usage error for --trace=FILE. Also: a
resumed finished run re-emits the original manifest, metrics included,
and a tampered runtime repro artifact is a replay mismatch (exit 3).

Usage: cli_test.py <icb_check> <icb_report>
"""

import fcntl
import json
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading

CHECK, REPORT = sys.argv[1], sys.argv[2]

EXPECTED_CSV_HEADER = [
    "bound", "max_bound", "executions", "total_steps", "states",
    "frontier_remaining", "deferred_next", "bugs", "est_total_executions",
    "explored_ppm",
]


def run(*args, **kw):
    kw.setdefault("timeout", 60)
    return subprocess.run(list(args), capture_output=True, text=True, **kw)


def wire_frame(obj):
    """One dist-protocol frame: 4-byte LE length + session-dialect JSON."""
    payload = json.dumps(obj).encode()
    return struct.pack("<I", len(payload)) + payload


def dist_contract(tmp):
    """--serve/--join flag contract and the joiner's refusal handling."""
    bench = ["--benchmark=Bluetooth", "--bug=stop-vs-work check-then-act"]

    # A process is either the coordinator or a worker, never both.
    r = run(CHECK, "--serve=127.0.0.1:0", "--join=127.0.0.1:1", *bench)
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert "mutually exclusive" in r.stderr, r.stderr

    # --replay is a local-executor mode; both service roles reject it.
    missing = os.path.join(tmp, "missing.icbrepro")
    for role in ("--serve=127.0.0.1:0", "--join=127.0.0.1:1"):
        r = run(CHECK, "--replay=" + missing, role)
        assert r.returncode == 2, (role, r.returncode, r.stderr)

    # A joiner adopts the coordinator's configuration: flags that would
    # contradict the adoption are usage errors.
    for flag in ("--max-bound=3", "--benchmark=Bluetooth", "--por",
                 "--json=" + os.path.join(tmp, "x.json")):
        r = run(CHECK, "--join=127.0.0.1:1", flag)
        assert r.returncode == 2, (flag, r.returncode, r.stderr)
        assert "cannot be combined" in r.stderr, (flag, r.stderr)

    # A coordinator executes nothing locally; worker topology flags
    # belong on the joiners.
    r = run(CHECK, "--serve=127.0.0.1:0", "--jobs=2", *bench)
    assert r.returncode == 2, (r.returncode, r.stderr)

    # Unparseable bind/connect addresses are usage errors (exit 2).
    r = run(CHECK, "--serve=notanaddress", *bench)
    assert r.returncode == 2, (r.returncode, r.stderr)
    r = run(CHECK, "--join=notanaddress")
    assert r.returncode == 2, (r.returncode, r.stderr)

    # A joiner that cannot reach any coordinator exhausts its capped
    # reconnect attempts and exits with the I/O code (4).
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    env = dict(os.environ, ICB_DIST_CONNECT_ATTEMPTS="1")
    r = subprocess.run(
        [CHECK, "--join=127.0.0.1:%d" % dead_port],
        capture_output=True, text=True, timeout=60, env=env)
    assert r.returncode == 4, (r.returncode, r.stderr)

    # A coordinator that refuses the hello (version mismatch) must make
    # the joiner exit 2 and surface the reason. The fake coordinator
    # only speaks the refusal leg, which is version-skew-equivalent.
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def refuse_one():
        conn, _ = srv.accept()
        conn.recv(4096)  # The joiner's hello; contents are irrelevant.
        conn.sendall(wire_frame(
            {"kind": "refuse",
             "reason": "version mismatch: coordinator speaks protocol 999"}))
        conn.close()

    t = threading.Thread(target=refuse_one)
    t.start()
    r = run(CHECK, "--join=127.0.0.1:%d" % port)
    t.join()
    srv.close()
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert "version mismatch" in r.stderr, r.stderr

    # Two runs sharing one --checkpoint-dir: the advisory lock makes the
    # loser exit 4 instead of corrupting the winner's resume state.
    ckdir = os.path.join(tmp, "locked-ckpt")
    os.mkdir(ckdir)
    lockfile = open(os.path.join(ckdir, ".lock"), "w")
    fcntl.flock(lockfile, fcntl.LOCK_EX | fcntl.LOCK_NB)
    r = run(CHECK, *bench, "--max-executions=5",
            "--checkpoint-dir=" + ckdir)
    assert r.returncode == 4, (r.returncode, r.stderr)
    assert "lock" in r.stderr.lower(), r.stderr
    lockfile.close()


def finished_resume(tmp, no_metrics):
    """--resume of a finished run's final checkpoint re-emits the
    uninterrupted run's manifest, metrics included."""
    args = ["--benchmark=Work Stealing Queue", "--bug=pop-check-then-act",
            "--keep-going", "--bound=preemption:2", "--jobs=4"]
    ref, res = os.path.join(tmp, "ref.json"), os.path.join(tmp, "res.json")
    ckdir = os.path.join(tmp, "finished-ckpt")
    for out in ("--json=" + ref, "--checkpoint-dir=" + ckdir):
        r = run(CHECK, *args, out)
        assert r.returncode == 1, (out, r.returncode, r.stderr)
    r = run(CHECK, "--resume=" + ckdir, "--json=" + res)
    assert r.returncode == 1, (r.returncode, r.stderr)
    assert "re-emitting" in r.stdout, r.stdout

    def norm(path):  # As CI's bound-policies kill-and-resume step does.
        with open(path) as f:
            d = json.load(f)
        d.get("config", {}).pop("resumed_from", None)
        for rec in d.get("runs", []):
            rec.pop("wall_ms", None)
            rec.get("metrics", {}).pop("timing", None)
        return d

    a, b = norm(ref), norm(res)
    assert no_metrics or "metrics" in a["runs"][0], "reference has no metrics"
    assert a == b, "resumed manifest diverges:\n%s\n%s" % (a, b)


def tampered_repro(tmp):
    """A runtime artifact whose schedule names a thread that is not enabled
    is a replay mismatch (exit 3), not an abort."""
    repros = os.path.join(tmp, "repros")
    r = run(CHECK, "--benchmark=Work Stealing Queue",
            "--bug=pop-check-then-act", "--repro-dir=" + repros)
    assert r.returncode == 1, (r.returncode, r.stderr)
    [name] = os.listdir(repros)
    path = os.path.join(repros, name)
    r = run(CHECK, "--replay=" + path)
    assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)

    with open(path) as f:
        art = json.load(f)
    assert art["form"] == "rt", art
    for key in ("schedule", "annotated_schedule"):
        steps = art["found"][key].split(" ")
        steps[0] = "2"  # Only the main thread exists at the first step.
        art["found"][key] = " ".join(steps)
    with open(path, "w") as f:
        json.dump(art, f)
    r = run(CHECK, "--replay=" + path)
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert "schedule diverged" in r.stdout, r.stdout


def main():
    tmp = tempfile.mkdtemp(prefix="icb-cli-")
    csv = os.path.join(tmp, "metrics.csv")
    manifest = os.path.join(tmp, "run.json")
    trace = os.path.join(tmp, "trace.json")

    # Probe for the telemetry instrumentation: an ICB_NO_METRICS binary
    # must reject --trace=FILE outright as a usage error.
    probe = run(CHECK, "--benchmark=Bluetooth", "--max-executions=1",
                "--trace=" + trace)
    no_metrics = probe.returncode == 2
    if no_metrics:
        assert "ICB_NO_METRICS" in probe.stderr, probe.stderr

    # --trace=FILE records a search; combining it with --replay is a
    # usage error before any artifact is touched (in every build).
    r = run(CHECK, "--replay=" + os.path.join(tmp, "missing.icbrepro"),
            "--trace=" + trace)
    assert r.returncode == 2, (r.returncode, r.stderr)

    # The distributed checking service's CLI contract.
    dist_contract(tmp)

    finished_resume(tmp, no_metrics)
    tampered_repro(tmp)

    # A bug-found early exit must still flush the final metrics-csv row.
    extra = [] if no_metrics else ["--trace=" + trace, "--json=" + manifest]
    r = run(CHECK, "--benchmark=Bluetooth",
            "--bug=stop-vs-work check-then-act", "--max-bound=4",
            "--metrics-csv=" + csv, *extra)
    assert r.returncode == 1, (r.returncode, r.stderr)
    with open(csv) as f:
        rows = [line.strip() for line in f if line.strip()]
    assert rows[0].split(",") == EXPECTED_CSV_HEADER, rows[0]
    assert len(rows) >= 2, "no data row flushed on the bug-found exit"
    final = dict(zip(EXPECTED_CSV_HEADER, rows[-1].split(",")))
    assert int(final["executions"]) > 0, final
    assert int(final["bugs"]) >= 1, final

    if no_metrics:
        print("ok (no-metrics build: --trace=FILE rejected, csv intact)")
        return

    assert int(final["est_total_executions"]) > 0, final
    assert 0 < int(final["explored_ppm"]) <= 1_000_000, final

    # The exported trace is valid JSON in the Chrome trace-event schema,
    # and every flow finish ("f") refers to an emitted flow start ("s").
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    assert events, "trace is empty"
    for e in events:
        assert "ph" in e and "pid" in e and "tid" in e, e
    sids = {e["id"] for e in events if e["ph"] == "s"}
    fids = {e["id"] for e in events if e["ph"] == "f"}
    assert fids <= sids, "orphan flow ids: %r" % (fids - sids)
    assert any(e["ph"] == "X" for e in events), "no phase slices"
    assert any(e["ph"] == "i" for e in events), "no instants"

    # icb_report renders the estimator, site, and io tables.
    rep = run(REPORT, manifest, "--sites")
    assert rep.returncode == 0, rep.stderr
    for needle in ("schedule-space estimate", "preemption-site profiles",
                   "modeled io / sleep sets"):
        assert needle in rep.stdout, "missing report section: " + needle

    print("ok")


if __name__ == "__main__":
    main()
