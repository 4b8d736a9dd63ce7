#!/usr/bin/env python3
"""End-to-end benchmark of vgrid.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a vgrid source tree. The benchmark builds the
release ``vgrid`` and ``vgrid-report`` binaries and the in-process
tracer (``perfbench/tracer``) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), generates every request from ``--seed``, runs the
workload for ``--seconds``, checks every output against an oracle and
prints one row per metric. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Requests,
outputs and the machine stamp are written to
``perfbench/out/<workload>-seed<n>-trace<t>/``.

Workloads (see BENCHMARK.json for why each was chosen):

* ``paper-report``: one cold ``vgrid-report --paper`` process per
  operation; its stdout must equal the committed EXPERIMENTS.md.
* ``grid-idle-month`` and ``grid-busy-churn``: one cold
  ``vgrid campaign --spec`` process per operation; each request's
  ``report_digest`` must equal that of the same request run on the
  ``hydrated-reference`` substrate. Neither is in BENCHMARK.json:
  their campaigns swing with the host's speed, and on a shared 2-core
  box their run-to-run spread exceeded the 0.25 bound in 20 s and 30 s
  runs. Run them by name.
* ``serve-mix``: ``vgrid serve --workers 2`` driven by two closed-loop
  clients; every reply must equal, byte for byte, what in-process
  ``wire::run_request_json`` answers for the same body.

End-to-end metrics (``--trace 0``) are measured on every workload; an
"operation" is one report process, one campaign process or one served
request.

``--trace 1`` reports the per-layer metrics instead. It replays the
workload's operations in-process through the tracer, which wraps each
call the benchmark makes into a layer in a span; self times per layer
come from those spans. The same operations also run with the span
recorder off, and the tracing overhead is the wall time of the traced
run against that untraced one. A per-layer metric whose layer the
workload does not reach reads 0. ``--workload all`` runs the four
workloads in turn.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-report", "grid-idle-month", "grid-busy-churn", "serve-mix")
# Distinct generated requests per grid run; operations cycle over them.
GRID_REQUESTS = {"grid-idle-month": 8, "grid-busy-churn": 8}
SETUP_REPEATS = 31
SERVE_SETUP_REPEATS = 11
OP_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark cannot produce a result (no source tree, build failed)."""


# ---------------------------------------------------------------------------
# Build and machine stamp
# ---------------------------------------------------------------------------

def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Build the measured binaries and the tracer; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "vgrid.rs").is_file():
        raise BenchError("no vgrid source tree at %s" % ROOT)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()), CARGO_NET_OFFLINE="true")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "vgrid", "--bin", "vgrid-report"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))
    rel = target_dir() / "release"
    return {"vgrid": str(rel / "vgrid"), "report": str(rel / "vgrid-report"),
            "tracer": str(rel / "perfbench-tracer")}


def source_digest():
    """SHA-256 over the files the binaries are built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("src", "crates"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def stamp():
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": rustc,
        "git_commit": commit or "none (not a git checkout)",
        "source_digest": source_digest(),
        "build_profile": "release (workspace [profile.release])",
        "os": platform.platform(),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

def run_timed(cmd, stdout_path, timeout=OP_TIMEOUT_S):
    """Run ``cmd`` to completion with stdout in a file.

    Returns ``(exit_code, wall_s, peak_rss_mb)``; the exit code is None
    when the process had to be killed at ``timeout``.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    code = None if p.returncode < 0 else p.returncode
    return code, wall, ru.ru_maxrss / 1024.0


def p99(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def cli_setup_s(bins, out):
    """Median wall time of ``vgrid list``: process start plus the
    experiment registry, no simulation."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_timed([bins["vgrid"], "list"], out / "list.txt")
        if code != 0 or len((out / "list.txt").read_text().split()) != 21:
            raise BenchError("vgrid list failed")
        times.append(wall)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def report_matches(output, expected):
    """paper-report oracle: byte-identical to the committed EXPERIMENTS.md."""
    return output == expected


def campaign_ok(manifest, first, reference):
    """Grid oracle for one campaign: its report digest equals the
    hydrated-reference digest of the same request, and the manifest
    equals the first one produced for that request."""
    return (manifest is not None and report_digest(manifest) == reference
            and manifest == first)


def report_digest(manifest):
    m = re.search(rb'"report_digest":"(0x[0-9a-f]{16})"', manifest)
    return m.group(1).decode() if m else None


def paper_rel_dev_pct(report):
    """Mean of the "rel. dev." column of the report's calibration table."""
    text = report.decode()
    table = text.split("## Calibration summary", 1)[1].split("\n\n", 2)[1]
    devs = [float(line.strip("|").split("|")[4].strip().rstrip("%"))
            for line in table.splitlines()[2:] if line.startswith("|")]
    return statistics.fmean(devs), len(devs)


def serve_reply_ok(sent, reply, expected):
    """serve-mix oracle for one request.

    ``sent`` is ``(kind, body, expected_error_kind)``, ``reply`` the
    ``(status, body)`` the server gave (None when the connection failed)
    and ``expected`` the ``(status, body)`` in-process replay answered.
    """
    if reply is None or reply != expected:
        return False
    kind, _, error_kind = sent
    if kind == "malformed":
        return reply[0] == 400 and ('"kind":"%s"' % error_kind).encode() in reply[1]
    return reply[0] == 200


def read_responses(path):
    """Parse the tracer's ``responses.txt`` into ``[(status, body)]``."""
    data = path.read_bytes()
    out, i = [], 0
    while i < len(data):
        nl = data.index(b"\n", i)
        status, length = data[i:nl].split()
        start = nl + 1
        out.append((int(status), data[start:start + int(length)]))
        i = start + int(length)
    return out


# ---------------------------------------------------------------------------
# HTTP client and server control for serve-mix
# ---------------------------------------------------------------------------

def http(port, method, path, body=b"", tenant=None):
    """One request on a fresh connection; returns ``(status, body)``."""
    head = "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n" % (method, path, len(body))
    if tenant:
        head += "X-Vgrid-Tenant: %s\r\n" % tenant
    with socket.create_connection(("127.0.0.1", port), timeout=OP_TIMEOUT_S) as s:
        s.sendall(head.encode() + b"\r\n" + body)
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
    header, sep, payload = b"".join(chunks).partition(b"\r\n\r\n")
    m = re.match(rb"HTTP/1\.1 (\d{3}) ", header)
    if not (m and sep):
        raise ConnectionError("connection closed without a complete reply")
    return int(m.group(1)), payload


class Server:
    """A ``vgrid serve`` process on an OS-assigned port."""

    def __init__(self, bins, workers=2):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["vgrid"], "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline().decode()
        m = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if not m:
            self.kill()
            raise BenchError("vgrid serve did not start: %r" % line)
        self.port = int(m.group(1))
        # Drain stderr so the server never blocks on a full pipe.
        self.log = []
        self.drain = threading.Thread(target=lambda: self.log.append(self.proc.stderr.read()))
        self.drain.start()
        while True:
            try:
                if http(self.port, "GET", "/v1/health")[0] == 200:
                    break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() - t0 > OP_TIMEOUT_S:
                    self.kill()
                    raise BenchError("vgrid serve never answered /v1/health")
                time.sleep(0.001)
        self.setup_s = time.perf_counter() - t0

    def status(self):
        """The ``/v1/status`` counters; empty when the server is gone."""
        try:
            return json.loads(http(self.port, "GET", "/v1/status")[1])["serve"]
        except OSError:
            return {}

    def shutdown(self, tally):
        """Stop the server; a server that crashed or will not stop counts
        as a failed operation. Returns its peak RSS in MB."""
        try:
            http(self.port, "POST", "/v1/shutdown")
        except OSError:
            pass
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        _, status, ru = os.wait4(self.proc.pid, 0)
        timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.drain.join()
        tally.check(self.proc.returncode == 0, "vgrid serve exited with %d: %s"
                    % (self.proc.returncode, b"".join(self.log).decode()[-2000:]))
        return ru.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_setup(bins, tally):
    """Start and stop the server a few times; the time of each to its
    first healthy reply."""
    times = []
    for _ in range(SERVE_SETUP_REPEATS):
        srv = Server(bins)
        try:
            times.append(srv.setup_s)
            srv.shutdown(tally)
        finally:
            srv.kill()
    return times


def serve_load(srv, seed, seconds, size):
    """Two closed-loop clients, one tenant each, for ``seconds``.

    Returns ``(records, wall_s)``; each record is ``(client, sent,
    reply, start, end)`` with ``reply`` None on a failed connection.
    """
    clients = [gen.ServeClient(seed, c, size) for c in range(2)]
    records = [[], []]
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def loop(c):
        while True:
            sent = clients[c].next()
            start = time.perf_counter()
            try:
                reply = http(srv.port, "POST", "/v1/campaign", sent[1].encode(),
                             tenant="tenant%d" % c)
            except OSError:
                reply = None
            end = time.perf_counter()
            records[c].append((c, sent, reply, start, end))
            if end >= deadline:
                return

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(loop, range(2)))
    merged = sorted(records[0] + records[1], key=lambda r: r[3])
    return merged, max(r[4] for r in merged) - t0


def replay(bins, out, records, threads, dedupe, trace):
    """In-process answers for the bodies of ``records`` via the tracer.

    With ``dedupe`` each distinct body runs once (answers are a pure
    function of the body); otherwise every record runs, in order.
    """
    out.mkdir(parents=True, exist_ok=True)
    lines = ["%d\t%s\n" % (r[0], r[1][1]) for r in records]
    runs = list(dict.fromkeys(lines)) if dedupe else lines
    bodies = out / "bodies.txt"
    bodies.write_text("".join(runs))
    tracer(bins, "replay", out, bodies, threads, int(trace))
    answers = read_responses(out / "responses.txt")
    if not dedupe:
        return answers
    by_line = dict(zip(runs, answers))
    return [by_line[line] for line in lines]


# ---------------------------------------------------------------------------
# Workloads, untraced
# ---------------------------------------------------------------------------

def e2e(setup_s, latencies_s, wall_s, rss_mb, tally):
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latencies_s) * 1e3,
        "latency_p99_ms": p99(latencies_s) * 1e3,
        "rps": len(latencies_s) / wall_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
    }


def run_paper_report(bins, out, args, tally):
    setup = cli_setup_s(bins, out)
    expected = (ROOT / "EXPERIMENTS.md").read_bytes()
    times, rss, rel_dev = [], 0.0, None
    t0 = time.perf_counter()
    while True:
        code, wall, peak = run_timed([bins["report"], "--paper"], out / "report.md")
        report = (out / "report.md").read_bytes()
        if tally.check(code == 0 and report_matches(report, expected),
                       "report %d differs from EXPERIMENTS.md" % tally.attempted):
            times.append(wall)
            rss = max(rss, peak)
            rel_dev = rel_dev or paper_rel_dev_pct(report)
        if time.perf_counter() - t0 >= args.seconds:
            break
    if not times:
        raise BenchError("no report run passed its check")
    extra = {"report_s": (statistics.median(times), "s"), "samples": (len(times), "count")}
    if rel_dev:
        extra["paper_rel_dev_pct"] = (rel_dev[0], "%")
        extra["calibration_rows"] = (rel_dev[1], "count")
    return e2e(setup, times, time.perf_counter() - t0, rss, tally), extra, times


def grid_requests(workload, seed, size, out):
    n = GRID_REQUESTS[workload]
    bodies = (gen.idle_month if workload == "grid-idle-month" else gen.busy_churn)(seed, n, size)
    paths = []
    for i, body in enumerate(bodies):
        p = out / ("request-%d.json" % i)
        p.write_text(body)
        (out / ("request-%d.reference.json" % i)).write_text(
            gen.with_substrate(body, "hydrated-reference"))
        paths.append(p)
    return paths


def reference_digests(bins, requests, out):
    """Oracle: the report digest of each request on the hydrated-reference
    substrate, two processes at a time."""
    def one(p):
        ref = p.with_suffix(".reference.json")
        dest = out / (p.stem + ".reference.out.json")
        code, _, _ = run_timed([bins["vgrid"], "campaign", "--spec", str(ref)], dest)
        return report_digest(dest.read_bytes()) if code == 0 else None
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(one, requests))


def run_grid(bins, out, args, tally):
    setup = cli_setup_s(bins, out)
    requests = grid_requests(args.workload, args.seed, args.size, out)
    times, rss, manifests = [], 0.0, []
    t0 = time.perf_counter()
    while True:
        i = len(manifests) % len(requests)
        dest = out / ("response-%d.json" % len(manifests))
        code, wall, peak = run_timed([bins["vgrid"], "campaign", "--spec", str(requests[i])], dest)
        manifests.append((i, dest.read_bytes() if code == 0 else None))
        if code == 0:
            times.append(wall)
            rss = max(rss, peak)
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = time.perf_counter() - t0
    refs = reference_digests(bins, requests[: len(manifests)], out)
    first = {}
    for n, (i, doc) in enumerate(manifests):
        first.setdefault(i, doc)
        tally.check(campaign_ok(doc, first[i], refs[i]),
                    "campaign %d (request %d) differs from reference %s" % (n, i, refs[i]))
    if not times:
        raise BenchError("no campaign finished")
    extra = {"campaign_s": (statistics.median(times), "s"), "samples": (len(times), "count")}
    return e2e(setup, times, wall, rss, tally), extra, times


def check_serve(records, answers, tally):
    for n, (rec, expected) in enumerate(zip(records, answers)):
        tally.check(serve_reply_ok(rec[1], rec[2], expected),
                    "request %d (%s) differs from in-process answer" % (n, rec[1][0]))


def serve_mix_shares(records):
    kinds = [r[1][0] for r in records]
    return {k + "_share": kinds.count(k) / len(kinds) for k in ("repeat", "extend", "malformed")}


def run_serve(bins, out, args, tally):
    setups = serve_setup(bins, tally)
    srv = Server(bins)
    try:
        setups.append(srv.setup_s)
        records, wall = serve_load(srv, args.seed, args.seconds, args.size)
        status = srv.status()
        rss = srv.shutdown(tally)
    finally:
        srv.kill()
    check_serve(records, replay(bins, out / "oracle", records, 2, dedupe=True, trace=False), tally)
    lat = [r[4] - r[3] for r in records if r[2] is not None]
    extra = {"samples": (len(lat), "count"),
             "cross_hits": (status.get("cache_cross_hits", 0), "count"),
             "errors": (status.get("errors", 0), "count"),
             **{k: (v, "ratio") for k, v in serve_mix_shares(records).items()}}
    return e2e(statistics.median(setups), lat, wall, rss, tally), extra, lat


# ---------------------------------------------------------------------------
# Workloads, traced
# ---------------------------------------------------------------------------

def load_spans(path):
    return json.loads(path.read_text())


def self_times(spans):
    """Self seconds per layer: a span's duration minus the time its
    child spans cover. The layer is the span name up to the first dot."""
    covered = {}
    intervals = {}
    for s in spans:
        if s["parent"] is not None:
            intervals.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    for pid, iv in intervals.items():
        iv.sort()
        total, cur_s, cur_e = 0, None, None
        for a, b in iv:
            if cur_e is None or a > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = a, b
            else:
                cur_e = max(cur_e, b)
        total += cur_e - cur_s
        covered[pid] = total
    layers = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        own = (s["end_ns"] - s["start_ns"] - covered.get(s["id"], 0)) / 1e9
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def durations(spans, name):
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == name]


def tracer(bins, *args):
    subprocess.run([bins["tracer"], *map(str, args)], check=True)


def overhead_pct(traced, untraced):
    """Tracing overhead: wall time of the same in-process operations with
    the span recorder on (``traced`` run directory) against off."""
    on, off = (json.loads((d / "counters.json").read_text())["ops_s"] for d in (traced, untraced))
    return (on - off) / off * 100




def add_grid_counters(m, c):
    """Per-layer grid metrics from summed GridReport / fastforward
    counters (tracer ``counters.json`` or manifest counter names)."""
    for k in ("results_returned", "reissues", "checkpoint_writes", "owner_preemptions",
              "vm_kills", "migrations", "evacuations", "rescue_wins", "fault_transitions"):
        m["grid." + k] = c.get("grid." + k, 0)
    for k in ("windows", "hydrations", "memo_hits", "peak_resident"):
        m["grid.hydrate." + k] = c.get("grid.hydrate." + k, c.get("grid.pool." + k, 0))
    for k in ("segment", "trajectory"):
        hits = c.get("grid.ff.%s_hits" % k, c.get("grid.fastforward.%s_hits" % k, 0))
        base = hits + c.get("grid.ff.%s_misses" % k, c.get("grid.fastforward.%s_misses" % k, 0))
        m["grid.ff.%s_hit_rate" % k] = hits / base if base else 0.0
        m["grid.ff.%s_lookups" % k] = base


def add_op_spans(m, spans):
    """Per-request grid spans of the tracer's ``campaigns``/``replay``."""
    for name, key, scale in (("grid.wire.parse", "grid.wire.parse_us", 1e6),
                             ("grid.wire.render", "grid.wire.render_us", 1e6),
                             ("grid.campaign_run", "grid.campaign_run_s", 1.0)):
        d = durations(spans, name)
        m[key] = statistics.median(d) * scale if d else 0.0
    if m["grid.fault_transitions"]:
        m["grid.ns_per_fault_transition"] = (
            sum(durations(spans, "grid.campaign_run")) / m["grid.fault_transitions"] * 1e9)


def trace_paper(bins, out, args, tally, m):
    expected = (ROOT / "EXPERIMENTS.md").read_bytes()
    code, untraced, _ = run_timed([bins["report"], "--paper"], out / "report.md")
    report = (out / "report.md").read_bytes()
    tally.check(code == 0 and report_matches(report, expected), "report differs from EXPERIMENTS.md")
    if code == 0:
        m["core.paper_rel_dev_pct"] = paper_rel_dev_pct(report)[0]
    for d, on in (("suite-untraced", 0), ("suite", 1)):
        (out / d).mkdir()
        tracer(bins, "paper-suite", out / d, on)
    suite = load_spans(out / "suite" / "spans.json")
    m["trace.overhead_pct"] = overhead_pct(out / "suite", out / "suite-untraced")
    (out / "ids").mkdir()
    tracer(bins, "paper-ids", out / "ids")
    spans = load_spans(out / "ids" / "spans.json")
    exp = {s["name"].split("/", 1)[1]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans}
    for k, v in exp.items():
        m["core.experiment_s." + k] = v
    m["core.report_span_share"] = sum(v for k, v in exp.items() if k != "grid-churn") / untraced
    (out / "observe").mkdir()
    tracer(bins, "paper-observe", out / "observe")
    c = {}
    for f in sorted((out / "observe").glob("manifest-*.json")):
        for k, v in json.loads(f.read_text())["metrics"]["counters"].items():
            c[k] = c.get(k, 0) + v
    hits, misses = c["engine.cache_hits"], c["engine.cache_misses"]
    m["core.engine.cache_hit_rate"] = hits / (hits + misses)
    m["core.engine.trials"] = hits + misses
    m["os.events_handled"] = c["os.loop.events_handled"]
    m["os.quanta_coalesced"] = c["os.loop.quanta_coalesced"]
    m["os.ns_per_event"] = sum(exp.values()) / c["os.loop.events_handled"] * 1e9
    chits, cmiss = c["os.cache.contention_hits"], c["os.cache.contention_misses"]
    m["machine.contention_hit_rate"] = chits / (chits + cmiss)
    m["machine.contention_lookups"] = chits + cmiss
    for k in ("disk", "net", "idle"):
        m["vmm.exits." + k] = c["vmm.exits." + k]
    add_grid_counters(m, c)
    m["trace.spans"] = len(suite) + len(spans) + len(load_spans(out / "observe" / "spans.json"))
    return [suite, spans]


def trace_grid(bins, out, args, tally, m):
    requests = grid_requests(args.workload, args.seed, args.size, out)
    for d, on in (("untraced", 0), ("inproc", 1)):
        (out / d).mkdir()
        tracer(bins, "campaigns", out / d, on, *requests)
    refs = reference_digests(bins, requests, out)
    for i in range(len(requests)):
        name = "response-%d.json" % i
        doc = (out / "inproc" / name).read_bytes()
        tally.check(campaign_ok(doc, (out / "untraced" / name).read_bytes(), refs[i]),
                    "in-process campaign %d differs from reference %s" % (i, refs[i]))
    spans = load_spans(out / "inproc" / "spans.json")
    add_grid_counters(m, json.loads((out / "inproc" / "counters.json").read_text()))
    add_op_spans(m, spans)
    run = sum(durations(spans, "grid.campaign_run"))
    m["grid.campaign_run_share"] = run / sum(durations(spans, "grid.request"))
    m["trace.overhead_pct"] = overhead_pct(out / "inproc", out / "untraced")
    m["trace.spans"] = len(spans)
    return [spans]


def trace_serve(bins, out, args, tally, m):
    srv = Server(bins)
    try:
        records, _ = serve_load(srv, args.seed, args.seconds, args.size)
        status = srv.status()
        srv.shutdown(tally)
    finally:
        srv.kill()
    # The same sequence in-process twice, cold each time and on two
    # threads like the server's workers: untraced (the oracle and the
    # base of the tracing overhead), then traced.
    answers = replay(bins, out / "untraced", records, 2, dedupe=False, trace=False)
    check_serve(records, answers, tally)
    traced = replay(bins, out / "replay", records, 2, dedupe=False, trace=True)
    tally.check(traced == answers, "traced replay answered differently")
    counters = json.loads((out / "replay" / "counters.json").read_text())
    m["trace.overhead_pct"] = overhead_pct(out / "replay", out / "untraced")
    spans = load_spans(out / "replay" / "spans.json")
    add_grid_counters(m, counters)
    add_op_spans(m, spans)
    service = {s["req"]: (s["end_ns"] - s["start_ns"]) / 1e9
               for s in spans if s["name"] == "serve.request"}
    # Client-side latency of the traced pass, keyed by the request's
    # position in the sequence the in-process replay runs.
    lat = {i: r[4] - r[3] for i, r in enumerate(records) if r[2] is not None}
    waits = [lat[i] - service[i] for i in lat]
    svc = list(service.values())
    m["serve.service_ms_p50"] = statistics.median(svc) * 1e3
    m["serve.service_ms_p99"] = p99(svc) * 1e3
    m["serve.wait_ms_p50"] = statistics.median(waits) * 1e3
    m["serve.wait_ms_p99"] = p99(waits) * 1e3
    m["serve.cross_hits"] = status.get("cache_cross_hits", 0)
    m["serve.errors"] = status.get("errors", 0)
    m["serve.requests"] = len(records)
    for k, v in serve_mix_shares(records).items():
        m["serve." + k] = v
    m["grid.campaign_run_share"] = (sum(durations(spans, "grid.campaign_run"))
                                    / sum(durations(spans, "serve.request")))
    m["trace.spans"] = len(spans) + len(lat)
    return [spans]


def run_traced(bins, out, args, tally):
    m = dict.fromkeys(units("per_layer"), 0.0)
    runner = {"paper-report": trace_paper, "serve-mix": trace_serve}.get(args.workload, trace_grid)
    span_sets = runner(bins, out, args, tally, m)
    probe_req = out / "probe-request.json"
    probe_req.write_text(gen.busy_churn(args.seed, 1, args.size)[0])
    (out / "probes").mkdir()
    tracer(bins, "probes", out / "probes", probe_req)
    m.update(json.loads((out / "probes" / "counters.json").read_text()))
    span_sets.append(load_spans(out / "probes" / "spans.json"))
    for spans in span_sets:
        for layer, s in self_times(spans).items():
            m[layer + ".self_s"] = m.get(layer + ".self_s", 0.0) + s
    unknown = set(m) - set(units("per_layer"))
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def units(section):
    """``{metric: unit}`` of one BENCHMARK.json section, in file order."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


def run_workload(bins, args):
    """Run one workload; print its rows and return its result object."""
    out = HERE / "out" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = stamp()
    tally = Tally()
    if args.trace:
        metrics, extra, samples = run_traced(bins, out, args, tally), {}, []
    else:
        runner = {"paper-report": run_paper_report, "serve-mix": run_serve}.get(
            args.workload, run_grid)
        metrics, extra, samples = runner(bins, out, args, tally)
    unit = units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": unit[k]} for k in unit},
    }
    (out / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": machine, "failures": tally.failures,
         "extra": extra, "op_seconds": samples, **result}, indent=1) + "\n")
    print("# %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("# machine: " + ", ".join("%s=%s" % kv for kv in machine.items()))
    for f in tally.failures:
        print("# FAILED: " + f)
    rows = [("failed_frac", len(tally.failures) / tally.attempted,
             "ratio (%d failed of %d attempted)" % (len(tally.failures), tally.attempted))]
    rows += [(k, v, u) for k, (v, u) in extra.items()]
    rows += [(k, metrics[k], unit[k]) for k in unit]
    for name, value, u in rows:
        print("%-32s %14.6g %s" % (name, value, u))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="all runs the four workloads one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every generated request (self-test only)")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        bins = build()
        for name in names:
            results[name] = run_workload(bins, argparse.Namespace(**{**vars(args), "workload": name}))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
