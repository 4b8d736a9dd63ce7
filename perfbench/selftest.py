#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must print
   every metric BENCHMARK.json names, with its unit, and pass its checks.
2. A copy of an oracle output with one flipped byte must be counted as a
   failed operation by each workload's check.
3. A directory holding only BENCHMARK.json and the benchmark's files must
   make the benchmark exit non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys

import run

SEED = 7


def bench(args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def tiny_runs(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            r = bench(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny"])
            what = "%s trace=%d" % (workload, trace)
            if r.returncode != 0:
                problems.append("%s exited %d: %s" % (what, r.returncode, r.stderr[-500:]))
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (what, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: checks failed: %s" % (what, r.stdout[-1000:]))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (what, sorted(set(got) ^ set(want))))
            for name, unit in want.items():
                if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in r.stdout.splitlines()):
                    problems.append("%s: no printed row for %s [%s]" % (what, name, unit))
            print("ok: %s" % what, flush=True)


def flip(data, at):
    b = bytearray(data)
    b[at] ^= 0x01
    return bytes(b)


def flipped_outputs(problems):
    """One flipped byte in a copy of each oracle output must fail."""
    def out(workload):
        return run.HERE / "out" / ("%s-seed%d-trace0" % (workload, SEED))

    cases = []
    expected = (run.ROOT / "EXPERIMENTS.md").read_bytes()
    cases.append(("paper-report", run.report_matches(flip(expected, len(expected) // 2), expected)))

    first = (out("grid-busy-churn") / "response-0.json").read_bytes()
    digest = run.report_digest(first)
    at = first.index(digest.encode()) + 5
    cases.append(("grid digest", run.campaign_ok(flip(first, at), first, digest)))
    cases.append(("grid manifest", run.campaign_ok(flip(first, 20), first, digest)))

    answers = run.read_responses(out("serve-mix") / "oracle" / "responses.txt")
    status, body = next(a for a in answers if a[0] == 200)
    sent = ("fresh", "", None)
    cases.append(("serve", run.serve_reply_ok(sent, (status, flip(body, len(body) // 2)),
                                              (status, body))))
    for name, ok in cases:
        tally = run.Tally()
        tally.check(ok, name)
        if len(tally.failures) / tally.attempted != 1.0:
            problems.append("flipped byte not counted as failed: %s" % name)
        else:
            print("ok: flipped byte counted as failed (%s)" % name, flush=True)


def empty_checkout(problems):
    bare = run.HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    r = bench(["--workload", "grid-idle-month", "--seed", "1", "--seconds", "1", "--trace", "0"],
              cwd=bare, script=bare / "perfbench" / "run.py")
    if r.returncode == 0 or r.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r" % (r.returncode, r.stdout[-200:]))
    else:
        print("ok: bare directory exits %d without a result" % r.returncode, flush=True)
    shutil.rmtree(bare)


def main():
    problems = []
    tiny_runs(problems)
    flipped_outputs(problems)
    empty_checkout(problems)
    for p in problems:
        print("FAIL: " + p)
    print("selftest: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
