#!/usr/bin/env bash
# Live wire smoke for `vgrid serve` (DESIGN.md §15): start the release
# server, post the golden request fixtures over HTTP, and diff each
# response byte-for-byte against the offline `vgrid campaign --spec`
# manifest for the same document. The two paths share one code path
# (`grid::wire::run_request_json`), so any drift is a bug. python3's
# stdlib is the HTTP client (no curl in the offline CI image).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

PORT="${VGRID_SMOKE_PORT:-7937}"

cargo build -q --release --bin vgrid
mkdir -p target

cargo run -q --release --bin vgrid -- serve --port "$PORT" --workers 2 \
  2> target/serve-smoke.log &
SERVER_PID=$!
cleanup() { kill "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT

for _ in $(seq 1 50); do
  if grep -q "listening" target/serve-smoke.log 2>/dev/null; then break; fi
  sleep 0.1
done

for name in campaign_native campaign_vm campaign_migration campaign_lowchurn; do
  cargo run -q --release --bin vgrid -- campaign \
    --spec "tests/golden/$name.request.json" \
    --manifest-json "target/$name.cli.json"
  python3 - "$PORT" "tests/golden/$name.request.json" \
    "target/$name.served.json" <<'PY'
import sys, urllib.request
port, req_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
body = open(req_path, "rb").read()
req = urllib.request.Request(
    f"http://127.0.0.1:{port}/v1/campaign", data=body, method="POST",
    headers={"X-Vgrid-Tenant": "verify"})
with urllib.request.urlopen(req, timeout=120) as resp:
    open(out_path, "wb").write(resp.read())
PY
  cmp "target/$name.cli.json" "target/$name.served.json"
  echo "serve smoke: $name OK (served == campaign --spec)"
done

# Hostile bodies: 100k-deep nesting (a stack overflow without the
# parser's depth limit) and a 1 MiB string (seconds per request with a
# quadratic string scan). Each must come back as a typed error document
# within 10 s, and the server must still answer /v1/health afterwards.
python3 - "$PORT" <<'PY'
import json, sys, urllib.error, urllib.request
port = sys.argv[1]
cases = [
    ("deep nesting", b"[" * 100000 + b"]" * 100000, "json"),
    ("1 MiB string",
     b'{"spec_version": 1, "bogus": "' + b"x" * (1 << 20) + b'"}', "invalid"),
]
for name, body, kind in cases:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/campaign", data=body, method="POST",
        headers={"X-Vgrid-Tenant": "hostile"})
    try:
        urllib.request.urlopen(req, timeout=10)
        sys.exit(f"serve smoke: {name}: expected an error response")
    except urllib.error.HTTPError as e:
        doc = json.loads(e.read())
    assert doc["schema"] == "vgrid-error/v1", doc
    assert doc["error"]["kind"] == kind, doc
    print(f"serve smoke: {name} OK ({kind} error)")
with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/health", timeout=10) as resp:
    assert resp.status == 200
print("serve smoke: health OK after hostile bodies")
PY

python3 - "$PORT" <<'PY'
import sys, urllib.request
port = sys.argv[1]
req = urllib.request.Request(
    f"http://127.0.0.1:{port}/v1/shutdown", data=b"", method="POST")
with urllib.request.urlopen(req, timeout=30) as resp:
    assert b'"ok":true' in resp.read()
PY
wait "$SERVER_PID"
trap - EXIT
echo "serve smoke: OK"
