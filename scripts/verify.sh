#!/usr/bin/env bash
# Tier-1 verification: everything here must pass offline, with no
# network access, using only the vendored/in-repo dependencies.
#
#   ./scripts/verify.sh
#
# Runs the same gates as CI: formatting, lints (warnings are errors),
# the determinism lint, the test suite for the default workspace
# members, a fault-injection smoke run, the EXPERIMENTS.md byte-identity
# check (zero churn must leave every figure untouched) and the fig1 run
# manifest byte-identity check against the committed golden. The bench
# crate and the in-repo criterion/proptest shims are outside the
# default members and are exercised by `cargo build --workspace`.
#
# Each step's wall time is summarized at the end — reported for humans
# and CI logs only, never gated (DESIGN.md §11).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STEP_NAMES=()
STEP_SECS=()

step() {
  local name="$1"
  shift
  echo "==> $name"
  local t0=$SECONDS
  "$@"
  STEP_NAMES+=("$name")
  STEP_SECS+=($((SECONDS - t0)))
}

experiments_identity() {
  cargo run -q --release --bin vgrid-report -- --paper > target/EXPERIMENTS.regen.md
  cmp EXPERIMENTS.md target/EXPERIMENTS.regen.md
}

metrics_identity() {
  cargo run -q --release --bin vgrid -- run fig1 \
    --metrics-json target/fig1.metrics.json > /dev/null
  cmp tests/golden/fig1.metrics.json target/fig1.metrics.json
}

# The scheduler reference reaches the engine through RunOptions alone
# (DESIGN.md §7.1): `--per-quantum-reference` must leave fig1's output
# unchanged while its manifest reports the reference mode and not one
# coalesced quantum.
reference_modes_smoke() {
  cargo run -q --release --bin vgrid -- run fig1 > target/fig1.coalesced.txt
  cargo run -q --release --bin vgrid -- run fig1 --per-quantum-reference \
    > target/fig1.reference.txt
  cmp target/fig1.coalesced.txt target/fig1.reference.txt
  cargo run -q --release --bin vgrid -- run fig1 --per-quantum-reference \
    --metrics-json target/fig1.reference.metrics.json > /dev/null
  grep -q '"scheduler_mode":"per-quantum-reference"' target/fig1.reference.metrics.json
  grep -Eq '"os.loop.quanta_coalesced":0[,}]' target/fig1.reference.metrics.json
}

churn_smoke() {
  cargo run -q --release --bin vgrid -- run grid-churn > /dev/null
}

# Live wire smoke (DESIGN.md §15): served responses must be
# byte-identical to `vgrid campaign --spec` output for the golden
# request fixtures. Shared with CI's dedicated serve-smoke lane.
serve_smoke() {
  ./scripts/serve_smoke.sh
}

# Migration gate (DESIGN.md §16): the grid-migration sweep smoke plus
# the pinned grid_migration bench rows. Shared with CI's dedicated
# migration-gate lane.
migration_gate() {
  ./scripts/migration_gate.sh
}

step "cargo fmt --check" \
  cargo fmt --all -- --check

step "cargo clippy (default members, -D warnings)" \
  cargo clippy --all-targets -- -D warnings

step "simlint (determinism + shared-state contracts: exit 0 = clean, 1 = violations)" \
  cargo run -q -p simlint

step "cargo build --workspace (includes bench crate + shims)" \
  cargo build -q --workspace --examples --tests --benches

step "cargo test (default members)" \
  cargo test -q

step "grid-churn quick run (fault-injection smoke)" \
  churn_smoke

step "EXPERIMENTS.md byte-identity (zero churn must not move any figure)" \
  experiments_identity

step "fig1 metrics manifest byte-identity (tests/golden/fig1.metrics.json)" \
  metrics_identity

step "reference modes smoke (--per-quantum-reference: same fig1 output, reference manifest)" \
  reference_modes_smoke

step "serve smoke (live server vs campaign --spec, byte-identical)" \
  serve_smoke

step "migration gate (sweep smoke + pinned grid_migration bench rows)" \
  migration_gate

echo
echo "step wall times (reported only, never gated):"
for i in "${!STEP_NAMES[@]}"; do
  printf '  %4ds  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done

echo "verify: OK"
